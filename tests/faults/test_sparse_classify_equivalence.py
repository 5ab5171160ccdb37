"""Differential tests: sparse fault classification vs. the dense oracle.

The production path offers a fault only its candidate blocks
(:meth:`FaultDescriptor.candidates` over the trace's per-SM activity
index) and compares only the corrupted blocks against their peer copies.
The retained oracle (:mod:`repro.faults.reference`) offers every record
of the trace and rebuilds and compares full output signatures.  Both must
produce the same corruption map and the same :class:`InjectionResult`
for every fault — including faults placed exactly on block boundaries,
where an off-by-one in the index would show — and whole campaigns must
fold to the same report digest.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, WorkloadSpec
from repro.errors import RedundancyError
from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    FaultCampaign,
    SamplingConfig,
)
from repro.faults.injector import apply_fault
from repro.faults.outcomes import FaultOutcome
from repro.faults.reference import reference_apply_fault, reference_classify
from repro.faults.types import (
    FaultDescriptor,
    PermanentSMFault,
    SEUFault,
    TransientCCF,
)
from repro.gpu.scheduler.registry import available_schedulers
from repro.gpu.trace import KernelSpan, TBRecord
from repro.redundancy.manager import RedundantKernelManager

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "gpu"))
from test_simulator_equivalence import random_gpu, random_workload  # noqa: E402

POLICIES = available_schedulers()

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@dataclass(frozen=True)
class _WindowFault(FaultDescriptor):
    """A custom fault kind that keeps the default (whole-trace) candidates.

    It corrupts every block of the listed copies that overlaps
    ``[lo, hi)``, with a signature that depends only on the block index:
    copies that all overlap the window agree (SDC), and a copy left clean
    disagrees with the others (detected).
    """

    lo: float
    hi: float
    fault_id: int
    copies: FrozenSet[int]

    def effect_on(self, record: TBRecord) -> Optional[Tuple]:
        if (record.copy_id in self.copies and record.start < self.hi
                and self.lo < record.end):
            return ("window", self.fault_id, record.tb_index)
        return None


def _redundant_run(seed: int, policy: str, copies: int):
    """A random GPU and kernel chain, executed redundantly."""
    rng = random.Random(seed)
    gpu = random_gpu(rng)
    kernels = [launch.kernel for launch in random_workload(rng)]
    return RedundantKernelManager(gpu, policy, copies=copies).run(kernels)


def _assert_same(campaign: FaultCampaign, fault: FaultDescriptor,
                 trace) -> None:
    sparse = apply_fault(fault, trace)
    assert sparse == reference_apply_fault(fault, trace), fault
    assert campaign.classify(fault) == reference_classify(fault, trace), fault


@st.composite
def _boundary_faults(draw, trace, work_hint: float, copies: int):
    """Faults placed on block boundaries, SM subsets and a custom kind."""
    records = trace.tb_records
    picked = draw(st.lists(st.sampled_from(records), min_size=1, max_size=6))
    quantum = draw(st.sampled_from((1.0, 25.0, 400.0)))
    sms = st.sets(st.integers(0, trace.num_sms - 1), min_size=1)
    copy_sets = st.frozensets(st.integers(0, copies - 1), min_size=1)
    # the whole trace, so a copy subset corrupts every block of its copies
    faults = [_WindowFault(lo=0.0, hi=math.inf, fault_id=len(picked),
                           copies=draw(copy_sets))]
    for fid, record in enumerate(picked):
        for t in (record.start, record.end):
            faults.append(TransientCCF(time=t, fault_id=fid,
                                       work_per_block=work_hint,
                                       phase_quantum=quantum))
            faults.append(TransientCCF(time=t, fault_id=fid,
                                       sms=tuple(sorted(draw(sms))),
                                       work_per_block=work_hint,
                                       phase_quantum=quantum))
            faults.append(SEUFault(sm=record.sm, time=t, fault_id=fid))
        faults.append(PermanentSMFault(sm=record.sm, fault_id=fid,
                                       since=record.end))
        faults.append(PermanentSMFault(sm=record.sm, fault_id=fid,
                                       since=record.start))
        faults.append(_WindowFault(lo=record.start, hi=record.end,
                                   fault_id=fid, copies=draw(copy_sets)))
    return faults


class TestSparseMatchesDense:
    @_SETTINGS
    @given(seed=st.integers(0, 10**6), policy=st.sampled_from(POLICIES),
           copies=st.sampled_from((2, 3)), data=st.data())
    def test_random_workloads(self, seed, policy, copies, data):
        run = _redundant_run(seed, policy, copies)
        trace = run.sim.trace
        campaign = FaultCampaign(run)
        work_hint = max(r.duration for r in trace.tb_records) or 1.0

        config = CampaignConfig(seed=seed)
        sampling = SamplingConfig("stratified")
        for index in range(9):
            _assert_same(campaign,
                         campaign.fault_at(config, index, sampling=sampling),
                         trace)
        for fault in data.draw(_boundary_faults(trace, work_hint, copies)):
            _assert_same(campaign, fault, trace)


@pytest.mark.parametrize("redundancy", ["dmr", "tmr"])
@pytest.mark.parametrize("policy", ["default", "srrs", "half"])
def test_whole_campaign_digest_matches_reference(policy, redundancy):
    spec = RunSpec(workload=WorkloadSpec(benchmark="hotspot"), policy=policy,
                   redundancy=redundancy)
    gpu = spec.gpu.to_config()
    run = RedundantKernelManager(
        gpu, policy, copies=spec.effective_copies
    ).run(list(spec.workload.resolve(gpu)))
    campaign = FaultCampaign(run)
    config = CampaignConfig(transient_ccf=300, permanent_sm=60, seu=100,
                            seed=11)

    report = campaign.run(config)
    reference = CampaignReport(policy=campaign.policy)
    for fault in campaign.sample_faults(config):
        reference.record(reference_classify(fault, run.sim.trace),
                         type(fault).__name__)
    assert report.digest() == reference.digest()
    assert report.injections == reference.injections
    if policy == "default":
        # the oracle comparison covers the silent-corruption branch too
        assert report.count(FaultOutcome.SDC) > 0
    assert report.count(FaultOutcome.DETECTED) > 0


class TestGroupShapeCheckedAtConstruction:
    """Malformed comparison groups fail when the campaign is built, not
    when a fault first hits them."""

    @pytest.fixture
    def run(self):
        return _redundant_run(seed=3, policy="srrs", copies=2)

    @staticmethod
    def _copy_span(trace, copy_id):
        return next(s for s in trace.spans if s.copy_id == copy_id)

    def test_clean_run_accepted(self, run):
        FaultCampaign(run)

    def test_extra_block_on_one_copy_rejected(self, run):
        trace = run.sim.trace
        span = self._copy_span(trace, 1)
        grid = len(trace.blocks_of(span.instance_id))
        trace.add_tb(TBRecord(instance_id=span.instance_id,
                              logical_id=span.logical_id, copy_id=1,
                              tb_index=grid, sm=0, start=span.first_dispatch,
                              end=span.completion))
        with pytest.raises(RedundancyError, match="different grids"):
            FaultCampaign(run)

    def test_single_copy_group_rejected(self, run):
        trace = run.sim.trace
        iid = max(trace.instance_ids) + 1
        logical = max(trace.logical_ids()) + 1
        trace.add_tb(TBRecord(instance_id=iid, logical_id=logical,
                              copy_id=0, tb_index=0, sm=0, start=0.0,
                              end=1.0))
        trace.add_span(KernelSpan(instance_id=iid, logical_id=logical,
                                  copy_id=0, kernel_name="lonely",
                                  arrival=0.0, first_dispatch=0.0,
                                  completion=1.0))
        with pytest.raises(RedundancyError, match=">= 2"):
            FaultCampaign(run)

    def test_duplicate_copy_ids_rejected(self, run):
        trace = run.sim.trace
        span = self._copy_span(trace, 1)
        iid = max(trace.instance_ids) + 1
        for record in trace.blocks_of(span.instance_id):
            trace.add_tb(TBRecord(instance_id=iid,
                                  logical_id=span.logical_id, copy_id=1,
                                  tb_index=record.tb_index, sm=record.sm,
                                  start=record.start, end=record.end))
        trace.add_span(KernelSpan(instance_id=iid,
                                  logical_id=span.logical_id, copy_id=1,
                                  kernel_name="twin", arrival=span.arrival,
                                  first_dispatch=span.first_dispatch,
                                  completion=span.completion))
        with pytest.raises(RedundancyError, match="duplicate copy ids"):
            FaultCampaign(run)

    def test_block_outside_every_group_rejected(self, run):
        trace = run.sim.trace
        trace.add_tb(TBRecord(instance_id=max(trace.instance_ids) + 1,
                              logical_id=0, copy_id=0, tb_index=0, sm=0,
                              start=0.0, end=1.0))
        with pytest.raises(RedundancyError, match="no comparison group"):
            FaultCampaign(run)
