"""Differential tests: fast fault classification vs. the dense oracle.

``FaultCampaign.classify`` answers the three built-in fault kinds from
per-baseline outcome tables, one bisection per fault, and everything else
through the sparse path: a fault offered only its candidate blocks
(:meth:`FaultDescriptor.candidates` over the trace's per-SM activity
index), compared only on the corrupted blocks.  The retained oracle
(:mod:`repro.faults.reference`) offers every record of the trace and
rebuilds and compares full output signatures.  Both must produce the same
corruption map and the same :class:`InjectionResult` for every fault —
including faults placed exactly on block boundaries and outside the
trace, where an off-by-one in a table would show — and whole campaigns
must fold to the same report digest.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.faults.campaign as campaign_module
from repro.api import RunSpec, WorkloadSpec
from repro.errors import FaultInjectionError, RedundancyError
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


#: Fault times past the end of every trace (``nan`` compares false with
#: every record time, so it must mask CCFs and SEUs and corrupt every
#: block of a permanent fault's SM).
_OUTSIDE = (math.inf, math.nan)


def _faults_at(trace, t: float, fault_id: int, work_hint: float,
               quantum: float = 1.0):
    """A chip-wide CCF at ``t``, and an SEU and a permanent fault from
    ``t`` on every SM."""
    faults = [TransientCCF(time=t, fault_id=fault_id,
                           work_per_block=work_hint, phase_quantum=quantum)]
    for sm in range(trace.num_sms):
        faults.append(SEUFault(sm=sm, time=t, fault_id=fault_id))
        faults.append(PermanentSMFault(sm=sm, fault_id=fault_id, since=t))
    return faults


@st.composite
def _boundary_faults(draw, trace, work_hint: float, copies: int):
    """Faults placed on block boundaries, outside the trace, on SM
    subsets and of a custom kind."""
    records = trace.tb_records
    picked = draw(st.lists(st.sampled_from(records), min_size=1, max_size=6))
    quantum = draw(st.sampled_from((1.0, 25.0, 400.0)))
    sms = st.sets(st.integers(0, trace.num_sms - 1), min_size=1)
    copy_sets = st.frozensets(st.integers(0, copies - 1), min_size=1)
    # the whole trace, so a copy subset corrupts every block of its copies
    faults = [_WindowFault(lo=0.0, hi=math.inf, fault_id=len(picked),
                           copies=draw(copy_sets))]
    for t in (trace.makespan, trace.makespan * 2 + 1) + _OUTSIDE:
        faults.extend(_faults_at(trace, t, len(picked), work_hint, quantum))
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


@functools.lru_cache(maxsize=None)
def _benchmark_run(benchmark: str, policy: str, redundancy: str):
    """The clean redundant run of a benchmark (shared; never mutated)."""
    spec = RunSpec(workload=WorkloadSpec(benchmark=benchmark), policy=policy,
                   redundancy=redundancy)
    gpu = spec.gpu.to_config()
    return RedundantKernelManager(
        gpu, policy, copies=spec.effective_copies
    ).run(list(spec.workload.resolve(gpu)))


@pytest.mark.parametrize("redundancy", ["dmr", "tmr"])
@pytest.mark.parametrize("policy", ["default", "srrs", "half"])
def test_whole_campaign_digest_matches_reference(policy, redundancy):
    run = _benchmark_run("hotspot", policy, redundancy)
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


@dataclass(frozen=True)
class _CopyZeroCCF(TransientCCF):
    """A CCF subclass that corrupts only copy 0: always detectable, with
    fewer corrupted blocks than the built-in CCF at the same instant."""

    def effect_on(self, record: TBRecord) -> Optional[Tuple]:
        if record.copy_id != 0:
            return None
        return super().effect_on(record)


def _count_exact_path(monkeypatch) -> list:
    """Count the calls ``classify`` makes to its exact path."""
    calls = []
    exact = campaign_module.apply_fault

    def counted(fault, trace):
        calls.append(fault)
        return exact(fault, trace)

    monkeypatch.setattr(campaign_module, "apply_fault", counted)
    return calls


class TestOutcomeTables:
    """The per-baseline outcome tables answer exactly what the oracle
    answers, at every point where a table row can change."""

    @pytest.mark.parametrize("redundancy", ["dmr", "tmr"])
    @pytest.mark.parametrize("policy", ["default", "srrs", "half"])
    def test_every_record_boundary(self, policy, redundancy):
        run = _benchmark_run("hotspot", policy, redundancy)
        trace = run.sim.trace
        campaign = FaultCampaign(run)
        work_hint = max(r.duration for r in trace.tb_records)
        points = sorted({t for r in trace.tb_records
                         for t in (r.start, r.end)})
        for fid, t in enumerate(points):
            for fault in _faults_at(trace, t, fid, work_hint):
                assert (campaign.classify(fault)
                        == reference_classify(fault, trace)), fault

    def test_times_outside_the_trace(self):
        run = _benchmark_run("hotspot", "srrs", "dmr")
        trace = run.sim.trace
        campaign = FaultCampaign(run)
        for t in (trace.makespan, trace.makespan + 1.0) + _OUTSIDE:
            for fault in _faults_at(trace, t, 0, 1000.0):
                result = campaign.classify(fault)
                assert result == reference_classify(fault, trace), fault
                if not (isinstance(fault, PermanentSMFault)
                        and math.isnan(t)):
                    assert result.outcome is FaultOutcome.MASKED, fault
        # no block ends at or before a NaN onset: the whole SM is hit
        nan_onset = PermanentSMFault(sm=0, fault_id=1, since=math.nan)
        assert (campaign.classify(nan_onset).corrupted_blocks
                == len(trace.blocks_on_sm(0)))

    def test_seus_on_idle_sms(self):
        # myocyte's 4 blocks leave SMs of the 6-SM GPU without any work
        run = _benchmark_run("myocyte", "srrs", "dmr")
        trace = run.sim.trace
        campaign = FaultCampaign(run)
        points = sorted({t for r in trace.tb_records
                         for t in (r.start, r.end)})
        idle = []
        for sm in range(trace.num_sms):
            busy = trace.busy_intervals(sm)
            if not busy:
                idle += [SEUFault(sm=sm, time=t, fault_id=sm)
                         for t in points]
            gaps = [(0.0, busy[0][0])] if busy else []
            gaps += [(a[1], b[0]) for a, b in zip(busy, busy[1:])]
            idle += [SEUFault(sm=sm, time=lo, fault_id=sm)
                     for lo, hi in gaps if lo < hi]
        assert idle
        for fault in idle:
            result = campaign.classify(fault)
            assert result == reference_classify(fault, trace), fault
            assert result.outcome is FaultOutcome.MASKED

    def test_co_resident_copies_take_the_exact_path(self, monkeypatch):
        # default-policy nw runs both copies of some blocks side by side,
        # so a CCF then corrupts every copy and only the phase buckets
        # decide between detected and silent corruption
        run = _benchmark_run("nw", "default", "dmr")
        trace = run.sim.trace
        campaign = FaultCampaign(run)
        calls = _count_exact_path(monkeypatch)
        work_hint = max(r.duration for r in trace.tb_records)
        outcomes = set()
        for fid, record in enumerate(trace.tb_records):
            for quantum in (1.0, 1e9):
                fault = TransientCCF(time=record.start, fault_id=fid,
                                     work_per_block=work_hint,
                                     phase_quantum=quantum)
                result = campaign.classify(fault)
                assert result == reference_classify(fault, trace), fault
                outcomes.add(result.outcome)
        assert calls
        assert FaultOutcome.SDC in outcomes

    def test_ccf_subclass_is_classified_exactly(self, monkeypatch):
        run = _benchmark_run("hotspot", "default", "dmr")
        trace = run.sim.trace
        campaign = FaultCampaign(run)
        calls = _count_exact_path(monkeypatch)
        differs = False
        for fid, record in enumerate(trace.tb_records):
            fault = _CopyZeroCCF(time=record.start, fault_id=fid)
            result = campaign.classify(fault)
            assert result == reference_classify(fault, trace), fault
            differs |= result != campaign.classify(
                TransientCCF(time=record.start, fault_id=fid))
        assert len(calls) == len(trace.tb_records)
        assert differs

    @pytest.mark.parametrize("make", [
        lambda n: PermanentSMFault(sm=n, fault_id=0),
        lambda n: SEUFault(sm=n, time=0.0, fault_id=0),
        lambda n: TransientCCF(time=0.0, fault_id=0, sms=(0, n)),
    ])
    def test_out_of_range_sm_raises(self, make):
        run = _benchmark_run("hotspot", "srrs", "dmr")
        campaign = FaultCampaign(run)
        with pytest.raises(FaultInjectionError, match="SM"):
            campaign.classify(make(run.sim.trace.num_sms))


def test_hotspot_campaign_takes_the_fast_path(monkeypatch):
    """2,000 injections on hotspot/srrs never reach the exact path, so a
    silent fall-back would fail here instead of only showing in timing."""
    campaign = FaultCampaign(_benchmark_run("hotspot", "srrs", "dmr"))
    config = CampaignConfig(transient_ccf=1200, permanent_sm=400, seu=400,
                            seed=1)
    calls = _count_exact_path(monkeypatch)
    report = CampaignReport(policy=campaign.policy)
    for index in range(config.total_injections):
        fault = campaign.fault_at(config, index)
        report.record(campaign.classify(fault), type(fault).__name__)
    assert calls == []
    assert report.total == 2000 and report.detected > 0


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
