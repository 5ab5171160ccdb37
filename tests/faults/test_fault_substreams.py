"""The reseeding substream factory (``prefixed_substreams``) behind
``FaultCampaign.fault_at`` and the stream arrivals is a pure speed-up:
it yields exactly the generators and faults of a fresh ``Random``."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, WorkloadSpec
from repro.faults.campaign import (
    CampaignConfig,
    FaultCampaign,
    SamplingConfig,
    fault_substream,
    prefixed_substreams,
)
from repro.redundancy.manager import RedundantKernelManager
from repro.streams.arrivals import frame_substream, substream_factory

SEEDS = (0, 1, 7, 2019, 123456789, 2**63 + 5)


@pytest.fixture(scope="module")
def campaign() -> FaultCampaign:
    spec = RunSpec(workload=WorkloadSpec(benchmark="hotspot"), policy="srrs")
    gpu = spec.gpu.to_config()
    run = RedundantKernelManager(gpu, "srrs").run(
        list(spec.workload.resolve(gpu)))
    return FaultCampaign(run)


def test_factory_state_matches_fault_substream():
    for seed in SEEDS:
        substream = prefixed_substreams(f"{seed}:")
        for index in list(range(200)) + [10**6, 10**12 + 3]:
            rng = substream(index)
            assert rng.getstate() == fault_substream(seed, index).getstate()
            rng.random()  # a shared instance: draws never leak forward


def test_stream_factory_matches_frame_substream():
    for seed in SEEDS[:3]:
        for purpose in ("jitter", "gap", "fault"):
            substream = substream_factory(seed, purpose)
            for index in range(100):
                assert (substream(index).getstate()
                        == frame_substream(seed, purpose, index).getstate())


def test_fault_substream_stays_fresh():
    first, second = fault_substream(3, 4), fault_substream(3, 4)
    assert first is not second
    first.random()  # drawing from one leaves the other untouched
    assert second.getstate() == fault_substream(3, 4).getstate()


@pytest.mark.parametrize("sampling", [
    None,
    SamplingConfig("stratified", 3, 1, 2),
    SamplingConfig("importance", 1, 2, 1),
], ids=["legacy", "stratified", "importance"])
def test_fault_at_matches_fresh_substreams(campaign, sampling, monkeypatch):
    configs = [CampaignConfig(transient_ccf=60, permanent_sm=20, seu=40,
                              seed=seed) for seed in SEEDS]
    # interleave seeds so the factory is rebuilt between calls too
    fast = [campaign.fault_at(config, index, sampling=sampling)
            for index in range(120) for config in configs]
    monkeypatch.setattr(
        FaultCampaign, "_substream",
        lambda self, seed, index: fault_substream(seed, index))
    slow = [campaign.fault_at(config, index, sampling=sampling)
            for index in range(120) for config in configs]
    assert fast == slow
    assert len({fault.describe() for fault in fast}) > 100
