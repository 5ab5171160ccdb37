"""Byte-exact pins of the canonical spec and artifact forms.

``config_hash`` is the provenance key of every run, campaign store,
stream report and platform report, so the canonical JSON text behind it
must never drift — not when the serialisation code is refactored, not
when a field codec changes.  Each pin below records:

* the ``config_hash`` (first 16 hex chars of SHA-256 over ``to_json()``);
* the exact ``to_json()`` text — literally for the small specs, as its
  full SHA-256 for the large ones (a full digest pins every byte).

The shipped ``examples/specs/*.json`` files are pinned too: they must
parse, and re-serialise to the same canonical text.  A changed pin means
a changed provenance key; that is a breaking change for every store and
report on disk, never an incidental one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import (
    ArrivalSpec,
    CampaignSpec,
    CotsSpec,
    DeviceSpec,
    Engine,
    FaultPlanSpec,
    GPUSpec,
    KernelSpec,
    PlacementSpec,
    PlatformSpec,
    RepeatSpec,
    RunSpec,
    SamplingSpec,
    SMSpec,
    StreamFaultSpec,
    StreamSpec,
    WorkloadSpec,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "specs"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the pinned specs
# ----------------------------------------------------------------------
_KERNEL = KernelSpec(
    name="k0", grid_blocks=12, threads_per_block=128, regs_per_thread=32,
    shared_mem_per_block=1024, work_per_block=2500.0, bytes_per_block=64.0,
    output_bytes=8192, input_bytes=2048,
)

_FULL_GPU = GPUSpec(
    preset="gtx1050ti", name="pinned-gpu", num_sms=8, clock_mhz=1500.0,
    dram_bandwidth=90.0, dispatch_latency=700.0, allow_kernel_mixing=True,
    sm=SMSpec(max_threads=2048, max_blocks=16, registers=32768,
              shared_memory=65536, issue_throughput=2.0),
)


def run_minimal() -> RunSpec:
    return RunSpec(workload=WorkloadSpec(benchmark="hotspot"))


def run_full() -> RunSpec:
    return RunSpec(
        workload=WorkloadSpec(benchmark="hotspot", repeat=2),
        gpu=_FULL_GPU,
        policy="half",
        redundancy="tmr",
        copies=3,
        simulate=True,
        baseline=True,
        classify=True,
        cots=CotsSpec(h2d_gbps=5.0, d2h_gbps=7.0, launch_overhead_ms=0.01,
                      alloc_ms=0.2, free_ms=0.05, compare_gbps=3.0,
                      sync_overhead_ms=0.03),
        faults=FaultPlanSpec(transient_ccf=11, permanent_sm=3, seu=5,
                             seed=99, phase_quantum=2.0),
        phase_tolerance=2.5,
        seed=11,
        tag="full",
    )


def run_kernels() -> RunSpec:
    return RunSpec(
        workload=WorkloadSpec(kernels=(_KERNEL, KernelSpec(
            name="k1", grid_blocks=4, threads_per_block=64)), repeat=3),
        gpu=GPUSpec(preset=None, num_sms=6),
        redundancy="none",
    )


def stream_minimal() -> StreamSpec:
    return StreamSpec(run=run_minimal())


def stream_full() -> StreamSpec:
    return StreamSpec(
        run=RunSpec(workload=WorkloadSpec(benchmark="srad_v1"),
                    policy="half", redundancy="tmr"),
        arrival=ArrivalSpec(model="jittered", period_ms=20.0, jitter_ms=1.5),
        frames=321,
        queue_depth=2,
        deadline_ms=45.0,
        faults=StreamFaultSpec(probability=0.25, transient_ccf=3,
                               permanent_sm=0, seu=2, phase_quantum=0.5),
        workload_mix=(WorkloadSpec(benchmark="nn"),
                      WorkloadSpec(kernels=(_KERNEL,))),
        quantiles=(0.5, 0.95, 0.999),
        window_ms=400.0,
        seed=5,
        tag="full-stream",
        asil="B",
    )


def platform_minimal() -> PlatformSpec:
    return PlatformSpec(
        devices=(DeviceSpec(name="gpu0"),),
        tasks=(StreamSpec.for_task("radar-cfar", frames=10),),
    )


def platform_full() -> PlatformSpec:
    return PlatformSpec(
        devices=(
            DeviceSpec(name="gpu0", preset="pcie4-discrete", capacity=0.8),
            DeviceSpec(name="gpu1", preset=None, gpu=_FULL_GPU,
                       cots=CotsSpec(alloc_ms=0.3), capacity=0.9),
        ),
        tasks=(
            StreamSpec.for_task("radar-cfar", frames=10),
            StreamSpec.for_task("camera-perception", frames=20,
                                arrival_model="jittered", jitter_ms=1.0),
        ),
        placement=PlacementSpec(policy="pinned", pins=(
            ("radar-cfar", "gpu1"), ("camera-perception", "gpu0"))),
        tag="full-platform",
    )


def campaign_legacy() -> CampaignSpec:
    return CampaignSpec(
        run=run_minimal(),
        faults=FaultPlanSpec(transient_ccf=60, permanent_sm=20, seu=20,
                             seed=7),
        shards=4,
    )


def campaign_sampled() -> CampaignSpec:
    return CampaignSpec(
        run=run_minimal(),
        faults=FaultPlanSpec(transient_ccf=60, permanent_sm=20, seu=20,
                             seed=7),
        shard_size=25,
        sampling=SamplingSpec(method="stratified", transient_ccf=1,
                              permanent_sm=8, seu=1),
    )


def campaign_repeated() -> CampaignSpec:
    return CampaignSpec(
        run=run_minimal(),
        sampling=SamplingSpec(method="importance", permanent_sm=4),
        repeat=RepeatSpec(metric="detected", confidence=0.9,
                          relative_half_width=0.2, batch=50, max_total=400,
                          interval="wilson"),
    )


# name -> (builder, config_hash, full SHA-256 of to_json())
SPEC_PINS = {
    "run_minimal": (
        run_minimal, "07c3dbbda8417081",
        "07c3dbbda8417081851ef61e709728c1a09db4105fbbf6753add156d0ab199fa",
    ),
    "run_full": (
        run_full, "daec88c039b9ae51",
        "daec88c039b9ae5192836f234d71f2e2edd3ed1baa0e04f35302398e19c1a8da",
    ),
    "run_kernels": (
        run_kernels, "690fe36b3d85215e",
        "690fe36b3d85215ef2ad2bc8211024a33184e71c0b00a9952b2fdd630434e667",
    ),
    "stream_minimal": (
        stream_minimal, "b2615ad83ea60df5",
        "b2615ad83ea60df56fa3e856d602bcf4ae339330959fb7f56ec3ee861aee670f",
    ),
    "stream_full": (
        stream_full, "0bd4029a4e2c5939",
        "0bd4029a4e2c5939cb0fe862aa51987eddc772b1d8d8d48deadfffb7e3140875",
    ),
    "platform_minimal": (
        platform_minimal, "d1b4f6e90a7d2424",
        "d1b4f6e90a7d2424f5204e8a86c038c55de1d87ec561e02ca40f753932896598",
    ),
    "platform_full": (
        platform_full, "9ff476c175ec37fc",
        "9ff476c175ec37fc8beb682640bf1750efe665f45e3e85ae6d1dcad5bffc42c9",
    ),
    "campaign_legacy": (
        campaign_legacy, "cd7fbcc1850e24f4",
        "cd7fbcc1850e24f498056cbad43b71bfef8829cf25cf3129cef4a09e90177130",
    ),
    "campaign_sampled": (
        campaign_sampled, "f455cb7cf89cbb70",
        "f455cb7cf89cbb7059db66c5d7f4813a6d36de36d8bba5b6da44bf677259b6aa",
    ),
    "campaign_repeated": (
        campaign_repeated, "c8f77570623780cb",
        "c8f77570623780cb018010ea67238e038bce52d9976b629a521c46ff4abd881a",
    ),
}

# name -> exact to_json() text, for the specs small enough to read
SPEC_TEXTS = {
    "run_minimal": '{"baseline": false, "classify": false, "copies": null, "cots": null, "faults": null, "gpu": {"allow_kernel_mixing": null, "clock_mhz": null, "dispatch_latency": null, "dram_bandwidth": null, "name": null, "num_sms": null, "preset": "gpgpusim", "sm": null}, "phase_tolerance": 1.0, "policy": "srrs", "redundancy": "dmr", "seed": null, "simulate": true, "tag": "", "workload": {"benchmark": "hotspot", "kernels": [], "repeat": 1, "synthetic": null}}',
    "run_full": '{"baseline": true, "classify": true, "copies": 3, "cots": {"alloc_ms": 0.2, "compare_gbps": 3.0, "d2h_gbps": 7.0, "free_ms": 0.05, "h2d_gbps": 5.0, "launch_overhead_ms": 0.01, "sync_overhead_ms": 0.03}, "faults": {"permanent_sm": 3, "phase_quantum": 2.0, "seed": 99, "seu": 5, "transient_ccf": 11}, "gpu": {"allow_kernel_mixing": true, "clock_mhz": 1500.0, "dispatch_latency": 700.0, "dram_bandwidth": 90.0, "name": "pinned-gpu", "num_sms": 8, "preset": "gtx1050ti", "sm": {"issue_throughput": 2.0, "max_blocks": 16, "max_threads": 2048, "registers": 32768, "shared_memory": 65536}}, "phase_tolerance": 2.5, "policy": "half", "redundancy": "tmr", "seed": 11, "simulate": true, "tag": "full", "workload": {"benchmark": "hotspot", "kernels": [], "repeat": 2, "synthetic": null}}',
    "stream_minimal": '{"arrival": {"jitter_ms": 0.0, "model": "periodic", "period_ms": 33.3}, "asil": null, "deadline_ms": null, "faults": null, "frames": 1000, "quantiles": [0.5, 0.9, 0.99], "queue_depth": 4, "run": {"baseline": false, "classify": false, "copies": null, "cots": null, "faults": null, "gpu": {"allow_kernel_mixing": null, "clock_mhz": null, "dispatch_latency": null, "dram_bandwidth": null, "name": null, "num_sms": null, "preset": "gpgpusim", "sm": null}, "phase_tolerance": 1.0, "policy": "srrs", "redundancy": "dmr", "seed": null, "simulate": true, "tag": "", "workload": {"benchmark": "hotspot", "kernels": [], "repeat": 1, "synthetic": null}}, "seed": 2019, "tag": "", "window_ms": null, "workload_mix": []}',
    "campaign_legacy": '{"faults": {"permanent_sm": 20, "phase_quantum": 1.0, "seed": 7, "seu": 20, "transient_ccf": 60}, "run": {"baseline": false, "classify": false, "copies": null, "cots": null, "faults": null, "gpu": {"allow_kernel_mixing": null, "clock_mhz": null, "dispatch_latency": null, "dram_bandwidth": null, "name": null, "num_sms": null, "preset": "gpgpusim", "sm": null}, "phase_tolerance": 1.0, "policy": "srrs", "redundancy": "dmr", "seed": null, "simulate": true, "tag": "", "workload": {"benchmark": "hotspot", "kernels": [], "repeat": 1, "synthetic": null}}, "shard_size": null, "shards": 4}',
    "campaign_sampled": '{"faults": {"permanent_sm": 20, "phase_quantum": 1.0, "seed": 7, "seu": 20, "transient_ccf": 60}, "run": {"baseline": false, "classify": false, "copies": null, "cots": null, "faults": null, "gpu": {"allow_kernel_mixing": null, "clock_mhz": null, "dispatch_latency": null, "dram_bandwidth": null, "name": null, "num_sms": null, "preset": "gpgpusim", "sm": null}, "phase_tolerance": 1.0, "policy": "srrs", "redundancy": "dmr", "seed": null, "simulate": true, "tag": "", "workload": {"benchmark": "hotspot", "kernels": [], "repeat": 1, "synthetic": null}}, "sampling": {"method": "stratified", "permanent_sm": 8, "seu": 1, "transient_ccf": 1}, "shard_size": 25, "shards": null}',
    "campaign_repeated": '{"faults": {"permanent_sm": 50, "phase_quantum": 1.0, "seed": 2019, "seu": 100, "transient_ccf": 200}, "repeat": {"batch": 50, "confidence": 0.9, "half_width": null, "interval": "wilson", "max_total": 400, "metric": "detected", "relative_half_width": 0.2}, "run": {"baseline": false, "classify": false, "copies": null, "cots": null, "faults": null, "gpu": {"allow_kernel_mixing": null, "clock_mhz": null, "dispatch_latency": null, "dram_bandwidth": null, "name": null, "num_sms": null, "preset": "gpgpusim", "sm": null}, "phase_tolerance": 1.0, "policy": "srrs", "redundancy": "dmr", "seed": null, "simulate": true, "tag": "", "workload": {"benchmark": "hotspot", "kernels": [], "repeat": 1, "synthetic": null}}, "sampling": {"method": "importance", "permanent_sm": 4, "seu": 1, "transient_ccf": 1}, "shard_size": null, "shards": null}',
}

# example file -> (spec class, config_hash, full SHA-256 of to_json())
EXAMPLE_PINS = {
    "campaign.json": (
        CampaignSpec, "1d813f237f40e839",
        "1d813f237f40e83926077749eae716328fcd307acd8e89970627ff704c538ced",
    ),
    "platform.json": (
        PlatformSpec, "41e253682f33d44a",
        "41e253682f33d44a6d05fbd46f7136148dc8979bf4761c781a8781013ca08064",
    ),
    "quickstart.json": (
        RunSpec, "cbe4b5d7212cd39e",
        "cbe4b5d7212cd39e4f5e0ff153c5dfcb5908aecff12f798187122f2e7ca39790",
    ),
    "stream.json": (
        StreamSpec, "bf9d3e5bdd50648e",
        "bf9d3e5bdd50648ef5c37712624ca294f5fa3456f7af5be64cf303f130027d46",
    ),
}

# full SHA-256 of the canonical RunArtifact.to_dict() (minus "version")
ARTIFACT_PIN = (
    "5daba202e5b72d306e3402f6bfdecf480460b7ee09daaed4f09e2625f3b20188"
)


# ----------------------------------------------------------------------
class TestSpecPins:
    @pytest.mark.parametrize("name", sorted(SPEC_PINS))
    def test_config_hash_and_text(self, name):
        builder, config_hash, text_sha = SPEC_PINS[name]
        spec = builder()
        assert spec.config_hash == config_hash
        assert _sha(spec.to_json()) == text_sha
        assert spec.config_hash == text_sha[:16]

    @pytest.mark.parametrize("name", sorted(SPEC_TEXTS))
    def test_exact_text(self, name):
        assert SPEC_PINS[name][0]().to_json() == SPEC_TEXTS[name]

    @pytest.mark.parametrize("name", sorted(SPEC_PINS))
    def test_json_round_trip_keeps_hash(self, name):
        spec = SPEC_PINS[name][0]()
        again = type(spec).from_json(spec.to_json())
        assert again == spec
        assert again.config_hash == spec.config_hash

    def test_campaign_legacy_form_omits_v2_keys(self):
        data = campaign_legacy().to_dict()
        assert "sampling" not in data and "repeat" not in data

    def test_platform_pins_serialise_as_mapping(self):
        data = platform_full().to_dict()
        assert data["placement"]["pins"] == {
            "camera-perception": "gpu0", "radar-cfar": "gpu1",
        }


class TestExamplePins:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_PINS))
    def test_example_file(self, name):
        cls, config_hash, text_sha = EXAMPLE_PINS[name]
        spec = cls.from_json((EXAMPLES / name).read_text())
        assert spec.config_hash == config_hash
        assert _sha(spec.to_json()) == text_sha

    def test_every_example_is_pinned(self):
        assert sorted(p.name for p in EXAMPLES.glob("*.json")) == sorted(
            EXAMPLE_PINS)


class TestArtifactPin:
    def test_engine_run_artifact_dict(self):
        spec = RunSpec(
            workload=WorkloadSpec(benchmark="hotspot"),
            baseline=True,
            classify=True,
            cots=CotsSpec(),
            faults=FaultPlanSpec(transient_ccf=6, permanent_sm=2, seu=3,
                                 seed=3),
            tag="artifact-pin",
        )
        data = Engine().run(spec).to_dict()
        data.pop("version")
        assert _sha(json.dumps(data, sort_keys=True)) == ARTIFACT_PIN
