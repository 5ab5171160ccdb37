"""Property tests of the dataclass codec behind every spec and artifact.

For each ``*Spec`` in :mod:`repro.api` and each ``RunArtifact`` section
class, random valid instances must satisfy:

* ``from_dict(to_dict(x)) == x`` and ``from_json(to_json(x)) == x``;
* the canonical text (and so ``config_hash``) survives the round trip;
* ``None`` for a defaulted non-``Optional`` field selects the default;
* an unknown key, a non-mapping input or a missing required field raises
  :class:`~repro.errors.ConfigurationError` — never a bare ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.api import (
    ArrivalSpec,
    CampaignSpec,
    ClassificationRow,
    ComparisonSummary,
    CotsSpec,
    CotsSummary,
    DeviceSpec,
    DiversitySummary,
    FaultPlanSpec,
    FaultSummary,
    GPUSpec,
    KernelSpec,
    PlacementSpec,
    PlatformSpec,
    RepeatSpec,
    RunArtifact,
    RunSpec,
    SamplingSpec,
    SMSpec,
    StreamFaultSpec,
    StreamSpec,
    TimingSummary,
    WorkloadSpec,
)
from repro.api.spec import SYNTHETIC_KERNELS
from repro.canon import Codec
from repro.errors import ConfigurationError

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_names = st.text(alphabet="abcdefghij-_0123456789", min_size=1, max_size=8)
_counts = st.integers(min_value=0, max_value=10_000)
_positive = st.integers(min_value=1, max_value=10_000)
_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)
_pos_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False,
                        allow_infinity=False)


def _opt(strategy):
    return st.none() | strategy


sm_specs = st.builds(
    SMSpec, max_threads=_positive, max_blocks=_positive, registers=_positive,
    shared_memory=_counts, issue_throughput=_pos_floats,
)
gpu_specs = st.builds(
    GPUSpec,
    preset=st.sampled_from([None, "gpgpusim", "gtx1050ti", "generic"]),
    name=_opt(_names), num_sms=_opt(_positive), clock_mhz=_opt(_pos_floats),
    dram_bandwidth=_opt(_pos_floats), dispatch_latency=_opt(_floats),
    allow_kernel_mixing=_opt(st.booleans()), sm=_opt(sm_specs),
)
kernel_specs = st.builds(
    KernelSpec, name=_names, grid_blocks=_positive,
    threads_per_block=_positive, regs_per_thread=_positive,
    shared_mem_per_block=_counts, work_per_block=_floats,
    bytes_per_block=_floats, output_bytes=_counts, input_bytes=_counts,
)
workload_specs = st.one_of(
    st.builds(WorkloadSpec, benchmark=st.sampled_from(
        ["hotspot", "nn", "srad_v1", "cfd"])),
    st.builds(WorkloadSpec,
              synthetic=st.sampled_from(sorted(SYNTHETIC_KERNELS))),
    st.builds(WorkloadSpec, kernels=st.lists(
        kernel_specs, min_size=1, max_size=3).map(tuple)),
).flatmap(lambda w: st.builds(
    dataclasses.replace, st.just(w),
    repeat=st.integers(min_value=1, max_value=4)))
fault_plan_specs = st.builds(
    FaultPlanSpec, transient_ccf=_counts, permanent_sm=_counts, seu=_counts,
    seed=_counts, phase_quantum=_pos_floats,
)
cots_specs = st.builds(
    CotsSpec, h2d_gbps=_pos_floats, d2h_gbps=_pos_floats,
    launch_overhead_ms=_floats, alloc_ms=_floats, free_ms=_floats,
    compare_gbps=_pos_floats, sync_overhead_ms=_floats,
)


@st.composite
def run_specs(draw, *, redundant_plain=False):
    """Valid RunSpecs; ``redundant_plain``: simulated, copies >= 2, no faults."""
    workload = draw(workload_specs)
    redundancy = draw(st.sampled_from(
        ["dmr", "tmr"] if redundant_plain else ["none", "dmr", "tmr"]))
    copies = draw(_opt(st.integers(min_value=2 if redundant_plain else 1,
                                   max_value=4)))
    simulate = True if redundant_plain else draw(st.booleans())
    effective = copies if copies is not None else (
        {"none": 1, "dmr": 2, "tmr": 3}[redundancy])
    redundant = effective >= 2
    faults = None
    if not redundant_plain and simulate and redundant:
        faults = draw(_opt(fault_plan_specs))
    return RunSpec(
        workload=workload,
        gpu=draw(gpu_specs),
        policy=draw(st.sampled_from(["default", "srrs", "half"])),
        redundancy=redundancy,
        copies=copies,
        simulate=simulate,
        baseline=draw(st.booleans()) if redundant else False,
        classify=draw(st.booleans()),
        cots=(draw(_opt(cots_specs)) if workload.benchmark is not None
              else None),
        faults=faults,
        phase_tolerance=draw(_floats),
        seed=draw(_opt(_counts)),
        tag=draw(st.text(max_size=6)),
    )


sampling_specs = st.builds(
    SamplingSpec, method=st.sampled_from(["stratified", "importance"]),
    transient_ccf=_positive, permanent_sm=_positive, seu=_positive,
)


@st.composite
def repeat_specs(draw):
    batch = draw(st.integers(min_value=1, max_value=500))
    relative = draw(st.booleans())
    target = draw(st.floats(min_value=1e-3, max_value=1.0))
    return RepeatSpec(
        metric=draw(st.sampled_from(["masked", "detected", "sdc"])),
        confidence=draw(st.floats(min_value=0.5, max_value=0.999)),
        relative_half_width=target if relative else None,
        half_width=None if relative else target,
        batch=batch,
        max_total=draw(st.integers(min_value=batch, max_value=5000)),
        interval=draw(st.sampled_from(["auto", "wilson", "normal",
                                       "bootstrap"])),
    )


@st.composite
def campaign_specs(draw):
    faults = draw(fault_plan_specs.filter(
        lambda f: f.transient_ccf + f.permanent_sm + f.seu > 0))
    sampling = draw(_opt(sampling_specs))
    repeat = draw(_opt(repeat_specs())) if sampling is not None else None
    shards = shard_size = None
    if repeat is None:
        choice = draw(st.sampled_from(["none", "shards", "size"]))
        if choice == "shards":
            shards = draw(_positive)
        elif choice == "size":
            shard_size = draw(_positive)
    return CampaignSpec(run=draw(run_specs(redundant_plain=True)),
                        faults=faults, shards=shards, shard_size=shard_size,
                        sampling=sampling, repeat=repeat)


@st.composite
def arrival_specs(draw):
    model = draw(st.sampled_from(["periodic", "jittered", "poisson"]))
    period = draw(st.floats(min_value=0.1, max_value=1000.0))
    jitter = (draw(st.floats(min_value=0.0, max_value=period / 2))
              if model == "jittered" else 0.0)
    return ArrivalSpec(model=model, period_ms=period, jitter_ms=jitter)


stream_fault_specs = st.builds(
    StreamFaultSpec, probability=st.floats(min_value=0.0, max_value=1.0),
    transient_ccf=_positive, permanent_sm=_counts, seu=_counts,
    phase_quantum=_pos_floats,
)


@st.composite
def stream_specs(draw, tag=None):
    quantiles = draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                              min_size=1, max_size=4, unique=True))
    return StreamSpec(
        run=draw(run_specs(redundant_plain=True)),
        arrival=draw(arrival_specs()),
        frames=draw(_positive),
        queue_depth=draw(_counts),
        deadline_ms=draw(_opt(_pos_floats)),
        faults=draw(_opt(stream_fault_specs)),
        workload_mix=tuple(draw(st.lists(workload_specs, max_size=2))),
        quantiles=tuple(sorted(quantiles)),
        window_ms=draw(_opt(_pos_floats)),
        seed=draw(_counts),
        tag=tag if tag is not None else draw(st.text(max_size=6)),
        asil=draw(st.sampled_from([None, "QM", "A", "B", "C", "D"])),
    )


@st.composite
def device_specs(draw, name=None):
    preset = draw(st.sampled_from(
        [None, "gtx1050ti", "pcie4-discrete", "embedded-igpu"]))
    gpu = draw(gpu_specs) if preset is None else draw(_opt(gpu_specs))
    return DeviceSpec(
        name=name if name is not None else draw(_names),
        preset=preset, gpu=gpu, cots=draw(_opt(cots_specs)),
        capacity=draw(st.floats(min_value=0.01, max_value=4.0)),
    )


_policies = st.sampled_from(["first_fit", "worst_fit", "pinned", "balanced"])
placement_specs = st.builds(
    PlacementSpec, policy=_policies,
    pins=st.dictionaries(_names, _names, max_size=3).map(
        lambda pins: tuple(pins.items())),
)


@st.composite
def platform_specs(draw):
    names = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    tags = draw(st.lists(_names, min_size=1, max_size=2, unique=True))
    pinned = draw(st.lists(st.sampled_from(tags), unique=True, max_size=2))
    return PlatformSpec(
        devices=tuple(draw(device_specs(name=n)) for n in names),
        tasks=tuple(draw(stream_specs(tag=t)) for t in tags),
        placement=PlacementSpec(
            policy=draw(_policies),
            pins=tuple((t, draw(st.sampled_from(names))) for t in pinned)),
        tag=draw(st.text(max_size=6)),
    )


timing_summaries = st.builds(
    TimingSummary, busy_cycles=_floats, makespan=_floats,
    makespan_ms=_floats, events=_counts, total_kernel_cycles=_floats,
    baseline_makespan=_opt(_floats),
)
diversity_summaries = st.builds(
    DiversitySummary, total_pairs=_counts, same_sm_pairs=_counts,
    overlapping_pairs=_counts, phase_aligned_pairs=_counts,
    spatially_diverse=st.booleans(), temporally_diverse=st.booleans(),
    fully_diverse=st.booleans(), min_time_slack=_opt(_floats),
    min_phase_separation=_opt(_floats), phase_tolerance=_floats,
)
comparison_summaries = st.builds(
    ComparisonSummary, logical_kernels=_counts, error_detected=st.booleans(),
    silent_corruption=st.booleans(), all_clean=st.booleans(),
)
classification_rows = st.builds(
    ClassificationRow, kernel=_names, category=_names,
    isolated_cycles=_floats, overlap_fraction=_floats,
    resident_fraction=_floats, recommended_policy=_names,
)
cots_summaries = st.builds(
    CotsSummary, benchmark=_names, baseline_ms=_pos_floats,
    redundant_ms=_pos_floats, copies=_positive,
)
fault_summaries = st.builds(
    FaultSummary, policy=_names, total=_counts, masked=_counts,
    detected=_counts, sdc=_counts, detection_coverage=_floats,
    by_kind=st.lists(st.tuples(_names, st.lists(
        st.tuples(st.sampled_from(["masked", "detected", "sdc"]), _counts),
        max_size=3).map(tuple)), max_size=3).map(tuple),
)


@st.composite
def run_artifacts(draw):
    spec = draw(run_specs())
    return RunArtifact(
        spec=spec,
        config_hash=spec.config_hash,
        version=draw(_names),
        scheduler=draw(_opt(_names)),
        timing=draw(_opt(timing_summaries)),
        diversity=draw(_opt(diversity_summaries)),
        comparisons=draw(_opt(comparison_summaries)),
        classification=tuple(draw(st.lists(classification_rows,
                                           max_size=2))),
        cots=draw(_opt(cots_summaries)),
        faults=draw(_opt(fault_summaries)),
    )


STRATEGIES = {
    SMSpec: sm_specs,
    GPUSpec: gpu_specs,
    KernelSpec: kernel_specs,
    WorkloadSpec: workload_specs,
    FaultPlanSpec: fault_plan_specs,
    CotsSpec: cots_specs,
    RunSpec: run_specs(),
    SamplingSpec: sampling_specs,
    RepeatSpec: repeat_specs(),
    CampaignSpec: campaign_specs(),
    ArrivalSpec: arrival_specs(),
    StreamFaultSpec: stream_fault_specs,
    StreamSpec: stream_specs(),
    DeviceSpec: device_specs(),
    PlacementSpec: placement_specs,
    PlatformSpec: platform_specs(),
    TimingSummary: timing_summaries,
    DiversitySummary: diversity_summaries,
    ComparisonSummary: comparison_summaries,
    ClassificationRow: classification_rows,
    CotsSummary: cots_summaries,
    FaultSummary: fault_summaries,
    RunArtifact: run_artifacts(),
}
CLASSES = sorted(STRATEGIES, key=lambda cls: cls.__name__)
_ids = [cls.__name__ for cls in CLASSES]


def _outcome(cls, payload):
    try:
        return cls.from_dict(payload)
    except ConfigurationError as exc:
        return ("error", str(exc))


def _defaulted_plain(cls):
    """Fields with a default whose type hint does not admit ``None``."""
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls)
            if f.name not in _required(cls)
            and type(None) not in typing.get_args(hints[f.name])]


def _required(cls):
    return [f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING]


# ----------------------------------------------------------------------
class TestCoverage:
    def test_every_codec_class_has_a_strategy(self):
        public = [getattr(api, name) for name in api.__all__]
        codecs = {obj for obj in public
                  if isinstance(obj, type) and issubclass(obj, Codec)}
        assert codecs == set(STRATEGIES)


class TestRoundTrip:
    @pytest.mark.parametrize("cls", CLASSES, ids=_ids)
    @_SETTINGS
    @given(data=st.data())
    def test_dict_and_json_round_trip(self, cls, data):
        obj = data.draw(STRATEGIES[cls])
        assert cls.from_dict(obj.to_dict()) == obj
        text = obj.to_json()
        again = cls.from_json(text)
        assert again == obj
        assert again.to_json() == text
        # the canonical text survives a plain json.loads/dumps cycle
        assert json.dumps(json.loads(text), sort_keys=True) == text
        if hasattr(cls, "config_hash") and cls is not RunArtifact:
            assert again.config_hash == obj.config_hash


class TestNoneSelectsDefault:
    @pytest.mark.parametrize(
        "cls", [c for c in CLASSES if _defaulted_plain(c)],
        ids=[c.__name__ for c in CLASSES if _defaulted_plain(c)])
    @_SETTINGS
    @given(data=st.data())
    def test_none_means_omitted(self, cls, data):
        payload = data.draw(STRATEGIES[cls]).to_dict()
        name = data.draw(st.sampled_from(_defaulted_plain(cls)))
        omitted = {k: v for k, v in payload.items() if k != name}
        assert _outcome(cls, {**payload, name: None}) == _outcome(
            cls, omitted)


class TestMalformedInput:
    @pytest.mark.parametrize("cls", CLASSES, ids=_ids)
    @_SETTINGS
    @given(data=st.data())
    def test_unknown_key_raises(self, cls, data):
        payload = data.draw(STRATEGIES[cls]).to_dict()
        payload["no_such_field"] = 1
        with pytest.raises(ConfigurationError, match="no_such_field"):
            cls.from_dict(payload)

    @pytest.mark.parametrize("cls", CLASSES, ids=_ids)
    @pytest.mark.parametrize("junk", [None, 3, "spec", ["a", "b"]])
    def test_non_mapping_raises(self, cls, junk):
        with pytest.raises(ConfigurationError, match=cls.__name__):
            cls.from_dict(junk)

    @pytest.mark.parametrize(
        "cls", [c for c in CLASSES if _required(c)],
        ids=[c.__name__ for c in CLASSES if _required(c)])
    @_SETTINGS
    @given(data=st.data())
    def test_missing_required_field_raises(self, cls, data):
        payload = data.draw(STRATEGIES[cls]).to_dict()
        missing = data.draw(st.sampled_from(_required(cls)))
        del payload[missing]
        with pytest.raises(ConfigurationError,
                           match=f"{cls.__name__} requires a {missing}"):
            cls.from_dict(payload)
