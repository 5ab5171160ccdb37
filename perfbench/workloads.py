"""The benchmark's three workloads: inputs from a seed, one op, its digest.

Each workload builds its inputs from the run's ``--seed`` and exposes one
*round* of ops: one campaign for ``campaign-store``, one stream for
``stream-soak`` and one pass over the whole 132-spec grid for
``design-sweep``.  Every op returns its output digest, which the harness
checks against ``pins.json``.

The program is driven only through public functions.  Calls that the
traced run wraps (``run_stream``, ``Engine.run``) are resolved through
their module or object at call time, so the wrappers that
``tracing.py`` installs are the ones these ops call.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro import (
    ArrivalSpec,
    CampaignSpec,
    Engine,
    GPUSpec,
    RunSpec,
    StreamFaultSpec,
    StreamSpec,
    WorkloadSpec,
)
from repro.api.spec import FaultPlanSpec
from repro.campaigns import runner as campaigns_runner
from repro.streams import runner as streams_runner
from repro.workloads.rodinia import FIG4_BENCHMARKS

__all__ = ["SIZES", "WORKLOADS", "PIN_POOL", "Op", "Timed", "build"]

#: Benchmark seeds map onto this many pinned input variants
#: (``variant = seed % PIN_POOL``), so every op of every run, whatever
#: its seed, is checked against a pinned digest.
PIN_POOL = 16

#: Per-workload input sizes.  ``full`` is what the benchmark measures;
#: ``tiny`` is the self-test size.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "campaign-store": {"injections": 8000, "shards": 8},
        "stream-soak": {"frames": 20_000},
        "design-sweep": {"benchmarks": FIG4_BENCHMARKS},
    },
    "tiny": {
        "campaign-store": {"injections": 400, "shards": 4},
        "stream-soak": {"frames": 3000},
        "design-sweep": {"benchmarks": ("hotspot", "nn")},
    },
}

#: ``timed(fn)`` calls ``fn`` and returns ``(seconds, result)``; the
#: harness supplies it, so only the call into the program is timed.
Timed = Callable[[Callable[[], Any]], Tuple[float, Any]]

#: One op: (pin key, callable taking ``timed`` and returning
#: ``(seconds, items, digest)``).
Op = Tuple[str, Callable[[Timed], Tuple[float, int, str]]]


def _hotspot_srrs() -> RunSpec:
    return RunSpec(workload=WorkloadSpec(benchmark="hotspot"), policy="srrs")


class CampaignStore:
    """``run_campaign`` to a fresh on-disk store, interrupted and resumed.

    The campaign is hotspot under SRRS with a 60/20/20 mix of transient
    CCF, permanent-SM and SEU faults, run with ``workers=2``.  Each op
    stops after half the shards (``max_shards``) and finishes with
    ``resume_campaign``, so it both writes the store (append + fsync)
    and reads it back (``load_records`` on resume).  An item is one
    injection.
    """

    name = "campaign-store"
    calibrate_objects = False

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        params = SIZES[size][self.name]
        total = int(params["injections"])
        ccf = total * 6 // 10
        perm = total * 2 // 10
        self.variant = seed % PIN_POOL
        self.size = size
        self.spec = CampaignSpec(
            run=_hotspot_srrs(),
            faults=FaultPlanSpec(transient_ccf=ccf, permanent_sm=perm,
                                 seu=total - ccf - perm, seed=self.variant),
            shards=int(params["shards"]),
        )
        self.half = int(params["shards"]) // 2
        self.count_key = f"{size}/{self.variant}"
        self._scratch = scratch
        self._ops = 0

    def setup(self) -> None:
        """Fill the per-process baseline cache that every shard reuses."""
        campaigns_runner.baseline_campaign(self.spec.run)

    def round(self) -> List[Op]:
        return [(f"{self.size}/{self.variant}", self._op)]

    def _op(self, timed: Timed) -> Tuple[float, int, str]:
        self._ops += 1
        store = self._scratch / f"store-{self._ops:05d}"
        shutil.rmtree(store, ignore_errors=True)

        def call():
            partial = campaigns_runner.run_campaign(
                self.spec, store=store, workers=2, max_shards=self.half)
            return partial, campaigns_runner.resume_campaign(store, workers=2)

        try:
            elapsed, (partial, final) = timed(call)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return (elapsed, self.spec.total_injections,
                f"{partial.digest()}+{final.digest()}")


class StreamSoak:
    """One in-process ``run_stream`` of a jittered hotspot/SRRS stream.

    Arrivals every 0.3 ms with 0.05 ms jitter (about 70% utilisation),
    a queue depth of 4 and a 1% per-frame fault overlay.  An item is
    one frame.
    """

    name = "stream-soak"
    calibrate_objects = False

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        self.variant = seed % PIN_POOL
        self.size = size
        self.spec = StreamSpec(
            run=_hotspot_srrs(),
            arrival=ArrivalSpec(model="jittered", period_ms=0.3,
                                jitter_ms=0.05),
            frames=int(SIZES[size][self.name]["frames"]),
            queue_depth=4,
            faults=StreamFaultSpec(probability=0.01),
            seed=self.variant,
        )
        self.count_key = f"{size}/{self.variant}"

    def setup(self) -> None:
        """Resolve the stream's frame job once (loads the simulator path).

        ``resolve_jobs`` keeps no cache, so every op resolves its job
        again inside ``run_stream``; that time is part of the op.
        """
        streams_runner.resolve_jobs(self.spec)

    def round(self) -> List[Op]:
        return [(f"{self.size}/{self.variant}", self._op)]

    def _op(self, timed: Timed) -> Tuple[float, int, str]:
        elapsed, report = timed(
            lambda: streams_runner.run_stream(self.spec, workers=1))
        return elapsed, self.spec.frames, report.digest()


def artifact_digest(artifact) -> str:
    """Digest of a ``RunArtifact`` without its package-version field."""
    payload = {k: v for k, v in artifact.to_dict().items() if k != "version"}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class DesignSweep:
    """Serial ``Engine.run`` over benchmarks x policy x redundancy x SMs.

    Every spec is distinct and simulated with ``baseline=True``; there
    are no faults, no store and no stream loop.  The seed only shuffles
    the order of the grid, so every spec keeps one pinned digest.  An
    item is one ``RunSpec``.
    """

    name = "design-sweep"

    #: Calibrate the host with the object-churn loop too (``run.py``):
    #: the simulator slows more than the hashing loop on a busy host.
    calibrate_objects = True

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        benchmarks = SIZES[size][self.name]["benchmarks"]
        self.specs = [
            RunSpec(workload=WorkloadSpec(benchmark=bench),
                    gpu=GPUSpec(num_sms=sms), policy=policy,
                    redundancy=redundancy, baseline=True)
            for bench in benchmarks
            for policy in ("default", "srrs", "half")
            for redundancy in ("dmr", "tmr")
            for sms in (6, 15)
        ]
        random.Random(seed).shuffle(self.specs)
        self.engine = Engine()
        self.count_key = size

    def setup(self) -> None:
        """Nothing to cache: every spec of the grid is distinct."""

    def round(self) -> List[Op]:
        return [(spec.config_hash, self._op_for(spec)) for spec in self.specs]

    def _op_for(self, spec: RunSpec) -> Callable[[Timed], Tuple[float, int, str]]:
        def op(timed: Timed) -> Tuple[float, int, str]:
            elapsed, artifact = timed(lambda: self.engine.run(spec))
            return elapsed, 1, artifact_digest(artifact)
        return op


_WORKLOADS = {cls.name: cls for cls in (CampaignStore, StreamSoak, DesignSweep)}
WORKLOADS = tuple(_WORKLOADS)


def build(name: str, seed: int, size: str, scratch: Path):
    """The workload ``name`` with inputs made from ``seed``."""
    return _WORKLOADS[name](seed, size, scratch)
