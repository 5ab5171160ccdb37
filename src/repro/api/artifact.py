"""Uniform run results — the output side of :mod:`repro.api`.

Every :meth:`Engine.run <repro.api.engine.Engine.run>` returns one
:class:`RunArtifact`: a frozen bundle of plain-data summaries (timing,
diversity, comparisons, classification, COTS end-to-end, fault campaign)
plus provenance (the originating spec, its config hash, the package
version and the scheduler label).  Artifacts are picklable — the batch
executor streams them back from worker processes — and JSON-round-
trippable for storage and tooling::

    artifact = repro.run(spec)
    recovered = RunArtifact.from_json(artifact.to_json())
    assert recovered == artifact

Sections that a spec did not request are ``None`` (or empty for the
per-kernel classification), never fabricated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api.spec import RunSpec
from repro.canon import Codec, from_attributes
from repro.redundancy.diversity import DiversityReport

__all__ = [
    "TimingSummary",
    "DiversitySummary",
    "ComparisonSummary",
    "ClassificationRow",
    "CotsSummary",
    "FaultSummary",
    "RunArtifact",
]


@dataclass(frozen=True)
class TimingSummary(Codec):
    """Timing of the simulated execution (cycles unless noted).

    Attributes:
        busy_cycles: GPU-active cycles (the Figure 4 metric).
        makespan: first-arrival-to-last-completion time.
        makespan_ms: makespan converted at the GPU's core clock.
        events: discrete events the simulator processed (diagnostics).
        total_kernel_cycles: sum of per-launch execution times.
        baseline_makespan: makespan of the non-redundant chain under the
            default scheduler (present when the spec asked for a baseline).
    """

    busy_cycles: float
    makespan: float
    makespan_ms: float
    events: int
    total_kernel_cycles: float
    baseline_makespan: Optional[float] = None

    @property
    def redundancy_overhead(self) -> Optional[float]:
        """``makespan / baseline_makespan`` when a baseline was recorded."""
        if self.baseline_makespan is None or self.baseline_makespan == 0:
            return None
        return self.makespan / self.baseline_makespan


@dataclass(frozen=True)
class DiversitySummary(Codec):
    """Aggregate of a :class:`repro.redundancy.diversity.DiversityReport`."""

    total_pairs: int
    same_sm_pairs: int
    overlapping_pairs: int
    phase_aligned_pairs: int
    spatially_diverse: bool
    temporally_diverse: bool
    fully_diverse: bool
    min_time_slack: Optional[float]
    min_phase_separation: Optional[float]
    phase_tolerance: float

    @classmethod
    def from_report(cls, report: DiversityReport) -> "DiversitySummary":
        """Summarise a full diversity report."""
        return from_attributes(cls, report)


@dataclass(frozen=True)
class ComparisonSummary(Codec):
    """DCLS output-comparison outcome across the run's logical kernels."""

    logical_kernels: int
    error_detected: bool
    silent_corruption: bool
    all_clean: bool


@dataclass(frozen=True)
class ClassificationRow(Codec):
    """Figure 3 classification evidence for one kernel."""

    kernel: str
    category: str
    isolated_cycles: float
    overlap_fraction: float
    resident_fraction: float
    recommended_policy: str


@dataclass(frozen=True)
class CotsSummary(Codec):
    """COTS end-to-end model outcome (the Figure 5 bars, milliseconds)."""

    benchmark: str
    baseline_ms: float
    redundant_ms: float
    copies: int

    @property
    def ratio(self) -> float:
        """Redundant-serialized over baseline end-to-end time."""
        return self.redundant_ms / self.baseline_ms


@dataclass(frozen=True)
class FaultSummary(Codec):
    """Fault-injection campaign outcome (experiment E5)."""

    policy: str
    total: int
    masked: int
    detected: int
    sdc: int
    detection_coverage: float
    by_kind: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...] = ()

    def by_kind_dict(self) -> Dict[str, Dict[str, int]]:
        """``fault-kind -> outcome -> count`` as nested dicts."""
        return {kind: dict(outcomes) for kind, outcomes in self.by_kind}


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunArtifact(Codec):
    """The uniform result of one engine run.

    Attributes:
        spec: the originating :class:`~repro.api.spec.RunSpec`.
        config_hash: :attr:`RunSpec.config_hash` at execution time.
        version: ``repro.__version__`` that produced the artifact.
        scheduler: ``describe()`` of the scheduling policy (``None`` when
            the spec skipped simulation).
        timing / diversity / comparisons / classification / cots / faults:
            the requested result sections (unrequested sections are
            ``None`` / empty).
    """

    spec: RunSpec
    config_hash: str
    version: str
    scheduler: Optional[str] = None
    timing: Optional[TimingSummary] = None
    diversity: Optional[DiversitySummary] = None
    comparisons: Optional[ComparisonSummary] = None
    classification: Tuple[ClassificationRow, ...] = ()
    cots: Optional[CotsSummary] = None
    faults: Optional[FaultSummary] = None
