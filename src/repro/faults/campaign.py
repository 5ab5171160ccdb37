"""Fault-injection campaigns over redundant executions.

A campaign takes one *clean* redundant run (trace + comparisons are
deterministic), samples a population of hardware faults, applies each to
the trace, re-derives the affected output comparisons and classifies the
outcome.  Because faults do not perturb timing in this coarse model, a
single simulation per scheduling policy supports the whole campaign —
thousands of injections cost milliseconds.

This is experiment E5 (DESIGN.md): the paper *claims* SRRS and HALF
achieve diverse redundancy by construction; the campaign measures the
silent-corruption rate of each policy under transient CCFs (voltage
droops), permanent SM defects and local SEUs.  Expected result: the
default scheduler exhibits SDC (redundant copies corrupted identically),
SRRS and HALF do not.
"""

from __future__ import annotations

import _random
import bisect
import hashlib
import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.canon import canonical_json, digest16
from repro.errors import (
    FaultInjectionError,
    RedundancyError,
    SafetyViolation,
    StatsError,
)
from repro.faults.injector import CorruptionMap, apply_fault
from repro.faults.outcomes import FaultOutcome, InjectionResult
from repro.faults.types import (
    FaultDescriptor,
    PermanentSMFault,
    SEUFault,
    TransientCCF,
)
from repro.gpu.trace import KernelSpan, TBRecord
from repro.iso26262.metrics import HardwareMetrics, coverage_from_campaign
from repro.redundancy.comparison import build_signature, compare_signatures
from repro.redundancy.manager import RedundantRunResult
from repro.stats.estimators import ImportanceRate, StratifiedRate, UniformRate
from repro.stats.intervals import RateEstimate

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "FaultCampaign",
    "SamplingConfig",
    "SDC_SAMPLE_LIMIT",
    "fault_substream",
    "prefixed_substreams",
    "sampling_metadata",
]

#: Canonical short fault kinds, in layout order.
CANONICAL_KINDS: Tuple[str, ...] = ("ccf", "perm", "seu")

#: Short fault kind -> fault class name (the ``by_kind`` report keys).
KIND_CLASS_NAMES: Dict[str, str] = {
    "ccf": "TransientCCF",
    "perm": "PermanentSMFault",
    "seu": "SEUFault",
}

#: Inverse of :data:`KIND_CLASS_NAMES`.
CLASS_NAME_KINDS: Dict[str, str] = {v: k for k, v in KIND_CLASS_NAMES.items()}

#: Version tag of the sampling metadata block in report payloads.
SAMPLING_SCHEMA = 2

#: How many SDC fault labels a report retains as diagnostic examples when
#: it aggregates counts instead of full records (see
#: :meth:`CampaignReport.merge_counts`).
SDC_SAMPLE_LIMIT = 5


def fault_substream(seed: int, index: int) -> random.Random:
    """PRNG substream of fault ``index`` within a campaign's seed schedule.

    The campaign's randomness is an *indexed* stream: fault ``index`` draws
    from a PRNG seeded with ``SHA-256(seed, index)``, so any contiguous
    shard of the index space can regenerate exactly its own faults without
    consuming (or even knowing about) the draws of other shards.  This is
    what makes the sharded campaign population independent of the shard
    count — see ``docs/CAMPAIGNS.md``.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def prefixed_substreams(prefix: str) -> Callable[[int], random.Random]:
    """Substream generator seeded with ``SHA-256(prefix + str(index))``.

    The hot-loop form of an indexed seed schedule: ``index`` maps to a
    :class:`random.Random` seeded exactly as ``random.Random(int.from_bytes(
    sha256(prefix + str(index)).digest()[:8], "big"))`` would be, draw for
    draw.  The prefix is hashed once and copied per index, and one
    instance is re-seeded through the C-level ``_random.Random.seed``
    (the Python wrapper only adds a ``str``/``bytes`` branch and resets
    the ``gauss`` cache, which no caller reads).  The instance is
    shared: exhaust its draws before asking for the next index.

    ``prefixed_substreams(f"{seed}:")`` is :func:`fault_substream`'s
    schedule; :func:`repro.streams.arrivals.substream_factory` adds a
    purpose to the prefix.
    """
    prefix_copy = hashlib.sha256(prefix.encode("ascii")).copy
    rng = random.Random()
    reseed = _random.Random.seed
    from_bytes = int.from_bytes

    def substream(index: int) -> random.Random:
        digest = prefix_copy()
        digest.update(str(index).encode("ascii"))
        reseed(rng, from_bytes(digest.digest()[:8], "big"))
        return rng

    return substream


@dataclass(frozen=True)
class CampaignConfig:
    """Sampling plan of a fault-injection campaign.

    Attributes:
        transient_ccf: number of chip-wide transient CCFs (voltage droops)
            with uniformly random fault instants.
        permanent_sm: number of permanent SM defects, uniform over SMs
            with uniformly random onset times.
        seu: number of local single-event upsets, uniform over (SM, time).
        seed: PRNG seed (campaigns are reproducible).
        phase_quantum: transient-CCF alignment quantum in work units.
    """

    transient_ccf: int = 200
    permanent_sm: int = 50
    seu: int = 100
    seed: int = 2019
    phase_quantum: float = 1.0

    def __post_init__(self) -> None:
        if min(self.transient_ccf, self.permanent_sm, self.seu) < 0:
            raise FaultInjectionError("injection counts cannot be negative")
        if self.transient_ccf + self.permanent_sm + self.seu == 0:
            raise FaultInjectionError("campaign must inject at least one fault")
        if self.phase_quantum <= 0:
            raise FaultInjectionError("phase quantum must be positive")

    @property
    def total_injections(self) -> int:
        """Campaign size: the number of faults the plan injects."""
        return self.transient_ccf + self.permanent_sm + self.seu


@dataclass(frozen=True)
class SamplingConfig:
    """Fault-space sampling design — the v2, prefix-stable layouts.

    The legacy (v1) indexed population segments the index space by kind
    (``[0, ccf)`` CCFs, then permanents, then SEUs), which is *not*
    prefix-extendable: growing the population changes the kind of
    existing indices.  The two v2 layouts are prefix-stable — the fault
    at index ``i`` never depends on the population size — which is what
    lets the repeat-until-confidence runner keep extending a campaign
    while staying bit-reproducible and resumable:

    * ``stratified`` — the kind of index ``i`` is
      ``block[i % len(block)]``, where ``block`` expands the integer
      allocation weights in canonical kind order.  Per-kind sample
      counts of any prefix are fixed (to within one block).
    * ``importance`` — the kind of index ``i`` is drawn from the
      index's own PRNG substream with probability proportional to the
      allocation weights (the proposal distribution ``q``); estimates
      reweight events by ``p_k / q_k`` (Horvitz–Thompson).

    Attributes:
        method: ``"stratified"`` or ``"importance"``.
        transient_ccf / permanent_sm / seu: relative integer allocation
            weights over the kinds (how the injection budget is spent —
            the *nominal* population mix stays in
            :class:`CampaignConfig`).
    """

    method: str
    transient_ccf: int = 1
    permanent_sm: int = 1
    seu: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("stratified", "importance"):
            raise FaultInjectionError(
                f"unknown sampling method {self.method!r} "
                "(expected stratified or importance)"
            )
        if min(self.transient_ccf, self.permanent_sm, self.seu) < 0:
            raise FaultInjectionError(
                "sampling allocation weights cannot be negative"
            )
        if self.transient_ccf + self.permanent_sm + self.seu == 0:
            raise FaultInjectionError(
                "at least one sampling allocation weight must be positive"
            )

    # ------------------------------------------------------------------
    @property
    def allocation(self) -> Dict[str, int]:
        """Allocation weights keyed by canonical short kind."""
        return {
            "ccf": self.transient_ccf,
            "perm": self.permanent_sm,
            "seu": self.seu,
        }

    def block(self) -> Tuple[str, ...]:
        """The stratified layout's kind block, in canonical kind order."""
        allocation = self.allocation
        return tuple(
            kind for kind in CANONICAL_KINDS
            for _ in range(allocation[kind])
        )

    def draw_kind(self, rng: random.Random) -> str:
        """Importance-sampled kind (consumes one draw from ``rng``)."""
        total = self.transient_ccf + self.permanent_sm + self.seu
        pick = rng.randrange(total)
        if pick < self.transient_ccf:
            return "ccf"
        if pick < self.transient_ccf + self.permanent_sm:
            return "perm"
        return "seu"

    def validate_support(self, config: CampaignConfig) -> None:
        """Check the unbiasedness support condition against a plan.

        Every kind with positive *nominal* population share must have a
        positive allocation weight — otherwise part of the population
        could never be sampled and the reweighted estimate would be
        biased.

        Raises:
            FaultInjectionError: naming the unsupported kind.
        """
        nominal = {
            "ccf": config.transient_ccf,
            "perm": config.permanent_sm,
            "seu": config.seu,
        }
        allocation = self.allocation
        for kind in CANONICAL_KINDS:
            if nominal[kind] > 0 and allocation[kind] == 0:
                raise FaultInjectionError(
                    f"sampling allocation gives no weight to kind "
                    f"{kind!r}, which has nominal population share "
                    f"{nominal[kind]} — the reweighted estimate would "
                    "be biased"
                )


def sampling_metadata(config: CampaignConfig,
                      sampling: SamplingConfig) -> Dict[str, object]:
    """The report-level sampling block (pure integers, digest-safe).

    Carried by :attr:`CampaignReport.sampling` and emitted under the
    versioned ``"sampling"`` key of :meth:`CampaignReport.to_dict`.
    Only integer counts are stored; the estimators derive population
    probabilities and importance weights from them at estimation time,
    so report digests never depend on float summation order.
    """
    sampling.validate_support(config)
    return {
        "schema": SAMPLING_SCHEMA,
        "method": sampling.method,
        "nominal": {
            "ccf": config.transient_ccf,
            "perm": config.permanent_sm,
            "seu": config.seu,
        },
        "allocation": dict(sampling.allocation),
    }


@dataclass
class CampaignReport:
    """Aggregated campaign outcome.

    A report accumulates through two complementary channels:

    * :meth:`record` appends full :class:`InjectionResult` records (the
      classic in-memory campaign path);
    * :meth:`merge_counts` folds in pre-aggregated outcome counts (the
      sharded campaign path — see :mod:`repro.campaigns` — which never
      materialises the per-injection records of a whole campaign).

    Attributes:
        policy: scheduler label of the underlying run.
        injections: per-injection records (empty for counts-only reports).
        by_kind: ``fault-kind -> outcome -> count`` breakdown.
        sdc_samples: up to :data:`SDC_SAMPLE_LIMIT` fault labels of silent
            corruptions, kept as diagnostic examples even when the full
            records are not.
        sampling: the versioned sampling-metadata block
            (:func:`sampling_metadata`) when the campaign used a v2
            sampler, ``None`` for the legacy uniform population.  With
            it set, rate estimates are reweighted to the nominal fault
            mix and :meth:`to_dict` gains the ``"sampling"`` /
            ``"weighted_rates"`` keys (v1 payloads are bit-unchanged).
    """

    policy: str
    injections: List[InjectionResult] = field(default_factory=list)
    by_kind: Dict[str, Dict[FaultOutcome, int]] = field(default_factory=dict)
    sdc_samples: List[str] = field(default_factory=list)
    sampling: Optional[Dict[str, object]] = None
    # incremental outcome tally: ``injections`` is append-only, so counts
    # fold in lazily up to ``_counted_upto`` instead of rescanning the
    # whole campaign on every ``masked``/``detected``/``sdc`` access
    _outcome_counts: Dict[FaultOutcome, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _counted_upto: int = field(default=0, init=False, repr=False, compare=False)
    # counts folded in via merge_counts (no per-injection records behind them)
    _merged_counts: Dict[FaultOutcome, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _merged_total: int = field(default=0, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    def record(self, result: InjectionResult, fault_kind: str) -> None:
        """Append one injection outcome, maintaining all tallies."""
        self.injections.append(result)
        bucket = self.by_kind.setdefault(fault_kind, {})
        bucket[result.outcome] = bucket.get(result.outcome, 0) + 1
        if (result.outcome is FaultOutcome.SDC
                and len(self.sdc_samples) < SDC_SAMPLE_LIMIT):
            self.sdc_samples.append(result.fault_label)

    def merge_counts(self, by_kind: Mapping[str, Mapping[FaultOutcome, int]],
                     *, sdc_samples: Iterable[str] = (),
                     sampling: Optional[Mapping[str, object]] = None) -> None:
        """Fold pre-aggregated outcome counts into the report.

        This is the streaming-aggregation entry point of the sharded
        campaign runner: each completed shard contributes only its
        ``fault-kind -> outcome -> count`` table (plus a bounded sample of
        SDC labels), so aggregating a multi-million-injection campaign
        costs O(shards), not O(injections).

        Args:
            by_kind: outcome counts per fault kind (all counts >= 0).
            sdc_samples: SDC fault labels; retained up to
                :data:`SDC_SAMPLE_LIMIT` across the whole report.
            sampling: sampling-metadata block of the contributing counts
                (:func:`sampling_metadata`).  The first merge installs
                it; later merges must agree — per-stratum reweighting is
                only meaningful when every folded shard was drawn under
                the same design.

        Raises:
            FaultInjectionError: on negative counts or disagreeing
                sampling metadata.
        """
        # validate everything before mutating anything: a rejected merge
        # must not leave the report holding a half-applied shard
        for kind, outcomes in by_kind.items():
            for outcome, count in outcomes.items():
                if count < 0:
                    raise FaultInjectionError(
                        f"negative outcome count for {kind}/{outcome}"
                    )
        if sampling is not None:
            incoming = dict(sampling)
            if self.sampling is None:
                self.sampling = incoming
            elif self.sampling != incoming:
                raise FaultInjectionError(
                    "cannot fold counts sampled under a different design: "
                    f"report carries {self.sampling!r}, shard carries "
                    f"{incoming!r}"
                )
        for kind, outcomes in by_kind.items():
            bucket = self.by_kind.setdefault(kind, {})
            for outcome, count in outcomes.items():
                bucket[outcome] = bucket.get(outcome, 0) + count
                self._merged_counts[outcome] = (
                    self._merged_counts.get(outcome, 0) + count
                )
                self._merged_total += count
        for label in sdc_samples:
            if len(self.sdc_samples) >= SDC_SAMPLE_LIMIT:
                break
            self.sdc_samples.append(label)

    def _counts(self) -> Dict[FaultOutcome, int]:
        """Outcome tally, folding in any records appended since last use."""
        injections = self.injections
        counts = self._outcome_counts
        while self._counted_upto < len(injections):
            outcome = injections[self._counted_upto].outcome
            counts[outcome] = counts.get(outcome, 0) + 1
            self._counted_upto += 1
        return counts

    def count(self, outcome: FaultOutcome) -> int:
        """Total injections with the given outcome (amortised O(1))."""
        return (self._counts().get(outcome, 0)
                + self._merged_counts.get(outcome, 0))

    @property
    def total(self) -> int:
        """Campaign size (records plus merged counts)."""
        return len(self.injections) + self._merged_total

    @property
    def masked(self) -> int:
        """Injections that hit no active computation."""
        return self.count(FaultOutcome.MASKED)

    @property
    def detected(self) -> int:
        """Injections caught by the DCLS comparison."""
        return self.count(FaultOutcome.DETECTED)

    @property
    def sdc(self) -> int:
        """Silent data corruptions (the ASIL-D killer)."""
        return self.count(FaultOutcome.SDC)

    @property
    def detection_coverage(self) -> float:
        """Detected / (detected + SDC); 1.0 when nothing was dangerous."""
        dangerous = self.detected + self.sdc
        return 1.0 if dangerous == 0 else self.detected / dangerous

    # ------------------------------------------------------------------
    # statistical estimation (repro.stats)
    # ------------------------------------------------------------------
    def _strata_counts(self, outcome: FaultOutcome) -> Dict[str, Tuple[int, int]]:
        """``kind -> (events, trials)`` over the report's by-kind table."""
        strata: Dict[str, Tuple[int, int]] = {}
        for class_name, outcomes in self.by_kind.items():
            kind = CLASS_NAME_KINDS.get(class_name, class_name)
            events, trials = strata.get(kind, (0, 0))
            strata[kind] = (
                events + outcomes.get(outcome, 0),
                trials + sum(outcomes.values()),
            )
        return strata

    def rate_estimator(self, metric: str = "sdc"):
        """The estimator matching this report's sampling design.

        Uniform (legacy) reports get a plain binomial proportion;
        reports carrying v2 :attr:`sampling` metadata get the matching
        stratified or Horvitz–Thompson importance estimator, reweighted
        to the nominal fault mix.  ``metric`` is ``"masked"``,
        ``"detected"`` or ``"sdc"``.

        Raises:
            FaultInjectionError: on an empty report or unknown metric.
            StatsError: when the sampling metadata cannot support an
                unbiased estimate (e.g. a nominal stratum was never
                sampled).
        """
        self._require_injections(f"rate_estimator({metric!r})")
        try:
            outcome = FaultOutcome[metric.upper()]
        except KeyError:
            raise FaultInjectionError(
                f"unknown campaign metric {metric!r}; expected one of "
                + ", ".join(o.name.lower() for o in FaultOutcome)
            ) from None
        if self.sampling is None:
            return UniformRate(self.count(outcome), self.total,
                               metric=metric)
        strata = self._strata_counts(outcome)
        nominal = {str(k): int(v)
                   for k, v in dict(self.sampling["nominal"]).items()}
        allocation = {str(k): int(v)
                      for k, v in dict(self.sampling["allocation"]).items()}
        nominal_total = sum(nominal.values())
        population = {kind: count / nominal_total
                      for kind, count in nominal.items()}
        if self.sampling["method"] == "stratified":
            return StratifiedRate(strata, population, metric=metric)
        allocation_total = sum(allocation.values())
        weights = {
            kind: (population[kind]
                   / (allocation[kind] / allocation_total))
            for kind in allocation if allocation[kind] > 0
        }
        return ImportanceRate(strata, weights, metric=metric)

    def rate_interval(self, metric: str = "sdc", *,
                      confidence: float = 0.95, method: str = "auto",
                      resamples: int = 1000, seed: int = 0) -> RateEstimate:
        """Confidence interval on one outcome rate.

        A pure function of the report's integer counts (and, for the
        bootstrap, the explicit ``seed``) — computing it never perturbs
        the report's canonical form or digest.

        Raises:
            FaultInjectionError: on an empty report or unknown metric.
            StatsError: on an unsupported interval method for the
                report's sampling design.
        """
        return self.rate_estimator(metric).interval(
            confidence=confidence, method=method,
            resamples=resamples, seed=seed,
        )

    def coverage_interval(self, *, confidence: float = 0.95,
                          method: str = "auto", resamples: int = 1000,
                          seed: int = 0) -> RateEstimate:
        """Confidence interval on the detection coverage.

        Coverage is the conditional proportion detected / (detected +
        SDC), a plain binomial in the dangerous-outcome subsample, so it
        gets the uniform (Wilson-capable) treatment under every sampling
        design.

        Raises:
            FaultInjectionError: when the report has no dangerous
                outcomes (the conditional rate is undefined).
        """
        dangerous = self.detected + self.sdc
        if dangerous == 0:
            raise FaultInjectionError(
                f"campaign report for policy {self.policy!r} has no "
                "dangerous outcomes: the coverage interval is undefined"
            )
        return UniformRate(self.detected, dangerous,
                           metric="coverage").interval(
            confidence=confidence, method=method,
            resamples=resamples, seed=seed,
        )

    def metric_intervals(self, *, confidence: float = 0.95,
                         method: str = "auto", resamples: int = 1000,
                         seed: int = 0) -> Dict[str, RateEstimate]:
        """Intervals on every campaign rate, keyed by metric name.

        Covers the three outcome rates plus ``"coverage"`` when the
        report saw any dangerous outcome.

        Raises:
            FaultInjectionError: on an empty report.
        """
        self._require_injections("metric_intervals()")
        intervals = {
            metric: self.rate_interval(metric, confidence=confidence,
                                       method=method, resamples=resamples,
                                       seed=seed)
            for metric in ("masked", "detected", "sdc")
        }
        if self.detected + self.sdc > 0:
            intervals["coverage"] = self.coverage_interval(
                confidence=confidence, method=method,
                resamples=resamples, seed=seed,
            )
        return intervals

    def sdc_injections(self) -> List[InjectionResult]:
        """The silent-corruption records (useful for debugging policies).

        Counts-only reports (built via :meth:`merge_counts`) have no
        per-injection records; use :attr:`sdc_samples` for examples there.
        """
        return [r for r in self.injections if r.outcome is FaultOutcome.SDC]

    def assert_no_sdc(self) -> None:
        """Raise when any injection escaped detection.

        Raises:
            SafetyViolation: listing up to five offending injections.
        """
        if self.sdc:
            # record-built reports mirror their SDC labels into
            # sdc_samples, so prefer the records and fall back to the
            # samples only for counts-only reports (no duplicate listing)
            labels = [r.fault_label for r in self.sdc_injections()]
            if not labels:
                labels = list(self.sdc_samples)
            sample = "; ".join(labels[:SDC_SAMPLE_LIMIT])
            raise SafetyViolation(
                f"{self.policy}: {self.sdc} silent corruption(s) "
                f"escaped the DCLS comparison, e.g. {sample}"
            )

    def _require_injections(self, what: str) -> None:
        """Guard derived statistics against an empty report.

        Raises:
            FaultInjectionError: when no injection has been recorded or
                merged — the derived quantity would silently divide by
                zero (or fabricate a 100% coverage no campaign measured).
        """
        if self.total == 0:
            raise FaultInjectionError(
                f"empty campaign report for policy {self.policy!r}: "
                f"{what} is undefined before any injection is recorded "
                "(run the campaign, or check shard aggregation)"
            )

    def hardware_metrics(self, raw_failure_rate_per_hour: float = 1e-6
                         ) -> HardwareMetrics:
        """Map campaign statistics onto ISO 26262 architectural metrics.

        Raises:
            FaultInjectionError: on an empty report (the Monte-Carlo
                coverage estimate is undefined without injections).
        """
        self._require_injections("hardware_metrics()")
        return coverage_from_campaign(
            total_injections=self.total,
            detected=self.detected,
            masked=self.masked,
            undetected=self.sdc,
            raw_failure_rate_per_hour=raw_failure_rate_per_hour,
        )

    def hardware_metrics_intervals(self, *, confidence: float = 0.95,
                                   method: str = "auto",
                                   resamples: int = 1000,
                                   seed: int = 0) -> Dict[str, RateEstimate]:
        """Error bars on the rates behind :meth:`hardware_metrics`.

        ``"residual"`` is the SDC rate (the residual-fault fraction that
        scales PMHF) and ``"coverage"`` the detection coverage (LFM), so
        the ISO 26262 architectural metrics inherit these intervals
        directly.

        Raises:
            FaultInjectionError: on an empty report.
        """
        self._require_injections("hardware_metrics_intervals()")
        intervals = {
            "residual": self.rate_interval(
                "sdc", confidence=confidence, method=method,
                resamples=resamples, seed=seed,
            )
        }
        if self.detected + self.sdc > 0:
            intervals["coverage"] = self.coverage_interval(
                confidence=confidence, method=method,
                resamples=resamples, seed=seed,
            )
        return intervals

    def summary(self) -> str:
        """One-line campaign summary, with an error bar on the SDC rate.

        Raises:
            FaultInjectionError: on an empty report.
        """
        self._require_injections("summary()")
        try:
            tail = f" sdc_rate={self.rate_interval('sdc').describe()}"
        except StatsError:
            # e.g. a partial v2 fold that has not yet sampled every
            # nominal stratum — the point counts are still reportable
            tail = ""
        return (
            f"{self.policy}: n={self.total} masked={self.masked} "
            f"detected={self.detected} SDC={self.sdc} "
            f"coverage={self.detection_coverage:.4f}"
            + tail
        )

    # ------------------------------------------------------------------
    # canonical plain-data form (bit-identity comparisons, CLI --json)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Canonical plain-data form of the aggregate outcome.

        Two campaigns over the same fault population produce *equal*
        dictionaries regardless of shard boundaries, worker counts or
        resume history — this is the object the sharded runner's
        bit-identity guarantee is stated over (see ``docs/CAMPAIGNS.md``).
        Per-injection records are deliberately excluded.

        Versioning: reports of the legacy uniform population emit
        exactly the historical (v1) key set, so their digests are
        bit-identical to earlier releases.  Only reports carrying v2
        :attr:`sampling` metadata add the ``"sampling"`` block and the
        reweighted ``"weighted_rates"`` — floats, but pure functions of
        the integer counts, so still shard-order-independent.
        """
        data: Dict[str, object] = {
            "policy": self.policy,
            "total": self.total,
            "masked": self.masked,
            "detected": self.detected,
            "sdc": self.sdc,
            "detection_coverage": self.detection_coverage,
            "by_kind": {
                kind: {
                    outcome.name.lower(): count
                    for outcome, count in sorted(
                        outcomes.items(), key=lambda kv: kv[0].name
                    )
                }
                for kind, outcomes in sorted(self.by_kind.items())
            },
            "sdc_samples": list(self.sdc_samples),
        }
        if self.sampling is not None:
            data["sampling"] = {
                key: (dict(value) if isinstance(value, Mapping) else value)
                for key, value in sorted(self.sampling.items())
            }
            try:
                data["weighted_rates"] = {
                    metric: self.rate_estimator(metric).rate()
                    for metric in ("masked", "detected", "sdc")
                }
            except StatsError:
                # a partial fold that has not sampled every nominal
                # stratum yet — deterministic for a given count table
                data["weighted_rates"] = None
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignReport":
        """Rebuild a counts-only report from its :meth:`to_dict` form.

        Accepts both generations: legacy (v1) payloads without a
        ``"sampling"`` block and v2 payloads with one.  Declared totals
        are verified against the by-kind table, so a tampered or
        truncated artifact fails loudly instead of feeding bad counts
        into a safety argument.

        Raises:
            FaultInjectionError: on malformed payloads, unknown outcome
                keys, or totals disagreeing with the by-kind table.
        """
        if not isinstance(data, Mapping):
            raise FaultInjectionError(
                f"CampaignReport expects a mapping, got {data!r}"
            )
        missing = sorted({"policy", "by_kind"} - set(data))
        if missing:
            raise FaultInjectionError(
                "not a CampaignReport payload; missing: "
                + ", ".join(missing)
            )
        outcomes_by_key = {o.name.lower(): o for o in FaultOutcome}
        by_kind: Dict[str, Dict[FaultOutcome, int]] = {}
        raw_by_kind = data["by_kind"]
        if not isinstance(raw_by_kind, Mapping):
            raise FaultInjectionError("'by_kind' must be an object")
        for kind, bucket in raw_by_kind.items():
            if not isinstance(bucket, Mapping):
                raise FaultInjectionError(
                    f"by_kind[{kind!r}] must be an object"
                )
            parsed: Dict[FaultOutcome, int] = {}
            for key, count in bucket.items():
                outcome = outcomes_by_key.get(str(key))
                if outcome is None:
                    raise FaultInjectionError(
                        f"by_kind[{kind!r}]: unknown outcome key {key!r}"
                    )
                if not isinstance(count, int) or isinstance(count, bool):
                    raise FaultInjectionError(
                        f"by_kind[{kind!r}][{key!r}] must be an integer "
                        f"count, got {count!r}"
                    )
                parsed[outcome] = count
            by_kind[str(kind)] = parsed
        sampling = data.get("sampling")
        if sampling is not None:
            if not isinstance(sampling, Mapping):
                raise FaultInjectionError("'sampling' must be an object")
            required = {"schema", "method", "nominal", "allocation"}
            missing = sorted(required - set(sampling))
            if missing:
                raise FaultInjectionError(
                    "sampling block missing: " + ", ".join(missing)
                )
            sampling = {
                key: (dict(value) if isinstance(value, Mapping) else value)
                for key, value in sampling.items()
            }
        report = cls(policy=str(data["policy"]))
        report.merge_counts(
            by_kind,
            sdc_samples=tuple(str(s) for s in data.get("sdc_samples", ())),
            sampling=sampling,
        )
        for key, declared in (("total", report.total),
                              ("masked", report.masked),
                              ("detected", report.detected),
                              ("sdc", report.sdc)):
            if key in data and data[key] != declared:
                raise FaultInjectionError(
                    f"campaign payload declares {key}={data[key]!r} but "
                    f"its by_kind table sums to {declared} — artifact "
                    "inconsistent"
                )
        return report

    def digest(self) -> str:
        """Hex digest of the canonical form (aggregate provenance key)."""
        return digest16(canonical_json(self.to_dict()))


#: One outcome-table row: an :class:`InjectionResult` without its label.
_Row = Tuple[FaultOutcome, int, Tuple[int, ...]]

#: Piecewise-constant outcomes over a fault's time axis: row ``k`` answers
#: a fault at any ``t`` with ``bisect_right(points, t) == k``.
_Table = Tuple[List[float], List[Optional[_Row]]]

_MASKED_ROW: _Row = (FaultOutcome.MASKED, 0, ())


def _sweep(records: Iterable[TBRecord]
           ) -> Iterator[Tuple[float, List[TBRecord], List[TBRecord]]]:
    """Each distinct start or end time of ``records``, in increasing
    order, with the records that start at it and those that end at it.

    A consumer that enters the starting records and then drops the ending
    ones holds, after each point ``p``, exactly the records active on
    ``[p, next point)`` (``start <= t < end``).
    """
    starting: Dict[float, List[TBRecord]] = {}
    ending: Dict[float, List[TBRecord]] = {}
    for record in records:
        starting.setdefault(record.start, []).append(record)
        ending.setdefault(record.end, []).append(record)
    for point in sorted({*starting, *ending}):
        yield point, starting.get(point, []), ending.get(point, [])


class _Reach:
    """The blocks one fault corrupts, grown and shrunk a record at a time.

    Keeps what an :class:`InjectionResult` needs without a corruption
    map: the block count, the logical kernels hit, and how many
    comparison groups ``(logical, tb)`` are only partly corrupted.  Each
    such group holds a corrupted block whose peer copy is clean, so the
    injection is DETECTED whatever the signatures are.
    """

    __slots__ = ("_logical_of", "_copies", "_hits", "_per_logical",
                 "_affected", "blocks", "partial")

    def __init__(self, logical_of: Mapping[int, int],
                 copies: Mapping[int, int]) -> None:
        self._logical_of = logical_of
        self._copies = copies
        self._hits: Dict[Tuple[int, int], int] = {}
        self._per_logical: Dict[int, int] = {}
        self._affected: Optional[Tuple[int, ...]] = ()
        self.blocks = 0
        self.partial = 0

    def add(self, record: TBRecord) -> None:
        self._move(record, 1)

    def remove(self, record: TBRecord) -> None:
        self._move(record, -1)

    def _move(self, record: TBRecord, step: int) -> None:
        iid = record.instance_id
        logical = self._logical_of[iid]
        copies = self._copies[iid]
        group = (logical, record.tb_index)
        before = self._hits.get(group, 0)
        after = before + step
        self._hits[group] = after
        self.partial += (0 < after < copies) - (0 < before < copies)
        self.blocks += step
        count = self._per_logical.get(logical, 0) + step
        if count == 0:
            del self._per_logical[logical]
            self._affected = None  # a logical kernel left the reach
        else:
            self._per_logical[logical] = count
            if count == 1 and step == 1:
                self._affected = None  # a logical kernel entered it

    def row(self, agreeing: Optional[FaultOutcome]) -> Optional[_Row]:
        """The current reach as a table row.

        ``agreeing`` is the outcome when every corrupted group is
        corrupted in all its copies; ``None`` means that depends on the
        signatures, which the row does not know.
        """
        if not self.blocks:
            return _MASKED_ROW
        outcome = FaultOutcome.DETECTED if self.partial else agreeing
        if outcome is None:
            return None
        if self._affected is None:
            self._affected = tuple(sorted(self._per_logical))
        return outcome, self.blocks, self._affected


def _ccf_table(records: Iterable[TBRecord], logical_of: Mapping[int, int],
               copies: Mapping[int, int]) -> _Table:
    """Chip-wide :class:`TransientCCF` outcomes over the fault time.

    Between consecutive record starts/ends the active set is fixed.  A
    row is MASKED when nothing is active and DETECTED when an active
    block has an idle peer copy.  When every active block's peers are
    active too, the phase buckets decide between DETECTED and SDC, and
    the row is ``None``.
    """
    reach = _Reach(logical_of, copies)
    points: List[float] = []
    rows: List[Optional[_Row]] = [_MASKED_ROW]
    for point, entering, leaving in _sweep(records):
        for record in entering:
            reach.add(record)
        for record in leaving:
            reach.remove(record)
        points.append(point)
        rows.append(reach.row(None))
    return points, rows


def _perm_table(on_sm: Iterable[TBRecord], logical_of: Mapping[int, int],
                copies: Mapping[int, int]) -> _Table:
    """:class:`PermanentSMFault` outcomes over the onset ``since``.

    The fault corrupts the SM's blocks with ``end > since``, a set fixed
    between consecutive distinct ends; copies that all ran there agree
    on the wrong answer (SDC).
    """
    reach = _Reach(logical_of, copies)
    ending: Dict[float, List[TBRecord]] = {}
    for record in on_sm:
        ending.setdefault(record.end, []).append(record)
    ends = sorted(ending)
    rows: List[Optional[_Row]] = [_MASKED_ROW] * (len(ends) + 1)
    for k in range(len(ends) - 1, -1, -1):
        for record in ending[ends[k]]:
            reach.add(record)
        rows[k] = reach.row(FaultOutcome.SDC)
    return ends, rows


def _seu_table(on_sm: Iterable[TBRecord],
               logical_of: Mapping[int, int]) -> _Table:
    """:class:`SEUFault` outcomes over the strike time.

    The single victim is the lowest active ``(instance, tb)`` on the SM,
    as :func:`apply_fault` picks it.  Every comparison group has a second
    copy, which the strike leaves clean, so a hit is always DETECTED.
    """
    points: List[float] = []
    rows: List[Optional[_Row]] = [_MASKED_ROW]
    active: Dict[Tuple[int, int], None] = {}  # (instance, tb) on the SM
    for point, entering, leaving in _sweep(on_sm):
        for record in entering:
            active[(record.instance_id, record.tb_index)] = None
        for record in leaving:
            del active[(record.instance_id, record.tb_index)]
        points.append(point)
        if active:
            victim = min(active)[0]
            rows.append((FaultOutcome.DETECTED, 1, (logical_of[victim],)))
        else:
            rows.append(_MASKED_ROW)
    return points, rows


def _lookup(table: _Table, t: float) -> Optional[_Row]:
    """The row of ``table`` for a fault at ``t`` (stored floats only)."""
    points, rows = table
    return rows[bisect.bisect_right(points, t)]


class FaultCampaign:
    """Runs fault-injection campaigns against a redundant execution.

    Args:
        run: the clean redundant run to attack (one per policy).
    """

    def __init__(self, run: RedundantRunResult) -> None:
        if run.error_detected or run.silent_corruption:
            raise FaultInjectionError(
                "campaign baseline must be a clean (fault-free) run"
            )
        self._run = run
        self._trace = run.sim.trace
        # instance -> logical kernel and instance -> its peer copies: the
        # whole comparison structure classify() needs
        self._logical_of: Dict[int, int] = {}
        self._peers: Dict[int, Tuple[int, ...]] = {}
        spans_of: Dict[int, List[KernelSpan]] = {}
        for span in self._trace.spans:
            spans_of.setdefault(span.logical_id, []).append(span)
        grouped_blocks = 0
        for logical, spans in sorted(spans_of.items()):
            instances = tuple(s.instance_id for s in
                              sorted(spans, key=lambda s: s.copy_id))
            self._check_group(logical, instances)
            for iid in instances:
                self._logical_of[iid] = logical
                self._peers[iid] = tuple(p for p in instances if p != iid)
                grouped_blocks += len(self._trace.blocks_of(iid))
        stray = len(self._trace.tb_records) - grouped_blocks
        if stray:
            raise RedundancyError(
                f"{stray} thread block(s) belong to no comparison group"
            )
        self._build_outcome_tables()
        # sampling-domain parameters, shared by the sequential and the
        # indexed (shardable) samplers
        self._makespan = self._trace.makespan
        self._num_sms = self._trace.num_sms
        self._work_hint = max(
            (r.duration for r in self._trace.tb_records), default=1000.0
        )
        # the last sampled design fault_at() checked, with its kind block
        self._layout: Optional[
            Tuple[CampaignConfig, SamplingConfig, Tuple[str, ...]]
        ] = None
        # fault_at()'s substream factory for the last seed it served
        self._substreams: Optional[
            Tuple[int, Callable[[int], random.Random]]
        ] = None

    @property
    def policy(self) -> str:
        """Scheduler label of the underlying clean run."""
        return self._run.sim.scheduler_name

    def _check_group(self, logical: int, instances: Tuple[int, ...]) -> None:
        """Compare one group's clean copies in full, once.

        A group that compares cleanly has identical block numbering in
        every copy, so :meth:`classify` may compare only the corrupted
        blocks.  A malformed baseline thus fails here, before any shard
        runs, instead of when a fault first hits it.

        Raises:
            RedundancyError: with fewer than two copies, duplicate copy
                ids, differing grids, or copies that disagree fault-free
                (a redundant-launch construction bug, not a modelled
                fault).
        """
        try:
            clean = compare_signatures(
                [build_signature(self._trace, iid) for iid in instances]
            )
        except RedundancyError as exc:
            raise RedundancyError(f"logical kernel {logical}: {exc}") from exc
        if clean.error_detected:
            raise RedundancyError(
                f"logical kernel {logical}: fault-free copies disagree on "
                f"blocks {list(clean.mismatching_blocks)}"
            )

    def _build_outcome_tables(self) -> None:
        """Tabulate the built-in fault kinds' outcomes over time.

        The trace is immutable, so a fault's whole
        :class:`InjectionResult` but its label is constant over pieces of
        its time axis: one table for chip-wide CCFs (:func:`_ccf_table`)
        and, per SM, one for permanent faults (:func:`_perm_table`) and
        one for SEUs (:func:`_seu_table`).  Each sweeps its sorted
        start/end events once, so building them all costs
        O(R log R + total active blocks).
        """
        logical_of = self._logical_of
        copies = {iid: len(peers) + 1 for iid, peers in self._peers.items()}
        trace = self._trace
        self._ccf_table = _ccf_table(trace.tb_records, logical_of, copies)
        self._perm_tables: Dict[int, _Table] = {}
        self._seu_tables: Dict[int, _Table] = {}
        for sm in range(trace.num_sms):
            on_sm = trace.blocks_on_sm(sm)
            self._perm_tables[sm] = _perm_table(on_sm, logical_of, copies)
            self._seu_tables[sm] = _seu_table(on_sm, logical_of)

    # ------------------------------------------------------------------
    def classify(self, fault: FaultDescriptor) -> InjectionResult:
        """Inject one fault and classify its outcome.

        Clean blocks carry the same token in every copy, so only the
        corrupted ``(instance, tb)`` pairs can make copies disagree: the
        injection is DETECTED when one of them has a peer copy whose block
        ``tb`` is clean or corrupted differently, SDC when every corrupted
        block agrees with all its peers, and MASKED when nothing was
        corrupted.  This is the outcome that rebuilding and comparing the
        affected kernels' full output signatures gives
        (:mod:`repro.faults.reference`).

        The three built-in fault kinds are answered by one bisection into
        the baseline's outcome tables (see :meth:`_build_outcome_tables`).
        Everything else takes the exact path, at a cost of corrupted
        blocks times copies: a table row of ``None``, an SM-subset CCF, a
        subclass (which may override :meth:`~FaultDescriptor.effect_on`),
        an SM the trace lacks (so :func:`apply_fault` raises), and any
        other descriptor.  NaN fault times never get here: the fault
        types reject them at construction.
        """
        kind = type(fault)
        row: Optional[_Row] = None
        if kind is TransientCCF:
            if fault.sms is None:
                row = _lookup(self._ccf_table, fault.time)
        elif kind is PermanentSMFault:
            table = self._perm_tables.get(fault.sm)
            if table is not None:
                row = _lookup(table, fault.since)
        elif kind is SEUFault:
            table = self._seu_tables.get(fault.sm)
            if table is not None:
                row = _lookup(table, fault.time)
        if row is not None:
            return InjectionResult(fault.describe(), *row)
        corruption = apply_fault(fault, self._trace)
        logical_of = self._logical_of
        return InjectionResult(
            fault_label=fault.describe(),
            outcome=self._outcome(corruption),
            corrupted_blocks=len(corruption),
            affected_logicals=tuple(
                sorted({logical_of[iid] for (iid, _tb) in corruption})
            ),
        )

    def _outcome(self, corruption: CorruptionMap) -> FaultOutcome:
        """Outcome of a corruption map (see :meth:`classify`)."""
        if not corruption:
            return FaultOutcome.MASKED
        peers = self._peers
        for (iid, tb), signature in corruption.items():
            for peer in peers[iid]:
                if corruption.get((peer, tb)) != signature:
                    return FaultOutcome.DETECTED
        return FaultOutcome.SDC

    # ------------------------------------------------------------------
    def _build_fault(self, kind: str, rng: random.Random, fault_id: int,
                     phase_quantum: float) -> FaultDescriptor:
        """Construct one fault of ``kind`` over this campaign's domain.

        The single source of truth for fault parameterisation: every
        sampler (sequential, indexed, stream-overlay) draws through this
        builder, so the per-kind draw order — and therefore every
        population's bit-stability — can never diverge between them.
        ``kind`` is ``"ccf"``, ``"perm"`` or ``"seu"``.
        """
        if kind == "ccf":
            return TransientCCF(
                time=rng.uniform(0.0, self._makespan),
                fault_id=fault_id,
                sms=None,
                work_per_block=self._work_hint,
                phase_quantum=phase_quantum,
            )
        if kind == "perm":
            return PermanentSMFault(
                sm=rng.randrange(self._num_sms),
                fault_id=fault_id,
                since=rng.uniform(0.0, self._makespan * 0.5),
            )
        return SEUFault(
            sm=rng.randrange(self._num_sms),
            time=rng.uniform(0.0, self._makespan),
            fault_id=fault_id,
        )

    def sample_faults(self, config: CampaignConfig) -> List[FaultDescriptor]:
        """Draw the campaign's fault population (reproducibly).

        This is the classic *sequential* sampler: one PRNG stream seeded
        with ``config.seed`` drawn front to back.  It is kept bit-stable
        for the paper-figure experiments; sharded campaigns use the
        indexed sampler (:meth:`fault_at` / :meth:`sample_range`), whose
        population is a different — equally distributed — draw.
        """
        rng = random.Random(config.seed)
        faults: List[FaultDescriptor] = []
        fid = 0
        for kind, count in (("ccf", config.transient_ccf),
                            ("perm", config.permanent_sm),
                            ("seu", config.seu)):
            for _ in range(count):
                faults.append(
                    self._build_fault(kind, rng, fid, config.phase_quantum)
                )
                fid += 1
        return faults

    # ------------------------------------------------------------------
    # indexed (shardable) sampling
    # ------------------------------------------------------------------
    def fault_at(self, config: CampaignConfig, index: int, *,
                 sampling: Optional[SamplingConfig] = None
                 ) -> FaultDescriptor:
        """The ``index``-th fault of the campaign's *indexed* population.

        Fault ``index`` draws exclusively from its own PRNG substream
        (:func:`fault_substream`), so the fault returned for a given
        ``(config, index)`` never depends on which other indices have
        been (or will be) sampled — the determinism contract sharded
        campaigns are built on.  The kind layout depends on the sampling
        generation:

        * legacy (``sampling=None``, v1): the index space is segmented
          by kind — ``[0, transient_ccf)`` transient CCFs, the next
          ``permanent_sm`` permanent SM defects, the remainder SEUs.
          Bit-stable, but bounded by ``config.total_injections``.
        * v2 (:class:`SamplingConfig`): the kind of index ``i`` comes
          from the stratified block layout or the importance proposal
          draw.  Both are *prefix-stable* — valid for every ``i >= 0``
          regardless of campaign size — which is what lets the
          repeat-until-confidence runner extend a campaign in place.

        Raises:
            FaultInjectionError: when ``index`` is outside the legacy
                population, negative, or the sampling design does not
                support the plan's nominal mix.
        """
        if sampling is not None:
            if index < 0:
                raise FaultInjectionError(
                    f"fault index {index} cannot be negative"
                )
            layout = self._layout
            if (layout is None or layout[0] is not config
                    or layout[1] is not sampling):
                # both are frozen: check the pair and expand its block
                # once, not once per index
                sampling.validate_support(config)
                layout = self._layout = (config, sampling, sampling.block())
            rng = self._substream(config.seed, index)
            if sampling.method == "stratified":
                block = layout[2]
                kind = block[index % len(block)]
            else:
                kind = sampling.draw_kind(rng)
            return self._build_fault(kind, rng, index, config.phase_quantum)
        total = config.total_injections
        if not 0 <= index < total:
            raise FaultInjectionError(
                f"fault index {index} outside campaign population "
                f"[0, {total})"
            )
        rng = self._substream(config.seed, index)
        if index < config.transient_ccf:
            kind = "ccf"
        elif index < config.transient_ccf + config.permanent_sm:
            kind = "perm"
        else:
            kind = "seu"
        return self._build_fault(kind, rng, index, config.phase_quantum)

    def _substream(self, seed: int, index: int) -> random.Random:
        """``fault_substream(seed, index)`` from a per-seed factory."""
        substreams = self._substreams
        if substreams is None or substreams[0] != seed:
            substreams = self._substreams = (
                seed, prefixed_substreams(f"{seed}:"))
        return substreams[1](index)

    def random_fault(self, rng: random.Random, *, transient_ccf: int = 1,
                     permanent_sm: int = 1, seu: int = 1,
                     phase_quantum: float = 1.0,
                     fault_id: int = 0) -> FaultDescriptor:
        """Draw one fault from an externally supplied PRNG.

        This is the *overlay* hook used by :mod:`repro.streams`: callers
        that manage their own substream schedule (e.g. one substream per
        frame of a stream) draw faults over this campaign's sampling
        domain — same kind weights and parameter distributions as the
        indexed sampler (:meth:`fault_at`), but with the caller's ``rng``
        and ``fault_id``.

        Args:
            rng: the PRNG to consume (the caller owns its seeding).
            transient_ccf: relative weight of transient CCFs.
            permanent_sm: relative weight of permanent SM defects.
            seu: relative weight of SEUs.
            phase_quantum: transient-CCF alignment quantum (work units).
            fault_id: identifier stamped into the fault (labels stay
                unique when the caller passes unique ids).

        Raises:
            FaultInjectionError: when no weight is positive.
        """
        if min(transient_ccf, permanent_sm, seu) < 0:
            raise FaultInjectionError("fault-kind weights cannot be negative")
        total = transient_ccf + permanent_sm + seu
        if total == 0:
            raise FaultInjectionError(
                "at least one fault-kind weight must be positive"
            )
        pick = rng.randrange(total)
        if pick < transient_ccf:
            kind = "ccf"
        elif pick < transient_ccf + permanent_sm:
            kind = "perm"
        else:
            kind = "seu"
        return self._build_fault(kind, rng, fault_id, phase_quantum)

    def sample_range(self, config: CampaignConfig, start: int, stop: int, *,
                     sampling: Optional[SamplingConfig] = None
                     ) -> List[FaultDescriptor]:
        """One contiguous shard ``[start, stop)`` of the indexed population.

        ``sample_range(c, 0, c.total_injections)`` is the whole (legacy)
        population; any partition of ``[0, total)`` into contiguous
        ranges regenerates exactly the same faults shard by shard.  With
        a v2 ``sampling`` design the population is prefix-stable and
        unbounded, so only ``0 <= start <= stop`` is required.

        Raises:
            FaultInjectionError: on an invalid or out-of-bounds range.
        """
        upper = None if sampling is not None else config.total_injections
        if start < 0 or start > stop or (upper is not None and stop > upper):
            raise FaultInjectionError(
                f"invalid fault range [{start}, {stop}) for a campaign of "
                f"{config.total_injections} injections"
            )
        return [self.fault_at(config, index, sampling=sampling)
                for index in range(start, stop)]

    def run_sampled(self, config: CampaignConfig, sampling: SamplingConfig,
                    total: int) -> CampaignReport:
        """Run ``total`` injections under a v2 sampling design, in memory.

        The counterpart of :meth:`run` for the prefix-stable samplers:
        indices ``[0, total)`` of the v2 population are injected and
        recorded, and the report carries the :func:`sampling_metadata`
        block so its rate estimates reweight to the nominal mix.  The
        sharded equivalent lives in :mod:`repro.campaigns`.

        Raises:
            FaultInjectionError: on a non-positive total or an
                unsupported sampling design.
        """
        if total < 1:
            raise FaultInjectionError(
                f"sampled campaign must inject at least one fault, "
                f"got {total}"
            )
        metadata = sampling_metadata(config, sampling)
        report = CampaignReport(policy=self._run.sim.scheduler_name,
                                sampling=metadata)
        for index in range(total):
            fault = self.fault_at(config, index, sampling=sampling)
            report.record(self.classify(fault), type(fault).__name__)
        return report

    def run(self, config: Optional[CampaignConfig] = None,
            faults: Optional[Sequence[FaultDescriptor]] = None
            ) -> CampaignReport:
        """Run the campaign.

        Args:
            config: sampling plan (ignored when ``faults`` is given).
            faults: explicit fault population (overrides sampling).

        Returns:
            The aggregated :class:`CampaignReport`.
        """
        if faults is None:
            faults = self.sample_faults(config or CampaignConfig())
        report = CampaignReport(policy=self._run.sim.scheduler_name)
        for fault in faults:
            report.record(self.classify(fault), type(fault).__name__)
        return report
