"""Deterministic open-loop arrival processes for frame streams.

Arrival times are generated from *indexed* PRNG substreams, mirroring the
sharded-campaign seed schedule (:func:`repro.faults.campaign.fault_substream`):
the randomness of frame ``i`` — its jitter offset, its Poisson gap, its
fault-overlay draws — comes exclusively from a PRNG seeded with
``SHA-256(seed, purpose, i)``.  No frame consumes another frame's draws,
so the stream's behaviour is a pure function of ``(spec, seed)`` and can
never depend on worker counts or chunk boundaries.

The three models:

* **periodic** — frame ``i`` arrives at exactly ``i * period_ms``;
* **jittered** — periodic plus an independent uniform offset in
  ``[-jitter_ms, +jitter_ms]`` per frame (sensor-timestamp wobble); with
  ``jitter_ms <= period_ms / 2`` arrival times stay non-decreasing;
* **poisson** — exponential inter-arrival gaps with mean ``period_ms``
  (memoryless open-loop traffic); arrival ``i`` is the prefix sum of the
  first ``i`` indexed gaps.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterator, List, Optional, Tuple

from repro.api.stream import ArrivalSpec
from repro.exec import run_tasks
from repro.faults.campaign import prefixed_substreams
from repro.obs.session import Telemetry

__all__ = [
    "frame_substream",
    "iter_arrivals",
    "materialize_arrivals",
    "substream_factory",
]


def substream_factory(seed: int,
                      purpose: str) -> Callable[[int], random.Random]:
    """Build a fast per-frame substream generator for one purpose.

    The returned callable maps a frame index to a PRNG seeded with
    ``SHA-256(seed, purpose, index)`` — the exact seed schedule of
    :func:`frame_substream`, draw-for-draw identical.  It is the hot-loop
    form (:func:`repro.faults.campaign.prefixed_substreams`): the
    ``"{seed}:{purpose}:"`` hash prefix is absorbed once into a reusable
    :class:`hashlib.sha256` state, and a single :class:`random.Random`
    instance is *re-seeded* per call instead of allocated, which roughly
    halves the per-frame substream cost over 10^5-frame soaks.

    Because the instance is shared, each returned generator is only valid
    until the factory is called again — exhaust its draws before asking
    for the next frame's substream (the stream runner's frame loop does
    exactly this).  Use :func:`frame_substream` when the generator must
    outlive the next request.

    Args:
        seed: the stream's master seed.
        purpose: short label separating independent uses of the seed.

    Returns:
        A callable mapping ``index`` to the (shared, freshly re-seeded)
        substream PRNG.
    """
    return prefixed_substreams(f"{seed}:{purpose}:")


def frame_substream(seed: int, purpose: str, index: int) -> random.Random:
    """PRNG substream of frame ``index`` for one purpose within a stream.

    The substream is seeded with ``SHA-256(seed, purpose, index)``, so a
    frame's draws for one purpose (``"jitter"``, ``"gap"``, ``"fault"``)
    are independent of every other frame's and of the other purposes' —
    the same indexed-randomness contract the sharded campaigns are built
    on (see ``docs/CAMPAIGNS.md`` and ``docs/STREAMS.md``).

    Args:
        seed: the stream's master seed.
        purpose: short label separating independent uses of the seed.
        index: frame index.

    Returns:
        A freshly seeded :class:`random.Random` (never shared — see
        :func:`substream_factory` for the amortised hot-loop variant).
    """
    digest = hashlib.sha256(
        f"{seed}:{purpose}:{index}".encode("ascii")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _arrival_chunk(task: Tuple[ArrivalSpec, int, int, int],
                   _telemetry: Optional[Telemetry]) -> List[float]:
    """Arrival values of frames ``[lo, hi)`` of the task
    ``(spec, seed, lo, hi)`` — a pure task function.

    Returns arrival *times* for the periodic and jittered models and raw
    inter-arrival *gaps* for the Poisson model (whose prefix sum is
    inherently sequential; :func:`materialize_arrivals` folds the gaps in
    index order).  Every value is computed exactly as
    :func:`iter_arrivals` computes it — same substream, same expression —
    so chunk boundaries can never change a stream.

    The task holds the arrival process description, the stream's master
    seed, and the chunk's first (inclusive) and last (exclusive) frame.
    """
    spec, seed, lo, hi = task
    period = spec.period_ms
    if spec.model == "periodic":
        return [index * period for index in range(lo, hi)]
    if spec.model == "jittered":
        jitter = spec.jitter_ms
        if not jitter:
            return [max(0.0, index * period + 0.0) for index in range(lo, hi)]
        sub = substream_factory(seed, "jitter")
        return [
            max(0.0, index * period + sub(index).uniform(-jitter, jitter))
            for index in range(lo, hi)
        ]
    sub = substream_factory(seed, "gap")
    rate = 1.0 / period
    return [sub(index).expovariate(rate) for index in range(lo, hi)]


def materialize_arrivals(spec: ArrivalSpec, seed: int, frames: int, *,
                         workers: int = 1, chunks: int = 1,
                         telemetry: Optional[Telemetry] = None
                         ) -> List[float]:
    """The stream's first ``frames`` arrival times as a list.

    Bit-identical to ``islice(iter_arrivals(spec, seed), frames)`` — the
    values come from the same indexed substreams via the same arithmetic.
    Because frame ``i``'s randomness is independent of every other
    frame's, the per-frame work (dominated by one SHA-256 + Mersenne
    Twister reseed for the jittered/Poisson models) can fan out over the
    process pool of :func:`repro.exec.run_tasks`; only the cheap Poisson
    prefix sum stays sequential.

    Args:
        spec: the arrival process description.
        seed: the stream's master seed.
        frames: number of arrival times to produce.
        workers: process count for the per-chunk substream work (``1``
            computes in-process).
        chunks: number of tasks to split the index range into.
        telemetry: optional session receiving the chunks' lifecycle
            events.

    Returns:
        Non-decreasing arrival times, one per frame.
    """
    if workers <= 1 or chunks <= 1 or frames == 0:
        parts = [_arrival_chunk((spec, seed, 0, frames), None)]
    else:
        step = -(-frames // chunks)  # ceil division
        parts = list(run_tasks(
            _arrival_chunk,
            [(spec, seed, lo, min(lo + step, frames))
             for lo in range(0, frames, step)],
            keys=[f"arrivals-{i:03d}" for i in range(-(-frames // step))],
            workers=workers, telemetry=telemetry,
        ))
    if spec.model != "poisson":
        return [value for part in parts for value in part]
    out: List[float] = []
    append = out.append
    clock = 0.0
    for part in parts:
        for gap in part:
            clock += gap
            append(clock)
    return out


def iter_arrivals(spec: ArrivalSpec, seed: int) -> Iterator[float]:
    """Yield the stream's arrival times (milliseconds), frame by frame.

    The iterator is infinite — the runner slices it to the stream's frame
    count.  Arrival times are non-decreasing for every model
    (:class:`~repro.api.stream.ArrivalSpec` validates the jitter bound).

    Args:
        spec: the arrival process description.
        seed: the stream's master seed (jitter and Poisson substreams).
    """
    period = spec.period_ms
    if spec.model == "periodic":
        index = 0
        while True:
            yield index * period
            index += 1
    elif spec.model == "jittered":
        jitter = spec.jitter_ms
        sub = substream_factory(seed, "jitter")
        index = 0
        while True:
            offset = sub(index).uniform(
                -jitter, jitter
            ) if jitter else 0.0
            yield max(0.0, index * period + offset)
            index += 1
    else:  # poisson
        sub = substream_factory(seed, "gap")
        clock = 0.0
        index = 0
        while True:
            clock += sub(index).expovariate(1.0 / period)
            yield clock
            index += 1
