"""Hardware fault descriptors and their effect model.

Faults are applied *post hoc* to an execution trace: because the simulator
is deterministic and faults (in this coarse model) do not change timing,
one simulation per policy supports arbitrarily many injected faults — the
campaign machinery exploits this heavily.

The effect model encodes the paper's common-cause-fault reasoning:

* a **transient CCF** (voltage droop, clock glitch) disturbs *all* affected
  SMs at one instant; the corruption a computation suffers depends on what
  it was executing, so two redundant copies of the same block are corrupted
  *identically* — and thus undetectably — exactly when they are phase-
  aligned at the fault instant.  The fault signature therefore quantises
  the block's work position at the fault time; equal signatures on both
  copies defeat the DCLS comparison.
* a **permanent SM fault** deterministically corrupts every computation on
  that SM; redundant copies are corrupted identically exactly when both
  run on the faulty SM.
* a **local transient (SEU)** hits a single physical location, corrupting
  at most one resident block with an injection-unique signature, so the
  comparison always catches it (or it is masked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.errors import FaultInjectionError
from repro.gpu.trace import ExecutionTrace, TBRecord

__all__ = ["FaultDescriptor", "TransientCCF", "PermanentSMFault", "SEUFault"]

#: Work-position quantum for transient-CCF alignment (one "instruction").
PHASE_QUANTUM = 1.0


class FaultDescriptor:
    """Base class of all injectable hardware faults.

    Subclasses implement :meth:`effect_on`, returning the corruption
    *signature* a thread-block record suffers from this fault (or ``None``
    when unaffected).  Two records receiving equal signatures produce
    identical erroneous outputs — the comparison-defeating case.  A
    subclass whose reach is narrow also overrides :meth:`candidates`, so
    the injector looks only at the blocks the fault can touch.
    """

    def effect_on(self, record: TBRecord) -> Optional[Tuple]:
        """Corruption signature of ``record`` under this fault, or None."""
        raise NotImplementedError

    def candidates(self, trace: ExecutionTrace) -> Iterable[TBRecord]:
        """A superset of the records for which :meth:`effect_on` can be
        non-``None``.

        The default is every record of the trace, which is correct for
        any effect model.
        """
        return trace.tb_records

    def describe(self) -> str:
        """Human-readable label for campaign reports."""
        return type(self).__name__


@dataclass(frozen=True)
class TransientCCF(FaultDescriptor):
    """Chip-wide (or SM-subset) transient disturbance at one instant.

    Attributes:
        time: fault instant in cycles.
        fault_id: campaign-unique identifier (part of the signature —
            distinct faults never produce colliding signatures).
        sms: affected SMs; ``None`` means the whole chip (voltage droop).
        work_per_block: work units of the affected kernels, used to map
            execution phase to a work position.
        phase_quantum: work-position quantisation; copies within the same
            quantum at the fault instant are corrupted identically.
    """

    time: float
    fault_id: int
    sms: Optional[Tuple[int, ...]] = None
    work_per_block: float = 1000.0
    phase_quantum: float = PHASE_QUANTUM

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultInjectionError("fault time cannot be negative")
        if self.work_per_block <= 0 or self.phase_quantum <= 0:
            raise FaultInjectionError("work/quantum must be positive")

    def effect_on(self, record: TBRecord) -> Optional[Tuple]:
        """Quantised-phase signature for blocks active at the fault time."""
        if self.sms is not None and record.sm not in self.sms:
            return None
        phase = record.phase_at(self.time)
        if phase is None:
            return None
        work_position = phase * self.work_per_block
        bucket = math.floor(work_position / self.phase_quantum)
        return ("ccf", self.fault_id, record.tb_index, bucket)

    def candidates(self, trace: ExecutionTrace) -> Iterable[TBRecord]:
        """Blocks active at the fault instant on the affected SMs."""
        return trace.active_blocks_at(self.time, self.sms)

    def describe(self) -> str:
        scope = "chip-wide" if self.sms is None else f"SMs {self.sms}"
        return f"TransientCCF@{self.time:.0f}cy ({scope})"


@dataclass(frozen=True)
class PermanentSMFault(FaultDescriptor):
    """Permanent defect in one SM's execution units.

    Every block executing (any part of its work) on the SM after the fault
    manifests is corrupted deterministically: the erroneous output depends
    only on the computation, so redundant copies that both visit the
    faulty SM agree on the wrong answer.

    Attributes:
        sm: the defective SM.
        fault_id: campaign-unique identifier.
        since: cycle from which the defect is active (0 = from power-on).
    """

    sm: int
    fault_id: int
    since: float = 0.0

    def __post_init__(self) -> None:
        if self.sm < 0:
            raise FaultInjectionError("SM id cannot be negative")
        if self.since < 0:
            raise FaultInjectionError("fault onset cannot be negative")

    def effect_on(self, record: TBRecord) -> Optional[Tuple]:
        """Deterministic corruption for blocks touching the faulty SM."""
        if record.sm != self.sm or record.end <= self.since:
            return None
        return ("perm", self.fault_id, record.tb_index)

    def candidates(self, trace: ExecutionTrace) -> Iterable[TBRecord]:
        """Every block that ran on the faulty SM."""
        return trace.blocks_on_sm(self.sm)

    def describe(self) -> str:
        return f"PermanentSMFault(sm={self.sm}, since={self.since:.0f}cy)"


@dataclass(frozen=True)
class SEUFault(FaultDescriptor):
    """Single-event upset: one particle strike in one SM at one instant.

    A strike flips state belonging to at most one resident block; the
    corruption is injection-unique (the flipped bit depends on the strike
    location), so it can never match a corruption of the redundant copy.
    The struck block is chosen deterministically as the lowest-index
    active block on the SM (the model only needs *one* victim).

    Attributes:
        sm: struck SM.
        time: strike instant in cycles.
        fault_id: campaign-unique identifier.
    """

    sm: int
    time: float
    fault_id: int

    def __post_init__(self) -> None:
        if self.sm < 0:
            raise FaultInjectionError("SM id cannot be negative")
        if self.time < 0:
            raise FaultInjectionError("fault time cannot be negative")

    def effect_on(self, record: TBRecord) -> Optional[Tuple]:
        """Unique-signature corruption for the struck block.

        Victim selection (lowest ``(instance_id, tb_index)`` among active
        blocks on the SM) is resolved by the injector, which calls this
        for candidate records; the signature embeds the victim identity so
        an accidental double application still cannot collide across
        copies.
        """
        if record.sm != self.sm or not record.active_at(self.time):
            return None
        return ("seu", self.fault_id, record.instance_id, record.tb_index)

    def candidates(self, trace: ExecutionTrace) -> Iterable[TBRecord]:
        """Blocks resident on the struck SM at the strike instant."""
        return trace.active_blocks_at(self.time, (self.sm,))

    def describe(self) -> str:
        return f"SEU(sm={self.sm}, t={self.time:.0f}cy)"
