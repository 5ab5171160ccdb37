"""Dense reference fault classification (differential-testing oracle).

The production path (:func:`repro.faults.injector.apply_fault` and
:meth:`repro.faults.campaign.FaultCampaign.classify`) examines only the
blocks a fault can reach and compares only the corrupted blocks against
their peer copies.  This module keeps the original dense evaluation: every
record of the trace is offered to the fault, and every affected logical
kernel's full output signatures are rebuilt and compared.  It is obviously
correct and slow, and exists so tests can require the production path to
agree with it exactly — as :class:`repro.gpu.reference.ReferenceSimulator`
does for the simulator.  Nothing outside the test-suite imports it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.faults.injector import CorruptionMap, check_fault_targets
from repro.faults.outcomes import FaultOutcome, InjectionResult, classify_outcome
from repro.faults.types import FaultDescriptor, SEUFault
from repro.gpu.trace import ExecutionTrace
from repro.redundancy.comparison import build_signature, compare_signatures

__all__ = ["reference_apply_fault", "reference_classify"]


def reference_apply_fault(fault: FaultDescriptor,
                          trace: ExecutionTrace) -> CorruptionMap:
    """Corruption map of ``fault``, offering it every record of the trace.

    Raises:
        FaultInjectionError: when the fault references an SM the trace's
            GPU does not have.
    """
    check_fault_targets(fault, trace)
    corruption: CorruptionMap = {}
    for record in trace.tb_records:
        signature = fault.effect_on(record)
        if signature is not None:
            corruption[(record.instance_id, record.tb_index)] = signature

    if isinstance(fault, SEUFault) and len(corruption) > 1:
        # a single strike has a single victim: lowest (instance, tb) active
        victim = min(corruption)
        corruption = {victim: corruption[victim]}
    return corruption


def reference_classify(fault: FaultDescriptor,
                       trace: ExecutionTrace) -> InjectionResult:
    """Inject one fault densely and classify it from full signatures.

    Raises:
        RedundancyError: when an affected comparison group is malformed.
    """
    corruption = reference_apply_fault(fault, trace)
    affected = tuple(
        sorted({trace.span(iid).logical_id for (iid, _tb) in corruption})
    )
    return InjectionResult(
        fault_label=fault.describe(),
        outcome=_classify_corruption(trace, corruption),
        corrupted_blocks=len(corruption),
        affected_logicals=affected,
    )


def _classify_corruption(trace: ExecutionTrace,
                         corruption: CorruptionMap) -> FaultOutcome:
    """Rebuild and compare every affected logical kernel's signatures."""
    if not corruption:
        return FaultOutcome.MASKED
    groups: Dict[int, Tuple[int, ...]] = {}
    for logical in trace.logical_ids():
        copies = trace.copies_of(logical)
        groups[logical] = tuple(copies[c].instance_id for c in sorted(copies))
    affected_logicals = {trace.span(iid).logical_id for (iid, _tb) in corruption}
    comparisons = []
    for logical in affected_logicals:
        signatures = [
            build_signature(trace, iid, corruption) for iid in groups[logical]
        ]
        comparisons.append(compare_signatures(signatures))
    return classify_outcome(corruption, comparisons)
