"""Application of fault descriptors to execution traces.

The injector converts a :class:`~repro.faults.types.FaultDescriptor` plus
an :class:`~repro.gpu.trace.ExecutionTrace` into a *corruption map*
``(instance_id, tb_index) -> signature`` that outcome classification
(:meth:`repro.faults.campaign.FaultCampaign.classify`) consumes.  Only the
fault's :meth:`~repro.faults.types.FaultDescriptor.candidates` are
examined, so the cost follows the fault's reach, not the trace size.  SEU
faults additionally restrict the effect to a single victim block.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import FaultInjectionError
from repro.faults.types import FaultDescriptor, SEUFault
from repro.gpu.trace import ExecutionTrace

__all__ = ["apply_fault", "check_fault_targets", "CorruptionMap"]

#: Corruption map type: (instance_id, tb_index) -> fault signature.
CorruptionMap = Dict[Tuple[int, int], Tuple]


def check_fault_targets(fault: FaultDescriptor, trace: ExecutionTrace) -> None:
    """Reject a fault that names an SM the trace's GPU does not have.

    Raises:
        FaultInjectionError: naming the out-of-range SM(s).
    """
    sm_attr = getattr(fault, "sm", None)
    if sm_attr is not None and sm_attr >= trace.num_sms:
        raise FaultInjectionError(
            f"fault targets SM {sm_attr}, trace has {trace.num_sms} SMs"
        )
    sms_attr = getattr(fault, "sms", None)
    if sms_attr is not None:
        bad = [sm for sm in sms_attr if not (0 <= sm < trace.num_sms)]
        if bad:
            raise FaultInjectionError(
                f"fault targets unknown SMs {bad} (trace has "
                f"{trace.num_sms})"
            )


def apply_fault(fault: FaultDescriptor, trace: ExecutionTrace) -> CorruptionMap:
    """Compute the corruption a fault inflicts on a trace.

    Args:
        fault: the fault descriptor.
        trace: the (deterministic) execution trace to corrupt.

    Returns:
        Mapping from affected ``(instance_id, tb_index)`` to the fault's
        corruption signature.  Empty when the fault hits no active block
        (a masked fault).

    Raises:
        FaultInjectionError: when the fault references an SM the trace's
            GPU does not have.
    """
    check_fault_targets(fault, trace)
    corruption: CorruptionMap = {}
    effect_on = fault.effect_on
    for record in fault.candidates(trace):
        signature = effect_on(record)
        if signature is not None:
            corruption[(record.instance_id, record.tb_index)] = signature

    if isinstance(fault, SEUFault) and len(corruption) > 1:
        # a single strike has a single victim: lowest (instance, tb) active
        victim = min(corruption)
        corruption = {victim: corruption[victim]}
    return corruption
