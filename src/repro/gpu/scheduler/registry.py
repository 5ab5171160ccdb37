"""Scheduler registry — name-based construction of scheduling policies.

Benchmarks, examples and the redundancy manager refer to policies by name
(``"default"``, ``"srrs"``, ``"half"``); the registry maps names to factory
callables.  User code can register additional policies (e.g. the faulty
wrappers used in scheduler-fault campaigns, or experimental policies) via
:func:`register_scheduler`.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro import exec as execution
from repro.errors import ConfigurationError
from repro.gpu.scheduler.base import KernelScheduler
from repro.gpu.scheduler.default import DefaultScheduler
from repro.gpu.scheduler.half import HALFScheduler
from repro.gpu.scheduler.srrs import SRRSScheduler
from repro.gpu.scheduler.staggered import StaggeredScheduler

__all__ = [
    "register_scheduler",
    "make_scheduler",
    "available_schedulers",
    "PAPER_POLICIES",
]

#: The three policies evaluated in Figure 4 of the paper, in plot order.
PAPER_POLICIES: Tuple[str, ...] = ("default", "half", "srrs")

_REGISTRY: Dict[str, Callable[..., KernelScheduler]] = {}


def register_scheduler(name: str,
                       factory: Callable[..., KernelScheduler],
                       *, overwrite: bool = False) -> None:
    """Register a scheduler factory under ``name``.

    Args:
        name: registry key (case-sensitive).
        factory: zero-or-keyword-argument callable returning a fresh
            :class:`KernelScheduler`.
        overwrite: allow replacing an existing registration.

    Warm pool workers (:mod:`repro.exec`) were forked before the
    registration and do not know it, so registering shuts the pool
    down; the next pooled call forks workers that do.

    Raises:
        ConfigurationError: on duplicate names without ``overwrite``.
    """
    if not name:
        raise ConfigurationError("scheduler name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"scheduler {name!r} already registered")
    _REGISTRY[name] = factory
    execution.shutdown()


def make_scheduler(name: str, **kwargs) -> KernelScheduler:
    """Instantiate a registered scheduler by name.

    Keyword arguments are forwarded to the factory (e.g.
    ``make_scheduler("half", partitions=3)``).

    Raises:
        ConfigurationError: for unknown names.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown scheduler {name!r}; known: {known}"
        ) from None
    return factory(**kwargs)


def available_schedulers() -> Tuple[str, ...]:
    """Sorted names of all registered schedulers."""
    return tuple(sorted(_REGISTRY))


register_scheduler("default", DefaultScheduler)
register_scheduler("srrs", SRRSScheduler)
register_scheduler("half", HALFScheduler)
register_scheduler("staggered", StaggeredScheduler)
