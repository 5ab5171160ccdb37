"""Coarse-grained discrete-event GPU timing simulator.

This module is the reproduction's substitute for GPGPU-Sim (see DESIGN.md,
Section 2).  It models execution at *thread-block* granularity with a fluid
(processor-sharing) timing model:

* every resident thread block holds SM resources (threads, registers,
  shared memory, a block slot) from dispatch to completion and never
  migrates — matching the paper's "each thread block is bound to a SM for
  its entire execution";
* a block's **compute** work drains at an equal share of its SM's issue
  throughput (co-resident blocks time-multiplex the SM);
* a block's **memory** traffic drains at an equal share of the GPU-wide
  DRAM bandwidth, overlapped with compute (latency hiding);
* a block completes when both its compute and memory work reach zero;
* kernels arrive through a serial host dispatch path: consecutive launches
  are separated by at least :attr:`GPUConfig.dispatch_latency` cycles —
  the natural staggering of redundant kernels noted in Section IV-A;
* launch-to-launch dependencies model in-stream ordering of multi-kernel
  applications.

The global kernel scheduler is pluggable (:mod:`repro.gpu.scheduler`); the
simulator asks it for admission, SM masks and per-block SM selection, and
*validates* every answer so that faulty/injected schedulers cannot corrupt
simulator invariants silently.

Incremental virtual-time core
-----------------------------

Rates change only at events (arrival, dimension completion, placement), so
the simulation advances event-to-event with exact piecewise-linear
progress integration; results are fully deterministic.

Because co-resident blocks share an SM's issue throughput *equally* (and
memory-active blocks share DRAM bandwidth equally), progress is tracked by
**virtual clocks** instead of per-block countdowns — classic fair-queuing:

* each SM carries a compute clock ``V_s`` = work drained per compute-active
  block since the run started; the global memory clock ``V_mem`` counts
  bytes drained per memory-active block;
* a block placed when the clock reads ``V`` with ``w`` units of work
  finishes that dimension exactly when the clock reaches ``V + w`` — a key
  that **never changes**, no matter how often the block's bandwidth share
  changes afterwards;
* upcoming finishes therefore live in min-heaps (one per SM for compute,
  one global for memory) that never need re-keying; an event advances the
  clocks (one multiply-add per active SM plus one for memory) and drains
  **every** key within ``_EPS`` of the new clock readings, so all
  same-virtual-time completions collapse into one batched event.

Raw-speed data layout
---------------------

The hot-loop state is array-oriented rather than object-oriented:

* **Flat thread-block slots** — a resident block is a reusable integer
  slot id indexing parallel lists (owning launch state, block index, SM,
  start time, per-dimension activity flags).  Heap entries are plain
  ``(finish_key, seq, slot)`` tuples; a free-list recycles slot ids so a
  run allocates O(peak residency) slots, not O(total blocks).
* **Indexed dispatch queue** — arrived, not-fully-dispatched launches
  live in a doubly-linked list over order indices (ascending submission
  order) with O(1) unlink, replacing the former sorted-list ``insort``
  re-queues and list rebuilds.
* **Parked eligibility classes** — a capacity-blocked launch is *parked*
  off the dispatch queue under its eligibility-class key (resource
  footprint + SM mask; the launch itself when kernel mixing is off).  The
  release log is the dirty flag: a parked class is re-screened only
  against SMs that released a block since it parked, and costs O(1) per
  placement call otherwise.  This replaces per-event candidate rescans of
  every blocked launch with one screen per blocked *class*.

Per-event cost is O(active SMs + log resident + blocked classes) instead
of the previous O(resident blocks + launches); placement bookkeeping is
likewise indexed (release-log capacity screen, reverse-dependency map,
per-SM per-instance residency counters) so no event rescans all blocks or
launch states.

:mod:`repro.gpu.reference` retains a scan-everything-per-event core with
the *identical* arithmetic; the randomized differential suite
(``tests/gpu/test_simulator_equivalence.py``) proves both produce
bit-identical traces, event counts and scheduler interactions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    CapacityError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.occupancy import occupancy_report
from repro.gpu.scheduler.base import KernelScheduler
from repro.gpu.trace import ExecutionTrace, KernelSpan, TBRecord

__all__ = ["GPUSimulator", "SimulationResult", "simulate"]

_EPS = 1e-9


@dataclass
class _SMState:
    """Mutable resource accounting and compute clock of one SM.

    Residency is tracked by counters (total and per launch instance) so the
    scheduler-view queries and the kernel-mixing rule are O(1); the heap
    holds ``(compute_finish, seq, slot)`` for every compute-active block,
    where ``slot`` indexes the simulator's flat thread-block arrays.
    """

    free_threads: int
    free_registers: int
    free_shared_memory: int
    free_blocks: int
    resident_total: int = 0
    resident_by_instance: Dict[int, int] = field(default_factory=dict)
    compute_active: int = 0
    virtual: float = 0.0
    heap: List[Tuple[float, int, int]] = field(default_factory=list)

    def fits(self, kernel: KernelDescriptor) -> bool:
        """Whether one more block of ``kernel`` fits right now."""
        return (
            self.free_blocks >= 1
            and self.free_threads >= kernel.threads_per_block
            and self.free_registers
            >= kernel.regs_per_thread * kernel.threads_per_block
            and self.free_shared_memory >= kernel.shared_mem_per_block
        )

    def take(self, kernel: KernelDescriptor) -> None:
        """Reserve resources for one block of ``kernel``."""
        self.free_blocks -= 1
        self.free_threads -= kernel.threads_per_block
        self.free_registers -= kernel.regs_per_thread * kernel.threads_per_block
        self.free_shared_memory -= kernel.shared_mem_per_block

    def release(self, kernel: KernelDescriptor) -> None:
        """Return resources of one completed block of ``kernel``."""
        self.free_blocks += 1
        self.free_threads += kernel.threads_per_block
        self.free_registers += kernel.regs_per_thread * kernel.threads_per_block
        self.free_shared_memory += kernel.shared_mem_per_block


@dataclass
class _LaunchState:
    """Mutable per-launch bookkeeping.

    ``kernel``, ``grid_blocks``, ``work`` and ``memory`` mirror immutable
    launch attributes as plain fields: the placement fast paths read them
    millions of times per run, and a field load is severalfold cheaper
    than a property call chaining through two attribute lookups.
    """

    launch: KernelLaunch
    kernel: KernelDescriptor
    remaining_deps: Set[int]
    order_index: int
    grid_blocks: int
    work: float  # float(kernel.work_per_block), cached
    memory: float  # float(kernel.bytes_per_block), cached
    arrival: Optional[float] = None  # known once deps resolved + dispatch slot
    started: bool = False
    first_dispatch: Optional[float] = None
    next_tb: int = 0
    resident_count: int = 0
    completed_tbs: int = 0
    completion: Optional[float] = None
    allowed: Tuple[int, ...] = ()  # scheduler mask, cached (sorted, deduped)
    allowed_set: frozenset = frozenset()
    # release-log position at which the last candidate scan found nothing;
    # None when the launch is not known to be capacity-blocked
    blocked_at_log: Optional[int] = None
    # (resource footprint, mask) eligibility class shared with identical
    # launches; None when kernel mixing is off (eligibility then depends
    # on the launch instance itself)
    screen_key: Optional[Tuple] = None
    # parking key: ``screen_key`` when kernel mixing is on, else the
    # launch's own order index (a solo one-member class)
    park_key: object = None

    @property
    def all_dispatched(self) -> bool:
        """True when every block has been placed on some SM."""
        return self.next_tb >= self.grid_blocks

    @property
    def complete(self) -> bool:
        """True when every block has finished."""
        return self.completion is not None


class _ParkedGroup:
    """Capacity-blocked launches of one eligibility class, parked off the
    dispatch queue.

    ``blocked_at_log`` is the release-log length at the class's oldest
    un-rescreened block point — the dirty flag: while the log has not
    grown past it, no SM can have become eligible and the whole class
    costs O(1) per placement call.  ``members`` is a min-heap of parked
    order indices, so the earliest-submitted member is always unparked
    first (submission-order placement is part of the bit-identity
    contract with the reference core).
    """

    __slots__ = ("blocked_at_log", "members")

    def __init__(self, blocked_at_log: int) -> None:
        self.blocked_at_log = blocked_at_log
        self.members: List[int] = []


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated workload.

    Attributes:
        trace: full execution trace (thread-block records, kernel spans).
        makespan: completion time of the last thread block (cycles).
        scheduler_name: ``describe()`` of the policy used.
        gpu: the simulated GPU configuration.
        events: number of discrete events processed (diagnostics).
    """

    trace: ExecutionTrace
    makespan: float
    scheduler_name: str
    gpu: GPUConfig
    events: int

    def kernel_exec_cycles(self, instance_id: int) -> float:
        """Pure execution time (first dispatch to completion) of a launch."""
        return self.trace.span(instance_id).exec_time

    def total_kernel_cycles(self) -> float:
        """Sum of per-launch execution times (contention-inflated)."""
        return sum(s.exec_time for s in self.trace.spans)


class GPUSimulator:
    """Discrete-event GPU simulator with a pluggable kernel scheduler.

    A simulator instance is reusable: every :meth:`run` call resets all
    mutable state (including the scheduler, via
    :meth:`KernelScheduler.reset`).

    Args:
        gpu: hardware configuration.
        scheduler: global kernel scheduling policy.
        validate: when True (default) run trace consistency checks at the
            end of each simulation; costs a few percent of run time.
    """

    def __init__(self, gpu: GPUConfig, scheduler: KernelScheduler,
                 *, validate: bool = True) -> None:
        self._gpu = gpu
        self._scheduler = scheduler
        self._validate = validate
        # run-scoped state, initialised in run()
        self._now = 0.0
        self._sms: List[_SMState] = []
        self._states: Dict[int, _LaunchState] = {}
        self._order: List[int] = []  # instance ids in submission order
        self._order_index: Dict[int, int] = {}
        self._dependents: Dict[int, List[int]] = {}
        self._last_dispatch_time: Optional[float] = None
        self._trace: Optional[ExecutionTrace] = None
        self._events = 0
        # config scalars, cached at reset (hot-loop reads)
        self._throughput = 1.0
        self._dram_bw = 1.0
        self._mixing = True
        # virtual-time engine state
        self._mem_virtual = 0.0
        self._mem_active = 0
        self._mem_heap: List[Tuple[float, int, int]] = []
        self._resident_total = 0
        self._seq = 0
        self._zombies: List[Tuple[int, int]] = []  # (seq, slot)
        # flat thread-block slot arrays (parallel, indexed by slot id)
        self._tb_state: List[Optional[_LaunchState]] = []
        self._tb_index: List[int] = []
        self._tb_sm: List[int] = []
        self._tb_start: List[float] = []
        self._tb_cact: List[bool] = []  # compute dimension still draining
        self._tb_mact: List[bool] = []  # memory dimension still draining
        self._tb_free: List[int] = []  # recycled slot ids
        # indexed launch bookkeeping
        self._arrival_heap: List[Tuple[float, int]] = []  # (arrival, order idx)
        # dispatch queue: doubly-linked list over order indices, ascending;
        # index n is the sentinel, -1 marks "not linked"
        self._ud_next: List[int] = []
        self._ud_prev: List[int] = []
        self._ud_sent = 0
        self._parked: Dict[object, _ParkedGroup] = {}
        self._first_incomplete = 0
        self._incomplete = 0
        self._release_log: List[int] = []  # SM id per completed block

    # ------------------------------------------------------------------
    # SchedulerView protocol
    # ------------------------------------------------------------------
    @property
    def gpu(self) -> GPUConfig:
        """Simulated GPU configuration (SchedulerView)."""
        return self._gpu

    def resident_blocks(self, sm: int) -> int:
        """Resident block count of one SM (SchedulerView)."""
        return self._sms[sm].resident_total

    def resident_blocks_of(self, sm: int, instance_id: int) -> int:
        """Resident blocks of a launch on one SM (SchedulerView, O(1))."""
        return self._sms[sm].resident_by_instance.get(instance_id, 0)

    def is_idle(self) -> bool:
        """True when no block is resident anywhere (SchedulerView)."""
        return self._resident_total == 0

    def incomplete_before(self, launch: KernelLaunch) -> bool:
        """True when a launch submitted earlier has not completed
        (SchedulerView).  Amortised O(1) via a first-incomplete pointer."""
        return self._advance_first_incomplete() < self._order_index[
            launch.instance_id
        ]

    def now(self) -> float:
        """Current simulation time in cycles (SchedulerView)."""
        return self._now

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def run(self, launches: Sequence[KernelLaunch]) -> SimulationResult:
        """Simulate a workload to completion.

        Args:
            launches: kernel launches in host submission order.  Instance
                ids must be unique; dependencies must reference ids within
                the workload and be acyclic (submission order is assumed to
                be a valid topological order, as in a real command stream).

        Returns:
            A :class:`SimulationResult` with the full execution trace.

        Raises:
            ConfigurationError: malformed workload (duplicate ids, forward
                dependencies).
            CapacityError: some kernel can never fit on its allowed SMs.
            SimulationError: internal inconsistency or scheduler deadlock.
        """
        self._reset(launches)
        self._precheck(launches)

        while True:
            self._try_placement()
            next_time = self._next_event_time()
            if next_time is None:
                break
            if next_time < self._now - _EPS:
                raise SimulationError(
                    f"time would move backwards: {next_time} < {self._now}"
                )
            self._advance(max(next_time, self._now))
            self._events += 1

        self._check_all_complete()
        trace = self._trace
        assert trace is not None
        if self._validate:
            trace.validate()
        return SimulationResult(
            trace=trace,
            makespan=trace.makespan,
            scheduler_name=self._scheduler.describe(),
            gpu=self._gpu,
            events=self._events,
        )

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _reset(self, launches: Sequence[KernelLaunch]) -> None:
        if not launches:
            raise ConfigurationError("workload must contain >= 1 launch")
        ids = [l.instance_id for l in launches]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate instance ids in workload")
        id_set = set(ids)
        seen: Set[int] = set()
        for launch in launches:
            for dep in launch.depends_on:
                if dep not in id_set:
                    raise ConfigurationError(
                        f"launch {launch.instance_id} depends on unknown "
                        f"instance {dep}"
                    )
                if dep not in seen:
                    raise ConfigurationError(
                        f"launch {launch.instance_id} depends on {dep}, "
                        "which is submitted later (streams submit in order)"
                    )
            seen.add(launch.instance_id)

        self._now = 0.0
        self._events = 0
        self._last_dispatch_time = None
        self._throughput = self._gpu.sm.issue_throughput
        self._dram_bw = self._gpu.dram_bandwidth
        self._mixing = self._gpu.allow_kernel_mixing
        sm_cfg = self._gpu.sm
        self._sms = [
            _SMState(
                free_threads=sm_cfg.max_threads,
                free_registers=sm_cfg.registers,
                free_shared_memory=sm_cfg.shared_memory,
                free_blocks=sm_cfg.max_blocks,
            )
            for _ in self._gpu.sm_ids
        ]
        self._order = list(ids)
        self._order_index = {iid: i for i, iid in enumerate(ids)}
        self._states = {
            l.instance_id: _LaunchState(
                launch=l,
                kernel=l.kernel,
                remaining_deps=set(l.depends_on),
                order_index=self._order_index[l.instance_id],
                grid_blocks=l.kernel.grid_blocks,
                work=float(l.kernel.work_per_block),
                memory=float(l.kernel.bytes_per_block),
            )
            for l in launches
        }
        self._dependents = {}
        for launch in launches:  # submission order => dependents in order
            for dep in launch.depends_on:
                self._dependents.setdefault(dep, []).append(launch.instance_id)
        self._mem_virtual = 0.0
        self._mem_active = 0
        self._mem_heap = []
        self._resident_total = 0
        self._seq = 0
        self._zombies = []
        self._tb_state = []
        self._tb_index = []
        self._tb_sm = []
        self._tb_start = []
        self._tb_cact = []
        self._tb_mact = []
        self._tb_free = []
        self._arrival_heap = []
        n = len(ids)
        self._ud_next = [-1] * (n + 1)
        self._ud_prev = [-1] * (n + 1)
        self._ud_next[n] = self._ud_prev[n] = n
        self._ud_sent = n
        self._parked = {}
        self._first_incomplete = 0
        self._incomplete = n
        self._release_log = []
        self._trace = ExecutionTrace(self._gpu.num_sms)
        self._scheduler.reset(self._gpu)
        # resolve arrivals of dependency-free launches (in submission order,
        # respecting the serial dispatch path)
        for iid in self._order:
            st = self._states[iid]
            if not st.remaining_deps:
                self._assign_arrival(st, ready_at=0.0)

    def _precheck(self, launches: Sequence[KernelLaunch]) -> None:
        """Fail fast when a kernel cannot fit on its allowed SMs.

        Also caches each launch's (validated) scheduler SM mask: the
        :meth:`KernelScheduler.allowed_sms` contract is a static per-launch
        property ("SMs this launch's thread blocks may *ever* use"), so it
        is queried once per launch per run instead of once per placement.
        """
        for launch in launches:
            occupancy_report(launch.kernel, self._gpu.sm)  # raises CapacityError
            allowed = self._scheduler.allowed_sms(launch)
            if not allowed:
                raise CapacityError(
                    f"scheduler {self._scheduler.name!r} allows no SMs for "
                    f"launch {launch.instance_id} ({launch.kernel.name})"
                )
            for sm in allowed:
                if not (0 <= sm < self._gpu.num_sms):
                    raise SchedulingError(
                        f"scheduler allowed invalid SM {sm} for launch "
                        f"{launch.instance_id}"
                    )
            st = self._states[launch.instance_id]
            st.allowed = tuple(sorted(set(allowed)))
            st.allowed_set = frozenset(st.allowed)
            if self._mixing:
                kernel = launch.kernel
                st.screen_key = (
                    kernel.threads_per_block,
                    kernel.regs_per_thread,
                    kernel.shared_mem_per_block,
                    st.allowed,
                )
                st.park_key = st.screen_key
            else:
                st.park_key = st.order_index

    def _assign_arrival(self, st: _LaunchState, ready_at: float) -> None:
        """Compute a launch's arrival time through the serial dispatch path."""
        ready = ready_at + st.launch.arrival_offset
        if self._last_dispatch_time is None:
            arrival = ready
        else:
            arrival = max(ready, self._last_dispatch_time + self._gpu.dispatch_latency)
        st.arrival = arrival
        self._last_dispatch_time = arrival
        heapq.heappush(self._arrival_heap, (arrival, st.order_index))

    # ------------------------------------------------------------------
    # dispatch queue (doubly-linked list over order indices)
    # ------------------------------------------------------------------
    def _ud_insert_sorted(self, idx: int) -> None:
        """Link ``idx`` into the dispatch queue at its sorted position.

        Walks backwards from the tail: insertions are clustered near the
        end (arrivals are near-monotone in submission order; unparked
        launches re-enter close to their neighbours), so the walk is
        near-O(1) in practice.
        """
        nxt, prv = self._ud_next, self._ud_prev
        sent = self._ud_sent
        j = prv[sent]
        while j != sent and j > idx:
            j = prv[j]
        k = nxt[j]
        nxt[j] = idx
        prv[idx] = j
        nxt[idx] = k
        prv[k] = idx

    def _ud_unlink(self, idx: int) -> None:
        """Unlink ``idx`` from the dispatch queue (O(1))."""
        nxt, prv = self._ud_next, self._ud_prev
        p, k = prv[idx], nxt[idx]
        nxt[p] = k
        prv[k] = p
        nxt[idx] = -1
        prv[idx] = -1

    # ------------------------------------------------------------------
    # parked eligibility classes
    # ------------------------------------------------------------------
    def _park(self, st: _LaunchState, idx: int, log_len: int) -> None:
        """Move a capacity-blocked launch from the queue to its class."""
        self._ud_unlink(idx)
        group = self._parked.get(st.park_key)
        if group is None:
            self._parked[st.park_key] = group = _ParkedGroup(log_len)
        heapq.heappush(group.members, idx)

    def _unpark_eligible(self, log_len: int) -> None:
        """Re-screen parked classes against SMs released since they parked.

        A class whose screen finds an eligible SM gets its earliest-
        submitted member linked back into the dispatch queue; the member's
        own ``blocked_at_log`` then drives the (narrower) released-SM
        rescan at its queue position, preserving the exact candidate lists
        and ``select_sm`` sequence of the reference core.  A class whose
        screen finds nothing updates its dirty flag and stays O(1) until
        the release log grows again.
        """
        log = self._release_log
        states, order = self._states, self._order
        for key in list(self._parked):
            group = self._parked[key]
            blocked_at = group.blocked_at_log
            if blocked_at >= log_len:
                continue  # nothing released since the last screen
            rep = states[order[group.members[0]]]
            allowed = rep.allowed_set
            eligible = False
            for sm in set(log[blocked_at:]):
                if sm in allowed and self._sm_eligible(sm, rep):
                    eligible = True
                    break
            if eligible:
                head = heapq.heappop(group.members)
                if not group.members:
                    del self._parked[key]
                self._ud_insert_sorted(head)
            else:
                group.blocked_at_log = log_len

    def _feed_from_group(self, st: _LaunchState) -> None:
        """Offer the next parked member of ``st``'s class to this pass.

        Called when a launch of the class left the queue without proving
        the class blocked (fully dispatched, or the scheduler declined
        placement): the reference core would scan the class's next
        launch in the same pass, so it must re-enter the queue here.
        """
        group = self._parked.get(st.park_key)
        if group is None:
            return
        member = heapq.heappop(group.members)
        if not group.members:
            del self._parked[st.park_key]
        self._ud_insert_sorted(member)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _advance_first_incomplete(self) -> int:
        """Index of the earliest-submitted incomplete launch (monotone)."""
        order, states = self._order, self._states
        i = self._first_incomplete
        n = len(order)
        while i < n and states[order[i]].completion is not None:
            i += 1
        self._first_incomplete = i
        return i

    def _sm_eligible(self, sm: int, st: _LaunchState) -> bool:
        """Capacity + kernel-mixing screen for one SM (O(1))."""
        state = self._sms[sm]
        if not state.fits(st.kernel):
            return False
        if not self._mixing:
            iid = st.launch.instance_id
            others = state.resident_total - state.resident_by_instance.get(iid, 0)
            if others:
                return False
        return True

    def _try_placement(self) -> None:
        """Dispatch thread blocks of arrived launches until no progress."""
        # materialise arrivals that are due at the current time
        heap = self._arrival_heap
        due = self._now + _EPS
        while heap and heap[0][0] <= due:
            self._ud_insert_sorted(heapq.heappop(heap)[1])
        if self._scheduler.strict_fifo:
            self._try_placement_fifo()
        else:
            self._try_placement_concurrent()

    def _try_placement_fifo(self) -> None:
        """Strict-FIFO placement: only the earliest incomplete launch may
        make progress ("no further kernel can be executed in the GPU until
        the second one also finishes")."""
        idx = self._advance_first_incomplete()
        if idx >= len(self._order):
            return
        st = self._states[self._order[idx]]
        if st.arrival is None or st.arrival > self._now + _EPS:
            return
        progressed = True
        while progressed:
            progressed = False
            if not st.all_dispatched:
                if not st.started:
                    if not self._scheduler.may_start(st.launch, self):
                        break
                    self._scheduler.on_kernel_start(st.launch, self)
                    st.started = True
                progressed = self._dispatch_blocks(st)
        if st.all_dispatched and self._ud_next[st.order_index] != -1:
            self._ud_unlink(st.order_index)

    def _try_placement_concurrent(self) -> None:
        """Concurrent placement over all arrived, not-fully-dispatched
        launches, in submission order, repeated until no progress.

        No block completes during placement, so ``len(release_log)`` is
        constant here and a launch (or eligibility class — see
        ``park_key``) screened as capacity-blocked stays blocked for the
        rest of the call; those launches are parked off the queue and the
        pass scan touches only launches that can still make progress.
        """
        log_len = len(self._release_log)
        if self._parked:
            self._unpark_eligible(log_len)
        blocked_keys: Set[Tuple] = set()
        states, order = self._states, self._order
        nxt, prv = self._ud_next, self._ud_prev
        sent = self._ud_sent
        scheduler = self._scheduler
        progressed = True
        while progressed:
            progressed = False
            cur = nxt[sent]
            while cur != sent:
                prev = prv[cur]
                st = states[order[cur]]
                if not st.started:
                    if not scheduler.may_start(st.launch, self):
                        cur = nxt[cur]
                        continue
                    scheduler.on_kernel_start(st.launch, self)
                    st.started = True
                if st.blocked_at_log == log_len:
                    # blocked earlier in this call; park until a release
                    self._park(st, cur, log_len)
                    cur = nxt[prev]
                    continue
                key = st.screen_key
                if key is not None and key in blocked_keys:
                    # an identical (footprint, mask) launch already found
                    # zero eligible SMs this round; capacity only shrank
                    st.blocked_at_log = log_len
                    self._park(st, cur, log_len)
                    cur = nxt[prev]
                    continue
                if self._dispatch_blocks(st):
                    progressed = True
                if st.next_tb >= st.grid_blocks:
                    self._ud_unlink(cur)
                    self._feed_from_group(st)
                    cur = nxt[prev]
                elif st.blocked_at_log == log_len:
                    if key is not None:
                        blocked_keys.add(key)
                    self._park(st, cur, log_len)
                    cur = nxt[prev]
                else:
                    # scheduler declined while capacity remains: parked
                    # classmates must still get their scan this pass
                    self._feed_from_group(st)
                    cur = nxt[cur]

    def _dispatch_blocks(self, st: _LaunchState) -> bool:
        """Place as many blocks of one launch as capacity permits.

        Candidate lists are maintained incrementally: placements only
        *consume* capacity, so within one dispatch round only the chosen
        SM needs re-screening.  A launch whose scan found **zero**
        candidates is blocked until some SM releases a block; the release
        log pins down exactly which SMs could have become eligible since,
        so the retry scan touches only those instead of the full mask.
        """
        log = self._release_log
        if st.blocked_at_log is not None:
            if st.blocked_at_log == len(log):
                return False  # nothing released since the failed scan
            released = set(log[st.blocked_at_log:])
            st.blocked_at_log = None
            candidates = [
                sm for sm in sorted(released & st.allowed_set)
                if self._sm_eligible(sm, st)
            ]
        else:
            candidates = [
                sm for sm in st.allowed if self._sm_eligible(sm, st)
            ]
        if not candidates:
            st.blocked_at_log = len(log)
            return False
        placed_any = False
        candidate_set = set(candidates)
        while st.next_tb < st.grid_blocks:
            sm = self._scheduler.select_sm(st.launch, candidates, self)
            if sm is None:
                break
            if sm not in candidate_set:
                raise SchedulingError(
                    f"scheduler {self._scheduler.name!r} selected SM {sm} "
                    f"outside candidates {candidates} for launch "
                    f"{st.launch.instance_id}"
                )
            self._place_tb(st, sm)
            placed_any = True
            if not self._sm_eligible(sm, st):
                candidates.remove(sm)
                candidate_set.discard(sm)
                if not candidates:
                    if st.next_tb < st.grid_blocks:
                        st.blocked_at_log = len(log)
                    break
        return placed_any

    def _place_tb(self, st: _LaunchState, sm: int) -> None:
        """Make one block of ``st`` resident on ``sm`` (flat-slot alloc)."""
        kernel = st.kernel
        sm_state = self._sms[sm]
        sm_state.take(kernel)
        compute = st.work
        memory = st.memory
        seq = self._seq
        self._seq = seq + 1
        cact = compute > _EPS
        mact = memory > _EPS
        free = self._tb_free
        if free:
            slot = free.pop()
            self._tb_state[slot] = st
            self._tb_index[slot] = st.next_tb
            self._tb_sm[slot] = sm
            self._tb_start[slot] = self._now
            self._tb_cact[slot] = cact
            self._tb_mact[slot] = mact
        else:
            slot = len(self._tb_state)
            self._tb_state.append(st)
            self._tb_index.append(st.next_tb)
            self._tb_sm.append(sm)
            self._tb_start.append(self._now)
            self._tb_cact.append(cact)
            self._tb_mact.append(mact)
        st.next_tb += 1
        st.resident_count += 1
        if st.first_dispatch is None:
            st.first_dispatch = self._now
        iid = st.launch.instance_id
        sm_state.resident_total += 1
        by_instance = sm_state.resident_by_instance
        by_instance[iid] = by_instance.get(iid, 0) + 1
        self._resident_total += 1
        if cact:
            sm_state.compute_active += 1
            heapq.heappush(sm_state.heap, (sm_state.virtual + compute, seq, slot))
        if mact:
            self._mem_active += 1
            heapq.heappush(self._mem_heap, (self._mem_virtual + memory, seq, slot))
        if not cact and not mact:
            # degenerate (sub-epsilon) work in both dimensions: completes
            # at the next event, like any block whose work just drained
            self._zombies.append((seq, slot))

    # ------------------------------------------------------------------
    # fluid timing (virtual clocks)
    # ------------------------------------------------------------------
    def _next_event_time(self) -> Optional[float]:
        """Earliest upcoming event: a work-dimension completion or an
        arrival.  ``None`` when the workload is fully drained.

        O(active SMs + admission-blocked launches): each dimension's next
        completion is its heap top mapped through the current clock rate.
        """
        candidate: Optional[float] = None
        now = self._now

        if self._mem_active:
            mem_rate = self._dram_bw / self._mem_active
            candidate = (
                now + (self._mem_heap[0][0] - self._mem_virtual) / mem_rate
            )
        throughput = self._throughput
        for sm_state in self._sms:
            if sm_state.compute_active:
                share = throughput / sm_state.compute_active
                t = now + (sm_state.heap[0][0] - sm_state.virtual) / share
                if candidate is None or t < candidate:
                    candidate = t

        future_arrival: Optional[float] = None
        if self._arrival_heap:
            # every remaining entry is strictly in the future (due arrivals
            # were materialised by _try_placement at this timestamp)
            future_arrival = self._arrival_heap[0][0]
        states, order, nxt = self._states, self._order, self._ud_next
        sent = self._ud_sent
        cur = nxt[sent]
        while cur != sent:
            st = states[order[cur]]
            if not st.started:
                # arrived but admission-blocked: time-gated policies
                # (e.g. enforced stagger) expose their retry time
                retry = self._scheduler.earliest_start(st.launch, self)
                if retry is not None and retry > now:
                    if future_arrival is None or retry < future_arrival:
                        future_arrival = retry
            cur = nxt[cur]
        if future_arrival is not None:
            if candidate is None or future_arrival < candidate:
                candidate = future_arrival

        if candidate is None and self._incomplete:
            self._diagnose_deadlock()
        return candidate

    def _diagnose_deadlock(self) -> None:
        """Raise a descriptive error when work exists but nothing can run."""
        stuck = [
            f"{st.launch.instance_id}({st.kernel.name}: "
            f"dispatched {st.next_tb}/{st.kernel.grid_blocks}, "
            f"resident {st.resident_count}, arrival {st.arrival})"
            for st in self._states.values()
            if not st.complete
        ]
        raise SimulationError(
            "scheduler deadlock: no resident work, no future arrivals, but "
            "incomplete launches remain: " + "; ".join(sorted(stuck))
        )

    def _advance(self, t_next: float) -> None:
        """Advance the virtual clocks to ``t_next`` and drain every finish
        key within ``_EPS`` — all same-virtual-time completions batch into
        this one event."""
        dt = t_next - self._now
        if dt > 0:
            if self._mem_active:
                self._mem_virtual += (
                    self._dram_bw / self._mem_active
                ) * dt
            throughput = self._throughput
            for sm_state in self._sms:
                if sm_state.compute_active:
                    sm_state.virtual += (
                        throughput / sm_state.compute_active
                    ) * dt
        elif not self._zombies and not self._finish_key_due():
            # no clock moves and nothing would drain: the next completion
            # lies less than one float step of ``now`` ahead (a large
            # virtual clock rounds its last few cycles), so this event
            # would repeat forever.  Move those clocks onto their keys.
            if not self._snap_stalled_clocks():
                raise SimulationError(f"no progress possible at t={t_next}")
        self._now = t_next

        finished = self._zombies
        self._zombies = []
        cact, mact = self._tb_cact, self._tb_mact
        heap = self._mem_heap
        v = self._mem_virtual
        while heap and heap[0][0] - v <= _EPS:
            _, seq, slot = heapq.heappop(heap)
            mact[slot] = False
            self._mem_active -= 1
            if not cact[slot]:
                finished.append((seq, slot))
        for sm_state in self._sms:
            heap = sm_state.heap
            v = sm_state.virtual
            while heap and heap[0][0] - v <= _EPS:
                _, seq, slot = heapq.heappop(heap)
                cact[slot] = False
                sm_state.compute_active -= 1
                if not mact[slot]:
                    finished.append((seq, slot))
        if finished:
            finished.sort()  # (seq, slot): dispatch order
            for _, slot in finished:
                self._complete_tb(slot)

    def _finish_key_due(self) -> bool:
        """True when some heap top lies within ``_EPS`` of its clock."""
        heap = self._mem_heap
        if heap and heap[0][0] - self._mem_virtual <= _EPS:
            return True
        return any(sm_state.heap
                   and sm_state.heap[0][0] - sm_state.virtual <= _EPS
                   for sm_state in self._sms)

    def _snap_stalled_clocks(self) -> bool:
        """Set every virtual clock whose next completion maps to ``now``
        onto that completion's key; True when one moved."""
        now = self._now
        moved = False
        if self._mem_active:
            key = self._mem_heap[0][0]
            rate = self._dram_bw / self._mem_active
            if now + (key - self._mem_virtual) / rate <= now:
                self._mem_virtual = key
                moved = True
        throughput = self._throughput
        for sm_state in self._sms:
            if sm_state.compute_active:
                key = sm_state.heap[0][0]
                share = throughput / sm_state.compute_active
                if now + (key - sm_state.virtual) / share <= now:
                    sm_state.virtual = key
                    moved = True
        return moved

    def _complete_tb(self, slot: int) -> None:
        """Retire one finished block: release resources, log, record."""
        st = self._tb_state[slot]
        assert st is not None
        launch = st.launch
        iid = launch.instance_id
        sm = self._tb_sm[slot]
        sm_state = self._sms[sm]
        sm_state.release(st.kernel)
        sm_state.resident_total -= 1
        remaining = sm_state.resident_by_instance[iid] - 1
        if remaining:
            sm_state.resident_by_instance[iid] = remaining
        else:
            del sm_state.resident_by_instance[iid]
        self._resident_total -= 1
        self._release_log.append(sm)
        st.resident_count -= 1
        st.completed_tbs += 1
        assert self._trace is not None
        self._trace.add_tb(
            TBRecord(
                instance_id=iid,
                logical_id=launch.logical_id or 0,
                copy_id=launch.copy_id,
                tb_index=self._tb_index[slot],
                sm=sm,
                start=self._tb_start[slot],
                end=self._now,
                tag=launch.tag,
            )
        )
        self._tb_state[slot] = None  # drop the reference; recycle the slot
        self._tb_free.append(slot)
        if st.next_tb >= st.grid_blocks and st.resident_count == 0:
            self._complete_launch(st)

    def _complete_launch(self, st: _LaunchState) -> None:
        """Close out a fully-finished launch and wake its dependents."""
        st.completion = self._now
        assert st.first_dispatch is not None and st.arrival is not None
        assert self._trace is not None
        self._trace.add_span(
            KernelSpan(
                instance_id=st.launch.instance_id,
                logical_id=st.launch.logical_id or 0,
                copy_id=st.launch.copy_id,
                kernel_name=st.kernel.name,
                arrival=st.arrival,
                first_dispatch=st.first_dispatch,
                completion=st.completion,
                tag=st.launch.tag,
            )
        )
        self._incomplete -= 1
        self._scheduler.on_kernel_complete(st.launch, self)
        # resolve dependents via the reverse-dependency map (submission
        # order within the map matches the order the old full scan used)
        for iid in self._dependents.get(st.launch.instance_id, ()):
            dep_st = self._states[iid]
            dep_st.remaining_deps.discard(st.launch.instance_id)
            if not dep_st.remaining_deps and dep_st.arrival is None:
                self._assign_arrival(dep_st, ready_at=self._now)

    def _check_all_complete(self) -> None:
        """Raise when the event loop drained with launches unfinished."""
        leftovers = [
            iid for iid, st in self._states.items() if not st.complete
        ]
        if leftovers:
            raise SimulationError(
                f"simulation ended with incomplete launches: {sorted(leftovers)}"
            )


def simulate(gpu: GPUConfig, scheduler: KernelScheduler,
             launches: Sequence[KernelLaunch], *,
             validate: bool = True) -> SimulationResult:
    """Convenience one-shot simulation wrapper.

    Equivalent to ``GPUSimulator(gpu, scheduler, validate=validate)
    .run(launches)``.
    """
    return GPUSimulator(gpu, scheduler, validate=validate).run(launches)
