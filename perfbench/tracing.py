"""Layer tracing for the benchmark's traced run.

The traced run wraps public functions of the program at the name each
caller resolves (a module global or a class attribute) and records, in
memory, one aggregate per span path: calls, total and self nanoseconds.
A layer's self time is its span's duration minus the time its traced
children took.  Nothing is added inside ``src/``; the wrappers are
installed for the traced phase only and removed afterwards.

``campaign-store`` runs its shards on a forked process pool.  The pool
workers inherit the wrappers; each worker starts a fresh aggregate after
the fork and writes it to a file when it exits, and the orchestrating
process folds those files into the op that started the pool.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from functools import wraps
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = (
    "gpu.simulator.run.events",
    "faults.apply_fault.corrupted_blocks",
    "campaigns.store.append.calls",
    "campaigns.store.append.bytes",
    "streams.substream.calls",
    "streams.fault_overlay.injected",
)

#: Injections whose corruption map is not empty (for
#: ``faults.nonmasked_frac``); exact as well, but not reported itself.
NONMASKED = "faults.apply_fault.nonmasked"

#: Every traced layer span, in report order.
LAYERS = (
    "faults.fault_at",
    "faults.apply_fault",
    "faults.classify",
    "campaigns.store.append",
    "campaigns.store.load_records",
    "campaigns.fold_report",
    "campaigns.baseline_campaign",
    "campaigns.pool",
    "streams.resolve_jobs",
    "streams.substream",
    "streams.iter_arrivals",
    "streams.accumulator.observe",
    "streams.fault_overlay",
    "streams.run_stream",
    "gpu.simulator.run",
    "gpu.baseline_makespan",
    "redundancy.compare",
    "redundancy.diversity",
    "api.engine.run",
    "api.spec.resolve",
)

#: Root span the harness opens around every op.
OP = "op"

Path_ = Tuple[str, ...]


class Tracer:
    """In-memory span aggregator shared by every installed wrapper."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.active = False
        self.spans: Dict[Path_, List[int]] = {}   # path -> [calls, total, self]
        self.counts: Dict[str, int] = dict.fromkeys(EXACT_COUNTS + (NONMASKED,),
                                                    0)
        self._stack: List[List[Any]] = []         # [path, child ns]
        mp_util.register_after_fork(self, Tracer._enter_pool_worker)

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` recorded as span ``name``; ``count(args, result)`` runs
        after the span closes, so counting is not timed."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [parent[0] + (name,) if parent else (name,), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                row = spans.get(frame[0])
                if row is None:
                    spans[frame[0]] = [1, dur, dur - frame[1]]
                else:
                    row[0] += 1
                    row[1] += dur
                    row[2] += dur - frame[1]
            if count is not None:
                count(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is span ``name``."""
        @wraps(fn)
        def traced(*args, **kwargs):
            step = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    value = step()
                except StopIteration:
                    return
                yield value

        return traced

    def reset(self) -> None:
        """Start a fresh aggregate (the stack is left alone)."""
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the current aggregate."""
        return {
            "spans": {path: list(row) for path, row in self.spans.items()},
            "counts": dict(self.counts),
        }

    # -- pool workers ----------------------------------------------------
    def _enter_pool_worker(self) -> None:
        if not self.active:
            return
        self._stack.clear()
        self.reset()
        mp_util.Finalize(None, self._write_worker_file, exitpriority=10)

    def _write_worker_file(self) -> None:
        data = self.snapshot()
        data["spans"] = [[list(p), *row] for p, row in data["spans"].items()]
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(data), encoding="utf-8")

    def collect_workers(self) -> Dict[Path_, List[int]]:
        """Fold and delete the aggregates of pool workers that exited.

        Worker counts join the orchestrator's counts; worker spans are
        returned separately, because they ran beside the op, not in it.
        """
        spans: Dict[Path_, List[int]] = {}
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for key, value in data["counts"].items():
                self.counts[key] += value
            add_rows(spans, {tuple(p): row for p, *row in data["spans"]})
        return spans

    # -- op roots --------------------------------------------------------
    def run_op(self, fn: Callable[[], Any]) -> Any:
        """Run one op under the root span :data:`OP`."""
        return self.wrap(OP, fn)()


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _targets(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """(owner, attribute, replacement) for every traced call site."""
    import repro.api.engine as engine_mod
    import repro.faults.campaign as faults_campaign
    import repro.redundancy.manager as manager_mod
    import repro.streams.arrivals as arrivals_mod
    from repro.api.engine import Engine
    from repro.api.spec import WorkloadSpec
    from repro.campaigns import runner as campaigns_runner
    from repro.campaigns.store import CampaignStore
    from repro.faults.campaign import FaultCampaign
    from repro.gpu.simulator import GPUSimulator
    from repro.redundancy.manager import RedundantKernelManager
    from repro.streams import runner as streams_runner
    from repro.streams.analytics import StreamAccumulator

    counts = tracer.counts

    def add(key: str, value: int) -> None:
        counts[key] += value

    def count_corruption(args, corruption) -> None:
        add("faults.apply_fault.corrupted_blocks", len(corruption))
        add(NONMASKED, 1 if corruption else 0)

    def count_append(args, _result) -> None:
        store, record = args
        add("campaigns.store.append.calls", 1)
        add("campaigns.store.append.bytes",
            len((record.to_line() + "\n").encode("utf-8")))

    def substream_factory(original: Callable) -> Callable:
        @wraps(original)
        def factory(*args, **kwargs):
            return tracer.wrap("streams.substream", original(*args, **kwargs),
                               lambda a, r: add("streams.substream.calls", 1))
        return factory

    def span(name, owner, attr, count=None):
        return (owner, attr, tracer.wrap(name, vars(owner)[attr], count))

    # the campaign runner's process pool: dispatch (forks on first
    # submit), waiting for shard results, and shutdown
    pool_cls = vars(campaigns_runner)["ProcessPoolExecutor"]
    traced_pool = type("ProcessPoolExecutor", (pool_cls,), {
        "submit": tracer.wrap("campaigns.pool", pool_cls.submit),
        "shutdown": tracer.wrap("campaigns.pool", pool_cls.shutdown),
    })

    return [
        span("faults.fault_at", FaultCampaign, "fault_at"),
        span("faults.apply_fault", faults_campaign, "apply_fault",
             count_corruption),
        span("faults.classify", FaultCampaign, "classify"),
        span("campaigns.store.append", CampaignStore, "append", count_append),
        span("campaigns.store.load_records", CampaignStore, "load_records"),
        span("campaigns.fold_report", campaigns_runner, "fold_report"),
        span("campaigns.baseline_campaign", campaigns_runner,
             "baseline_campaign"),
        (campaigns_runner, "ProcessPoolExecutor", traced_pool),
        (campaigns_runner, "as_completed", tracer.wrap_generator(
            "campaigns.pool", vars(campaigns_runner)["as_completed"])),
        span("streams.resolve_jobs", streams_runner, "resolve_jobs"),
        (streams_runner, "iter_arrivals", tracer.wrap_generator(
            "streams.iter_arrivals", vars(streams_runner)["iter_arrivals"])),
        (streams_runner, "substream_factory",
         substream_factory(vars(streams_runner)["substream_factory"])),
        (arrivals_mod, "substream_factory",
         substream_factory(vars(arrivals_mod)["substream_factory"])),
        span("streams.accumulator.observe", StreamAccumulator, "observe"),
        span("streams.fault_overlay", FaultCampaign, "random_fault",
             lambda a, r: add("streams.fault_overlay.injected", 1)),
        span("streams.run_stream", streams_runner, "run_stream"),
        span("gpu.simulator.run", GPUSimulator, "run",
             lambda a, r: add("gpu.simulator.run.events", r.events)),
        span("gpu.baseline_makespan", RedundantKernelManager,
             "baseline_makespan"),
        span("redundancy.compare", faults_campaign, "build_signature"),
        span("redundancy.compare", faults_campaign, "compare_signatures"),
        span("redundancy.compare", manager_mod, "build_signature"),
        span("redundancy.compare", manager_mod, "compare_signatures"),
        span("redundancy.diversity", manager_mod, "analyze_diversity"),
        span("redundancy.diversity", engine_mod, "analyze_diversity"),
        span("api.engine.run", Engine, "run"),
        span("api.spec.resolve", WorkloadSpec, "resolve"),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """The wrappers are in place inside the block, and only there."""
    saved = [(owner, attr, vars(owner)[attr], replacement)
             for owner, attr, replacement in _targets(tracer)]
    for owner, attr, _, replacement in saved:
        setattr(owner, attr, replacement)
    tracer.active = True
    try:
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, original, _ in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def add_rows(into: Dict[Any, List[int]], rows: Dict[Any, List[int]]) -> None:
    """Add ``[calls, total ns, self ns]`` rows into ``into``, by key."""
    for key, row in rows.items():
        acc = into.setdefault(key, [0, 0, 0])
        for i in range(3):
            acc[i] += row[i]


def round_time_ns(op_spans: Dict[Path_, List[int]],
                  worker_spans: Dict[Path_, List[int]]) -> Tuple[int, int]:
    """(traced ns, unattributed ns) of one round.

    Traced time is the ops' duration in the orchestrating process plus
    the time pool workers spent inside traced layers.  Unattributed time
    is the part of the ops covered by no layer span.
    """
    op_row = op_spans.get((OP,), [0, 0, 0])
    worker_roots = sum(row[1] for path, row in worker_spans.items()
                       if len(path) == 1)
    return op_row[1] + worker_roots, op_row[2]


def layer_metrics(rounds: List[Dict[str, Any]]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics over the traced rounds (name -> (value, unit))."""
    spans: Dict[Path_, List[int]] = {}
    traced_ns = unattributed_ns = items = nonmasked = 0
    for rnd in rounds:
        t, u = round_time_ns(rnd["spans"], rnd["worker_spans"])
        traced_ns += t
        unattributed_ns += u
        items += rnd["items"]
        nonmasked += rnd["counts"][NONMASKED]
        add_rows(spans, rnd["spans"])
        add_rows(spans, rnd["worker_spans"])
    table: Dict[str, List[int]] = {}
    for path, row in spans.items():
        add_rows(table, {path[-1]: row})
    injections = table.get("faults.apply_fault", [0, 0, 0])[0]
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        calls, total, self_ns = table.get(layer, [0, 0, 0])
        out[f"{layer}.self_us_per_item"] = (self_ns / 1e3 / items, "us")
        out[f"{layer}.share"] = (self_ns / traced_ns if traced_ns else 0.0,
                                 "ratio")
    last = rounds[-1]["counts"]
    for key in EXACT_COUNTS:
        out[key] = (last[key], "count")
    sim = table.get("gpu.simulator.run", [0, 0, 0])
    events = sum(r["counts"]["gpu.simulator.run.events"] for r in rounds)
    out["gpu.simulator.run.us_per_event"] = (
        sim[1] / 1e3 / events if events else 0.0, "us")
    out["faults.nonmasked_frac"] = (
        nonmasked / injections if injections else 0.0, "ratio")
    out["trace.unattributed_frac"] = (
        unattributed_ns / traced_ns if traced_ns else 0.0, "ratio")
    return out


# ----------------------------------------------------------------------
# telemetry log
# ----------------------------------------------------------------------
def write_telemetry(path: Path, workload: str, seed: int,
                    rounds: List[Dict[str, Any]]) -> None:
    """Write the traced rounds as a ``repro-telemetry/v1`` log.

    Each round becomes one span tree: the ``op`` root (all ops of the
    round) with one child per layer path, its duration the path's total
    and its ``calls`` the number of calls it aggregates; pool-worker
    layers follow as roots tagged ``worker="pool"``.  ``worker_t_ms``
    lays the aggregates end to end inside their round, so the Chrome
    export shows widths that are measured totals (start positions are a
    layout, not real start times).  The exact counts of the last round
    go into one heartbeat, which ``repro obs diff`` compares as counters.
    """
    from repro.obs import Telemetry

    tm = Telemetry.create(path=path)
    next_id = [0]

    def emit_tree(table: Dict[Path_, List[int]], root: Path_,
                  parent: Optional[int], start_ms: float,
                  extra: Dict[str, Any]) -> float:
        calls, total, _ = table[root]
        span_id = next_id[0]
        next_id[0] += 1
        dur_ms = total / 1e6
        tm.emit("span_start", span=span_id, parent=parent, name=root[-1],
                calls=calls, worker_t_ms=round(start_ms, 6), **extra)
        child_start = start_ms
        for path in table:
            if len(path) == len(root) + 1 and path[:-1] == root:
                child_start += emit_tree(table, path, span_id, child_start,
                                         extra)
        tm.emit("span_end", span=span_id, name=root[-1], dur_ms=dur_ms,
                worker_t_ms=round(start_ms + dur_ms, 6), **extra)
        return dur_ms

    tm.emit("run_start", kind="perfbench", label=workload, seed=seed,
            rounds=len(rounds))
    for rnd in rounds:
        for key in ("spans", "worker_spans"):
            table = rnd[key]
            start = rnd["start_ms"]
            extra = {"worker": "pool"} if key == "worker_spans" else {}
            for path in list(table):
                if len(path) == 1:
                    start += emit_tree(table, path, None, start, extra)
    for key, value in sorted(rounds[-1]["counts"].items()):
        tm.metrics.add(key, value)
    tm.beat("perfbench", len(rounds), len(rounds), force=True)
    tm.emit("run_end", kind="perfbench", digest=rounds[-1]["digest"])
    tm.close()
