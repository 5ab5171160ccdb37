"""Telemetry exporters: Chrome traces, flamegraph stacks, metric CSV.

``repro obs export`` turns a ``repro-telemetry/v1`` stream into the
three interchange formats the wider tooling ecosystem already speaks:

* :func:`to_chrome_trace` — Trace Event JSON (``--chrome``) loadable
  by ``chrome://tracing`` and Perfetto.  Each telemetry session
  becomes one process; the orchestrator is thread 0 and every merged
  worker sidecar (:mod:`repro.obs.worker`) gets its own named thread,
  so pooled shard/device timelines render side by side;
* :func:`to_folded` — collapsed stacks (``--folded``), one
  ``path;to;span <self-µs>`` line per span path, the input format of
  ``flamegraph.pl`` and speedscope;
* :func:`heartbeat_csv` — the heartbeat metric series (``--csv``) with
  one column per counter/gauge, for spreadsheets and pandas.

All three are pure functions of the parsed event list — no clock, no
filesystem — and timestamps stay session-relative monotonic
milliseconds, so exports leak no absolute wall-clock time.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, List, Tuple

from repro.canon import canonical_json
from repro.obs.report import _fold_tree, build_spans

__all__ = [
    "heartbeat_csv",
    "render_chrome_trace",
    "to_chrome_trace",
    "to_folded",
]


def _event_ts_us(event: Dict[str, Any]) -> int:
    """Trace-event timestamp in µs (worker-local epoch when merged)."""
    data = event.get("data", {})
    t_ms = data.get("worker_t_ms")
    if not isinstance(t_ms, (int, float)) or isinstance(t_ms, bool):
        t_ms = event.get("t_ms", 0.0)
    if not isinstance(t_ms, (int, float)) or isinstance(t_ms, bool):
        t_ms = 0.0
    return int(round(float(t_ms) * 1000.0))


def to_chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert parsed telemetry into a Trace Event JSON payload.

    Spans become ``B``/``E`` duration events (a span the writer died
    inside stays an unmatched ``B``, which the viewers render as
    running to the end); heartbeat counters become ``C`` counter
    tracks.  Timestamps are microseconds since each emitter's session
    epoch — merged worker events keep their worker-local clock, so a
    worker's spans are internally consistent.

    Args:
        events: parsed events in file order
            (:func:`repro.obs.sink.read_telemetry`).

    Returns:
        The ``{"traceEvents": [...]}`` dict, ready for ``json.dump``.
    """
    trace: List[Dict[str, Any]] = []
    pid = 0
    threads: Dict[Tuple[int, str], int] = {}

    def thread_id(worker: str) -> int:
        key = (pid, worker)
        tid = threads.get(key)
        if tid is None:
            tid = len([k for k in threads if k[0] == pid])
            threads[key] = tid
            trace.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": worker or "orchestrator"},
            })
        return tid

    for event in events:
        etype = event.get("type")
        data = event.get("data", {})
        if etype == "telemetry_start":
            pid += 1
            trace.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"session {pid}"},
            })
            thread_id("")
            continue
        if pid == 0:
            pid = 1  # headerless stream fragment: synthesize a session
        worker = data.get("worker")
        tid = thread_id(worker if isinstance(worker, str) else "")
        ts = _event_ts_us(event)
        if etype == "span_start":
            args = {k: v for k, v in data.items()
                    if k not in ("span", "parent", "name")}
            trace.append({
                "ph": "B", "name": str(data.get("name", "?")),
                "pid": pid, "tid": tid, "ts": ts, "args": args,
            })
        elif etype == "span_end":
            trace.append({
                "ph": "E", "name": str(data.get("name", "?")),
                "pid": pid, "tid": tid, "ts": ts,
            })
        elif etype == "heartbeat":
            counters = data.get("metrics", {}).get("counters", {})
            if isinstance(counters, dict) and counters:
                trace.append({
                    "ph": "C", "name": "counters", "pid": pid, "tid": tid,
                    "ts": ts,
                    "args": {str(k): counters[k] for k in sorted(counters)},
                })
    return {"traceEvents": trace}


def render_chrome_trace(events: List[Dict[str, Any]]) -> str:
    """The :func:`to_chrome_trace` payload as a JSON string."""
    return canonical_json(to_chrome_trace(events))


def to_folded(events: List[Dict[str, Any]]) -> str:
    """Collapsed-stack (flamegraph) rendering of the span forest.

    One line per span path in first-open order:
    ``root;child;leaf <self-time-µs>``.  Self time is a path's total
    duration minus its closed children's totals, clamped at zero, so
    the folded weights sum to the closed spans' wall time exactly as
    ``flamegraph.pl`` expects.

    Args:
        events: parsed events in file order.

    Returns:
        The folded-stack text (trailing newline included when any
        span closed; empty string otherwise).
    """
    rows = _fold_tree(build_spans(events))
    totals = {path: total for path, _, total, _, _ in rows}
    lines: List[str] = []
    for path, count, total, _, _ in rows:
        if count == 0:
            continue  # never closed: no measured time to attribute
        child_ms = sum(t for p, t in totals.items()
                       if len(p) == len(path) + 1 and p[:-1] == path)
        self_us = int(round(max(0.0, total - child_ms) * 1000.0))
        lines.append(f"{';'.join(path)} {self_us}")
    return "".join(line + "\n" for line in lines)


def heartbeat_csv(events: List[Dict[str, Any]]) -> str:
    """The heartbeat metric series as CSV text.

    Fixed columns ``session,seq,t_ms,label,done,total`` are followed by
    one ``counter.<name>`` column per counter and one ``gauge.<name>``
    per gauge (sorted union over the whole stream; beats missing a
    metric leave the cell empty).

    Args:
        events: parsed events in file order.

    Returns:
        CSV text with a header row; header-only when the stream
        carries no heartbeats.
    """
    beats: List[Tuple[int, Dict[str, Any]]] = []
    counters: List[str] = []
    gauges: List[str] = []
    session = 0
    for event in events:
        etype = event.get("type")
        if etype == "telemetry_start":
            session += 1
        elif etype == "heartbeat":
            beats.append((max(session, 1), event))
            metrics = event.get("data", {}).get("metrics", {})
            for name in metrics.get("counters", {}):
                if name not in counters:
                    counters.append(name)
            for name in metrics.get("gauges", {}):
                if name not in gauges:
                    gauges.append(name)
    counters.sort()
    gauges.sort()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["session", "seq", "t_ms", "label", "done", "total"]
        + [f"counter.{name}" for name in counters]
        + [f"gauge.{name}" for name in gauges]
    )
    for session_index, event in beats:
        data = event.get("data", {})
        metrics = data.get("metrics", {})
        row: List[Any] = [
            session_index, event.get("seq"), event.get("t_ms"),
            data.get("label", ""), data.get("done", ""),
            data.get("total", ""),
        ]
        row.extend(metrics.get("counters", {}).get(name, "")
                   for name in counters)
        row.extend(metrics.get("gauges", {}).get(name, "")
                   for name in gauges)
        writer.writerow(row)
    return out.getvalue()
