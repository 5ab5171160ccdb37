"""Telemetry sinks: where emitted events go (or cheaply don't).

Three sinks cover every use:

* :class:`NullSink` — the default.  ``enabled`` is ``False``, so the
  instrumented runners skip event construction entirely; the disabled
  path costs one attribute read per *window* (never per frame or per
  injection), which is what keeps telemetry off the hot loops' perf
  budget (gated at <2% by ``tools/bench_compare.py``).
* :class:`MemorySink` — collects event dicts in a list; used by tests
  and by ``benchmarks/profile_hotspots.py`` to render span trees
  without touching the filesystem.
* :class:`JsonlSink` — append-only JSONL writer with line-buffered
  flushing, mirroring the campaign store's crash semantics: a killed
  writer leaves at most one torn trailing line, which
  :func:`read_telemetry` tolerates (and repairs on the next append).

The reader side lives here too: :func:`read_telemetry` parses a
telemetry file into event dicts with the same torn-line tolerance as
:meth:`repro.campaigns.store.CampaignStore.load_records`, extended to
multi-session files — an invalid line is tolerated when it is the last
line of the file *or* immediately precedes the next session's
``telemetry_start`` header (the writer died, then a resume appended a
fresh session); corruption anywhere else raises
:class:`~repro.errors.ObsError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.canon import canonical_line, read_jsonl, torn_tail
from repro.errors import ObsError

__all__ = [
    "JsonlSink",
    "MemorySink",
    "NULL_SINK",
    "NullSink",
    "TelemetrySink",
    "read_telemetry",
    "scan_telemetry",
]


class TelemetrySink:
    """Interface every sink implements.

    Attributes:
        enabled: ``False`` only on :class:`NullSink`; the runners guard
            all event construction behind it.
    """

    enabled: bool = True

    def emit(self, event: Dict[str, Any]) -> None:
        """Persist one event dict (already schema-shaped)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; idempotent."""


class NullSink(TelemetrySink):
    """The disabled sink: drops everything, flags itself off."""

    enabled = False

    def emit(self, event: Dict[str, Any]) -> None:
        """Drop the event."""


#: Shared disabled sink — the default for uninstrumented runs.
NULL_SINK = NullSink()


class MemorySink(TelemetrySink):
    """Collects events in memory (tests, in-process span rendering).

    Attributes:
        events: every emitted event dict, in emission order.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        """Append the event to :attr:`events`."""
        self.events.append(event)


class JsonlSink(TelemetrySink):
    """Append-only JSONL writer for ``--telemetry PATH``.

    Opens the file in append mode so a resume session lands after the
    interrupted one.  If the existing file does not end with a newline
    (a torn trailing line from a killed writer), one is written first so
    the tear stays confined to its own line — :func:`read_telemetry`
    then skips it as a session-final tear.

    Every event is written as one compact, sorted-key JSON line and
    flushed immediately, so an external tail sees events as they happen
    and a kill loses at most the line being written.

    Raises:
        ObsError: when the path cannot be opened or written.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        try:
            needs_newline = False
            if self._path.is_file() and self._path.stat().st_size > 0:
                with open(self._path, "rb") as probe:
                    probe.seek(-1, 2)
                    needs_newline = probe.read(1) != b"\n"
            self._handle = open(self._path, "a", encoding="utf-8")
            if needs_newline:
                self._handle.write("\n")
                self._handle.flush()
        except OSError as exc:
            raise ObsError(
                f"cannot open telemetry file {str(path)!r}: {exc}"
            )
        self._closed = False

    @property
    def path(self) -> Path:
        """The file this sink appends to."""
        return self._path

    def emit(self, event: Dict[str, Any]) -> None:
        """Write one event line and flush it."""
        if self._closed:
            return
        try:
            self._handle.write(canonical_line(event) + "\n")
            self._handle.flush()
        except OSError as exc:
            raise ObsError(
                f"cannot write telemetry file {str(self._path)!r}: {exc}"
            )

    def close(self) -> None:
        """Flush and close the file; further emits are dropped."""
        if not self._closed:
            self._closed = True
            try:
                self._handle.close()
            except OSError:
                pass


def scan_telemetry(path: Union[str, Path]
                   ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Read a telemetry file, reporting where torn lines were skipped.

    Torn-line tolerance mirrors the campaign store: an unparseable line
    is skipped when the writer can have died there — i.e. it is the last
    content line of the file (``tear: "file"``), or the next content
    line opens a new session (``telemetry_start``), meaning the tear
    ended one session and a resume appended the next
    (``tear: "session"``).  An unparseable line anywhere else is
    mid-session corruption and raises.

    Args:
        path: the telemetry JSONL file.

    Returns:
        ``(events, tears)`` — one event dict per surviving line, plus
        one ``{"line": lineno, "tear": "file" | "session"}`` record per
        skipped torn line.  No schema validation happens here — pass
        the events to :func:`repro.obs.events.validate_events` (or
        ``repro obs validate``).

    Raises:
        ObsError: when the file cannot be read, or a line is corrupt in
            the middle of a session.
    """
    try:
        rows, bad = read_jsonl(path)
    except OSError as exc:
        raise ObsError(f"cannot read telemetry file {str(path)!r}: {exc}")
    tears: List[Dict[str, Any]] = []
    if bad:
        headers = {lineno for lineno, payload in rows
                   if isinstance(payload, dict)
                   and payload.get("type") == "telemetry_start"}
        content = sorted([lineno for lineno, _ in rows] + bad)
        following = dict(zip(content, content[1:]))
        tail = torn_tail(rows, bad)
        for lineno in bad:
            if lineno == tail:
                tears.append({"line": lineno, "tear": "file"})
            elif following[lineno] in headers:
                # the writer died, then a resume appended a new session
                tears.append({"line": lineno, "tear": "session"})
            else:
                raise ObsError(
                    f"{path}:{lineno}: corrupt telemetry line (not valid "
                    "JSON) in the middle of a session"
                )
    events: List[Dict[str, Any]] = []
    for lineno, payload in rows:
        if not isinstance(payload, dict):
            raise ObsError(
                f"{path}:{lineno}: telemetry line is not a JSON object"
            )
        events.append(payload)
    return events, tears


def read_telemetry(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a telemetry file into parsed event dicts, in file order.

    Thin wrapper over :func:`scan_telemetry` that drops the torn-line
    positions; see there for the tolerance rules.

    Args:
        path: the telemetry JSONL file.

    Returns:
        One dict per surviving line.

    Raises:
        ObsError: when the file cannot be read, or a line is corrupt in
            the middle of a session.
    """
    return scan_telemetry(path)[0]
