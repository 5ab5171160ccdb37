"""The telemetry archive: a digest-indexed multi-run history.

One ``--telemetry`` file describes one run; comparing runs needs a
place where many runs accumulate.  :class:`ObsStore` keeps that history
in a ``.repro-obs/`` directory:

* ``manifest.jsonl`` — one append-only index line per archived run
  (schema :data:`OBS_STORE_SCHEMA`), keyed by the run's content digest
  and carrying the spec hashes, run kinds, labels, session count and
  report digests extracted from the stream, so runs are queryable
  without re-parsing every file;
* ``runs/<run_id>.jsonl`` — the archived telemetry stream, stored
  verbatim (byte-for-byte) under its content digest.

The run id *is* the sha256 digest of the file bytes (first 16 hex
chars), so archiving is idempotent — re-archiving identical telemetry
is a no-op — and :meth:`ObsStore.load_events` can verify an archived
file was never tampered with.  Nothing here reads a clock: manifest
entries carry no timestamps, and ``gc`` ages runs out by archive
*order*, keeping the archive itself inside the determinism contract.

CLI surface: ``repro obs archive|list|gc`` (and ``repro obs diff`` /
``repro obs export`` accept archived run ids wherever they accept
file paths).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro import canon
from repro.errors import ObsError
from repro.obs.events import check_events
from repro.obs.sink import read_telemetry

__all__ = ["DEFAULT_OBS_DIR", "OBS_STORE_SCHEMA", "ObsStore"]

#: Schema tag carried by every manifest entry.
OBS_STORE_SCHEMA = "repro-obs-store/v1"

#: Default archive directory (the ``--dir`` default of the obs CLI).
DEFAULT_OBS_DIR = ".repro-obs"


def _index_fields(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Extract the queryable index fields from a parsed event stream."""
    kinds: List[str] = []
    spec_hashes: List[str] = []
    labels: List[str] = []
    digests: List[str] = []
    sessions = 0
    spans = 0
    for event in events:
        etype = event.get("type")
        data = event.get("data", {})
        if etype == "telemetry_start":
            sessions += 1
        elif etype == "span_start":
            spans += 1
        elif etype == "run_start":
            kind = data.get("kind")
            if isinstance(kind, str) and kind not in kinds:
                kinds.append(kind)
            spec_hash = data.get("spec_hash")
            if isinstance(spec_hash, str) and spec_hash not in spec_hashes:
                spec_hashes.append(spec_hash)
            label = data.get("label")
            if isinstance(label, str) and label not in labels:
                labels.append(label)
        elif etype == "run_end":
            digest = data.get("digest")
            if isinstance(digest, str):
                digests.append(digest)
    return {
        "sessions": sessions,
        "events": len(events),
        "spans": spans,
        "kinds": sorted(kinds),
        "spec_hashes": sorted(spec_hashes),
        "labels": sorted(labels),
        "digests": digests,
    }


class ObsStore:
    """A ``.repro-obs/`` telemetry archive (manifest + verbatim runs).

    Args:
        root: the archive directory; created lazily on first
            :meth:`archive`.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_OBS_DIR) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        """The archive directory."""
        return self._root

    @property
    def manifest_path(self) -> Path:
        """The append-only index file."""
        return self._root / "manifest.jsonl"

    @property
    def runs_dir(self) -> Path:
        """The directory holding the archived streams."""
        return self._root / "runs"

    def run_path(self, run_id: str) -> Path:
        """The archived stream file for ``run_id``."""
        return self.runs_dir / f"{run_id}.jsonl"

    # ------------------------------------------------------------------
    def archive(self, path: Union[str, Path], *,
                tag: str = "") -> Dict[str, Any]:
        """Archive one telemetry file; return its manifest entry.

        The file is parsed (torn-tolerant) and schema-checked before
        anything is written, so the archive never accumulates garbage.
        Archiving byte-identical telemetry again is a no-op returning
        the existing entry (the original ``tag`` wins).

        Args:
            path: the telemetry JSONL file to archive.
            tag: free-form label stored in the manifest entry
                (e.g. ``"ci-py3.12"``).

        Raises:
            ObsError: when the file is unreadable, schema-invalid, or
                the archive cannot be written.
        """
        source = Path(path)
        try:
            raw = source.read_bytes()
        except OSError as exc:
            raise ObsError(
                f"cannot read telemetry file {str(path)!r}: {exc}"
            )
        events = read_telemetry(source)
        check_events(events)
        run_id = canon.digest16(raw)
        existing = {entry["run_id"]: entry for entry in self.entries()}
        if run_id in existing:
            return existing[run_id]
        entry: Dict[str, Any] = {
            "schema": OBS_STORE_SCHEMA,
            "run_id": run_id,
            "tag": tag,
            "source": source.name,
            "size_bytes": len(raw),
        }
        entry.update(_index_fields(events))
        try:
            self.runs_dir.mkdir(parents=True, exist_ok=True)
            self.run_path(run_id).write_bytes(raw)
            canon.append_line(self.manifest_path,
                              canon.canonical_line(entry))
        except OSError as exc:
            raise ObsError(
                f"cannot write telemetry archive {str(self._root)!r}: {exc}"
            )
        return entry

    def entries(self) -> List[Dict[str, Any]]:
        """Every manifest entry, in archive order (oldest first).

        A torn trailing manifest line (killed writer) is tolerated;
        corruption anywhere else raises.

        Raises:
            ObsError: for mid-manifest corruption or a schema mismatch.
        """
        try:
            rows, bad = canon.read_jsonl(self.manifest_path)
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise ObsError(
                f"cannot read archive manifest "
                f"{str(self.manifest_path)!r}: {exc}"
            )
        tolerated = canon.torn_tail(rows, bad)  # a killed archive's tear
        for lineno in bad:
            if lineno != tolerated:
                raise ObsError(
                    f"{self.manifest_path}: corrupt manifest line {lineno}"
                )
        entries: List[Dict[str, Any]] = []
        seen = set()
        for lineno, entry in rows:
            if (not isinstance(entry, dict)
                    or entry.get("schema") != OBS_STORE_SCHEMA
                    or not isinstance(entry.get("run_id"), str)):
                raise ObsError(
                    f"{self.manifest_path}: manifest line {lineno} "
                    f"is not a {OBS_STORE_SCHEMA} entry"
                )
            if entry["run_id"] not in seen:
                seen.add(entry["run_id"])
                entries.append(entry)
        return entries

    def resolve(self, ref: str) -> Dict[str, Any]:
        """The manifest entry matching ``ref``.

        A non-empty ``ref`` matches by exact tag first (tags are what
        ``obs list`` shows most prominently), then by run-id prefix.

        Args:
            ref: an archived run's tag, full run id, or an unambiguous
                run-id prefix.

        Raises:
            ObsError: when no archived run matches, or several do.
        """
        entries = self.entries()
        matches = ([entry for entry in entries
                    if ref and entry.get("tag") == ref]
                   or [entry for entry in entries
                       if entry["run_id"].startswith(ref)])
        if not matches:
            raise ObsError(
                f"no archived run matches {ref!r} in {str(self._root)!r} "
                "(see 'repro obs list')"
            )
        if len(matches) > 1:
            ids = ", ".join(entry["run_id"] for entry in matches)
            raise ObsError(f"reference {ref!r} is ambiguous: {ids}")
        return matches[0]

    def load_events(self, ref: str) -> List[Dict[str, Any]]:
        """Parsed events of the archived run matching ``ref``.

        The stored bytes are re-hashed against the run id, so silent
        on-disk corruption of an archived stream is detected.

        Raises:
            ObsError: unknown/ambiguous ref, missing or tampered file.
        """
        entry = self.resolve(ref)
        path = self.run_path(entry["run_id"])
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ObsError(
                f"archived run {entry['run_id']} has no stream file: {exc}"
            )
        if canon.digest16(raw) != entry["run_id"]:
            raise ObsError(
                f"archived run {entry['run_id']} does not match its "
                f"content digest ({str(path)!r} was modified)"
            )
        return read_telemetry(path)

    # ------------------------------------------------------------------
    def gc(self, *, keep: int) -> List[Dict[str, Any]]:
        """Age out old runs; return the removed manifest entries.

        Runs are grouped by their index key — ``(kinds, spec_hashes)``
        — and the **last** ``keep`` entries of each group (in archive
        order) survive, so the archive retains recent history per
        workload without growing unboundedly.  The manifest is
        rewritten atomically; dropped and orphaned stream files are
        deleted.

        Args:
            keep: runs to keep per ``(kinds, spec_hashes)`` group
                (must be >= 1).

        Raises:
            ObsError: for ``keep < 1`` or unwritable archive files.
        """
        if keep < 1:
            raise ObsError(f"gc keep must be >= 1, got {keep}")
        entries = self.entries()
        groups: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]],
                     List[str]] = {}
        for entry in entries:
            key = (tuple(entry.get("kinds", [])),
                   tuple(entry.get("spec_hashes", [])))
            groups.setdefault(key, []).append(entry["run_id"])
        survivors = set()
        for run_ids in groups.values():
            survivors.update(run_ids[-keep:])
        kept = [entry for entry in entries if entry["run_id"] in survivors]
        removed = [entry for entry in entries
                   if entry["run_id"] not in survivors]
        try:
            if entries:
                canon.atomic_write_text(
                    self.manifest_path,
                    "".join(canon.canonical_line(e) + "\n" for e in kept),
                )
            if self.runs_dir.is_dir():
                for path in sorted(self.runs_dir.glob("*.jsonl")):
                    if path.stem not in survivors:
                        path.unlink()
        except OSError as exc:
            raise ObsError(
                f"cannot rewrite telemetry archive "
                f"{str(self._root)!r}: {exc}"
            )
        return removed
