"""Canonical data: text forms, digests, crash-safe files and the spec codec.

Every provenance key in the repository is a digest of canonical JSON,
and every persisted log is JSONL that a killed writer may leave torn.
This module is the one place both live:

* :func:`canonical_json` — ``json.dumps(sort_keys=True)`` with the
  default separators.  It feeds every spec ``config_hash`` and every
  report ``digest()``; :func:`canonical_line` is the compact
  ``(",", ":")`` form used for JSONL lines and shard-record digests.
  The two forms are pinned byte-for-byte and deliberately distinct.
* :func:`digest16` — the first 16 hex chars of SHA-256, the digest
  width of every provenance key.
* :func:`read_jsonl` / :func:`append_line` / :func:`atomic_write_text`
  — crash-aware file I/O.  :func:`read_jsonl` only *reports* which
  lines failed to parse; each reader applies its own torn-line rule.
* :class:`Codec` / :class:`SpecCodec` — ``to_dict`` / ``from_dict`` /
  ``to_json`` / ``from_json`` derived from a dataclass's type hints
  (plus ``config_hash`` on the top-level specs), so the spec and
  artifact classes declare fields and validation only.
"""

from __future__ import annotations

import hashlib
import json
import os
import types
import typing
from dataclasses import MISSING, fields
from itertools import repeat
from pathlib import Path
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    NamedTuple, Optional, Tuple, Type, TypeVar, Union)

from repro.errors import ConfigurationError

__all__ = [
    "OMIT_IF_NONE",
    "Codec",
    "SpecCodec",
    "append_line",
    "atomic_write_text",
    "canonical_json",
    "canonical_line",
    "digest16",
    "from_attributes",
    "read_jsonl",
    "torn_tail",
]

PathLike = Union[str, Path]
T = TypeVar("T")


# ----------------------------------------------------------------------
# text forms and digests
# ----------------------------------------------------------------------
def canonical_json(payload: Any, *, indent: Optional[int] = None) -> str:
    """Sorted-key JSON with the default separators (hash/digest input)."""
    return json.dumps(payload, sort_keys=True, indent=indent)


def canonical_line(payload: Any) -> str:
    """Compact sorted-key JSON: one JSONL line, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest16(data: Union[str, bytes]) -> str:
    """First 16 hex chars of the SHA-256 of ``data`` (UTF-8 for text)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# ----------------------------------------------------------------------
# crash-aware files
# ----------------------------------------------------------------------
def read_jsonl(path: PathLike) -> Tuple[List[Tuple[int, Any]], List[int]]:
    """Parse a JSONL file, reporting (not judging) unparseable lines.

    Returns:
        ``(rows, bad)`` — ``(lineno, value)`` for every parseable
        non-blank line and the line numbers of the unparseable ones,
        both 1-based and in file order.  Whether a bad line is a
        tolerable tear is the caller's rule.

    Raises:
        OSError: when the file cannot be read.
    """
    rows: List[Tuple[int, Any]] = []
    bad: List[int] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rows.append((lineno, json.loads(line)))
        except json.JSONDecodeError:
            bad.append(lineno)
    return rows, bad


def torn_tail(rows: List[Tuple[int, Any]], bad: List[int]) -> Optional[int]:
    """The unparseable line that is the file's last content line, if any.

    That is where a killed appender tears a log; given
    :func:`read_jsonl` output, returns its line number or ``None``.
    """
    if bad and (not rows or rows[-1][0] < bad[-1]):
        return bad[-1]
    return None


def append_line(path: PathLike, line: str) -> None:
    """Append ``line`` plus a newline, then flush and fsync."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def atomic_write_text(path: PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see old or new, never torn.

    Writes a sibling ``<name>.tmp``, fsyncs it, then ``os.replace``\\ s it
    over ``path``.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


# ----------------------------------------------------------------------
# the dataclass codec
# ----------------------------------------------------------------------
#: Field metadata: leave the key out of ``to_dict`` when the value is
#: ``None`` (keeps legacy JSON forms, and their hashes, unchanged when
#: an optional section was added later).
OMIT_IF_NONE: Mapping[str, bool] = types.MappingProxyType(
    {"canon_omit_if_none": True})

_Convert = Optional[Callable[[Any], Any]]
_UNION_TYPES = (typing.Union, getattr(types, "UnionType", typing.Union))


class _Field(NamedTuple):
    name: str
    encode: _Convert
    decode: _Convert
    omit_if_none: bool
    required: bool
    optional: bool


# class -> (fields, field names): built from the type hints on first use
_PLANS: Dict[type, Tuple[Tuple[_Field, ...], FrozenSet[str]]] = {}


def _converters(tp: Any, owner: str) -> Tuple[_Convert, _Convert]:
    """``(encode, decode)`` for one type hint; ``None`` means identity."""
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in _UNION_TYPES:
        inner = [a for a in args if a is not type(None)]
        if len(inner) != 1:
            raise ConfigurationError(f"{owner}: unsupported union {tp!r}")
        return _converters(inner[0], owner)  # None is handled per field
    if origin is tuple:
        variadic = len(args) == 2 and args[1] is Ellipsis
        convs = [_converters(a, owner) for a in args[:1 if variadic else None]]

        def pairs(value: Any) -> Iterator[Tuple[Tuple[_Convert, _Convert], Any]]:
            if not isinstance(value, (list, tuple)) or not (
                    variadic or len(value) == len(convs)):
                size = "" if variadic else f"{len(convs)} "
                raise ConfigurationError(
                    f"{owner} expects a list of {size}items, got {value!r}")
            return zip(repeat(convs[0]) if variadic else convs, value)

        return (
            lambda v: [x if e is None else e(x) for (e, _), x in pairs(v)],
            lambda v: tuple(x if d is None else d(x) for (_, d), x in pairs(v)),
        )
    if isinstance(tp, type) and issubclass(tp, Codec):
        return (lambda v: v.to_dict()), tp.from_dict
    if tp in (int, float, str, bool, Any):
        return None, None
    raise ConfigurationError(f"{owner}: unsupported field type {tp!r}")


def _plan(cls: type) -> Tuple[Tuple[_Field, ...], FrozenSet[str]]:
    """The cached ``(fields, names)`` codec plan of dataclass ``cls``."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        entries = tuple(
            _Field(f.name,
                   *_converters(hints[f.name], f"{cls.__name__} {f.name}"),
                   omit_if_none=bool(f.metadata.get("canon_omit_if_none")),
                   required=(f.default is MISSING
                             and f.default_factory is MISSING),
                   optional=type(None) in typing.get_args(hints[f.name]))
            for f in fields(cls) if f.init
        )
        plan = _PLANS[cls] = (entries, frozenset(e.name for e in entries))
    return plan


class Codec:
    """Dict/JSON codec for a frozen dataclass, derived from its type hints.

    Rules: a nested :class:`Codec` dataclass becomes a dict, a
    ``Tuple[...]`` a list; primitives pass through unconverted (the
    dataclass's ``__post_init__`` validates them).  On input, ``None``
    for a non-``Optional`` field with a default selects the default; an
    unknown key, a non-mapping input or a missing required field raises
    :class:`~repro.errors.ConfigurationError`.  Fields carrying
    :data:`OMIT_IF_NONE` metadata are left out of ``to_dict`` while
    ``None``.
    """

    __slots__ = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (nested dicts/lists, JSON-compatible)."""
        out: Dict[str, Any] = {}
        for name, encode, _, omit_if_none, _, _ in _plan(type(self))[0]:
            value = getattr(self, name)
            if value is None:
                if omit_if_none:
                    continue
            elif encode is not None:
                value = encode(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Inverse of :meth:`to_dict`; raises on malformed input.

        Raises:
            ConfigurationError: for a non-mapping, an unknown key or a
                missing required field.
        """
        plan, names = _plan(cls)
        name = cls.__name__
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"{name} expects a mapping, got {data!r}")
        unknown = sorted(set(data) - names)
        if unknown:
            raise ConfigurationError(
                f"{name}: unknown field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(names))}"
            )
        kwargs: Dict[str, Any] = {}
        for f in plan:
            if f.name not in data:
                if f.required:
                    raise ConfigurationError(f"{name} requires a {f.name}")
                continue
            value = data[f.name]
            if value is None:
                if f.optional:
                    kwargs[f.name] = None
                    continue
                if not f.required:
                    continue  # None on a defaulted plain field: the default
            if f.decode is not None:
                value = f.decode(value)
            kwargs[f.name] = value
        return cls(**kwargs)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Canonical JSON form (sorted keys, round-trips exactly)."""
        return canonical_json(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Parse an instance from its JSON form.

        Raises:
            ConfigurationError: for invalid JSON or a malformed payload.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"invalid {cls.__name__} JSON: {exc}"
            ) from None
        return cls.from_dict(data)


def from_attributes(cls: Type[T], source: Any, **overrides: Any) -> T:
    """Build dataclass ``cls`` from ``source``'s same-named attributes.

    Fields named in ``overrides`` take those values instead (and are not
    read from ``source``).
    """
    values = {f.name: getattr(source, f.name) for f in fields(cls)
              if f.name not in overrides}
    return cls(**values, **overrides)


class SpecCodec(Codec):
    """:class:`Codec` plus ``config_hash``, for the top-level specs.

    ``config_hash`` identifies a run, campaign, stream or platform in
    artifacts and stores.  It is not on :class:`Codec` because
    ``RunArtifact`` has a ``config_hash`` *field* of its own.
    """

    __slots__ = ()

    @property
    def config_hash(self) -> str:
        """Hex digest of the canonical JSON form (provenance key)."""
        return digest16(self.to_json())
