"""Per-rule path scoping for :mod:`repro.lint`.

Most rules guard the whole tree, but some only make sense on the
digest-affecting modules (set-iteration folds are harmless in a CLI
helper, fatal in a report canonicaliser).  :class:`LintConfig` maps each
rule ID to include/exclude glob patterns; :func:`parse_config` reads the
same mapping from a deliberately small TOML subset so the repository can
pin its scoping in ``repro-lint.toml`` without a TOML dependency
(``tomllib`` only exists on Python 3.11+ and this tree supports 3.9).

The accepted subset — everything the shipped config needs, nothing more::

    # comment
    [rule.RL003]
    include = ["*/report.py", "*/faults/campaign.py"]
    exclude = ["*/conftest.py"]

Section headers are ``[rule.RLnnn]``; values are double-quoted strings
or single-line arrays of double-quoted strings.  Anything else raises
:class:`~repro.errors.LintError` with a line-anchored message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import LintError

__all__ = [
    "RuleScope",
    "LintConfig",
    "parse_config",
    "load_config",
    "DEFAULT_CONFIG_FILE",
]

DEFAULT_CONFIG_FILE = "repro-lint.toml"
"""Config file auto-discovered in the working directory by the CLI."""

_SECTION_RE = re.compile(r"^\[rule\.(RL\d{3})\]$")
_KEY_RE = re.compile(r"^(include|exclude)\s*=\s*(.+)$")
_STRING_RE = re.compile(r'^"([^"]*)"$')


@dataclass(frozen=True)
class RuleScope:
    """Include/exclude glob patterns scoping one rule to a file subset.

    A file is in scope when it matches at least one ``include`` pattern
    (``("*",)`` means everywhere) and no ``exclude`` pattern.  Patterns
    are :mod:`fnmatch` globs applied to the file's POSIX-style path.
    """

    include: Tuple[str, ...] = ("*",)
    exclude: Tuple[str, ...] = ()

    def matches(self, path: Union[str, Path]) -> bool:
        """True when ``path`` is inside this scope."""
        text = Path(path).as_posix()
        if not any(fnmatch(text, pattern) for pattern in self.include):
            return False
        return not any(fnmatch(text, pattern) for pattern in self.exclude)


# Modules whose content folds into a canonical digest or report: the
# unordered-iteration rule only fires here (ISSUE 6 scoping).  The
# statistics layer qualifies because its weighted rates embed in the
# v2 campaign report payloads; repro.canon because every config hash
# and report digest is computed there.
_DIGEST_MODULES: Tuple[str, ...] = (
    "*/report.py",
    "*/faults/campaign.py",
    "*/streams/arrivals.py",
    "*/stats/*.py",
    "*/api/*.py",
    "*/repro/canon.py",
)

# The telemetry plane (repro.obs) is the repository's only wall-clock
# quarantine: span timers and heartbeats read time.monotonic there, and
# nothing downstream of a report digest ever reads it back (ISSUE 9 /
# docs/OBSERVABILITY.md).  RL002 therefore runs everywhere *except*
# these paths.
_WALL_CLOCK_QUARANTINE: Tuple[str, ...] = (
    "*/repro/obs/*",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved per-rule scoping used by the engine.

    Attributes:
        scopes: mapping from rule ID to its :class:`RuleScope`.  Rules
            absent from the mapping default to the whole tree.
    """

    scopes: Dict[str, RuleScope] = field(default_factory=dict)

    def scope_for(self, rule_id: str) -> RuleScope:
        """The scope configured for ``rule_id`` (whole tree by default)."""
        return self.scopes.get(rule_id, RuleScope())

    def applies(self, rule_id: str, path: Union[str, Path]) -> bool:
        """True when ``rule_id`` should run on ``path``."""
        return self.scope_for(rule_id).matches(path)

    @classmethod
    def default(cls) -> "LintConfig":
        """The built-in scoping (mirrored by the shipped repro-lint.toml)."""
        return cls(scopes={
            "RL002": RuleScope(exclude=_WALL_CLOCK_QUARANTINE),
            "RL003": RuleScope(include=_DIGEST_MODULES),
            "RL004": RuleScope(include=("*/api/*.py",)),
        })


def _parse_value(raw: str, lineno: int, source: str) -> Tuple[str, ...]:
    """Parse a double-quoted string or a single-line array of them."""
    raw = raw.strip()
    match = _STRING_RE.match(raw)
    if match:
        return (match.group(1),)
    if raw.startswith("[") and raw.endswith("]"):
        body = raw[1:-1].strip()
        if not body:
            return ()
        items: List[str] = []
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            match = _STRING_RE.match(part)
            if not match:
                raise LintError(
                    f"{source}:{lineno}: array items must be double-quoted "
                    f"strings, got {part!r}"
                )
            items.append(match.group(1))
        return tuple(items)
    raise LintError(
        f"{source}:{lineno}: expected a double-quoted string or an array "
        f"of them, got {raw!r}"
    )


def parse_config(text: str, *, source: str = "<config>") -> LintConfig:
    """Parse the TOML-subset config ``text`` into a :class:`LintConfig`.

    Unconfigured rules keep the built-in defaults, so a config file only
    needs to state the scopes it wants to change.

    Args:
        text: the configuration document.
        source: label used in error messages (usually the file path).

    Raises:
        LintError: on any line outside the accepted subset, an unknown
            section, or an unknown key.
    """
    scopes = dict(LintConfig.default().scopes)
    current: Optional[str] = None
    pending: Dict[str, Tuple[str, ...]] = {}

    def _flush() -> None:
        if current is not None:
            scopes[current] = RuleScope(
                include=pending.get("include", ("*",)),
                exclude=pending.get("exclude", ()),
            )

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        section = _SECTION_RE.match(stripped)
        if section:
            _flush()
            current = section.group(1)
            pending = {}
            continue
        if stripped.startswith("["):
            raise LintError(
                f"{source}:{lineno}: unknown section {stripped!r} "
                "(only [rule.RLnnn] sections are accepted)"
            )
        key = _KEY_RE.match(stripped)
        if not key:
            raise LintError(
                f"{source}:{lineno}: cannot parse {stripped!r} (expected "
                "'include = ...' or 'exclude = ...' inside a [rule.RLnnn] "
                "section)"
            )
        if current is None:
            raise LintError(
                f"{source}:{lineno}: {key.group(1)!r} outside a "
                "[rule.RLnnn] section"
            )
        pending[key.group(1)] = _parse_value(key.group(2), lineno, source)
    _flush()
    return LintConfig(scopes=scopes)


def load_config(path: Optional[Union[str, Path]] = None) -> LintConfig:
    """Load a config file, falling back to the built-in defaults.

    Args:
        path: explicit config path; ``None`` auto-discovers
            :data:`DEFAULT_CONFIG_FILE` in the working directory.

    Raises:
        LintError: when an explicit ``path`` cannot be read, or any
            config file fails to parse.
    """
    if path is None:
        candidate = Path(DEFAULT_CONFIG_FILE)
        if not candidate.is_file():
            return LintConfig.default()
        path = candidate
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read lint config {str(path)!r}: {exc}")
    return parse_config(text, source=str(path))
