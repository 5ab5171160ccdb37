"""RL004 with the repro.canon codec base: inheritance satisfies the dict pair."""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintConfig, lint_file

FIXTURES = Path(__file__).parent / "fixtures"
UNSCOPED = LintConfig(scopes={})


def _rl004(name):
    violations, _ = lint_file(FIXTURES / name, config=UNSCOPED)
    return [v for v in violations if v.rule == "RL004"]


def test_frozen_codec_specs_are_clean():
    assert _rl004("rl004_codec_good.py") == []


def test_unfrozen_codec_spec_is_still_flagged():
    flagged = _rl004("rl004_codec_bad.py")
    assert len(flagged) == 1
    assert "MutableCodecSpec must be a @dataclass(frozen=True)" in (
        flagged[0].message)


def test_legacy_bad_fixture_keeps_its_three_violations():
    assert len(_rl004("rl004_bad.py")) == 3
