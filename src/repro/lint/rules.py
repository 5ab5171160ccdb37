"""The determinism-contract rule catalogue (``RL001`` … ``RL008``).

Each rule is a small AST pass over one file.  The catalogue encodes the
repository's reproducibility promise — reports and digests are
bit-identical across worker counts, shard boundaries and declaration
order — as machine-checkable bans:

========  ==============================================================
RL001     module-global randomness (only seeded ``random.Random`` allowed)
RL002     wall-clock / entropy sources (``time.time``, ``datetime.now``,
          ``os.urandom``, ``uuid.uuid4``, ``secrets``, ``SystemRandom``)
RL003     iteration or ``sum``/``min``/``max`` folds over unordered sets
          in digest-affecting modules
RL004     every ``*Spec`` dataclass in ``repro.api`` must be frozen and
          round-trip via ``to_dict``/``from_dict``
RL005     every ``raise`` must use a ``repro.errors.ReproError`` subclass
          (``NotImplementedError`` is allowed for abstract stubs)
RL006     callables handed to a process pool must be module-level
          (picklable by reference)
RL007     no builtin ``hash()`` — string hashes are salted per process
RL008     no filesystem-order or environment dependence (unsorted
          ``listdir``/``glob``/``iterdir``, ``os.environ``)
========  ==============================================================

Rule detection is purely syntactic (no imports of the linted code are
executed), so mentions inside strings and docstrings never trigger.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import repro.errors as _errors
from repro.lint.reporting import Violation

__all__ = ["FileContext", "Rule", "ALL_RULES", "RULE_IDS", "rules_by_id"]

# exception classes every raise may use: the whole repro.errors hierarchy
# (collected dynamically so new error types are approved automatically)
# plus NotImplementedError, the stdlib idiom for abstract-method stubs
_APPROVED_RAISES: FrozenSet[str] = frozenset(
    [name for name in dir(_errors)
     if isinstance(getattr(_errors, name), type)
     and issubclass(getattr(_errors, name), _errors.ReproError)]
    + ["NotImplementedError"]
)

_WALL_CLOCK_BANNED: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
    "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
})

_FS_ORDER_BANNED: FrozenSet[str] = frozenset({
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
})

_ENV_BANNED: FrozenSet[str] = frozenset({"os.environ", "os.getenv"})

# order-sensitive folds; sorted()/len()/any()/all() are order-safe
_FOLD_BUILTINS: FrozenSet[str] = frozenset({"sum", "min", "max", "list",
                                            "tuple"})


@dataclass
class FileContext:
    """One parsed file plus the shared analyses every rule needs.

    Attributes:
        path: the file's path label (used in violations).
        tree: the parsed module AST.
        module_aliases: local name → imported module (``import x as y``).
        from_imports: local name → dotted origin (``from m import a``).
        module_level_names: every name bound at module scope.
        sorted_wrapped: ids of call nodes passed directly to ``sorted()``.
        nested_defs: per-function-node names of functions defined inside it.
    """

    path: str
    tree: ast.AST
    module_aliases: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, str] = field(default_factory=dict)
    module_level_names: Set[str] = field(default_factory=set)
    sorted_wrapped: Set[int] = field(default_factory=set)
    nested_defs: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, path: str, tree: ast.AST) -> "FileContext":
        """Run the shared pre-analyses over ``tree``."""
        ctx = cls(path=path, tree=tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    ctx.module_aliases[local] = (
                        alias.name if alias.asname else local
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    ctx.from_imports[local] = f"{node.module}.{alias.name}"
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "sorted" and node.args):
                ctx.sorted_wrapped.add(id(node.args[0]))
        for stmt in getattr(tree, "body", []):
            for name in _bound_names(stmt):
                ctx.module_level_names.add(name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner: Set[str] = set()
                for child in ast.walk(node):
                    if child is node:
                        continue
                    if isinstance(child,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        inner.add(child.name)
                ctx.nested_defs[id(node)] = inner
        return ctx

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, or None.

        ``random.Random`` resolves to ``"random.Random"`` even through
        ``import random as rnd``; a name bound by ``from random import
        choice`` resolves to ``"random.choice"``.
        """
        if isinstance(node, ast.Name):
            if node.id in self.from_imports:
                return self.from_imports[node.id]
            if node.id in self.module_aliases:
                return self.module_aliases[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


def _bound_names(stmt: ast.stmt) -> List[str]:
    """Names a module-level statement binds (defs, classes, imports, =)."""
    names: List[str] = []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names.append(stmt.name)
    elif isinstance(stmt, ast.Import):
        names.extend(a.asname or a.name.split(".")[0] for a in stmt.names)
    elif isinstance(stmt, ast.ImportFrom):
        names.extend(a.asname or a.name for a in stmt.names)
    elif isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
    elif isinstance(stmt, ast.AnnAssign):
        if isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
    return names


def _violation(ctx: FileContext, node: ast.AST, rule: str,
               message: str) -> Violation:
    """Anchor ``message`` to ``node``'s location in ``ctx``'s file."""
    return Violation(file=ctx.path, line=getattr(node, "lineno", 1),
                     col=getattr(node, "col_offset", 0), rule=rule,
                     message=message)


class Rule:
    """Base class: one identifiable AST check over a file.

    Attributes:
        id: stable rule identifier (``RLnnn``).
        title: short human-readable rule name for catalogues.
    """

    id: str = "RL000"
    title: str = ""

    def check(self, ctx: FileContext) -> List[Violation]:
        """Violations of this rule in ``ctx``'s tree."""
        raise NotImplementedError


class GlobalRandomnessRule(Rule):
    """RL001 — ban the module-global RNG; require seeded ``random.Random``.

    ``random.random()``, ``random.seed()``, ``random.choice()`` and every
    other module-level helper share one hidden process-global state, so
    results depend on call interleaving across subsystems and workers.
    Only the class ``random.Random`` (an explicit, seedable instance, as
    ``faults/campaign.py`` builds per fault index) may be referenced.
    """

    id = "RL001"
    title = "module-global randomness"

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag ``random.X`` references and from-imports for ``X != Random``."""
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in ("Random", "SystemRandom"):
                        out.append(_violation(
                            ctx, node, self.id,
                            f"'from random import {alias.name}' binds the "
                            "module-global RNG — use an explicit "
                            "random.Random(seed) instance",
                        ))
            elif isinstance(node, ast.Attribute):
                resolved = ctx.resolve(node)
                if (resolved is not None
                        and resolved.startswith("random.")
                        and resolved.count(".") == 1
                        and resolved not in ("random.Random",
                                             "random.SystemRandom")):
                    out.append(_violation(
                        ctx, node, self.id,
                        f"module-global RNG use {resolved!r} — seed an "
                        "explicit random.Random(seed) instance instead",
                    ))
        return out


class WallClockRule(Rule):
    """RL002 — ban wall-clock and entropy sources.

    Any value derived from the host clock, the OS entropy pool or a
    MAC-address UUID differs between runs and machines; if it reaches a
    report it breaks bit-identical digests, and there is no way to prove
    statically that it will not.  (``random.SystemRandom`` lives here,
    not in RL001, because its problem is entropy, not shared state.)
    """

    id = "RL002"
    title = "wall-clock / entropy source"

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag banned time/entropy origins at import and reference sites."""
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    origin = f"{node.module}.{alias.name}"
                    if (origin in _WALL_CLOCK_BANNED
                            or node.module == "secrets"):
                        out.append(_violation(
                            ctx, node, self.id,
                            f"import of nondeterministic source {origin!r}",
                        ))
            elif isinstance(node, (ast.Import,)):
                for alias in node.names:
                    if alias.name == "secrets":
                        out.append(_violation(
                            ctx, node, self.id,
                            "import of entropy module 'secrets'",
                        ))
            elif isinstance(node, ast.Attribute):
                resolved = ctx.resolve(node)
                if resolved is None:
                    continue
                if (resolved in _WALL_CLOCK_BANNED
                        or resolved.startswith("secrets.")):
                    out.append(_violation(
                        ctx, node, self.id,
                        f"nondeterministic source {resolved!r} — results "
                        "must not depend on wall clock or entropy",
                    ))
        return out


def _is_unordered(node: ast.AST) -> bool:
    """True for set displays/comprehensions and ``set()``/``frozenset()``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class UnorderedFoldRule(Rule):
    """RL003 — no iteration or order-sensitive folds over sets.

    Scoped (via config) to digest-affecting modules.  Set iteration
    order follows the per-process string-hash salt, so a ``for`` over a
    set — or a ``sum``/``min``/``max``/``list``/``tuple``/``join`` fed
    one — can change float accumulation order or output order between
    runs.  Wrap the set in ``sorted(...)`` to fix the order first.
    """

    id = "RL003"
    title = "unordered set iteration/fold"

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag for-loops, generators and folds consuming unordered sets."""
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_unordered(node.iter):
                out.append(_violation(
                    ctx, node.iter, self.id,
                    "iterating a set has salt-dependent order — wrap it "
                    "in sorted(...)",
                ))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    if _is_unordered(gen.iter):
                        out.append(_violation(
                            ctx, gen.iter, self.id,
                            "comprehension over a set has salt-dependent "
                            "order — wrap it in sorted(...)",
                        ))
            elif isinstance(node, ast.Call):
                fold = None
                if (isinstance(node.func, ast.Name)
                        and node.func.id in _FOLD_BUILTINS):
                    fold = node.func.id
                elif (isinstance(node.func, ast.Attribute)
                      and node.func.attr == "join"):
                    fold = "join"
                if fold is None:
                    continue
                for arg in node.args:
                    if _is_unordered(arg):
                        out.append(_violation(
                            ctx, arg, self.id,
                            f"{fold}() over a set folds in salt-dependent "
                            "order — sort it first",
                        ))
        return out


class SpecContractRule(Rule):
    """RL004 — every ``*Spec`` dataclass must be frozen and round-trip.

    Scoped (via config) to ``repro.api``.  Specs are hashed into
    ``config_hash`` provenance and shipped across process boundaries;
    a mutable spec or one without a ``to_dict``/``from_dict`` pair
    silently breaks both.  Inheriting a :mod:`repro.canon` codec base
    (:data:`CODEC_BASES`) supplies the pair; frozen is still required.
    """

    id = "RL004"
    title = "Spec dataclass contract"

    #: Base-class names whose subclasses inherit ``to_dict``/``from_dict``.
    CODEC_BASES: FrozenSet[str] = frozenset({"Codec", "SpecCodec"})

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag ``*Spec`` classes missing frozen=True or the dict pair."""
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Spec"):
                continue
            if not self._is_frozen_dataclass(node):
                out.append(_violation(
                    ctx, node, self.id,
                    f"{node.name} must be a @dataclass(frozen=True) — "
                    "specs are hashed provenance and must be immutable",
                ))
            bases = {getattr(base, "id", getattr(base, "attr", None))
                     for base in node.bases}  # Name.id / dotted Attribute.attr
            if bases & self.CODEC_BASES:
                continue
            methods = {child.name for child in node.body
                       if isinstance(child, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))}
            for required in ("to_dict", "from_dict"):
                if required not in methods:
                    out.append(_violation(
                        ctx, node, self.id,
                        f"{node.name} lacks {required}() — every Spec "
                        "must round-trip through plain dicts",
                    ))
        return out

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        """True when a ``@dataclass(frozen=True)`` decorator is present."""
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            name = (deco.func.id if isinstance(deco.func, ast.Name)
                    else deco.func.attr
                    if isinstance(deco.func, ast.Attribute) else None)
            if name != "dataclass":
                continue
            for kw in deco.keywords:
                if (kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True):
                    return True
        return False


class RaiseHierarchyRule(Rule):
    """RL005 — every ``raise`` must use the ``ReproError`` hierarchy.

    A single catchable base class is what lets the CLI, the campaign
    runner and the pool workers translate failures uniformly; a stray
    ``ValueError`` escapes those handlers and kills a shard without a
    checkpointed record.  ``NotImplementedError`` (abstract stubs), bare
    re-raises and re-raised local variables are allowed; local exception
    classes count when they derive — transitively, within the module —
    from an approved type.
    """

    id = "RL005"
    title = "raise outside ReproError hierarchy"

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag raises whose class cannot be traced to ReproError."""
        local_ok = self._approved_local_classes(ctx)
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Attribute):
                name = target.attr
            elif isinstance(target, ast.Name):
                name = target.id
            else:
                continue
            if name[:1].islower():
                continue  # a re-raised local variable, not a class
            if name in _APPROVED_RAISES or name in local_ok:
                continue
            out.append(_violation(
                ctx, node, self.id,
                f"raise of {name}: every error must derive from "
                "repro.errors.ReproError (or be NotImplementedError)",
            ))
        return out

    @staticmethod
    def _approved_local_classes(ctx: FileContext) -> Set[str]:
        """Module-local classes deriving (transitively) from approved ones."""
        bases: Dict[str, List[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                names = []
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        names.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        names.append(base.attr)
                bases[node.name] = names
        approved: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in sorted(bases):
                if name in approved:
                    continue
                if any(base in _APPROVED_RAISES or base in approved
                       for base in bases[name]):
                    approved.add(name)
                    changed = True
        return approved


class PoolCallableRule(Rule):
    """RL006 — process-pool callables must be module-level.

    ``ProcessPoolExecutor`` pickles the callable by reference; a lambda,
    a nested function or a bound ``self.``-method either fails to pickle
    or drags hidden mutable state across the fork.  Only module-level
    functions are guaranteed to behave identically in every worker.
    """

    id = "RL006"
    title = "non-picklable pool callable"

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag lambdas/nested defs/self-methods given to submit()/map()."""
        out: List[Violation] = []
        self._walk_scope(ctx, ctx.tree, (), out)
        return out

    def _walk_scope(self, ctx: FileContext, node: ast.AST,
                    nested: Tuple[FrozenSet[str], ...],
                    out: List[Violation]) -> None:
        """Recurse tracking which names are nested function definitions."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = frozenset(ctx.nested_defs.get(id(child), set()))
                self._walk_scope(ctx, child, nested + (inner,), out)
                continue
            if isinstance(child, ast.Call):
                self._check_call(ctx, child, nested, out)
            self._walk_scope(ctx, child, nested, out)

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    nested: Tuple[FrozenSet[str], ...],
                    out: List[Violation]) -> None:
        """Check one ``X.submit(f, ...)`` / ``X.map(f, ...)`` call site."""
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map") and node.args):
            return
        target = node.args[0]
        if isinstance(target, ast.Lambda):
            out.append(_violation(
                ctx, target, self.id,
                "lambda submitted to a process pool is not picklable — "
                "use a module-level function",
            ))
        elif isinstance(target, ast.Name):
            if any(target.id in scope for scope in nested):
                out.append(_violation(
                    ctx, target, self.id,
                    f"nested function {target.id!r} submitted to a process "
                    "pool is not picklable — move it to module level",
                ))
        elif (isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)
              and target.value.id == "self"):
            out.append(_violation(
                ctx, target, self.id,
                f"bound method self.{target.attr} submitted to a process "
                "pool drags instance state across the fork — use a "
                "module-level function",
            ))


class HashBuiltinRule(Rule):
    """RL007 — no builtin ``hash()``.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), so any value
    derived from it differs between workers and runs.  Digest paths must
    use :mod:`hashlib` (as every existing digest already does).
    """

    id = "RL007"
    title = "builtin hash()"

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag calls to the bare builtin ``hash``."""
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                out.append(_violation(
                    ctx, node, self.id,
                    "builtin hash() is salted per process — use "
                    "hashlib for anything that reaches a digest",
                ))
        return out


class FsOrderEnvRule(Rule):
    """RL008 — no filesystem-order or environment dependence.

    Directory listing order is filesystem-specific; reading the
    environment makes results depend on the invoking shell.  Directory
    scans must be wrapped directly in ``sorted(...)`` (the campaign
    store's shard-log replay depends on it), and configuration must
    arrive through specs, never ``os.environ``.
    """

    id = "RL008"
    title = "filesystem-order / environment dependence"

    def check(self, ctx: FileContext) -> List[Violation]:
        """Flag unsorted directory scans and environment reads."""
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if f"{node.module}.{alias.name}" in _ENV_BANNED:
                        out.append(_violation(
                            ctx, node, self.id,
                            f"import of {node.module}.{alias.name}: "
                            "configuration must come from specs, not the "
                            "environment",
                        ))
            elif isinstance(node, ast.Attribute):
                resolved = ctx.resolve(node)
                if resolved in _ENV_BANNED:
                    out.append(_violation(
                        ctx, node, self.id,
                        f"{resolved} read: configuration must come from "
                        "specs, not the environment",
                    ))
            elif isinstance(node, ast.Call):
                out.extend(self._check_scan(ctx, node))
        return out

    def _check_scan(self, ctx: FileContext,
                    node: ast.Call) -> List[Violation]:
        """Flag one directory-scan call unless directly sorted-wrapped."""
        if id(node) in ctx.sorted_wrapped:
            return []
        resolved = ctx.resolve(node.func)
        if resolved in _FS_ORDER_BANNED:
            return [_violation(
                ctx, node, self.id,
                f"{resolved}() yields filesystem order — wrap the call "
                "directly in sorted(...)",
            )]
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("iterdir", "glob", "rglob")):
            return [_violation(
                ctx, node, self.id,
                f".{node.func.attr}() yields filesystem order — wrap the "
                "call directly in sorted(...)",
            )]
        return []


ALL_RULES: Tuple[Rule, ...] = (
    GlobalRandomnessRule(),
    WallClockRule(),
    UnorderedFoldRule(),
    SpecContractRule(),
    RaiseHierarchyRule(),
    PoolCallableRule(),
    HashBuiltinRule(),
    FsOrderEnvRule(),
)

RULE_IDS: FrozenSet[str] = frozenset(rule.id for rule in ALL_RULES)


def rules_by_id(selected: Optional[Sequence[str]] = None) -> Tuple[Rule, ...]:
    """The rule objects for ``selected`` IDs (all rules when ``None``).

    Raises:
        repro.errors.LintError: when an unknown rule ID is requested.
    """
    if selected is None:
        return ALL_RULES
    wanted = set(selected)
    unknown = sorted(wanted - RULE_IDS)
    if unknown:
        raise _errors.LintError(
            f"unknown rule ID(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(RULE_IDS))})"
        )
    return tuple(rule for rule in ALL_RULES if rule.id in wanted)
