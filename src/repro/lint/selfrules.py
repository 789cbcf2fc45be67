"""Determinism self-lint: AST rules over the ``repro`` sources.

The flow's parallel executor, content-hash result cache and resume
journal all assume the flow is a pure function of ``(netlist, config,
library)`` — bit-identical across processes and hash seeds.  These
rules flag the Python constructs that silently break that property:

* ``SELF001`` — iterating an unordered ``set`` (hash-seed-dependent
  order escaping into results; the historical ``levelize`` bug);
* ``SELF002`` — the process-global ``random`` RNG inside flow code
  (seeded ``random.Random`` instances are fine);
* ``SELF003`` — wall-clock reads (``time.time``, ``datetime.now``)
  outside the observability/journal layers;
* ``SELF004`` — mutable default arguments (state leaking across
  calls, and across cached runs);
* ``SELF005`` — materialising a set into a ``list``/``tuple`` without
  sorting (an ordered container with unordered contents);
* ``SELF006`` — impurity inside the cache-key functions themselves
  (clock/RNG/environment reads would split or poison the cache).

Findings can be suppressed in place with a ``# lint: disable=SELFxxx``
comment on the flagged line, or grandfathered via the committed
baseline (see ``python -m repro.lint.self``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.lint import annotations
from repro.lint.core import (
    Diagnostic,
    ERROR,
    LintReport,
    Rule,
    WARNING,
    make_diagnostic,
    pack_rules,
    rule,
    run_rules,
)

PACK = "self"

#: Modules allowed to read the wall clock: observability timestamps,
#: journal records, executor scheduling, the service daemon's job
#: clocks and the CLI/chaos layers sit outside the cached computation
#: by design.
WALLCLOCK_ALLOWED = (
    "obs/",
    "core/resilience.py",
    "core/executor.py",
    "chaos.py",
    "cli.py",
    "service/",
)

#: Functions that compute (or feed) content-hash cache keys; their
#: bodies must stay pure functions of their inputs.
CACHE_KEY_FUNCTIONS = frozenset({
    "flow_cache_key",
    "_level_cache_key",
    "config_fingerprint",
    "circuit_structural_hash",
    "_canonical",
})

#: Module references that make a cache-key function impure.
_IMPURE_MODULES = frozenset({
    "time", "random", "datetime", "os", "uuid", "secrets",
})


@dataclass
class SourceModule:
    """One parsed Python source file under audit."""

    path: str  # posix path relative to the audited source root
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def line(self, lineno: int) -> str:
        """Stripped source text of a 1-based line (empty when absent)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppresses(self, lineno: int, rule_id: str) -> bool:
        """True when the line carries ``# lint: disable=...,<rule_id>``.

        Backed by real comment tokens (:mod:`repro.lint.annotations`),
        so directive text quoted inside a docstring is inert, and the
        rule list is properly comma-separated.
        """
        return annotations.suppresses(self.text, lineno, rule_id)


@dataclass
class SourceContext:
    """The file set one self-lint run audits.

    ``caches`` is scratch space for rule packs that compute one
    expensive per-module analysis shared by several rules (the
    CFG/dataflow packs cache their per-module findings here).
    """

    modules: List[SourceModule] = field(default_factory=list)
    caches: Dict[str, Any] = field(default_factory=dict, repr=False)


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that are unambiguously sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _emit(module: SourceModule, node: ast.AST, entry: Rule,
          message: str) -> Optional[Diagnostic]:
    """Build a finding for ``node`` unless the line suppresses it."""
    lineno = getattr(node, "lineno", None)
    if lineno is not None and module.suppresses(lineno, entry.id):
        return None
    return make_diagnostic(
        entry, message,
        file=module.path,
        line=lineno,
        snippet=module.line(lineno) if lineno else None,
    )


@rule(PACK, "SELF001", "unordered set iteration", severity=ERROR,
      hint="iterate sorted(...) or dedupe with dict.fromkeys(...) to "
           "keep a deterministic first-seen order")
def check_set_iteration(ctx: SourceContext) -> Iterable[Diagnostic]:
    """``for x in set(...)`` leaks hash-seed-dependent order."""
    entry = _rule("SELF001")
    for module in ctx.modules:
        iters: List[ast.AST] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it):
                diag = _emit(
                    module, it, entry,
                    "iteration over an unordered set: the visit order "
                    "depends on the process hash seed",
                )
                if diag:
                    yield diag


@rule(PACK, "SELF002", "process-global RNG", severity=ERROR,
      hint="use a seeded random.Random(seed) instance threaded through "
           "the call")
def check_global_rng(ctx: SourceContext) -> Iterable[Diagnostic]:
    """``random.<fn>()`` uses the unseeded process-global generator."""
    entry = _rule("SELF002")
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr != "Random"):
                diag = _emit(
                    module, node, entry,
                    f"call to the process-global RNG "
                    f"random.{func.attr}()",
                )
                if diag:
                    yield diag


@rule(PACK, "SELF003", "wall-clock read in flow code", severity=WARNING,
      hint="cached flow stages must not observe wall time; use "
           "time.perf_counter for durations or move the read into the "
           "obs/journal layer")
def check_wallclock(ctx: SourceContext) -> Iterable[Diagnostic]:
    """``time.time()``/``datetime.now()`` outside the allowed layers."""
    entry = _rule("SELF003")
    for module in ctx.modules:
        if module.path.startswith(WALLCLOCK_ALLOWED):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            hit = None
            if isinstance(value, ast.Name):
                if value.id == "time" and func.attr in ("time", "time_ns"):
                    hit = f"time.{func.attr}()"
                elif value.id == "datetime" and func.attr in (
                        "now", "utcnow", "today"):
                    hit = f"datetime.{func.attr}()"
            elif (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "datetime"
                    and func.attr in ("now", "utcnow", "today")):
                hit = f"datetime.{value.attr}.{func.attr}()"
            if hit:
                diag = _emit(
                    module, node, entry,
                    f"wall-clock read {hit} in a flow module",
                )
                if diag:
                    yield diag


@rule(PACK, "SELF004", "mutable default argument", severity=WARNING,
      hint="default to None and create the container inside the "
           "function")
def check_mutable_defaults(ctx: SourceContext) -> Iterable[Diagnostic]:
    """``def f(x=[])`` shares one container across all calls."""
    entry = _rule("SELF004")
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict,
                                               ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                )
                if mutable:
                    diag = _emit(
                        module, default, entry,
                        f"mutable default argument in {node.name}()",
                    )
                    if diag:
                        yield diag


@rule(PACK, "SELF005", "unsorted set materialisation", severity=ERROR,
      hint="wrap in sorted(...) — list(set(...)) freezes a "
           "hash-seed-dependent order into an ordered container")
def check_set_materialisation(ctx: SourceContext) -> Iterable[Diagnostic]:
    """``list(set(...))`` snapshots nondeterministic order."""
    entry = _rule("SELF005")
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1
                    and _is_set_expr(node.args[0])):
                diag = _emit(
                    module, node, entry,
                    f"{node.func.id}() over an unordered set freezes a "
                    f"hash-seed-dependent order",
                )
                if diag:
                    yield diag


@rule(PACK, "SELF006", "impure cache-key function", severity=ERROR,
      hint="cache-key functions must be pure functions of their "
           "declared inputs — no clock, RNG, environment or id() reads")
def check_cache_key_purity(ctx: SourceContext) -> Iterable[Diagnostic]:
    """The content-hash functions must stay deterministic."""
    entry = _rule("SELF006")
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if node.name not in CACHE_KEY_FUNCTIONS:
                continue
            for sub in ast.walk(node):
                impure = None
                if isinstance(sub, ast.Name) and sub.id in _IMPURE_MODULES:
                    impure = f"reference to {sub.id!r}"
                elif (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "id"):
                    impure = "call to id() (address-dependent)"
                if impure:
                    diag = _emit(
                        module, sub, entry,
                        f"cache-key function {node.name}() contains an "
                        f"impure {impure}",
                    )
                    if diag:
                        yield diag


def _known_rule_ids() -> frozenset:
    """Every registered rule ID across all packs.

    Imports the rule-pack modules lazily (they register on import) so
    this module stays importable without dragging the netlist stack
    in, and so the packs that import *us* don't cycle.
    """
    import repro.lint.concrules  # noqa: F401 - registration side effect
    import repro.lint.netlist_rules  # noqa: F401
    import repro.lint.resrules  # noqa: F401
    from repro.lint.core import RULE_PACKS

    ids: List[str] = []
    for pack_name in sorted(RULE_PACKS):
        ids.extend(entry.id for entry in RULE_PACKS[pack_name])
    return frozenset(ids)


@rule(PACK, "SELF007", "malformed lint directive", severity=ERROR,
      hint="directives are `# lint: disable=<RULE,...>`, "
           "`shared-under=<lock>`, `holds=<lock>` or `durable`; a "
           "typo silently suppresses nothing")
def check_directives(ctx: SourceContext) -> Iterable[Diagnostic]:
    """Unknown ``# lint:`` keys and disable= lists naming rules that
    do not exist (both would otherwise fail silently)."""
    entry = _rule("SELF007")
    known_ids = _known_rule_ids()
    for module in ctx.modules:
        for directive in annotations.parse_directives(module.text):
            if directive.key not in annotations.KNOWN_KEYS:
                yield make_diagnostic(
                    entry,
                    f"unknown lint directive key "
                    f"{directive.key!r}",
                    file=module.path,
                    line=directive.lineno,
                    snippet=module.line(directive.lineno),
                )
            elif directive.key == "disable":
                for value in directive.values:
                    if value not in known_ids:
                        yield make_diagnostic(
                            entry,
                            f"lint: disable references unknown rule "
                            f"id {value!r}",
                            file=module.path,
                            line=directive.lineno,
                            snippet=module.line(directive.lineno),
                        )


def _rule(rule_id: str) -> Rule:
    """Registered rule object for ``rule_id`` in this pack."""
    for entry in pack_rules(PACK):
        if entry.id == rule_id:
            return entry
    raise KeyError(rule_id)  # pragma: no cover - registration bug


def default_source_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def collect_modules(root: Path,
                    files: Optional[Sequence[Path]] = None
                    ) -> SourceContext:
    """Parse the ``.py`` files under ``root`` into a lint context.

    Args:
        root: Source root; findings use posix paths relative to it.
        files: Explicit file list (still reported relative to root);
            defaults to every ``*.py`` under ``root``.

    Raises:
        SyntaxError: A file does not parse — the self-lint refuses to
            silently skip unparseable sources.
    """
    if files is None:
        files = sorted(
            p for p in root.rglob("*.py") if "__pycache__" not in p.parts
        )
    ctx = SourceContext()
    for path in files:
        text = Path(path).read_text(encoding="utf-8")
        try:
            rel = Path(path).resolve().relative_to(root.resolve())
            rel_text = rel.as_posix()
        except ValueError:
            rel_text = Path(path).as_posix()
        ctx.modules.append(SourceModule(
            path=rel_text,
            text=text,
            tree=ast.parse(text, filename=str(path)),
            lines=text.splitlines(),
        ))
    return ctx


def lint_sources(root: Optional[Path] = None,
                 files: Optional[Sequence[Path]] = None) -> LintReport:
    """Run the determinism self-lint over a source tree.

    Args:
        root: Source root (defaults to the installed ``repro``
            package).
        files: Explicit subset of files to audit.

    Returns:
        The sorted :class:`repro.lint.core.LintReport`.
    """
    ctx = collect_modules(root or default_source_root(), files)
    return run_rules(pack_rules(PACK), ctx, pack=PACK)


__all__ = [
    "CACHE_KEY_FUNCTIONS",
    "PACK",
    "SourceContext",
    "SourceModule",
    "WALLCLOCK_ALLOWED",
    "collect_modules",
    "default_source_root",
    "lint_sources",
]
