"""Resource-safety rule pack: lifecycle and durability dataflow.

Two analyses over each function's CFG (see :mod:`repro.lint.cfg` /
:mod:`repro.lint.dataflow`):

**Open-resource may-analysis** — the fact is the set of local
variables bound to an owned resource (``fh = open(...)``, a pool, a
socket, a journal) that might still be open at a program point.  A
``with`` statement, a ``.close()``/``.shutdown()`` call, or an
ownership escape (returning / yielding / aliasing the variable into a
structure) retires the obligation; reaching the function's exit while
still tracked is a leak.  Passing a resource as a *call argument* is a
borrow, not an escape — the caller still owns the close (this is
exactly the shape of the executor's journal handling).

**Durability state machine** — functions annotated ``# lint: durable``
encode the store/journal write-visibility contract (DESIGN.md §14:
*a transition may become observable only after its bytes are flushed
and fsynced*).  Writes move the state to *dirty*, ``.flush()`` to
*flushed*, ``os.fsync``/``os.fdatasync`` of a *flushed* stream back
to *clean* (fsync cannot sync bytes still in the userspace buffer);
any normal return in a non-clean state is an error.  Exceptional edges are not
followed here: ``try: os.fsync(...) except OSError: pass`` is the
accepted best-effort idiom and must not trip the rule.

Rules: ``RES001`` file/socket/log/journal/store leak (error), ``RES002``
pool without shutdown (error), ``RES003`` closed on the normal path
but leaking on the exception path (warning), ``RES004`` durable
function returning before flush+fsync (error).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.lint import annotations
from repro.lint.cfg import (
    Assume,
    CFG,
    Event,
    WithEnter,
    WithExit,
    expr_name,
    build_cfg,
    function_units,
    walk_shallow,
)
from repro.lint.concrules import Finding, _OPAQUE
from repro.lint.core import (
    Diagnostic,
    ERROR,
    Rule,
    WARNING,
    make_diagnostic,
    pack_rules,
    rule,
)
from repro.lint.dataflow import ForwardAnalysis, exit_facts, solve
from repro.lint.selfrules import SourceContext, SourceModule

PACK = "res"

#: Constructors whose result the binder must close: dotted call name
#: (or bare class name) -> resource kind.
OPENERS: Dict[str, str] = {
    "open": "file",
    "socket.socket": "socket",
    "ProcessPoolExecutor": "pool",
    "ThreadPoolExecutor": "pool",
    "concurrent.futures.ProcessPoolExecutor": "pool",
    "concurrent.futures.ThreadPoolExecutor": "pool",
    "JsonlLog": "log",
    "SweepJournal": "journal",
    "JobStore": "store",
}

#: Method names that retire an open-resource obligation.
CLOSERS = ("close", "shutdown", "terminate")

#: Kinds RES001 covers (RES002 takes pools).
_RES001_KINDS = ("file", "socket", "log", "journal", "store")

#: Durability ranks: 0 clean/durable, 1 written-unflushed, 2
#: flushed-unsynced.
_CLEAN, _DIRTY, _FLUSHED = 0, 1, 2

_RANK_TEXT = {
    _DIRTY: "written but never flushed",
    _FLUSHED: "flushed but never fsynced",
}


def _opener_kind(value: ast.AST) -> Optional[str]:
    """Resource kind when ``value`` is an opener call, else None."""
    if not isinstance(value, ast.Call):
        return None
    name = expr_name(value.func)
    if name in OPENERS:
        return OPENERS[name]
    if name is not None and "." in name:
        leaf = name.rsplit(".", 1)[1]
        if leaf == "open":
            return "file"
        if leaf in OPENERS and leaf[:1].isupper():
            return OPENERS[leaf]
    return None


def _escaping_names(value: ast.AST) -> FrozenSet[str]:
    """Variables whose ownership leaves the function through ``value``.

    A bare name (alias, container element, attribute-store RHS)
    escapes; a name used as a call argument or as the object of an
    attribute access is borrowed and stays owned; names captured by a
    nested lambda/def escape (the closure outlives the statement).
    """
    names: List[str] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, (ast.Call, ast.Attribute)):
            return
        elif isinstance(node, (ast.Lambda, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            names.extend(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name))
        else:
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(value)
    return frozenset(names)


def _assume_dropped(event: Assume) -> Optional[str]:
    """Variable proven absent on this branch (``if fh is None:`` arm)."""
    test, value = event.test, event.value
    if isinstance(test, ast.Name):
        return test.id if not value else None
    if (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)):
        return test.operand.id if value else None
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        if isinstance(test.ops[0], ast.Is) and value:
            return test.left.id
        if isinstance(test.ops[0], ast.IsNot) and not value:
            return test.left.id
    return None


class ResourceAnalysis(ForwardAnalysis):
    """May-open resources: union join over (var, kind, line)."""

    def entry_fact(self, cfg: CFG) -> FrozenSet[Tuple[str, str, int]]:
        return frozenset()

    def join(self, facts):
        out = facts[0]
        for fact in facts[1:]:
            out = out | fact
        return out

    def transfer(self, fact, event: Event, block):
        if isinstance(event, Assume):
            dropped = _assume_dropped(event)
            if dropped is not None:
                fact = frozenset(e for e in fact if e[0] != dropped)
            return fact
        if isinstance(event, WithEnter):
            # `with fh:` transfers the close to the with statement.
            name = expr_name(event.item.context_expr)
            if name is not None:
                fact = frozenset(e for e in fact if e[0] != name)
            return fact
        if isinstance(event, WithExit):
            return fact
        if isinstance(event, _OPAQUE) or not isinstance(event, ast.AST):
            return fact
        # Closers anywhere in the statement.
        for node in walk_shallow(event):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in CLOSERS
                    and isinstance(node.func.value, ast.Name)):
                closed = node.func.value.id
                fact = frozenset(e for e in fact if e[0] != closed)
        # Ownership escapes.
        escaped: FrozenSet[str] = frozenset()
        if isinstance(event, ast.Return) and event.value is not None:
            escaped = _escaping_names(event.value)
        elif isinstance(event, ast.Expr) and isinstance(
                event.value, (ast.Yield, ast.YieldFrom)):
            inner = event.value.value
            if inner is not None:
                escaped = _escaping_names(inner)
        elif isinstance(event, ast.Assign):
            if getattr(event, "_lint_with_binding", False):
                return fact
            escaped = _escaping_names(event.value)
        if escaped:
            fact = frozenset(e for e in fact if e[0] not in escaped)
        # Strong update + fresh obligations on simple binds.
        if isinstance(event, ast.Assign) and len(event.targets) == 1 \
                and isinstance(event.targets[0], ast.Name):
            var = event.targets[0].id
            fact = frozenset(e for e in fact if e[0] != var)
            kind = _opener_kind(event.value)
            if kind is not None:
                fact = fact | {(var, kind, event.lineno)}
        return fact

    def exc_facts(self, fact, event: Event, block):
        """A raising opener never bound its target, and a raising
        ``close()`` still retires the obligation — so the exceptional
        fact honours this event's removals but not its additions
        (pre ∩ post)."""
        return [fact & self.transfer(fact, event, block)]


class DurabilityAnalysis(ForwardAnalysis):
    """The §14 write-visibility state machine (normal paths only)."""

    follow_exc = False

    def entry_fact(self, cfg: CFG) -> Tuple[int, int]:
        return (_CLEAN, 0)

    def join(self, facts):
        return max(facts, key=lambda f: (f[0], -f[1]))

    def transfer(self, fact, event: Event, block):
        if isinstance(event, (Assume, WithEnter, WithExit)):
            return fact
        if isinstance(event, _OPAQUE) or not isinstance(event, ast.AST):
            return fact
        rank, line = fact
        for node in walk_shallow(event):
            if not isinstance(node, ast.Call):
                continue
            dotted = expr_name(node.func)
            if dotted in ("os.fsync", "os.fdatasync"):
                # fsync only syncs what reached the kernel: bytes
                # still in the stream's userspace buffer stay dirty.
                if rank == _FLUSHED:
                    rank, line = _CLEAN, node.lineno
            elif isinstance(node.func, ast.Attribute):
                if node.func.attr in ("write", "writelines"):
                    rank, line = _DIRTY, node.lineno
                elif node.func.attr == "flush" and rank == _DIRTY:
                    rank, line = _FLUSHED, node.lineno
        return (rank, line)


def _check_module(module: SourceModule) -> List[Finding]:
    findings: List[Finding] = []
    for unit in function_units(module.tree):
        cfg = build_cfg(unit.func)
        analysis = ResourceAnalysis()
        ins = solve(cfg, analysis)
        exits = exit_facts(cfg, analysis, ins)
        at_exit = exits.get("exit", frozenset())
        at_raise = exits.get("raise", frozenset())
        for var, kind, lineno in sorted(at_exit):
            if kind in _RES001_KINDS:
                findings.append(Finding(
                    "RES001", lineno,
                    f"{kind} {var!r} opened here may still be open "
                    f"when {unit.func.name}() returns"))
            elif kind == "pool":
                findings.append(Finding(
                    "RES002", lineno,
                    f"pool {var!r} created here has a path to return "
                    f"without shutdown()"))
        for var, kind, lineno in sorted(at_raise - at_exit):
            findings.append(Finding(
                "RES003", lineno,
                f"{kind} {var!r} is closed on the normal path but "
                f"leaks when an exception unwinds; use with or "
                f"try/finally",
                severity=WARNING))
        if annotations.has_flag(module.text, unit.func.lineno, "durable"):
            durability = DurabilityAnalysis()
            dins = solve(cfg, durability)
            dexits = exit_facts(cfg, durability, dins)
            rank, line = dexits.get("exit", (_CLEAN, 0))
            if rank != _CLEAN:
                findings.append(Finding(
                    "RES004", line or unit.func.lineno,
                    f"{unit.func.name}() is annotated durable but a "
                    f"normal path returns with bytes {_RANK_TEXT[rank]}"
                    f" — the transition would be visible before it is "
                    f"durable (§14)"))
    return sorted(set(findings),
                  key=lambda f: (f.lineno, f.rule_id, f.message))


def _module_findings(ctx: SourceContext) -> Dict[str, List[Finding]]:
    caches = getattr(ctx, "caches", None)
    if caches is not None and PACK in caches:
        return caches[PACK]
    out = {m.path: _check_module(m) for m in ctx.modules}
    if caches is not None:
        caches[PACK] = out
    return out


def _rule(rule_id: str) -> Rule:
    for entry in pack_rules(PACK):
        if entry.id == rule_id:
            return entry
    raise KeyError(rule_id)  # pragma: no cover - registration bug


def _emit_rule(ctx: SourceContext, rule_id: str) -> Iterable[Diagnostic]:
    entry = _rule(rule_id)
    found = _module_findings(ctx)
    for module in ctx.modules:
        for finding in found.get(module.path, []):
            if finding.rule_id != rule_id:
                continue
            if module.suppresses(finding.lineno, rule_id):
                continue
            yield make_diagnostic(
                entry, finding.message,
                file=module.path,
                line=finding.lineno,
                snippet=module.line(finding.lineno),
                severity=finding.severity,
            )


@rule(PACK, "RES001", "resource not closed on every path",
      severity=ERROR,
      hint="use a with statement, or close in a finally block")
def check_open_leak(ctx: SourceContext) -> Iterable[Diagnostic]:
    """Files/sockets/journals open at a normal return."""
    return _emit_rule(ctx, "RES001")


@rule(PACK, "RES002", "pool without shutdown on every path",
      severity=ERROR,
      hint="use the pool as a context manager or call shutdown() in a "
           "finally block — leaked workers outlive the sweep")
def check_pool_leak(ctx: SourceContext) -> Iterable[Diagnostic]:
    """Process/thread pools that may never be shut down."""
    return _emit_rule(ctx, "RES002")


@rule(PACK, "RES003", "resource leaks on the exception path",
      severity=WARNING,
      hint="move the close into a finally block (or use with) so the "
           "unwinding path releases it too")
def check_exception_leak(ctx: SourceContext) -> Iterable[Diagnostic]:
    """Closed normally, but an exception skips the close."""
    return _emit_rule(ctx, "RES003")


@rule(PACK, "RES004", "durable write visible before flush+fsync",
      severity=ERROR,
      hint="every normal return of a `# lint: durable` function must "
           "follow .flush() and os.fsync() of the written stream")
def check_durability(ctx: SourceContext) -> Iterable[Diagnostic]:
    """The store/journal write-visibility contract (§14)."""
    return _emit_rule(ctx, "RES004")


def lint_resources(root=None, files=None):
    """Run only the resource pack over a source tree."""
    from repro.lint.core import run_rules
    from repro.lint.selfrules import collect_modules, default_source_root

    ctx = collect_modules(root or default_source_root(), files)
    return run_rules(pack_rules(PACK), ctx, pack=PACK)


__all__ = [
    "CLOSERS",
    "DurabilityAnalysis",
    "OPENERS",
    "PACK",
    "ResourceAnalysis",
    "lint_resources",
]
