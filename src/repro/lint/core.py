"""Core types of the static-analysis engine: rules, diagnostics, reports.

Everything that looks at the repo statically — the netlist/DFT rule
pack (:mod:`repro.lint.netlist_rules`, whose structural subset is the
flow's between-steps audit) and the Python-source packs run by
:mod:`repro.lint.self` — speaks one vocabulary:

* a :class:`Rule` is a named, documented check with a stable ID and a
  default severity;
* a :class:`Diagnostic` is one finding: rule ID, severity, message,
  the netlist object or source location it anchors to, and a fix hint;
* a :class:`LintReport` collects findings plus per-rule runtimes and
  renders as text or JSON;
* a :class:`Baseline` is a committed set of diagnostic fingerprints:
  known findings are suppressed so CI fails only on *new* ones.

The engine itself is :func:`run_rules`; rule packs register their
rules with the :func:`rule` decorator against a named pack.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs

#: Severity levels, most severe first (the order used for sorting and
#: for the report summary).
ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)

_SEVERITY_RANK = {sev: rank for rank, sev in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule.

    Attributes:
        rule_id: Stable rule identifier (``"NL001"``, ``"SELF003"``...).
        severity: One of :data:`SEVERITIES`.
        message: Human-readable description of the specific finding.
        obj: Netlist object the finding anchors to (net, instance or
            chain name), when the subject is a design.
        file: Source file (repo-relative), when the subject is code.
        line: 1-based source line within :attr:`file`.
        snippet: Stripped source line, used for line-drift-tolerant
            fingerprints of source findings.
        hint: Short actionable fix suggestion, or None.
    """

    rule_id: str
    severity: str
    message: str
    obj: Optional[str] = None
    file: Optional[str] = None
    line: Optional[int] = None
    snippet: Optional[str] = None
    hint: Optional[str] = None

    def __post_init__(self):
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {SEVERITIES}"
            )

    @property
    def location(self) -> str:
        """``file:line`` for source findings, else the netlist object."""
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line else self.file
        return self.obj or "<design>"

    @property
    def fingerprint(self) -> str:
        """Stable identity of the finding, for baseline matching.

        Source findings key on ``(rule, file, stripped line text)`` so
        unrelated edits that merely shift line numbers do not invalidate
        a baseline; design findings key on ``(rule, object, message)``.
        Two identical findings share a fingerprint (one baseline entry
        then suppresses both); that is the intended granularity.
        """
        if self.file is not None:
            payload = f"{self.rule_id}|{self.file}|{self.snippet or ''}"
        else:
            payload = f"{self.rule_id}|{self.obj or ''}|{self.message}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        """One-line human-readable rendering."""
        text = f"{self.location}: {self.severity} [{self.rule_id}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-data form."""
        out: Dict[str, Any] = {
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        for key in ("obj", "file", "line", "snippet", "hint"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule.

    Attributes:
        id: Stable identifier; never reuse a retired ID.
        pack: Rule-pack name (``"netlist"`` or ``"self"``).
        title: Short name of the property the rule checks.
        severity: Default severity of the rule's findings.
        check: Callable producing :class:`Diagnostic`s for a context.
        hint: Default fix hint attached to findings without one.
        structural: True for the cheap netlist-integrity subset that
            :func:`repro.core.flow.validate` runs between flow steps.
    """

    id: str
    pack: str
    title: str
    severity: str
    check: Callable[[Any], Iterable[Diagnostic]]
    hint: Optional[str] = None
    structural: bool = False


#: Registered rules, keyed by pack name.  Populated by the :func:`rule`
#: decorator at rule-module import time.
RULE_PACKS: Dict[str, List[Rule]] = {}


def rule(pack: str, rule_id: str, title: str, severity: str = ERROR,
         hint: Optional[str] = None, structural: bool = False):
    """Decorator registering a check function as a :class:`Rule`.

    The decorated function receives the pack's context object and
    yields :class:`Diagnostic`s; ``severity``/``hint`` are defaults the
    function may override per finding.
    """

    def decorate(fn: Callable[[Any], Iterable[Diagnostic]]) -> Callable:
        entries = RULE_PACKS.setdefault(pack, [])
        if any(r.id == rule_id for r in entries):
            raise ValueError(f"duplicate rule id {rule_id!r} in pack {pack!r}")
        entries.append(Rule(
            id=rule_id, pack=pack, title=title, severity=severity,
            check=fn, hint=hint, structural=structural,
        ))
        return fn

    return decorate


def pack_rules(pack: str) -> List[Rule]:
    """All rules registered under ``pack``, in registration order."""
    return list(RULE_PACKS.get(pack, []))


class LintError(ValueError):
    """Raised when a lint gate finds error-severity diagnostics.

    The full :class:`LintReport` stays reachable via :attr:`report`
    (and the legacy :attr:`diagnostics` alias), so callers never lose
    findings to message truncation.
    """

    def __init__(self, report: "LintReport", context: str = "lint"):
        self.report = report
        self.context = context
        self.diagnostics = report.error_diagnostics
        shown = "; ".join(
            f"[{d.rule_id}] {d.message}" for d in self.diagnostics[:5]
        )
        more = (f" (+{len(self.diagnostics) - 5} more)"
                if len(self.diagnostics) > 5 else "")
        super().__init__(
            f"{context} failed: {len(self.diagnostics)} error(s): "
            f"{shown}{more}"
        )

    def __reduce__(self):
        # Rebuild from the report, not the message: a sweep worker's
        # LintError must unpickle intact in the parent process.
        return type(self), (self.report, self.context)


@dataclass
class LintReport:
    """Findings of one engine run (or several, merged).

    Attributes:
        diagnostics: All findings, sorted most severe first.
        rule_seconds: Wall-clock seconds spent per rule ID.
        suppressed: Findings dropped by a baseline (kept countable so
            reports can say "N known findings suppressed").
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    suppressed: List[Diagnostic] = field(default_factory=list)

    # -- queries --------------------------------------------------------
    @property
    def error_diagnostics(self) -> List[Diagnostic]:
        """Error-severity findings."""
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warning_diagnostics(self) -> List[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings are present."""
        return not self.error_diagnostics

    def counts(self) -> Dict[str, int]:
        """Finding counts per severity (always includes all levels)."""
        out = {sev: 0 for sev in SEVERITIES}
        for d in self.diagnostics:
            out[d.severity] += 1
        return out

    def by_rule(self) -> Dict[str, int]:
        """Finding counts per rule ID, sorted by rule ID."""
        out: Dict[str, int] = {}
        for d in sorted(self.diagnostics, key=lambda d: d.rule_id):
            out[d.rule_id] = out.get(d.rule_id, 0) + 1
        return out

    # -- mutation -------------------------------------------------------
    def sort(self) -> None:
        """Order findings by severity, then location, then rule."""
        self.diagnostics.sort(key=lambda d: (
            _SEVERITY_RANK[d.severity], d.file or "", d.line or 0,
            d.obj or "", d.rule_id, d.message,
        ))

    def merge(self, other: "LintReport") -> None:
        """Fold another report's findings and runtimes into this one."""
        self.diagnostics.extend(other.diagnostics)
        self.suppressed.extend(other.suppressed)
        for rule_id, seconds in other.rule_seconds.items():
            self.rule_seconds[rule_id] = (
                self.rule_seconds.get(rule_id, 0.0) + seconds
            )
        self.sort()

    def apply_baseline(self, baseline: "Baseline") -> None:
        """Move baselined findings from :attr:`diagnostics` to
        :attr:`suppressed`."""
        fresh: List[Diagnostic] = []
        for d in self.diagnostics:
            if baseline.contains(d):
                self.suppressed.append(d)
            else:
                fresh.append(d)
        self.diagnostics = fresh

    def raise_on_error(self, context: str = "lint") -> None:
        """Raise :class:`LintError` when error findings are present."""
        if not self.ok:
            raise LintError(self, context=context)

    # -- rendering ------------------------------------------------------
    def format_text(self) -> str:
        """Multi-line human-readable report."""
        lines = [d.format() for d in self.diagnostics]
        c = self.counts()
        summary = (f"{c[ERROR]} error(s), {c[WARNING]} warning(s), "
                   f"{c[INFO]} info")
        if self.suppressed:
            summary += f"; {len(self.suppressed)} baselined finding(s) suppressed"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready plain-data report (the CI artifact schema).

        Schema history: 1 — the original ``version``-keyed layout;
        2 — renamed the marker to ``schema`` (consumers should key on
        it) with otherwise identical structure.
        """
        return {
            "schema": 2,
            "summary": {
                "counts": self.counts(),
                "by_rule": self.by_rule(),
                "suppressed": len(self.suppressed),
                "ok": self.ok,
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
            "rule_seconds": {
                rule_id: round(seconds, 6)
                for rule_id, seconds in sorted(self.rule_seconds.items())
            },
        }


class Baseline:
    """A committed set of known-finding fingerprints.

    The baseline lets a new rule land with existing violations grand-
    fathered: CI compares fresh findings against the committed
    fingerprints and fails only on ones outside the set.  Entries keep
    enough metadata (rule, location, message) to stay reviewable.
    """

    def __init__(self, entries: Optional[Dict[str, Dict[str, Any]]] = None):
        self.entries: Dict[str, Dict[str, Any]] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def contains(self, diagnostic: Diagnostic) -> bool:
        """True when the finding is already baselined."""
        return diagnostic.fingerprint in self.entries

    @classmethod
    def from_report(cls, report: LintReport) -> "Baseline":
        """Baseline every finding of ``report`` (fresh and suppressed)."""
        entries: Dict[str, Dict[str, Any]] = {}
        for d in list(report.diagnostics) + list(report.suppressed):
            entries[d.fingerprint] = {
                "rule": d.rule_id,
                "location": d.location,
                "message": d.message,
            }
        return cls(entries)

    @classmethod
    def load(cls, path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return cls()
        if data.get("version") != 1:
            raise ValueError(
                f"unsupported baseline version in {path}: "
                f"{data.get('version')!r}"
            )
        return cls(data.get("entries", {}))

    def stale_entries(self, report: LintReport) -> Dict[str, Dict[str, Any]]:
        """Baseline entries that no finding of ``report`` matches.

        Only entries of rules that ran in ``report`` count, so a run of
        one pack never calls another pack's entries stale.  A fixed
        finding and a deleted file both leave such an entry; prune it
        with ``--update-baseline``.  Returns fingerprint -> entry,
        sorted by fingerprint.
        """
        found = {d.fingerprint
                 for d in report.diagnostics + report.suppressed}
        return {
            fp: self.entries[fp]
            for fp in sorted(self.entries)
            if self.entries[fp].get("rule") in report.rule_seconds
            and fp not in found
        }

    def save(self, path) -> None:
        """Write the baseline as reviewable, sorted JSON."""
        payload = {
            "version": 1,
            "entries": {
                fp: self.entries[fp] for fp in sorted(self.entries)
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


class _NoSpan:
    """Span stand-in when recording one would pollute the trace root.

    Trace consumers rely on the top-level spans being exactly the
    flow's stage keys, so the engine only records its ``lint.<pack>``
    span when nested inside an already-open span (a gate inside a
    stage); between-stage ``validate()`` runs stay span-free.
    """

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def counter(self, name, delta=1.0):
        pass

    def gauge(self, name, value):
        pass


def run_rules(rules: Iterable[Rule], ctx: Any,
              pack: str = "lint") -> LintReport:
    """Run ``rules`` against ``ctx`` and collect a sorted report.

    Per-rule wall-clock time and finding counts are recorded both on
    the report and as observability counters (span ``lint.<pack>``
    with one ``<rule>.findings`` counter and ``<rule>.ms`` gauge per
    rule, recorded only when nested inside an open stage span), so
    traced flows show where lint time goes.
    """
    report = LintReport()
    span_cm = obs.span(f"lint.{pack}") if obs.in_span() else _NoSpan()
    with span_cm as sp:
        for entry in rules:
            t0 = time.perf_counter()
            for diag in entry.check(ctx):
                if diag.hint is None and entry.hint is not None:
                    diag = Diagnostic(
                        rule_id=diag.rule_id, severity=diag.severity,
                        message=diag.message, obj=diag.obj,
                        file=diag.file, line=diag.line,
                        snippet=diag.snippet, hint=entry.hint,
                    )
                report.diagnostics.append(diag)
            seconds = time.perf_counter() - t0
            report.rule_seconds[entry.id] = (
                report.rule_seconds.get(entry.id, 0.0) + seconds
            )
            n = sum(1 for d in report.diagnostics if d.rule_id == entry.id)
            if n:
                sp.counter(f"{entry.id}.findings", n)
            sp.gauge(f"{entry.id}.ms", seconds * 1e3)
    report.sort()
    return report


def make_diagnostic(entry: Rule, message: str, *,
                    obj: Optional[str] = None,
                    file: Optional[str] = None,
                    line: Optional[int] = None,
                    snippet: Optional[str] = None,
                    severity: Optional[str] = None,
                    hint: Optional[str] = None) -> Diagnostic:
    """Build a finding carrying the rule's defaults.

    Helper for rule bodies: severity and hint fall back to the rule's
    registered defaults.
    """
    return Diagnostic(
        rule_id=entry.id,
        severity=severity or entry.severity,
        message=message,
        obj=obj, file=file, line=line, snippet=snippet,
        hint=hint if hint is not None else entry.hint,
    )


def find_rule(pack: str, rule_id: str) -> Rule:
    """Look up one registered rule (KeyError when absent)."""
    for entry in RULE_PACKS.get(pack, []):
        if entry.id == rule_id:
            return entry
    raise KeyError(f"no rule {rule_id!r} in pack {pack!r}")


__all__ = [
    "Baseline",
    "Diagnostic",
    "ERROR",
    "INFO",
    "LintError",
    "LintReport",
    "Rule",
    "RULE_PACKS",
    "SEVERITIES",
    "WARNING",
    "find_rule",
    "make_diagnostic",
    "pack_rules",
    "rule",
    "run_rules",
]
