"""CI entry point of the source self-lint (all Python rule packs).

Runs the determinism rules (``SELF001``–``SELF007``), the concurrency
lockset pack (``CONC001``–``CONC007``) and the resource/durability
pack (``RES001``–``RES004``) over one parse of the source tree.

Usage::

    python -m repro.lint.self                 # gate against the baseline
    python -m repro.lint.self --packs self    # determinism rules only
    python -m repro.lint.self --json out.json # also write the report
    python -m repro.lint.self --update-baseline

Exit codes: 0 — no findings outside the committed baseline; 4 — new
findings (any severity); 2 — usage error.  The baseline lives at the
repository root as ``lint-baseline.json``: it grandfathers the
violations that existed when a rule landed, so CI blocks only *new*
findings.  Shrink it over time by fixing entries and re-running with
``--update-baseline``; entries that no current finding matches are
reported as stale (and dropped on the next ``--update-baseline``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.core import Baseline, LintReport, pack_rules, run_rules
from repro.lint.selfrules import collect_modules, default_source_root

#: Exit code when new (non-baselined) findings are present; distinct
#: from argparse's usage errors (2) and the sweep's degraded exit (3).
EXIT_LINT_FAILED = 4

#: Python-source rule packs, in run order.
DEFAULT_PACKS = ("self", "conc", "res")


def default_baseline_path() -> Path:
    """``lint-baseline.json`` at the repository root.

    Resolved relative to the installed package (``src/repro`` ->
    repository root) so the command works from any working directory
    of a source checkout.
    """
    return default_source_root().parent.parent / "lint-baseline.json"


def lint_python(root: Optional[Path] = None,
                files: Optional[Sequence[Path]] = None,
                packs: Sequence[str] = DEFAULT_PACKS) -> LintReport:
    """Run the selected source rule packs over one parsed tree.

    The modules are collected and parsed once; every pack runs against
    the same :class:`~repro.lint.selfrules.SourceContext` (sharing its
    analysis caches), and the reports merge into one.
    """
    # Importing the pack modules registers their rules.
    import repro.lint.concrules  # noqa: F401
    import repro.lint.resrules  # noqa: F401
    import repro.lint.selfrules  # noqa: F401

    ctx = collect_modules(root or default_source_root(), files)
    report = LintReport()
    for pack in packs:
        rules = pack_rules(pack)
        if not rules:
            raise ValueError(f"unknown rule pack {pack!r}")
        report.merge(run_rules(rules, ctx, pack=pack))
    return report


def main(argv: Optional[list] = None) -> int:
    """Run the source lint, apply the baseline, report and gate."""
    parser = argparse.ArgumentParser(
        prog="repro.lint.self",
        description="static analysis over the repro sources "
                    "(determinism, concurrency, resource safety)",
    )
    parser.add_argument("--src", default=None, metavar="DIR",
                        help="source root to audit (default: the "
                             "installed repro package)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file of grandfathered findings "
                             "(default: lint-baseline.json at the repo "
                             "root)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full JSON report to PATH")
    parser.add_argument("--packs", default=",".join(DEFAULT_PACKS),
                        metavar="NAMES",
                        help="comma-separated rule packs to run "
                             f"(default: {','.join(DEFAULT_PACKS)})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings instead of gating on them")
    args = parser.parse_args(argv)

    root = Path(args.src) if args.src else default_source_root()
    baseline_path = (Path(args.baseline) if args.baseline
                     else default_baseline_path())
    packs = tuple(p.strip() for p in args.packs.split(",") if p.strip())

    try:
        report = lint_python(root, packs=packs)
    except ValueError as exc:
        parser.error(str(exc))

    if args.update_baseline:
        Baseline.from_report(report).save(baseline_path)
        print(f"wrote {len(report.diagnostics)} fingerprint(s) to "
              f"{baseline_path}")
        return 0

    baseline = Baseline.load(baseline_path)
    report.apply_baseline(baseline)
    stale = baseline.stale_entries(report)

    if args.json:
        payload = report.to_json()
        payload["stale_baseline"] = stale
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    for fingerprint in stale:
        entry = stale[fingerprint]
        print(f"stale baseline entry {fingerprint}: "
              f"[{entry.get('rule')}] {entry.get('location')} matches "
              f"no finding; prune with --update-baseline")

    if report.diagnostics:
        print(report.format_text())
        print(f"\nself-lint: {len(report.diagnostics)} new finding(s) "
              f"not covered by {baseline_path.name}; fix them or "
              f"re-baseline with --update-baseline")
        return EXIT_LINT_FAILED
    print(f"self-lint OK: 0 new findings "
          f"({len(report.suppressed)} baselined, "
          f"{len(baseline)} baseline entries, {len(stale)} stale)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
