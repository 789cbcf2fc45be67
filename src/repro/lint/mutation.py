"""Seeded-bug mutation checks: prove the lint packs can still bite.

A static analyser that never fires is indistinguishable from one that
is wired up wrong — the tree being clean is exactly the state in which
a silently broken rule looks healthy.  This module re-introduces, into
a scratch copy of the real sources, one representative bug from each
class the concurrency/resource packs exist to catch:

* ``drop-lock`` — the ``with self._lock:`` guarding the daemon's
  ``submit`` path becomes ``if True:`` (the race the lockset analysis
  and the ``shared-under`` annotations were built for);
* ``block-async`` — a ``time.sleep`` lands at the top of the server's
  ``async def _respond`` handler (stalls the event loop for every
  connected client);
* ``drop-fsync`` — the ``os.fsync`` in ``JsonlLog.append`` (the one
  durable writer under the sweep journal and the job store) disappears
  (breaks the §14 flush+fsync durability contract their recovery
  semantics rely on).

Each check fails loudly unless the expected rule fires on the mutated
copy.  Run as ``python -m repro.lint.mutation`` (CI) or through the
helpers from the test suite.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.lint.core import Diagnostic


@dataclass(frozen=True)
class Mutation:
    """One seeded bug: how to plant it and what must catch it."""

    name: str
    #: Source path relative to the lint root (``src/repro``).
    path: str
    #: Rule that must fire on the mutated copy.
    expect_rule: str
    description: str
    apply: Callable[[str], str]


def _drop_lock(text: str) -> str:
    """Turn ``submit``'s ``with self._lock:`` into ``if True:``."""
    anchor = text.index("def submit(")
    site = text.index("with self._lock:", anchor)
    return (text[:site] + "if True:  # mutation: lock dropped"
            + text[site + len("with self._lock:"):])


def _block_async(text: str) -> str:
    """Insert ``time.sleep(0.25)`` atop ``async def _respond``."""
    tree = ast.parse(text)
    target = None
    for node in ast.walk(tree):
        if (isinstance(node, ast.AsyncFunctionDef)
                and node.name == "_respond"):
            target = node
            break
    if target is None:
        raise ValueError("no 'async def _respond' to mutate")
    stall = ast.parse("time.sleep(0.25)").body[0]
    target.body.insert(0, stall)
    return ast.unparse(ast.fix_missing_locations(tree))


def _drop_fsync(text: str) -> str:
    """Replace ``append``'s ``os.fsync`` with ``pass``."""
    anchor = text.index("def append(")
    site = text.index("os.fsync(", anchor)
    line_start = text.rindex("\n", 0, site) + 1
    line_end = text.index("\n", site)
    indent = text[line_start:site]
    return (text[:line_start] + indent
            + "pass  # mutation: fsync dropped" + text[line_end:])


#: The seeded bugs, in check order.
MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        name="drop-lock",
        path="service/jobs.py",
        expect_rule="CONC001",
        description="JobManager.submit mutates guarded state without "
                    "holding self._lock",
        apply=_drop_lock,
    ),
    Mutation(
        name="block-async",
        path="service/server.py",
        expect_rule="CONC004",
        description="time.sleep() stalls the event loop inside "
                    "async def _respond",
        apply=_block_async,
    ),
    Mutation(
        name="drop-fsync",
        path="jsonl.py",
        expect_rule="RES004",
        description="JsonlLog.append flushes but never fsyncs "
                    "(breaks the durability contract)",
        apply=_drop_fsync,
    ),
)


def mutated_source(root: Path, mutation: Mutation) -> str:
    """The mutated text of ``mutation``'s target file under ``root``.

    Raises ``ValueError`` (or ``IndexError`` from ``str.index``) when
    the anchor the mutation keys on no longer exists — a moved target
    must fail the check loudly, not skip it.
    """
    source = (root / mutation.path).read_text(encoding="utf-8")
    return mutation.apply(source)


def check_mutation(root: Path, mutation: Mutation,
                   workdir: Path) -> List[Diagnostic]:
    """Plant ``mutation`` in a scratch tree and lint it.

    Returns the diagnostics matching ``mutation.expect_rule`` — empty
    means the seeded bug escaped (the check failed).
    """
    from repro.lint.self import lint_python

    target = workdir / mutation.path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(mutated_source(root, mutation), encoding="utf-8")
    report = lint_python(workdir, files=[target], packs=("conc", "res"))
    return [d for d in report.diagnostics
            if d.rule_id == mutation.expect_rule]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run every seeded mutation; exit 1 when any escapes."""
    import argparse

    from repro.lint.selfrules import default_source_root

    parser = argparse.ArgumentParser(
        prog="repro.lint.mutation",
        description="verify the concurrency/resource lint packs catch "
                    "seeded bugs in the real sources",
    )
    parser.add_argument("--src", default=None, metavar="DIR",
                        help="source root to mutate (default: the "
                             "installed repro package)")
    args = parser.parse_args(argv)
    root = Path(args.src) if args.src else default_source_root()

    escaped = 0
    for mutation in MUTATIONS:
        with tempfile.TemporaryDirectory(prefix="repro-lint-mut-") as tmp:
            hits = check_mutation(root, mutation, Path(tmp))
        if hits:
            lines = sorted(d.location for d in hits)
            print(f"caught  {mutation.name}: [{mutation.expect_rule}] "
                  f"x{len(hits)} ({lines[0]})")
        else:
            escaped += 1
            print(f"ESCAPED {mutation.name}: no {mutation.expect_rule} "
                  f"finding on mutated {mutation.path} "
                  f"({mutation.description})")
    if escaped:
        print(f"\nmutation check: {escaped} of {len(MUTATIONS)} seeded "
              f"bug(s) escaped the lint packs")
        return 1
    print(f"mutation check OK: {len(MUTATIONS)}/{len(MUTATIONS)} seeded "
          f"bugs caught")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
