"""Tests for the determinism self-lint (AST rules over the sources)."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.core import Baseline
from repro.lint.self import (
    default_baseline_path,
    lint_python,
    main as self_main,
)
from repro.lint.selfrules import (
    default_source_root,
    lint_sources,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _lint_snippet(tmp_path, code, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return lint_sources(tmp_path)


def _ids(report):
    return [d.rule_id for d in report.diagnostics]


# ---------------------------------------------------------------------------
# One fixture source per rule


def test_self001_flags_set_iteration(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(items):
            for item in set(items):
                print(item)
            return [x for x in {1, 2, 3}]
    """)
    assert _ids(report).count("SELF001") == 2
    assert report.diagnostics[0].file == "mod.py"
    assert report.diagnostics[0].snippet


def test_self001_allows_sorted_and_fromkeys(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(items):
            for item in sorted(set(items)):
                print(item)
            for item in dict.fromkeys(items):
                print(item)
    """)
    assert "SELF001" not in _ids(report)


def test_self002_flags_global_rng_allows_seeded(tmp_path):
    report = _lint_snippet(tmp_path, """\
        import random

        def f(seed):
            rng = random.Random(seed)
            return rng.random() + random.random()
    """)
    assert _ids(report).count("SELF002") == 1
    msg = next(d for d in report.diagnostics if d.rule_id == "SELF002")
    assert "random.random()" in msg.message


def test_self003_flags_wallclock_outside_allowlist(tmp_path):
    code = """\
        import time
        import datetime

        def f():
            return time.time(), datetime.datetime.now()
    """
    flagged = _lint_snippet(tmp_path / "a", code, name="core/stage.py")
    assert _ids(flagged).count("SELF003") == 2
    # The observability layer is allowed to timestamp by design.
    allowed = _lint_snippet(tmp_path / "b", code, name="obs/tracer.py")
    assert "SELF003" not in _ids(allowed)


def test_self004_flags_mutable_defaults(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(a, cache={}, *, log=[]):
            return a

        def g(a, cache=None):
            return a
    """)
    assert _ids(report).count("SELF004") == 2


def test_self005_flags_list_over_set(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(items):
            frozen = list({i for i in items})
            ordered = sorted(set(items))
            return frozen, ordered
    """)
    assert _ids(report).count("SELF005") == 1


def test_self006_flags_impure_cache_key(tmp_path):
    report = _lint_snippet(tmp_path, """\
        import time

        def flow_cache_key(config):
            return (id(config), time.time())

        def unrelated():
            return time.time()
    """)
    ids = _ids(report)
    # id() and the time reference, both inside the cache-key function.
    assert ids.count("SELF006") == 2
    assert all(d.severity == "error" for d in report.diagnostics
               if d.rule_id == "SELF006")


def test_inline_suppression_comment(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(items):
            for item in set(items):  # lint: disable=SELF001
                print(item)
    """)
    assert "SELF001" not in _ids(report)


def test_unparseable_source_is_an_error(tmp_path):
    (tmp_path / "bad.py").write_text("def broken(:\n")
    with pytest.raises(SyntaxError):
        lint_sources(tmp_path)


# ---------------------------------------------------------------------------
# The real tree


def test_repro_sources_pass_with_committed_baseline():
    report = lint_sources(default_source_root())
    baseline = Baseline.load(default_baseline_path())
    report.apply_baseline(baseline)
    assert report.diagnostics == [], report.format_text()


def test_baseline_entries_still_exist():
    """Fixed findings must leave the baseline (it only shrinks)."""
    report = lint_python()
    baseline = Baseline.load(default_baseline_path())
    stale = baseline.stale_entries(report)
    assert not stale, (
        "baseline entries no longer matched by any finding; re-run "
        "python -m repro.lint.self --update-baseline: "
        + ", ".join(baseline.entries[fp]["location"] for fp in stale)
    )


def test_levelize_is_clean_of_set_iteration():
    """Regression: the historical levelize set-order bug stays fixed."""
    target = default_source_root() / "netlist" / "levelize.py"
    report = lint_sources(default_source_root(), files=[target])
    assert "SELF001" not in _ids(report)
    assert "SELF005" not in _ids(report)


# ---------------------------------------------------------------------------
# The CI entry point (python -m repro.lint.self)


def test_self_main_gates_and_writes_json(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "dirty.py").write_text("def f(x):\n    return list(set(x))\n")
    baseline = tmp_path / "baseline.json"
    out = tmp_path / "report.json"

    code = self_main(["--src", str(src), "--baseline", str(baseline),
                      "--json", str(out)])
    assert code == 4
    assert "SELF005" in capsys.readouterr().out
    assert json.loads(out.read_text())["summary"]["ok"] is False

    # Baselining the finding turns the gate green...
    assert self_main(["--src", str(src), "--baseline", str(baseline),
                      "--update-baseline"]) == 0
    assert self_main(["--src", str(src),
                      "--baseline", str(baseline)]) == 0
    capsys.readouterr()

    # ...but a *new* finding still fails.
    (src / "dirty.py").write_text(
        "def f(x):\n    return list(set(x))\n\n"
        "def g(x):\n    return tuple(set(x))\n"
    )
    assert self_main(["--src", str(src),
                      "--baseline", str(baseline)]) == 4
    assert "1 new finding(s)" in capsys.readouterr().out


def test_self_main_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint.self"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-lint OK" in proc.stdout


def test_self_main_rejects_unknown_pack(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "ok.py").write_text("x = 1\n")
    with pytest.raises(SystemExit) as exc:
        self_main(["--src", str(src), "--packs", "self,nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Suppression lists and SELF007 (directive hygiene)


def test_disable_accepts_comma_separated_rule_list(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(x):
            return list({i for i in set(x)})  # lint: disable=SELF001,SELF005
    """)
    assert "SELF001" not in _ids(report)
    assert "SELF005" not in _ids(report)


def test_disable_list_only_suppresses_named_rules(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(x):
            return list({i for i in set(x)})  # lint: disable=SELF001
    """)
    assert "SELF001" not in _ids(report)
    assert "SELF005" in _ids(report)


def test_self007_flags_unknown_rule_in_disable(tmp_path):
    report = _lint_snippet(tmp_path, """\
        def f(x):
            return x  # lint: disable=SELF001,NOPE999
    """)
    findings = [d for d in report.diagnostics if d.rule_id == "SELF007"]
    assert len(findings) == 1
    assert "NOPE999" in findings[0].message


def test_self007_flags_unknown_directive_key(tmp_path):
    report = _lint_snippet(tmp_path, """\
        x = 1  # lint: sharred-under=_lock
    """)
    findings = [d for d in report.diagnostics if d.rule_id == "SELF007"]
    assert len(findings) == 1
    assert "sharred-under" in findings[0].message


def test_self007_ignores_directives_in_docstrings(tmp_path):
    report = _lint_snippet(tmp_path, '''\
        def f():
            """Write "# lint: disable=NOPE999" to suppress a rule."""
            return 1
    ''')
    assert "SELF007" not in _ids(report)


# ---------------------------------------------------------------------------
# Report schema and baseline staleness


def test_report_json_schema_is_versioned(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "dirty.py").write_text("def f(x):\n    return list(set(x))\n")
    out = tmp_path / "report.json"
    code = self_main(["--src", str(src),
                      "--baseline", str(tmp_path / "baseline.json"),
                      "--json", str(out)])
    assert code == 4
    payload = json.loads(out.read_text())
    assert payload["schema"] == 2
    assert "stale_baseline" in payload


def test_stale_baseline_entries_are_reported_not_fatal(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    doomed = src / "doomed.py"
    doomed.write_text("def f(x):\n    return list(set(x))\n")
    baseline = tmp_path / "baseline.json"
    assert self_main(["--src", str(src), "--baseline", str(baseline),
                      "--update-baseline"]) == 0
    capsys.readouterr()

    # The flagged file disappears: its baseline entry goes stale, the
    # gate stays green, and the staleness is reported.
    doomed.unlink()
    (src / "clean.py").write_text("x = 1\n")
    out = tmp_path / "report.json"
    assert self_main(["--src", str(src), "--baseline", str(baseline),
                      "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "stale baseline entry" in printed
    assert "doomed.py" in printed
    assert "1 stale" in printed
    assert json.loads(out.read_text())["stale_baseline"]

    # --update-baseline prunes the stale entry.
    assert self_main(["--src", str(src), "--baseline", str(baseline),
                      "--update-baseline"]) == 0
    capsys.readouterr()
    assert json.loads(baseline.read_text())["entries"] == {}
