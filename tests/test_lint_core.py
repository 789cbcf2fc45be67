"""Tests for the static-analysis engine core: rules, reports, baseline."""

import json
import pickle

import pytest

from repro.lint import (
    Baseline,
    Diagnostic,
    ERROR,
    INFO,
    LintError,
    LintReport,
    WARNING,
)
from repro.lint.core import (
    RULE_PACKS,
    find_rule,
    make_diagnostic,
    pack_rules,
    rule,
    run_rules,
)


@pytest.fixture()
def scratch_pack():
    """A throwaway rule pack, deregistered after the test."""
    name = "scratch-test-pack"
    yield name
    RULE_PACKS.pop(name, None)


def _diag(rule_id="T001", severity=ERROR, message="boom", **kw):
    return Diagnostic(rule_id=rule_id, severity=severity,
                      message=message, **kw)


# ---------------------------------------------------------------------------
# Diagnostic


def test_diagnostic_rejects_unknown_severity():
    with pytest.raises(ValueError, match="unknown severity"):
        Diagnostic(rule_id="T001", severity="fatal", message="x")


def test_diagnostic_location_and_format():
    src = _diag(file="a/b.py", line=7, hint="sort it")
    assert src.location == "a/b.py:7"
    assert "[T001]" in src.format()
    assert "(hint: sort it)" in src.format()
    design = _diag(obj="net_42")
    assert design.location == "net_42"
    assert _diag().location == "<design>"


def test_fingerprint_tolerates_line_drift():
    a = _diag(file="m.py", line=10, snippet="for x in set(y):")
    b = _diag(file="m.py", line=99, snippet="for x in set(y):")
    assert a.fingerprint == b.fingerprint
    c = _diag(file="m.py", line=10, snippet="for x in sorted(y):")
    assert a.fingerprint != c.fingerprint


def test_fingerprint_distinguishes_design_objects():
    assert (_diag(obj="net_a").fingerprint
            != _diag(obj="net_b").fingerprint)


def test_diagnostic_to_dict_omits_empty_fields():
    d = _diag(obj="n1").to_dict()
    assert d["rule"] == "T001" and d["obj"] == "n1"
    assert "file" not in d and "hint" not in d
    assert d["fingerprint"] == _diag(obj="n1").fingerprint


# ---------------------------------------------------------------------------
# Rule registration and the engine


def test_rule_decorator_registers_and_rejects_duplicates(scratch_pack):
    @rule(scratch_pack, "T001", "first", severity=WARNING)
    def first(ctx):
        return []

    assert [r.id for r in pack_rules(scratch_pack)] == ["T001"]
    assert find_rule(scratch_pack, "T001").severity == WARNING
    with pytest.raises(ValueError, match="duplicate rule id"):
        @rule(scratch_pack, "T001", "again")
        def again(ctx):
            return []


def test_run_rules_collects_sorts_and_times(scratch_pack):
    @rule(scratch_pack, "T002", "warns", severity=WARNING)
    def warns(ctx):
        yield make_diagnostic(find_rule(scratch_pack, "T002"), "late",
                              obj="z")

    @rule(scratch_pack, "T001", "errors", severity=ERROR,
          hint="default hint")
    def errors(ctx):
        yield make_diagnostic(find_rule(scratch_pack, "T001"), "early",
                              obj="a")

    report = run_rules(pack_rules(scratch_pack), ctx=None,
                       pack=scratch_pack)
    # Sorted most severe first even though the warning rule ran first.
    assert [d.severity for d in report.diagnostics] == [ERROR, WARNING]
    assert report.diagnostics[0].hint == "default hint"
    assert set(report.rule_seconds) == {"T001", "T002"}
    assert report.by_rule() == {"T001": 1, "T002": 1}


def test_find_rule_unknown_raises():
    with pytest.raises(KeyError):
        find_rule("netlist", "NOPE999")


# ---------------------------------------------------------------------------
# LintReport


def test_report_counts_ok_and_text():
    report = LintReport(diagnostics=[
        _diag("T001", ERROR, "e1"),
        _diag("T002", WARNING, "w1"),
        _diag("T003", INFO, "i1"),
    ])
    assert report.counts() == {ERROR: 1, WARNING: 1, INFO: 1}
    assert not report.ok
    text = report.format_text()
    assert "1 error(s), 1 warning(s), 1 info" in text
    assert LintReport().ok


def test_raise_on_error_keeps_full_list_and_rule_ids():
    diags = [_diag("T001", ERROR, f"err {i}", obj=f"n{i}")
             for i in range(8)]
    report = LintReport(diagnostics=diags)
    with pytest.raises(LintError) as excinfo:
        report.raise_on_error(context="gate test")
    err = excinfo.value
    # Message: context, count, rule IDs, and an elision marker -- but
    # the complete list stays reachable on the exception.
    assert "gate test failed: 8 error(s)" in str(err)
    assert "[T001]" in str(err)
    assert "(+3 more)" in str(err)
    assert isinstance(err, ValueError)
    assert len(err.diagnostics) == 8
    assert err.report is report


def test_lint_error_survives_a_pickle_round_trip():
    # A sweep worker's lint-gate failure crosses back to the parent.
    report = LintReport(diagnostics=[_diag("T001", ERROR, "undriven",
                                           obj="n1")])
    err = LintError(report, context="lint gate 'stage0'")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, LintError)
    assert str(clone) == str(err)
    assert clone.context == err.context
    assert clone.report == report
    assert [d.rule_id for d in clone.diagnostics] == ["T001"]


def test_raise_on_error_noop_when_clean():
    LintReport(diagnostics=[_diag(severity=WARNING)]).raise_on_error()


def test_merge_folds_findings_and_runtimes():
    a = LintReport(diagnostics=[_diag("T001", WARNING, "w")],
                   rule_seconds={"T001": 1.0})
    b = LintReport(diagnostics=[_diag("T002", ERROR, "e")],
                   rule_seconds={"T001": 0.5, "T002": 2.0})
    a.merge(b)
    assert [d.severity for d in a.diagnostics] == [ERROR, WARNING]
    assert a.rule_seconds == {"T001": 1.5, "T002": 2.0}


def test_report_json_schema_roundtrips(tmp_path):
    report = LintReport(diagnostics=[_diag(obj="n1")],
                        rule_seconds={"T001": 0.25})
    payload = report.to_json()
    # The CI artifact must stay json-serialisable and versioned.
    parsed = json.loads(json.dumps(payload))
    assert parsed["schema"] == 2
    assert parsed["summary"]["ok"] is False
    assert parsed["summary"]["by_rule"] == {"T001": 1}
    assert parsed["diagnostics"][0]["rule"] == "T001"


# ---------------------------------------------------------------------------
# Baseline


def test_baseline_roundtrip_and_suppression(tmp_path):
    known = _diag("T001", ERROR, "known", obj="n1")
    fresh = _diag("T001", ERROR, "fresh", obj="n2")
    baseline = Baseline.from_report(LintReport(diagnostics=[known]))
    path = tmp_path / "baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert len(loaded) == 1

    report = LintReport(diagnostics=[known, fresh])
    report.apply_baseline(loaded)
    assert report.diagnostics == [fresh]
    assert report.suppressed == [known]
    # A baselined-only report is clean: the gate passes.
    clean = LintReport(diagnostics=[known])
    clean.apply_baseline(loaded)
    assert clean.ok and clean.suppressed == [known]


def test_baseline_missing_file_is_empty(tmp_path):
    assert len(Baseline.load(tmp_path / "nope.json")) == 0


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "entries": {}}')
    with pytest.raises(ValueError, match="unsupported baseline version"):
        Baseline.load(path)


def test_baseline_file_is_reviewable(tmp_path):
    diag = _diag("T001", ERROR, "msg", file="m.py", line=3, snippet="x")
    path = tmp_path / "baseline.json"
    Baseline.from_report(LintReport(diagnostics=[diag])).save(path)
    data = json.loads(path.read_text())
    entry = data["entries"][diag.fingerprint]
    # Entries carry rule/location/message so reviews don't need to
    # reverse hashes.
    assert entry == {"rule": "T001", "location": "m.py:3",
                     "message": "msg"}
