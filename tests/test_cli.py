"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace


def test_flow_command(capsys):
    rc = main(["flow", "--circuit", "s38417", "--scale", "0.015",
               "--tp", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "patterns" in out and "T_cp" in out and "chip" in out


def test_lbist_command(capsys):
    rc = main(["lbist", "--circuit", "s38417", "--scale", "0.02",
               "--patterns", "256", "--tp", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FC no TPs" in out


def test_render_command(tmp_path, capsys):
    rc = main(["render", "--circuit", "s38417", "--scale", "0.02",
               "--tp", "2", "--out", str(tmp_path)])
    assert rc == 0
    for stage in ("floorplan", "placement", "routed"):
        path = tmp_path / f"s38417_{stage}.svg"
        assert path.exists()
        assert path.read_text().startswith("<svg")


def test_unknown_circuit_rejected():
    with pytest.raises(SystemExit):
        main(["flow", "--circuit", "nope"])


def test_unknown_circuit_exits_2_with_did_you_mean(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--circuit", "s38416"])
    assert err.value.code == 2  # usage error, not a KeyError traceback
    stderr = capsys.readouterr().err
    assert "unknown circuit 's38416'" in stderr
    assert "did you mean 's38417'?" in stderr
    assert "control_core" in stderr  # the full choices list prints too


def test_degraded_sweep_prints_failures_and_exits_3(tmp_path, capsys):
    from repro.chaos import FaultPlan, FaultSpec

    plan_path = tmp_path / "plan.json"
    FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="s38417", tp_percent=2.0,
                  stage="tpi_scan", times=-1),
    )).save(plan_path)
    rc = main(["sweep", "--circuit", "s38417", "--scale", "0.01",
               "--tp-percents", "0,2", "--retries", "0",
               "--cache-dir", str(tmp_path / "cache"),
               "--chaos", str(plan_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "Table 1" in out  # tables render despite the hole
    assert "FAILED cells (1" in out
    assert "InjectedFault" in out
    assert "journal" in out


def test_sweep_with_every_cell_failed_exits_3(tmp_path, capsys):
    from repro.chaos import FaultPlan, FaultSpec

    plan_path = tmp_path / "plan.json"
    FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="*", stage="tpi_scan", times=-1),
    )).save(plan_path)
    rc = main(["sweep", "--circuit", "s38417", "--scale", "0.005",
               "--tp-percents", "0,1", "--retries", "0",
               "--chaos", str(plan_path)])
    assert rc == 3
    out = capsys.readouterr().out
    # No baseline cell, so no tables: a note, then the failure table.
    assert "Table 1" not in out
    assert "s38417: no cell finished" in out
    assert "FAILED cells (2" in out
    assert out.count("InjectedFault") == 2


def test_result_of_a_job_whose_every_cell_failed_exits_3(monkeypatch,
                                                         capsys):
    from repro.core import ExperimentResult, SweepReport, TaskFailure
    from repro.service import ServiceClient

    report = SweepReport(
        results={"s38417": ExperimentResult(name="s38417", runs={})},
        failures=tuple(
            TaskFailure(name="s38417", tp_percent=pct, attempts=1,
                        error_type="InjectedFault", error_message="boom")
            for pct in (0.0, 1.0)),
        cache_misses=2,
    )
    monkeypatch.setattr(ServiceClient, "result",
                        lambda self, job_id: report)
    rc = main(["result", "j0", "--url", "http://127.0.0.1:9"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "Table 1" not in out
    assert "s38417: no cell finished" in out
    assert "[service] cache hits=0 misses=2" in out
    assert "FAILED cells (2" in out


def test_sweep_resume_completes_after_chaos(tmp_path, capsys):
    from repro.chaos import FaultPlan, FaultSpec

    plan_path = tmp_path / "plan.json"
    FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="s38417", tp_percent=2.0,
                  stage="tpi_scan", times=-1),
    )).save(plan_path)
    cache = str(tmp_path / "cache")
    assert main(["sweep", "--circuit", "s38417", "--scale", "0.01",
                 "--tp-percents", "0,2", "--retries", "0",
                 "--cache-dir", cache, "--chaos", str(plan_path)]) == 3
    capsys.readouterr()
    rc = main(["sweep", "--circuit", "s38417", "--scale", "0.01",
               "--tp-percents", "0,2", "--cache-dir", cache])
    assert rc == 0
    out = capsys.readouterr().out
    assert "served from cache: 0%" in out
    assert "FAILED" not in out


def _undriven_s38417(scale):
    """s38417 with one undriven net (picklable, for --jobs 2)."""
    from repro.circuits import s38417_like

    circuit = s38417_like(scale=scale)
    circuit.add_net("orphan_probe")
    return circuit


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_lint_failure_exits_4_at_every_job_count(jobs, monkeypatch,
                                                       capsys):
    from repro import api

    spec = api.CIRCUITS["s38417"]
    monkeypatch.setitem(api.CIRCUITS, "s38417", api.CircuitSpec(
        _undriven_s38417, spec.flow_defaults))
    rc = main(["sweep", "--circuit", "s38417", "--scale", "0.01",
               "--tp-percents", "0", "--lint", "--jobs", jobs])
    assert rc == 4
    out = capsys.readouterr().out
    assert "[NL001]" in out and "\naborted: " in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_negative_tp_percents_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--tp-percents", "0,-1,2"])
    assert "non-negative" in capsys.readouterr().err


def test_duplicate_tp_percents_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--tp-percents", "0,2,2"])
    assert "duplicate" in capsys.readouterr().err


def test_garbage_tp_percents_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--tp-percents", "0,two"])
    assert "comma-separated" in capsys.readouterr().err


def test_flow_trace_writes_valid_chrome_trace(tmp_path, capsys):
    trace_path = tmp_path / "flow.json"
    rc = main(["flow", "--circuit", "s38417", "--scale", "0.012",
               "--tp", "2", "--trace", str(trace_path)])
    assert rc == 0
    obj = json.loads(trace_path.read_text())
    assert validate_chrome_trace(obj) == []
    out = capsys.readouterr().out
    assert "wrote trace" in out
    assert "tpi_scan" in out  # the per-stage summary table printed


def test_sweep_trace_merges_levels_into_one_file(tmp_path, capsys):
    trace_path = tmp_path / "sweep.json"
    rc = main(["sweep", "--circuit", "s38417", "--scale", "0.01",
               "--tp-percents", "0,2", "--trace", str(trace_path)])
    assert rc == 0
    obj = json.loads(trace_path.read_text())
    assert validate_chrome_trace(obj) == []
    names = {e["name"] for e in obj["traceEvents"]}
    assert "tpi_scan" in names and "atpg" in names
    out = capsys.readouterr().out
    assert "Stage runtimes" in out


@pytest.mark.parametrize("content, message", [
    ('{"not": "a trace"}', "cannot read"),
    ("not json at all", "cannot read"),
    ('{"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0, '
     '"dur": 1}]}', "missing 'name'"),
    ('{"repro_traces": [{"label": "cell", "pid": 1, "spans": []}]}',
     "cannot read"),
], ids=["not-a-trace", "not-json", "nameless-event", "raw-bundle"])
def test_trace_summarize_rejects_bad_input(tmp_path, capsys, content,
                                           message):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["trace", "summarize", str(path)]) == 1
    assert message in capsys.readouterr().err


# ----------------------------------------------------------------------
# Service subcommands (submit / status / result / cancel)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service_daemon(tmp_path_factory):
    from repro.service import ServiceConfig, ServiceThread

    cache_dir = tmp_path_factory.mktemp("cli_service")
    with ServiceThread(ServiceConfig(port=0, cache_dir=str(cache_dir),
                                     job_workers=1)) as thread:
        yield thread


def test_submit_wait_prints_same_tables_as_sweep(service_daemon,
                                                 capsys):
    rc = main(["submit", "--circuit", "s38417", "--scale", "0.012",
               "--tp-percents", "0,2", "--url", service_daemon.base_url,
               "--wait", "--timeout", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    job_id = out.split()[1]
    assert "Table 1" in out and "Table 3" in out

    # status and result keep working after completion.
    rc = main(["status", job_id, "--url", service_daemon.base_url])
    assert rc == 0
    out = capsys.readouterr().out
    assert "done" in out and "cells 2/2" in out

    rc = main(["result", job_id, "--url", service_daemon.base_url])
    assert rc == 0
    assert "Table 2" in capsys.readouterr().out


def test_submit_without_wait_prints_poll_hints(service_daemon, capsys):
    rc = main(["submit", "--circuit", "s38417", "--scale", "0.012",
               "--tp-percents", "0,2", "--url",
               service_daemon.base_url])
    assert rc == 0
    out = capsys.readouterr().out
    assert "python -m repro status" in out
    job_id = out.split()[1]
    rc = main(["cancel", job_id, "--url", service_daemon.base_url])
    assert rc == 0


def test_service_error_prints_cleanly_not_a_traceback(service_daemon,
                                                      capsys):
    rc = main(["status", "jmissing", "--url", service_daemon.base_url])
    assert rc == 1
    err = capsys.readouterr().err
    assert "service error" in err and "404" in err


def test_submit_rejects_unknown_circuit_locally(capsys):
    # The CLI's did-you-mean fires before any socket is opened.
    with pytest.raises(SystemExit) as err:
        main(["submit", "--circuit", "s38416", "--url",
              "http://127.0.0.1:1"])
    assert err.value.code == 2
    assert "did you mean 's38417'?" in capsys.readouterr().err
