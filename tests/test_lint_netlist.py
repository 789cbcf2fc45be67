"""Tests for the netlist/DFT rule pack and its flow/CLI gates."""

import pytest

import repro
from repro import api, cli
from repro.core import flow as flow_mod
from repro.core.flow import FlowConfig, run_flow
from repro.lint import LintError
from repro.lint.netlist_rules import lint_netlist, structural_rules
from repro.netlist import Circuit, validate
from repro.scan import insert_scan


def _rule_ids(report):
    return {d.rule_id for d in report.diagnostics}


def _loop_circuit(lib):
    """Two inverters in a combinational cycle."""
    c = Circuit("looped")
    c.add_net("n1")
    c.add_net("n2")
    c.add_instance("inv_a", lib["INV_X1"], {"A": "n1", "Z": "n2"})
    c.add_instance("inv_b", lib["INV_X1"], {"A": "n2", "Z": "n1"})
    return c


def _scan_circuit(lib, small_circuit_mutable):
    circuit = small_circuit_mutable
    chains = insert_scan(circuit, lib, max_chain_length=100)
    return circuit, chains


# ---------------------------------------------------------------------------
# Pathological circuits


def test_combinational_loop_detected(lib):
    report = lint_netlist(_loop_circuit(lib))
    assert "DFT001" in _rule_ids(report)
    assert not report.ok
    msg = next(d for d in report.diagnostics if d.rule_id == "DFT001")
    assert "combinational loop" in msg.message


def test_multi_driven_net_detected(lib):
    c = Circuit("shorted")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("inv_a", lib["INV_X1"], {"A": "a", "Z": "n1"})
    rogue = c.add_instance("inv_b", lib["INV_X1"], {"A": "a"})
    # Circuit.connect refuses a second driver, so corrupt the pin map
    # directly -- exactly the torn-rewrite shape NL002 exists for.
    rogue.conns["Z"] = "n1"
    report = lint_netlist(c)
    assert "NL002" in _rule_ids(report)
    msg = next(d for d in report.diagnostics if d.rule_id == "NL002")
    assert "inv_a.Z" in msg.message and "inv_b.Z" in msg.message


def test_scan_chain_cut_detected(lib, small_circuit_mutable):
    circuit, chains = _scan_circuit(lib, small_circuit_mutable)
    victim = next(
        (chain[1] for chain in chains.chains if len(chain) > 1))
    inst = circuit.instances[victim]
    ti = inst.cell.sequential.scan_in
    # Rewire the TI pin back to the chain head's input: structurally
    # valid (validate() passes) but the shift path is broken.
    circuit.disconnect(victim, ti)
    circuit.connect(victim, ti, chains.scan_in_ports[0])
    assert validate(circuit).ok
    report = lint_netlist(circuit, chains=chains)
    assert "DFT004" in _rule_ids(report)
    msg = next(d for d in report.diagnostics if d.rule_id == "DFT004")
    assert f"cut at {victim!r}" in msg.message


def test_unscanned_flip_flop_detected(lib, small_circuit_mutable):
    circuit, chains = _scan_circuit(lib, small_circuit_mutable)
    orphan = chains.chains[0].pop()
    report = lint_netlist(circuit, chains=chains)
    ids = _rule_ids(report)
    # The dropped FF is flagged; the now-cut chain tail too.
    assert "DFT003" in ids
    assert orphan in {d.obj for d in report.diagnostics
                      if d.rule_id == "DFT003"}


def test_chain_continuity_sees_through_buffers(lib,
                                               small_circuit_mutable):
    circuit, chains = _scan_circuit(lib, small_circuit_mutable)
    head, second = chains.chains[0][0], chains.chains[0][1]
    q_net = circuit.instances[head].conns[
        circuit.instances[head].cell.sequential.output_pin]
    ti = circuit.instances[second].cell.sequential.scan_in
    # Legal electrical fix-up: a fanout buffer between Q and TI.
    new_net = circuit.split_net_before_sinks(q_net, [(second, ti)], "fo")
    buf = lib.family("BUF")[-1]
    circuit.add_instance("fobuf_t", buf, {"A": q_net, "Z": new_net.name})
    report = lint_netlist(circuit, chains=chains)
    assert "DFT004" not in _rule_ids(report)


def test_clean_prepared_benchmark_lints_clean():
    report = api.lint_netlist("s38417", scale=0.02, tp_percent=2.0)
    assert report.ok, report.format_text()
    # The engine actually ran the full pack, not an empty rule list.
    assert {"NL001", "DFT001", "DFT004"} <= set(report.rule_seconds)


def test_api_lint_audits_the_flow_stage0_netlist(monkeypatch):
    from repro.core.executor import circuit_structural_hash
    from repro.lint import netlist_rules

    flow = api.run("s38417", scale=0.02, tp_percent=2.0,
                   run_layout_phase=False, run_atpg_phase=False)
    audited = []
    real_lint = netlist_rules.lint_netlist

    def spy(circuit, **kwargs):
        audited.append(circuit_structural_hash(circuit))
        return real_lint(circuit, **kwargs)

    # Patched after the flow run: the flow's validate() lints too.
    monkeypatch.setattr(netlist_rules, "lint_netlist", spy)
    report = api.lint_netlist("s38417", scale=0.02, tp_percent=2.0)
    assert report.ok, report.format_text()
    assert audited == [circuit_structural_hash(flow.circuit)]


def test_dirty_set_scoping_limits_structural_findings(lib):
    c = Circuit("scoped")
    c.add_input("a")
    c.add_net("n1")
    c.add_instance("inv_a", lib["INV_X1"], {"A": "a", "Z": "n1"})
    c.add_net("orphan")  # undriven + dangling
    full = lint_netlist(c)
    assert "NL001" in _rule_ids(full)
    scoped = lint_netlist(c, nets=frozenset({"n1"}))
    assert "NL001" not in _rule_ids(scoped)


# ---------------------------------------------------------------------------
# validate() facade back-compat


def test_validate_reports_diagnostics_and_strings(lib):
    c = Circuit("broken")
    c.add_net("floating")
    report = validate(c)
    assert not report.ok
    assert any("no driver" in e for e in report.errors)
    assert isinstance(report.errors[0], str)
    assert report.diagnostics[0].rule_id == "NL001"
    with pytest.raises(ValueError, match="validation failed"):
        report.raise_on_error()
    with pytest.raises(LintError) as excinfo:
        report.raise_on_error()
    assert "[NL001]" in str(excinfo.value)


def test_validate_runs_only_structural_rules(lib):
    # The between-steps audit must stay cheap: no chain walks, no
    # loop detection (run_flow's lint gates own those).
    report = validate(_loop_circuit(lib)).report
    structural_ids = {r.id for r in structural_rules()}
    assert set(report.rule_seconds) == structural_ids
    assert "DFT001" not in structural_ids


# ---------------------------------------------------------------------------
# Flow gates


def test_flow_stage0_lint_gate_records_report(lib):
    circuit = repro.load_circuit("s38417", scale=0.02)
    result = run_flow(circuit, lib, FlowConfig(
        tp_percent=2.0, lint=True,
        run_layout_phase=False, run_atpg_phase=False,
    ))
    assert "stage0" in result.lint_reports
    assert result.lint_reports["stage0"].ok


def test_corrupted_netlist_caught_by_pre_route_gate(lib, monkeypatch):
    """Chaos-style: a post-CTS corruption must abort *before* routing."""
    real_cts = flow_mod.synthesize_all_clock_trees

    def corrupting_cts(circuit, library, positions):
        trees = real_cts(circuit, library, positions)
        victim = next(
            name for name, inst in sorted(circuit.instances.items())
            if inst.cell.is_scan
            and inst.cell.sequential.scan_in in inst.conns
        )
        seq = circuit.instances[victim].cell.sequential
        own_q = circuit.instances[victim].conns[seq.output_pin]
        circuit.disconnect(victim, seq.scan_in)
        circuit.connect(victim, seq.scan_in, own_q)
        return trees

    class RouterBomb:
        def __init__(self, *args, **kwargs):
            raise AssertionError(
                "GlobalRouter constructed: the corrupted netlist was "
                "not stopped by the pre-route lint gate"
            )

    monkeypatch.setattr(flow_mod, "synthesize_all_clock_trees",
                        corrupting_cts)
    monkeypatch.setattr(flow_mod, "GlobalRouter", RouterBomb)

    circuit = repro.load_circuit("s38417", scale=0.02)
    with pytest.raises(LintError) as excinfo:
        run_flow(circuit, lib, FlowConfig(
            tp_percent=0.0, lint=True, run_atpg_phase=False,
        ))
    err = excinfo.value
    assert "lint gate 'pre_route'" in str(err)
    assert any(d.rule_id == "DFT004" for d in err.diagnostics)


def test_lint_gate_spans_stay_nested(lib):
    """Gate spans must not pollute the trace's top level, which is
    contractually the STAGE_KEYS subset."""
    from repro import obs

    circuit = repro.load_circuit("s38417", scale=0.02)
    with obs.tracing(label="lint-gate-trace"):
        result = run_flow(circuit, lib, FlowConfig(
            tp_percent=0.0, lint=True, run_atpg_phase=False,
        ))
    top = [span.name for span in result.trace.spans]
    assert top == list(result.stage_seconds)

    def walk(spans):
        for span in spans:
            yield span.name
            yield from walk(span.children)

    # The pre-route gate still records its span, inside eco_cts_route.
    assert "lint.netlist" in set(walk(result.trace.spans))


def test_flow_without_lint_flag_skips_gates(lib):
    circuit = repro.load_circuit("s38417", scale=0.02)
    result = run_flow(circuit, lib, FlowConfig(
        run_layout_phase=False, run_atpg_phase=False,
    ))
    assert result.lint_reports == {}


# ---------------------------------------------------------------------------
# CLI


def test_cli_lint_clean_circuit_exits_zero(tmp_path, capsys):
    out = tmp_path / "lint.json"
    code = cli.main(["lint", "s38417", "--scale", "0.02",
                     "--tp-percents", "0", "--json", str(out)])
    assert code == 0
    assert "[ok]" in capsys.readouterr().out
    import json
    payload = json.loads(out.read_text())
    assert payload["version"] == 1
    assert payload["levels"]["0"]["summary"]["ok"] is True


def test_cli_lint_findings_exit_code(monkeypatch, capsys):
    from repro.lint import Diagnostic, LintReport

    def fake_lint(circuit, **kwargs):
        return LintReport(diagnostics=[Diagnostic(
            rule_id="DFT001", severity="error",
            message="combinational loop through 2 cell(s)",
            obj="loop",
        )])

    monkeypatch.setattr(api, "lint_netlist", fake_lint)
    code = cli.main(["lint", "s38417", "--tp-percents", "0"])
    assert code == cli.EXIT_LINT == 4
    captured = capsys.readouterr().out
    assert "[DFT001]" in captured and "[FAIL]" in captured


def test_cli_lint_unknown_circuit_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["lint", "s38418"])
    assert excinfo.value.code == 2
