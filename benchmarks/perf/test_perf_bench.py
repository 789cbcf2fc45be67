"""Self-test of the benchmark at its ``--smoke`` size (under 90 s)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
from repro import api
from repro.obs import validate_chrome_trace
from repro.service.protocol import canonical_result_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT):
    """Run the benchmark at smoke size; returns (process, last line)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--smoke",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def _runs(tmp_path_factory, *args):
    out = tmp_path_factory.mktemp("runs") / "runs.json"
    proc, line = run_bench("--out", str(out), *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return line, json.loads(out.read_text(encoding="utf-8"))["runs"]


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _runs(tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _runs(tmp_path_factory, "--trace", "1")


def test_every_metric_is_present_with_its_unit(plain, traced):
    for (line, _), group in ((plain, "end_to_end"), (traced, "per_layer")):
        expected = {f"{w}.{m['name']}": m["unit"]
                    for w in WORKLOADS for m in BENCH[group]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == expected
    assert all(m["value"] > 0 for m in plain[0]["metrics"].values())


def test_no_failures_and_hash_seed_pinned(plain, traced):
    for line, runs in (plain, traced):
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= len(WORKLOADS)
        for run in runs:
            assert run["problems"] == [] and run["failed"] == 0
            assert run["hashseed"] == "0" and run["expected_checked"]


def test_traced_run_reproduces_plain_digests(plain, traced):
    digests = {r["workload"]: r["digests"] for r in plain[1]}
    assert {r["workload"]: r["digests"] for r in traced[1]} == digests


def test_traced_run_writes_a_chrome_trace(traced):
    for run in traced[1]:
        trace = json.loads(Path(run["trace_file"]).read_text())
        assert validate_chrome_trace(trace) == []
        assert any(e["name"].startswith("bench.")
                   for e in trace["traceEvents"])


def test_wrappers_are_restored_even_after_an_error():
    before = layers.snapshot()
    with pytest.raises(RuntimeError):
        with layers.instrumented():
            assert all(a is not b for a, b in zip(layers.snapshot(), before))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(layers.snapshot(), before))


def test_seed_changes_inputs_not_metric_names(plain, tmp_path):
    proc, line = run_bench("--workload", "t1_podem", "--seed", "1",
                           "--out", str(tmp_path / "runs.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    seed1 = json.loads((tmp_path / "runs.json").read_text())["runs"][0]
    seed0 = next(r for r in plain[1] if r["workload"] == "t1_podem")
    assert seed1["digests"] != seed0["digests"]
    assert set(seed1["metrics"]) == set(seed0["metrics"])
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_tampered_expected_digest_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["smoke"]["t23_layout"]["0"]["s38417"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc, line = run_bench("--workload", "t23_layout",
                           "--expected", str(path))
    assert proc.returncode != 0
    assert line["correct"] is False and line["failed"] > 0


def test_seed_zero_reproduces_api_sweep(plain):
    result = api.sweep("s38417", scale=0.005, tp_percents=(0.0, 2.0),
                       run_atpg_phase=False)
    run = next(r for r in plain[1] if r["workload"] == "t23_layout")
    assert (hashlib.sha256(canonical_result_bytes(result)).hexdigest()
            == run["digests"]["s38417"])


def test_compare_reads_same_against_itself(plain, tmp_path):
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"runs": plain[1]}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", str(path),
         str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [l for l in proc.stdout.splitlines() if l.endswith("same")]
    assert len(rows) == len(WORKLOADS) * len(BENCH["end_to_end"])


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, line = run_bench(cwd=tmp_path)
    assert proc.returncode != 0 and line is None
