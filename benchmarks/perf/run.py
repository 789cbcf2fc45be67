"""Run the reproduction's benchmark, or compare two sets of its runs.

Run one or more workloads (all four by default), each in a fresh
interpreter with ``PYTHONHASHSEED=0``::

    python benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

Every metric is printed with its unit, outputs are checked, and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  The exit code is
non-zero when any check failed.

Compare the medians of two sets of runs against the bounds in
``BENCHMARK.json``::

    python benchmarks/perf/run.py compare BASE.json NEW.json [NEW2.json ...]

Assemble the committed baseline from two plain sets and a traced run::

    python benchmarks/perf/run.py baseline SET_A.json SET_B.json TRACED.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: A workload's interpreter is killed after this long, so that a run
#: always ends within 180 s.
CHILD_TIMEOUT_S = 175.0


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names(bench: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in bench["workloads"]]


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_workload(args, workload: str) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; return its record."""
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(OUT / "tmp"),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                   if p))
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", str(args.expected)]
    if args.smoke:
        command.append("--smoke")
    # Own session: a timeout kills the workload and any daemon it
    # started, together.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} did not finish in "
                           f"{CHILD_TIMEOUT_S:g} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_record(record: Dict[str, Any], bench: Dict[str, Any]) -> None:
    samples = ", ".join(f"{k}={_fmt(v)}"
                        for k, v in record["samples"].items())
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']:g}  trace={record['trace']}  "
          f"PYTHONHASHSEED={record['hashseed']}  ({samples})")
    print(f"  host speed factor {record['speed_factor']:.4f} (mean over "
          f"{len(record['calibration_s'])} calibrations); raw wall-clock "
          "values in brackets")
    setups = ", ".join(f"{s:.3f}" for s in record["setup_times"])
    for metric in bench["end_to_end"]:
        name = metric["name"]
        note = f"  median of [{setups}]" if name == "setup_s" else ""
        print(f"  {name:<16} {_fmt(record['metrics'][name]):>12} "
              f"{metric['unit']:<3} [{_fmt(record['raw_metrics'][name])}]"
              f"{note}")
    if "layers" in record:
        print("  per-layer (traced run):")
        for metric in bench["per_layer"]:
            value = record["layers"][metric["name"]]
            if value:
                print(f"    {metric['name']:<26} {_fmt(value):>12} "
                      f"{metric['unit']}")
        print(f"  chrome trace: {record['trace_file']}")
    print("  work: " + " ".join(f"{k}={_fmt(v)}"
                                for k, v in record["work"].items()))
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}", flush=True)


def result_line(records: List[Dict[str, Any]], bench: Dict[str, Any],
                trace: int) -> Dict[str, Any]:
    """The final JSON object; metric names carry a workload prefix when
    several workloads ran."""
    group, source = (("per_layer", "layers") if trace
                     else ("end_to_end", "metrics"))
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for metric in bench[group]:
            metrics[prefix + metric["name"]] = {
                "value": record[source][metric["name"]],
                "unit": metric["unit"],
            }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def write_runs(path: Path, records: List[Dict[str, Any]]) -> None:
    """Append the records to a runs file (created when missing)."""
    data = {"kind": "repro_perf_runs", "runs": []}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data["runs"].extend(records)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def update_expected(path: Path, records: List[Dict[str, Any]]) -> None:
    """Record the observed output digests as the expected ones."""
    data = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {}
    for r in records:
        data.setdefault(r["size"], {}).setdefault(r["workload"], {})[
            str(r["seed"])] = r["digests"]
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def run(argv: List[str]) -> int:
    bench = load_benchmark()
    names = workload_names(bench)
    parser = argparse.ArgumentParser(
        description="Run the benchmark's workloads.")
    parser.add_argument("--workload", "--workloads", action="append",
                        help="workload name(s), comma-separated or "
                             f"repeated (default: all of {', '.join(names)})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full run records to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="one circuit at scale 0.005, TP 0 and 2, "
                             "20 service jobs")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json")
    parser.add_argument("--update-expected", action="store_true",
                        help="store this run's digests as the expected ones")
    args = parser.parse_args(argv)
    chosen = [n for arg in (args.workload or [",".join(names)])
              for n in arg.split(",") if n]
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")

    records = []
    for workload in chosen:
        record = run_workload(args, workload)
        print_record(record, bench)
        records.append(record)
    if args.out:
        write_runs(args.out, records)
    if args.update_expected:
        update_expected(args.expected, records)
    line = result_line(records, bench, args.trace)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# Comparing
# ----------------------------------------------------------------------
def load_runs(path: Path) -> List[Dict[str, Any]]:
    """Plain runs of a runs file or of a baseline's two sets."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = data.get("runs") or [r for s in data["sets"].values() for r in s]
    return [r for r in runs if not r["trace"]]


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: List[float], new: List[float], better: str,
            bound: float, pairs: List[tuple]) -> str:
    """better / same / worse / unresolved for one metric.

    ``unresolved`` when either side's run-to-run spread (quartile
    distance over median) exceeds the bound, unless every new run reads
    better (or every one worse) than every base run.  Otherwise
    ``better`` needs runs that pair up by seed, nine wins in ten pairs,
    and medians that differ by more than the base's quartile distance.
    """
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    worse_by = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    if spread > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by * bm > b3 - b1:
        return "better"
    return "same"


def compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare run medians against BENCHMARK.json bounds.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="+")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    base = load_runs(args.base)
    new = [r for path in args.new for r in load_runs(path)]
    print(f"{'workload':<13} {'metric':<15} {'unit':<5} "
          f"{'base median [q1, q3]':>28} {'new median [q1, q3]':>28} "
          f"{'delta':>7} {'bound':>6}  verdict")
    worst = 0
    for workload in workload_names(bench):
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        if not b_runs or not n_runs:
            continue
        by_seed = {r["seed"]: r for r in b_runs}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name] for r in b_runs]
            nv = [r["metrics"][name] for r in n_runs]
            pairs = [(by_seed[r["seed"]]["metrics"][name],
                      r["metrics"][name])
                     for r in n_runs if r["seed"] in by_seed]
            word = verdict(bv, nv, metric["better"], metric["bound"], pairs)
            worst = max(worst, word == "worse")
            (b1, bm, b3), (n1, nm, n3) = _quartiles(bv), _quartiles(nv)
            print(f"{workload:<13} {name:<15} {metric['unit']:<5} "
                  f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>28} "
                  f"{f'{nm:.4g} [{n1:.4g}, {n3:.4g}]':>28} "
                  f"{100 * (nm - bm) / bm:>+6.1f}% "
                  f"{100 * metric['bound']:>5.0f}%  {word}")
        same_work = [s for s in by_seed
                     for r in n_runs if r["seed"] == s
                     and r["work"] == by_seed[s]["work"]]
        print(f"{workload:<13} work counts   base {b_runs[0]['work']}")
        print(f"{'':<13} identical for seeds {sorted(set(same_work))} of "
              f"{sorted({r['seed'] for r in n_runs})}")
    return 1 if worst else 0


def baseline(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py baseline",
        description="Write baseline.json from two plain sets and a "
                    "traced run.")
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    parser.add_argument("traced", type=Path)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    sets = {"A": load_runs(args.set_a), "B": load_runs(args.set_b)}
    traced = json.loads(args.traced.read_text(encoding="utf-8"))["runs"]
    summary: Dict[str, Any] = {}
    for label, runs in sets.items():
        for workload in workload_names(bench):
            rows = [r for r in runs if r["workload"] == workload]
            for metric in bench["end_to_end"]:
                q1, median, q3 = _quartiles(
                    [r["metrics"][metric["name"]] for r in rows])
                summary.setdefault(label, {}).setdefault(workload, {})[
                    metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                       "n": len(rows)}
    first = sets["A"][0]
    data = {
        "kind": "repro_perf_baseline",
        "env": first["env"],
        "summary": summary,
        "traced": {r["workload"]: {"seed": r["seed"], "layers": r["layers"],
                                   "work": r["work"]} for r in traced},
        "sets": sets,
    }
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def main(argv: List[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run the benchmark from "
              "a full checkout", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["baseline"]:
        return baseline(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
