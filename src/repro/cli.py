"""Command-line interface: run flows, sweeps and reports from a shell.

Subcommands::

    python -m repro flow  --circuit s38417 --scale 0.06 --tp 2
    python -m repro sweep --circuit p26909 --scale 0.05
    python -m repro sweep --circuit s38417 --jobs 4 --cache-dir .sweeps
    python -m repro lint  s38417 --scale 0.05 --tp-percents 0,2,5
    python -m repro lbist --circuit s38417 --scale 0.05 --patterns 4096
    python -m repro render --circuit s38417 --scale 0.05 --out gallery/

    python -m repro serve  --port 8737 --cache-dir .sweep-service
    python -m repro submit --circuit s38417 --scale 0.05 --wait
    python -m repro status j0123abcd4567
    python -m repro result j0123abcd4567
    python -m repro cancel j0123abcd4567

    python -m repro sweep --circuit s38417 --jobs 2 --trace sweep.json
    python -m repro trace summarize sweep.json

Every subcommand prints the corresponding paper quantities (Table 1/2/3
rows, coverage curves, or Figure 3 files).  Scales are fractions of the
published circuit sizes; 1.0 reproduces the paper's dimensions.

The second block talks to the sweep-serving daemon (``serve`` runs it;
the other four are thin :class:`repro.service.client.ServiceClient`
wrappers).  ``submit --wait`` and ``result`` print the same tables as
``sweep`` — the daemon's results are byte-identical to in-process ones.

Exit codes: 0 success, 2 usage error, 3 degraded sweep (failed cells;
also from ``result``/``submit --wait``), 4 lint findings (``lint``
subcommand, or a ``--lint`` flow gate).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from repro import api, obs
from repro.api import CIRCUITS
from repro.chaos import FaultPlan
from repro.core import (
    PAPER_TP_PERCENTS,
    FlowConfig,
    format_failures,
    format_stage_seconds,
    format_table1,
    format_table2,
    format_table3,
    render_svg,
)
from repro.lbist import LbistConfig, coverage_at, run_lbist
from repro.library import cmos130
from repro.lint import LintError
from repro.scan import insert_scan
from repro.service.client import ServiceError
from repro.tpi import TpiConfig, insert_test_points

#: Exit code for lint findings — matches ``python -m repro.lint.self``.
EXIT_LINT = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--circuit", default="s38417",
                        metavar="NAME",
                        help="registered benchmark circuit "
                             f"({', '.join(sorted(CIRCUITS))})")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the published circuit size")


def _validate_circuit(parser: argparse.ArgumentParser, args) -> None:
    """Reject an unknown circuit with a did-you-mean, exit code 2.

    Centralised (instead of argparse ``choices=``) so the message can
    suggest the closest registered name, mirroring
    :meth:`FlowConfig.from_dict`'s behaviour for unknown keys, and so
    the failure is a clean usage error rather than a ``KeyError``
    traceback from deep inside the API.
    """
    name = getattr(args, "circuit", None)
    if name is not None and name not in CIRCUITS:
        parser.error(api._unknown_circuit_error(name).args[0])


def _tp_percents(text: str) -> tuple:
    """argparse type: '0,1,2.5' -> (0.0, 1.0, 2.5).

    Negative and duplicate levels are rejected up front: a negative
    percentage would ask TPI for a negative test-point count, and a
    duplicate level would silently run (and cache) the same layout
    twice.
    """
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )
    negative = [v for v in values if v < 0]
    if negative:
        raise argparse.ArgumentTypeError(
            "TP percentages must be non-negative, got "
            + ", ".join(f"{v:g}" for v in negative)
        )
    seen = set()
    for value in values:
        if value in seen:
            raise argparse.ArgumentTypeError(
                f"duplicate TP percentage: {value:g}"
            )
        seen.add(value)
    return values


def _flow_overrides(args) -> dict:
    """FlowConfig overrides shared by the flow/sweep subcommands."""
    overrides = {}
    if getattr(args, "no_incremental", False):
        overrides["incremental_eco"] = False
    if getattr(args, "lint", False):
        overrides["lint"] = True
    if getattr(args, "placer", None):
        overrides["placer"] = args.placer
    return overrides


def _placer_name(text: str) -> str:
    """argparse type for --placer: an engine name FlowConfig accepts."""
    try:
        FlowConfig(placer=text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))
    return text


def _print_report(report, service: bool = False) -> int:
    """Print a sweep report: every circuit's Tables 1-3 and stage
    runtimes, then the failed cells.

    The one printer behind the in-process ``sweep`` subcommand and the
    service-side ``result``/``submit --wait`` ones, so a sweep renders
    the same no matter which path computed it (``service`` adds the
    daemon's cache counts).  A circuit with no finished cell has no
    baseline row, so it gets a one-line note instead of tables.

    Returns the subcommand's exit code: 3 for a degraded sweep, else 0.
    """
    for name in sorted(report.results):
        result = report.results[name]
        if len(report.results) > 1:
            print(f"== {name} ==")
        if not result.runs:
            print(f"{name}: no cell finished, so there are no tables")
            continue
        print("Table 1: Impact of TPI on test data")
        print(format_table1(result.table1_rows()))
        print("\nTable 2: Impact of TPI on silicon area")
        print(format_table2(result.table2_rows()))
        print("\nTable 3: Impact of TPI on timing")
        print(format_table3(result.table3_rows()))
        print("\nStage runtimes (seconds)")
        print(format_stage_seconds(result))
    if service and (report.cache_hits or report.cache_misses):
        print(f"\n[service] cache hits={report.cache_hits} "
              f"misses={report.cache_misses} "
              f"evictions={report.cache_evictions}")
    if report.failures:
        print(f"\nFAILED cells ({len(report.failures)}; tables above "
              "have holes at these levels)")
        print(format_failures(report.failures))
        return 3
    return 0


def _report_lint_abort(err: LintError) -> int:
    """Print a lint-gate failure's full report; exit code 4."""
    print(err.report.format_text())
    print(f"\naborted: {err}")
    return EXIT_LINT


def cmd_flow(args) -> int:
    """One full Figure 2 flow at a single TP percentage."""
    options = _flow_overrides(args)
    try:
        if args.trace:
            with obs.tracing(label=f"{args.circuit}@{args.tp:g}%"):
                result = api.run(args.circuit, scale=args.scale,
                                 tp_percent=args.tp, **options)
        else:
            result = api.run(args.circuit, scale=args.scale,
                             tp_percent=args.tp, **options)
    except LintError as err:
        return _report_lint_abort(err)
    m = result.test_metrics()
    print(f"circuit {args.circuit} scale {args.scale} "
          f"TP {args.tp}% ({m.n_test_points} TSFFs)")
    print(f"  patterns {m.n_patterns}, FC {100 * m.fault_coverage:.2f}%, "
          f"FE {100 * m.fault_efficiency:.2f}%, TDV {m.tdv_bits} bits, "
          f"TAT {m.tat_cycles} cycles")
    a = result.area_metrics()
    print(f"  core {a['core_area_um2']:.0f} um2, "
          f"chip {a['chip_area_um2']:.0f} um2, "
          f"wires {a['wirelength_um']:.0f} um, "
          f"filler {100 * a['filler_fraction']:.1f}%")
    for domain in sorted(result.sta.paths):
        p = result.sta.critical(domain)
        if p:
            print(f"  {domain}: T_cp {p.total_ps:.0f} ps "
                  f"(F_max {p.fmax_mhz:.1f} MHz), TPs on path "
                  f"{p.n_test_points}")
    if args.trace and result.trace is not None:
        obs.write_chrome_trace(args.trace, [result.trace])
        print(f"\nwrote trace to {args.trace}")
        print(obs.format_trace_summary(result.trace))
    return 0


def cmd_sweep(args) -> int:
    """The paper's six-layout sweep; prints Tables 1-3.

    Every sweep runs through the fault-tolerant executor, at any
    ``--jobs``; ``--cache-dir`` adds the result cache and its journal.
    A ``--lint`` gate failure prints the lint report and exits 4.  A
    degraded sweep (some cells permanently failed) still prints the
    tables — with holes — plus a failure report, and exits 3.
    """
    chaos_plan = FaultPlan.load(args.chaos) if args.chaos else None
    print(f"[executor] jobs={args.jobs} "
          f"cache={args.cache_dir or 'off'} retries={args.retries}"
          + (f" timeout={args.task_timeout:g}s"
             if args.task_timeout else "")
          + (" fail-fast" if args.fail_fast else "")
          + (f" chaos={args.chaos}" if args.chaos else ""))
    scope = (obs.tracing(label=f"sweep:{args.circuit}") if args.trace
             else contextlib.nullcontext())
    with scope as tracer:
        report = api.sweep_report(
            args.circuit, scale=args.scale, tp_percents=args.tp_percents,
            jobs=args.jobs, cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes, trace=bool(args.trace),
            retries=args.retries, task_timeout_s=args.task_timeout,
            fail_fast=args.fail_fast,
            chaos=chaos_plan, **_flow_overrides(args))
    for failure in report.failures:
        if isinstance(failure.exception, LintError):
            return _report_lint_abort(failure.exception)
    result = report.results[args.circuit]
    cached = sorted(
        pct for pct, run in result.runs.items() if run.from_cache
    )
    if cached:
        print("[executor] served from cache: "
              + ", ".join(f"{pct:g}%" for pct in cached))
    if report.retries or report.timeouts or report.worker_crashes:
        print(f"[executor] retries={report.retries} "
              f"timeouts={report.timeouts} "
              f"worker-crashes={report.worker_crashes}")
    if report.journal_path:
        print(f"[executor] journal: {report.journal_path}")
    code = _print_report(report)
    if args.trace:
        # Every level's flow trace plus the parent's scheduling trace
        # (queue waits, cache hits) merge into one timeline.
        traces = [run.trace for run in result.runs.values()]
        obs.write_chrome_trace(args.trace, traces + [tracer.trace()])
        print(f"\nwrote trace to {args.trace}")
    return code


def cmd_lint(args) -> int:
    """Static netlist/DFT audit of a benchmark across TP levels.

    Builds the circuit at each requested TP percentage, runs the
    flow's stage-0 DFT prep, then the full netlist rule pack.  Errors
    print with their rule IDs and exit 4; warnings print (with
    ``--verbose``) but do not fail the audit.
    """
    levels = args.tp_percents or PAPER_TP_PERCENTS
    by_level = {}
    failed = False
    for tp in levels:
        report = api.lint_netlist(args.circuit, scale=args.scale,
                                  tp_percent=tp)
        by_level[f"{tp:g}"] = report.to_json()
        counts = report.counts()
        status = "ok" if report.ok else "FAIL"
        print(f"tp {tp:g}%: {counts['error']} error(s), "
              f"{counts['warning']} warning(s) [{status}]")
        shown = (report.diagnostics if args.verbose
                 else report.error_diagnostics)
        for diag in shown:
            print(f"  {diag.format()}")
        failed = failed or not report.ok
    if args.json:
        payload = {
            "version": 1,
            "circuit": args.circuit,
            "scale": args.scale,
            "levels": by_level,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return EXIT_LINT if failed else 0


def cmd_lbist(args) -> int:
    """Pseudo-random LBIST coverage with/without test points."""
    results = {}
    for tp in (0.0, args.tp):
        circuit = api.load_circuit(args.circuit, scale=args.scale)
        if tp:
            insert_test_points(circuit, cmos130(), TpiConfig(
                n_test_points=round(tp / 100 * circuit.num_flip_flops)
            ))
        insert_scan(circuit, cmos130(), max_chain_length=100)
        results[tp] = run_lbist(circuit, LbistConfig(
            n_patterns=args.patterns,
        ))
    base, boosted = results[0.0], results[args.tp]
    print(f"{'patterns':>9}  {'FC no TPs':>10}  {'FC with TPs':>12}")
    n = 64
    while n <= args.patterns:
        print(f"{n:>9}  {100 * coverage_at(base, n):>9.2f}%"
              f"  {100 * coverage_at(boosted, n):>11.2f}%")
        n *= 4
    return 0


def cmd_render(args) -> int:
    """Write the Figure 3 SVG views of one layout."""
    result = api.run(args.circuit, scale=args.scale,
                     tp_percent=args.tp, run_atpg_phase=False)
    circuit = result.circuit
    os.makedirs(args.out, exist_ok=True)
    views = {
        "floorplan": (None, None),
        "placement": (result.placement, None),
        "routed": (result.placement, result.routed),
    }
    for stage, (placement, routed) in views.items():
        svg = render_svg(circuit, result.plan, placement, routed, stage)
        path = os.path.join(args.out, f"{args.circuit}_{stage}.svg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"wrote {path}")
    return 0


def _service_progress_line(progress: dict) -> str:
    """One-line cell progress, e.g. ``cells 3/6 (1 running, 0 failed)``."""
    return (f"cells {progress['done']}/{progress['total']} "
            f"({progress['running']} running, "
            f"{progress['failed']} failed)")


def cmd_serve(args) -> int:
    """Run the sweep-serving daemon in the foreground."""
    from repro.service import ServiceConfig, run_daemon

    run_daemon(ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        job_workers=args.job_workers,
        cache_max_bytes=args.cache_max_bytes,
        max_pending=args.max_pending,
        drain_timeout_s=args.drain_timeout,
    ))
    return 0


def cmd_submit(args) -> int:
    """Submit a sweep to a running daemon (optionally wait for it)."""
    from repro.service import ServiceClient, SweepRequest

    chaos_plan = FaultPlan.load(args.chaos) if args.chaos else None
    client = ServiceClient(args.url)
    record = client.submit(SweepRequest(
        circuit=args.circuit,
        scale=args.scale,
        tp_percents=args.tp_percents,
        options=_flow_overrides(args),
        jobs=args.jobs,
        retries=args.retries,
        task_timeout_s=args.task_timeout,
        name=args.name,
        chaos=chaos_plan,
        trace=args.trace,
        deadline_s=args.deadline,
    ))
    print(f"job {record.id} {record.state} on {client.base_url}")
    if record.coalesced_with:
        print(f"  coalesced with identical in-flight job "
              f"{record.coalesced_with} (shared artifact cache)")
    if not args.wait:
        print(f"  poll:  python -m repro status {record.id} "
              f"--url {client.base_url}")
        print(f"  fetch: python -m repro result {record.id} "
              f"--url {client.base_url}")
        return 0
    final = client.wait(record.id, timeout_s=args.timeout)
    state = final["state"]
    print(f"job {record.id} {state} — "
          + _service_progress_line(final["progress"]))
    if state == "failed":
        print(f"error: {final.get('error')}")
        return 1
    if state == "cancelled":
        return 3
    code = _print_report(client.result(record.id), service=True)
    if args.trace:
        merged = client.trace(record.id)
        out = args.trace_out or f"{record.id}.trace.json"
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1)
        print(f"\nwrote merged job trace to {out}")
    return code


def cmd_status(args) -> int:
    """Show one job's lifecycle state and per-cell progress."""
    from repro.service import ServiceClient

    payload = ServiceClient(args.url).status(args.job_id)
    progress = payload["progress"]
    print(f"job {payload['id']}: {payload['state']} — "
          + _service_progress_line(progress))
    if payload.get("error"):
        print(f"error: {payload['error']}")
    for cell in progress["cells"]:
        attempts = (f" (attempt {cell['attempts']})"
                    if cell["attempts"] > 1 else "")
        print(f"  {cell['name']} @ {cell['tp_percent']:g}%: "
              f"{cell['state']}{attempts}")
    return 0


def cmd_result(args) -> int:
    """Fetch a finished job's tables; exit 3 on a degraded sweep."""
    from repro.service import ServiceClient

    return _print_report(ServiceClient(args.url).result(args.job_id),
                         service=True)


def cmd_cancel(args) -> int:
    """Cancel a queued or running job."""
    from repro.service import ServiceClient

    record = ServiceClient(args.url).cancel(args.job_id)
    print(f"job {record.id}: {record.state}")
    if record.state == "running":
        print("  cancellation is cooperative: no new cells will "
              "start; in-flight cells finish into the shared cache")
    return 0


def cmd_trace(args) -> int:
    """Summarize Chrome trace files (``--trace`` output, a daemon job's
    stored trace) as per-track span tables."""
    for path in args.inputs:
        if len(args.inputs) > 1:
            print(f"== {path} ==")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
            if not isinstance(obj, dict) or "traceEvents" not in obj:
                raise ValueError("not a Chrome trace (no 'traceEvents')")
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
        problems = obs.validate_chrome_trace(obj)
        if problems:
            print(f"{path} is invalid:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(obs.summarize_merged(obj))
    return 0


def _add_service_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default="http://127.0.0.1:8737",
                        help="base URL of the sweep daemon "
                             "(default: %(default)s)")


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE 2004 TPI-impact reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run one full flow")
    _add_common(p_flow)
    p_flow.add_argument("--tp", type=float, default=1.0)
    p_flow.add_argument("--no-incremental", action="store_true",
                        help="recompute route/extraction/STA from "
                             "scratch every hold-fix round (escape "
                             "hatch for the incremental ECO engine)")
    p_flow.add_argument("--lint", action="store_true",
                        help="run the netlist/DFT lint pack as flow "
                             "gates (stage 0, pre-route, each ECO "
                             "round); lint errors abort with exit 4")
    p_flow.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON of the "
                             "flow's stages to PATH")
    p_flow.add_argument("--placer", type=_placer_name, default=None,
                        metavar="ENGINE",
                        help="global-placement engine (quadratic, sa); "
                             "default: quadratic")
    p_flow.set_defaults(func=cmd_flow)

    p_sweep = sub.add_parser("sweep", help="run the 0-5%% sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--tp-percents", type=_tp_percents, default=None,
                         help="comma-separated TP levels to sweep "
                              "(default: the paper's 0-5%% ladder)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the sweep levels")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="content-addressed result cache "
                              "directory; a re-run on it serves the "
                              "finished cells (default: no cache)")
    p_sweep.add_argument("--cache-max-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="size cap of the result cache; above it "
                              "least-recently-used entries are evicted "
                              "(default: unbounded)")
    p_sweep.add_argument("--no-incremental", action="store_true",
                         help="recompute route/extraction/STA from "
                              "scratch every hold-fix round")
    p_sweep.add_argument("--lint", action="store_true",
                         help="run the netlist/DFT lint gates inside "
                              "every level's flow; lint errors fail "
                              "the sweep with exit 4")
    p_sweep.add_argument("--retries", type=int, default=2,
                         help="retry budget per (circuit, tp%%) task "
                              "for retryable failures (default 2)")
    p_sweep.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="watchdog per-task timeout; a hung task "
                              "is killed (pool replaced) and retried")
    p_sweep.add_argument("--fail-fast", action="store_true",
                         help="abort remaining cells after the first "
                              "permanent failure")
    p_sweep.add_argument("--chaos", default=None, metavar="PLAN.json",
                         help="fault-injection plan file (testing/CI)")
    p_sweep.add_argument("--trace", default=None, metavar="PATH",
                         help="write a merged Chrome trace-event JSON "
                              "of all levels (and the executor's "
                              "scheduling) to PATH")
    p_sweep.add_argument("--placer", type=_placer_name, default=None,
                         metavar="ENGINE",
                         help="global-placement engine (quadratic, "
                              "sa); default: quadratic")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lint = sub.add_parser(
        "lint", help="static netlist/DFT audit (no layout)"
    )
    p_lint.add_argument("circuit", nargs="?", default="s38417",
                        metavar="CIRCUIT",
                        help="registered benchmark circuit "
                             f"({', '.join(sorted(CIRCUITS))})")
    p_lint.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the published circuit size")
    p_lint.add_argument("--tp-percents", type=_tp_percents, default=None,
                        help="comma-separated TP levels to audit "
                             "(default: the paper's 0-5%% ladder)")
    p_lint.add_argument("--json", default=None, metavar="PATH",
                        help="write the per-level JSON reports to PATH")
    p_lint.add_argument("--verbose", action="store_true",
                        help="also print warning/info findings")
    p_lint.set_defaults(func=cmd_lint)

    p_lbist = sub.add_parser("lbist", help="LBIST coverage curves")
    _add_common(p_lbist)
    p_lbist.add_argument("--patterns", type=int, default=4096)
    p_lbist.add_argument("--tp", type=float, default=2.0)
    p_lbist.set_defaults(func=cmd_lbist)

    p_render = sub.add_parser("render", help="Figure 3 SVG views")
    _add_common(p_render)
    p_render.add_argument("--tp", type=float, default=2.0)
    p_render.add_argument("--out", default="layout_views")
    p_render.set_defaults(func=cmd_render)

    p_serve = sub.add_parser(
        "serve", help="run the sweep-serving daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: %(default)s; the "
                              "daemon has no auth — keep it on "
                              "loopback or a trusted network)")
    p_serve.add_argument("--port", type=int, default=8737,
                         help="TCP port; 0 binds an ephemeral port")
    p_serve.add_argument("--cache-dir", default=".sweep-service",
                         help="shared artifact cache directory "
                              "(default: %(default)s)")
    p_serve.add_argument("--job-workers", type=int, default=2,
                         help="jobs run concurrently (default: 2); "
                              "each job's own --jobs knob governs its "
                              "process pool")
    p_serve.add_argument("--cache-max-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="LRU size cap of the shared cache "
                              "(default: unbounded)")
    p_serve.add_argument("--max-pending", type=int, default=None,
                         metavar="N",
                         help="admission cap: reject submits with "
                              "HTTP 429 + Retry-After once N jobs are "
                              "queued (default: unbounded)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="on SIGTERM/SIGINT, wait up to this long "
                              "for in-flight jobs to finish before "
                              "exiting (default: %(default)s; a second "
                              "signal exits immediately)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a sweep to a running daemon"
    )
    _add_common(p_submit)
    _add_service_url(p_submit)
    p_submit.add_argument("--tp-percents", type=_tp_percents,
                          default=None,
                          help="comma-separated TP levels to sweep "
                               "(default: the paper's 0-5%% ladder)")
    p_submit.add_argument("--jobs", type=int, default=1,
                          help="worker processes within the job")
    p_submit.add_argument("--retries", type=int, default=2,
                          help="retry budget per cell (default 2)")
    p_submit.add_argument("--task-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="watchdog per-cell timeout (needs "
                               "--jobs > 1)")
    p_submit.add_argument("--name", default=None,
                          help="experiment label (default: circuit)")
    p_submit.add_argument("--chaos", default=None, metavar="PLAN.json",
                          help="fault-injection plan file (testing/CI; "
                               "kill/hang faults need --jobs > 1)")
    p_submit.add_argument("--no-incremental", action="store_true",
                          help="recompute route/extraction/STA from "
                               "scratch every hold-fix round")
    p_submit.add_argument("--lint", action="store_true",
                          help="run the netlist/DFT lint gates inside "
                               "every level's flow")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job finishes, then "
                               "print its tables (exit 3 if degraded)")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="--wait deadline (default: %(default)s)")
    p_submit.add_argument("--trace", action="store_true",
                          help="have the daemon record per-cell span "
                               "trees; with --wait the merged Chrome "
                               "trace is fetched and written locally")
    p_submit.add_argument("--trace-out", default=None, metavar="PATH",
                          help="where --wait --trace writes the merged "
                               "trace (default: <job_id>.trace.json)")
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="cancel the job if it has not finished "
                               "this many seconds after submission "
                               "(measured by the daemon; survives a "
                               "daemon restart)")
    p_submit.add_argument("--placer", type=_placer_name, default=None,
                          metavar="ENGINE",
                          help="global-placement engine (quadratic, "
                               "sa); a job's engine is part of its "
                               "spec, so jobs differing only in engine "
                               "never coalesce")
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="show a daemon job's progress"
    )
    p_status.add_argument("job_id", metavar="JOB_ID")
    _add_service_url(p_status)
    p_status.set_defaults(func=cmd_status)

    p_result = sub.add_parser(
        "result", help="fetch a finished daemon job's tables"
    )
    p_result.add_argument("job_id", metavar="JOB_ID")
    _add_service_url(p_result)
    p_result.set_defaults(func=cmd_result)

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued or running daemon job"
    )
    p_cancel.add_argument("job_id", metavar="JOB_ID")
    _add_service_url(p_cancel)
    p_cancel.set_defaults(func=cmd_cancel)

    p_trace = sub.add_parser(
        "trace", help="summarize recorded Chrome trace files"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command",
                                       required=True)
    p_summarize = trace_sub.add_parser(
        "summarize", help="per-track span tables of a Chrome trace"
    )
    p_summarize.add_argument("inputs", nargs="+", metavar="PATH",
                             help="Chrome trace files")
    p_summarize.set_defaults(func=cmd_trace)

    args = parser.parse_args(argv)
    _validate_circuit(parser, args)
    try:
        return args.func(args)
    except ServiceError as err:
        print(f"service error: {err}", file=sys.stderr)
        return 1
    except TimeoutError as err:
        print(f"timed out: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
