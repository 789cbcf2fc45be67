"""Per-layer timing for the traced benchmark run, from outside the program.

The benchmark adds no code under ``src/``: :func:`instrumented` wraps
the public calls into each layer where the flow, the ATPG engine and
the service client call them, and restores every original on exit.

* A *coarse* call (a whole TPI run, one STA, one routing pass) opens a
  ``bench.<layer>`` span on the active :mod:`repro.obs` tracer, so it
  nests under the program's own stage and ATPG-phase spans and shows
  up in the Chrome trace.
* A *hot* call (``PodemEngine.generate`` runs thousands of times per
  sweep, ``FaultSimulator.run_block`` hundreds) opens no span; it adds
  its wall time and work counts to counters on the enclosing span.

:func:`self_seconds` then partitions a recorded trace into self time
per layer, and :func:`work_counts` sums the work counters.  Service
client threads each record into their own tracer (the process-wide
tracer is not thread-safe) through :func:`thread_tracer`.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.atpg import engine
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.podem import PodemEngine
from repro.core import flow
from repro.layout.placement import QuadraticPlacer
from repro.layout.routing import GlobalRouter
from repro.service.client import ServiceClient

#: Span names the benchmark itself opens around one flow cell, one
#: circuit's table assembly and one service job.  Their self time (the
#: program's own code outside any wrapped layer) is the ``flow`` layer.
FRAME_SPANS = ("bench.cell", "bench.tables", "bench.job")

#: Layers timed by hot-call counters rather than spans.
HOT_LAYERS = ("podem", "fsim")

#: Every layer :func:`self_seconds` reports, in flow order.
LAYERS = (
    "tpi", "scan", "netlist", "place", "eco_place", "cts", "route",
    "filler", "extract", "sta", "atpg", "atpg_setup", "podem", "fsim",
    "compaction", "svc.submit", "svc.status", "svc.result", "flow",
)

#: (owner, attribute, layer) of every coarse call.  Functions are
#: patched in the namespace that calls them; methods on their class.
COARSE_CALLS: Tuple[Tuple[object, str, str], ...] = (
    (flow, "insert_test_points", "tpi"),
    (flow, "insert_scan", "scan"),
    (flow, "reorder_chains", "scan"),
    (flow, "fix_electrical", "netlist"),
    (flow, "validate", "netlist"),
    (flow, "build_floorplan", "place"),
    (QuadraticPlacer, "place", "place"),
    (QuadraticPlacer, "refine", "place"),
    (QuadraticPlacer, "eco_place", "eco_place"),
    (flow, "synthesize_all_clock_trees", "cts"),
    (GlobalRouter, "route_all", "route"),
    (GlobalRouter, "reroute", "route"),
    (flow, "insert_fillers", "filler"),
    (flow, "extract_all", "extract"),
    (flow, "extract_incremental", "extract"),
    (flow, "run_sta", "sta"),
    (flow, "run_sta_with_state", "sta"),
    (flow, "run_sta_incremental", "sta"),
    (flow, "run_atpg", "atpg"),
    (engine, "extract_comb_view", "atpg_setup"),
    (engine, "build_fault_list", "atpg_setup"),
    (engine, "compute_scoap", "atpg_setup"),
    (engine, "compute_cop", "atpg_setup"),
    (engine, "BitSimulator", "atpg_setup"),
    (engine, "FaultSimulator", "atpg_setup"),
    (engine, "PodemEngine", "atpg_setup"),
    (engine, "reverse_order_compaction", "compaction"),
    (ServiceClient, "submit", "svc.submit"),
    (ServiceClient, "status", "svc.status"),
    (ServiceClient, "result", "svc.result"),
)

_local = threading.local()


def _tracer():
    """The calling thread's own tracer, else the process-wide one."""
    return getattr(_local, "tracer", None) or obs.get_tracer()


@contextmanager
def thread_tracer(label: str) -> Iterator[obs.Tracer]:
    """Record this thread's wrapped calls into a tracer of its own."""
    _local.tracer = obs.Tracer(label)
    try:
        yield _local.tracer
    finally:
        _local.tracer = None


def _coarse(original: Callable, layer: str) -> Callable:
    name = f"bench.{layer}"

    @functools.wraps(original, updated=())
    def wrapper(*args, **kwargs):
        with _tracer().span(name):
            return original(*args, **kwargs)
    return wrapper


def _podem_counts(tracer, args, kwargs, cube) -> None:
    tracer.counter("bench.podem.backtracks", cube.backtracks)
    tracer.counter(f"bench.podem.{cube.status}")
    if kwargs.get("fixed"):
        tracer.counter("bench.podem.merge_calls")
        if cube.status == "detected":
            tracer.counter("bench.podem.merge_hits")


def _fsim_counts(tracer, args, kwargs, detections) -> None:
    # run_block(self, input_words, faults, good=None); every caller
    # passes a sized collection of faults.
    tracer.counter("bench.fsim.fault_evals", len(args[2]))
    tracer.counter("bench.fsim.detections", len(detections))


def _hot(original: Callable, layer: str, count: Callable) -> Callable:
    seconds, calls = f"bench.{layer}.s", f"bench.{layer}.calls"

    @functools.wraps(original, updated=())
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        tracer = _tracer()
        tracer.counter(seconds, elapsed)
        tracer.counter(calls)
        count(tracer, args, kwargs, result)
        return result
    return wrapper


HOT_CALLS = (
    (PodemEngine, "generate", "podem", _podem_counts),
    (FaultSimulator, "run_block", "fsim", _fsim_counts),
)


def patch_targets() -> List[Tuple[object, str]]:
    """Every (owner, attribute) :func:`instrumented` replaces."""
    return ([(owner, attr) for owner, attr, _ in COARSE_CALLS]
            + [(owner, attr) for owner, attr, _, _ in HOT_CALLS])


@contextmanager
def instrumented() -> Iterator[None]:
    """Install the layer wrappers for the ``with`` body, then restore
    every original object exactly."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr in patch_targets()]
    try:
        for owner, attr, layer in COARSE_CALLS:
            setattr(owner, attr, _coarse(getattr(owner, attr), layer))
        for owner, attr, layer, count in HOT_CALLS:
            setattr(owner, attr, _hot(getattr(owner, attr), layer, count))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def snapshot() -> List[object]:
    """The objects currently bound at every patch target."""
    return [getattr(owner, attr) for owner, attr in patch_targets()]


# ----------------------------------------------------------------------
# Reading a trace
# ----------------------------------------------------------------------
def _layer_of(span_name: str) -> Optional[str]:
    if span_name in FRAME_SPANS:
        return "flow"
    if span_name.startswith("bench."):
        return span_name[len("bench."):]
    return None


def self_seconds(spans: List[obs.Span]) -> Dict[str, float]:
    """Self time per layer over the span trees rooted at ``spans``.

    Each span's exclusive time (its duration minus its children and
    minus the hot-call time counted on it) goes to the innermost
    enclosing ``bench.*`` layer, so program spans such as
    ``global_route`` count towards the layer that called them.  The
    layers partition the roots' total duration.
    """
    totals = {layer: 0.0 for layer in LAYERS}

    def visit(span: obs.Span, owner: str) -> None:
        owner = _layer_of(span.name) or owner
        hot = 0.0
        for layer in HOT_LAYERS:
            seconds = span.counters.get(f"bench.{layer}.s", 0.0)
            totals[layer] += seconds
            hot += seconds
        children = sum(child.duration_s for child in span.children)
        totals[owner] += span.duration_s - children - hot
        for child in span.children:
            visit(child, owner)

    for root in spans:
        visit(root, "flow")
    return totals


def work_counts(spans: List[obs.Span]) -> Dict[str, float]:
    """Work done per layer, from the wrappers' counters and the
    program's own span counters and gauges."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for root in spans:
        for span in root.walk():
            calls[span.name] = calls.get(span.name, 0) + 1
            for key, value in span.counters.items():
                counters[key] = counters.get(key, 0.0) + value
            for key, value in span.gauges.items():
                gauges[key] = gauges.get(key, 0.0) + value
    c = counters.get
    return {
        "tpi.test_points": gauges.get("test_points", 0.0),
        "place.cells": gauges.get("cells_placed", 0.0),
        "cts.buffers": c("clock_buffers", 0.0),
        "route.nets": c("nets_routed", 0.0) + c("rerouted_nets", 0.0),
        "extract.nets": c("nets_extracted", 0.0),
        "sta.calls": calls.get("bench.sta", 0),
        "sta.hold_fix_rounds": calls.get("hold_fix_round", 0),
        "sta.hold_buffers": c("hold_buffers_inserted", 0.0),
        "podem.calls": c("bench.podem.calls", 0.0),
        "podem.backtracks": c("bench.podem.backtracks", 0.0),
        "podem.detected": c("bench.podem.detected", 0.0),
        "podem.aborted": c("bench.podem.aborted", 0.0),
        "podem.redundant": c("bench.podem.redundant", 0.0),
        "podem.merge_calls": c("bench.podem.merge_calls", 0.0),
        "podem.merge_hits": c("bench.podem.merge_hits", 0.0),
        "fsim.blocks": c("bench.fsim.calls", 0.0),
        "fsim.fault_evals": c("bench.fsim.fault_evals", 0.0),
        "fsim.detections": c("bench.fsim.detections", 0.0),
        "compaction.patterns_in": gauges.get("patterns_before", 0.0),
        "compaction.patterns_out": gauges.get("patterns_after", 0.0),
        "svc.jobs": calls.get("bench.job", 0),
        "svc.polls": calls.get("bench.svc.status", 0),
    }
