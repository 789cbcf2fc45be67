"""Benchmark harness fixtures: the paper's three circuit sweeps.

Each circuit's six-layout experiment (0%..5% test points, Section 4.1)
runs once per session and is shared by the Table 1/2/3 benches; the
scales below keep a full three-circuit reproduction within tens of
minutes of pure Python.  ``--scale-full`` (or REPRO_BENCH_SCALE=1.0)
reproduces the published sizes at correspondingly long runtimes.

Outputs: every bench writes its table/figure to ``benchmarks/out/`` so
the run leaves a complete paper-vs-measured record behind.

Sweeps run through the parallel executor (bit-identical to the serial
reference at any job count): set ``REPRO_BENCH_JOBS=N`` to fan the six
levels out over N worker processes, and ``REPRO_BENCH_CACHE=dir`` to
reuse finished levels across bench invocations.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import api, obs
from repro.atpg import AtpgConfig

#: Default bench scales per circuit (fraction of the published size).
BENCH_SCALES = {
    "s38417": 0.08,
    "control_core": 0.06,
    "p26909": 0.05,
}

#: The paper's sweep.
TP_PERCENTS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

OUT_DIR = pathlib.Path(__file__).parent / "out"


def _scale_for(name: str) -> float:
    override = os.environ.get("REPRO_BENCH_SCALE")
    if override:
        return float(override)
    return BENCH_SCALES[name]


def _sweep(name: str, trace: bool):
    """One circuit's six-layout sweep; the circuit registry
    (``repro.api.CIRCUITS``) supplies the paper's per-circuit layout
    and scan settings.  Executor settings come from the environment
    (serial, uncached by default)."""
    return api.sweep(
        name, scale=_scale_for(name), tp_percents=TP_PERCENTS,
        jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE") or None,
        trace=trace, atpg=AtpgConfig(seed=2004, backtrack_limit=48),
    )


_CACHE = {}


def sweep_result(name: str):
    """Run (or reuse) the six-layout sweep for one circuit.

    With ``REPRO_BENCH_TRACE`` set, the sweep runs traced and a merged
    Chrome trace-event file lands in ``benchmarks/out/``.
    """
    if name not in _CACHE:
        if os.environ.get("REPRO_BENCH_TRACE"):
            with obs.tracing(label=f"bench:{name}") as tracer:
                result = _sweep(name, trace=True)
            traces = [run.trace for run in result.runs.values()]
            traces.append(tracer.trace())
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"BENCH_{name}_trace.json"
            obs.write_chrome_trace(trace_path, traces)
            print(f"\n[bench artifact] {trace_path}")
        else:
            result = _sweep(name, trace=False)
        _CACHE[name] = result
    return _CACHE[name]


@pytest.fixture(scope="session", params=list(BENCH_SCALES))
def circuit_sweep(request):
    """Parametrised sweep fixture: one value per paper circuit."""
    return sweep_result(request.param)


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def write_artifact(out_dir: pathlib.Path, filename: str,
                   content: str) -> None:
    """Persist a bench artifact and echo a pointer to the terminal."""
    path = out_dir / filename
    path.write_text(content, encoding="utf-8")
    print(f"\n[bench artifact] {path}")
