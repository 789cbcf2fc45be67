"""The supported library entry point of the reproduction toolkit.

Everything a program needs to drive the paper's experiments lives
here: :func:`load_circuit` builds one of the registered benchmark
netlists, :func:`run` executes the full Figure 2 flow on it, and
:func:`sweep` runs the paper's multi-level TP sweep that regenerates
Tables 1-3.  The CLI (``python -m repro``) is a thin shell over these
same functions, so the two surfaces cannot drift apart.

Quick start::

    import repro

    result = repro.run("s38417", scale=0.05, tp_percent=2.0)
    print(result.test_metrics())

All configuration flows through :class:`repro.FlowConfig` — keyword
options given to :func:`run`/:func:`sweep` are applied with
``FlowConfig.replace`` and therefore reject unknown keys with a
did-you-mean error.
"""

from __future__ import annotations

import difflib
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Union

from repro.chaos import FaultPlan
from repro.circuits import control_core, dsp_core_p26909, s38417_like
from repro.core.executor import (
    ExecutorConfig,
    run_sweep as _run_sweep,
    run_sweeps_report as _run_sweeps_report,
)
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.flow import FlowConfig, FlowResult, prepare_dft, run_flow
from repro.core.resilience import SweepReport
from repro.layout.sa import PLACERS
from repro.library.cell import Library
from repro.library.cmos130 import cmos130
from repro.lint.core import LintReport
from repro.netlist.circuit import Circuit

__all__ = [
    "CIRCUITS",
    "CircuitSpec",
    "PLACERS",
    "lint_netlist",
    "load_circuit",
    "run",
    "sweep",
    "sweep_report",
]


def _unknown_circuit_error(name: str) -> KeyError:
    """A did-you-mean KeyError for an unregistered circuit name."""
    choices = sorted(CIRCUITS)
    close = difflib.get_close_matches(str(name), choices, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return KeyError(
        f"unknown circuit {name!r}{hint}; choose from "
        + ", ".join(choices)
    )


@dataclass(frozen=True)
class CircuitSpec:
    """One registered benchmark circuit.

    Attributes:
        factory: Builds a fresh pre-DFT netlist; takes ``scale``.
        flow_defaults: Paper-accurate :class:`FlowConfig` overrides
            for this circuit (utilisation, chain policy).
    """

    factory: Callable[..., Circuit]
    flow_defaults: Mapping[str, Any]


#: Registered benchmark circuits and their paper-accurate flow settings.
CIRCUITS: Dict[str, CircuitSpec] = {
    "s38417": CircuitSpec(
        s38417_like,
        {"target_utilization": 0.97, "max_chain_length": 100},
    ),
    "control_core": CircuitSpec(
        control_core,
        {"target_utilization": 0.97, "max_chain_length": 100},
    ),
    "p26909": CircuitSpec(
        dsp_core_p26909,
        {"target_utilization": 0.50, "max_chain_length": None,
         "n_chains": 32},
    ),
}


def load_circuit(name: str, scale: float = 0.05) -> Circuit:
    """Build a fresh registered benchmark netlist.

    Args:
        name: A key of :data:`CIRCUITS` (e.g. ``"s38417"``).
        scale: Fraction of the published circuit size (1.0 reproduces
            the paper's dimensions).

    Returns:
        The pre-DFT netlist.

    Raises:
        KeyError: Unknown circuit name (message lists the choices and
            suggests the closest registered name).
    """
    spec = CIRCUITS.get(name)
    if spec is None:
        raise _unknown_circuit_error(name)
    return spec.factory(scale=scale)


def _resolve_config(
    circuit_name: Optional[str],
    config: Union[FlowConfig, Mapping[str, Any], None],
    options: Dict[str, Any],
) -> FlowConfig:
    """Merge registry defaults, an explicit config, and overrides."""
    if config is None:
        base = FlowConfig()
        if circuit_name is not None:
            base = base.replace(**CIRCUITS[circuit_name].flow_defaults)
    elif isinstance(config, FlowConfig):
        base = config
    else:
        base = FlowConfig.from_dict(config)
    return base.replace(**options) if options else base


def run(
    circuit: Union[Circuit, str],
    library: Optional[Library] = None,
    config: Union[FlowConfig, Mapping[str, Any], None] = None,
    *,
    scale: float = 0.05,
    **options: Any,
) -> FlowResult:
    """Run the full Figure 2 flow; the one supported library call.

    Args:
        circuit: A pre-DFT :class:`Circuit` (modified in place — pass
            a clone when the original must survive), or the name of a
            registered benchmark (see :data:`CIRCUITS`).
        library: Standard-cell library; defaults to the 130 nm one.
        config: Base :class:`FlowConfig`, or a plain dict accepted by
            :meth:`FlowConfig.from_dict`.  For named circuits the
            registry's paper-accurate defaults seed the config when
            none is given.
        scale: Circuit size fraction, used only when ``circuit`` is a
            name.
        **options: :class:`FlowConfig` field overrides (e.g.
            ``tp_percent=2.0``, ``incremental_eco=False``); unknown
            keys raise a did-you-mean ``ValueError``.

    Returns:
        The populated :class:`FlowResult`.
    """
    name = circuit if isinstance(circuit, str) else None
    if isinstance(circuit, str):
        circuit = load_circuit(circuit, scale=scale)
    flow_config = _resolve_config(name, config, options)
    return run_flow(circuit, library or cmos130(), flow_config)


def lint_netlist(
    circuit: Union[Circuit, str],
    library: Optional[Library] = None,
    config: Union[FlowConfig, Mapping[str, Any], None] = None,
    *,
    scale: float = 0.05,
    tp_percent: float = 0.0,
    chains: Any = None,
    **options: Any,
) -> LintReport:
    """Audit a netlist with the netlist/DFT rule pack; never raises.

    Two modes, matching :func:`run`'s circuit argument:

    * A registered benchmark *name*: a fresh netlist is built and taken
      through the flow's own stage-0 DFT prep
      (:func:`repro.core.flow.prepare_dft`: TPI at ``tp_percent``, scan
      insertion, electrical fix-up) under the registry's paper-accurate
      defaults, then linted — the same view the ``FlowConfig.lint``
      stage-0 gate sees.
    * A :class:`Circuit` object: linted exactly as given (no insertion);
      pass ``chains`` to enable the scan-chain rules.

    Args:
        circuit: Benchmark name or pre-built netlist.
        library: Standard-cell library; defaults to the 130 nm one.
        config: Base :class:`FlowConfig` (object or dict); for named
            circuits the registry defaults seed it when omitted.
        scale: Circuit size fraction (named circuits only).
        tp_percent: TP level for the stage-0 prep (named circuits
            only).
        chains: :class:`repro.scan.insertion.ScanChains` of an
            already-prepared circuit object.
        **options: :class:`FlowConfig` overrides, as in :func:`run`.

    Returns:
        The :class:`repro.lint.LintReport`; inspect ``report.ok`` /
        ``report.diagnostics`` or call ``report.raise_on_error()``.
    """
    from repro.lint.netlist_rules import lint_netlist as _lint

    if isinstance(circuit, str):
        flow_config = _resolve_config(
            circuit, config, dict(options, tp_percent=tp_percent)
        )
        prepared = prepare_dft(load_circuit(circuit, scale=scale),
                               library or cmos130(), flow_config)
        circuit, chains = prepared.circuit, prepared.chains
    else:
        flow_config = _resolve_config(None, config, dict(options))
    return _lint(
        circuit,
        chains=chains,
        max_chain_length=flow_config.max_chain_length,
        n_chains=flow_config.n_chains,
    )


def _build_experiment(
    circuit: Union[str, Callable[[], Circuit]],
    library: Optional[Library],
    config: Union[FlowConfig, Mapping[str, Any], None],
    scale: float,
    tp_percents: Optional[Sequence[float]],
    name: Optional[str],
    options: Dict[str, Any],
) -> ExperimentConfig:
    """Resolve a sweep's circuit/config into an ExperimentConfig."""
    circuit_name = circuit if isinstance(circuit, str) else None
    if isinstance(circuit, str):
        spec = CIRCUITS.get(circuit)
        if spec is None:
            raise _unknown_circuit_error(circuit)
        # functools.partial (not a lambda): the sweep executor pickles
        # the factory into worker processes when jobs > 1.
        factory = functools.partial(spec.factory, scale=scale)
    else:
        factory = circuit
    flow_config = _resolve_config(circuit_name, config, options)
    return ExperimentConfig(
        name=name or circuit_name or "sweep",
        circuit_factory=factory,
        flow=flow_config,
        library=library,
        **({"tp_percents": tuple(tp_percents)} if tp_percents else {}),
    )


def _build_executor(
    jobs: int,
    cache_dir: Optional[str],
    trace: bool,
    retries: int,
    task_timeout_s: Optional[float],
    fail_fast: bool,
    chaos: Optional[FaultPlan],
    cache_max_bytes: Optional[int] = None,
) -> ExecutorConfig:
    return ExecutorConfig(
        jobs=jobs, cache_dir=cache_dir, trace=trace,
        retries=retries, task_timeout_s=task_timeout_s,
        fail_fast=fail_fast, chaos=chaos, cache_max_bytes=cache_max_bytes,
    )


def sweep(
    circuit: Union[str, Callable[[], Circuit]],
    library: Optional[Library] = None,
    config: Union[FlowConfig, Mapping[str, Any], None] = None,
    *,
    scale: float = 0.05,
    tp_percents: Optional[Sequence[float]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    trace: bool = False,
    name: Optional[str] = None,
    retries: int = 2,
    task_timeout_s: Optional[float] = None,
    fail_fast: bool = False,
    chaos: Optional[FaultPlan] = None,
    **options: Any,
) -> ExperimentResult:
    """Run the paper's TP sweep (Tables 1-3) over one circuit.

    Every sweep runs through the fault-tolerant executor
    (:func:`repro.core.executor.run_sweeps_report`), at every job
    count, so the results are the same whatever ``jobs`` is.

    Args:
        circuit: Registered benchmark name, or a zero-argument factory
            returning a fresh pre-DFT netlist per level (must be
            picklable when ``jobs > 1``).
        library: Standard-cell library; defaults to the 130 nm one.
        config: Base :class:`FlowConfig` (object or dict), seeded from
            the registry for named circuits when omitted.
        scale: Circuit size fraction, used only for named circuits.
        tp_percents: TP levels to sweep (default: the paper's ladder).
        jobs: Worker processes; 1 runs every level inline in this
            process.  Results are bit-identical at every job count.
        cache_dir: Content-addressed result cache directory (also
            hosts the sweep journal); None runs every cell fresh.  A
            re-run with the same directory serves every finished cell
            from it, so it continues a killed sweep.
        cache_max_bytes: Size cap of the result cache; when the cached
            artifacts exceed it, least-recently-used entries are
            evicted (None = unbounded, the historical behaviour).
        trace: Record a span trace per level (on
            ``FlowSummary.trace``); untraced ``jobs=1`` levels record
            into any ambient :func:`repro.obs.tracing` context instead.
        name: Experiment name (defaults to the circuit name).
        retries: Retry budget per (circuit, tp%) task for *retryable*
            failures (crashes, timeouts, transient I/O).
        task_timeout_s: Watchdog per-task timeout; a task past it is
            killed (pool replaced) and charged a retry.  Needs
            ``jobs > 1``: an inline run cannot be preempted.
        fail_fast: Abort remaining cells after the first permanent
            failure instead of degrading gracefully.
        chaos: A :class:`repro.chaos.FaultPlan` of scripted failures
            (testing/CI; production sweeps leave it None).
        **options: :class:`FlowConfig` overrides, as in :func:`run`.

    Returns:
        The :class:`ExperimentResult` with the Table 1/2/3 rows; its
        runs are :class:`repro.core.executor.FlowSummary` cells.

    Raises:
        SweepExecutionError: A cell stayed failed after its retries
            (the cell's own exception is on ``failures``).  Use
            :func:`sweep_report` instead to get partial results plus
            structured failures without an exception.
    """
    experiment = _build_experiment(circuit, library, config, scale,
                                   tp_percents, name, options)
    executor = _build_executor(jobs, cache_dir, trace, retries,
                               task_timeout_s, fail_fast, chaos,
                               cache_max_bytes)
    return _run_sweep(experiment, executor)


def sweep_report(
    circuit: Union[str, Callable[[], Circuit]],
    library: Optional[Library] = None,
    config: Union[FlowConfig, Mapping[str, Any], None] = None,
    *,
    scale: float = 0.05,
    tp_percents: Optional[Sequence[float]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    trace: bool = False,
    name: Optional[str] = None,
    retries: int = 2,
    task_timeout_s: Optional[float] = None,
    fail_fast: bool = False,
    chaos: Optional[FaultPlan] = None,
    **options: Any,
) -> SweepReport:
    """Run the TP sweep with graceful degradation; never raises on
    cell failure.

    Same arguments as :func:`sweep`; the difference is the return
    contract.  The :class:`repro.core.resilience.SweepReport` carries
    every successful cell's summary under ``report.results`` plus one
    structured :class:`~repro.core.resilience.TaskFailure` per
    permanently failed cell — Tables 1/2/3 render with explicit holes
    instead of the sweep aborting.
    """
    experiment = _build_experiment(circuit, library, config, scale,
                                   tp_percents, name, options)
    executor = _build_executor(jobs, cache_dir, trace, retries,
                               task_timeout_s, fail_fast, chaos,
                               cache_max_bytes)
    return _run_sweeps_report([experiment], executor)
