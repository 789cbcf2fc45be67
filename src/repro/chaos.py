"""Deterministic fault injection for the sweep engine.

Testing a fault-tolerance layer by hoping CI machines misbehave is not
a strategy.  This module scripts failures: a :class:`FaultPlan` is a
plain-data, picklable list of :class:`FaultSpec` entries, each naming a
(circuit, tp%) cell, a flow stage, and a fault kind:

``raise``
    Raise :class:`InjectedFault` (classified retryable) at the stage
    checkpoint.
``hang``
    Sleep ``seconds`` at the stage checkpoint — long enough that the
    executor's watchdog must time the task out and replace the pool.
``kill``
    ``os._exit`` the worker process at the stage checkpoint, breaking
    the process pool exactly like a real crash / OOM kill.
``corrupt_cache``
    Not a stage fault: the executor truncates the cell's result-cache
    entry right after writing it, simulating a torn write that a later
    (resumed) sweep must quarantine and recompute.
``cache_write_error``
    Not a stage fault either: the cell's result-cache ``put`` raises
    ``OSError`` (disk full), which the executor must absorb — the
    result survives uncached and the sweep degrades to a read-only
    cache instead of failing.

Faults gate on the task's **attempt number**: a spec with ``times=1``
fires on the first attempt only (retries then succeed), ``times=-1``
fires on every attempt (the cell stays failed until the plan is
disabled).  Nothing here consults a clock or a live RNG, so a chaos
run replays identically — the whole point.

A plan reaches a sweep one way, as ``ExecutorConfig.chaos``: set by
``api.sweep*(chaos=plan)``, by ``repro sweep``/``repro submit
--chaos PLAN.json`` (the file :meth:`FaultPlan.save` writes), or by a
daemon request's ``SweepRequest.chaos``.  The flow calls
:func:`checkpoint(stage)` at the top of every stage; with no plan
activated for the current cell this is a single module-global ``None``
check — the harness costs nothing in production.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

#: Supported fault kinds.
KINDS = ("raise", "hang", "kill", "corrupt_cache", "cache_write_error")

#: Exit status a ``kill`` fault dies with (distinctive in CI logs).
KILL_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """A scripted failure raised by a ``raise`` fault.

    Classified retryable (``retryable = True``): injected faults model
    transient infrastructure failures, so the retry path — not the
    fatal path — is what they exercise.
    """

    retryable = True


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    Attributes:
        kind: One of :data:`KINDS`.
        circuit: Circuit (experiment) name to match, or ``"*"``.
        tp_percent: TP level to match; None matches every level.
        stage: Flow stage checkpoint the fault fires at (one of
            :data:`repro.core.flow.STAGE_KEYS`); ignored by
            ``corrupt_cache`` and ``cache_write_error``.
        times: Attempts the fault fires on (``attempt < times``);
            ``-1`` means every attempt.
        seconds: Sleep duration of a ``hang`` fault.
    """

    kind: str
    circuit: str = "*"
    tp_percent: Optional[float] = None
    stage: str = "tpi_scan"
    times: int = 1
    seconds: float = 3600.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from "
                + ", ".join(KINDS)
            )

    def matches_cell(self, circuit: str, tp_percent: float) -> bool:
        """True when this spec targets the given sweep cell."""
        if self.circuit != "*" and self.circuit != circuit:
            return False
        if self.tp_percent is not None and self.tp_percent != tp_percent:
            return False
        return True

    def fires(self, circuit: str, tp_percent: float, stage: str,
              attempt: int) -> bool:
        """True when this spec fires at this stage of this attempt."""
        if self.kind in ("corrupt_cache", "cache_write_error") \
                or not self.matches_cell(circuit, tp_percent):
            return False
        if self.stage != stage:
            return False
        return self.times < 0 or attempt < self.times


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible script of faults for one sweep.

    Attributes:
        faults: The scripted faults, applied in order.
        seed: Identity tag carried into journals and labels so two
            chaos runs can be told apart; the plan itself is fully
            deterministic and never draws randomness.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    def stage_faults(self, circuit: str, tp_percent: float, stage: str,
                     attempt: int) -> Tuple[FaultSpec, ...]:
        """Faults that fire at this stage checkpoint, in plan order."""
        return tuple(
            spec for spec in self.faults
            if spec.fires(circuit, tp_percent, stage, attempt)
        )

    def corrupts_cache(self, circuit: str, tp_percent: float) -> bool:
        """True when the cell's cache entry should be torn post-write."""
        return any(
            spec.kind == "corrupt_cache"
            and spec.matches_cell(circuit, tp_percent)
            for spec in self.faults
        )

    def fails_cache_write(self, circuit: str, tp_percent: float) -> bool:
        """True when the cell's cache ``put`` should raise OSError."""
        return any(
            spec.kind == "cache_write_error"
            and spec.matches_cell(circuit, tp_percent)
            for spec in self.faults
        )

    # -- plain-data interchange -----------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "faults": [
                {
                    "kind": spec.kind,
                    "circuit": spec.circuit,
                    "tp_percent": spec.tp_percent,
                    "stage": spec.stage,
                    "times": spec.times,
                    "seconds": spec.seconds,
                }
                for spec in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from parsed JSON."""
        faults = tuple(
            FaultSpec(**entry) for entry in data.get("faults", ())
        )
        return cls(faults=faults, seed=int(data.get("seed", 0)))

    def save(self, path) -> None:
        """Write the plan as JSON (the ``--chaos`` file format)."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan written by :meth:`save`."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


# ----------------------------------------------------------------------
# Activation context and checkpoints
# ----------------------------------------------------------------------
class _Context:
    """The cell a plan is currently active for (one per process)."""

    __slots__ = ("plan", "circuit", "tp_percent", "attempt")

    def __init__(self, plan: FaultPlan, circuit: str, tp_percent: float,
                 attempt: int):
        self.plan = plan
        self.circuit = circuit
        self.tp_percent = tp_percent
        self.attempt = attempt


#: The active injection context; None means checkpoints are no-ops.
_active: Optional[_Context] = None


@contextmanager
def active(plan: Optional[FaultPlan], circuit: str, tp_percent: float,
           attempt: int = 0) -> Iterator[None]:
    """Activate ``plan`` for one cell for the ``with`` body.

    ``plan=None`` is the common case and costs nothing.  Re-entrant:
    the previous context (normally None) is restored on exit.
    """
    global _active
    if plan is None:
        yield
        return
    previous = _active
    _active = _Context(plan, circuit, tp_percent, attempt)
    try:
        yield
    finally:
        _active = previous


def checkpoint(stage: str) -> None:
    """Fire any scripted faults for ``stage`` in the active context.

    Called by the flow at the top of every stage.  With no active
    context (production) this is one global load and a None check.
    """
    ctx = _active
    if ctx is None:
        return
    for spec in ctx.plan.stage_faults(ctx.circuit, ctx.tp_percent,
                                      stage, ctx.attempt):
        if spec.kind == "raise":
            raise InjectedFault(
                f"chaos: injected failure in {stage} for "
                f"{ctx.circuit}@{ctx.tp_percent:g}% "
                f"(attempt {ctx.attempt})"
            )
        if spec.kind == "hang":
            time.sleep(spec.seconds)
        elif spec.kind == "kill":
            # Flush nothing, die hard: models SIGKILL/OOM, and the
            # parent must see a broken pool, not a tidy exception.
            os._exit(KILL_EXIT_CODE)
