"""repro.lint: the rule-based static-analysis engine.

Four rule packs share one engine and one diagnostics vocabulary:

* the **netlist/DFT pack** (:mod:`repro.lint.netlist_rules`) audits a
  design — structural integrity, combinational loops, scan-chain
  continuity, test-point clocking — and gates the flow when
  ``FlowConfig.lint`` is on (CLI: ``repro lint <circuit>``);
* the **determinism self-lint** (:mod:`repro.lint.selfrules`) audits
  the ``repro`` sources themselves for iteration-order, wall-clock and
  RNG hazards that would break the content-hash cache;
* the **concurrency pack** (:mod:`repro.lint.concrules`) runs a
  lockset dataflow analysis over each function's control-flow graph
  (:mod:`repro.lint.cfg` + :mod:`repro.lint.dataflow`) to catch
  guarded state touched without its lock, lock leaks, blocking calls
  under locks or in ``async def`` bodies, and double-acquires;
* the **resource pack** (:mod:`repro.lint.resrules`) tracks resource
  lifecycles (files/pools/sockets/journals open on some path at
  return) and the store/journal flush+fsync durability contract.

All Python-source packs run together via ``python -m repro.lint.self``
(CI) or :func:`repro.lint.self.lint_python`.  This package exports the
engine's vocabulary; each pack's entry point lives in its own module.
"""

from repro.lint.core import (
    Baseline,
    Diagnostic,
    ERROR,
    INFO,
    LintError,
    LintReport,
    Rule,
    SEVERITIES,
    WARNING,
    pack_rules,
    run_rules,
)

__all__ = [
    "Baseline",
    "Diagnostic",
    "ERROR",
    "INFO",
    "LintError",
    "LintReport",
    "Rule",
    "SEVERITIES",
    "WARNING",
    "pack_rules",
    "run_rules",
]

