"""Import order: every package imports cleanly as a fresh
interpreter's first import.

The netlist, lint and flow layers import one another; a cycle among
them shows only when the module that closes it is the first one
imported, so each module gets its own interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

MODULES = (
    "repro.netlist.circuit",
    "repro.netlist",
    "repro.lint",
    "repro.lint.core",
    "repro.lint.netlist_rules",
    "repro.lint.self",
    "repro.core.flow",
    "repro.api",
    "repro.service",
    "repro.cli",
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
