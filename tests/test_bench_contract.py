"""The per-layer benchmark tracer still runs the package it wraps.

``perfbench/tracer.py`` wraps package functions and methods by name
(``Subspace.__init__``, ``Echelon.insert`` and ``kernel_basis``,
``Representation.validate``, ``Monoid.__init__``, the chain functions)
and rebinds them in every package module; it also reads
``Subspace.basis``.  So it runs only in a subprocess, never in the test
process.  A golden case run under it, with ``-W error``, must exit 0,
print its golden stdout byte for byte, and record chain steps: a
refactor that renames a wrapped name breaks this test instead of the
benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN, INPUTS

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", ["verify-t3", "scan-nt-symmetric"])
def test_tracer_runs_golden_case(name, tmp_path):
    argv, code = CASES[name]
    assert code == 0
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
    out_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", str(TRACER), str(out_path), *argv],
                          env=env, capture_output=True, text=True,
                          encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    trace = json.loads(out_path.read_text(encoding="utf-8"))
    assert trace["counts"]["algebra.chain_steps"] > 0
    assert trace["counts"]["algebra.subspace_builds"] > 0
