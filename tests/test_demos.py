"""Every script in demos/ runs to completion with exit code 0 under
``-W error`` and prints exactly its recorded output in
``tests/golden/demos/<name>.txt``.

Regenerate a recorded output after a deliberate change with

    PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / f"{demo.stem}.txt").read_text()
