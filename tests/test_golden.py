"""Byte-for-byte golden outputs of the `mbt` command line.

Each case runs one `mbt` command in-process and compares its standard
output with ``tests/golden/<name>.txt`` and its exit code with the one
listed here.  Input files live in ``tests/golden/inputs``.  The cases
cover every subcommand, text and ``--json``, and the witness output of a
failed check (``--corrupt-radical``), so any change to stdout shows.

Regenerate after a deliberate output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from monoidrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

T3 = ["t3.json", "natural.json"]
N7 = ["nt7.json", "nt-paper.json"]
MOLIEN_WEIGHTS = "[1,2,3]:1,[2,1,3]:-1/2,[2,3,1]:3,[1,1,3]:2/3,[1,1,1]:-1"

# name -> (argv with input file names, expected exit code)
CASES = {
    "info-t3": (["info", *T3], 0),
    "verify-t3": (["verify", *T3, "--which", "all", "--powers-cap", "20"], 0),
    "verify-t3-json": (["verify", *T3, "--which", "all", "--powers-cap", "20",
                        "--json"], 0),
    "verify-n7-corrupt": (["verify", *N7, "--which", "all", "--corrupt-radical"], 1),
    "verify-n7-corrupt-json": (["verify", *N7, "--which", "all",
                                "--corrupt-radical", "--json"], 1),
    "scan-nt-tensor": (["scan-nt", "--from", "2", "--to", "9"], 0),
    "scan-nt-tensor-json": (["scan-nt", "--from", "2", "--to", "9", "--json"], 0),
    "scan-nt-symmetric": (["scan-nt", "--from", "2", "--to", "9",
                           "--mode", "symmetric"], 0),
    "scan-nt-symmetric-json": (["scan-nt", "--from", "2", "--to", "9",
                                "--mode", "symmetric", "--json"], 0),
    "molien-t3": (["molien", *T3, "--idempotent", "[1,2,3]",
                   "--weights", MOLIEN_WEIGHTS, "-N", "12"], 0),
}


def run_case(name):
    argv, _ = CASES[name]
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run_case(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    for name in sorted(CASES):
        code, out = run_case(name)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit code {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.txt").write_text(out)
        print(f"wrote {name}.txt")
