"""Every way an `mbt` launch ends, run as a real process.

`cli.console_main` ends the process with ``os._exit`` once stdout and
stderr are flushed, so it is only ever run in a subprocess here: called
in-process it would end pytest.  Each golden case that needs no patch
runs as ``python -m monoidrep`` with stdout on a pipe and must print its
golden file byte for byte with its golden exit code.  Each edge case
(``--help``, a usage error, a refused job, a failed theorem, a closed
stdout, stdout on ``/dev/full``, a pipe whose reader has gone) must give
the exit code, stdout and stderr of the same argv run through `main` and
a plain ``SystemExit``, which ends by the interpreter's own teardown.
Every case runs with ``PYTHONUNBUFFERED`` set and unset: buffered, a
broken pipe fails at the final flush; unbuffered, inside ``print``.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN, INPUTS

ROOT = Path(__file__).resolve().parent.parent

# both launchers patch the radical to the zero subspace for a failed theorem
ZERO_RADICAL = ("from monoidrep import algebra; from oracles import span_subspace; "
                "algebra.radical_basis = lambda m, force=False: span_subspace(m.size, ()); ")
UNDER_TEST = "from monoidrep.cli import console_main; console_main()"
ORACLE = ("import sys; from monoidrep.cli import main; "
          "raise SystemExit(main(sys.argv[1:]))")

SMALL = ["scan-nt", "--from", "2", "--to", "6"]
# about 300 bytes of output, and 5 kB in one print
LARGE = ["info", str(INPUTS / "m128.json"), str(INPUTS / "natural.json"), "--json"]

# name -> (argv, stdout: "pipe", "closed", "full" or "broken", patched radical)
EDGE_CASES = {
    "help": (["--help"], "pipe", False),
    "usage-error": (["verify", str(INPUTS / "t3.json")], "pipe", False),
    "refused-job": (["scan-nt", "--from", "2", "--to", "400"], "pipe", False),
    "failed-theorem": (["verify", str(INPUTS / "nt7.json"), str(INPUTS / "nt-paper.json"),
                        "--which", "all"], "pipe", True),
    "help-broken": (["--help"], "broken", False),
    **{f"{size}-{stdout}": (argv, stdout, False)
       for size, argv in (("small", SMALL), ("large", LARGE))
       for stdout in ("closed", "full", "broken")},
}

BUFFERING = {"buffered": None, "unbuffered": "1"}


def environment(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def launch(code, argv, stdout, env):
    """Run ``python -c code argv`` with stdout as named; return the exit
    code, stdout (None unless on a pipe) and stderr, both as bytes."""
    cmd = [sys.executable, "-c", code, *argv]
    if stdout == "closed":  # as the shell's >&- leaves it
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
    with contextlib.ExitStack() as stack:
        if stdout == "full":
            target = stack.enter_context(open("/dev/full", "wb"))
        elif stdout == "broken":
            read, target = os.pipe()
            os.close(read)  # the reader is gone before the child writes
            stack.callback(os.close, target)
        else:
            target = subprocess.PIPE if stdout == "pipe" else None
        proc = subprocess.run(cmd, stdout=target, stderr=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("buffering", sorted(BUFFERING))
@pytest.mark.parametrize("name", sorted(n for n in CASES if "-corrupt" not in n))
def test_golden_case_as_a_process(name, buffering):
    argv, expected = CASES[name]
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "monoidrep", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=environment(BUFFERING[buffering]), cwd=ROOT, timeout=120)
    assert proc.returncode == expected, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("buffering", sorted(BUFFERING))
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_ends_as_a_normal_exit(name, buffering):
    argv, stdout, patched = EDGE_CASES[name]
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = environment(BUFFERING[buffering])
    prefix = ZERO_RADICAL if patched else ""
    got = launch(prefix + UNDER_TEST, argv, stdout, env)
    assert got == launch(prefix + ORACLE, argv, stdout, env)


def test_edge_cases_cover_every_exit():
    """Buffered, the oracle exits 0, 2, 2 and 1 on a pipe, 0 with stdout
    closed, and 120 (a failed final flush) on a full or broken stdout."""
    codes = {}
    for name, (argv, stdout, patched) in EDGE_CASES.items():
        if stdout != "full" or os.path.exists("/dev/full"):
            code = (ZERO_RADICAL if patched else "") + ORACLE
            codes[name] = launch(code, argv, stdout, environment(None))[0]
    expected = {"help": 0, "usage-error": 2, "refused-job": 2, "failed-theorem": 1}
    for name, (_, stdout, _) in EDGE_CASES.items():
        if stdout != "pipe":
            expected[name] = 0 if stdout == "closed" else 120
    assert codes == {n: c for n, c in expected.items() if n in codes}
