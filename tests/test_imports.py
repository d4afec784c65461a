"""What each launch compiles, and the package API that loads on first use.

A launch is a fresh ``python -X importtime ...`` process; the package
modules it imported are read from the import-time log on stderr.
``import monoidrep`` loads no submodule, ``mbt --help`` and a usage
error load only the command line module, and each subcommand loads the
layers it calls and no other; a text ``scan-nt`` loads no ``json``.
Every launch runs with ``-W error``, so a warning fails it.  The package
still exports every public name of its submodules, as the very object
the submodule holds.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monoidrep

ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path(__file__).parent / "golden" / "inputs"
LOADERS = {"fileio", "linalg", "monoids", "representations"}  # what a file load needs
MOLIEN = ["--idempotent", "[1,2,3]", "--weights", "[1,2,3]:1,[2,1,3]:-1/2", "-N", "3"]

# name -> (interpreter arguments, exit code, submodules imported)
LAUNCHES = {
    "import": (["-c", "import monoidrep"], 0, set()),
    "submodule": (["-c", "import monoidrep; monoidrep.linalg"], 0, {"linalg"}),
    "name": (["-c", "from monoidrep import nt_monoid"], 0, {"linalg", "monoids"}),
    "help": (["-m", "monoidrep", "--help"], 0, {"cli"}),
    "usage-error": (["-m", "monoidrep", "verify", "t3.json"], 2, {"cli"}),
    "unknown-command": (["-m", "monoidrep", "bogus"], 2, {"cli"}),
    "info": (["-m", "monoidrep", "info", "t3.json", "natural.json"], 0,
             {"cli"} | LOADERS),
    "verify": (["-m", "monoidrep", "verify", "t3.json", "natural.json"], 0,
               {"cli", "algebra"} | LOADERS),
    "molien": (["-m", "monoidrep", "molien", "t3.json", "natural.json", *MOLIEN], 0,
               {"cli", "molien"} | LOADERS),
    "scan-nt": (["-m", "monoidrep", "scan-nt", "--from", "2", "--to", "4"], 0,
                {"cli", "algebra", "linalg", "monoids", "representations"}),
}


def launch(args):
    """Exit code and import-time log of one launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", *args],
                          cwd=INPUTS, env=env, capture_output=True, text=True,
                          encoding="utf-8", timeout=120)
    return proc.returncode, proc.stderr


def imported_submodules(args):
    """Exit code and the ``monoidrep.*`` modules one launch imported."""
    code, log = launch(args)
    names = re.findall(r"^import time:.*\|\s*monoidrep(?:\.(\w+))?\s*$", log, re.MULTILINE)
    assert "" in names, log  # the package itself
    return code, set(names) - {"", "__main__"}


@pytest.mark.parametrize("name", sorted(LAUNCHES))
def test_launch_imports_only_what_it_runs(name):
    args, code, expected = LAUNCHES[name]
    assert imported_submodules(args) == (code, expected)


def test_scan_nt_imports_no_json():
    args, code, _ = LAUNCHES["scan-nt"]
    returncode, log = launch(args)
    assert returncode == code
    assert "monoidrep.algebra" in log
    assert not re.search(r"^import time:.*\|\s*json\s*$", log, re.MULTILINE)


def test_every_export_is_its_submodules_object():
    assert len(monoidrep.__all__) == len(set(monoidrep.__all__)) == 53
    for name in monoidrep.__all__:
        obj = getattr(monoidrep, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("monoidrep.")
        assert getattr(module, name) is obj
        assert getattr(monoidrep, module.__name__.split(".")[1]) is module


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from monoidrep import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(monoidrep.__all__)
    listed = dir(monoidrep)
    assert listed == sorted(listed)
    assert set(monoidrep.__all__) | {"__version__"} <= set(listed)
    assert monoidrep.__version__ == "0.1.0"


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        monoidrep.no_such_name
    assert not hasattr(monoidrep, "__main__")
    with pytest.raises(ImportError):
        exec("from monoidrep import no_such_name", {})


# public names that left the package, by the module that held them: each
# forwarded to another entry, or only tests used it
REMOVED = {
    "build_representation": "representations",  # Representation(m, mats)
    "from_cayley_table": "monoids",  # Monoid(table, identity, labels=labels)
    "complete_homogeneous_from_power_sums": "linalg",  # complete_homogeneous_sequence(p, d)[d]
    "sym_power_character": "representations",  # sym_power_characters(rho, x, d)[d]
    "format_polynomial": "linalg",  # str(p)
    "rank": "linalg",  # Echelon(m.ncols, m.rows).rank
    "kernel_basis": "linalg",  # Echelon(m.ncols, m.rows).kernel_basis()
    "as_fraction": "linalg",  # folded into the private _exact
    "submonoid": "monoids",  # tests/oracles.py
    "regular_representation": "representations",  # tests/oracles.py
    "monomial_basis": "representations",  # tests/oracles.py
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_forwarding_alias_is_gone(name):
    with pytest.raises(ImportError):
        exec(f"from monoidrep import {name}", {})
    assert not hasattr(getattr(monoidrep, REMOVED[name]), name)


def test_polynomial_has_no_is_zero():
    from monoidrep import Polynomial

    assert not hasattr(Polynomial(), "is_zero")
    assert not Polynomial() and Polynomial([0, 1])


def test_monoid_forwarders_are_gone_and_subspaces_compare_by_identity():
    from monoidrep import Monoid, Subspace

    assert not hasattr(Monoid, "mul") and not hasattr(Monoid, "label")
    assert Subspace.__eq__ is object.__eq__
    assert Subspace.__hash__ is object.__hash__
