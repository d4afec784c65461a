"""List the public functions and methods of ``src/monoidrep`` that no use
of the package reaches.

    PYTHONPATH=src python tests/reach.py

runs, in this one process and under ``sys.setprofile``, every golden case
of ``test_golden.CASES`` but the ``*-corrupt*`` ones (which patch the
radical), every script in ``demos/`` and the README's library quick
start, with their output and warnings discarded.  It then prints, one a
line, each public function and method of the package's layers, dunders
included, that none of them called: a function by its module
(``cli.console_main``) and a method by its class (``Matrix.__repr__``).
The package's ``__init__`` and ``__main__`` are launch machinery, not
layers, and are not listed.  It exits 1 if it lists a name outside
``ALLOWED``, so a public function or method that no use reaches fails
the check until it goes or a use reaches it.  No profiler beyond the
standard library's is used; the cases and the quick start come from the
suite's ``test_golden`` (which imports pytest) and ``test_readme``.  A
run takes about 6 s, so the script is no tier-1 test.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import runpy
import sys
import threading

import monoidrep
from monoidrep.cli import main

from test_golden import CASES, INPUTS
from test_readme import ROOT, quick_start

# the names no use above reaches that stay, each for its reason
ALLOWED = {
    "CapExceeded.__init__": "raised by a closure past its cap, a refusal no use makes",
    "Matrix.__repr__": "what a traceback or an interactive session shows",
    "Polynomial.__repr__": "what a traceback or an interactive session shows",
    "Representation.__repr__": "what a traceback or an interactive session shows",
    "Subspace.__repr__": "what a traceback or an interactive session shows",
    "cli.console_main": "the installed `mbt` script, which runs in a process of its own",
}


def public_code():
    """(name, code object) of each public function and method of every
    layer module, properties and class methods by their functions."""
    for info in pkgutil.iter_modules(monoidrep.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"monoidrep.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and not attr.endswith("__"):
                        continue
                    fn = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        yield f"{obj.__qualname__}.{attr}", fn.__code__
            elif inspect.isfunction(fn := inspect.unwrap(obj)):  # lru_cache unwrapped
                yield f"{info.name}.{name}", fn.__code__


def uses():
    """Run every golden case but the corrupt ones, every demo and the
    README quick start, in that order."""
    for name, (argv, _) in sorted(CASES.items()):
        if "-corrupt" not in name:
            main([str(INPUTS / a) if a.endswith(".json") else a for a in argv])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    exec(compile(quick_start(), str(ROOT / "README.md"), "exec"), {"__name__": "__main__"})


def unreached():
    """The names of ``public_code`` whose code ``uses`` never called, sorted."""
    code = dict(public_code())
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            uses()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sorted(name for name, c in code.items() if c not in called)


if __name__ == "__main__":
    names = unreached()
    print("\n".join(names))
    sys.exit(1 if set(names) - set(ALLOWED) else 0)
