"""Byte-for-byte golden outputs of the `mbt` command line.

Each case runs one `mbt` command in-process and compares its standard
output with ``tests/golden/<name>.txt`` and its exit code with the one
listed here.  Input files live in ``tests/golden/inputs``.  The cases
cover every subcommand, text and ``--json``, and the witness output of a
failed check: a case named ``*-corrupt*`` runs with ``algebra.radical_basis``
returning the zero subspace, so any change to stdout shows.
The golden test runs every case with ``os.fork`` refused, so no `mbt`
command forks, and checks that none writes to stderr.

Regenerate after a deliberate output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from monoidrep import algebra, monoids
from monoidrep.algebra import Subspace
from monoidrep.cli import main
from monoidrep.linalg import Echelon
from monoidrep.representations import Representation

from oracles import span_subspace

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

T3 = ["t3.json", "natural.json"]
T4 = ["t4.json", "natural.json"]
N7 = ["nt7.json", "nt-paper.json"]
# the 128-element submonoid of T_4 generated by (2,3,4,1) and (1,1,3,4)
M128 = ["m128.json", "natural.json"]
# rational conjugates P rho P^-1 of the natural and N_7 representations:
# their coefficient rows have denominators to clear
T3_CONJ = ["t3.json", "t3-conjugate.json"]
N7_CONJ = ["nt7.json", "nt7-conjugate.json"]
# the 3-element matrix monoid generated by a rational projection and a swap,
# with its defining matrices: weights and character values are rational
RATIONAL2 = ["rational2.json", "rational2-defining.json"]
MOLIEN_WEIGHTS = "[1,2,3]:1,[2,1,3]:-1/2,[2,3,1]:3,[1,1,3]:2/3,[1,1,1]:-1"
MOLIEN_SHORT = "[1,2,3]:1,[2,1,3]:-1/2,[2,3,1]:3"
MOLIEN_LOCAL = "[1,1,3]:2,[3,3,1]:-1/2,[1,1,1]:1/3,[3,3,3]:1"

# name -> (argv with input file names, expected exit code)
CASES = {
    "info-t3": (["info", *T3], 0),
    "info-m128": (["info", *M128], 0),
    "info-m128-json": (["info", *M128, "--json"], 0),
    # characteristic polynomials and character values of rational matrices
    "info-t3-conjugate": (["info", *T3_CONJ], 0),
    "info-t3-conjugate-json": (["info", *T3_CONJ, "--json"], 0),
    "info-n7-conjugate": (["info", *N7_CONJ], 0),
    "verify-t3": (["verify", *T3, "--which", "all"], 0),
    # the default flags walk every bound; same stdout as verify-t3
    "verify-t3-default": (["verify", *T3], 0),
    "verify-t3-json": (["verify", *T3, "--which", "all", "--json"], 0),
    # symmetric degrees up to 7 at dimension 4
    "verify-t4": (["verify", *T4, "--which", "all"], 0),
    "verify-m128-steinberg": (["verify", *M128, "--which", "steinberg"], 0),
    "verify-m128-steinberg-json": (["verify", *M128, "--which", "steinberg",
                                    "--json"], 0),
    "verify-t3-conjugate": (["verify", *T3_CONJ, "--which", "all"], 0),
    # with the zero radical: Ann = 0 at every bound, so even that holds
    "verify-t3-conjugate-corrupt": (["verify", *T3_CONJ, "--which", "all"], 0),
    "verify-n7-conjugate-corrupt": (["verify", *N7_CONJ, "--which", "all"], 1),
    # the nt-paper spec with its true radical
    "verify-n7": (["verify", *N7, "--which", "all"], 0),
    "verify-n7-corrupt": (["verify", *N7, "--which", "all"], 1),
    "verify-n7-corrupt-json": (["verify", *N7, "--which", "all", "--json"], 1),
    "scan-nt-tensor": (["scan-nt", "--from", "2", "--to", "9"], 0),
    "scan-nt-tensor-json": (["scan-nt", "--from", "2", "--to", "9", "--json"], 0),
    "scan-nt-symmetric": (["scan-nt", "--from", "2", "--to", "9",
                           "--mode", "symmetric"], 0),
    "scan-nt-symmetric-json": (["scan-nt", "--from", "2", "--to", "9",
                                "--mode", "symmetric", "--json"], 0),
    # --cap 3 leaves min_faithful = none from t = 5 on
    "scan-nt-tensor-cap3": (["scan-nt", "--from", "2", "--to", "9", "--cap", "3"], 0),
    "scan-nt-tensor-cap3-json": (["scan-nt", "--from", "2", "--to", "9",
                                  "--cap", "3", "--json"], 0),
    "scan-nt-symmetric-cap3": (["scan-nt", "--from", "2", "--to", "9",
                                "--mode", "symmetric", "--cap", "3"], 0),
    "scan-nt-symmetric-cap3-json": (["scan-nt", "--from", "2", "--to", "9",
                                     "--mode", "symmetric", "--cap", "3",
                                     "--json"], 0),
    # the cap is below the symmetric bound 3; min_faithful still reads up to 3
    "scan-nt-symmetric-cap1": (["scan-nt", "--from", "2", "--to", "9",
                                "--mode", "symmetric", "--cap", "1"], 0),
    "scan-nt-symmetric-cap1-json": (["scan-nt", "--from", "2", "--to", "9",
                                     "--mode", "symmetric", "--cap", "1",
                                     "--json"], 0),
    # t = 13 gives min_faithful 12 and t >= 14 gives none, as in the benchmark
    "scan-nt-tensor-cap12-deep": (["scan-nt", "--from", "12", "--to", "15",
                                   "--cap", "12"], 0),
    "scan-nt-tensor-cap12-deep-json": (["scan-nt", "--from", "12", "--to", "15",
                                        "--cap", "12", "--json"], 0),
    "scan-nt-symmetric-cap12-deep": (["scan-nt", "--from", "12", "--to", "15",
                                      "--mode", "symmetric", "--cap", "12"], 0),
    "scan-nt-symmetric-cap12-deep-json": (["scan-nt", "--from", "12", "--to", "15",
                                           "--mode", "symmetric", "--cap", "12",
                                           "--json"], 0),
    # the benchmark's nt-scan jobs: every row reads N_40's walks
    "scan-nt-tensor-cap12-bench": (["scan-nt", "--from", "2", "--to", "40",
                                    "--mode", "tensor", "--cap", "12"], 0),
    "scan-nt-symmetric-cap12-bench": (["scan-nt", "--from", "2", "--to", "40",
                                       "--mode", "symmetric", "--cap", "12"], 0),
    # N_254 and N_255 have at most 256 elements, so Light's test runs as
    # one translate pass per element; N_256..N_258 take the triple loop
    "scan-nt-tensor-byte-boundary": (["scan-nt", "--from", "254", "--to", "258",
                                      "--mode", "tensor"], 0),
    "scan-nt-symmetric-byte-boundary": (["scan-nt", "--from", "254", "--to", "258",
                                         "--mode", "symmetric"], 0),
    "molien-t3": (["molien", *T3, "--idempotent", "[1,2,3]",
                   "--weights", MOLIEN_WEIGHTS, "-N", "12"], 0),
    "molien-t3-n0": (["molien", *T3, "--idempotent", "[1,2,3]",
                      "--weights", MOLIEN_WEIGHTS, "-N", "0"], 0),
    "molien-t3-conjugate": (["molien", *T3_CONJ, "--idempotent", "[1,2,3]",
                             "--weights", MOLIEN_SHORT, "-N", "6"], 0),
    "molien-rational": (["molien", *RATIONAL2, "--idempotent", "g0",
                         "--weights", "g0:1,g1:-2/3,g2:1/2", "-N", "5"], 0),
    # e = [1,1,3] has rank 2: eV is a proper subspace of V
    "molien-t3-local": (["molien", *T3, "--idempotent", "[1,1,3]",
                         "--weights", MOLIEN_LOCAL, "-N", "8"], 0),
    "molien-t3-local-json": (["molien", *T3, "--idempotent", "[1,1,3]",
                              "--weights", MOLIEN_LOCAL, "-N", "8", "--json"], 0),
}


def zero_radical(m, force=False):
    return span_subspace(m.size, ())


def refusing_forks(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refuse, raising=False)


def run_case(name):
    argv, _ = CASES[name]
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    radical = (mock.patch.object(algebra, "radical_basis", zero_radical) if "-corrupt" in name
               else contextlib.nullcontext())
    with contextlib.redirect_stdout(out), radical:
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch, capsys):
    """Every case, the zero-radical ``*-corrupt*`` ones with their exit-1
    witnesses among them, prints its golden stdout with its exit code
    from this process alone, and nothing on stderr: no `mbt` command
    forks."""
    refusing_forks(monkeypatch)
    code, out = run_case(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().err == ""


EXPLICIT_POWERS = ("direct_sum", "tensor_power", "kron", "sym_power")


@pytest.mark.parametrize("name", ["verify-t3", "scan-nt-tensor", "scan-nt-symmetric"])
def test_checking_path_builds_no_explicit_power(name, monkeypatch):
    """Verifying and scanning never build a direct sum, a Kronecker power
    or a symmetric power matrix: with all of them made to raise, in every
    package module that holds one, the output is unchanged."""

    def refuse(*args, **kwargs):
        raise AssertionError("an explicit power was built")

    for key, mod in list(sys.modules.items()):
        if key == "monoidrep" or key.startswith("monoidrep."):
            for fn in EXPLICIT_POWERS:
                if hasattr(mod, fn):
                    monkeypatch.setattr(mod, fn, refuse)
    code, out = run_case(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


VERIFIERS = ("verify_tensor_theorem", "verify_symmetric_theorem",
             "verify_positive_power_refinement", "verify_steinberg_bound")


@pytest.mark.parametrize("name", ["verify-t3", "verify-m128-steinberg",
                                  "verify-n7-corrupt"])
def test_each_step_containment_decided_once(name, monkeypatch):
    """A passing check tests ``Ann <= Rad`` once per chain step up to its
    first covered step and never again at the bound; only a failed check
    calls ``subspace_leq``, once, for its witness."""
    calls = {"le": 0, "leq": 0}
    le, leq = Subspace.__le__, algebra.subspace_leq

    def counting_le(a, b):
        calls["le"] += 1
        return le(a, b)

    def counting_leq(a, b):
        calls["leq"] += 1
        return leq(a, b)

    monkeypatch.setattr(Subspace, "__le__", counting_le)
    monkeypatch.setattr(algebra, "subspace_leq", counting_leq)
    reports = []
    for verifier in VERIFIERS:
        def counted(*args, _verify=getattr(algebra, verifier), **kwargs):
            before = dict(calls)
            rep = _verify(*args, **kwargs)
            reports.append((rep, calls["le"] - before["le"], calls["leq"] - before["leq"]))
            return rep

        monkeypatch.setattr(algebra, verifier, counted)
    code, out = run_case(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert reports
    for rep, le_calls, leq_calls in reports:
        if rep.holds:
            assert le_calls == rep.minimal_k - rep.powers_used[0] + 1
            assert leq_calls == 0
        else:
            # every step up to the bound, then once more inside subspace_leq
            assert le_calls == len(rep.powers_used) + 1
            assert leq_calls == 1
    assert any(not rep.holds for rep, _, _ in reports) == (CASES[name][1] == 1)


def test_each_chain_walked_once(monkeypatch):
    """``verify --which all`` on T_3 reads the tensor walk from power 0
    (tensor and Steinberg checks) and from power 1 (positive refinement),
    and the symmetric chain: the tensor chain is opened once, from power
    1, the symmetric chain once, and each step is pulled once."""
    opened = []
    tensor, symmetric = algebra.tensor_annihilator_chain, algebra.symmetric_annihilator_chain

    def recording(key, chain):
        pulled = []
        opened.append((key, pulled))
        for k, ann in chain:
            pulled.append(k)
            yield k, ann

    monkeypatch.setattr(algebra, "tensor_annihilator_chain", lambda rho:
                        recording(("tensor", 1), tensor(rho)))
    monkeypatch.setattr(algebra, "symmetric_annihilator_chain", lambda rho:
                        recording(("symmetric", 0), symmetric(rho)))
    code, out = run_case("verify-t3")
    assert code == 0
    assert out == (GOLDEN / "verify-t3.txt").read_text(encoding="utf-8")
    assert sorted(key for key, _ in opened) == [("symmetric", 0), ("tensor", 1)]
    for (_, first), pulled in opened:
        assert pulled == list(range(first, first + len(pulled)))


@pytest.mark.parametrize("name", ["molien-t3", "molien-rational", "molien-t3-local"])
def test_molien_builds_no_restriction(name, monkeypatch):
    """The series and its cross-check read the loaded representation: the
    local monoid eMe is listed once, for the support check, and no
    restricted representation is built or validated."""
    calls = {"local_monoid": 0, "validate": 0}
    originals = {"local_monoid": monoids.local_monoid}

    def counting(key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return originals[key](*args, **kwargs)
        return wrapper

    for key, mod in list(sys.modules.items()):
        if key == "monoidrep" or key.startswith("monoidrep."):
            for fn, original in originals.items():
                if getattr(mod, fn, None) is original:
                    monkeypatch.setattr(mod, fn, counting(fn))
    validate = Representation.validate

    def counting_validate(self):
        calls["validate"] += 1
        return validate(self)

    monkeypatch.setattr(Representation, "validate", counting_validate)
    code, out = run_case(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    # only the loaded representation is validated
    assert calls == {"local_monoid": 1, "validate": 1}


@pytest.mark.parametrize("name", ["verify-t3", "verify-m128-steinberg"])
def test_zero_annihilator_contained_without_reduction(name, monkeypatch):
    """The zero subspace lies in every subspace: a chain step with
    Ann = 0 is covered without reducing a row of the radical."""
    reduces, steps = [], []
    reduce, le = Echelon.reduce, Subspace.__le__

    def counting_reduce(self, vec):
        reduces.append(vec)
        return reduce(self, vec)

    def recording_le(a, b):
        before = len(reduces)
        holds = le(a, b)
        steps.append((a.dim, holds, len(reduces) - before))
        return holds

    monkeypatch.setattr(Echelon, "reduce", counting_reduce)
    monkeypatch.setattr(Subspace, "__le__", recording_le)
    code, out = run_case(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    zero = [(holds, n) for dim, holds, n in steps if dim == 0]
    assert zero and all(holds and n == 0 for holds, n in zero)


if __name__ == "__main__":
    for name in sorted(CASES):
        code, out = run_case(name)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit code {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
        print(f"wrote {name}.txt")
