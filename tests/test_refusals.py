"""Refusals that no other test reaches: each malformed call raises its
exception type with its message, each operator that a matrix or a
polynomial does not have, a polynomial's iteration and a monoid's hash
raise ``TypeError``, `mbt`'s documented exit 1 for a broken internal
invariant, and a representation file's "monoid" key, which `mbt`
ignores."""

import json

import pytest

from monoidrep import representations
from monoidrep.algebra import minimal_faithful_power
from monoidrep.cli import main, parse_weights
from monoidrep.fileio import monoid_from_spec, representation_from_spec
from monoidrep.linalg import (
    Matrix,
    Polynomial,
    complete_homogeneous_sequence,
    power_traces,
)
from monoidrep.molien import series_prefix, weighted_series
from monoidrep.monoids import Monoid, from_matrices, nt_monoid
from monoidrep.representations import (
    Representation,
    direct_sum,
    nt_paper_representation,
    sym_power,
    tensor_power,
)

from oracles import submonoid
from test_golden import CASES, GOLDEN, INPUTS

N3 = nt_monoid(3)
Z3 = Monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)  # not an N_t
N3_PAPER = nt_paper_representation(3)
ROW = Matrix([[1, 2]])
P = Polynomial((1, 1))

# (call, exception type, message pattern)
REFUSALS = {
    "monoid-spec-not-object": (lambda: monoid_from_spec([]), ValueError,
                               "monoid description must be a JSON object"),
    "rep-spec-not-object": (lambda: representation_from_spec([], N3), ValueError,
                            "representation description must be a JSON object"),
    "nt-paper-on-other-monoid": (
        lambda: representation_from_spec({"mode": "nt-paper"}, Z3), ValueError,
        'mode "nt-paper" needs a monoid of type "nt"'),
    "weight-without-colon": (lambda: parse_weights("1", N3), ValueError,
                             r"bad weight '1': expected label:rational"),
    "matrix-generators-of-two-sizes": (
        lambda: from_matrices([[[1, 0], [0, 1]], [[1]]]), ValueError,
        "generators must be square matrices of one dimension"),
    "submonoid-without-identity": (lambda: submonoid(N3, [0, 2], 1), ValueError,
                                   "identity must belong to the subset"),
    "one-matrix-short": (lambda: Representation(N3, [[[1]]] * 3), ValueError,
                         "need exactly one matrix per monoid element"),
    "matrix-of-wrong-size": (lambda: Representation(N3, [[[1]], [[1]], [[1, 0], [0, 1]], [[1]]]),
                             ValueError, r"matrix for element 2 is not 1x1"),
    "negative-tensor-power": (lambda: tensor_power(N3_PAPER, -1), ValueError,
                              "tensor power exponent must be nonnegative"),
    "empty-direct-sum": (lambda: direct_sum([]), ValueError,
                         "a direct sum needs at least one representation"),
    "negative-symmetric-power": (lambda: sym_power(N3_PAPER, -1), ValueError,
                                 "symmetric power degree must be nonnegative"),
    "weights-of-wrong-length": (lambda: weighted_series(N3_PAPER, 1, (1, 0)), ValueError,
                                "weight vector length differs from monoid size"),
    "negative-series-length": (
        lambda: series_prefix(Polynomial((1,)), Polynomial((1,)), -1),
        ValueError, "series length must be nonnegative"),
    "float-as-rational": (lambda: Matrix([[0.5]]), TypeError,
                          r"cannot interpret 0\.5 as an exact rational"),
    "ragged-matrix": (lambda: Matrix([[1, 2], [3]]), ValueError,
                      "matrix rows have unequal lengths"),
    "product-of-two-rows": (lambda: ROW * ROW, ValueError, "inner dimensions differ"),
    "trace-of-a-row": (lambda: ROW.trace(), ValueError, "trace needs a square matrix"),
    "division-by-zero-polynomial": (lambda: divmod(Polynomial((1,)), Polynomial(())),
                                    ZeroDivisionError, "polynomial division by zero"),
    "power-traces-of-a-row": (lambda: power_traces(ROW, 1), ValueError,
                              "power traces need a square matrix"),
    "negative-homogeneous-degree": (lambda: complete_homogeneous_sequence([], -1), ValueError,
                                    "degree must be nonnegative"),
    "too-few-power-sums": (lambda: complete_homogeneous_sequence([1], 2), ValueError,
                           "need 2 power sums, got 1"),
    "unknown-power-mode": (lambda: minimal_faithful_power(N3_PAPER, "bogus"), ValueError,
                           "unknown power mode 'bogus'"),
    # a matrix multiplies only a matrix, and a polynomial is no function
    "sum-of-two-matrices": (lambda: ROW + ROW, TypeError,
                            r"unsupported operand type\(s\) for \+: 'Matrix' and 'Matrix'"),
    "difference-of-two-matrices": (lambda: ROW - ROW, TypeError,
                                   r"unsupported operand type\(s\) for -: 'Matrix' and 'Matrix'"),
    "negated-matrix": (lambda: -ROW, TypeError, "bad operand type for unary -: 'Matrix'"),
    "matrix-times-scalar": (lambda: ROW * 2, TypeError,
                            r"unsupported operand type\(s\) for \*: 'Matrix' and 'int'"),
    "scalar-times-matrix": (lambda: 2 * ROW, TypeError,
                            r"unsupported operand type\(s\) for \*: 'int' and 'Matrix'"),
    "difference-of-two-polynomials": (
        lambda: P - P, TypeError,
        r"unsupported operand type\(s\) for -: 'Polynomial' and 'Polynomial'"),
    "negated-polynomial": (lambda: -P, TypeError, "bad operand type for unary -: 'Polynomial'"),
    "scalar-times-polynomial": (lambda: 2 * P, TypeError,
                                r"unsupported operand type\(s\) for \*: 'int' and 'Polynomial'"),
    "polynomial-evaluated": (lambda: P(1), TypeError, "'Polynomial' object is not callable"),
    "nt-size-as-string": (lambda: monoid_from_spec({"type": "nt", "t": "5"}), ValueError,
                          """field 't' must be an integer, not "5"$"""),
    # a monoid compares by its table and identity, and nothing hashes one
    "hashed-monoid": (lambda: hash(N3), TypeError, "unhashable type: 'Monoid'"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(kind, match=message):
        call()


def test_polynomial_is_not_iterable():
    """``p[i]`` is 0 past the degree, so the sequence protocol would
    iterate a polynomial forever; ``iter`` comes first, as it returns
    where iteration is allowed, and ``list`` and ``in`` would hang."""
    for use in (iter, list, lambda p: 3 in p):
        with pytest.raises(TypeError, match="not iterable"):
            use(P)


def test_molien_cross_check_failure_exits_1(monkeypatch, capsys):
    """A symmetric-power character that disagrees with the series is a
    broken invariant: exit 1, nothing on stdout and one line on stderr."""
    real = representations.sym_power_characters

    def off_by_one_at_degree_2(rho, x, n):
        h = list(real(rho, x, n))
        h[2] += 1
        return h

    monkeypatch.setattr(representations, "sym_power_characters", off_by_one_at_degree_2)
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in CASES["molien-t3-local"][0]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("internal invariant violated: series coefficient 2 disagrees")
    assert err.count("\n") == 1


def test_representation_file_monoid_key_is_ignored(tmp_path, capsys):
    """`mbt` reads a representation file against the monoid file it is
    given: a "monoid" key in it, here naming a file that does not exist,
    is ignored, and the output is that of the plain file."""
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"mode": "natural", "monoid": "missing.json"}), encoding="utf-8")
    code = main(["verify", str(INPUTS / "t3.json"), str(rep)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / "verify-t3-default.txt").read_text(encoding="utf-8")
