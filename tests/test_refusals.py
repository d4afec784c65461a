"""Refusals that no other test reaches: each malformed call raises its
exception type with its message, and `mbt`'s documented exit 1 for a
broken internal invariant."""

from fractions import Fraction

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
from test_golden import CASES, INPUTS

N3 = nt_monoid(3)
Z3 = Monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)  # not an N_t
N3_PAPER = nt_paper_representation(3)
ROW = Matrix([[1, 2]])

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
                         "an empty direct sum needs an explicit monoid"),
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
    "sum-of-two-shapes": (lambda: Matrix([[1]]) + ROW, ValueError, "matrix shapes differ"),
    "product-of-two-rows": (lambda: ROW * ROW, ValueError, "inner dimensions differ"),
    "trace-of-a-row": (lambda: ROW.trace(), ValueError, "trace needs a square matrix"),
    "apply-to-short-vector": (lambda: ROW.apply((Fraction(1),)), ValueError,
                              "vector length differs from column count"),
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
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(kind, match=message):
        call()


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
