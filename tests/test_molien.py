from fractions import Fraction

import pytest

from monoidrep.linalg import Polynomial, charpoly
from monoidrep.molien import (
    RationalFunction,
    element_series,
    reversed_charpoly,
    series_prefix,
    weighted_series,
)
from monoidrep.monoids import idempotents, local_monoid
from monoidrep.representations import (
    nt_paper_representation,
    sym_power,
    sym_power_character,
)

from oracles import restrict_to_local

F = Fraction


def rf(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


# --- reversed characteristic polynomials --------------------------------------

def test_reversed_charpoly_identity(t2_natural):
    assert reversed_charpoly(t2_natural, 0) == Polynomial([1, -2, 1])


def test_reversed_charpoly_nilpotent():
    rho = nt_paper_representation(4)
    for j in range(2, 5):
        assert reversed_charpoly(rho, j) == Polynomial([1])
    assert reversed_charpoly(rho, 0) == Polynomial([1])


def test_reversed_charpoly_swap(t2_natural):
    assert reversed_charpoly(t2_natural, 1) == Polynomial([1, 0, -1])


def test_reversed_charpoly_reverses_coefficients(corpus):
    for rho in corpus.values():
        n = rho.dim
        for x in range(rho.monoid.size):
            p = charpoly(rho.matrices[x])
            q = reversed_charpoly(rho, x)
            assert q[0] == 1
            assert all(q[n - i] == p[i] for i in range(n + 1))


# --- element series -------------------------------------------------------------

def test_element_series_identity(t2_natural):
    assert element_series(t2_natural, 0, 4) == (F(1), F(2), F(3), F(4), F(5))


def test_element_series_nilpotent():
    rho = nt_paper_representation(3)
    assert element_series(rho, 2, 3) == (F(1), F(0), F(0), F(0))


def test_element_series_matches_symmetric_characters(corpus):
    # three routes: series coefficient, Newton evaluation, explicit trace
    for rho in corpus.values():
        sym = [sym_power(rho, d) for d in range(7)]
        for x in range(rho.monoid.size):
            series = element_series(rho, x, 6)
            for d in range(7):
                newton = sym_power_character(rho, x, d)
                trace = sym[d].matrices[x].trace()
                assert series[d] == newton == trace


# --- rational functions -----------------------------------------------------------

def test_rational_function_normalises():
    f = rf([2, -2], [2])            # (2 - 2t)/2 -> 1 - t over 1
    assert f.num == Polynomial([1, -1]) and f.den == Polynomial([1])
    g = rf([1, 1], [1, 2, 1])       # (1+t)/(1+t)^2 -> 1/(1+t)
    assert g.num == Polynomial([1]) and g.den == Polynomial([1, 1])


def test_rational_function_equality_and_sum():
    a = rf([1], [1, -1])
    b = rf([1], [1])
    assert a + b == rf([2, -1], [1, -1])
    assert rf([2], [2, -2]) == rf([1], [1, -1])
    # the zero function is 0/1 whatever denominator it was given
    assert rf([], [1, -1]) == rf([], [1]) == a + rf([-1], [1, -1])


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rf([1], [])


# --- weighted series -----------------------------------------------------------------

def test_weighted_series_unit_mass_at_identity(t2_natural):
    w = [0, 0, 0, 0]
    w[t2_natural.monoid.identity] = 1
    f = weighted_series(t2_natural, t2_natural.monoid.identity, w)
    assert f == rf([1], [1, -2, 1])


def test_weighted_series_nt_example():
    rho = nt_paper_representation(5)
    w = [0, 1, 1, 0, 0, 0]
    f = weighted_series(rho, 1, w)
    assert f == rf([2, -2, 1], [1, -2, 1])
    assert series_prefix(f, 2) == (F(2), F(2), F(3))


def test_weighted_series_support_violation():
    rho = nt_paper_representation(5)
    w = [0, 0, 1, 0, 0, 0]
    with pytest.raises(ValueError, match="outside eMe"):
        weighted_series(rho, 0, w)  # eMe of the zero element is just {0}


def test_weighted_series_denominator_degree_bound(corpus):
    # deg(den) <= dim(eV) * number of distinct reversed charpolys on eMe
    for rho in corpus.values():
        m = rho.monoid
        for e in idempotents(m):
            members = local_monoid(m, e)
            local = restrict_to_local(rho, e)
            weights = [0] * m.size
            for x in members:
                weights[x] = 1
            f = weighted_series(rho, e, weights)
            distinct = {reversed_charpoly(local, i) for i in range(len(members))}
            assert f.den.degree <= local.dim * len(distinct)


def test_weighted_series_is_linear_in_weights():
    rho = nt_paper_representation(4)
    m = rho.monoid
    w1 = [0, 1, 0, 0, 0]
    w2 = [0, 0, 1, 2, 0]
    total = [a + b for a, b in zip(w1, w2)]
    lhs = weighted_series(rho, 1, total)
    rhs = weighted_series(rho, 1, w1) + weighted_series(rho, 1, w2)
    assert lhs == rhs


def test_weighted_series_prefix_is_weighted_character_sum(corpus):
    for name in ("t2_natural", "n5_paper", "s3_natural"):
        rho = corpus[name]
        m = rho.monoid
        e = m.identity
        weights = [F(x + 1, 2) for x in range(m.size)]
        f = weighted_series(rho, e, weights)
        prefix = series_prefix(f, 5)
        for d in range(6):
            direct = sum(weights[x] * sym_power_character(rho, x, d)
                         for x in range(m.size))
            termwise = sum(weights[x] * element_series(rho, x, 5)[d]
                           for x in range(m.size))
            assert prefix[d] == direct == termwise


# --- series expansion --------------------------------------------------------------------

def test_series_prefix_geometric():
    assert series_prefix(rf([1], [1, -1]), 3) == (F(1), F(1), F(1), F(1))
    assert series_prefix(rf([1], [1, -2, 1]), 3) == (F(1), F(2), F(3), F(4))


def test_series_prefix_long_division_example():
    assert series_prefix(rf([2, -2, 1], [1, -2, 1]), 2) == (F(2), F(2), F(3))


def test_series_prefix_rejects_pole_at_zero():
    with pytest.raises(ValueError, match="vanishes at 0"):
        series_prefix(rf([1], [0, 1]), 3)


def test_nonzero_function_has_nonzero_early_coefficient():
    # a rational function with numerator degree below denominator degree
    # and an all-zero prefix of length deg(den) would be identically zero;
    # contrapositive: these nonzero examples show life early
    examples = [
        rf([1], [1, -2, 1]),
        rf([0, 1], [1, 0, 0, -1]),
        rf([1, 1], [1, 5, 3, 2]),
    ]
    for f in examples:
        assert f.num.degree < f.den.degree
        prefix = series_prefix(f, f.den.degree - 1)
        assert any(prefix)
