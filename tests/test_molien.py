from fractions import Fraction

import pytest

from monoidrep.linalg import Polynomial, charpoly, poly_gcd
from monoidrep.molien import (
    element_series,
    reversed_charpoly,
    series_prefix,
    weighted_series,
)
from monoidrep.monoids import idempotents, local_monoid
from monoidrep.representations import (
    nt_paper_representation,
    sym_power,
    sym_power_characters,
)

from oracles import restrict_to_local

F = Fraction


def pair(num, den):
    return Polynomial(num), Polynomial(den)


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
                newton = sym_power_characters(rho, x, d)[d]
                trace = sym[d].matrices[x].trace()
                assert series[d] == newton == trace


# --- the reduced pair --------------------------------------------------------------

def test_weighted_series_reduces_to_lowest_terms(t2_natural):
    # swap - (1/2) const: 1/(1 - t^2) - (1/2)/(1 - t) = (1/2)(1 - t)/(1 - t^2)
    # -> (1/2)/(1 + t), the common factor 1 - t cancelled
    w = [0, 1, F(-1, 2), 0]
    assert weighted_series(t2_natural, t2_natural.monoid.identity, w) == pair([F(1, 2)], [1, 1])


def test_weighted_series_zero_is_zero_over_one():
    rho = nt_paper_representation(5)
    assert weighted_series(rho, 1, [0] * 6) == pair([], [1])
    # elements 2 and 3 share det(I - t rho(x)) = 1, so their weights cancel
    assert weighted_series(rho, 1, [0, 0, 1, -1, 0, 0]) == pair([], [1])


# --- weighted series -----------------------------------------------------------------

def test_weighted_series_unit_mass_at_identity(t2_natural):
    w = [0, 0, 0, 0]
    w[t2_natural.monoid.identity] = 1
    assert weighted_series(t2_natural, t2_natural.monoid.identity, w) == pair([1], [1, -2, 1])


def test_weighted_series_nt_example():
    rho = nt_paper_representation(5)
    w = [0, 1, 1, 0, 0, 0]
    num, den = weighted_series(rho, 1, w)
    assert (num, den) == pair([2, -2, 1], [1, -2, 1])
    assert series_prefix(num, den, 2) == (F(2), F(2), F(3))


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
            _, den = weighted_series(rho, e, weights)
            distinct = {reversed_charpoly(local, i) for i in range(len(members))}
            assert den.degree <= local.dim * len(distinct)


def test_weighted_series_is_linear_in_weights():
    rho = nt_paper_representation(4)
    m = rho.monoid
    w1 = [0, 1, 0, 0, 0]
    w2 = [0, 0, 1, 2, 0]
    total = [a + b for a, b in zip(w1, w2)]
    n, d = weighted_series(rho, 1, total)
    n1, d1 = weighted_series(rho, 1, w1)
    n2, d2 = weighted_series(rho, 1, w2)
    assert n * d1 * d2 == (n1 * d2 + n2 * d1) * d
    assert poly_gcd(n, d) == Polynomial([1]) and d[0] == 1


def test_weighted_series_prefix_is_weighted_character_sum(corpus):
    for name in ("t2_natural", "n5_paper", "s3_natural"):
        rho = corpus[name]
        m = rho.monoid
        e = m.identity
        weights = [F(x + 1, 2) for x in range(m.size)]
        prefix = series_prefix(*weighted_series(rho, e, weights), 5)
        for d in range(6):
            direct = sum(weights[x] * sym_power_characters(rho, x, d)[d]
                         for x in range(m.size))
            termwise = sum(weights[x] * element_series(rho, x, 5)[d]
                           for x in range(m.size))
            assert prefix[d] == direct == termwise


# --- series expansion --------------------------------------------------------------------

def test_series_prefix_geometric():
    assert series_prefix(*pair([1], [1, -1]), 3) == (F(1), F(1), F(1), F(1))
    assert series_prefix(*pair([1], [1, -2, 1]), 3) == (F(1), F(2), F(3), F(4))
    # a denominator with another nonzero constant term: 2 / (2 - 2t)
    assert series_prefix(*pair([2], [2, -2]), 3) == (F(1), F(1), F(1), F(1))


def test_series_prefix_long_division_example():
    assert series_prefix(*pair([2, -2, 1], [1, -2, 1]), 2) == (F(2), F(2), F(3))


def test_series_prefix_rejects_pole_at_zero():
    with pytest.raises(ValueError, match="vanishes at 0"):
        series_prefix(*pair([1], [0, 1]), 3)


def test_series_prefix_rejects_zero_denominator():
    with pytest.raises(ValueError, match="vanishes at 0"):
        series_prefix(*pair([1], []), 3)


def test_nonzero_function_has_nonzero_early_coefficient():
    # a rational function with numerator degree below denominator degree
    # and an all-zero prefix of length deg(den) would be identically zero;
    # contrapositive: these nonzero examples show life early
    examples = [
        pair([1], [1, -2, 1]),
        pair([0, 1], [1, 0, 0, -1]),
        pair([1, 1], [1, 5, 3, 2]),
    ]
    for num, den in examples:
        assert num.degree < den.degree
        prefix = series_prefix(num, den, den.degree - 1)
        assert any(prefix)
