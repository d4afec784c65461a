import random
from fractions import Fraction

import pytest

from monoidrep.linalg import (
    Echelon,
    Matrix,
    Polynomial,
    charpoly,
    charpoly_from_power_traces,
    complete_homogeneous_sequence,
    kron,
    poly_gcd,
    power_traces,
)

from oracles import (
    charpoly_laplace,
    gauss_nullity,
    gauss_rank,
    h_complete_brute,
    inverse,
    kron_entry_formula,
    mat_vec,
    power_sums,
)

F = Fraction


def random_matrix(rng, n, m=None, lo=-4, hi=4):
    m = n if m is None else m
    return Matrix([[F(rng.randint(lo, hi)) for _ in range(m)] for _ in range(n)])


def random_idempotent(rng, n):
    """Conjugate of a 0/1 diagonal by a random invertible matrix."""
    r = rng.randint(0, n)
    d = Matrix([[F(1) if i == j and i < r else F(0) for j in range(n)]
                for i in range(n)])
    while True:
        s = random_matrix(rng, n, lo=-3, hi=3)
        try:
            sinv = inverse(s)
        except ValueError:
            continue
        return s * d * sinv


# --- empty shapes -----------------------------------------------------------

def _shape(a):
    return a.nrows, a.ncols


def test_empty_shapes_survive_arithmetic():
    """A matrix with no rows keeps its column count, and one with no
    columns its row count, through products and Kronecker products."""
    empty = Matrix.zero(0, 3)
    assert _shape(empty) == (0, 3) and empty.rows == ()
    assert Matrix.zero(2, 0) * Matrix.zero(0, 3) == Matrix.zero(2, 3)
    assert _shape(Matrix.zero(0, 2) * Matrix.zero(2, 3)) == (0, 3)
    assert _shape(Matrix.zero(2, 3) * Matrix.zero(3, 0)) == (2, 0)
    assert _shape(kron(Matrix.zero(2, 0), Matrix.zero(3, 0))) == (6, 0)
    assert _shape(kron(Matrix.zero(0, 2), Matrix.zero(0, 3))) == (0, 6)
    assert _shape(Matrix.identity(0)) == (0, 0)


# --- kernels and ranks ----------------------------------------------------

def test_kernel_rank_one_symmetric():
    assert Echelon(2, Matrix([[1, 1], [1, 1]]).rows).kernel_basis() == [(F(-1), F(1))]


def test_kernel_of_identity_is_empty():
    assert Echelon(3, Matrix.identity(3).rows).kernel_basis() == []


# The action matrix of the 3-dimensional module (trivial plus defining) of
# N_3: columns indexed by the elements 0, 1, 2, 3, rows by the nine entries
# of the block matrix diag(1, rho(m)).
N3_ACTION = Matrix([
    [1, 1, 1, 1],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 2, 3],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [0, 1, 0, 0],
])


def test_kernel_of_n3_action_matrix():
    assert gauss_nullity(N3_ACTION.rows, 4) == 1
    basis = Echelon(N3_ACTION.ncols, N3_ACTION.rows).kernel_basis()
    assert len(basis) == 1
    assert mat_vec(N3_ACTION.rows, basis[0]) == [0] * 9


def test_rank_examples():
    assert Echelon(2, Matrix([[1, 0], [0, 0]]).rows).rank == 1
    assert Echelon(2, Matrix.zero(2, 2).rows).rank == 0
    gram = Matrix([[4, 0, 1, 1], [0, 4, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])
    assert Echelon(gram.ncols, gram.rows).rank == 3
    assert gauss_rank(gram.rows) == 3


def test_rank_plus_nullity_is_columns():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        ech = Echelon(a.ncols, a.rows)
        assert ech.rank + len(ech.kernel_basis()) == m


def test_kernel_vectors_canonical():
    rng = random.Random(8)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = Echelon(a.ncols, a.rows).kernel_basis()
        for v in basis:
            assert mat_vec(a.rows, v) == [0] * a.nrows
        # each vector has 1 at its own free column and 0 at the others
        frees = [max(i for i, x in enumerate(v) if x == 1) for v in basis]
        for v, f in zip(basis, frees):
            assert v[f] == 1
            assert all(v[g] == 0 for g in frees if g != f)


def test_echelon_insert_reports_growth():
    ech = Echelon(3)
    assert ech.insert([1, 2, 3])
    assert not ech.insert([2, 4, 6])
    assert ech.insert([0, 1, 1])
    assert ech.rank == 2


def test_echelon_insert_rejects_wrong_length():
    ech = Echelon(3)
    with pytest.raises(ValueError, match="length"):
        ech.insert((0, 0, 0, 7))
    assert ech.rank == 0 and len(ech.kernel_basis()) == 3


def test_echelon_contains_rejects_wrong_length():
    ech = Echelon(3)
    ech.insert((1, 0, 0))
    with pytest.raises(ValueError, match="length"):
        ech.contains((1, 0))
    with pytest.raises(ValueError, match="length"):
        ech.reduce((1, 0, 0, 0))


# --- kronecker products ----------------------------------------------------

def test_kron_identities():
    assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)
    assert kron(Matrix([[2]]), Matrix([[3]])) == Matrix([[6]])


def test_kron_matches_entry_formula_and_trace():
    swap = Matrix([[0, 1], [1, 0]])
    const1 = Matrix([[1, 1], [0, 0]])
    k = kron(swap, const1)
    assert k.rows == tuple(tuple(r) for r in kron_entry_formula(swap.rows, const1.rows))
    assert k.trace() == swap.trace() * const1.trace() == 0


def test_kron_trace_multiplicative_random():
    rng = random.Random(11)
    for _ in range(15):
        a = random_matrix(rng, rng.randint(1, 3))
        b = random_matrix(rng, rng.randint(1, 3))
        assert kron(a, b).trace() == a.trace() * b.trace()


def test_kron_associative():
    rng = random.Random(12)
    for _ in range(10):
        a = random_matrix(rng, 2)
        b = random_matrix(rng, rng.randint(1, 2))
        c = random_matrix(rng, 2)
        assert kron(kron(a, b), c) == kron(a, kron(b, c))


# --- characteristic polynomials ---------------------------------------------

def test_charpoly_nilpotent():
    assert charpoly(Matrix([[0, 5], [0, 0]])) == Polynomial([0, 0, 1])


def test_charpoly_identity():
    assert charpoly(Matrix.identity(2)) == Polynomial([1, -2, 1])


def test_charpoly_companion():
    companion = Matrix([[0, 1], [1, 1]])
    expected = Polynomial(charpoly_laplace(companion.rows))
    assert expected == Polynomial([-1, -1, 1])
    assert charpoly(companion) == expected


def test_charpoly_matches_laplace_random():
    rng = random.Random(13)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 4))
        assert charpoly(a) == Polynomial(charpoly_laplace(a.rows))


def test_charpoly_rejects_nonsquare():
    with pytest.raises(ValueError):
        charpoly(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_charpoly_empty_matrix():
    assert charpoly(Matrix((), ncols=0)) == Polynomial([1])


# --- power traces and Newton's identities -----------------------------------

def test_power_traces_examples():
    assert power_traces(Matrix.identity(2), 3) == (F(2), F(2), F(2))
    assert power_traces(Matrix([[0, 5], [0, 0]]), 3) == (F(0), F(0), F(0))
    assert power_traces(Matrix([[1, 1], [0, 1]]), 2) == (F(2), F(2))
    assert power_traces(Matrix.identity(2), 0) == power_traces(Matrix((), ncols=0), 0) == ()
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        power_traces(Matrix.identity(2), -1)


def test_complete_homogeneous_examples():
    assert complete_homogeneous_sequence((2, 2), 2)[2] == h_complete_brute([1, 1], 2) == 3
    assert complete_homogeneous_sequence((), 0)[0] == 1
    assert complete_homogeneous_sequence((0, 0), 2)[2] == 0


def test_complete_homogeneous_counts_monomials():
    # h_d at n ones counts degree-d monomials in n variables
    from math import comb
    for n in range(1, 5):
        for d in range(7):
            p = power_sums([1] * n, max(d, 1))
            assert complete_homogeneous_sequence(p, d)[d] == comb(n + d - 1, d)


def test_complete_homogeneous_matches_brute_force():
    rng = random.Random(17)
    for _ in range(15):
        values = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        d = rng.randint(0, 5)
        p = power_sums(values, max(d, 1))
        assert complete_homogeneous_sequence(p, d)[d] == h_complete_brute(values, d)


def test_charpoly_from_power_traces_examples():
    assert charpoly_from_power_traces((2, 2), 2) == Polynomial([1, -2, 1])
    assert charpoly_from_power_traces((0, 0, 0), 3) == Polynomial([0, 0, 0, 1])
    assert charpoly_from_power_traces((1, 1), 2) == Polynomial([0, -1, 1])
    assert charpoly_from_power_traces((), 0) == Polynomial([1])
    with pytest.raises(ValueError, match="^size must be nonnegative$"):
        charpoly_from_power_traces((), -1)
    with pytest.raises(ValueError, match="^need 3 power traces, got 2$"):
        charpoly_from_power_traces((2, 2), 3)


def test_newton_round_trip_random():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        assert charpoly_from_power_traces(power_traces(a, n), n) == charpoly(a)


# --- idempotents: rank equals trace ------------------------------------------

def test_idempotent_rank_equals_trace():
    rng = random.Random(23)
    for _ in range(40):
        e = random_idempotent(rng, rng.randint(1, 4))
        assert e * e == e
        assert e.trace() == Echelon(e.ncols, e.rows).rank


# --- polynomial arithmetic ----------------------------------------------------

def test_polynomial_divmod_and_gcd():
    p = Polynomial([-1, 0, 1])          # t^2 - 1
    q = Polynomial([1, 1])              # t + 1
    quo, rem = divmod(p, q)
    assert quo == Polynomial([-1, 1]) and not rem
    assert poly_gcd(p, q) == Polynomial([1, 1])
    assert poly_gcd(p, Polynomial()) == Polynomial([-1, 0, 1]).monic()


def test_format_polynomial():
    assert str(Polynomial([1, -2, 1])) == "t^2 - 2t + 1"
    assert str(Polynomial([0, -1, 1])) == "t^2 - t"
    assert str(Polynomial()) == "0"


def test_matrix_inverse():
    a = Matrix([[2, 1], [1, 1]])
    assert a * inverse(a) == Matrix.identity(2)
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 1], [1, 1]]))
