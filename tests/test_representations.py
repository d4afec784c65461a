import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from math import comb
from pathlib import Path

import pytest

from monoidrep import linalg, representations
from monoidrep.algebra import symmetric_annihilator_chain
from monoidrep.fileio import load_monoid
from monoidrep.linalg import Matrix, Polynomial, charpoly
from monoidrep.monoids import Monoid, idempotents, local_monoid, nt_monoid
from monoidrep.representations import (
    Representation,
    character,
    direct_sum,
    distinct_character_values,
    distinct_charpolys,
    is_faithful,
    natural_representation,
    nt_paper_representation,
    sym_power,
    sym_power_characters,
    sym_power_dim,
    symmetric_columns,
    tensor_power,
    trivial_representation,
)

from oracles import character_kernel, monomial_basis, regular_representation, restrict_to_local

F = Fraction


# --- construction -----------------------------------------------------------

def test_natural_t2_is_valid(t2_natural):
    assert t2_natural.dim == 2
    t2_natural.validate()


def test_nt_paper_matrices_exact():
    rho = nt_paper_representation(3)
    assert rho.matrices[0] == Matrix.zero(2, 2)
    assert rho.matrices[1] == Matrix.identity(2)
    assert rho.matrices[2] == Matrix([[0, 2], [0, 0]])
    assert rho.matrices[3] == Matrix([[0, 3], [0, 0]])


def test_nt_paper_large_is_faithful():
    rho = nt_paper_representation(9)
    assert rho.monoid.size == 10
    assert len({m for m in rho.matrices}) == 10
    assert is_faithful(rho) == (True, None)


def test_nt_paper_requires_t_at_least_two():
    with pytest.raises(ValueError):
        nt_paper_representation(1)


def test_zero_dimensional_representation_valid():
    m = nt_monoid(2)
    rho = Representation(m, [Matrix((), ncols=0)] * 3)
    assert rho.dim == 0


def test_invalid_homomorphism_reports_pair():
    m = nt_monoid(2)
    bad = [Matrix.identity(1), Matrix.identity(1), Matrix([[2]])]
    with pytest.raises(ValueError, match=r"pair \(0, 2\)"):
        Representation(m, bad)


def test_wrong_identity_image_rejected():
    m = Monoid([[0]], 0)
    with pytest.raises(ValueError, match="identity"):
        Representation(m, [Matrix([[2]])])


# --- faithfulness and characters ---------------------------------------------

def test_trivial_representation_not_faithful():
    rho = trivial_representation(nt_monoid(2))
    ok, witness = is_faithful(rho)
    assert not ok and witness == (0, 1)


def test_character_of_natural_t2(t2_natural):
    assert character(t2_natural) == (F(2), F(0), F(1), F(1))


def test_character_of_nt_paper():
    rho = nt_paper_representation(4)
    values = character(rho)
    assert values[1] == 2
    assert all(values[x] == 0 for x in (0, 2, 3, 4))


def test_distinct_character_values(t2_natural, t3_natural):
    assert distinct_character_values(t2_natural) == (F(0), F(1), F(2))
    assert distinct_character_values(t3_natural) == (F(0), F(1), F(2), F(3))
    assert distinct_character_values(nt_paper_representation(6)) == (F(0), F(2))


def test_distinct_charpolys(t2_natural):
    polys = set(distinct_charpolys(t2_natural))
    assert polys == {Polynomial([1, -2, 1]), Polynomial([-1, 0, 1]),
                     Polynomial([0, -1, 1])}
    assert len(distinct_charpolys(nt_paper_representation(7))) == 2
    trivial = trivial_representation(Monoid([[0]], 0))
    assert len(distinct_charpolys(trivial)) == 1


# --- tensor powers --------------------------------------------------------------

def test_tensor_power_zero_is_trivial(t2_natural):
    rho0 = tensor_power(t2_natural, 0)
    assert rho0.dim == 1
    assert all(m == Matrix([[1]]) for m in rho0.matrices)


def test_tensor_power_one_is_same(t2_natural):
    assert tensor_power(t2_natural, 1).matrices == t2_natural.matrices


def test_tensor_character_is_power_of_character(corpus):
    for rho in (corpus["t2_natural"], corpus["n3_paper"], corpus["s3_natural"]):
        chi = character(rho)
        for i in range(5):
            chi_i = character(tensor_power(rho, i))
            assert chi_i == tuple(v ** i for v in chi)


def test_tensor_power_is_valid_representation(t2_natural):
    for i in range(3):
        tensor_power(t2_natural, i).validate()


def test_tensor_of_pair_characters_multiply(corpus):
    # trace of a Kronecker product of two powers is the product of traces
    for rho in (corpus["t2_natural"], corpus["n3_paper"]):
        a, b = tensor_power(rho, 1), tensor_power(rho, 2)
        from monoidrep.linalg import kron
        for x in range(rho.monoid.size):
            assert kron(a.matrices[x], b.matrices[x]).trace() == \
                a.matrices[x].trace() * b.matrices[x].trace()


# --- symmetric powers -------------------------------------------------------------

def test_monomial_basis_order():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(0, 0) == [()]
    assert monomial_basis(0, 3) == []
    for n in range(5):
        for d in range(6):
            brute = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
            assert monomial_basis(n, d) == sorted(brute, reverse=True)
    # the number of variables is not bounded by the recursion limit
    assert monomial_basis(1200, 0) == [(0,) * 1200]
    assert monomial_basis(1200, 1) == [tuple(int(i == j) for i in range(1200))
                                       for j in range(1200)]


@pytest.mark.parametrize("n", range(5))
def test_monomial_tables_split_every_monomial_once(n):
    """For d <= 6: ``up`` inserts a variable into a degree-d monomial and
    sorts, and the splits (j, q) of each monomial k in turn give
    monomial k + (j,), at position q, for every degree-(d+1) monomial
    exactly once, in basis order."""
    for d in range(7):
        basis = list(combinations_with_replacement(range(n), d))
        nxt = list(combinations_with_replacement(range(n), d + 1))
        up, splits = representations._monomial_tables(n, d)
        assert up == tuple(tuple(nxt.index(tuple(sorted(mono + (i,)))) for i in range(n))
                           for mono in basis)
        assert len(splits) == len(basis)
        made = [(basis[k] + (j,), q) for k, pairs in enumerate(splits) for j, q in pairs]
        assert made == list(zip(nxt, range(len(nxt))))


def test_monomial_tables_shared_by_representations_of_one_dim(monkeypatch):
    """Two representations of dimension 2 read the same table object at
    every degree: the tables are built once per (dim, degree)."""
    read = {}
    tables = representations._monomial_tables

    def recording(n, d):
        read.setdefault((n, d), []).append(tables(n, d))
        return read[n, d][-1]

    monkeypatch.setattr(representations, "_monomial_tables", recording)
    for t in (5, 7):
        for _ in islice(symmetric_columns(nt_paper_representation(t)), 5):
            pass
    assert sorted(read) == [(2, d) for d in range(4)]
    assert all(len(objs) == 2 and objs[0] is objs[1] for objs in read.values())


def test_sym_power_degree_zero_and_one(t2_natural):
    s0 = sym_power(t2_natural, 0)
    assert s0.dim == 1 and all(m == Matrix([[1]]) for m in s0.matrices)
    s1 = sym_power(t2_natural, 1)
    assert s1.matrices == t2_natural.matrices


def test_sym_power_nt_square_action():
    rho = nt_paper_representation(5)
    s2 = sym_power(rho, 2)
    for j in range(2, 6):
        # x2^2 goes to j^2 x1^2; x1^2 and x1 x2 die
        expected = Matrix([[0, 0, j * j], [0, 0, 0], [0, 0, 0]])
        assert s2.matrices[j] == expected


def test_sym_power_dims(corpus):
    for rho in corpus.values():
        for d in range(4):
            assert sym_power(rho, d).dim == sym_power_dim(rho.dim, d)
            if rho.dim > 0:
                assert sym_power_dim(rho.dim, d) == comb(rho.dim + d - 1, d)


def test_sym_power_is_valid_representation(corpus):
    for name in ("t2_natural", "n3_paper", "s3_natural"):
        for d in range(4):
            sym_power(corpus[name], d).validate()


def test_sym_power_character_examples(t2_natural):
    assert sym_power_characters(t2_natural, 0, 2)[2] == 3  # h_2(1, 1)
    rho = nt_paper_representation(4)
    for j in range(2, 5):
        assert sym_power_characters(rho, j, 2)[2] == 0


def test_sym_power_character_newton_identity(corpus):
    # h_2 = (p_1^2 + p_2) / 2 for every corpus element
    for rho in corpus.values():
        if rho.dim == 0:
            continue
        for x in range(rho.monoid.size):
            p1, p2 = (rho.matrices[x].trace(),
                      (rho.matrices[x] * rho.matrices[x]).trace())
            assert sym_power_characters(rho, x, 2)[2] == (p1 * p1 + p2) / 2


def test_sym_power_trace_matches_newton_route(corpus):
    for rho in corpus.values():
        for d in range(5):
            sp = sym_power(rho, d)
            for x in range(rho.monoid.size):
                assert sp.matrices[x].trace() == sym_power_characters(rho, x, d)[d]


def test_sym_power_characters_list_every_degree(corpus):
    for rho in corpus.values():
        powers = [sym_power(rho, d) for d in range(5)]
        for x in range(rho.monoid.size):
            assert sym_power_characters(rho, x, 0) == [1]
            assert sym_power_characters(rho, x, 4) == [
                sp.matrices[x].trace() for sp in powers]


# --- direct sums --------------------------------------------------------------------

def test_direct_sum_dims_and_characters(t2_natural):
    w = direct_sum([tensor_power(t2_natural, 0), t2_natural])
    assert w.dim == 3
    chi, chi0, chi1 = (character(w), character(tensor_power(t2_natural, 0)),
                       character(t2_natural))
    assert chi == tuple(a + b for a, b in zip(chi0, chi1))
    w.validate()


def test_empty_direct_sum():
    m = nt_monoid(2)
    w = direct_sum([], monoid=m)
    assert w.dim == 0


def test_direct_sum_rejects_mixed_monoids(t2_natural):
    with pytest.raises(ValueError):
        direct_sum([t2_natural, nt_paper_representation(2)])


# --- restriction to local monoids -----------------------------------------------------

def test_restrict_at_identity_preserves_character(corpus):
    for rho in corpus.values():
        loc = restrict_to_local(rho, rho.monoid.identity)
        assert character(loc) == character(rho)


def test_restrict_t2_at_constant(t2_natural):
    loc = restrict_to_local(t2_natural, 2)
    assert loc.monoid.size == 1
    assert loc.dim == 1
    assert character(loc) == (F(1),)


def test_restrict_nt_at_zero():
    rho = nt_paper_representation(3)
    loc = restrict_to_local(rho, 0)
    assert loc.dim == 0 and loc.monoid.size == 1


def test_restriction_character_equality(corpus):
    # the character of the restriction equals the restricted character
    for rho in corpus.values():
        chi = character(rho)
        for e in idempotents(rho.monoid):
            loc = restrict_to_local(rho, e)
            members = local_monoid(rho.monoid, e)
            assert character(loc) == tuple(chi[x] for x in members)


def test_restrict_rejects_non_idempotent(t2_natural):
    with pytest.raises(ValueError, match="idempotent"):
        restrict_to_local(t2_natural, 1)


# --- character kernels ------------------------------------------------------------------

def test_character_kernel_of_faithful_is_identity(corpus):
    for rho in corpus.values():
        if rho.monoid.size > 1:
            assert character_kernel(rho) == (rho.monoid.identity,)


def test_character_kernel_of_trivial_rep_is_everything():
    m = nt_monoid(3)
    assert character_kernel(trivial_representation(m)) == tuple(range(m.size))


def test_character_kernel_t3(t3_natural):
    assert character_kernel(t3_natural) == (t3_natural.monoid.identity,)


# --- regular representation ----------------------------------------------------------------

def test_regular_representation_faithful(corpus):
    for rho in corpus.values():
        reg = regular_representation(rho.monoid)
        assert is_faithful(reg) == (True, None)
        if reg.monoid.size <= 8:  # full validation of T_3 is needlessly slow
            reg.validate()
        else:
            m = reg.monoid
            for a, b in ((1, 2), (3, 5), (7, 11)):
                assert reg.matrices[a] * reg.matrices[b] == reg.matrices[m.table[a][b]]


def test_regular_representation_character():
    # trace counts fixed points of left multiplication
    m = nt_monoid(2)
    reg = regular_representation(m)
    assert character(reg) == (F(1), F(3), F(1))


# --- integral data stays in ints ------------------------------------------------

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _ints(mat):
    """Whether every entry of a Matrix, or of a tuple of rows, is an int."""
    return all(type(x) is int for row in mat for x in row)


# T_3's and the 128-element submonoid of T_4's natural representations, N_7's
INTEGRAL_REPRESENTATIONS = {
    "t3": lambda: natural_representation(load_monoid(str(GOLDEN_INPUTS / "t3.json"), None)),
    "m128": lambda: natural_representation(load_monoid(str(GOLDEN_INPUTS / "m128.json"), None)),
    "n7": lambda: nt_paper_representation(7),
}


def test_validation_holds_one_stacked_copy():
    """The regular representation of the 128-element monoid has |M| d^2
    = 2^21 entries; validating it holds at most one stacked copy of them
    (a pointer each, about 16.8 MB)."""
    rho = regular_representation(load_monoid(str(GOLDEN_INPUTS / "m128.json"), None))
    tracemalloc.start()
    try:
        rho.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000


@pytest.mark.parametrize("name", sorted(INTEGRAL_REPRESENTATIONS))
def test_integral_representations_never_form_a_fraction(name, monkeypatch):
    """Every matrix of an integral representation, of its symmetric powers
    up to degree 3 and every column of the degree-by-degree expansion they
    are built from, every coefficient row the symmetric chain inserts, of
    every stacked product column validation forms
    (``representations._stacked_column``), and every characteristic
    polynomial coefficient before ``Polynomial`` coerces it, is a plain
    int; and no non-int value ever reaches the matrix constructor's
    normalisation, so none was formed on the way."""
    products, coerced = [], []
    stacked_column, exact = representations._stacked_column, linalg._exact

    def recording_stacked_column(stack, coefs, zero):
        out = stacked_column(stack, coefs, zero)
        products.append(out)
        return out

    def recording_exact(x):
        coerced.append(type(x))
        return exact(x)

    monkeypatch.setattr(representations, "_stacked_column", recording_stacked_column)
    monkeypatch.setattr(linalg, "_exact", recording_exact)
    rho = INTEGRAL_REPRESENTATIONS[name]()
    assert products  # built with check=True, so validation multiplied
    assert all(_ints(m) for m in rho.matrices)
    assert all(type(x) is int for col in products for x in col)
    assert _ints(Matrix.identity(rho.dim)) and _ints(Matrix.zero(2, 3))
    del products[:]
    rho.validate()
    # one stacked column per column of each generator's matrix, each
    # covering every element
    assert len(products) == rho.dim * len(rho.monoid.generators)
    assert all(len(col) == rho.monoid.size * rho.dim for col in products)
    assert all(type(x) is int for col in products for x in col)
    for d in range(4):
        power = sym_power(rho, d)
        assert all(_ints(m) for m in power.matrices)
        Representation(rho.monoid, power.matrices, check=True)
    for cols in islice(symmetric_columns(rho), 4):
        assert all(type(c) is int
                   for per_x in cols for col in per_x.values() for c in col.values())
    inserted = []
    insert = linalg.Echelon.insert

    def recording_insert(ech, vec):
        inserted.append(vec)
        return insert(ech, vec)

    monkeypatch.setattr(linalg.Echelon, "insert", recording_insert)
    for _ in islice(symmetric_annihilator_chain(rho), 4):
        pass
    monkeypatch.setattr(linalg.Echelon, "insert", insert)
    assert inserted and all(type(x) is int for row in inserted for x in row)
    a, b = rho.matrices[-1], rho.matrices[-2]
    assert all(_ints(m) for m in (a * b, a + b, a - b, a.transpose(), a.scale(3)))
    assert type(a.trace()) is int and all(type(x) is int for x in a.apply([1] * a.ncols))
    assert set(coerced) <= {int}

    coefficients = []

    def recording_polynomial(coeffs):
        coefficients.append(list(coeffs))
        return Polynomial(coefficients[-1])

    monkeypatch.setattr(linalg, "Polynomial", recording_polynomial)
    for m in rho.matrices:
        assert charpoly(m).degree == rho.dim
    assert len(coefficients) == rho.monoid.size
    assert all(type(c) is int for cs in coefficients for c in cs)
