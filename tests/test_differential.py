"""Seeded differential test of the coverage checks against tests/oracles.py.

A fixed-seed corpus of random transformation monoids (degree 2 or 3), N_t
(t <= 9), monoids generated by random 0/1 matrices, and rational
conjugates P rho(x) P^-1 of each nontrivial one is run through the three
coefficient-span chains.  At every step k <= 3 the annihilator's
dimension is compared with plain Gaussian elimination on the entry rows
of the explicit direct sum of the powers, the containment verdict with
the trace-form definition of the radical, and every witness is checked
to annihilate the module while lying outside the radical.  The tensor
and symmetric verifiers' ``minimal_k`` and verdict are checked against
the minimal covering and faithful power scans on the same corpus, and
every symmetric power up to degree 6 against its from-scratch
expansion.  A conjugate has the same annihilator as its original, so
its every chain step, verdict, ``minimal_k`` and witness must equal the
original's.  The radical, kept as 0/1 Green rows x -> [r*x*l = e] that
span rowspace(G) for the trace-form Gram matrix G, must be the kernel of
G's full echelon, and ``<=``, ``subspace_leq`` and ``contains`` on those
rows must agree with the trace-form definition and plain Gauss-Jordan
kernels at every tensor and symmetric chain step.  The tensor chain, which
starts at power 1 and inserts each distinct product once per step, must
store the same echelon rows at every step as the loop that inserted
every product, kept in ``tests/oracles.py``.  The steps a read from
power 0 derives from that one tensor walk must be that loop's steps
from power 0, the same subspace with the same verdict and witness, on
those inputs, the sign representation of C_2 and an N_3 representation
with two elements acting as 0.  The symmetric chain must insert no
coefficient row twice, not even one that recurs at a later degree, and
keep every degree's dimension.

A third, seeded corpus of random square matrices whose entries mix ints,
non-integral ``Fraction``s, "p/q" strings and integers in ``Fraction``
or string form checks ``Matrix`` products and traces against plain
``Fraction`` lists, inverses against the plain
Gauss-Jordan form of [A | I] (with singular draws added), and that every
result holds canonical entries (an int exactly where the value is an
integer).  The same corpus, every element matrix of the first and
seeded integer and rational value multisets check the polynomial side:
``charpoly`` against
Faddeev-LeVerrier and Laplace expansion, ``complete_homogeneous_sequence``
against term enumeration, the ``charpoly_from_power_traces`` round trip
and ``element_series`` against ``sym_power_characters``, each value
canonical, an int for every element of a finite monoid, and no
``Fraction`` formed on integral input.  Polynomial ``divmod`` must
satisfy the division identity on seeded integral and rational
polynomials, with ints for a monic integral divisor of an integral
dividend.  ``sym_power_characters``, which
reads the power traces at the element powers, must equal Newton's
identities on the traces of the matrix powers.  For every idempotent e
of the first corpus and seeded rational weights on eMe, the Molien
series read off rho must equal the one built from the restriction of rho
to eV, and so must every symmetric-power character on eMe.
``distinct_charpolys``, read off the character at the element powers,
must be the set of Faddeev-LeVerrier polynomials, and
``reversed_charpoly(rho, x)`` their reversal det(I - t rho(x)), on the
first corpus, the tensor and symmetric square of each of its members,
the golden representations and a zero-dimensional one.  On the regular
representations of its monoids, T_3 and N_7 (at most 40 elements) the
reference is each element's table row read as a self-map, whose cycles
give its characteristic polynomial; the 128-element submonoid of T_4
must give its 8 that way in under 1 s.

A seeded corpus of integer and rational vector lists (up to 40 columns,
sparse and dense, zero, repeated and dependent vectors) checks the
sparse ``Echelon`` against the dense elimination kept in
``tests/oracles.py``: insert verdicts, pivots, stored rows, reductions,
membership, the reduced form, the kernel basis and snapshots taken
before further inserts.  The tensor and symmetric chains on T_3, the
128-element submonoid of T_4 and the seeded transformation monoids must
give the same dimensions and stored rows with either echelon.

A second corpus checks the validators, which test only against a
generating set (Light's test), against the exhaustive oracles: every
``Monoid.generators`` generates M, single-entry corruptions of a valid
table, of one matrix of a valid representation and of a morphism are
rejected exactly when the all-triples or all-pairs oracle rejects them,
and the triple or pair an error names is a real violation; the triple is
the one the old triple-by-triple scan of Light's test reported.  The
table corruptions include N_t for t <= 12 (|A| = t) and T_4, whose 256
elements are the most the byte-translate pass reads, and seeded
corruptions of a 610-element submonoid of T_5 take the triple loop.  A
valid table of at most 256 elements never enters that loop, and bool
entries and a one-element table give the errors they always gave.
Closures, which form only the products with a generator, must give the
same elements, order, table and cap error as the all-pairs closure kept
in ``tests/oracles.py``, on seeded transformations of degree 1-5 (with
repeated generators and the identity among them), T_4, a 610-element
submonoid of T_5 and matrix closures.  Seeded corruptions of T_3,
the 128-element monoid, N_7 and a rational conjugate, one entry changed
or two matrices swapped, must give the stacked validation the same
error text as the pair-by-pair check kept there.  On every monoid of
these corpora, T_3, T_4 and the 128-element monoid, ``local_monoid``
of each idempotent e must be eMe, built in the test as {e*x*e},
``unit_group`` its units by their two-sided definition, and
``local_ideal`` the rest.

The radical read off Green's relations must be the kernel of the trace
form's Gram matrix (``oracles.gram_radical``), in canonical RREF, on all
of these monoids, seeded monoids of 0/+-1 matrices and N_2..N_40; its
rows must be Green rows by definition, and all Green rows must span
rowspace(G).  On T_4 and the 610-element submonoid of T_5, too large for
that exact echelon, every row of G must lie in the span of the Green
rows and G must have their rank modulo a prime.  ``j_classes`` must
agree with the classes of the ideals xM, Mx and MxM, and a
transformation representation's fibre rows must give every tensor step
the dimension and canonical RREF of the general loop, on the natural
and regular representations of the transformation monoids, T_3 and the
128-element monoid, and on T_4's natural one.
"""

import random
import re
import time
import weakref
from fractions import Fraction
from itertools import count, islice
from pathlib import Path

import pytest

from monoidrep import algebra, linalg, monoids
from monoidrep.algebra import (
    Subspace,
    _point_values,
    minimal_covering_power,
    minimal_faithful_power,
    radical_basis,
    subspace_leq,
    symmetric_annihilator_chain,
    tensor_annihilator_chain,
    verify_symmetric_theorem,
    verify_tensor_theorem,
)
from monoidrep.fileio import load_monoid, load_representation
from monoidrep.linalg import (
    Echelon,
    Matrix,
    Polynomial,
    charpoly,
    charpoly_from_power_traces,
    complete_homogeneous_sequence,
    poly_gcd,
    power_traces,
)
from monoidrep.molien import (
    element_series,
    reversed_charpoly,
    weighted_series,
)
from monoidrep.monoids import (
    Monoid,
    _closure,
    _compose,
    _generating_set,
    from_matrices,
    from_transformations,
    idempotents,
    j_classes,
    local_ideal,
    local_monoid,
    nt_monoid,
    unit_group,
)
from monoidrep.representations import (
    Representation,
    character,
    direct_sum,
    distinct_charpolys,
    natural_representation,
    nt_paper_representation,
    sym_power,
    sym_power_characters,
    symmetric_columns,
    tensor_power,
)

from oracles import (
    DenseEchelon,
    MonoidMorphism,
    all_selfmaps,
    charpoly_faddeev,
    charpoly_laplace,
    charpoly_of_map,
    closure_all_pairs,
    echelon_mod_p,
    first_associativity_failure,
    gauss_nullity,
    gauss_rank,
    generated,
    gram_matrix,
    gram_radical,
    green_classes,
    green_rows,
    h_complete_brute,
    in_radical,
    inverse,
    is_associative,
    is_homomorphism,
    matmul,
    matrix_representation,
    null_space,
    poly_mul,
    power_sums,
    regular_representation,
    restrict_to_local,
    rref,
    same_space,
    span_subspace,
    sym_power_direct,
    sym_power_entries,
    tensor_chain_steps,
    trace,
    units_two_sided,
    validate_pair_by_pair,
    zero_representation,
)

SEED = 7632
KMAX = 3


def _random_transformations(rng):
    degree = rng.randint(2, 3)
    gens = [tuple(rng.randint(1, degree) for _ in range(degree))
            for _ in range(rng.randint(1, 3))]
    return natural_representation(from_transformations(degree, gens))


def _random_01_matrices(rng):
    while True:
        dim = rng.randint(2, 3)
        gens = [[[rng.randint(0, 1) for _ in range(dim)] for _ in range(dim)]
                for _ in range(rng.randint(1, 2))]
        try:
            m = from_matrices(gens, cap=30)
        except ValueError:  # infinite or too large a closure: draw again
            continue
        if m.size >= 4:  # smaller ones add nothing the other families lack
            return gens, matrix_representation(m, gens)


def _conjugate(rng, rho):
    """P rho(x) P^-1 for a random invertible rational P with a non-integer
    result: the same module, so the same annihilator, with denominators."""
    n = rho.dim
    while True:
        p = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)])
        try:
            p_inv = inverse(p)
        except ValueError:  # singular: draw again
            continue
        mats = [p * mat * p_inv for mat in rho.matrices]
        if any(x.denominator > 1 for mat in mats for row in mat for x in row):
            return Representation(rho.monoid, mats)


def _corpus():
    rng = random.Random(SEED)
    out = {}
    for i in range(5):
        out[f"transformations-{i}"] = _random_transformations(rng)
    for t in sorted(rng.sample(range(2, 10), 3)):
        out[f"nt-{t}"] = nt_paper_representation(t)
    for i in range(3):
        out[f"matrices-{i}"] = _random_01_matrices(rng)[1]
    rng = random.Random(SEED + 1)
    for name, rho in list(out.items()):
        if rho.monoid.size > 1:  # the trivial monoid's only matrix is I
            out[f"conjugate-{name}"] = _conjugate(rng, rho)
    return out


CORPUS = _corpus()


def _tensor_from_power_0(rho):
    """Yield (k, Ann(V^0 + ... + V^k)) for k = 0, 1, ..., each the last
    step of the walk's read from power 0: a read cut short of k stops at
    a step that lasts."""
    for k in count():
        yield k, algebra._steps(rho, "tensor", 0, k)[-1]


# chain name -> (chain, the explicit power of each degree, first degree)
CHAINS = {
    "tensor": (_tensor_from_power_0, tensor_power, 0),
    "positive": (tensor_annihilator_chain, tensor_power, 1),
    "symmetric": (symmetric_annihilator_chain, sym_power_direct, 0),
}


def _steps(chain, rho, first=0):
    """The steps of ``chain`` on rho, powers ``first`` to KMAX."""
    return islice(chain(rho), KMAX + 1 - first)


def _entry_rows(w):
    """The distinct nonzero rows x -> W(x)[i][j] of the defining system."""
    n = w.monoid.size
    rows = {tuple(w.matrices[x][i][j] for x in range(n))
            for i in range(w.dim) for j in range(w.dim)}
    return [row for row in rows if any(row)]


def _annihilates(rows, v):
    return all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


@pytest.mark.parametrize("chain_name", sorted(CHAINS))
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_chain_against_oracles(name, chain_name):
    rho = CORPUS[name]
    m = rho.monoid
    chain, power, first = CHAINS[chain_name]
    rad = radical_basis(m)
    gram = [[sum(1 for j in range(m.size) if m.table[m.table[x][y]][j] == j)
             for y in range(m.size)] for x in range(m.size)]
    assert rad.dim == gauss_nullity(gram, m.size)
    steps = 0
    for k, ann in _steps(chain, rho, first):
        steps += 1
        w = direct_sum([power(rho, i) for i in range(first, k + 1)])
        rows = _entry_rows(w)
        assert ann.dim == gauss_nullity(rows, m.size)
        basis = ann.basis
        assert len(basis) == ann.dim and gauss_rank(basis) == ann.dim
        assert all(_annihilates(rows, v) for v in basis)
        contained = all(in_radical(m.table, v) for v in basis)
        holds, witness = subspace_leq(ann, rad)
        assert holds == contained == (ann <= rad)
        if holds:
            assert witness is None
        else:
            assert _annihilates(rows, witness)
            assert not in_radical(m.table, witness)
            assert witness == next(v for v in basis if not in_radical(m.table, v))
    assert steps == KMAX + 1 - first


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_subspace_form_against_oracles(name):
    """The radical keeps 0/1 Green rows, yet is the same subspace as the
    kernel of G's full echelon: its rows span rowspace(G).  At every
    tensor and symmetric chain step ``<=``, ``subspace_leq`` and
    ``contains`` on those rows agree with the trace-form definition and
    with plain Gauss-Jordan kernels."""
    rho = CORPUS[name]
    m = rho.monoid
    gram = gram_matrix(m.table)
    rad = radical_basis(m)
    kernel = gram_radical(m)
    assert same_space(rad, kernel)
    assert rad.dim == kernel.dim == gauss_nullity(gram, m.size)
    assert rad.basis == kernel.basis == tuple(null_space(gram, m.size))
    assert set(rad.rows) <= set(green_rows(m.table))
    assert gauss_rank(list(rad.rows) + gram) == gauss_rank(gram) == len(rad.rows)
    assert len(rad.rows) == gauss_rank(rad.rows) == m.size - rad.dim
    for chain_name in ("tensor", "symmetric"):
        chain, power, _ = CHAINS[chain_name]
        for k, ann in _steps(chain, rho):
            w = direct_sum([power(rho, i) for i in range(k + 1)])
            basis = null_space(_entry_rows(w), m.size)
            assert ann.basis == tuple(basis)
            outside = [v for v in basis if not in_radical(m.table, v)]
            assert [v for v in basis if not rad.contains(v)] == outside
            assert (ann <= rad) == (not outside)
            assert subspace_leq(ann, rad) == (not outside, outside[0] if outside else None)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_span_constructor_round_trips(name):
    """A span, rebuilt from its own basis, is the same subspace; its basis
    is the plain Gauss-Jordan form of the spanning vectors."""
    rho = CORPUS[name]
    n = rho.monoid.size
    rng = random.Random(f"{SEED}-{name}")
    for k, ann in islice(tensor_annihilator_chain(rho), 2):
        vectors = list(ann.basis) + [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(k)]
        span = span_subspace(n, vectors)
        again = span_subspace(n, span.basis)
        assert same_space(span, again)
        assert span.dim == again.dim == gauss_rank(vectors)
        assert span.basis == again.basis == tuple(rref(vectors, n))
        assert all(type(x) is int for row in span.rows for x in row)


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
# the golden representations, rational conjugates included
GOLDEN_REPRESENTATIONS = {
    name: load_representation(str(GOLDEN_INPUTS / rep),
                              load_monoid(str(GOLDEN_INPUTS / mon), None))
    for name, (mon, rep) in {
        "t3": ("t3.json", "natural.json"),
        "t3-conjugate": ("t3.json", "t3-conjugate.json"),
        "m128": ("m128.json", "natural.json"),
        "n7": ("nt7.json", "nt-paper.json"),
        "n7-conjugate": ("nt7.json", "nt7-conjugate.json"),
    }.items()}
CHAIN_INPUTS = {**CORPUS, **{f"golden-{k}": v for k, v in GOLDEN_REPRESENTATIONS.items()}}


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("name", sorted(CHAIN_INPUTS))
def test_tensor_chain_matches_old_loop(name, first):
    """Inserting each distinct nonzero product once per step gives every
    step the dimension and span of the old loop, which inserts every
    product of E_1's echelon rows.  The stored rows differ: the walk
    multiplies the entry rows as they are, and from power 0 it adds the
    constants after the power-1 rows.  So the steps are compared by
    dimension and as spaces."""
    rho = CHAIN_INPUTS[name]
    n = rho.monoid.size
    kmax = min(n - 1, 8)
    chain = _tensor_from_power_0 if first == 0 else tensor_annihilator_chain
    steps = list(islice(chain(rho), kmax + 1 - first))
    old = list(tensor_chain_steps(rho, kmax, first=first))
    assert [(k, ann.dim) for k, ann in steps] == [(k, dim) for k, dim, _ in old]
    assert all(same_space(ann, Subspace(n, rows, dim))
               for (_, ann), (_, dim, rows) in zip(steps, old))


# the sign representation of C_2: from power 0, Ann = 0 at step 1, while
# from power 1 it is 0 only at step 2
SIGN_C2 = Representation(Monoid([[0, 1], [1, 0]], 0),
                         [Matrix([[1]]), Matrix([[-1]])])


# N_3 with two elements acting as 0, so the tensor walk's floor is 2: not
# faithful, and from power 0 its steps have dims [3, 1]
N3_FLOOR_2 = Representation(nt_monoid(3), [Matrix.zero(2, 2), Matrix.identity(2),
                                           Matrix.zero(2, 2), Matrix([[0, 3], [0, 0]])])
EXTRA_CHAIN_INPUTS = {"sign-c2": SIGN_C2, "n3-floor-2": N3_FLOOR_2}


@pytest.mark.parametrize("name", sorted(CHAIN_INPUTS) + sorted(EXTRA_CHAIN_INPUTS))
def test_power_zero_steps_derived_from_the_power_one_walk(name, monkeypatch):
    """The walk's steps from power 0, each a step from power 1 with the
    constants added, are the old loop's from power 0 (constants inserted
    first): the same subspace and dimension, and the same containment
    verdict and witness against the radical, at every step up to
    min(|M| - 1, 8)."""
    monkeypatch.setattr(algebra, "_WALKS", weakref.WeakKeyDictionary())
    rho = {**CHAIN_INPUTS, **EXTRA_CHAIN_INPUTS}[name]
    n = rho.monoid.size
    rad = radical_basis(rho.monoid)
    kmax = min(n - 1, 8)
    floor = sum(not any(map(any, m.rows)) for m in rho.matrices)
    for k, dim, rows in tensor_chain_steps(rho, kmax, first=0):
        steps = algebra._steps(rho, "tensor", 0, k)
        step, old = steps[-1], Subspace(n, rows, dim)
        # cut only at Ann = 0, or where the walk from power 1 is at its floor
        assert len(steps) == k + 1 or step.dim in (0, floor - 1)
        assert same_space(step, old) and step.dim == dim
        assert (step <= rad) == (old <= rad)
        assert subspace_leq(step, rad) == subspace_leq(old, rad)


def test_sign_c2_reaches_zero_sooner_from_power_zero():
    rho = SIGN_C2
    assert [s.dim for s in algebra._steps(rho, "tensor", 0, 2)] == [1, 0]
    assert [s.dim for s in algebra._steps(rho, "tensor", 1, 2)] == [1, 0]
    assert minimal_faithful_power(rho) == 1
    assert verify_tensor_theorem(rho).holds
    assert algebra.verify_positive_power_refinement(rho).holds


# m128 is left out: its Fraction oracle to degree 6 takes over a minute
@pytest.mark.parametrize("name", sorted(set(CHAIN_INPUTS) - {"golden-m128"}))
def test_symmetric_chain_inserts_each_row_once(name, monkeypatch):
    """No coefficient row is inserted twice, not even one that recurs at
    a later degree, and each degree's dim Ann is still the nullity of the
    entry rows of S^0..S^d (up to Ann = 0, at most degree 6)."""
    rho = CHAIN_INPUTS[name]
    inserted = []

    class RecordingEchelon(Echelon):
        def insert(self, vec):
            inserted.append(tuple(vec))
            return super().insert(vec)

    monkeypatch.setattr(algebra, "Echelon", RecordingEchelon)
    rows = []
    for d, ann in islice(symmetric_annihilator_chain(rho), 7):
        rows += _entry_rows(sym_power_direct(rho, d))
        assert ann.dim == gauss_nullity(rows, rho.monoid.size)
        if not ann.dim:
            break
    assert inserted and len(set(inserted)) == len(inserted)


# --- the radical from Green's relations -----------------------------------------

RADICAL_MONOIDS = {
    **{name: rho.monoid for name, rho in CORPUS.items() if not name.startswith("conjugate-")},
    **{f"nt-{t}": nt_monoid(t) for t in (2, 7, 20)},
    "t3": GOLDEN_REPRESENTATIONS["t3"].monoid,
    "m128": GOLDEN_REPRESENTATIONS["m128"].monoid,
}


@pytest.mark.parametrize("name", sorted(RADICAL_MONOIDS))
def test_certified_radical_against_null_space(name):
    """The radical is the plain Gauss-Jordan kernel of G as a space, in
    ``dim`` and in ``basis``, read through distinct 0/1 Green rows,
    one per dimension of rowspace(G).  The name is from the radical
    certified modulo a prime that this test first checked."""
    m = RADICAL_MONOIDS[name]
    gram = gram_matrix(m.table)
    rad = radical_basis(m)
    expected = null_space(gram, m.size)
    oracle = span_subspace(m.size, expected)
    assert same_space(rad, oracle)
    assert rad.dim == oracle.dim == len(expected)
    assert rad.basis == tuple(expected)
    assert set(rad.rows) <= set(green_rows(m.table))
    assert len(set(rad.rows)) == len(rad.rows) == m.size - rad.dim


VERIFIERS = {"tensor": verify_tensor_theorem, "symmetric": verify_symmetric_theorem}


@pytest.mark.parametrize("mode", sorted(VERIFIERS))
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_verifier_walk_matches_scans(name, mode):
    """A verifier's ``minimal_k`` is the covering scan's answer and its
    verdict reads it; against the zero subspace as radical both turn into
    the faithfulness scan's answer up to the bound."""
    rho = CORPUS[name]
    verify = VERIFIERS[mode]
    rep = verify(rho)
    assert rep.minimal_k == minimal_covering_power(rho, mode)
    assert rep.holds == (rep.minimal_k <= rep.bound)
    rep = verify(rho, radical=span_subspace(rho.monoid.size, ()))
    k = minimal_faithful_power(rho, mode, rep.bound)
    assert rep.minimal_k == k
    assert rep.holds == (k is not None) == (rep.dim_ann == 0)


CONJUGATES = sorted(name for name in CORPUS if name.startswith("conjugate-"))


@pytest.mark.parametrize("name", CONJUGATES)
def test_rational_conjugate_matches_original(name):
    """Conjugating by a rational P changes no annihilator: every chain
    step, verdict, ``minimal_k`` and witness equals the unconjugated one."""
    rho, orig = CORPUS[name], CORPUS[name.removeprefix("conjugate-")]
    assert any(x.denominator > 1 for mat in rho.matrices for row in mat for x in row)
    rad = radical_basis(rho.monoid)
    for chain, _, first in CHAINS.values():
        steps = list(zip(_steps(chain, rho, first), _steps(chain, orig, first)))
        assert steps
        for (k, ann), (k_orig, ann_orig) in steps:
            assert k == k_orig and same_space(ann, ann_orig) and ann.dim == ann_orig.dim
            assert subspace_leq(ann, rad) == subspace_leq(ann_orig, rad)
    zero = span_subspace(rho.monoid.size, ())
    for verify in VERIFIERS.values():
        assert verify(rho) == verify(orig)
        assert verify(rho, radical=zero) == verify(orig, radical=zero)


@pytest.mark.parametrize("name", CONJUGATES)
def test_rational_conjugate_sym_powers_match_original(name):
    """P rho P^-1 and rho have the same symmetric powers up to a change of
    basis, hence the same characters and characteristic polynomials."""
    rho, orig = CORPUS[name], CORPUS[name.removeprefix("conjugate-")]
    assert distinct_charpolys(rho) == distinct_charpolys(orig)
    for d in range(KMAX + 1):
        assert character(sym_power(rho, d)) == character(sym_power(orig, d))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_sym_power_matches_direct_expansion(name):
    """Building each degree from the one below gives the same matrices,
    entry for entry and in the same canonical form, as expanding every
    column from scratch."""
    rho = CORPUS[name]
    for d in range(7):
        power, direct = sym_power(rho, d), sym_power_direct(rho, d)
        assert power.dim == direct.dim
        for a, b in zip(power.matrices, direct.matrices, strict=True):
            assert a == b
            assert [type(x) for row in a for x in row] == [type(x) for row in b for x in row]


# a projection whose middle column is 0, so every power's monomials in x_1 are
# zero columns, beside nonzero ones
ZERO_COLUMN_GENS = [[[1, 0, 2], [0, 0, 0], [0, 0, 0]]]
ZERO_COLUMN = matrix_representation(from_matrices(ZERO_COLUMN_GENS), ZERO_COLUMN_GENS)
SPARSE_INPUTS = {**CORPUS, "regular-n6": regular_representation(nt_monoid(6)),
                 "zero-column": ZERO_COLUMN}


@pytest.mark.parametrize("name", sorted(SPARSE_INPUTS))
def test_symmetric_columns_are_the_nonzero_columns_of_the_definition(name):
    """At degrees 0..4 each element stores exactly the nonzero columns of
    its S^d, read entry by entry off the definition, in basis order, each
    column equal to the oracle's."""
    rho = SPARSE_INPUTS[name]
    for d, cols in enumerate(islice(symmetric_columns(rho), 5)):
        for mat, per_x in zip(rho.matrices, cols, strict=True):
            oracle = list(zip(*sym_power_entries(mat, rho.dim, d)))  # its columns
            assert list(per_x) == [q for q, col in enumerate(oracle) if any(col)]
            for q, col in per_x.items():
                assert [col.get(p, 0) for p in range(len(oracle))] == list(oracle[q])


def test_nt_nilpotent_elements_store_one_column_per_degree():
    """N_t's elements 2..t act by [[0, j], [0, 0]], whose degree-d power
    has one nonzero column, j^d at (x_0^d, x_1^d); the zero element
    stores none past degree 0 and the identity all d + 1."""
    t = 9
    for d, cols in enumerate(islice(symmetric_columns(nt_paper_representation(t)), 8)):
        assert cols[0] == ({0: {0: 1}} if d == 0 else {})
        assert cols[1] == {q: {q: 1} for q in range(d + 1)}
        assert cols[2:] == [{d: {0: j ** d}} for j in range(2, t + 1)]


# --- exact matrices against plain Fraction lists ---------------------------------

MATRIX_SEED = 1984


def _random_entry(rng, integral):
    p, q = rng.randint(-9, 9), rng.randint(2, 5)
    kinds = [p, Fraction(p * q, q), f"{p * q}/{q}", str(p)]
    if not integral:
        kinds += [Fraction(p, q), f"{p}/{q}"]
    return rng.choice(kinds)


def _matrix_corpus():
    """(entries, Matrix) pairs: for each size 0..4, integral ones (whose
    entries may still be Fractions or strings) and rational ones."""
    rng = random.Random(MATRIX_SEED)
    out = []
    for n in range(5):
        for i in range(8):
            rows = [[_random_entry(rng, integral=i % 2 == 0) for _ in range(n)]
                    for _ in range(n)]
            out.append((rows, Matrix(rows, ncols=n)))
    return out


MATRICES = _matrix_corpus()


def _is_canonical(mat):
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for row in mat.rows for x in row)


def _as_lists(mat):
    return [list(row) for row in mat.rows]


def test_matrix_arithmetic_matches_fraction_oracle():
    by_size = {}
    for rows, a in MATRICES:
        by_size.setdefault(a.nrows, []).append((rows, a))
    for n, group in by_size.items():
        for rows, a in group:
            assert _is_canonical(a)
            assert _as_lists(a) == [[Fraction(x) for x in row] for row in rows]
            assert a.trace() == trace(rows)
            for other_rows, b in group:
                product = a * b
                assert _is_canonical(product)
                assert _as_lists(product) == matmul(rows, other_rows, n)
                assert product.nrows == product.ncols == n


def test_integral_matrices_multiply_in_ints():
    """An all-integer product never forms a Fraction, whatever form its
    integral operands were given in."""
    integral = [a for _, a in MATRICES if all(type(x) is int for row in a for x in row)]
    assert len(integral) >= 20
    for a in integral:
        for b in integral:
            if a.nrows == b.nrows:
                prod = a * b
                assert all(type(x) is int for row in prod for x in row)


def test_inverse_matches_gauss_jordan_oracle():
    """An invertible A's inverse is the right block of the plain
    Gauss-Jordan form of [A | I], in canonical entries; a singular A, one
    of whose rows is a rational combination of the others, is refused."""
    rng = random.Random(MATRIX_SEED + 2)
    cases = list(MATRICES)
    for rows, _ in MATRICES:
        if rows:
            rows = [list(row) for row in rows]
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows[1:]]
            rows[0] = [sum(c * Fraction(row[j]) for c, row in zip(coeffs, rows[1:]))
                       for j in range(len(rows))]
            cases.append((rows, Matrix(rows, ncols=len(rows))))
    counts = {True: 0, False: 0}
    for rows, a in cases:
        n = a.nrows
        invertible = gauss_rank(rows) == n
        counts[invertible] += 1
        if not invertible:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                inverse(a)
            continue
        aug = [[Fraction(x) for x in row] + [int(i == j) for j in range(n)]
               for i, row in enumerate(rows)]
        inv = inverse(a)
        assert _is_canonical(inv) and inv.nrows == inv.ncols == n
        assert _as_lists(inv) == [list(row[n:]) for row in rref(aug, 2 * n)]
        assert a * inv == inv * a == Matrix.identity(n)
    assert counts[True] >= 30 and counts[False] >= 30
    for a in (Matrix([[1, 2]]), Matrix([], ncols=3), Matrix([["1/2"], [3]])):
        with pytest.raises(ValueError, match="^only square matrices can be inverted$"):
            inverse(a)


def test_matrix_equality_and_hash_across_forms():
    assert Matrix([[2]]) == Matrix([["4/2"]]) == Matrix([[Fraction(4, 2)]])
    assert hash(Matrix([[2]])) == hash(Matrix([["4/2"]]))
    assert type(Matrix([[Fraction(4, 2)]])[0][0]) is int
    # a product of non-integral matrices with an integral result
    half = Matrix([["1/2", 0], [0, "3/2"]])
    double = Matrix([[4, 0], [0, "2/3"]])
    assert half * double == Matrix([[2, 0], [0, 1]])
    assert hash(half * double) == hash(Matrix([["4/2", 0], [0, Fraction(1)]]))
    assert all(type(x) is int for row in half * double for x in row)
    for rows, a in MATRICES:
        as_fractions = Matrix([[Fraction(x) for x in row] for row in rows], ncols=a.ncols)
        as_strings = Matrix([[str(Fraction(x)) for x in row] for row in rows],
                            ncols=a.ncols)
        assert a == as_fractions == as_strings
        assert hash(a) == hash(as_fractions) == hash(as_strings)
        assert a.rows == as_strings.rows
        assert [list(map(type, r)) for r in a.rows] == [list(map(type, r))
                                                        for r in as_fractions.rows]


# --- integral polynomials: int exactly where integral ----------------------------

POLY_SEED = 5309


def _canonical_values(values):
    """Every value an int, or a Fraction that is not an integer: never a
    float and never an integral Fraction."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in values)


def _element_matrices():
    """Each element matrix of the corpus: transformation, N_t and 0/1
    matrix monoids and their rational conjugates."""
    return [(name, mat) for name, rho in sorted(CORPUS.items()) for mat in rho.matrices]


def test_berkowitz_matches_faddeev_leverrier():
    """``charpoly`` against Faddeev-LeVerrier on the random matrices: monic
    of degree n, with int coefficients on integral input.  The name is
    older than the power-trace ``charpoly``, which replaced a Berkowitz
    loop."""
    for rows, a in MATRICES:
        p = charpoly(a)
        assert p == Polynomial(charpoly_faddeev(rows))
        assert p.degree == a.nrows and p[a.nrows] == 1
        if all(type(x) is int for row in a for x in row):
            assert all(type(c) is int for c in p.coeffs)


def test_charpoly_against_oracles_in_canonical_form():
    """``charpoly`` (power traces and one Newton recurrence) against
    Faddeev-LeVerrier and Laplace expansion, on random integral and
    rational matrices and on every element matrix of the corpus: monic of
    degree n.  Coefficients are canonical, ints on integral input, and
    ints for an element of a finite monoid even when its matrix is
    rational."""
    cases = [(a, False) for _, a in MATRICES]
    cases += [(mat, True) for _, mat in _element_matrices()]
    rational = 0
    for a, in_monoid in cases:
        rows = _as_lists(a)
        p = charpoly(a)
        assert p == Polynomial(charpoly_faddeev(rows)) == Polynomial(charpoly_laplace(rows))
        assert p.degree == a.nrows and p[a.nrows] == 1
        assert _canonical_values(p.coeffs)
        assert _canonical_values([p[i] for i in range(-1, p.degree + 2)])
        if in_monoid or all(type(x) is int for row in a for x in row):
            assert all(type(c) is int for c in p.coeffs)
        rational += any(type(c) is Fraction for c in p.coeffs)
    assert rational >= 10


def _value_multisets():
    """Seeded (values, integral) pairs: integer multisets and rational
    ones whose every value has a denominator."""
    rng = random.Random(POLY_SEED)
    out = []
    for size in range(5):
        for _ in range(4):
            out.append(([rng.randint(-4, 4) for _ in range(size)], True))
            out.append(([Fraction(rng.choice([-3, -1, 1, 3]), rng.randint(2, 4))
                         for _ in range(size)], False))
    return out


def test_complete_homogeneous_against_brute_force():
    """Newton's identities against term enumeration: integer values give
    ints at every degree, whether the power sums come as ints or as
    Fractions; rational values fall back to Fraction where h_d is not an
    integer and give an int where it is."""
    d = 6
    fallback = 0
    for values, integral in _value_multisets():
        p = power_sums(values, d)
        forms = [p, [x.numerator for x in p]] if integral else [p]
        for sums in forms:
            h = complete_homogeneous_sequence(sums, d)
            assert h == [h_complete_brute(values, k) for k in range(d + 1)]
            assert _canonical_values(h)
            if integral:
                assert all(type(x) is int for x in h)
            fallback += any(type(x) is Fraction for x in h)
            assert complete_homogeneous_sequence(sums, d)[d] == h[d]
    assert fallback >= 10


def test_charpoly_from_power_traces_round_trip():
    """Power traces to elementary symmetric functions and back: equal to
    ``charpoly`` on every matrix, and to prod (t - v) on every value
    multiset, in canonical form."""
    for a in [a for _, a in MATRICES] + [mat for _, mat in _element_matrices()]:
        n = a.nrows
        q = charpoly_from_power_traces(power_traces(a, n), n)
        assert q == charpoly(a)
        assert q.coeffs == charpoly(a).coeffs
        assert _canonical_values(q.coeffs)
    for values, integral in _value_multisets():
        n = len(values)
        expected = [Fraction(1)]
        for v in values:
            expected = poly_mul(expected, [-Fraction(v), Fraction(1)])
        q = charpoly_from_power_traces(power_sums(values, n), n)
        assert q == Polynomial(expected)
        assert _canonical_values(q.coeffs)
        if integral:
            assert all(type(c) is int for c in q.coeffs)


def _random_polynomial(rng, degree, integral, monic=False):
    """A seeded polynomial of exactly this degree, -1 giving zero."""
    def coeff():
        return rng.randint(-4, 4) if integral else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if degree < 0:
        return Polynomial()
    lead = 1 if monic else 0
    while not lead:
        lead = coeff()
    return Polynomial([coeff() for _ in range(degree)] + [lead])


def test_divmod_against_the_division_identity():
    """q*b + r == a and deg r < deg b for seeded integral and rational a
    and b: zero dividends, constant divisors and divisors of higher degree
    than the dividend among them.  The coefficients are canonical, and ints
    when a is integral and b is monic and integral."""
    rng = random.Random(POLY_SEED + 1)
    for deg_a in range(-1, 7):
        for deg_b in range(6):
            for int_a, int_b, monic in [(True, True, True), (True, True, False),
                                        (True, False, False), (False, True, True),
                                        (False, False, False)]:
                a = _random_polynomial(rng, deg_a, int_a)
                b = _random_polynomial(rng, deg_b, int_b, monic)
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.degree < b.degree
                assert (q, r) == (a // b, a % b)
                assert _canonical_values(q.coeffs + r.coeffs)
                if int_a and int_b and monic:
                    assert all(type(c) is int for c in q.coeffs + r.coeffs)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_element_series_matches_sym_power_characters(name):
    """The reciprocal series of det(I - t rho(x)) against Newton's
    identities on the power traces: equal, and ints at every degree for
    every element, including those of the rational conjugates."""
    rho = CORPUS[name]
    for x in range(rho.monoid.size):
        series = element_series(rho, x, 8)
        assert list(series) == sym_power_characters(rho, x, 8)
        assert all(type(c) is int for c in series)
        assert all(type(c) is int for c in sym_power_characters(rho, x, 8))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_weighted_series_reads_the_ambient_representation(name):
    """For x in eMe, rho(x) = rho(e) rho(x) rho(e) is zero on ker rho(e), so
    det(I - t rho(x)) and the power traces of rho(x) are those of its
    restriction to eV.  Against the restriction as the reference: for
    every idempotent e and seeded rational weights on eMe, with c_q the
    weight on the restricted reversed characteristic polynomial q (by
    Faddeev-LeVerrier), the pair (num, den) satisfies
    num * prod q = den * sum_q c_q prod_{q' != q} q', is coprime and has
    den(0) = 1; and every symmetric-power character agrees."""
    rho = CORPUS[name]
    m = rho.monoid
    rng = random.Random(f"{SEED}-{name}")
    for e in idempotents(m):
        local = restrict_to_local(rho, e)
        members = local_monoid(m, e)
        weights = [0] * m.size
        for x in members:
            weights[x] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        grouped = {}
        for i, x in enumerate(members):
            q = Polynomial(charpoly_faddeev(_as_lists(local.matrices[i]))[::-1])
            grouped[q] = grouped.get(q, 0) + weights[x]
        product, total = Polynomial([1]), Polynomial()
        for q, c in grouped.items():
            total = total * q + product * c
            product = product * q
        num, den = weighted_series(rho, e, weights)
        assert num * product == den * total
        assert poly_gcd(num, den) == Polynomial([1]) and den[0] == 1
        for i, x in enumerate(members):
            assert sym_power_characters(rho, x, 8) == sym_power_characters(local, i, 8)


def test_integral_paths_form_no_fraction(monkeypatch):
    """On integral input the polynomial and Newton-identity code never
    reaches ``Fraction``: with it made to raise inside ``linalg``, the
    results are unchanged."""
    integral = {name: rho for name, rho in CORPUS.items()
                if not name.startswith("conjugate-")}
    expected = {name: [(charpoly(mat), element_series(rho, x, 8),
                        sym_power_characters(rho, x, 8))
                       for x, mat in enumerate(rho.matrices)]
                for name, rho in integral.items()}
    sums = [power_sums(values, 6) for values, ok in _value_multisets() if ok]
    h_expected = [complete_homogeneous_sequence(p, 6) for p in sums]
    ints = [[x.numerator for x in p] for p in sums]

    def refuse(*args):
        raise AssertionError("a Fraction was formed")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    for name, rho in integral.items():
        for x, mat in enumerate(rho.matrices):
            p = charpoly(mat)
            assert charpoly_from_power_traces(power_traces(mat, mat.nrows), mat.nrows) == p
            assert (p, element_series(rho, x, 8), sym_power_characters(rho, x, 8)) \
                == expected[name][x]
    assert [complete_homogeneous_sequence(p, 6) for p in ints] == h_expected


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_sym_power_characters_match_matrix_powers(name):
    """Traces read at the element powers x^i through the table equal the
    traces of the matrix powers rho(x)^i, at every degree up to 8."""
    rho = CORPUS[name]
    for x in range(rho.monoid.size):
        assert sym_power_characters(rho, x, 0) == [1]
        for n in (1, 8):
            assert sym_power_characters(rho, x, n) == complete_homogeneous_sequence(
                power_traces(rho.matrices[x], n), n)


# --- characteristic polynomials read off the character ------------------------

def _charpoly_inputs():
    """The corpus, rational conjugates included, the tensor and symmetric
    square of each of its representations, the golden representations
    but the 128-dimensional one, and a zero-dimensional representation."""
    out = {}
    for name, rho in CORPUS.items():
        out[name] = rho
        out[f"tensor-square-{name}"] = tensor_power(rho, 2)
        out[f"sym-square-{name}"] = sym_power(rho, 2)
    out.update((f"golden-{name}", rho) for name, rho in GOLDEN_REPRESENTATIONS.items()
               if name != "m128")
    out["dim-0"] = zero_representation(CORPUS["transformations-0"].monoid)
    return out


CHARPOLY_INPUTS = _charpoly_inputs()


@pytest.mark.parametrize("name", sorted(CHARPOLY_INPUTS))
def test_charpolys_against_faddeev_leverrier(name):
    """``distinct_charpolys``, read off the character at the powers x^i, is
    the set of Faddeev-LeVerrier polynomials of the element matrices, and
    ``reversed_charpoly(rho, x)``, read off rho(x)'s own matrix powers, is
    det(I - t rho(x)): that polynomial reversed.  All coefficients are
    ints, those of the rational conjugates included."""
    rho = CHARPOLY_INPUTS[name]
    oracle = [charpoly_faddeev(_as_lists(mat)) for mat in rho.matrices]
    polys = distinct_charpolys(rho)
    assert polys == tuple(sorted({Polynomial(p) for p in oracle}))
    assert all(type(c) is int for p in polys for c in p.coeffs)
    for x, p in enumerate(oracle):
        q = reversed_charpoly(rho, x)
        assert q == Polynomial(p[::-1]) and q[0] == 1
        assert all(type(c) is int for c in q.coeffs)


# the monoids above with at most 40 elements, each once
REGULAR_MONOIDS = {
    **{name: rho.monoid for name, rho in CORPUS.items() if not name.startswith("conjugate-")},
    "golden-t3": GOLDEN_REPRESENTATIONS["t3"].monoid,
    "golden-n7": GOLDEN_REPRESENTATIONS["n7"].monoid,
}


@pytest.mark.parametrize("name", sorted(REGULAR_MONOIDS))
def test_regular_charpolys_against_cycles(name):
    """In the regular representation element x acts by its table row, so
    its characteristic polynomial is read off that self-map's cycles:
    ``distinct_charpolys`` is the set of those, and ``reversed_charpoly``
    their reversal at a seeded sample of elements (its d matrix products
    cost d^3 each).  On the monoids of at most 10 elements the cycle
    oracle equals Faddeev-LeVerrier at every element."""
    m = REGULAR_MONOIDS[name]
    assert m.size <= 40
    rho = regular_representation(m)
    oracle = [charpoly_of_map(row) for row in m.table]
    assert distinct_charpolys(rho) == tuple(sorted({Polynomial(p) for p in oracle}))
    for x in random.Random(f"{SEED}-{name}").sample(range(m.size), min(m.size, 2)):
        assert reversed_charpoly(rho, x) == Polynomial(oracle[x][::-1])
    if m.size <= 10:
        assert oracle == [charpoly_faddeev(_as_lists(mat)) for mat in rho.matrices]


def test_regular_m128_charpolys_in_under_a_second():
    """The 128-dimensional regular representation of the 128-element
    submonoid of T_4 has 8 characteristic polynomials, the cycle oracle's,
    and reading them off the character takes under 1 s of CPU."""
    m = GOLDEN_REPRESENTATIONS["m128"].monoid
    rho = regular_representation(m)
    start = time.process_time()
    polys = distinct_charpolys(rho)
    elapsed = time.process_time() - start
    assert len(polys) == 8
    assert set(polys) == {Polynomial(charpoly_of_map(row)) for row in m.table}
    assert elapsed < 1.0, f"distinct_charpolys took {elapsed:.2f} s"


# --- sparse elimination against the dense reference ----------------------------

ECHELON_SEED = 4171


def _random_vector(rng, ncols, density, rational):
    v = [0] * ncols
    for j in range(ncols):
        if rng.random() < density:
            x = rng.choice((-1, 1)) * rng.randint(1, 12) * rng.choice((1, 1, 2, 6, 35))
            v[j] = Fraction(x, rng.randint(1, 6)) if rational else x
    return v


def _echelon_corpus():
    """(ncols, vectors, probes) draws: sparse and dense vectors, int or
    rational, entries with common factors (so pivots are rarely 1), zero
    vectors, repeats and combinations of earlier vectors."""
    rng = random.Random(ECHELON_SEED)
    out = []
    for ncols in range(41):
        for _ in range(3):
            density = rng.choice((0.05, 0.15, 0.4, 1.0))
            rational = rng.random() < 0.4
            vecs = []
            for _ in range(rng.randint(0, ncols + 4)):
                r = rng.random()
                if r < 0.08:
                    vecs.append([0] * ncols)
                elif r < 0.16 and vecs:
                    vecs.append(list(rng.choice(vecs)))
                elif r < 0.26 and len(vecs) >= 2:
                    a, b = rng.sample(vecs, 2)
                    s, t = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    vecs.append([s * x + t * y for x, y in zip(a, b)])
                else:
                    vecs.append(_random_vector(rng, ncols, density, rational))
            probes = vecs + [_random_vector(rng, ncols, density, rational) for _ in range(3)]
            out.append((ncols, vecs, probes))
    return out


ECHELON_CORPUS = _echelon_corpus()


def _same_state(ech, ref, probes):
    assert ech.pivots == ref.pivots
    assert ech.int_rows == ref.int_rows
    assert ech.rank == ref.rank
    assert [ech.reduce(v) for v in probes] == [ref.reduce(v) for v in probes]
    assert [ech.contains(v) for v in probes] == [ref.contains(v) for v in probes]


def test_echelon_corpus_covers_its_cases():
    vecs = [v for _, vs, _ in ECHELON_CORPUS for v in vs]
    assert {ncols for ncols, _, _ in ECHELON_CORPUS} == set(range(41))
    assert any(type(x) is Fraction and x.denominator > 1 for v in vecs for x in v)
    assert any(v and not any(v) for v in vecs)
    ref = [DenseEchelon(ncols) for ncols, _, _ in ECHELON_CORPUS]
    for r, (_, vs, _) in zip(ref, ECHELON_CORPUS):
        for v in vs:
            r.insert(v)
    assert any(row[p] > 1 for r in ref for p, row in zip(r.pivots, r.int_rows))


@pytest.mark.parametrize("index", range(0, len(ECHELON_CORPUS), 6))
def test_sparse_echelon_matches_dense_reference(index):
    """Every insert verdict and the pivots and stored rows after each
    insert equal dense elimination's, and so do the reductions,
    membership, the reduced form and the kernel basis at the end."""
    for ncols, vecs, probes in ECHELON_CORPUS[index:index + 6]:
        ech, ref = Echelon(ncols), DenseEchelon(ncols)
        for v in vecs:
            assert ech.insert(v) == ref.insert(v)
            assert (ech.pivots, ech.int_rows) == (ref.pivots, ref.int_rows)
        _same_state(ech, ref, probes)
        assert ech.rows == ref.rows
        assert ech.kernel_basis() == ref.kernel_basis()


@pytest.mark.parametrize("index", range(0, len(ECHELON_CORPUS), 6))
def test_echelon_copy_is_independent_of_later_inserts(index):
    """A snapshot taken halfway reduces afterwards exactly as it did when
    taken, and as the reference snapshot does, while the original goes
    on to absorb the remaining vectors."""
    for ncols, vecs, probes in ECHELON_CORPUS[index:index + 6]:
        ech, ref = Echelon(ncols), DenseEchelon(ncols)
        half = len(vecs) // 2
        for v in vecs[:half]:
            ech.insert(v)
            ref.insert(v)
        snap, ref_snap = ech.copy(), ref.copy()
        before = [snap.reduce(v) for v in probes]
        for v in vecs[half:]:
            ech.insert(v)
            ref.insert(v)
        assert [snap.reduce(v) for v in probes] == before
        _same_state(snap, ref_snap, probes)
        _same_state(ech, ref, probes)
        assert snap.kernel_basis() == ref_snap.kernel_basis()


# the chains walked with the dense reference in place of Echelon
SPARSE_CHAIN_INPUTS = {
    **{name: rho for name, rho in CORPUS.items() if name.startswith("transformations-")},
    "golden-t3": GOLDEN_REPRESENTATIONS["t3"],
    "golden-m128": GOLDEN_REPRESENTATIONS["m128"],
}


def _chain_record(chain, rho):
    """Each step's (k, dim Ann) up to Ann = 0 (at most 16 steps), and the
    stored rows of the last step."""
    dims = []
    for k, ann in islice(chain(rho), 17):
        dims.append((k, ann.dim))
        if not ann.dim:
            break
    return dims, ann._echelon.int_rows


@pytest.mark.parametrize("chain", [tensor_annihilator_chain, symmetric_annihilator_chain],
                         ids=["tensor", "symmetric"])
@pytest.mark.parametrize("name", sorted(SPARSE_CHAIN_INPUTS))
def test_chain_with_sparse_echelon_matches_dense(name, chain, monkeypatch):
    rho = SPARSE_CHAIN_INPUTS[name]
    got = _chain_record(chain, rho)
    monkeypatch.setattr(algebra, "Echelon", DenseEchelon)
    expected = _chain_record(chain, rho)
    assert got[1] and got == expected
    assert got[0][-1][1] == 0


# --- validators against a generating set ---------------------------------------

VALIDATOR_SEED = 2419


def _random_transformation_monoid(rng, max_degree):
    degree = rng.randint(2, max_degree)
    gens = [tuple(rng.randint(1, degree) for _ in range(degree))
            for _ in range(rng.randint(1, 3))]
    return gens, from_transformations(degree, gens)


def _relabelled(rng, m):
    """The table of m under a random permutation of its element indices."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    inv = {p: i for i, p in enumerate(perm)}
    table = [[perm[m.table[inv[a]][inv[b]]] for b in range(m.size)]
             for a in range(m.size)]
    return Monoid(table, perm[m.identity])


def _validator_corpus():
    rng = random.Random(VALIDATOR_SEED)
    seeded, raw = {}, {}
    for i in range(12):
        gens, m = _random_transformation_monoid(rng, 4)
        seeded[f"transformations-{i}"] = (m, [
            m.transformations.index(tuple(x - 1 for x in g)) for g in gens])
        raw[f"cayley-{i}"] = _relabelled(rng, m)
    for i in range(3):
        gens, rho = _random_01_matrices(rng)
        m = rho.monoid
        seeded[f"matrices-{i}"] = (m, [rho.matrices.index(Matrix(g)) for g in gens])
        raw[f"cayley-matrices-{i}"] = _relabelled(rng, m)
    for t in (1, 2, 5, 8):
        raw[f"nt-{t}"] = nt_monoid(t)
    return seeded, raw


SEEDED, RAW = _validator_corpus()
ALL_MONOIDS = {**{k: m for k, (m, _) in SEEDED.items()}, **RAW}


def _small_representations(rng, max_size):
    """Valid representations of monoids with at most max_size elements."""
    out = []
    while len(out) < 6:
        _, m = _random_transformation_monoid(rng, 3)
        if 3 <= m.size <= max_size:
            out.append(natural_representation(m))
    out += [nt_paper_representation(t) for t in (2, 4)]
    out.append(_random_01_matrices(rng)[1])
    return out


@pytest.mark.parametrize("name", sorted(ALL_MONOIDS))
def test_generators_generate(name):
    m = ALL_MONOIDS[name]
    gens = m.generators
    assert len(set(gens)) == len(gens) and m.identity not in gens
    assert generated(m.table, m.identity, gens) == set(range(m.size))
    # greedy: no generator lies in the submonoid of the ones before it
    for i, g in enumerate(gens):
        assert g not in generated(m.table, m.identity, gens[:i])


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_closures_seed_their_generators(name):
    m, inputs = SEEDED[name]
    assert set(m.generators) <= set(inputs)
    assert m.generators == tuple(
        g for i, g in enumerate(inputs)
        if g not in generated(m.table, m.identity, inputs[:i]))


T4 = load_monoid(str(GOLDEN_INPUTS / "t4.json"), None)


def test_table_corruptions_match_oracle():
    rng = random.Random(VALIDATOR_SEED + 1)
    # N_t needs |A| = t generators; T_4 has 256 elements, the most Light's
    # test reads as bytes
    tables = ([m for m in ALL_MONOIDS.values() if 2 <= m.size <= 16]
              + [nt_monoid(t) for t in range(2, 13) if f"nt-{t}" not in ALL_MONOIDS]
              + [T4])
    rejected = 0
    for m in tables:
        for _ in range(12):
            table = [list(row) for row in m.table]
            a, b = rng.randrange(m.size), rng.randrange(m.size)
            table[a][b] = rng.choice([c for c in range(m.size) if c != table[a][b]])
            ident_ok = all(table[m.identity][x] == x == table[x][m.identity]
                           for x in range(m.size))
            valid = ident_ok and is_associative(table)
            try:
                Monoid(table, m.identity)
            except ValueError as e:
                assert not valid, e
                rejected += 1
                if ident_ok:
                    found = re.search(r"triple \((\d+), (\d+), (\d+)\)", str(e))
                    x, g, y = map(int, found.groups())
                    assert table[table[x][g]][y] != table[x][table[g][y]]
                    # the triple the old triple-by-triple scan reported
                    gens = _generating_set(table, m.identity)
                    assert (x, g, y) == first_associativity_failure(table, gens)
                    assert str(e).endswith(
                        f"({x}*{g})*{y} = {table[table[x][g]][y]} but "
                        f"{x}*({g}*{y}) = {table[x][table[g][y]]}")
            else:
                assert valid
    assert rejected > 50


def _fails_at_entry(table, a, b):
    """Whether a triple that reads entry [a][b] fails associativity.  The
    table was associative before that one entry changed, and every other
    triple reads only unchanged entries, so this decides associativity."""
    n = range(len(table))
    parts = (((a, b, z) for z in n), ((x, a, b) for x in n),
             ((x, y, b) for x in n for y in n if table[x][y] == a),
             ((a, y, z) for y in n for z in n if table[y][z] == b))
    return any(table[table[x][y]][z] != table[x][table[y][z]]
               for part in parts for x, y, z in part)


def test_table_corruptions_past_256_elements_match_oracle():
    """On the 610-element submonoid of T_5 the triple loop decides every
    x, and a corrupted table is rejected exactly when a triple fails,
    naming the triple the old triple-by-triple scan reported."""
    m610 = from_transformations(5, [(2, 3, 4, 5, 1), (1, 1, 3, 4, 5)])
    assert m610.size == 610 and len(m610.generators) == 2
    rng = random.Random(VALIDATOR_SEED + 3)
    rejected = 0
    for _ in range(6):
        table = [list(row) for row in m610.table]
        # off the identity's row and column, so the identity law holds
        a, b = rng.randrange(1, m610.size), rng.randrange(1, m610.size)
        table[a][b] = rng.choice([c for c in range(m610.size) if c != table[a][b]])
        valid = not _fails_at_entry(table, a, b)
        try:
            Monoid(table, 0)
        except ValueError as e:
            assert not valid, e
            rejected += 1
            x, g, y = map(int, re.search(r"triple \((\d+), (\d+), (\d+)\)", str(e)).groups())
            assert (x, g, y) == first_associativity_failure(
                table, _generating_set(table, 0))
        else:
            assert valid
    assert rejected >= 4


def test_valid_tables_up_to_256_elements_skip_the_triple_loop(monkeypatch):
    """The triple loop's itemgetters are built only when it runs: with
    them made to raise, every valid table of at most 256 elements still
    validates, and N_256, past the byte path, does not."""
    def refuse(*args):
        raise AssertionError("the triple loop ran")

    monkeypatch.setattr(monoids, "itemgetter", refuse)
    for m in [*ALL_MONOIDS.values(), Monoid([[0]], 0), nt_monoid(255), T4,
              GOLDEN_REPRESENTATIONS["m128"].monoid]:
        assert Monoid(m.table, m.identity) == m
    with pytest.raises(AssertionError, match="the triple loop ran"):
        nt_monoid(256)


@pytest.mark.parametrize("table, identity, error", [
    ([[True]], 0, "table entry [0][0] must be an integer, not true"),
    ([[False]], 0, "table entry [0][0] must be an integer, not false"),
    ([[1]], 0, "table entry [0][0] = 1 is out of range"),
    ([[0]], True, "identity index must be an integer, not true"),
    ([[0, 1], [1, True]], 0, "table entry [1][1] must be an integer, not true"),
    ([[False, 1], [1, 0]], 0, "table entry [0][0] must be an integer, not false"),
    ([[0, True], [1, 1]], 0, "table entry [0][1] must be an integer, not true"),
    ([[1, 0], [0, 1]], True, "identity index must be an integer, not true"),
])
def test_one_element_and_bool_tables_keep_their_errors(table, identity, error):
    """``bytes`` would take True and False as 1 and 0: tables are read as
    bytes only after the type check has named any bool entry."""
    with pytest.raises(ValueError) as e:
        Monoid(table, identity)
    assert str(e.value) == error


def test_representation_corruptions_match_oracle():
    rng = random.Random(VALIDATOR_SEED + 2)
    rejected = 0
    for rho in _small_representations(rng, 16):
        m = rho.monoid
        for _ in range(8):
            mats = [[list(row) for row in mat.rows] for mat in rho.matrices]
            x = rng.randrange(m.size)
            i, j = rng.randrange(rho.dim), rng.randrange(rho.dim)
            mats[x][i][j] += rng.choice([-1, 1, 2])
            valid = is_homomorphism(m, mats)
            try:
                Representation(m, mats)
            except ValueError as e:
                assert not valid, e
                rejected += 1
                found = re.search(r"pair \((\d+), (\d+)\)", str(e))
                if found:
                    a, g = map(int, found.groups())
                    assert matmul(mats[a], mats[g]) != mats[m.table[a][g]]
                    # the first failing pair, x outer and generators inner
                    assert (a, g) == next(
                        (b, h) for b in range(m.size) for h in m.generators
                        if matmul(mats[b], mats[h]) != mats[m.table[b][h]])
                else:
                    assert x == m.identity
            else:
                assert valid
    assert rejected > 20


# --- unit groups against the two-sided definition -----------------------------

UNIT_MONOIDS = {**RADICAL_MONOIDS, **{f"validator-{k}": m for k, m in ALL_MONOIDS.items()},
                "t4": T4}


@pytest.mark.parametrize("name", sorted(UNIT_MONOIDS))
def test_unit_group_is_the_two_sided_units(name):
    """eMe, built here as {e*x*e}, is ``local_monoid``; ``unit_group``
    keeps g when g*h = e for some h, so no unit is missed and no
    one-sided unit kept, against g*h = e = h*g in eMe; and
    ``local_ideal`` is the rest of eMe."""
    m = UNIT_MONOIDS[name]
    table = m.table
    for e in idempotents(m):
        eme = tuple(sorted({table[table[e][x]][e] for x in range(m.size)}))
        units = units_two_sided(table, e, eme)
        assert local_monoid(m, e) == eme
        assert unit_group(m, e) == units
        assert local_ideal(m, e) == tuple(x for x in eme if x not in units)


# --- closure tables and stacked validation against the all-pairs code ----------

CLOSURE_SEED = 2423
CLOSURE_CAP = 300  # bounds the all-pairs reference's |M|^2 products


def _closure_cases():
    """(identity, generators, mul, cap) closures: seeded transformations
    of degree 1-5 with 0-4 generators, each drawn plain, with a repeated
    generator and with the identity among the generators; T_4 and a
    610-element submonoid of T_5; and matrix closures, some of which
    exceed their cap, one with its identity and generators alone."""
    rng = random.Random(CLOSURE_SEED)
    cases = {}
    for degree in range(1, 6):
        ident = tuple(range(degree))
        for count in range(5):
            for i in range(3):
                gens = [tuple(rng.randrange(degree) for _ in range(degree))
                        for _ in range(count)]
                if i == 1 and gens:
                    gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
                if i == 2:
                    gens.insert(rng.randrange(len(gens) + 1), ident)
                cases[f"transformations-{degree}-{count}-{i}"] = (
                    ident, gens, _compose, CLOSURE_CAP)
    # T_4 and the 610-element submonoid of T_5, uncapped
    for name, gens in {"t4": [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)],
                       "m610": [(1, 2, 3, 4, 0), (0, 0, 2, 3, 4)]}.items():
        cases[f"transformations-{name}"] = (tuple(range(len(gens[0]))), gens, _compose, None)
    half = Fraction(1, 2)
    matrices = {
        "swap": [[[0, 1], [1, 0]]],
        "swap-repeated-and-identity": [[[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        "sign-and-nilpotent": [[[-1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "rational-projection": [[[1, half], [0, 0]], [[0, 0], [0, 1]]],
        "cycle-and-idempotent": [[[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                                 [[1, 0, 0], [0, 1, 0], [0, 0, 0]]],
        "doubling-over-cap": [[[2]]],
        "shear-over-cap": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]],
        "tight-cap": [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
        "generators-over-cap": [[[0, 1], [1, 0]], [[1, 0], [0, 0]]],
    }
    caps = {"doubling-over-cap": 40, "shear-over-cap": 25, "tight-cap": 2,
            "generators-over-cap": 2}
    for name, gens in matrices.items():
        gens = [Matrix(g) for g in gens]
        cases[f"matrices-{name}"] = (Matrix.identity(gens[0].nrows), gens,
                                     Matrix.__mul__, caps.get(name, 10000))
    return cases


CLOSURE_CASES = _closure_cases()


def _outcome(fn, *args):
    """fn's result, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_closure_table_matches_all_pairs(name):
    """Elements, their order and the table from the |M| |A| products equal
    the all-pairs closure's, and a cap exceeded gives the same error, also
    through ``from_matrices``."""
    got = _outcome(_closure, *CLOSURE_CASES[name])
    assert got == _outcome(closure_all_pairs, *CLOSURE_CASES[name])
    if name.startswith("matrices-"):
        _, gens, _, cap = CLOSURE_CASES[name]
        built = _outcome(from_matrices, gens, cap)
        if isinstance(got, str):
            assert built == got
        else:
            assert built.table == got[1]


def test_closure_corpus_covers_its_cases():
    outcomes = [_outcome(_closure, *case) for case in CLOSURE_CASES.values()]
    sizes = {len(out[0]) for out in outcomes if isinstance(out, tuple)}
    assert {1, 2} <= sizes and max(sizes) > 100
    assert sum(isinstance(out, str) for out in outcomes) >= 3


VALIDATION_CORRUPTION_SEED = 2424


@pytest.mark.parametrize("name", ["t3", "m128", "n7", "t3-conjugate"])
def test_stacked_validation_matches_pair_by_pair(name):
    """Seeded corruptions of a valid representation, one entry changed or
    two matrices swapped: the stacked check raises exactly when the
    pair-by-pair check does, with the same text, so it names the same
    pair."""
    rho = GOLDEN_REPRESENTATIONS[name]
    m = rho.monoid
    rng = random.Random(VALIDATION_CORRUPTION_SEED)
    assert rho.validate() is rho and validate_pair_by_pair(rho) is rho
    rejected = 0
    for trial in range(40):
        mats = [[list(row) for row in mat.rows] for mat in rho.matrices]
        if trial % 2:
            x, y = rng.sample(range(m.size), 2)
            mats[x], mats[y] = mats[y], mats[x]
        else:
            x = rng.randrange(m.size)
            i, j = rng.randrange(rho.dim), rng.randrange(rho.dim)
            mats[x][i][j] += rng.choice([-1, 1, 2, Fraction(1, 3)])
        bad = Representation(m, mats, check=False)
        expected = _outcome(validate_pair_by_pair, bad)
        assert _outcome(Representation.validate, bad) == expected
        rejected += isinstance(expected, str)
    assert rejected >= 20


def test_morphism_corruptions_match_oracle():
    rng = random.Random(VALIDATOR_SEED + 3)
    rejected = 0
    for m in ALL_MONOIDS.values():
        if m.size > 30:
            continue
        for _ in range(4):
            mapping = list(range(m.size))
            mapping[rng.randrange(m.size)] = rng.randrange(m.size)
            valid = (mapping[m.identity] == m.identity and all(
                mapping[m.table[a][b]] == m.table[mapping[a]][mapping[b]]
                for a in range(m.size) for b in range(m.size)))
            try:
                MonoidMorphism(m, m, mapping)
            except ValueError as e:
                assert not valid, e
                rejected += 1
                found = re.search(r"pair \((\d+), (\d+)\)", str(e))
                if found:
                    a, g = map(int, found.groups())
                    assert mapping[m.table[a][g]] != m.table[mapping[a]][mapping[g]]
            else:
                assert valid
    assert rejected > 20


# --- the radical from Green's relations, against the trace form ------------------

def _signed_matrices(rng):
    """Seeded monoids of 2x2 and 3x3 matrices with entries 0 and +-1."""
    out = {}
    while len(out) < 4:
        dim = rng.randint(2, 3)
        gens = [[[rng.choice((-1, 0, 0, 1)) for _ in range(dim)] for _ in range(dim)]
                for _ in range(rng.randint(1, 2))]
        try:
            m = from_matrices(gens, cap=60)
        except ValueError:  # infinite or too large a closure: draw again
            continue
        if m.size >= 3:
            out[f"signed-matrices-{len(out)}"] = m
    return out


GREEN_MONOIDS = {**RADICAL_MONOIDS, **ALL_MONOIDS,
                 **_signed_matrices(random.Random(VALIDATOR_SEED + 4)),
                 **{f"nt-{t}": nt_monoid(t) for t in range(2, 41)}}


@pytest.mark.parametrize("name", sorted(GREEN_MONOIDS))
def test_radical_against_gram_oracle(name):
    """The radical from Green's relations is the kernel of the trace
    form's Gram matrix G: the same space, canonical RREF basis and ``dim``.
    Its rows are the distinct 0/1 rows x -> [r*x*l = e] that enlarged its
    echelon, and all those rows together span rowspace(G), as the theorem
    states."""
    m = GREEN_MONOIDS[name]
    rad, oracle = radical_basis(m), gram_radical(m)
    assert same_space(rad, oracle)
    assert rad.dim == oracle.dim and rad.basis == oracle.basis
    green = green_rows(m.table)
    assert set(rad.rows) <= set(green) and len(set(rad.rows)) == len(rad.rows)
    assert Echelon(m.size, green).rows == Echelon(m.size, gram_matrix(m.table)).rows


@pytest.mark.parametrize("name", ["t4", "m610"])
def test_large_radical_against_gram_oracle(name):
    """On T_4 and the 610-element submonoid of T_5, every row of G lies in
    the span of the Green rows, and G has at least their rank, for it has
    that rank modulo a prime: the two row spaces, hence the two radicals
    and their canonical RREFs, are equal."""
    m = T4 if name == "t4" else from_transformations(5, [(2, 3, 4, 5, 1), (1, 1, 3, 4, 5)])
    rad = radical_basis(m, force=True)
    gram = gram_matrix(m.table)
    assert all(map(rad._echelon.contains, gram))
    assert len(echelon_mod_p(gram, m.size)[0]) == m.size - rad.dim == len(rad.rows)
    assert rad.dim == {"t4": 97, "m610": 161}[name]


J_MONOIDS = {**GREEN_MONOIDS, "one-generator": from_transformations(4, [(2, 3, 4, 4)])}


@pytest.mark.parametrize("name", sorted(J_MONOIDS))
def test_j_classes_against_ideals(name):
    """``j_classes`` lists each J-class that holds an idempotent once, by
    its least idempotent e, in the order of e, with the R- and L-class of
    e: the classes of the ideals xM, Mx and MxM formed product by
    product."""
    m = J_MONOIDS[name]
    r_class, l_class, j_class = green_classes(m.table)
    firsts = sorted({min(e for e in idempotents(m) if e in j_class[f])
                     for f in idempotents(m)})
    assert j_classes(m) == [(e, tuple(sorted(r_class[e])), tuple(sorted(l_class[e])))
                            for e in firsts]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_j_classes_of_full_transformation_monoids_in_closed_form(n):
    """In T_n, where f*g is "g then f", f R g when im f = im g and f L g
    when ker f = ker g, and the J-classes are the ranks, each regular:
    ``j_classes`` checked against these, read from the maps alone.  T_4
    is too large for the ideal oracle above."""
    m = from_transformations(n, all_selfmaps(n))
    maps = m.transformations
    image = [frozenset(f) for f in maps]
    kernel = [tuple(map(f.index, f)) for f in maps]  # i -> the least j with f(j) = f(i)
    firsts = {}
    for x, f in enumerate(maps):
        if all(f[y] == y for y in f):  # idempotent: f fixes its image
            firsts.setdefault(len(image[x]), x)
    assert sorted(firsts) == list(range(1, n + 1))
    assert j_classes(m) == [
        (e, tuple(x for x in range(m.size) if image[x] == image[e]),
         tuple(x for x in range(m.size) if kernel[x] == kernel[e]))
        for e in sorted(firsts.values())]


def _loop_steps(rho, kmax, monkeypatch):
    """Steps 1..kmax of the tensor chain's general loop, which every
    representation other than a transformation one takes."""
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_point_values", lambda rho: None)
        return list(islice(tensor_annihilator_chain(rho), kmax))


FIBRE_INPUTS = {
    **{f"{name}-{kind}": (m, kind) for name, m in {
        **{k: rho.monoid for k, rho in CORPUS.items() if k.startswith("transformations-")},
        "t3": GOLDEN_REPRESENTATIONS["t3"].monoid,
        "m128": GOLDEN_REPRESENTATIONS["m128"].monoid}.items()
       for kind in ("natural", "regular")},
    # T_4's regular representation is left out: the loop takes 13 s on it
    "t4-natural": (T4, "natural"),
}


@pytest.mark.parametrize("name", sorted(FIBRE_INPUTS))
def test_fibre_rows_match_the_loop(name, monkeypatch):
    """A transformation representation, natural or regular, takes the
    fibre rows, and each of its steps up to Ann = 0 has the dimension and
    canonical RREF of the general loop's step."""
    m, kind = FIBRE_INPUTS[name]
    rho = (natural_representation if kind == "natural" else regular_representation)(m)
    assert _point_values(rho) is not None
    kmax = rho.dim + 1
    fibres = list(islice(tensor_annihilator_chain(rho), kmax))
    loop = _loop_steps(rho, kmax, monkeypatch)
    assert [(k, ann.dim) for k, ann in fibres] == [(k, ann.dim) for k, ann in loop]
    assert all(same_space(a, b) for (_, a), (_, b) in zip(fibres, loop))
    assert fibres[-1][1].dim == 0


def test_representations_with_a_zero_or_fractional_column_take_the_loop():
    """N_t's representation holds the zero matrix, a rational conjugate
    and a 0/1 matrix monoid's need not be 0/1 with one 1 per column:
    those take the general loop, and a zero-dimensional one too."""
    for t in (2, 7, 40):
        assert _point_values(nt_paper_representation(t)) is None
    for name, rho in CORPUS.items():
        if name.startswith(("conjugate-", "nt-")):
            assert _point_values(rho) is None
    zero_dim = Representation(Monoid([[0]], 0), [Matrix([], 0)])
    assert _point_values(zero_dim) is None
    assert _point_values(natural_representation(from_transformations(1, [(1,)]))) == [(0,)]
