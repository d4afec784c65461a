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
original's.  The radical, kept as its own rows of the Gram matrix G, must
be the kernel of G's full echelon, and ``<=``, ``subspace_leq`` and
``contains`` on those rows must agree with the trace-form definition and
plain Gauss-Jordan kernels at every tensor and symmetric chain step.
On the corpus, N_t, T_3 and the 128-element submonoid of T_4 the radical
certified modulo a prime must equal the plain Gauss-Jordan kernel of G,
and with a prime that divides a minor of G it must fall back to the
exact echelon and give the same subspace.  The tensor chain, which
inserts each distinct product once per step, must store the same
echelon rows at every step, from power 0 and from power 1, as the loop
that inserted every product, kept in ``tests/oracles.py``.  The steps a
read from power 0 derives from the one tensor walk, from power 1, must
be the chain's from power 0, with the same verdict and witness, on those
inputs, the sign representation of C_2 and an N_3 representation with
two elements acting as 0.  The symmetric chain must insert no
coefficient row twice, not even one that recurs at a later degree, and
keep every degree's dimension.

A third, seeded corpus of random square matrices whose entries mix ints,
non-integral ``Fraction``s, "p/q" strings and integers in ``Fraction``
or string form checks ``Matrix`` products, sums, traces, ``apply`` and
transposes against plain ``Fraction`` lists, inverses against the plain
Gauss-Jordan form of [A | I] (with singular draws added), Berkowitz's
characteristic polynomial against Faddeev-LeVerrier's, and that every
result holds
canonical entries (an int exactly where the value is an integer).  The
same corpus, every element matrix of the first and seeded integer and
rational value multisets check the polynomial side: ``charpoly`` against
Faddeev-LeVerrier and Laplace expansion, ``complete_homogeneous_sequence``
against term enumeration, the ``charpoly_from_power_traces`` round trip
and ``element_series`` against ``sym_power_characters``, each value
canonical, an int for every element of a finite monoid, and no
``Fraction`` formed on integral input.  ``sym_power_characters``, which
reads the power traces at the element powers, must equal Newton's
identities on the traces of the matrix powers.

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
the one the old triple-by-triple scan of Light's test reported.
Closures, which form only the products with a generator, must give the
same elements, order, table and cap error as the all-pairs closure kept
in ``tests/oracles.py``, on seeded transformations of degree 1-5 (with
repeated generators and the identity among them), T_4, a 610-element
submonoid of T_5 and matrix closures.  Seeded corruptions of T_3,
the 128-element monoid, N_7 and a rational conjugate, one entry changed
or two matrices swapped, must give the stacked validation the same
error text as the pair-by-pair check kept there.
"""

import random
import re
import weakref
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from monoidrep import algebra, linalg
from monoidrep.algebra import (
    _certified_radical,
    _lift,
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
    _echelon_mod_p,
    charpoly,
    charpoly_from_power_traces,
    complete_homogeneous_from_power_sums,
    complete_homogeneous_sequence,
    power_traces,
)
from monoidrep.molien import element_series
from monoidrep.monoids import (
    Monoid,
    _closure,
    _compose,
    _generating_set,
    from_cayley_table,
    from_matrices,
    from_transformations,
    nt_monoid,
)
from monoidrep.representations import (
    Representation,
    build_representation,
    character,
    direct_sum,
    distinct_charpolys,
    matrix_representation,
    natural_representation,
    nt_paper_representation,
    sym_power,
    sym_power_characters,
    tensor_power,
)

from oracles import (
    DenseEchelon,
    MonoidMorphism,
    charpoly_faddeev,
    charpoly_laplace,
    closure_all_pairs,
    first_associativity_failure,
    gauss_nullity,
    gauss_rank,
    generated,
    h_complete_brute,
    in_radical,
    is_associative,
    is_homomorphism,
    mat_add,
    mat_vec,
    matmul,
    null_space,
    poly_mul,
    power_sums,
    rref,
    span_subspace,
    sym_power_direct,
    tensor_chain_steps,
    trace,
    transpose,
    validate_pair_by_pair,
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
            return gens, matrix_representation(m)


def _conjugate(rng, rho):
    """P rho(x) P^-1 for a random invertible rational P with a non-integer
    result: the same module, so the same annihilator, with denominators."""
    n = rho.dim
    while True:
        p = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)])
        try:
            p_inv = p.inverse()
        except ValueError:  # singular: draw again
            continue
        mats = [p * mat * p_inv for mat in rho.matrices]
        if any(x.denominator > 1 for mat in mats for row in mat for x in row):
            return build_representation(rho.monoid, mats)


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

# chain name -> (chain, the explicit power of each degree, first degree)
CHAINS = {
    "tensor": (tensor_annihilator_chain, tensor_power, 0),
    "positive": (lambda rho: tensor_annihilator_chain(rho, first=1), tensor_power, 1),
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


def _gram(m):
    return [tuple(sum(1 for j in range(m.size) if m.table[m.table[x][y]][j] == j)
                  for y in range(m.size)) for x in range(m.size)]


def _exact_radical(gram):
    """The kernel of G's full exact echelon."""
    full = Echelon(len(gram))
    for row in gram:
        full.insert(row)
    return algebra._kernel(full)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_subspace_form_against_oracles(name):
    """The radical keeps its own rows of G yet is the same subspace as the
    kernel of G's full echelon; at every tensor and symmetric chain step
    ``<=``, ``subspace_leq`` and ``contains`` on those rows agree with the
    trace-form definition and with plain Gauss-Jordan kernels."""
    rho = CORPUS[name]
    m = rho.monoid
    gram = _gram(m)
    rad = radical_basis(m)
    kernel = _exact_radical(gram)
    assert rad == kernel and hash(rad) == hash(kernel)
    assert rad.dim == kernel.dim == gauss_nullity(gram, m.size)
    assert rad.basis == kernel.basis == tuple(null_space(gram, m.size))
    assert set(rad.rows) <= set(gram)
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
        assert span == again and hash(span) == hash(again)
        assert span.dim == again.dim == gauss_rank(vectors)
        assert span.basis == again.basis == tuple(rref(vectors, n))
        assert all(type(x) is int for row in span.rows for x in row)


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
# the golden representations, rational conjugates included
GOLDEN_REPRESENTATIONS = {
    name: load_representation(str(GOLDEN_INPUTS / rep), load_monoid(str(GOLDEN_INPUTS / mon)))
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
    """Inserting each distinct nonzero product once per step leaves every
    step's dimension and stored echelon rows as inserting every product."""
    rho = CHAIN_INPUTS[name]
    kmax = min(rho.monoid.size - 1, 8)
    steps = islice(tensor_annihilator_chain(rho, first), kmax + 1 - first)
    oracle = tensor_chain_steps(rho, kmax, first=first)
    assert [(k, ann.dim, ann._echelon.int_rows) for k, ann in steps] == list(oracle)


# the sign representation of C_2: from power 0, Ann = 0 at step 1, while
# from power 1 it is 0 only at step 2
SIGN_C2 = Representation(from_cayley_table(0, [[0, 1], [1, 0]]),
                         [Matrix([[1]]), Matrix([[-1]])])


# N_3 with two elements acting as 0, so the tensor walk's floor is 2: not
# faithful, and from power 0 its steps have dims [3, 1]
N3_FLOOR_2 = Representation(nt_monoid(3), [Matrix.zero(2, 2), Matrix.identity(2),
                                           Matrix.zero(2, 2), Matrix([[0, 3], [0, 0]])])
EXTRA_CHAIN_INPUTS = {"sign-c2": SIGN_C2, "n3-floor-2": N3_FLOOR_2}


@pytest.mark.parametrize("name", sorted(CHAIN_INPUTS) + sorted(EXTRA_CHAIN_INPUTS))
def test_power_zero_steps_derived_from_the_power_one_walk(name, monkeypatch):
    """The walk's steps from power 0, each a step from power 1 with the
    constants added, are the public chain's from power 0: the same
    subspace and dimension, and the same containment verdict and witness
    against the radical, at every step up to min(|M| - 1, 8)."""
    monkeypatch.setattr(algebra, "_WALKS", weakref.WeakKeyDictionary())
    rho = {**CHAIN_INPUTS, **EXTRA_CHAIN_INPUTS}[name]
    rad = radical_basis(rho.monoid)
    kmax = min(rho.monoid.size - 1, 8)
    floor = sum(not any(map(any, m.rows)) for m in rho.matrices)
    for k, ann in islice(tensor_annihilator_chain(rho), kmax + 1):
        steps = algebra._steps(rho, "tensor", 0, k)
        step = steps[-1]
        # cut only at Ann = 0, or where the walk from power 1 is at its floor
        assert len(steps) == k + 1 or step.dim in (0, floor - 1)
        assert step == ann and step.dim == ann.dim
        assert subspace_leq(step, rad) == subspace_leq(ann, rad)


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


# --- the certified modular radical ---------------------------------------------

RADICAL_MONOIDS = {
    **{name: rho.monoid for name, rho in CORPUS.items() if not name.startswith("conjugate-")},
    **{f"nt-{t}": nt_monoid(t) for t in (2, 7, 20)},
    "t3": GOLDEN_REPRESENTATIONS["t3"].monoid,
    "m128": GOLDEN_REPRESENTATIONS["m128"].monoid,
}


@pytest.mark.parametrize("name", sorted(RADICAL_MONOIDS))
def test_certified_radical_against_null_space(name):
    """The radical certified mod p is the plain Gauss-Jordan kernel of G
    in ``==``, ``hash``, ``dim`` and ``basis``, read through rows of G."""
    m = RADICAL_MONOIDS[name]
    gram = _gram(m)
    rad = radical_basis(m)
    assert rad._kernel is not None  # the certificate held; no fallback
    expected = null_space(gram, m.size)
    oracle = span_subspace(m.size, expected)
    assert rad == oracle and hash(rad) == hash(oracle)
    assert rad.dim == oracle.dim == len(expected)
    assert rad.basis == tuple(expected)
    assert set(rad.rows) <= set(gram)


# small primes dividing a minor of G, so the rank drops mod p
UNLUCKY = {"t3": 3, "m128": 3, "nt-7": 7}


@pytest.mark.parametrize("name", sorted(UNLUCKY))
def test_unlucky_prime_falls_back_to_exact_radical(name, monkeypatch):
    m, p = RADICAL_MONOIDS[name], UNLUCKY[name]
    gram = _gram(m)
    exact = _exact_radical(gram)
    assert len(_echelon_mod_p(gram, m.size, p)[0]) < m.size - exact.dim
    monkeypatch.setattr(algebra, "_PRIME", p)
    rad = radical_basis(m)
    assert rad._kernel is None  # fell back to the exact echelon
    assert rad == exact and hash(rad) == hash(exact)
    assert rad.dim == exact.dim and rad.basis == exact.basis
    assert set(rad.rows) <= set(gram)


def test_certificate_refuses_a_wrong_kernel(monkeypatch):
    """A hand-built G whose rank drops mod p, and one whose kernel entry
    is too large to reconstruct from its residue, both fail the check."""
    assert _certified_radical([(1, 2), (3, 4)], 2).dim == 0
    assert _certified_radical([(1, 100003), (2, 200006)], 2) is None
    monkeypatch.setattr(algebra, "_PRIME", 2)
    assert _certified_radical([(1, 2), (3, 4)], 2) is None


def test_lift_reconstructs_small_fractions():
    """Residues of -1, 2 and 1/2 lift to (-2, 4, 1), the same line over Q;
    a residue with no fraction of numerator and denominator up to
    sqrt(p/2) lifts to nothing."""
    p = algebra._PRIME
    assert _lift([p - 1, 2, (p + 1) // 2, 0], p) == [-2, 4, 1, 0]
    assert _lift([pow(7919, -1, p) * 7907 % p], p) is None


def test_certified_radical_forms_no_exact_echelon(monkeypatch):
    inserted = []
    insert = Echelon.insert

    def recording_insert(ech, vec):
        inserted.append(vec)
        return insert(ech, vec)

    monkeypatch.setattr(Echelon, "insert", recording_insert)
    rad = radical_basis(RADICAL_MONOIDS["m128"])
    assert rad._kernel is not None and rad.dim == 37
    assert not inserted


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
            assert k == k_orig and ann == ann_orig and ann.dim == ann_orig.dim
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
    rng = random.Random(MATRIX_SEED + 1)
    by_size = {}
    for rows, a in MATRICES:
        by_size.setdefault(a.nrows, []).append((rows, a))
    for n, group in by_size.items():
        for rows, a in group:
            assert _is_canonical(a)
            assert _as_lists(a) == [[Fraction(x) for x in row] for row in rows]
            assert a.transpose() == Matrix(transpose(rows, n), ncols=n)
            assert _is_canonical(a.transpose())
            assert a.trace() == trace(rows)
            v = [_random_entry(rng, integral=False) for _ in range(n)]
            assert list(a.apply([Fraction(x) for x in v])) == mat_vec(rows, v)
            c = _random_entry(rng, integral=False)
            scaled = a.scale(c)
            assert _is_canonical(scaled)
            assert _as_lists(scaled) == [[Fraction(c) * Fraction(x) for x in row]
                                         for row in rows]
            for other_rows, b in group:
                for result, expected in ((a * b, matmul(rows, other_rows, n)),
                                         (a + b, mat_add(rows, other_rows))):
                    assert _is_canonical(result)
                    assert _as_lists(result) == expected
                    assert result.nrows == result.ncols == n


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
                a.inverse()
            continue
        aug = [[Fraction(x) for x in row] + [int(i == j) for j in range(n)]
               for i, row in enumerate(rows)]
        inv = a.inverse()
        assert _is_canonical(inv) and inv.nrows == inv.ncols == n
        assert _as_lists(inv) == [list(row[n:]) for row in rref(aug, 2 * n)]
        assert a * inv == inv * a == Matrix.identity(n)
    assert counts[True] >= 30 and counts[False] >= 30
    for a in (Matrix([[1, 2]]), Matrix([], ncols=3), Matrix([["1/2"], [3]])):
        with pytest.raises(ValueError, match="^only square matrices can be inverted$"):
            a.inverse()


def test_berkowitz_matches_faddeev_leverrier():
    for rows, a in MATRICES:
        p = charpoly(a)
        assert p == Polynomial(charpoly_faddeev(rows))
        assert p.degree == a.nrows and p[a.nrows] == 1
        if all(type(x) is int for row in a for x in row):
            assert all(c.denominator == 1 for c in p.coeffs)


def test_matrix_equality_and_hash_across_forms():
    assert Matrix([[2]]) == Matrix([["4/2"]]) == Matrix([[Fraction(4, 2)]])
    assert hash(Matrix([[2]])) == hash(Matrix([["4/2"]]))
    assert type(Matrix([[Fraction(4, 2)]])[0][0]) is int
    # a product of non-integral matrices with an integral result
    half = Matrix([["1/2", 0], [0, "3/2"]])
    double = Matrix([[4, 0], [0, "2/3"]])
    assert half * double == Matrix([[2, 0], [0, 1]])
    assert hash(half * double) == hash(Matrix.identity(2) + Matrix([[1, 0], [0, 0]]))
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


def test_charpoly_against_oracles_in_canonical_form():
    """Berkowitz against Faddeev-LeVerrier and Laplace expansion, on random
    integral and rational matrices and on every element matrix of the
    corpus.  Coefficients are canonical, and ints for an element of a
    finite monoid even when its matrix is rational."""
    cases = [(a, False) for _, a in MATRICES]
    cases += [(mat, True) for _, mat in _element_matrices()]
    rational = 0
    for a, in_monoid in cases:
        rows = _as_lists(a)
        p = charpoly(a)
        assert p == Polynomial(charpoly_faddeev(rows)) == Polynomial(charpoly_laplace(rows))
        assert _canonical_values(p.coeffs)
        assert _canonical_values([p[i] for i in range(-1, p.degree + 2)])
        if in_monoid:
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
            assert complete_homogeneous_from_power_sums(sums, d) == h[d]
    assert fallback >= 10


def test_charpoly_from_power_traces_round_trip():
    """Power traces to elementary symmetric functions and back: equal to
    Berkowitz on every matrix, and to prod (t - v) on every value
    multiset, in canonical form."""
    for a in [a for _, a in MATRICES] + [mat for _, mat in _element_matrices()]:
        n = a.nrows
        q = charpoly_from_power_traces(power_traces(a, n) if n else (), n)
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
    return from_cayley_table(perm[m.identity], table)


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
        seeded[f"matrices-{i}"] = (m, [m.matrix_elements.index(Matrix(g)) for g in gens])
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


def test_table_corruptions_match_oracle():
    rng = random.Random(VALIDATOR_SEED + 1)
    tables = [m for m in ALL_MONOIDS.values() if 2 <= m.size <= 16]
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
                build_representation(m, mats)
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
