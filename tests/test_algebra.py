import gc
import random
import sys
import threading
import time
import weakref
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from monoidrep import algebra
from monoidrep.algebra import (
    all_simples_appear,
    annihilator_basis,
    minimal_covering_power,
    minimal_faithful_power,
    radical_basis,
    subspace_leq,
    symmetric_annihilator_chain,
    tensor_annihilator_chain,
    verify_positive_power_refinement,
    verify_steinberg_bound,
    verify_symmetric_theorem,
    verify_tensor_theorem,
)
from monoidrep.fileio import load_monoid, load_representation
from monoidrep.linalg import Matrix
from monoidrep.monoids import (
    Monoid,
    from_transformations,
    idempotents,
    nt_monoid,
)
from monoidrep.representations import (
    Representation,
    direct_sum,
    distinct_character_values,
    nt_paper_representation,
    sym_power,
    sym_power_dim,
    tensor_power,
)

from oracles import (
    convolve,
    left_regular_matrix,
    regular_representation,
    same_space,
    span_subspace,
    sym_power_direct,
    weighted_sum,
)

F = Fraction


def unit_vector(n, i, value=1):
    v = [F(0)] * n
    v[i] = F(value)
    return tuple(v)


# --- left regular matrices ---------------------------------------------------

def regular(m, coeffs):
    return Matrix(left_regular_matrix(m.table, coeffs))


def test_left_regular_identity_vector():
    m = nt_monoid(3)
    assert regular(m, unit_vector(4, 1)) == Matrix.identity(4)


def test_left_regular_n3_element_two():
    m = nt_monoid(3)
    lm = regular(m, unit_vector(4, 2))
    # basis 1 goes to basis 2, everything else collapses onto the zero element
    expected = Matrix([[1, 0, 1, 1], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert lm == expected


def test_left_regular_is_linear():
    m = nt_monoid(3)
    rng = random.Random(3)
    for _ in range(5):
        a = tuple(F(rng.randint(-3, 3)) for _ in range(4))
        b = tuple(F(rng.randint(-3, 3)) for _ in range(4))
        lab = regular(m, tuple(x + y for x, y in zip(a, b)))
        assert lab == Matrix(weighted_sum([regular(m, a), regular(m, b)], (1, 1)))


def test_left_regular_multiplicative():
    m = from_transformations(2, [(2, 1), (1, 1)])
    rng = random.Random(4)
    for _ in range(5):
        a = tuple(F(rng.randint(-2, 2)) for _ in range(4))
        b = tuple(F(rng.randint(-2, 2)) for _ in range(4))
        assert regular(m, convolve(m.table, a, b)) == regular(m, a) * regular(m, b)


# --- radical -------------------------------------------------------------------

def test_radical_of_group_algebra_is_zero():
    s2 = from_transformations(2, [(2, 1)])
    assert radical_basis(s2).dim == 0
    s3 = from_transformations(3, [(2, 3, 1), (2, 1, 3)])
    assert radical_basis(s3).dim == 0


def test_radical_of_nt():
    for t in range(2, 9):
        rad = radical_basis(nt_monoid(t))
        assert rad.dim == t - 1
        for v in rad.basis:
            assert v[1] == 0          # no identity component
            assert sum(v) == 0


def test_radical_of_t2_spanned_by_constant_difference():
    t2 = from_transformations(2, [(2, 1), (1, 1)])
    rad = radical_basis(t2)
    span = span_subspace(4, [(0, 0, 1, -1)])
    assert rad.dim == 1 and same_space(rad, span)


def test_radical_vectors_are_nilpotent(corpus):
    # oracle: repeated convolution against the raw Cayley table dies out
    for rho in corpus.values():
        m = rho.monoid
        rad = radical_basis(m)
        for v in rad.basis:
            power = tuple(v)
            for _ in range(m.size):
                power = tuple(convolve(m.table, power, v))
            assert not any(power)


def test_radical_is_two_sided_ideal(corpus):
    for rho in corpus.values():
        m = rho.monoid
        rad = radical_basis(m)
        for v in rad.basis:
            for x in range(m.size):
                ex = unit_vector(m.size, x)
                assert rad.contains(convolve(m.table, ex, v))
                assert rad.contains(convolve(m.table, v, ex))


def test_radical_is_nilpotent_as_ideal(corpus):
    # the chain Rad >= Rad^2 >= ... hits zero within |M| steps
    for rho in corpus.values():
        m = rho.monoid
        rad = radical_basis(m)
        current = rad
        for _ in range(m.size):
            if current.dim == 0:
                break
            products = [convolve(m.table, a, b)
                        for a in current.basis for b in rad.basis]
            current = span_subspace(m.size, products)
        assert current.dim == 0


def test_radical_size_guard(monkeypatch):
    import monoidrep.algebra as algebra_module
    monkeypatch.setattr(algebra_module, "SIZE_GUARD", 5)
    m = nt_monoid(6)
    with pytest.raises(ValueError, match="force"):
        radical_basis(m)
    assert radical_basis(m, force=True).dim == 5


# --- annihilators -----------------------------------------------------------------

def test_annihilator_of_regular_representation_is_zero(corpus):
    for rho in corpus.values():
        reg = regular_representation(rho.monoid)
        assert annihilator_basis(reg).dim == 0


def test_annihilator_n3_low_powers():
    rho = nt_paper_representation(3)
    w = direct_sum([tensor_power(rho, 0), rho])
    ann = annihilator_basis(w)
    expected = span_subspace(4, [(F(1, 2), F(0), F(-3, 2), F(1))])
    assert ann.dim == 1 and same_space(ann, expected)


def test_annihilator_n9_has_dimension_seven():
    rho = nt_paper_representation(9)
    w = direct_sum([tensor_power(rho, 0), rho])
    # 3-dimensional module over a 10-element monoid: 9 < 10 forces a kernel
    assert annihilator_basis(w).dim == 7


def test_annihilator_of_direct_sum_is_intersection(t2_natural, corpus):
    # Ann(W + W') lies in both annihilators and its dimension matches
    # dim A + dim B - dim(A + B), so it is exactly the intersection
    pairs = [
        (tensor_power(t2_natural, 0), tensor_power(t2_natural, 1)),
        (tensor_power(t2_natural, 1), tensor_power(t2_natural, 2)),
        (tensor_power(corpus["n5_paper"], 0), corpus["n5_paper"]),
        (corpus["n5_paper"], sym_power(corpus["n5_paper"], 2)),
    ]
    for a, b in pairs:
        ann_a, ann_b = annihilator_basis(a), annihilator_basis(b)
        ann_ab = annihilator_basis(direct_sum([a, b]))
        assert subspace_leq(ann_ab, ann_a) == (True, None)
        assert subspace_leq(ann_ab, ann_b) == (True, None)
        joined = span_subspace(ann_a.ambient, ann_a.basis + ann_b.basis)
        assert ann_ab.dim == ann_a.dim + ann_b.dim - joined.dim


def test_annihilator_is_two_sided_ideal(corpus):
    for name in ("t2_natural", "n3_paper", "n5_paper", "s3_natural"):
        rho = corpus[name]
        m = rho.monoid
        ann = annihilator_basis(rho)
        for v in ann.basis:
            for x in range(m.size):
                ex = unit_vector(m.size, x)
                assert ann.contains(convolve(m.table, ex, v))
                assert ann.contains(convolve(m.table, v, ex))


# --- subspaces ------------------------------------------------------------------------

def test_subspace_self_and_zero_containment():
    s = span_subspace(3, [(1, 0, 1), (0, 1, 0)])
    assert subspace_leq(s, s) == (True, None)
    assert subspace_leq(span_subspace(3, ()), s) == (True, None)
    big = span_subspace(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert subspace_leq(s, big) == (True, None)
    ok, witness = subspace_leq(big, s)
    assert not ok and witness is not None and not s.contains(witness)


def test_subspace_canonical_equality():
    a = span_subspace(3, [(1, 1, 0), (0, 1, 1)])
    b = span_subspace(3, [(1, 0, -1), (2, 2, 0)])
    assert same_space(a, b) and a.basis == b.basis
    # two distinct planes of Q^3, a line inside one, and planes of
    # different ambient spaces
    xy = span_subspace(3, [(1, 0, 0), (0, 1, 0)])
    xz = span_subspace(3, [(1, 0, 0), (0, 0, 1)])
    x = span_subspace(3, [(1, 0, 0)])
    assert xy.dim == xz.dim == 2
    assert not same_space(xy, xz) and not same_space(xz, xy)
    assert not same_space(x, xy) and not same_space(xy, x)
    assert not same_space(xy, span_subspace(2, [(1, 0), (0, 1)]))


def test_subspace_dimension_mismatch():
    with pytest.raises(ValueError):
        subspace_leq(span_subspace(2, ()), span_subspace(3, ()))


def test_subspace_contains_rejects_wrong_length():
    s = span_subspace(3, [(1, 0, 0)])
    assert s.contains((2, 0, 0))
    with pytest.raises(ValueError, match="length"):
        s.contains((1, 0, 0, 5))
    with pytest.raises(ValueError, match="length"):
        s.contains((1, 0))


def test_n5_annihilator_inside_radical():
    rho = nt_paper_representation(5)
    w = direct_sum([tensor_power(rho, 0), rho])
    ann = annihilator_basis(w)
    rad = radical_basis(rho.monoid)
    assert (ann.dim, rad.dim) == (3, 4)
    assert subspace_leq(ann, rad) == (True, None)


# --- the coverage criterion ---------------------------------------------------------------

def test_all_simples_appear_for_regular(corpus):
    for rho in corpus.values():
        reg = regular_representation(rho.monoid)
        assert all_simples_appear(reg) == (True, None)


def test_all_simples_appear_n5_low_powers():
    rho = nt_paper_representation(5)
    w = direct_sum([tensor_power(rho, 0), rho])
    assert all_simples_appear(w) == (True, None)


def test_positive_powers_miss_the_trivial_module():
    rho = nt_paper_representation(5)
    ok, witness = all_simples_appear(rho)
    assert not ok
    n = rho.monoid.size
    # the witness annihilates the module ...
    assert Matrix(weighted_sum(rho.matrices, witness)) == Matrix.zero(rho.dim, rho.dim)
    # ... but is not in the radical, and touches an idempotent
    assert not radical_basis(rho.monoid).contains(witness)
    assert any(witness[e] for e in idempotents(rho.monoid))


# --- theorem verifiers ----------------------------------------------------------------------

def test_tensor_theorem_nt_family():
    for t in range(2, 13):
        rep = verify_tensor_theorem(nt_paper_representation(t))
        assert rep.holds and rep.r == 2
        assert rep.powers_used == (0, 1)
        assert (rep.dim_rad, rep.dim_ann) == (t - 1, t - 2)


def test_tensor_theorem_t2(t2_natural):
    rep = verify_tensor_theorem(t2_natural)
    assert rep.holds and rep.r == 3 and rep.bound == 2
    assert sum(t2_natural.dim ** i for i in rep.powers_used) == 7


def test_tensor_theorem_t3(t3_natural):
    rep = verify_tensor_theorem(t3_natural)
    assert rep.holds and rep.r == 4
    assert sum(t3_natural.dim ** i for i in rep.powers_used) == 40


def test_tensor_theorem_rejects_unfaithful():
    rho = tensor_power(nt_paper_representation(2), 0)
    with pytest.raises(ValueError, match="not faithful"):
        verify_tensor_theorem(rho)


@pytest.mark.parametrize("verify", [verify_tensor_theorem, verify_symmetric_theorem,
                                    verify_steinberg_bound])
def test_radical_callable_read_after_the_walk(verify, monkeypatch):
    """Without a radical passed in, the radical is computed before the
    first chain step, so its size guard refuses before any chain step;
    a radical passed in gives the report the computed one gives.  The
    name is from when the radical could also be a callable, read after
    the walk."""
    events = []
    steps, radical = algebra._steps, algebra.radical_basis

    def recording_steps(*args):
        events.append("walk")
        return steps(*args)

    def recording_radical(*args, **kwargs):
        events.append("radical")
        return radical(*args, **kwargs)

    monkeypatch.setattr(algebra, "_steps", recording_steps)
    monkeypatch.setattr(algebra, "radical_basis", recording_radical)
    expected = verify(nt_paper_representation(6))
    assert events == ["radical", "walk"]
    events.clear()
    rho = nt_paper_representation(6)
    assert verify(rho, radical=radical(rho.monoid)) == expected
    assert events == ["walk"]
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    events.clear()
    with pytest.raises(ValueError, match="force"):
        verify(nt_paper_representation(6))
    assert events == ["radical"]


def test_symmetric_degree_refused_before_it_is_built(monkeypatch):
    """Degree d of N_7's symmetric chain has predicted size 8 * (d+1)^2.
    With the budget SIZE_GUARD ** 3 = 125 between degree 2 (72) and the
    bound, degree 3 (128), the walk refuses degree 3 without building it;
    the radical is passed in, so its own guard does not fire."""
    rho = nt_paper_representation(7)
    radical = radical_basis(rho.monoid)
    built = []
    columns = algebra.symmetric_columns

    def recording(rho):
        for d, cols in enumerate(columns(rho)):
            built.append(d)
            yield cols

    monkeypatch.setattr(algebra, "symmetric_columns", recording)
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    with pytest.raises(ValueError, match="symmetric degree 3 refused: predicted size 128 "):
        verify_symmetric_theorem(rho, radical=radical)
    assert built == [0, 1, 2]


def test_refused_degree_refused_again(monkeypatch):
    """A refused degree drops the walk that reached it: the next read of
    the same representation is refused the same way."""
    rho = nt_paper_representation(7)
    radical = radical_basis(rho.monoid)
    monkeypatch.setattr(algebra, "SIZE_GUARD", 5)
    for _ in range(2):
        with pytest.raises(ValueError, match="symmetric degree 3 refused"):
            verify_symmetric_theorem(rho, radical=radical)
    with pytest.raises(ValueError, match="symmetric degree 3 refused"):
        minimal_faithful_power(rho, "symmetric", 5)


def test_walks_freed_with_their_representation(monkeypatch):
    """The walks hold a representation only weakly: once verified and
    scanned, it is freed by reference counting alone, walks and all."""
    monkeypatch.setattr(algebra, "_WALKS", weakref.WeakKeyDictionary())
    rho = nt_paper_representation(5)
    alive = weakref.ref(rho)
    gc.disable()
    try:
        assert verify_tensor_theorem(rho).holds and verify_symmetric_theorem(rho).holds
        assert minimal_faithful_power(rho, "tensor", 8) == 4
        assert minimal_faithful_power(rho, "symmetric", 8) == 4
        assert len(algebra._WALKS) == 1
        del rho
        assert alive() is None
        assert len(algebra._WALKS) == 0
    finally:
        gc.enable()


def test_finished_chain_is_released(monkeypatch):
    """A walk closes its chain at its first Ann = 0 step: the chain's
    suspended frame, with its rows and its echelon, is freed while the
    representation and the walk's steps live on, and a later read of the
    same walk opens no new chain."""
    monkeypatch.setattr(algebra, "_WALKS", weakref.WeakKeyDictionary())
    opened = {"tensor": [], "symmetric": []}
    for mode in opened:
        chain = getattr(algebra, f"{mode}_annihilator_chain")

        def recording(*args, _mode=mode, _chain=chain):
            gen = _chain(*args)
            opened[_mode].append(gen)
            return gen

        monkeypatch.setattr(algebra, f"{mode}_annihilator_chain", recording)
    rho = nt_paper_representation(5)
    assert minimal_faithful_power(rho, "symmetric") == 4
    assert minimal_faithful_power(rho, "tensor") == 4
    (sym,), (ten,) = opened["symmetric"], opened["tensor"]
    assert sym.gi_frame is None and ten.gi_frame is None
    assert verify_symmetric_theorem(rho).holds and verify_tensor_theorem(rho).holds
    assert minimal_faithful_power(rho, "symmetric") == 4
    assert opened == {"tensor": [ten], "symmetric": [sym]}


def test_concurrent_reads_share_one_walk(monkeypatch):
    """Threads reading one representation's chains at once, with a short
    switch interval, open each chain once and get a lone reader's answers."""
    expected = [(minimal_faithful_power(nt_paper_representation(9), mode, 12),
                 verify_steinberg_bound(nt_paper_representation(9)).minimal_k)
                for mode in ("tensor", "symmetric")]
    opened = []

    def slow(mode, chain, *args):
        opened.append(mode)
        for step in chain(*args):
            time.sleep(0.001)  # a window for another reader to step it too
            yield step

    for mode in ("tensor", "symmetric"):
        chain = getattr(algebra, f"{mode}_annihilator_chain")
        monkeypatch.setattr(algebra, f"{mode}_annihilator_chain",
                            lambda *args, _mode=mode, _chain=chain: slow(_mode, _chain, *args))
    rho = nt_paper_representation(9)
    results = {}
    start = threading.Barrier(6)

    def read(i):
        mode = ("tensor", "symmetric")[i % 2]
        start.wait(timeout=60)
        results[i] = (minimal_faithful_power(rho, mode, 12),
                      verify_steinberg_bound(rho).minimal_k)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results[i] for i in range(6)] == expected * 3
    assert sorted(opened) == ["symmetric", "tensor"]


def _recording_pulls(monkeypatch):
    """Rebind both chains to recorders; the returned list gets one
    (mode, first, k) per step pulled from any chain."""
    monkeypatch.setattr(algebra, "_WALKS", weakref.WeakKeyDictionary())
    pulls = []

    def recording(mode, first, chain):
        for k, ann in chain:
            pulls.append((mode, first, k))
            yield k, ann

    tensor, symmetric = algebra.tensor_annihilator_chain, algebra.symmetric_annihilator_chain
    monkeypatch.setattr(algebra, "tensor_annihilator_chain", lambda rho:
                        recording("tensor", 1, tensor(rho)))
    monkeypatch.setattr(algebra, "symmetric_annihilator_chain", lambda rho:
                        recording("symmetric", 0, symmetric(rho)))
    return pulls


def test_reads_pull_no_step_they_do_not_ask_for(monkeypatch):
    """A read steps a chain only as far as it asks, and not past Ann = 0;
    a repeated or shorter read pulls nothing."""
    pulls = _recording_pulls(monkeypatch)
    rho = nt_paper_representation(8)
    assert minimal_faithful_power(rho, "tensor", cap=3) is None
    assert pulls == [("tensor", 1, k) for k in range(1, 4)]
    for cap in (3, 2):
        assert minimal_faithful_power(rho, "tensor", cap=cap) is None
    assert len(pulls) == 3


def test_power_zero_read_inserts_no_constants_when_an_element_acts_as_0(monkeypatch):
    """N_12's zero acts as 0, so no power-1 span holds the constants: the
    steps a read from power 0 takes are the power-1 steps with the
    constants as one more row, reduced into no echelon."""
    monkeypatch.setattr(algebra, "_WALKS", weakref.WeakKeyDictionary())
    inserted = []
    insert = algebra.Echelon.insert

    def recording_insert(ech, vec):
        inserted.append(tuple(vec))
        return insert(ech, vec)

    monkeypatch.setattr(algebra.Echelon, "insert", recording_insert)
    rho = nt_paper_representation(12)
    assert minimal_faithful_power(rho, "tensor", 12) == 11
    assert inserted and (1,) * rho.monoid.size not in inserted


def test_t3_reads_pull_each_step_once(t3_natural, monkeypatch):
    """On natural T_3, each verifier and the annihilator pull exactly the
    steps the earlier reads have not: the tensor bound r - 1 = 3 reaches
    Ann = 0 on the one tensor walk, from power 1, so the Steinberg check,
    the positive refinement and Ann(V) pull nothing."""
    pulls = _recording_pulls(monkeypatch)
    radical = radical_basis(t3_natural.monoid)
    reads = [
        (lambda: verify_tensor_theorem(t3_natural, radical),
         [("tensor", 1, k) for k in range(1, 4)]),
        (lambda: verify_steinberg_bound(t3_natural, radical), []),
        (lambda: verify_positive_power_refinement(t3_natural, radical), []),
        (lambda: annihilator_basis(t3_natural), []),
        (lambda: verify_symmetric_theorem(t3_natural, radical),
         [("symmetric", 0, k) for k in range(5)]),
    ]
    for read, pulled in reads:
        del pulls[:]
        read()
        assert pulls == pulled


def test_annihilator_is_step_one_of_the_walk(corpus):
    """Ann(V) is the very subspace the walk of the tensor chain from
    power 1 holds at step 1, not a second computation of it."""
    for rho in corpus.values():
        (step,) = algebra._steps(rho, "tensor", 1, 1)
        assert annihilator_basis(rho) is step


def test_coverage_and_positive_refinement_share_one_walk(t2_natural, monkeypatch):
    """``all_simples_appear`` and the positive-power refinement both read
    the tensor chain from power 1, which is opened once for both."""
    monkeypatch.setattr(algebra, "_WALKS", weakref.WeakKeyDictionary())
    opened = []
    chain = algebra.tensor_annihilator_chain

    def recording_chain(rho):
        opened.append(rho)
        return chain(rho)

    monkeypatch.setattr(algebra, "tensor_annihilator_chain", recording_chain)
    radical = radical_basis(t2_natural.monoid)
    assert all_simples_appear(t2_natural, radical)[0] is False  # V alone misses one
    assert len(opened) == 1
    report = verify_positive_power_refinement(t2_natural, radical=radical)
    assert report.holds and report.minimal_k == 2
    assert len(opened) == 1


def test_symmetric_degree_budget():
    """The budget admits T_3's bound 17 and T_4's natural representation
    up to degree 7, where its chain reaches rank |M| = 256; a dim-6
    representation with s = 2 is refused at its bound 11 for any |M| > 1."""
    budget = algebra.SIZE_GUARD ** 3
    assert 27 * sym_power_dim(3, 17) ** 2 < budget
    assert 256 * sym_power_dim(4, 7) ** 2 == 3_686_400 < budget
    assert 2 * sym_power_dim(6, 11) ** 2 == 2 * 4368 ** 2 > budget


def test_symmetric_theorem_examples(t2_natural):
    rep = verify_symmetric_theorem(nt_paper_representation(4))
    assert rep.holds and rep.s == 2 and rep.bound == 3
    assert sum(d + 1 for d in rep.powers_used) == 10
    rep = verify_symmetric_theorem(t2_natural)
    assert rep.holds and rep.s == 3 and rep.bound == 5
    assert sum(d + 1 for d in rep.powers_used) == 21


def test_symmetric_theorem_trivial_monoid(corpus):
    rep = verify_symmetric_theorem(corpus["trivial"])
    assert rep.holds and rep.s == 1 and rep.powers_used == (0,)


def test_positive_refinement(t2_natural, corpus):
    rep = verify_positive_power_refinement(t2_natural)
    assert rep.holds and rep.powers_used == (1, 2, 3)
    for name in ("s2_sign", "s3_natural"):
        rep = verify_positive_power_refinement(corpus[name])
        assert rep.holds and rep.dim_ann == 0 and rep.dim_rad == 0


def test_positive_refinement_rejects_zero_element():
    with pytest.raises(ValueError, match="zero element"):
        verify_positive_power_refinement(nt_paper_representation(4))


def test_steinberg_bound_all_corpus(corpus):
    for rho in corpus.values():
        rep = verify_steinberg_bound(rho)
        assert rep.holds
        assert rep.powers_used == tuple(range(rho.monoid.size))


def test_verification_report_json_shape(t2_natural):
    d = verify_tensor_theorem(t2_natural).to_json_dict()
    assert set(d) == {"theorem", "r", "s", "dim_rad", "dim_ann", "holds",
                      "witness", "powers_used"}
    assert d["theorem"] == "tensor" and d["witness"] is None


# --- incremental chains against the explicit route --------------------------------------------

def test_tensor_chain_matches_explicit_annihilators(corpus):
    """The chain's steps from power 1, and the walk's reads from power 0,
    are the annihilators of explicit sums of Kronecker powers."""
    for name in ("t2_natural", "n3_paper", "s2_sign"):
        rho = corpus[name]
        chain = dict(islice(tensor_annihilator_chain(rho), 3))
        for k in range(4):
            powers = [tensor_power(rho, i) for i in range(k + 1)]
            assert same_space(algebra._steps(rho, "tensor", 0, k)[-1],
                              annihilator_basis(direct_sum(powers)))
            if k:
                assert same_space(chain[k], annihilator_basis(direct_sum(powers[1:])))


def test_symmetric_chain_matches_explicit_annihilators(corpus):
    for name in ("t2_natural", "n3_paper"):
        rho = corpus[name]
        chain = dict(islice(symmetric_annihilator_chain(rho), 4))
        for k in range(4):
            w = direct_sum([sym_power_direct(rho, d) for d in range(k + 1)])
            assert same_space(chain[k], annihilator_basis(w))


# --- minimal power scans -------------------------------------------------------------------------

def test_minimal_faithful_power_nt_tensor():
    for t in range(2, 9):
        rho = nt_paper_representation(t)
        assert minimal_faithful_power(rho, "tensor") == t - 1


def test_minimal_faithful_power_direct_oracle():
    # oracle: explicit kernel computation at every power level
    for t in range(2, 6):
        rho = nt_paper_representation(t)
        answer = None
        for k in range(10):
            w = direct_sum([tensor_power(rho, i) for i in range(k + 1)])
            if annihilator_basis(w).dim == 0:
                answer = k
                break
        assert minimal_faithful_power(rho, "tensor") == answer == t - 1


def test_minimal_faithful_power_regular(corpus):
    # the k = 0 module is the trivial one, so any monoid beyond the
    # trivial needs its first tensor power before the sum is faithful
    for rho in corpus.values():
        reg = regular_representation(rho.monoid)
        expected = 0 if reg.monoid.size == 1 else 1
        assert minimal_faithful_power(reg, "tensor") == expected


def test_minimal_faithful_power_symmetric_grows():
    values = [minimal_faithful_power(nt_paper_representation(t), "symmetric")
              for t in range(2, 7)]
    assert values == [1, 2, 3, 4, 5]


def test_minimal_faithful_power_respects_cap():
    rho = nt_paper_representation(8)
    assert minimal_faithful_power(rho, "tensor", cap=3) is None


def test_minimal_faithful_power_refuses_negative_cap(corpus):
    """A negative cap is refused, not answered past: the trivial monoid
    is faithful at power 0, and natural T_2 at no power below 0."""
    for name, cap in (("trivial", -5), ("t2_natural", -1)):
        with pytest.raises(ValueError, match=rf"^bad cap: {cap} \(must be nonnegative\)$"):
            minimal_faithful_power(corpus[name], "tensor", cap)


def test_minimal_covering_power_examples(t2_natural, corpus):
    assert minimal_covering_power(nt_paper_representation(5), "tensor") == 1
    assert minimal_covering_power(t2_natural, "tensor") == 2
    assert minimal_covering_power(corpus["s2_sign"], "tensor") == 1


def test_minimal_covering_power_below_bounds(corpus):
    from monoidrep.representations import distinct_charpolys
    for rho in corpus.values():
        k = minimal_covering_power(rho, "tensor")
        assert k <= len(distinct_character_values(rho)) - 1
        rep = verify_tensor_theorem(rho)
        assert rep.minimal_k == k and rep.holds == (k <= rep.bound)
        k = minimal_covering_power(rho, "symmetric")
        assert k <= rho.dim * len(distinct_charpolys(rho)) - 1
        rep = verify_symmetric_theorem(rho)
        assert rep.minimal_k == k and rep.holds == (k <= rep.bound)


def test_minimal_covering_power_cap_violation_is_loud():
    rho = nt_paper_representation(5)
    with pytest.raises(RuntimeError, match="bug"):
        # an impossible radical makes covering unreachable at the bound
        # r - 1 = 1, below the faithfulness threshold t - 1 = 4
        minimal_covering_power(rho, "tensor",
                               radical=span_subspace(rho.monoid.size, ()))


def test_minimal_covering_power_unknown_mode():
    with pytest.raises(ValueError, match="unknown power mode 'bogus'"):
        minimal_covering_power(nt_paper_representation(3), "bogus")


def test_minimal_covering_power_takes_no_cap(t2_natural):
    """The bound is the verifier's; a cap, by keyword or in the third
    place where the radical is now keyword-only, is refused."""
    for args, kwargs in ((("tensor", 1), {}), (("tensor",), {"cap": 1})):
        with pytest.raises(TypeError):
            minimal_covering_power(t2_natural, *args, **kwargs)


def test_dimension_zero_symmetric_bound_is_refused():
    """The zero-dimensional module of the trivial monoid has symmetric
    bound dim*s - 1 = -1: no degree to check, refused before any step."""
    rho = Representation(Monoid([[0]], 0), [Matrix([], ncols=0)])
    message = "symmetric bound -1 is below the first power 0"
    with pytest.raises(ValueError, match=message):
        verify_symmetric_theorem(rho)
    with pytest.raises(ValueError, match=message):
        minimal_covering_power(rho, "symmetric")
    assert minimal_covering_power(rho, "tensor") == 0
    assert verify_tensor_theorem(rho).holds


def test_dimension_zero_annihilator_is_the_whole_algebra():
    """Every matrix of the zero-dimensional module is 0, so the tensor
    walk starts at its floor: Ann(V) is all of QM, read without a step."""
    rho = Representation(Monoid([[0]], 0), [Matrix([], ncols=0)])
    assert annihilator_basis(rho).dim == 1
    assert all_simples_appear(rho) == (False, (1,))  # the identity kills it


# --- integer elimination on the hot paths ----------------------------------------

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _load(monoid_file, rep_file):
    m = load_monoid(str(GOLDEN_INPUTS / monoid_file), None)
    return load_representation(str(GOLDEN_INPUTS / rep_file), m)


# the 128-element submonoid of T_4, N_7, and a rational conjugate of T_3's
# natural representation (entries like 411/164)
HOT_PATH_INPUTS = {
    "m128": ("m128.json", "natural.json"),
    "n7": ("nt7.json", "nt-paper.json"),
    "t3-conjugate": ("t3.json", "t3-conjugate.json"),
}


def _int_constraints(sub):
    return all(type(x) is int for row in sub.rows for x in row)


@pytest.mark.parametrize("name", sorted(HOT_PATH_INPUTS))
def test_elimination_stores_only_ints(name):
    """The radical's, the annihilator's and every tensor-chain step's
    constraint rows are plain ints: no Fraction enters the elimination,
    even when the representation's matrices have denominators."""
    rho = _load(*HOT_PATH_INPUTS[name])
    n = rho.monoid.size
    rad = radical_basis(rho.monoid)
    assert rad.dim < n and _int_constraints(rad)
    assert _int_constraints(annihilator_basis(rho))
    steps = 0
    for _, ann in islice(tensor_annihilator_chain(rho), n):
        assert _int_constraints(ann)
        steps += 1
    assert steps == n
