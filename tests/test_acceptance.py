"""Acceptance suite: the quantitative desk-scale facts, end to end.

Every assertion is exact (the library has no floating point to round).
Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from monoidrep.algebra import (
    all_simples_appear,
    annihilator_basis,
    minimal_covering_power,
    minimal_faithful_power,
    radical_basis,
    verify_positive_power_refinement,
    verify_steinberg_bound,
    verify_symmetric_theorem,
    verify_tensor_theorem,
)
from monoidrep.linalg import Echelon, Matrix
from monoidrep.molien import element_series
from monoidrep.monoids import (
    from_transformations,
    idempotents,
    local_ideal,
    local_monoid,
)
from monoidrep.representations import (
    character,
    direct_sum,
    distinct_character_values,
    nt_paper_representation,
    sym_power,
    sym_power_characters,
    tensor_power,
)
from monoidrep.linalg import charpoly, charpoly_from_power_traces, power_traces

from oracles import character_kernel, inverse, restrict_to_local, same_space, span_subspace

F = Fraction


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({description}): PASS  [{elapsed:.2f}s]")


def test_criterion_1_nt_family_dimensions():
    with criterion(1, "N_t radical/annihilator dimensions and tensor bound"):
        for t in range(2, 13):
            started = time.perf_counter()
            rho = nt_paper_representation(t)
            rad = radical_basis(rho.monoid)
            assert rad.dim == t - 1
            w = direct_sum([tensor_power(rho, 0), rho])
            assert annihilator_basis(w).dim == t - 2
            report = verify_tensor_theorem(rho)
            assert report.holds and report.r == 2
            assert time.perf_counter() - started < 1.0


def test_criterion_2_unbounded_faithful_power():
    with criterion(2, "minimal faithful power grows while covering stays put"):
        started = time.perf_counter()
        faithful = []
        for t in range(2, 9):
            rho = nt_paper_representation(t)
            faithful.append(minimal_faithful_power(rho, "tensor"))
            assert minimal_covering_power(rho, "tensor") <= 1
        assert faithful == [t - 1 for t in range(2, 9)]
        assert all(a < b for a, b in zip(faithful, faithful[1:]))
        assert time.perf_counter() - started < 5.0


def test_criterion_3_full_transformation_monoid_degree_two():
    with criterion(3, "T_2: radical, r, and all three bounds"):
        started = time.perf_counter()
        t2 = from_transformations(2, [(2, 1), (1, 1)])
        assert t2.size == 4
        from monoidrep.representations import natural_representation
        rho = natural_representation(t2)
        rad = radical_basis(t2)
        assert rad.dim == 1
        assert same_space(rad, span_subspace(4, [(0, 0, 1, -1)]))   # const_1 - const_2
        assert len(distinct_character_values(rho)) == 3
        tensor = verify_tensor_theorem(rho)
        assert tensor.holds and tensor.r == 3
        positive = verify_positive_power_refinement(rho)
        assert positive.holds
        symmetric = verify_symmetric_theorem(rho)
        assert symmetric.holds and symmetric.s == 3 and symmetric.bound == 5
        assert time.perf_counter() - started < 1.0


def test_criterion_4_full_transformation_monoid_degree_three():
    with criterion(4, "T_3: tensor bound at r=4 and the |M| power bound"):
        started = time.perf_counter()
        t3 = from_transformations(3, [(2, 3, 1), (2, 1, 3), (1, 1, 3)])
        assert t3.size == 27
        from monoidrep.representations import natural_representation
        rho = natural_representation(t3)
        report = verify_tensor_theorem(rho)
        assert report.holds and report.r == 4
        assert sum(rho.dim ** i for i in report.powers_used) == 40
        steinberg = verify_steinberg_bound(rho)
        assert steinberg.holds
        assert steinberg.powers_used == tuple(range(27))
        assert time.perf_counter() - started < 120.0


def test_criterion_5_group_sanity():
    with criterion(5, "groups: zero radical and every verifier"):
        started = time.perf_counter()
        from monoidrep.representations import Representation, natural_representation
        s2 = from_transformations(2, [(2, 1)])
        sign = Representation(s2, [[[1]], [[-1]]])
        s3 = from_transformations(3, [(2, 3, 1), (2, 1, 3)])
        nat = natural_representation(s3)
        for rho in (sign, nat):
            assert radical_basis(rho.monoid).dim == 0
            for verifier in (verify_tensor_theorem, verify_symmetric_theorem,
                             verify_positive_power_refinement, verify_steinberg_bound):
                assert verifier(rho).holds
        assert len(distinct_character_values(nat)) == 3
        assert verify_tensor_theorem(nat).bound == 2
        assert time.perf_counter() - started < 1.0


def test_criterion_6_symmetric_character_triple_route(corpus):
    with criterion(6, "three symmetric-character routes agree to degree 6"):
        for rho in corpus.values():
            sym = [sym_power(rho, d) for d in range(7)]
            for x in range(rho.monoid.size):
                series = element_series(rho, x, 6)
                for d in range(7):
                    newton = sym_power_characters(rho, x, d)[d]
                    explicit = sym[d].matrices[x].trace()
                    assert series[d] == newton == explicit


def test_criterion_7_lemma_suite(corpus):
    with criterion(7, "character kernels, restrictions, idempotent traces, ideals"):
        for rho in corpus.values():
            m = rho.monoid
            # two-route character kernel (raises internally on mismatch)
            kernel = character_kernel(rho)
            if m.size > 1:
                assert kernel == (m.identity,)
            chi = character(rho)
            for e in idempotents(m):
                # restriction preserves the character on eMe
                loc = restrict_to_local(rho, e)
                members = local_monoid(m, e)
                assert character(loc) == tuple(chi[x] for x in members)
                # I_e is an ideal of eMe
                ideal = set(local_ideal(m, e))
                for a in members:
                    for x in ideal:
                        ax = m.table[a][x]
                        for b in members:
                            assert m.table[ax][b] in ideal
        # rank equals trace for 200 constructed idempotent matrices
        rng = random.Random(1729)
        built = 0
        while built < 200:
            n = rng.randint(1, 5)
            r = rng.randint(0, n)
            d = Matrix([[F(1) if i == j and i < r else F(0) for j in range(n)]
                        for i in range(n)])
            s = Matrix([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
            try:
                e = s * d * inverse(s)
            except ValueError:
                continue
            assert e * e == e
            assert e.trace() == Echelon(e.ncols, e.rows).rank
            built += 1


def test_criterion_8_newton_charpoly_round_trip():
    with criterion(8, "Newton identities reconstruct 100 characteristic polynomials"):
        rng = random.Random(20240801)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)])
            assert charpoly_from_power_traces(power_traces(a, n), n) == charpoly(a)


def test_criterion_9_positive_powers_miss_trivial_module():
    with criterion(9, "N_5: the bare module misses a simple, witnessed"):
        rho = nt_paper_representation(5)
        holds, witness = all_simples_appear(rho)
        assert not holds and witness is not None
        # the witness annihilates the module
        total = Matrix.zero(2, 2)
        for x, c in enumerate(witness):
            total = total + rho.matrices[x].scale(c)
        assert total == Matrix.zero(2, 2)
        ann = annihilator_basis(rho)
        assert ann.contains(witness)
        # and lies outside the radical, touching an idempotent
        rad = radical_basis(rho.monoid)
        assert not rad.contains(witness)
        assert any(witness[e] for e in idempotents(rho.monoid))
