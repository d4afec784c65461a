"""Seeded differential test of the coverage checks against tests/oracles.py.

A fixed-seed corpus of random transformation monoids (degree 2 or 3), N_t
(t <= 9) and monoids generated by random 0/1 matrices is run through the
three coefficient-span chains.  At every step k <= 3 the annihilator's
dimension is compared with plain Gaussian elimination on the entry rows
of the explicit direct sum of the powers, the containment verdict with
the trace-form definition of the radical, and every witness is checked
to annihilate the module while lying outside the radical.
"""

import random

import pytest

from monoidrep.algebra import (
    radical_basis,
    subspace_leq,
    symmetric_annihilator_chain,
    tensor_annihilator_chain,
)
from monoidrep.monoids import from_matrices, from_transformations
from monoidrep.representations import (
    direct_sum,
    matrix_representation,
    natural_representation,
    nt_paper_representation,
    sym_power,
    tensor_power,
)

from oracles import gauss_nullity, gauss_rank, in_radical

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
            return matrix_representation(m)


def _corpus():
    rng = random.Random(SEED)
    out = {}
    for i in range(5):
        out[f"transformations-{i}"] = _random_transformations(rng)
    for t in sorted(rng.sample(range(2, 10), 3)):
        out[f"nt-{t}"] = nt_paper_representation(t)
    for i in range(3):
        out[f"matrices-{i}"] = _random_01_matrices(rng)
    return out


CORPUS = _corpus()

# chain name -> (chain, the explicit power of each degree, first degree)
CHAINS = {
    "tensor": (tensor_annihilator_chain, tensor_power, 0),
    "positive": (lambda rho, k: tensor_annihilator_chain(rho, k, first=1),
                 tensor_power, 1),
    "symmetric": (symmetric_annihilator_chain, sym_power, 0),
}


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
    for k, ann in chain(rho, KMAX):
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
