"""Seeded differential test of the integer echelon against Gauss-Jordan.

``Echelon`` stores primitive integer rows in (unreduced) row echelon
form and derives the canonical ``Fraction`` RREF only when ``rows`` is
read.  A fixed-seed corpus of random tall, wide and square matrices --
negative entries, non-integer Fractions, "p/q" strings, zero rows,
duplicate rows and multiples of other rows -- is fed through it and
compared with the plain Gauss-Jordan ``oracles.rref`` and with
``oracles.gauss_rank``: rank, the RREF rows, their independence from the
insertion order, the stored integer form, the kernel basis, ``reduce``
and ``contains``, and ``copy`` as a snapshot that later inserts on
either side, before or after the RREF was cached, leave alone.  The same
corpus, denominators cleared, checks the echelon modulo a prime on packed
rows (``oracles.echelon_mod_p``, the package's former modular radical
step, which the large-monoid radical tests use for a rank bound) against
the exact one, and against the full-width back-substitution it replaced
(``oracles.echelon_mod_p_full_width``), together with the trace-form
Gram matrices of monoids and hand-made edge cases.
"""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from monoidrep.fileio import load_monoid
from monoidrep.linalg import Echelon, clear_denominators
from monoidrep.monoids import nt_monoid

from oracles import (
    PRIME,
    _pack,
    _unpack,
    echelon_mod_p,
    echelon_mod_p_full_width,
    gauss_rank,
    gram_matrix,
    rref,
)

SEED = 1968


def _entry(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if kind == 3:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 7)}"
    return rng.randint(-(2 ** 40), 2 ** 40)


def _random_matrix(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(list(rng.choice(rows)))  # duplicate
        elif rows and pick < 0.3:  # rational combination of two earlier rows
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-3, 3)
            rows.append([s * Fraction(x) + t * Fraction(y) for x, y in zip(a, b)])
        elif pick < 0.4:
            rows.append([0] * ncols)
        else:
            rows.append([_entry(rng) for _ in range(ncols)])
    return rows


def _corpus():
    rng = random.Random(SEED)
    out = {}
    for shape in ("tall", "wide", "square"):
        for i in range(8):
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            nrows, ncols = {"tall": (a + b, a), "wide": (a, a + b),
                            "square": (a, a)}[shape]
            out[f"{shape}-{i}"] = _random_matrix(rng, nrows, ncols)
    return out


CORPUS = _corpus()


def _echelon(ncols, rows):
    ech = Echelon(ncols)
    for row in rows:
        ech.insert(row)
    return ech


def _ncols(name):
    return len(CORPUS[name][0])


def _check_stored_form(ech):
    """Primitive integer rows, leading entry > 0, ascending pivots."""
    assert ech.pivots == sorted(set(ech.pivots)) and len(ech.pivots) == ech.rank
    for p, row in zip(ech.pivots, ech.int_rows):
        assert all(type(x) is int for x in row)
        assert not any(row[:p]) and row[p] > 0
        assert gcd(*row) == 1


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_echelon_matches_gauss_jordan(name):
    rows, ncols = CORPUS[name], _ncols(name)
    ech = _echelon(ncols, rows)
    expected = rref(rows, ncols)
    assert ech.rank == gauss_rank(rows) == len(expected)
    assert ech.rows == tuple(expected)
    # canonical entries, as a Matrix holds them: an int wherever integral
    assert all(type(x) is (Fraction if x.denominator > 1 else int)
               for row in ech.rows for x in row)
    _check_stored_form(ech)
    # the same space in any order gives the same canonical rows
    rng = random.Random(f"{SEED}-{name}")
    for _ in range(3):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert _echelon(ncols, shuffled).rows == ech.rows


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_echelon_from_rows_matches_one_by_one(name):
    """``Echelon(ncols, rows)`` stores what inserting the rows one at a
    time stores, and reads no row after the one that makes the rank full."""
    rows, ncols = CORPUS[name], _ncols(name)
    ech, one_by_one = Echelon(ncols, rows), _echelon(ncols, rows)
    assert (ech.pivots, ech.int_rows) == (one_by_one.pivots, one_by_one.int_rows)
    # the rows, then unit vectors, up to the one that makes the rank full
    prefix, acc = [], Echelon(ncols)
    for v in rows + [[int(i == j) for j in range(ncols)] for i in range(ncols)]:
        prefix.append(v)
        if acc.insert(v) and acc.rank == ncols:
            break

    def then_raise():
        yield from prefix
        raise AssertionError("a row was read after the rank was full")

    full = Echelon(ncols, then_raise())
    assert full.rank == ncols
    assert (full.pivots, full.int_rows) == (acc.pivots, acc.int_rows)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_echelon_kernel_basis_is_canonical(name):
    rows, ncols = CORPUS[name], _ncols(name)
    ech = _echelon(ncols, rows)
    basis = ech.kernel_basis()
    free = [f for f in range(ncols) if f not in ech.pivots]
    assert len(basis) == ncols - ech.rank == len(free)
    for v, f in zip(basis, free):
        assert all(sum(Fraction(a) * b for a, b in zip(row, v)) == 0 for row in rows)
        assert v[f] == 1 and all(v[g] == 0 for g in free if g != f)
        assert all(type(x) is (Fraction if x.denominator > 1 else int) for x in v)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_echelon_reduce_and_contains(name):
    rows, ncols = CORPUS[name], _ncols(name)
    ech = _echelon(ncols, rows)
    rank = gauss_rank(rows)
    free = [f for f in range(ncols) if f not in ech.pivots]
    rng = random.Random(f"{SEED}-reduce-{name}")
    for _ in range(6):
        # an integer combination of the stored rows plus a vector that is
        # zero at every pivot reduces to exactly that vector: each step
        # scales by a / gcd(a, c) = 1
        tail = [0] * ncols
        for f in free:
            tail[f] = rng.randint(-5, 5)
        w = list(tail)
        for row in ech.int_rows:
            k = rng.randint(-3, 3)
            w = [x + k * y for x, y in zip(w, row)]
        assert ech.reduce(w) == tail
        assert ech.contains(w) == (not any(tail))
        # a rational vector: the residual is a positive multiple of the
        # canonical one, and contains agrees with the rank test
        w = [_entry(rng) for _ in range(ncols)]
        residual = ech.reduce(w)
        assert all(type(x) is int for x in residual)
        canonical = [Fraction(x) for x in w]
        for p, row in zip(ech.pivots, ech.rows):
            c = canonical[p]
            canonical = [x - c * y for x, y in zip(canonical, row)]
        k = next((i for i, x in enumerate(canonical) if x), None)
        if k is None:
            assert not any(residual)
        else:
            scale = residual[k] / canonical[k]
            assert scale > 0 and residual == [scale * x for x in canonical]
        assert ech.contains(w) == (gauss_rank(rows + [w]) == rank)


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_echelon_copy_is_a_snapshot(name, read_first):
    rows, ncols = CORPUS[name], _ncols(name)
    half = len(rows) // 2
    ech = _echelon(ncols, rows[:half])
    if read_first:
        ech.rows  # cache the RREF before the copy
    snap = ech.copy()
    for row in rows[half:]:
        ech.insert(row)
    assert ech.rows == tuple(rref(rows, ncols))
    assert snap.rows == tuple(rref(rows[:half], ncols))
    # inserting into the snapshot leaves the original alone
    rng = random.Random(f"{SEED}-copy-{name}")
    extra = [[_entry(rng) for _ in range(ncols)] for _ in range(3)]
    for v in extra:
        snap.insert(v)
    assert snap.rows == tuple(rref(rows[:half] + extra, ncols))
    assert ech.rows == tuple(rref(rows, ncols))
    _check_stored_form(ech)
    _check_stored_form(snap)


def test_echelon_rows_follow_inserts_after_a_read():
    ech = Echelon(3)
    ech.insert((2, 4, 0))
    assert ech.rows == ((1, 2, 0),)
    ech.insert(("1/3", 0, 1))
    assert ech.rows == ((1, 0, 3), (0, 1, Fraction(-3, 2)))
    ech.insert((0, 0, 5))
    assert ech.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# --- echelon modulo a prime, on packed rows -------------------------------------

def _residue(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_echelon_mod_p_matches_exact(name):
    """With a prime dividing no minor that matters, the packed echelon
    accepts the rows the exact one accepts, and its kernel basis is the
    exact canonical one reduced mod p (so its free columns, hence its
    pivots, are the exact ones)."""
    rows, ncols = [clear_denominators(r) for r in CORPUS[name]], _ncols(name)
    accepted, kernel = echelon_mod_p(rows, ncols, PRIME)
    ech = Echelon(ncols)
    assert accepted == [i for i, row in enumerate(rows) if ech.insert(row)]
    assert kernel == [[_residue(x, PRIME) for x in v] for v in ech.kernel_basis()]


def _reference_cases():
    inputs = Path(__file__).parent / "golden" / "inputs"
    cases = {f"corpus-{name}": ([clear_denominators(r) for r in rows], len(rows[0]))
             for name, rows in CORPUS.items()}
    for name in ("t3", "m128", "t4"):
        m = load_monoid(inputs / f"{name}.json", None)
        cases[name] = (gram_matrix(m.table), m.size)
    for t in (7, 40):  # nullity |M| - 2
        cases[f"nt-{t}"] = (gram_matrix(nt_monoid(t).table), t + 1)
    rng = random.Random(SEED)
    upper = [[0] * i + [rng.randint(1, 9) for _ in range(6 - i)] for i in range(6)]
    cases["full-rank"] = (upper[::-1], 6)  # no free column
    row = [rng.randint(-9, 9) for _ in range(5)]
    cases["repeated"] = ([row, [0] * 5, row, [2 * x for x in row], row], 5)
    cases["size-1"] = ([[3]], 1)
    cases["size-1-zero"] = ([[0], [0]], 1)
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("p", [PRIME, 3])
@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_echelon_mod_p_matches_full_width_reference(name, p):
    """Back-substitution on the free columns alone accepts the same rows
    and gives the same kernel as the full-width reduced form, modulo the
    certificate's prime and modulo 3, where ranks drop."""
    rows, ncols = REFERENCE_CASES[name]
    assert echelon_mod_p(rows, ncols, p) == echelon_mod_p_full_width(rows, ncols, p)


def test_echelon_mod_p_edge_cases():
    """Full rank leaves no free column and no kernel; N_t's Gram matrix
    has rank 2; a repeated row is accepted once; a 1x1 zero has kernel
    [1]."""
    kernel_size = {name: len(echelon_mod_p(*REFERENCE_CASES[name], PRIME)[1])
                   for name in ("full-rank", "nt-7", "nt-40", "repeated", "size-1",
                                "size-1-zero")}
    assert kernel_size == {"full-rank": 0, "nt-7": 6, "nt-40": 39, "repeated": 4,
                           "size-1": 0, "size-1-zero": 1}
    assert echelon_mod_p(*REFERENCE_CASES["repeated"], PRIME)[0] == [0]
    assert echelon_mod_p([[0], [0]], 1, PRIME) == ([], [[1]])


def test_echelon_mod_small_prime():
    """Modulo 3 the rank of [[1, 2], [2, 1]] drops to 1; the kernel basis
    is that of the reduced rows."""
    assert echelon_mod_p([[1, 2], [2, 1]], 2, 3) == ([0], [[1, 1]])
    assert echelon_mod_p([[0, 3], [-1, 4]], 2, 3) == ([1], [[1, 1]])


def test_pack_round_trip():
    vals = [0, 1, 2 ** 64 - 1, 5, 2 ** 63]
    v = _pack(vals)
    assert v == sum(x << (64 * j) for j, x in enumerate(vals))
    assert list(_unpack(v, len(vals))) == vals
    assert list(_unpack(_pack([]), 0)) == []
