"""Rational matrix representations of finite monoids.

A representation assigns one square matrix over the rationals to every
monoid element so that the identity maps to the identity matrix and
matrices multiply along the Cayley table.  On top of that sit characters
(trace functions), faithfulness tests, tensor powers, symmetric powers
realised on the monomial basis, restriction to local monoids eMe, and the
two counts that drive the coverage theorems: the number of distinct
character values and the number of distinct characteristic polynomials.
Both symmetric-power characters and characteristic polynomials are read
off the character at the powers x, x^2, ..., x^n walked on the Cayley
table, which assumes the matrices form a homomorphism (rho(x)^i =
rho(x^i)); no characteristic polynomial of a matrix is taken here.

A representation is validated against the monoid's generating set:
rho(1) = I and rho(x) rho(g) = rho(x*g) for every x and every generator
g, which is |M| |A| matrix products instead of |M|^2.  The matrices of
all elements are stacked, in element order, into d columns of length
|M| d (``_stack``), d the dimension, so that one column pass covers
every x at once: stacked column c of rho(x) rho(g) is the sum over k of
rho(g)[k][c] times stacked column k (``_stacked_column``, zero
coefficients skipped, no product by 1), and it is compared with stacked
column c read at the entries of the elements x*g, one column of the
Cayley table.  Every entry is still computed and compared, in
C-level ``map`` passes, and only one stacked copy of the entries is
held.  The products are exact and, for integral matrices, run in Python
ints: the natural, regular, trivial and N_t representations and the
symmetric powers of integral ones are built with int entries, so their
validation never forms a ``Fraction``.  For N_t the only generating set
is every non-identity element, so there the check stays all-pairs.
The check is a proof:
if b and c pass for every x, so does b*c, because rho(b*c) = rho(b)rho(c)
and rho(x)rho(b)rho(c) = rho(x*b)rho(c) = rho((x*b)*c) = rho(x*(b*c)) by
associativity, and every element is a product of generators.
Internally produced tensor powers, symmetric powers and direct sums are
homomorphisms by construction, so the check is skipped for them;
restrictions to a local monoid are validated once, as they are built.
``validate()`` re-runs the check on demand and the test suite does
exactly that.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, combinations_with_replacement, count, islice, repeat
from math import comb
from operator import add, itemgetter, mul, ne

from .linalg import (
    Echelon,
    Matrix,
    charpoly_from_power_traces,
    complete_homogeneous_sequence,
    kron,
)
from .monoids import Monoid, local_monoid, nt_monoid, submonoid


class Representation:
    """Matrices indexed by the elements of a finite monoid."""

    def __init__(self, monoid: Monoid, matrices, check=True):
        matrices = tuple(m if isinstance(m, Matrix) else Matrix(m) for m in matrices)
        if len(matrices) != monoid.size:
            raise ValueError("need exactly one matrix per monoid element")
        dim = matrices[monoid.identity].nrows
        for i, m in enumerate(matrices):
            if not m.is_square or m.nrows != dim:
                raise ValueError(f"matrix for element {i} is not {dim}x{dim}")
        self.monoid = monoid
        self.dim = dim
        self.matrices = matrices
        if check:
            self.validate()

    def validate(self):
        """Re-check the identity image and the products with generators.

        A failure names the least pair (x, g), ordered by x and then by
        g's position among the generators.
        """
        m, d = self.monoid, self.dim
        if self.matrices[m.identity] != Matrix.identity(d):
            raise ValueError("identity element does not map to the identity matrix")
        if not d:  # no entries to compare
            return self
        stack = _stack(self.matrices)
        zero = (0,) * len(stack[0])
        blocks = [range(x * d, x * d + d) for x in range(m.size)]  # element x's entries
        failures = []
        for pos, g in enumerate(m.generators):
            # picks the stacked rho(x*g) for every x; a monoid with a
            # generator has two elements, so it picks a tuple
            at = itemgetter(*chain.from_iterable(map(blocks.__getitem__,
                                                     map(itemgetter(g), m.table))))
            first = len(zero)
            for coefs, col in zip(zip(*self.matrices[g].rows), stack):
                got, want = _stacked_column(stack, coefs, zero), at(col)
                if got != want:
                    first = min(first, list(map(ne, got, want)).index(True))
            if first < len(zero):
                failures.append((first // d, pos))
        if failures:
            a, pos = min(failures)
            g = m.generators[pos]
            raise ValueError(
                f"not a homomorphism: matrices at the pair ({a}, {g}) "
                f"do not multiply to the matrix at {m.table[a][g]}")
        return self

    def __repr__(self):
        return f"Representation(dim={self.dim}, monoid_size={self.monoid.size})"


def _stack(matrices):
    """Column c of every matrix in turn, as one tuple per c: entry x*d + i
    of stacked column c is entry (i, c) of the matrix of element x."""
    return [tuple(chain.from_iterable(cols)) for cols in zip(*(zip(*m.rows) for m in matrices))]


def _stacked_column(stack, coefs, zero):
    """The sum of coefs[k] times stacked column k, over the nonzero
    coefficients, multiplying by none of them that is 1; ``zero`` when
    every coefficient is 0.  With coefs column c of rho(g), this is
    stacked column c of rho(x) rho(g) for every x at once."""
    out = None
    for col, c in zip(stack, coefs):
        if not c:
            continue
        if c != 1:
            col = map(mul, col, repeat(c))
        out = tuple(col) if out is None else tuple(map(add, out, col))
    return zero if out is None else out


def build_representation(m: Monoid, matrices) -> Representation:
    """Validated representation from one matrix per element."""
    return Representation(m, matrices, check=True)


def _action_matrices(maps, n):
    """The 0/1 matrix of each self-map f of 0..n-1 acting on basis
    vectors: column j holds its single 1 in row f(j)."""
    mats = []
    for f in maps:
        rows = [[0] * n for _ in range(n)]
        for j, img in enumerate(f):
            rows[img][j] = 1
        mats.append(Matrix(rows, n))
    return mats


def natural_representation(m: Monoid) -> Representation:
    """0/1 matrices of a transformation monoid acting on basis vectors.

    The element mapping point j to f(j) sends basis vector e_j to e_f(j).
    Only monoids built by ``from_transformations`` carry the data needed
    here.
    """
    if m.transformations is None:
        raise ValueError("monoid does not carry transformation data")
    degree = len(m.transformations[0]) if m.transformations else 0
    return Representation(m, _action_matrices(m.transformations, degree), check=True)


def matrix_representation(m: Monoid) -> Representation:
    """The defining representation of a matrix-closure monoid."""
    if m.matrix_elements is None:
        raise ValueError("monoid does not carry matrix data")
    return Representation(m, m.matrix_elements, check=True)


def nt_paper_representation(t) -> Representation:
    """The faithful two-dimensional representation of N_t.

    The zero element maps to the zero matrix, the identity to I, and
    element j (2 <= j <= t) to [[0, j], [0, 0]].  Its character takes the
    two values 2 (at the identity) and 0 (everywhere else); note the value
    at the identity is the dimension 2, not 1.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    m = nt_monoid(t)
    mats = [Matrix.zero(2, 2), Matrix.identity(2)]
    for j in range(2, t + 1):
        mats.append(Matrix([[0, j], [0, 0]]))
    return Representation(m, mats, check=True)


def regular_representation(m: Monoid) -> Representation:
    """Left multiplication on the monoid basis; always faithful.  Element
    x sends basis vector e_j to e_(x*j), read off row x of the table."""
    return Representation(m, _action_matrices(m.table, m.size), check=False)


def trivial_representation(m: Monoid) -> Representation:
    """Every element acting as [[1]] on a one-dimensional space."""
    one = Matrix.identity(1)
    return Representation(m, (one,) * m.size, check=False)


def is_faithful(rho: Representation):
    """Whether distinct elements get distinct matrices.

    Returns (True, None) or (False, (a, b)) with the first coinciding
    pair in index order.
    """
    seen = {}
    for i, mat in enumerate(rho.matrices):
        if mat in seen:
            return False, (seen[mat], i)
        seen[mat] = i
    return True, None


def character(rho: Representation):
    """Trace of each element matrix, indexed like the monoid."""
    return tuple(m.trace() for m in rho.matrices)


def distinct_character_values(rho: Representation):
    """Sorted tuple of the values taken by the character; r is its length."""
    return tuple(sorted(set(character(rho))))


def _powers(table, x, n):
    """x, x^2, ..., x^n, read off the Cayley table."""
    return accumulate(repeat(x, n), lambda y, z: table[y][z])


def distinct_charpolys(rho: Representation):
    """Sorted tuple of the characteristic polynomials of the element
    matrices; s is its length.

    Read off the character, as ``sym_power_characters`` reads it: the
    matrices are assumed to form a homomorphism, so tr rho(x)^i is the
    character at x^i.  The first d power traces determine the
    polynomial, d the dimension, and the polynomial determines them, so
    the recurrence of ``charpoly_from_power_traces`` runs once per
    distinct trace vector and no matrix product is formed.
    """
    chi, table, d = character(rho), rho.monoid.table, rho.dim
    traces = {tuple(map(chi.__getitem__, _powers(table, x, d)))
              for x in range(rho.monoid.size)}
    return tuple(sorted(charpoly_from_power_traces(p, d) for p in traces))


def tensor_power(rho: Representation, i) -> Representation:
    """The i-fold Kronecker power; i = 0 is the trivial representation."""
    if i < 0:
        raise ValueError("tensor power exponent must be nonnegative")
    if i == 0:
        return trivial_representation(rho.monoid)
    mats = list(rho.matrices)
    for _ in range(i - 1):
        mats = [kron(a, b) for a, b in zip(mats, rho.matrices)]
    return Representation(rho.monoid, mats, check=False)


def direct_sum(rhos, monoid=None) -> Representation:
    """Block-diagonal sum of representations of one monoid."""
    rhos = list(rhos)
    if not rhos:
        if monoid is None:
            raise ValueError("an empty direct sum needs an explicit monoid")
        return Representation(monoid, (Matrix((), ncols=0),) * monoid.size, check=False)
    base = rhos[0].monoid
    for r in rhos[1:]:
        if r.monoid != base:
            raise ValueError("direct sum needs representations of one monoid")
    dim = sum(r.dim for r in rhos)
    mats = []
    for x in range(base.size):
        rows = [[0] * dim for _ in range(dim)]
        off = 0
        for r in rhos:
            block = r.matrices[x]
            for i in range(r.dim):
                row = rows[off + i]
                brow = block[i]
                for j in range(r.dim):
                    row[off + j] = brow[j]
            off += r.dim
        mats.append(Matrix(rows, ncols=dim))
    return Representation(base, mats, check=False)


def monomial_basis(n, d):
    """Exponent tuples of length n summing to d, in descending lex order.

    For n = 2, d = 2 this is (2,0), (1,1), (0,2) -- i.e. x1^2, x1 x2,
    x2^2.  The count is C(n+d-1, d).  These are the sorted variable
    tuples ``combinations_with_replacement(range(n), d)``, here (0,0),
    (0,1), (1,1), in their order, each counted into its exponents.
    """
    return [tuple(map(c.count, range(n))) for c in combinations_with_replacement(range(n), d)]


def symmetric_columns(rho: Representation):
    """Yield the symmetric powers of every element matrix, degree by degree.

    Item d (d = 0, 1, 2, ...) holds one entry per monoid element: the
    columns of its degree-d symmetric power, in ``monomial_basis(dim, d)``
    order, each a dict from row position to coefficient.  A monomial of
    degree d is its sorted tuple of d variables, in the order
    ``combinations_with_replacement`` lists them, and x_i times it is
    that tuple with i inserted.  Column mono is the product of the linear
    forms m . x_j, j in mono, expanded in the monomial basis, where
    m . x_j is column j of the element matrix.  Degree d+1 is built from
    degree d: column mono is column mono[1:] times the form of variable
    mono[0], so each monomial costs one product with a linear form.  The
    expansion starts from the integer 1, so integral input stays in ints.
    The generator is lazy: a degree is built only when asked for.
    """
    n = rho.dim
    forms = [[[(i, x) for i, x in enumerate(col) if x] for col in zip(*mat.rows)]
             for mat in rho.matrices]
    basis, prev = [()], {(): 0}
    cols = [[{0: 1}] for _ in rho.matrices]
    for d in count(1):
        yield cols
        nxt = list(combinations_with_replacement(range(n), d))
        pos = {mono: k for k, mono in enumerate(nxt)}
        # up[k][i]: position of basis[k] * x_i among the next degree's monomials
        up = [[pos[tuple(sorted(mono + (i,)))] for i in range(n)] for mono in basis]
        steps = [(mono[0], prev[mono[1:]]) for mono in nxt]
        cols = [[_times_form(col[k], form[j], up) if col[k] and form[j] else {}
                 for j, k in steps]
                for form, col in zip(forms, cols)]
        basis, prev = nxt, pos


def _times_form(poly, form, up):
    """The sparse polynomial ``poly`` times a linear form, both given by
    positions in their monomial bases."""
    out = {}
    for k, c in poly.items():
        row = up[k]
        for i, x in form:
            key = row[i]
            out[key] = out.get(key, 0) + c * x
    return out


def sym_power(rho: Representation, d) -> Representation:
    """Degree-d symmetric power on the monomial basis.

    Dimension is C(n+d-1, d).  The columns come from
    ``symmetric_columns``, which builds each degree from the one before;
    an integral input gives int entries.
    """
    if d < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    dim = sym_power_dim(rho.dim, d)
    mats = []
    for cols in next(islice(symmetric_columns(rho), d, None)):
        rows = [[0] * dim for _ in range(dim)]
        for k, col in enumerate(cols):
            for p, c in col.items():
                rows[p][k] = c
        mats.append(Matrix(rows, ncols=dim))
    return Representation(rho.monoid, mats, check=False)


def sym_power_characters(rho: Representation, x, n):
    """[h_0, ..., h_n]: traces of the symmetric powers 0..n at element x.

    Evaluated as the complete homogeneous symmetric functions of the
    eigenvalue multiset through Newton's identities on the power traces
    tr(rho(x)^i), i = 1..n, so no eigenvalues are ever extracted and the
    arithmetic stays rational.  The matrices are assumed to form a
    homomorphism, as a validated representation's do, so rho(x)^i =
    rho(x^i): each power trace is the trace of a matrix already built,
    at the power x^i read off the monoid's table, with no matrix product.
    Each h_d is an integer, since the eigenvalues of an element of a
    finite monoid are 0 or roots of unity, and is returned as an int.
    """
    mats = rho.matrices
    return complete_homogeneous_sequence(
        [mats[y].trace() for y in _powers(rho.monoid.table, x, n)], n)


def sym_power_character(rho: Representation, x, d) -> int | Fraction:
    """Trace of the degree-d symmetric power at element x."""
    return sym_power_characters(rho, x, d)[d]


def sym_power_dim(n, d):
    return comb(n + d - 1, d) if n > 0 else (1 if d == 0 else 0)


def restrict_to_local(rho: Representation, e) -> Representation:
    """The action of the local monoid eMe on the column space of rho(e).

    The basis of e.V is the canonical echelon basis of the column space
    of the idempotent's matrix; the result is a representation of the
    monoid eMe (labels inherited), whose character is the restriction of
    the original character.  The basis vectors and the local matrices
    have canonical entries, ints where integral, so an integral rho(e)
    restricts in integers alone.
    """
    m = rho.monoid
    members = local_monoid(m, e)  # validates idempotency
    local = submonoid(m, members, e)
    pe = rho.matrices[e]
    ech = Echelon(rho.dim, pe.transpose().rows)
    basis = ech.rows
    pivots = list(ech.pivots)
    k = len(basis)
    mats = []
    for x in members:
        mx = rho.matrices[x]
        rows = [[0] * k for _ in range(k)]
        for j, b in enumerate(basis):
            w = mx.apply(b)
            # basis is in RREF, so coordinates are read off pivot columns
            coords = [w[p] for p in pivots]
            if any(ech.reduce(w)):
                raise RuntimeError(
                    "column space of the idempotent is not invariant; "
                    "the input is not a representation")
            for s in range(k):
                rows[s][j] = coords[s]
        mats.append(Matrix(rows, ncols=k))
    return Representation(local, mats, check=True)
