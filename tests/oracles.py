"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch against the package
under test: plain Gaussian elimination instead of the incremental echelon,
Laplace expansion, the Faddeev-LeVerrier recurrence and a self-map's
cycles instead of the traces of matrix powers, nested lists of
``Fraction`` instead of ``Matrix``, brute-force enumeration instead of
Newton's identities, set-based closure instead of
indexed BFS, every triple and every pair instead of a generating set,
each symmetric power expanded from scratch, or read entry by entry off
its definition, instead of from the degree below, and units found by
two-sided inverses instead of one-sided ones.
Six are the package's own earlier code, kept as it was to pin a faster
rewrite to the old results: the tensor chain that inserted
every product in turn, Light's test scanned triple by triple, the
fraction-free echelon that rewrote every column of a vector for each
pivot it cleared, the echelon modulo a prime that brought every stored
row to reduced form at full width, the closure that formed all |M|^2
products for its table, and representation validation one matrix
product per pair.

The radical is checked against its definition in characteristic zero,
the kernel of the trace form, computed from the Gram matrix (the route
the package took before it read the radical off Green's relations),
with the rank modulo a prime of the package's former echelon on packed
rows (``echelon_mod_p``, itself checked against the exact echelon and
the full-width one) as a lower bound where that exact echelon is too
slow; Green's relations come from the one-sided and two-sided
ideals xM, Mx and MxM, each formed product by product.

Last come helpers only tests use: a weighted sum of matrices, the span
of vectors as a ``Subspace``, whether two subspaces are the same space,
a matrix's inverse, a matrix monoid's defining representation, rebuilt
from its generators, the regular representation, the monoid on a
product-closed subset, the monomial basis of a symmetric power, the
restriction of a representation to a local monoid eMe, monoid morphisms
with the LI test, and the character kernel computed two ways.
"""

import struct
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations_with_replacement, compress, permutations, product
from math import gcd, lcm, prod

from monoidrep.algebra import Subspace
from monoidrep.linalg import Echelon, Matrix
from monoidrep.monoids import Monoid, idempotents, local_monoid
from monoidrep.representations import Representation


def dense_eliminate(v, row, p):
    """(a/g)*v - (c/g)*row for a = row[p] > 0, c = v[p] and g = gcd(a, c),
    over every column: a positive integer multiple of v modulo row, with
    entry 0 at column p."""
    a, c = row[p], v[p]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a == 1:
        return [x - c * y for x, y in zip(v, row)]
    return [a * x - c * y for x, y in zip(v, row)]


class DenseEchelon:
    """The fraction-free integer echelon with dense elimination: the same
    interface and, by construction, the same pivots, stored rows and
    intermediate values as ``monoidrep.linalg.Echelon``."""

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.pivots = []
        self.int_rows = []
        for v in rows:
            if self.insert(v) and self.rank == ncols:
                break

    @property
    def rank(self):
        return len(self.int_rows)

    def copy(self):
        out = DenseEchelon(self.ncols)
        out.pivots = list(self.pivots)
        out.int_rows = list(self.int_rows)
        return out

    def reduce(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length differs from ambient dimension")
        q = [Fraction(x) for x in vec]
        d = lcm(*(x.denominator for x in q))
        v = [x.numerator * (d // x.denominator) for x in q]
        for p, row in zip(self.pivots, self.int_rows):
            if v[p]:
                v = dense_eliminate(v, row, p)
        return v

    def contains(self, vec):
        return not any(self.reduce(vec))

    def insert(self, vec):
        v = self.reduce(vec)
        p = next((j for j, c in enumerate(v) if c), None)
        if p is None:
            return False
        g = gcd(*v)
        if v[p] < 0:
            g = -g
        k = bisect_left(self.pivots, p)
        self.pivots.insert(k, p)
        self.int_rows.insert(k, tuple(x // g for x in v))
        return True

    @property
    def rows(self):
        done = []  # reduced primitive rows below the current one
        for p, row in zip(reversed(self.pivots), reversed(self.int_rows)):
            v = row
            for q, r in done:
                if v[q]:
                    v = dense_eliminate(v, r, q)
            g = gcd(*v)
            done.append((p, [x // g for x in v]))
        return tuple(tuple(Fraction(x, v[p]) for x in v) for p, v in reversed(done))

    def kernel_basis(self):
        pivot_set = set(self.pivots)
        rows = self.rows
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for p, row in zip(self.pivots, rows):
                if row[f]:
                    v[p] = -row[f]
            basis.append(tuple(v))
        return basis


def gauss_rank(rows):
    """Rank by straightforward forward elimination on a copy."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rref(rows, ncols):
    """Reduced row echelon form by plain Gauss-Jordan elimination on a
    copy: the nonzero rows, each with pivot entry 1, as Fraction tuples."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        m[rank] = [a / lead for a in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return [tuple(row) for row in m[:rank]]


def gauss_nullity(rows, ncols):
    return ncols - gauss_rank(rows)


def null_space(rows, ncols):
    """The canonical (reduced row echelon) basis of {v : row . v = 0 for
    every row}: one kernel vector per free column of ``rref(rows)``, the
    free entry 1, then brought to reduced echelon form."""
    red = rref(rows, ncols)
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    kernel = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, row in zip(pivots, red):
            v[p] = -row[f]
        kernel.append(v)
    return rref(kernel, ncols)


def poly_mul(a, b):
    """Multiply coefficient lists (ascending)."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return out


def charpoly_laplace(mat):
    """det(tI - mat) by recursive Laplace expansion over Q[t].

    Returns an ascending coefficient list.  Exponential, fine for n <= 4.
    """
    n = len(mat)
    entries = [[[Fraction(-mat[i][j])] if i != j else [Fraction(-mat[i][j]), Fraction(1)]
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if not cols:
            return [Fraction(1)]
        i = rows[0]
        total = []
        for k, j in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = poly_mul(entries[i][j], minor)
            if k % 2:
                term = [-c for c in term]
            total = poly_add(total, term)
        return total

    return det(tuple(range(n)), tuple(range(n)))


def charpoly_faddeev(mat):
    """det(tI - mat) by the Faddeev-LeVerrier recurrence, as an ascending
    coefficient list.

    With M_0 = I, the coefficient of t^(n-k) is c = -tr(mat M_{k-1}) / k
    and M_k = mat M_{k-1} + c I; it divides only by the integers 1..n.
    """
    n = len(mat)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = identity(n)
    for k in range(1, n + 1):
        am = matmul(mat, mk)
        c = -trace(am) / k
        coeffs[n - k] = c
        mk = mat_add(am, [[c * x for x in row] for row in identity(n)])
    return coeffs


def charpoly_of_map(images):
    """det(tI - A) for the 0/1 matrix A of a self-map f of 0..n-1 (column
    j has its 1 in row f(j)), read off f's functional graph, as an
    ascending coefficient list.

    The basis vectors of the points on cycles span an invariant subspace
    on which A permutes them, one factor t^l - 1 per cycle of length l;
    on the quotient, every other point reaches a cycle, so A is nilpotent
    there and contributes t to the number of points off the cycles.
    """
    n = len(images)
    on_cycle = set(range(n))
    for _ in range(n):  # f^n maps onto the points on cycles
        on_cycle = {images[j] for j in on_cycle}
    out = [Fraction(0)] * (n - len(on_cycle)) + [Fraction(1)]
    seen = set()
    for j in sorted(on_cycle):
        length = 0
        while j not in seen:
            seen.add(j)
            j = images[j]
            length += 1
        if length:
            out = poly_mul(out, [Fraction(-1)] + [Fraction(0)] * (length - 1) + [Fraction(1)])
    return out


def h_complete_brute(values, d):
    """Complete homogeneous symmetric function by term enumeration."""
    if d == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in combinations_with_replacement(values, d):
        term = Fraction(1)
        for v in combo:
            term *= v
        total += term
    return total


def power_sums(values, k):
    return [sum(Fraction(v) ** i for v in values) for i in range(1, k + 1)]


def all_selfmaps(k):
    """All self-maps of {1..k} as 1-based image tuples."""
    return [tuple(img) for img in product(range(1, k + 1), repeat=k)]


def transformation_closure(degree, generators):
    """Set-based closure of 0-based transformation tuples under f(g(x))."""
    gens = {tuple(x - 1 for x in g) for g in generators}
    elems = set(gens) | {tuple(range(degree))}
    while True:
        new = {tuple(f[g[x]] for x in range(degree))
               for f in elems for g in elems} - elems
        if not new:
            return elems
        elems |= new


def convolve(table, a, b):
    """Product in the monoid algebra, directly from the Cayley table."""
    n = len(table)
    out = [Fraction(0)] * n
    for x in range(n):
        if a[x]:
            for y in range(n):
                if b[y]:
                    out[table[x][y]] += Fraction(a[x]) * Fraction(b[y])
    return out


def left_regular_matrix(table, coeffs):
    """Left multiplication by sum_x coeffs[x] x on the basis M, as nested
    lists: column j of basis element x has its 1 in row x*j."""
    n = len(table)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for j in range(n):
            rows[table[x][j]][j] += Fraction(coeffs[x])
    return rows


def kron_entry_formula(a, b):
    """Kronecker product via the raw index formula, as nested lists."""
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[Fraction(0)] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = Fraction(a[i][j]) * Fraction(b[k][l])
    return out


def in_radical(table, v):
    """Whether v lies in the radical of QM, straight from the definition.

    In characteristic zero the radical is {a : tr(L_ab) = 0 for all b},
    L_c being left multiplication by c on QM.  A basis element z has
    trace tr(L_z) = #{j : z*j = j}, so for b = y the condition reads
    sum_x a_x * fix(x*y) = 0.
    """
    n = len(table)
    fix = [sum(1 for j in range(n) if table[z][j] == j) for z in range(n)]
    return all(sum(Fraction(v[x]) * fix[table[x][y]] for x in range(n) if v[x]) == 0
               for y in range(n))


def gram_matrix(table):
    """The Gram matrix G of the trace form: G[x][y] = tr(L_{x*y}), the
    number of fixed points j of z = x*y, z*j = j."""
    n = len(table)
    fix = [sum(1 for j in range(n) if table[z][j] == j) for z in range(n)]
    return [tuple(fix[table[x][y]] for y in range(n)) for x in range(n)]


def gram_radical(m: Monoid):
    """Rad(QM) by its definition in characteristic zero: the kernel of the
    trace form, here the kernel of G's exact echelon, over the rows of G
    it accepted.  The route ``radical_basis`` took before it read the
    radical off Green's relations, with no prime."""
    n = m.size
    ech = Echelon(n)
    rows = [row for row in gram_matrix(m.table) if ech.insert(row)]
    return Subspace(n, rows, n - ech.rank, ech)


PRIME = (1 << 26) - 5  # the prime of the package's certified radical
_SLOT_MASK = (1 << 64) - 1


def _pack(vals):
    """Entries in [0, 2^64) as one int, entry j in bits 64j .. 64j+63."""
    return int.from_bytes(struct.pack(f"<{len(vals)}Q", *vals), "little")


def _unpack(v, n):
    """The n 64-bit slots of a packed int, entry 0 first."""
    return struct.unpack(f"<{n}Q", v.to_bytes(8 * n, "little"))


def _reduce_mod_p(v, stored, p, n):
    """The n entries mod p of packed v once the pivot slot of each stored
    (offset, row), in turn, is brought to 0 by one multiply-add."""
    for shift, r in stored:
        c = (v >> shift & _SLOT_MASK) % p
        if c:
            v += (p - c) * r
    return [x % p for x in _unpack(v, n)]


def echelon_mod_p(rows, ncols, p=PRIME):
    """Row echelon form of integer rows modulo a prime p.

    Returns ``(accepted, kernel)``: the indices of the rows that enlarged
    the row space mod p (in order), and the canonical kernel basis mod p,
    one list per free column in ascending order with entry 1 there,
    entries in [0, p).

    Each row is packed into one int of 64-bit slots (``_pack``), so
    eliminating a stored pivot row R is the single big-int multiply-add
    ``v += (p - c) * R`` with c the residue of v's pivot slot.  Slots are
    reduced mod p only when a row is unpacked, after its elimination.  A
    slot starts below p and each elimination adds at most (p-1)^2, so it
    never carries into its neighbour while rank (p-1)^2 + (p-1) < 2^64:
    up to rank 4096 for p < 2^26, which every input here stays within.

    The kernel needs the reduced form only at the free columns F, so the
    back-substitution runs on rows packed over F alone.  Forward row k
    has pivot 1 and is zero at the pivots stored before it; each reduced
    row R_j (j > k) is zero at every pivot but its own, so clearing them
    from row k, last first, leaves the coefficient of R_j at its forward
    value: R_k[F] = row_k[F] - sum_{j>k} row_k[p_j] R_j[F].  Each term
    adds at most (p-1)^2 to a slot, as an elimination does.
    """
    stored = []  # (bit offset of the pivot slot, packed row with pivot 1)
    forward = []  # the same rows, unpacked
    pivots, accepted = [], []
    seen = set()  # a repeated row never enlarges the row space
    for i, row in enumerate(rows):
        if len(stored) == ncols:
            break
        row = tuple(row)
        if row in seen:
            continue
        seen.add(row)
        vals = _reduce_mod_p(_pack([x % p for x in row]), stored, p, ncols)
        col = next((j for j, x in enumerate(vals) if x), None)
        if col is None:
            continue
        inv = pow(vals[col], -1, p)
        vals = [x * inv % p for x in vals]
        stored.append((64 * col, _pack(vals)))
        forward.append(vals)
        pivots.append(col)
        accepted.append(i)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    kernel = [[0] * ncols for _ in free]
    for v, f in zip(kernel, free):
        v[f] = 1
    if not free:
        return accepted, kernel
    reduced = [0] * len(pivots)  # R_k[F], packed
    for k in range(len(pivots) - 1, -1, -1):
        row = forward[k]
        v = _pack([row[f] for f in free])
        for q, r in zip(pivots[k + 1:], reduced[k + 1:]):
            c = row[q]
            if c:
                v += (p - c) * r
        vals = [x % p for x in _unpack(v, len(free))]
        reduced[k] = _pack(vals)
        for vec, x in compress(zip(kernel, vals), vals):
            vec[pivots[k]] = p - x
    return accepted, kernel


def echelon_mod_p_full_width(rows, ncols, p):
    """``echelon_mod_p`` as it was before its back-substitution
    ran on the free columns alone: every stored row, last first, is
    cleared of the later pivots at full width, and the kernel is read off
    the reduced rows.  Returns ``(accepted, kernel)`` as that does."""
    stored = []  # (bit offset of the pivot slot, packed row with pivot 1)
    pivots, accepted = [], []
    seen = set()
    for i, row in enumerate(rows):
        if len(stored) == ncols:
            break
        row = tuple(row)
        if row in seen:
            continue
        seen.add(row)
        vals = _reduce_mod_p(_pack([x % p for x in row]), stored, p, ncols)
        col = next((j for j, x in enumerate(vals) if x), None)
        if col is None:
            continue
        inv = pow(vals[col], -1, p)
        stored.append((64 * col, _pack([x * inv % p for x in vals])))
        pivots.append(col)
        accepted.append(i)
    reduced = []
    for k in range(len(stored) - 1, -1, -1):
        vals = _reduce_mod_p(stored[k][1], stored[k + 1:], p, ncols)
        stored[k] = stored[k][0], _pack(vals)
        reduced.append(vals)
    reduced.reverse()
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for q, row in zip(pivots, reduced):
            if row[f]:
                v[q] = p - row[f]
        kernel.append(v)
    return accepted, kernel


def green_classes(table):
    """The R-, L- and J-class of each element by definition, as frozensets:
    x R y when xM = yM, x L y when Mx = My, x J y when MxM = MyM, each
    ideal formed product by product."""
    n = len(table)
    right = [frozenset(table[x]) for x in range(n)]
    left = [frozenset(table[y][x] for y in range(n)) for x in range(n)]
    two = [frozenset(table[y][z] for y in range(n) for z in right[x]) for x in range(n)]
    return [[frozenset(y for y in range(n) if ideal[y] == ideal[x]) for x in range(n)]
            for ideal in (right, left, two)]


def green_rows(table):
    """Every row x -> [r*x*l = e] of the radical's description, by
    definition, as bytes: e the least idempotent of a J-class that has
    one, r in the R-class of e and l in its L-class."""
    n = len(table)
    r_class, l_class, j_class = green_classes(table)
    first = {j_class[e]: e for e in reversed(range(n)) if table[e][e] == e}
    return [bytes(table[table[r][x]][l] == e for x in range(n))
            for e in first.values() for r in sorted(r_class[e]) for l in sorted(l_class[e])]


def generated(table, identity, gens):
    """The submonoid generated by gens: set-based closure under products."""
    elems = {identity, *gens}
    while True:
        new = {table[a][b] for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def is_associative(table):
    """Whether (x*y)*z = x*(y*z) for every triple: for each pair x, y,
    row x*y against row y read through row x, at every z."""
    n = len(table)
    return all(list(table[table[x][y]]) == [table[x][c] for c in table[y]]
               for x, y in product(range(n), repeat=2))


def units_two_sided(table, e, eme):
    """The units of eMe by definition: each g with g*h = e = h*g for
    some h in eMe, searched pair by pair."""
    return tuple(g for g in eme if any(table[g][h] == e == table[h][g] for h in eme))


def matmul(a, b, ncols=None):
    """Product of matrices given as nested lists; ``ncols`` is the column
    count of b, needed only when b has no rows."""
    ncols = len(b[0]) if b else ncols
    return [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))),
                 Fraction(0))
             for j in range(ncols)] for i in range(len(a))]


def mat_add(a, b):
    return [[Fraction(x) + Fraction(y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def trace(a):
    return sum((Fraction(a[i][i]) for i in range(len(a))), Fraction(0))


def mat_vec(a, v):
    return [sum((Fraction(x) * Fraction(y) for x, y in zip(row, v)), Fraction(0))
            for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def is_homomorphism(monoid, mats):
    """Whether mats (nested lists, one per element) send the identity to I
    and every product x*y to the product of the matrices."""
    n, dim = monoid.size, len(mats[monoid.identity])
    if [[Fraction(x) for x in row] for row in mats[monoid.identity]] != identity(dim):
        return False
    return all(matmul(mats[x], mats[y]) == [[Fraction(v) for v in row]
                                            for row in mats[monoid.table[x][y]]]
               for x in range(n) for y in range(n))


def zero_representation(m: Monoid):
    """The representation of m on the zero space: every element acting
    as the 0x0 matrix."""
    return Representation(m, [Matrix.identity(0)] * m.size)


def sym_power_direct(rho, d):
    """Degree-d symmetric power, every column expanded from scratch.

    The basis is every exponent tuple of length dim summing to d, in
    descending lex order.  The column at x^alpha expands
    prod_j (m . x_j)^(alpha_j), where m . x_j is the linear form given by
    column j of the element matrix, one linear factor at a time as a
    sparse polynomial {exponent tuple: coefficient}.
    """
    n = rho.dim
    basis = sorted((a for a in product(range(d + 1), repeat=n) if sum(a) == d),
                   reverse=True)
    pos = {mono: k for k, mono in enumerate(basis)}
    dim = len(basis)
    mats = []
    for mat in rho.matrices:
        forms = [[(i, mat[i][j]) for i in range(n) if mat[i][j]] for j in range(n)]
        rows = [[0] * dim for _ in range(dim)]
        for k, alpha in enumerate(basis):
            acc = {(0,) * n: 1}
            for form, a in zip(forms, alpha):
                for _ in range(a):
                    nxt = {}
                    for mono, c in acc.items():
                        for i, entry in form:
                            key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                            nxt[key] = nxt.get(key, 0) + c * entry
                    acc = nxt
            for mono, c in acc.items():
                if c:
                    rows[pos[mono]][k] = c
        mats.append(Matrix(rows, ncols=dim))
    return Representation(rho.monoid, mats, check=False)


def sym_power_entries(mat, n, d):
    """Degree-d symmetric power of the n x n matrix ``mat``, entry by
    entry from its definition, as nested lists.

    Monomials are sorted tuples of variables, in the order
    ``combinations_with_replacement`` lists them.  Entry (p, q) is the
    coefficient of monomial p in prod_{j in q} sum_i mat[i][j] x_i:
    expanding the product picks one variable s_k from each factor q_k,
    so it is the sum, over the distinct orderings s of p, of
    prod_k mat[s_k][q_k].
    """
    monos = list(combinations_with_replacement(range(n), d))
    orderings = [set(permutations(p)) for p in monos]
    a = [list(row) for row in mat]
    return [[sum(prod(a[i][j] for i, j in zip(s, q)) for s in orders) for q in monos]
            for orders in orderings]


def tensor_chain_steps(rho, kmax, first=0):
    """Yield (k, dim Ann, stored echelon rows) for k = first..kmax of the
    tensor chain F_{k+1} = F_k + D_k * E_1, inserting every product of a
    step in turn, repeats and zero products included."""
    n = rho.monoid.size
    acc = Echelon(n)
    new = [[1] * n]
    if first == 0:
        acc.insert(new[0])
        yield 0, n - acc.rank, list(acc.int_rows)
    e1 = Echelon(n)  # spans E_1: the coefficient functions
    for i in range(rho.dim):
        for j in range(rho.dim):
            e1.insert([m[i][j] for m in rho.matrices])
    for k in range(1, kmax + 1):
        products = ([a * b for a, b in zip(d, g)] for d in new for g in e1.int_rows)
        new = [v for v in products if acc.rank < n and acc.insert(v)]
        yield k, n - acc.rank, list(acc.int_rows)


def first_associativity_failure(table, gens):
    """The first triple (x, a, y), x outer, a over ``gens``, y inner, with
    (x*a)*y != x*(a*y), or None."""
    n = len(table)
    for x in range(n):
        for a in gens:
            for y in range(n):
                if table[table[x][a]][y] != table[x][table[a][y]]:
                    return x, a, y
    return None


def closure_all_pairs(identity, generators, mul, cap=None):
    """Elements generated under ``mul`` in breadth-first discovery order,
    and their table with every one of the |M|^2 products formed; raises
    once more than ``cap`` appear, the identity and the generators
    counted too."""
    elements = [identity]
    index = {identity: 0}
    for g in generators:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
    if cap is not None and len(elements) > cap:
        raise ValueError(f"cap exceeded: more than {cap} distinct elements")
    pos = 0
    while pos < len(elements):
        a = elements[pos]
        pos += 1
        for g in generators:
            c = mul(a, g)
            if c not in index:
                if cap is not None and len(elements) >= cap:
                    raise ValueError(f"cap exceeded: more than {cap} distinct elements")
                index[c] = len(elements)
                elements.append(c)
    table = tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)
    return elements, table


def validate_pair_by_pair(rho):
    """Representation validation one matrix product per pair (x, g), x
    outer and the generators g inner, raising the first failure."""
    m = rho.monoid
    if rho.matrices[m.identity] != Matrix.identity(rho.dim):
        raise ValueError("identity element does not map to the identity matrix")
    for a in range(m.size):
        for g in m.generators:
            if rho.matrices[a] * rho.matrices[g] != rho.matrices[m.table[a][g]]:
                raise ValueError(
                    f"not a homomorphism: matrices at the pair ({a}, {g}) "
                    f"do not multiply to the matrix at {m.table[a][g]}")
    return rho


def weighted_sum(mats, coeffs):
    """sum_i coeffs[i] * mats[i] over ``Matrix`` values of one shape, entry
    by entry, as a tuple of row tuples."""
    return tuple(tuple(sum(c * x for c, x in zip(coeffs, entries))
                       for entries in zip(*rows))
                 for rows in zip(*(m.rows for m in mats)))


def span_subspace(n, vectors):
    """The span of ``vectors`` in Q^n, as the kernel of the plain
    Gauss-Jordan null space of the vectors, cleared to integer rows."""
    rows = []
    for v in null_space(vectors, n):
        d = lcm(*(x.denominator for x in v))
        rows.append(tuple(x.numerator * (d // x.denominator) for x in v))
    return Subspace(n, rows, n - len(rows))


def same_space(a: Subspace, b: Subspace):
    """Whether a and b are one subspace: the same ambient space, and
    each contained in the other."""
    return a.ambient == b.ambient and a <= b and b <= a


def inverse(a: Matrix) -> Matrix:
    """Inverse, read off the RREF of [A | I]: A is invertible exactly
    when that form has its pivots in the first n columns, and then its
    right block is the inverse.  Raises on singular input."""
    if not a.is_square:
        raise ValueError("only square matrices can be inverted")
    n = a.nrows
    ech = Echelon(2 * n, (row + tuple(int(i == j) for j in range(n))
                          for i, row in enumerate(a.rows)))
    if ech.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(tuple(row[n:] for row in ech.rows), ncols=n)


def matrix_representation(m: Monoid, generators) -> Representation:
    """The defining representation of ``from_matrices(generators)``: the
    closure of the generators found again by ``closure_all_pairs``, in
    the same element order, whose table must be m's."""
    gens = [Matrix(g) for g in generators]
    elements, table = closure_all_pairs(Matrix.identity(gens[0].nrows), gens, Matrix.__mul__)
    if table != m.table:
        raise ValueError("the generators do not generate this monoid")
    return Representation(m, elements, check=True)


def regular_representation(m: Monoid) -> Representation:
    """Left multiplication on the monoid basis; always faithful.  Element
    x sends basis vector e_j to e_(x*j), read off row x of the table."""
    n, mats = m.size, []
    for row in m.table:
        rows = [[0] * n for _ in range(n)]
        for j, xj in enumerate(row):
            rows[xj][j] = 1
        mats.append(Matrix(rows, n))
    return Representation(m, mats, check=False)


def submonoid(m: Monoid, members, identity) -> Monoid:
    """Monoid structure on a product-closed subset of m.

    ``members`` must be closed under the ambient product and contain
    ``identity`` acting as a two-sided identity on it.  Labels are
    inherited.  Returns the new monoid; its element i corresponds to
    sorted(members)[i] in the parent.
    """
    members = tuple(sorted(set(members)))
    pos = {x: i for i, x in enumerate(members)}
    if identity not in pos:
        raise ValueError("identity must belong to the subset")
    table = []
    for a in members:
        row = []
        for b in members:
            c = pos.get(m.table[a][b])
            if c is None:
                raise ValueError(
                    f"subset is not closed: {a}*{b} = {m.table[a][b]} is outside")
            row.append(c)
        table.append(row)
    return Monoid(table, pos[identity], labels=[m.labels[x] for x in members])


def monomial_basis(n, d):
    """Exponent tuples of length n summing to d, in descending lex order.

    For n = 2, d = 2 this is (2,0), (1,1), (0,2) -- i.e. x1^2, x1 x2,
    x2^2.  The count is C(n+d-1, d).  These are the sorted variable
    tuples ``combinations_with_replacement(range(n), d)``, here (0,0),
    (0,1), (1,1), in their order, each counted into its exponents: the
    order of the package's symmetric-power columns.
    """
    return [tuple(map(c.count, range(n))) for c in combinations_with_replacement(range(n), d)]


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
    ech = Echelon(rho.dim, zip(*pe.rows))  # the columns of rho(e)
    basis = ech.rows
    pivots = list(ech.pivots)
    k = len(basis)
    mats = []
    for x in members:
        mx = rho.matrices[x]
        rows = [[0] * k for _ in range(k)]
        for j, b in enumerate(basis):
            w = tuple(sum(u * v for u, v in zip(row, b)) for row in mx.rows)
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


class MonoidMorphism:
    """A map between monoids, validated to respect products and identity.

    Products are checked as phi(a*g) = phi(a)phi(g) for every a and every
    generator g of the source.  That suffices: if b and c pass for all a,
    so does b*c, since phi(a(bc)) = phi((ab)c) = phi(ab)phi(c)
    = phi(a)phi(b)phi(c) = phi(a)phi(bc), the last step by c passing at b.
    """

    def __init__(self, source: Monoid, target: Monoid, mapping):
        mapping = tuple(mapping)
        if len(mapping) != source.size:
            raise ValueError("mapping length differs from source size")
        if any(not 0 <= x < target.size for x in mapping):
            raise ValueError("mapping hits an index outside the target")
        if mapping[source.identity] != target.identity:
            raise ValueError("mapping does not send identity to identity")
        for a in range(source.size):
            for g in source.generators:
                if mapping[source.table[a][g]] != target.table[mapping[a]][mapping[g]]:
                    raise ValueError(
                        f"mapping is not multiplicative at the pair ({a}, {g})")
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, x):
        return self.mapping[x]

    def __repr__(self):
        return f"MonoidMorphism({self.source!r} -> {self.target!r})"


def is_li_morphism(phi: MonoidMorphism):
    """Whether phi separates each idempotent e from the rest of eMe.

    Returns (True, None), or (False, (e, x)) for the first idempotent e
    and element x in eMe with x != e but phi(x) = phi(e).
    """
    src = phi.source
    for e in idempotents(src):
        fe = phi.mapping[e]
        for x in local_monoid(src, e):
            if x != e and phi.mapping[x] == fe:
                return False, (e, x)
    return True, None


def character_kernel(rho: Representation):
    """Elements whose character value equals the dimension.

    Computed twice, independently: as {x : trace = dim} and as
    {x : matrix = I}.  The two sets coincide for every representation
    over a characteristic-zero field; a mismatch means the arithmetic
    itself is broken, so it raises rather than returning.
    """
    by_trace = tuple(x for x, mat in enumerate(rho.matrices)
                     if mat.trace() == rho.dim)
    ident = Matrix.identity(rho.dim)
    by_matrix = tuple(x for x, mat in enumerate(rho.matrices) if mat == ident)
    if by_trace != by_matrix:
        raise RuntimeError(
            f"character kernel mismatch: trace route {by_trace} vs "
            f"matrix route {by_matrix}")
    return by_trace
