"""Exact dense linear algebra over the rationals.

A matrix entry is a Python ``int`` when its value is an integer and a
``fractions.Fraction`` only when it is not, so integral matrices multiply
in integers alone.  Echelon reduction takes rational input but eliminates
in Python integers (fraction-free, by cross-multiplication, over the
nonzero columns of each pivot row) and divides only for its canonical
reduced form, whose entries are canonical as a matrix's are.  No
elimination runs modulo a prime.
Univariate polynomials keep the same canonical form; a polynomial is
false when it is zero, and ``str`` prints it as "t^2 - 2t + 1".  One Newton
recurrence turns power sums p into the complete homogeneous symmetric
functions h; the elementary ones, and with them every characteristic
polynomial, are h of -p, since e_k(p) = (-1)^k h_k(-p).  That is the one
characteristic-polynomial algorithm: ``charpoly`` runs it on the traces
of a matrix's powers.  Every quotient goes through ``_div``, which gives
an int when it divides exactly, so integral input stays in ints and
rational input falls back to ``Fraction``.  There is no floating point
anywhere; every result is exact.

Integral is the common case even for rational matrices.  In a finite
monoid every element x has x^a = x^(a+p) for some a and p, so each
eigenvalue of a matrix representing x is 0 or a root of unity.  Its
characteristic polynomial, its power traces and its symmetric-power
traces h_d are therefore rational algebraic integers, that is integers.

Matrices and polynomials are immutable once constructed, so all functions
here are safe to call from multiple threads.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm
from operator import mul


_INT = frozenset((int,))


def clear_denominators(vec):
    """``vec`` times the least common multiple of its denominators, as a
    list of ints spanning the same line."""
    if _INT.issuperset(map(type, vec)):
        return list(vec)
    q = [_exact(x) for x in vec]
    d = lcm(*(x.denominator for x in q))
    return [x.numerator * (d // x.denominator) for x in q]


def _exact(x):
    """The canonical form of an int, a "p/q" string or a Fraction: an int
    when the value is an integer, otherwise a Fraction.  Anything else,
    a float included, is refused."""
    if type(x) is int:
        return x
    if isinstance(x, (int, str)):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    return x.numerator if x.denominator == 1 else x


def _div(a, b):
    """The exact quotient a / b in canonical form: an int when both are
    ints and b divides a, otherwise the value as ``_exact`` gives it.
    Never a float: ``Fraction`` refuses a float operand."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a, b))


def _canonical(rows):
    """``rows`` as a tuple of tuples of canonical entries; all-int rows
    pass after one scan of the entry types, with nothing coerced."""
    rows = tuple(map(tuple, rows))
    if _INT.issuperset(map(type, chain.from_iterable(rows))):
        return rows
    return tuple(tuple(map(_exact, row)) for row in rows)


class Matrix:
    """Immutable dense matrix with exact rational entries.

    Entries are canonical: an entry whose value is an integer is a Python
    ``int``, and only an entry that is not an integer is a ``Fraction``.
    The constructor is the one way to build a matrix: it normalises its
    input (ints, "p/q" strings and Fractions are accepted), and products,
    ``identity`` and ``zero`` pass their results through it too.  An
    all-int input costs one scan of its entry types and is coerced
    nowhere, so integral data never forms a ``Fraction``, while rational
    data keeps exact ``Fraction`` arithmetic.  A matrix multiplies only a
    matrix: there is no scalar product, sum or transpose.  Equality and
    hashing do not depend on the form of an entry, since
    ``2 == Fraction(2)`` and both hash alike.

    Entries are stored as a tuple of row tuples; ``m[i]`` is row ``i``.
    Empty matrices (0 rows and/or 0 columns) are allowed.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        self.rows = _canonical(rows)
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(row) != self.ncols for row in self.rows):
                raise ValueError("matrix rows have unequal lengths")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(((0,) * ncols,) * nrows, ncols)

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                         for row in self.rows)
        return f"Matrix([{body}])" if self.ncols or self.nrows else "Matrix([])"

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        cols = tuple(zip(*other.rows)) if other.rows else ((),) * other.ncols
        return Matrix([tuple(sum(map(mul, row, col)) for col in cols)
                       for row in self.rows], other.ncols)

    def trace(self):
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return sum(row[i] for i, row in enumerate(self.rows))


def _eliminate(v, row, cols, p):
    """(a/g)*v - (c/g)*row for a = row[p] > 0, c = v[p] and g = gcd(a, c):
    a positive integer multiple of v modulo row, with entry 0 at column p.
    ``cols`` lists the columns where ``row`` is nonzero; only they change,
    besides the scaling of v by a/g when a does not divide c.  Updates the
    list v in place when no scaling is needed, and returns the result."""
    a, c = row[p], v[p]
    g = gcd(a, c)
    c //= g
    if a != g:
        a //= g
        v = [a * x for x in v]
    for j in cols:
        v[j] -= c * row[j]
    return v


class Echelon:
    """A row space accumulated one vector at a time, in integers.

    ``Echelon(ncols, rows)`` inserts ``rows`` in order, and reads none
    after the one that makes the rank ``ncols``: none could enlarge the
    space.
    The stored rows ``int_rows`` are primitive integer vectors (content 1,
    leading entry positive) in row echelon form, not reduced, ordered by
    pivot column.  ``insert`` clears a vector's denominators with one
    common multiple and eliminates by cross-multiplication, so no
    ``Fraction`` arises and every result is exact over Q; it never
    touches a stored row, so ``copy`` is an O(rank) snapshot.

    Next to each stored row sits the tuple of columns where it is
    nonzero, from its pivot on, built once by ``insert``.  Clearing a
    pivot updates only those columns of the vector being reduced (the
    whole vector is rescaled only when the pivot entry does not divide
    it), so a sparse row costs its nonzeros, not the ambient dimension.
    The coefficient spans of the annihilator chains are sparse: their
    vectors are entrywise products of matrix entries over the monoid,
    zero wherever one factor is, and a transformation monoid's matrices
    are mostly zero.  The pivots, stored rows and every intermediate
    value are those of dense elimination.

    ``rows`` is the canonical reduced row echelon form (pivot entry 1,
    canonical entries), derived from the stored rows on first read and
    cached until the next insert that enlarges the space.  Building an
    echelon from the rows of a matrix and reading ``rows`` therefore
    yields its RREF without ever materialising the matrix.
    """

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.pivots = []
        self.int_rows = []
        self._cols = []  # nonzero columns of each stored row
        self._rref = None
        for v in rows:
            if self.insert(v) and self.rank == ncols:
                break

    @property
    def rank(self):
        return len(self.int_rows)

    def copy(self):
        """An independent snapshot in O(rank): stored rows are tuples and
        ``insert`` never replaces one, so they can be shared."""
        out = Echelon(self.ncols)
        out.pivots = list(self.pivots)
        out.int_rows = list(self.int_rows)
        out._cols = list(self._cols)
        out._rref = self._rref
        return out

    def reduce(self, vec):
        """A nonzero integer multiple of ``vec``'s residual modulo the
        stored rows, as a list of ints: zero exactly when ``vec`` lies in
        the row space, and zero at every pivot column."""
        if len(vec) != self.ncols:
            raise ValueError("vector length differs from ambient dimension")
        v = clear_denominators(vec)
        for p, row, cols in zip(self.pivots, self.int_rows, self._cols):
            if v[p]:
                v = _eliminate(v, row, cols, p)
        return v

    def contains(self, vec):
        return not any(self.reduce(vec))

    def insert(self, vec):
        """Add ``vec`` to the row space; True if it enlarged the space."""
        v = self.reduce(vec)
        p = next(compress(count(), v), None)  # the first nonzero column
        if p is None:
            return False
        g = gcd(*v)
        if v[p] < 0:
            g = -g
        row = tuple(v) if g == 1 else tuple(x // g for x in v)
        k = bisect_left(self.pivots, p)
        self.pivots.insert(k, p)
        self.int_rows.insert(k, row)
        self._cols.insert(k, tuple(compress(range(p, self.ncols), row[p:])))
        self._rref = None
        return True

    @property
    def rows(self):
        """The canonical RREF rows, with pivot 1: tuples of canonical
        entries, an ``int`` wherever the value is an integer."""
        if self._rref is None:
            done = []  # (pivot, reduced primitive row, its nonzero columns)
            for p, row in zip(reversed(self.pivots), reversed(self.int_rows)):
                v = list(row)
                for q, r, cols in done:
                    if v[q]:
                        v = _eliminate(v, r, cols, q)
                g = gcd(*v)
                v = [x // g for x in v]
                done.append((p, v, tuple(compress(range(p, self.ncols), v[p:]))))
            self._rref = tuple(tuple(_div(x, v[p]) for x in v)
                               for p, v, _ in reversed(done))
        return self._rref

    def kernel_basis(self):
        """Canonical kernel basis of the accumulated constraint rows.

        One vector per free column, free columns in ascending order; the
        vector for free column f has entry 1 there and the negated RREF
        pivot row entries elsewhere.
        """
        pivot_set = set(self.pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = [0] * self.ncols
            v[f] = 1
            for p, row in zip(self.pivots, self.rows):
                if row[f]:
                    v[p] = -row[f]
            basis.append(tuple(v))
        return basis


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, left factor major.

    Row (i, k) and column (j, l) of the result, with the pairs flattened
    row-major, hold a[i][j] * b[k][l].
    """
    return Matrix([tuple(x * y for x in arow for y in brow)
                   for arow in a.rows for brow in b.rows], a.ncols * b.ncols)


class Polynomial:
    """Univariate polynomial over the rationals, coefficients by degree.

    Coefficients are canonical, as ``Matrix`` entries are: an ``int``
    wherever the value is an integer and a ``Fraction`` only where it is
    not.  The constructor accepts ints, "p/q" strings and Fractions;
    ``p[i]`` answers in the same form, and division goes through
    ``_div``, so integral polynomials compute in ints alone.
    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    def __init__(self, coeffs=()):
        c = list(map(_exact, coeffs))
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # p[i] answers past the degree, so iterating would never end
    __iter__ = None

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        # Degree first, then lexicographic on coefficients; only used to
        # order polynomial sets deterministically in reports.
        return (len(self.coeffs), self.coeffs) < (len(other.coeffs), other.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        """Human-readable form like "t^2 - 2t + 1"."""
        if not self:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if not c:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                if mag == 1:
                    coeff = ""
                elif mag.denominator == 1:
                    coeff = str(mag)
                else:
                    coeff = f"({mag})"
                body = f"{coeff}t" if i == 1 else f"{coeff}t^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self[i] + other[i] for i in range(n)))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _exact(other)
            return Polynomial(tuple(c * x for x in self.coeffs))
        if not (self and other):
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    def __divmod__(self, other):
        """(q, r) with self = q * other + r and deg r < deg other.  Each
        quotient degree k, from the top, clears ``rem[k + d]``, so the
        remainder is the low d coefficients left."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        b, d = other.coeffs, other.degree
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - d, 0)
        for k in reversed(range(len(q))):
            c = q[k] = _div(rem[k + d], b[-1])
            for i, x in enumerate(b):
                rem[k + i] -= c * x
        return Polynomial(q), Polynomial(rem[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self:
            return self
        lead = self.coeffs[-1]
        return Polynomial(tuple(_div(c, lead) for c in self.coeffs))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while b:
        a, b = b, a % b
    return a.monic()


def power_traces(m: Matrix, k: int):
    """(trace(m), trace(m^2), ..., trace(m^k)) by repeated multiplication;
    empty for k = 0."""
    if not m.is_square:
        raise ValueError("power traces need a square matrix")
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = []
    mk = m
    for i in range(k):
        if i:
            mk = mk * m
        out.append(mk.trace())
    return tuple(out)


def complete_homogeneous_sequence(p, d: int):
    """[h_0, ..., h_d] of any value multiset whose power sums are p[0], p[1], ...

    Uses the Newton identity k*h_k = sum_{i=1..k} p_i h_{k-i} with h_0 = 1,
    so it needs the first d power sums and characteristic zero, nothing
    else.  Integral power sums give ints throughout: h_k is then an
    integer whenever it is the h_k of a multiset of algebraic integers,
    as for the eigenvalues of a finite monoid's element.  Otherwise a
    quotient that is not an integer falls back to ``Fraction``.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if len(p) < d:
        raise ValueError(f"need {d} power sums, got {len(p)}")
    p = [_exact(x) for x in p[:d]]
    h = [1]
    for k in range(1, d + 1):
        s = sum(p[i - 1] * h[k - i] for i in range(1, k + 1))
        h.append(_div(s, k))
    return h


def charpoly_from_power_traces(p, n: int) -> Polynomial:
    """Monic degree-n polynomial whose roots have power sums p[0..n-1].

    The coefficient of t^(n-k) is (-1)^k e_k, which is h_k of the negated
    power sums: negating every power sum inverts the generating function
    H(t) of the h_k, and 1/H(t) = E(-t).  So one Newton recurrence,
    ``complete_homogeneous_sequence``, gives every coefficient.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if len(p) < n:
        raise ValueError(f"need {n} power traces, got {len(p)}")
    return Polynomial(reversed(complete_homogeneous_sequence([-_exact(x) for x in p[:n]], n)))


def charpoly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(tI - m), monic of degree n.

    Read off the power traces tr(m), ..., tr(m^n) by
    ``charpoly_from_power_traces``, the one characteristic-polynomial
    algorithm here.  Each h_k of the negated traces is (-1)^k e_k, an
    integer on integral input, so the recurrence's exact divisions stay
    in ints there, and rational input stays exact.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    return charpoly_from_power_traces(power_traces(m, m.nrows), m.nrows)
