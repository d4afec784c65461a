"""Finite monoids as Cayley tables.

A monoid is stored as an n x n multiplication table over element indices
0..n-1 together with the index of the identity.  Constructors are provided
for raw tables, transformation monoids (closure of self-maps of a finite
set), matrix monoids (closure of exact rational matrices) and the family
N_t = {0, 1, ..., t} in which 1 is the identity and every product of two
non-identity elements is 0.

Element order is deterministic everywhere: the identity first, then the
generators in the order given, then new elements in breadth-first
discovery order.  All structure queries (idempotents, local monoids eMe,
unit groups G_e, their ideals I_e, zero elements, the R-, L- and
J-classes of ``j_classes``) work on any Monoid, and each reads the table
by its definition: eMe is the x with e*x = x = x*e, G_e the x in eMe
whose row holds e, and I_e the rest of eMe.

Every Monoid carries a generating set A: every element is a left-normed
product of generators.  The monoid laws and representations are checked
against A only, which is exact by Light's associativity test
(Clifford & Preston, Algebraic Theory of Semigroups I, section 1.2).
Call b good when (x*b)*y = x*(b*y) for all x, y.  The identity is good,
and if b and c are good then so is b*c:
(x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y).  So checking every
generator checks every element, at |M|^2 |A| lookups instead of |M|^3.
Up to 256 elements the rows are read as bytes and each x is checked in
one translate pass: the generator rows, joined and read through row x,
must be the joined rows x*a for every generator a.  The loop over a and
y runs only for the first x that fails, to name the triple, or for every
x of a larger table.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .linalg import _INT, Matrix


def _require_int(v, what):
    """Raise unless v is a Python int; bool subclasses int, but JSON
    true/false are not integers."""
    if isinstance(v, bool) or not isinstance(v, int):
        shown = str(v).lower() if isinstance(v, bool) else repr(v)
        raise ValueError(f"{what} must be an integer, not {shown}")


def _require_sequence(v, what):
    """``v`` as a tuple; raise if it is not a sequence (a JSON array)."""
    try:
        return tuple(v)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, not {v!r}") from None


class Monoid:
    """A finite monoid: multiplication table, identity index, labels.

    The table is validated on construction: the identity law is checked
    for every element, and associativity by Light's test against the
    generating set ``generators``, reporting the first violation found.
    Instances are immutable in use; all queries are pure.
    """

    def __init__(self, table, identity, labels=None, transformations=None):
        table = tuple(_require_sequence(row, f"table row {a}")
                      for a, row in enumerate(table))
        n = len(table)
        if n == 0:
            raise ValueError("a monoid needs at least the identity element")
        for a, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"table row {a} has length {len(row)}, expected {n}")
            if _INT.issuperset(map(type, row)) and 0 <= min(row) and max(row) < n:
                continue
            for b, c in enumerate(row):  # name the first bad entry
                if type(c) is not int:
                    _require_int(c, f"table entry [{a}][{b}]")
                if not 0 <= c < n:
                    raise ValueError(f"table entry [{a}][{b}] = {c!r} is out of range")
        _require_int(identity, "identity index")
        if not 0 <= identity < n:
            raise ValueError(f"identity index {identity!r} is out of range")
        for a in range(n):
            if table[identity][a] != a or table[a][identity] != a:
                raise ValueError(f"identity law fails at element {a}")
        gens = _generating_set(table, identity)
        xs = range(n)
        if n <= 256:
            # rows as bytes, padded into translate tables: read through row
            # x, the generators give x*a and their joined rows x*(a*y) for
            # every a and y, which must be the joined rows x*a, in a few
            # C-level passes per x; the loop below names the first failing triple
            rows, pad = [bytes(row) for row in table], bytes(256 - n)
            joined, ga = b"".join([rows[a] for a in gens]), bytes(gens)
            xs = [x for x, tx in enumerate([row + pad for row in rows]) if
                  joined.translate(tx) != b"".join(map(rows.__getitem__, ga.translate(tx)))][:1]
        # row x of y -> x*(a*y) is row x read through row a, in C; a
        # one-element monoid has no generators, so every row has length >= 2
        # here and its itemgetter returns a tuple
        through = [(a, itemgetter(*table[a])) for a in gens] if xs else ()
        for x in xs:
            tx = table[x]
            for a, through_a in through:
                if table[tx[a]] != through_a(tx):
                    txa, ta = table[tx[a]], table[a]
                    y = next(y for y in range(n) if txa[y] != tx[ta[y]])
                    raise ValueError(
                        f"associativity fails at triple ({x}, {a}, {y}): "
                        f"({x}*{a})*{y} = {txa[y]} but {x}*({a}*{y}) = {tx[ta[y]]}")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(map(str, _require_sequence(labels, "labels")))
            if len(labels) != n:
                raise ValueError("label count differs from monoid size")
            if len(set(labels)) < n:
                repeat = next(x for i, x in enumerate(labels) if x in labels[:i])
                raise ValueError(f"label {repeat!r} is repeated")
        self.table = table
        self.identity = identity
        self.generators = gens
        self.labels = labels
        self.transformations = transformations

    @property
    def size(self):
        return len(self.table)

    def index_of_label(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ValueError(f"no element labelled {label!r}") from None

    def __repr__(self):
        return f"Monoid(size={self.size}, identity={self.identity})"

    def __eq__(self, other):
        return (isinstance(other, Monoid) and self.table == other.table
                and self.identity == other.identity)


def _generating_set(table, identity):
    """Indices A whose left-normed products reach every element.

    Takes the first element not yet reached, until every element is.  The
    reached set (the identity, closed under right multiplication by A)
    grows incrementally: each element is multiplied by each generator
    once, so the cost is O(|M| |A|) lookups.
    """
    n = len(table)
    inside = [False] * n
    inside[identity] = True
    members = [identity]
    gens = []

    def add(g):
        gens.append(g)
        old = len(members)
        for i in range(old):
            y = table[members[i]][g]
            if not inside[y]:
                inside[y] = True
                members.append(y)
        pos = old
        while pos < len(members):
            row = table[members[pos]]
            pos += 1
            for a in gens:
                y = row[a]
                if not inside[y]:
                    inside[y] = True
                    members.append(y)

    for g in range(n):
        if len(members) == n:
            break
        if not inside[g]:
            add(g)
    return tuple(gens)


class CapExceeded(ValueError):
    """Raised by a closure that finds more than ``cap`` elements."""

    def __init__(self, cap):
        super().__init__(f"cap exceeded: more than {cap} distinct elements")
        self.cap = cap


def _closure(identity, generators, mul, cap=None):
    """Elements generated under ``mul``, in the element order described
    above, and their table (``_closure_rows``); raises ``CapExceeded``
    once more than ``cap`` appear, the identity and the generators
    counted too, which stops the element search before any row is built.

    Only products with a generator are formed, as in Froidure & Pin,
    "Algorithms for computing finite semigroups" (1997): the |M| |A|
    products x*g that find the elements here, and the |M| |A| products
    g*y of the rows' left Cayley graph.
    """
    elements, index = [], {}

    def add(c):
        if c not in index:
            if cap is not None and len(elements) >= cap:
                raise CapExceeded(cap)
            index[c] = len(elements)
            elements.append(c)

    for c in (identity, *generators):
        add(c)
    pos = 0
    while pos < len(elements):
        a = elements[pos]
        pos += 1
        for g in generators:
            add(mul(a, g))
    return elements, _closure_rows(elements, index, generators, mul)


def _closure_rows(elements, index, generators, mul):
    """The table of the closure's elements, from the left Cayley graph
    ``left[k][y]`` = g_k*y.  Each element x other than the identity is
    g_k*q for some q reached before it in a breadth-first search of that
    graph, and by associativity x*y = g_k*(q*y), so row x of the table is
    row q read through ``left[k]``, one C-level pass per row; row 0 (the
    identity) is 0..n-1.  Only the rows are held, not a second copy of
    the table."""
    left = [[index[mul(g, y)] for y in elements] for g in dict.fromkeys(generators)]
    rows = [None] * len(elements)
    rows[0] = tuple(range(len(elements)))
    reached = [0]
    for q in reached:
        for left_k in left:
            x = left_k[q]
            if rows[x] is None:
                rows[x] = tuple(map(left_k.__getitem__, rows[q]))
                reached.append(x)
    return tuple(rows)


def _compose(f, g):
    # apply g first, then f, so that the natural 0/1 matrices multiply
    # in the same order as the monoid product
    return tuple(map(f.__getitem__, g))


def _one_line_label(f):
    return "[" + ",".join(str(x + 1) for x in f) + "]"


def from_transformations(degree, generators, cap=None) -> Monoid:
    """Closure of self-maps of {1..degree} under composition.

    Generators are given as sequences of 1-based images, e.g. (2, 3, 1)
    for the 3-cycle.  The product f*g acts as "g then f".  Elements are
    labelled in one-line notation "[2,3,1]".  Raises when more than
    ``cap`` maps appear, if a cap is given.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    gens = []
    for k, g in enumerate(generators):
        g = _require_sequence(g, f"generator {k}")
        for x in g:
            _require_int(x, f"generator {k} image")
        if len(g) != degree or any(not 1 <= x <= degree for x in g):
            raise ValueError(f"generator {k} is not a self-map of 1..{degree}")
        gens.append(tuple(x - 1 for x in g))
    elements, table = _closure(tuple(range(degree)), gens, _compose, cap)
    return Monoid(table, 0, labels=[_one_line_label(f) for f in elements],
                  transformations=tuple(elements))


def from_matrices(generators, cap=10000) -> Monoid:
    """Closure of square rational matrices under exact multiplication.

    The identity matrix is adjoined and elements are labelled "g0", "g1",
    ... in discovery order.  Raises when more than ``cap`` distinct
    matrices appear, the identity and the generators among them, since
    arbitrary rational generators need not generate a finite monoid.
    """
    gens = [g if isinstance(g, Matrix) else Matrix(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator matrix is required")
    dim = gens[0].nrows
    for g in gens:
        if not g.is_square or g.nrows != dim:
            raise ValueError("generators must be square matrices of one dimension")
    elements, table = _closure(Matrix.identity(dim), gens, Matrix.__mul__, cap)
    return Monoid(table, 0, labels=[f"g{i}" for i in range(len(elements))])


def nt_monoid(t) -> Monoid:
    """The monoid {0, 1, ..., t}: 1 is the identity, xy = 0 otherwise.

    Element i carries label str(i); the identity sits at index 1 and the
    zero element at index 0.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    return Monoid(nt_table(t), 1, labels=[str(i) for i in range(t + 1)])


def nt_table(t):
    """The table of N_t: row a != 1 holds a at column 1 (a*1 = a) and 0
    elsewhere.  Below t = 1 it is no monoid's table."""
    n = t + 1
    return tuple(tuple(range(n)) if a == 1 else (0, a) + (0,) * (n - 2)
                 for a in range(n))


def idempotents(m: Monoid):
    """Sorted indices of all elements with e*e = e."""
    return tuple(e for e in range(m.size) if m.table[e][e] == e)


def _require_idempotent(m, e):
    if not 0 <= e < m.size:
        raise ValueError(f"element index {e} is out of range for a monoid of size {m.size}")
    if m.table[e][e] != e:
        raise ValueError(f"element {m.labels[e]!r} is not an idempotent")


def j_classes(m: Monoid):
    """(e, R_e, L_e) for each regular J-class, e its first idempotent.

    By definition x R y when xM = yM, that is when rows x and y of the
    table hold the same set, and x L y when Mx = My, the same test on
    columns.  In a finite monoid J = D = R o L (Clifford & Preston,
    Algebraic Theory of Semigroups I, chapter 2), so the J-class of e is
    the union of the R-classes that meet L_e.  A J-class is regular when
    it holds an idempotent; the idempotents are walked in order, and e is
    kept when no earlier class covers its R-class.  R_e and L_e are
    sorted tuples of element indices.
    """
    table, xs = m.table, range(m.size)
    r_ids, l_ids = {}, {}
    r_id = [r_ids.setdefault(frozenset(row), len(r_ids)) for row in table]
    l_id = [l_ids.setdefault(frozenset(col), len(l_ids)) for col in zip(*table)]
    covered, classes = set(), []
    for e in idempotents(m):
        if r_id[e] not in covered:
            l_e = tuple(compress(xs, map(l_id[e].__eq__, l_id)))
            covered.update(map(r_id.__getitem__, l_e))
            classes.append((e, tuple(compress(xs, map(r_id[e].__eq__, r_id))), l_e))
    return classes


def local_monoid(m: Monoid, e):
    """eMe, a monoid with identity e, in index order: the x fixed by e
    on both sides, e*x = x = x*e, since x = e*y*e is fixed and a fixed x
    is e*x*e."""
    _require_idempotent(m, e)
    return tuple(x for x, ex in enumerate(m.table[e]) if ex == x == m.table[x][e])


def unit_group(m: Monoid, e):
    """The group of units G_e of eMe: the g in eMe whose table row holds e.

    If g*h = e for some h in M, then g*(e*h*e) = g*h*e = e with e*h*e in
    eMe, so g has a right inverse in eMe.  In a finite monoid a one-sided
    inverse is two-sided: suppose g*h = e with h in eMe.  Then y -> h*y
    is injective on eMe (h*y = h*y' gives y = e*y = g*h*y = g*h*y' = y'),
    hence onto, so h*k = e for some k in eMe, and g = g*(h*k) = (g*h)*k
    = e*k = k: h*g = e too.  So G_e is the H-class of e: for g in eMe,
    e in row g is g R e, and h*g = e gives g L e.
    """
    return tuple(g for g in local_monoid(m, e) if e in m.table[g])


def local_ideal(m: Monoid, e):
    """I_e = eMe minus its unit group, an ideal of eMe: the x in eMe whose
    table row does not hold e."""
    return tuple(x for x in local_monoid(m, e) if e not in m.table[x])


def has_zero(m: Monoid):
    """Index of the two-sided zero element, or None."""
    for z in range(m.size):
        row = m.table[z]
        if all(row[x] == z and m.table[x][z] == z for x in range(m.size)):
            return z
    return None
