"""The rational monoid algebra: radical, annihilators, coverage checks.

The algebra QM has the monoid elements as basis; its vectors are plain
coefficient tuples.  Two subspaces of QM drive everything here:

* the radical Rad(QM), the intersection of the annihilators of the
  simple modules, read off Green's relations (below);
* the annihilator of a module W, the kernel of the linear map sending a
  coefficient vector c to sum_m c_m W(m).

The bridge to representation theory is the containment test:  every
simple QM-module occurs as a composition factor of W exactly when
Ann(W) is contained in Rad(QM).  If every simple occurs, anything
annihilating W annihilates every simple and hence lies in the radical;
conversely a missing simple yields a primitive idempotent killing W,
and a nonzero idempotent is never nilpotent, so the containment fails.
That single test replaces any explicit construction of simple modules.

Both sides are kernels: Rad = R^perp for the span R, inside Q^M, of the
simple modules' matrix-coefficient functions, and Ann(W) = F^perp for
the span F of W's, x -> W(x)[i][j].  So the test is decided in dual
form, on row spaces: Ann(W) <= Rad exactly when R <= F, and dim Ann(W)
= |M| - rank F.  A ``Subspace`` is therefore kept as integer rows
spanning the space it is the kernel of, with its dimension, and has one
constructor.  Every span of a list of rows is built by
``Echelon(ncols, rows)``.  The chains hand a ``Subspace`` their
echelon's rows and the echelon itself; Ann(W) is step 1 of the tensor
chain, read off that chain's walk.  The radical hands it a basis of R
made of 0/1 rows, and no echelon: ``<=`` reads only its rows.  A basis
of the kernel is derived only when it is read, which on the checking
path happens only to produce the witness of a failed containment.

The radical from Green's relations.  Take one idempotent e in each
regular J-class, with R_e and L_e its R- and L-class and G_e = R_e & L_e
its maximal subgroup.  Then

    Rad(QM)^perp = R = span{ x -> [r*x*l = e] : r in R_e, l in L_e }.

By Clifford-Munn-Ponizovskii, the simple modules with apex e are the
tops of the induced modules Q L_e (x) V, V a simple QG_e-module: each is
the image of Q L_e (x) V in Hom_{G_e}(Q R_e, V) under the sandwich
pairing (r, l) -> r*l in G_e, or 0 outside it (Steinberg,
*Representation Theory of Finite Monoids*, Springer 2016, the chapter
on the Clifford-Munn-Ponizovskii theory).
So the coefficient functions of those simples are spanned by x -> phi(r*x*l)
for functions phi on G_e, extended by 0 off G_e, and as V ranges over
the simples of QG_e, which is semisimple, every such phi arises: the
span is that of the rows x -> [r*x*l = g], g in G_e.  Replacing r by
g^-1*r, still in R_e, turns g into e.  Every simple has an apex, and
one e per J-class gives every apex, so these rows span R.  The R- and
L-classes are read off the table by definition, x R y when rows x and
y hold the same set and x L y when columns x and y do
(``monoids.j_classes``), so the radical costs no Gram matrix, no
product of matrices and no step modulo a prime: only the exact echelon
of at most |M| sparse 0/1 rows (``radical_basis``).  Every verdict
stays exact.

Verifiers built on it: the tensor-power coverage bound (powers 0..r-1
where r counts distinct character values), the symmetric-power bound
(degrees 0 .. dim*s - 1 where s counts distinct characteristic
polynomials), the positive-power refinement for monoids without zero,
and the coarse |M|-power bound.  Each works out its bound and names its
chain (tensor or symmetric, from power 0 or 1) to one body, which reads
it: the first covering step is ``minimal_k`` and the verdict is whether
it exists, and the step at the bound gives a failed check's witness.
A representation has one walk per chain, tensor and symmetric, stepped
once as far as its furthest read; ``_steps`` hands every read the list
of steps it asks for, so verifiers and minimal-power scans all index
those two walks.  The tensor chain runs from power 1, on fibre rows
for a transformation representation and on the entry rows and their
products for any other: a step from power 0 is the same step with the
constant functions E_0 as one more row, computed on each read and
stored nowhere.
No bound is capped: a tensor chain multiplies each of the at most |M|
vectors it adds once; a symmetric degree too large is refused unbuilt.
No direct sum or Kronecker power is built: the span
E_k of the k-th tensor power's coefficient functions consists of the
k-fold entrywise products of V's, and the accumulated span
F_k = E_0 + ... + E_k never grows past dimension |M|.  No symmetric
power matrix is built either: each element's nonzero columns of a degree
come from its nonzero columns of the degree below, and their entries are
scattered straight into coefficient rows.
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict, namedtuple
from itertools import combinations, count
from operator import mul

from .linalg import Echelon, clear_denominators
from .monoids import Monoid, has_zero, j_classes
from .representations import (
    Representation,
    distinct_character_values,
    distinct_charpolys,
    is_faithful,
    sym_power_dim,
    symmetric_columns,
)

# The refusal stays until one work budget replaces it, though the
# radical is no longer an O(|M|^3) Gram echelon but an exact echelon of
# at most |M| sparse 0/1 rows; the bound, cubed, also caps the size of a
# symmetric degree.
SIZE_GUARD = 300


class Subspace:
    """A linear subspace of Q^ambient, kept as the kernel of integer rows.

    ``rows`` spans the orthogonal complement, any spanning set: the
    radical keeps 0/1 Green rows.  ``dim`` is the subspace's dimension,
    ``ambient`` minus the rank of ``rows``; the caller has worked it out.
    ``echelon``, when given, is an echelon of ``rows`` that no one
    changes afterwards.  It decides ``a <= b`` (b's rows lie in a's row
    space) and gives ``basis``, derived on read; without it, it is built
    from ``rows`` when one of those first needs it.  ``contains`` is a
    dot product with each row.  Subspaces compare by identity: two are
    the same space when each is ``<=`` the other.
    """

    def __init__(self, ambient, rows, dim, echelon=None):
        self.ambient, self.rows, self.dim = ambient, rows, dim
        self._snapshot = echelon

    @property
    def _echelon(self):
        if self._snapshot is None:
            self._snapshot = Echelon(self.ambient, self.rows)
        return self._snapshot

    @property
    def basis(self):
        """Canonical RREF basis, as a tuple of tuples."""
        return Echelon(self.ambient, self._echelon.kernel_basis()).rows

    def contains(self, vec):
        if len(vec) != self.ambient:
            raise ValueError("vector length differs from ambient dimension")
        v = clear_denominators(vec)
        return not any(sum(c * x for c, x in zip(row, v) if c) for row in self.rows)

    def __le__(self, other):
        """Containment, decided on the constraint rows: a <= b exactly
        when every row of b lies in the row space of a's."""
        if self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")
        if self.dim == 0:  # the zero subspace lies in every subspace
            return True
        return self.dim <= other.dim and all(map(self._echelon.contains, other.rows))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def _kernel(ech) -> Subspace:
    """The kernel of an echelon's rows, over a snapshot of it."""
    snap = ech.copy()
    return Subspace(snap.ncols, snap.int_rows, snap.ncols - snap.rank, snap)


def subspace_leq(a: Subspace, b: Subspace):
    """Whether a is contained in b.

    Returns (True, None) or (False, w) where w is the first RREF basis
    vector of a outside b; only a failed containment forms that basis.
    """
    if a <= b:
        return True, None
    return False, next(v for v in a.basis if not b.contains(v))


def size_guard(n, gens=None):
    """Refuse a monoid of n > ``SIZE_GUARD`` elements, whatever its
    number of generators, and return ``SIZE_GUARD``: the radical's guard,
    and the spec guard (``fileio.monoid_from_spec``) of ``mbt verify``
    without ``--force``.  n is None for a closure stopped at the guard,
    which knows only that it found more."""
    if n is None or n > SIZE_GUARD:
        count = f"more than {SIZE_GUARD}" if n is None else f"{n} > {SIZE_GUARD}"
        raise ValueError(f"monoid has {count} elements; refused by the size guard "
                         "(pass --force, or force=True from Python, to override)")
    return SIZE_GUARD


def radical_basis(m: Monoid, force=False) -> Subspace:
    """Radical of QM as a subspace, kept as the span of its Green rows.

    For one idempotent e of each regular J-class, with R_e and L_e its
    R- and L-classes (``monoids.j_classes``), Rad(QM) is the kernel of
    the 0/1 rows x -> [r*x*l = e], r in R_e, l in L_e (see the module
    docstring).  Row (g*r, l*g^-1) is row (r, l) for g in the group G_e
    = R_e & L_e, so the least l of each H-class l*G_e of L_e gives them
    all, at most |M| rows: row r of the table read through [y*l = e].

    The rows of distinct classes span independent spaces: those of the
    simples with apex e, whose coefficient spaces form a direct sum, as
    QM/Rad is the product of the simples' images.  So each class's
    distinct rows, as ``bytes``, go l by l into an exact echelon of their
    own, and the rows that enlarged it, over all classes, are a basis of
    Rad's complement: ``dim`` is |M| minus their number.  Their common
    echelon is built only when ``basis`` needs it; ``<=`` against the
    radical reads only its rows.
    """
    n = m.size
    if not force:
        size_guard(n)
    table, rows = m.table, []
    for e, r_e, l_e in j_classes(m):
        group, green, ech = set(r_e).intersection(l_e), [], Echelon(n)
        for l in l_e:
            if l == min(map(table[l].__getitem__, group)):  # the least of l*G_e
                hit = bytes([row[l] == e for row in table])  # y -> [y*l = e]
                green += [bytes(map(hit.__getitem__, table[r])) for r in r_e]
        rows += [row for row in dict.fromkeys(green) if ech.insert(row)]
    return Subspace(n, rows, n - len(rows))


def annihilator_basis(rho: Representation) -> Subspace:
    """Annihilator of the module in QM: {c : sum_x c_x rho(x) = 0}.

    The defining system has one constraint row per matrix entry position,
    with column x holding that entry of rho(x): the span E_1, whose
    kernel is step 1 of the tensor chain from power 1.  That step is read
    off rho's walk (``_steps``), so the annihilator is computed once and
    shared with every check that walks the same chain.
    """
    return _steps(rho, "tensor", 1, 1)[0]


def all_simples_appear(rho: Representation, radical: Subspace | None = None):
    """Whether every simple QM-module is a composition factor of rho.

    Decided as Ann(rho) <= Rad(QM), with Ann(rho) read off rho's walk.
    Returns (True, None) or (False, w) with w an explicit algebra element
    annihilating the module without being nilpotent -- the auditable
    witness that some simple is missed.
    """
    if radical is None:
        radical = radical_basis(rho.monoid)
    return subspace_leq(annihilator_basis(rho), radical)


class VerificationReport(namedtuple(
        "VerificationReport", "theorem holds r s bound powers_used dim_rad "
        "dim_ann witness minimal_k", defaults=(None,))):
    """Outcome of one coverage check, JSON-serialisable.

    Fields: ``theorem`` (str), ``holds`` (bool), ``r`` and ``s`` (int or
    None), ``bound`` (int), ``powers_used`` (tuple), ``dim_rad`` and
    ``dim_ann`` (int), ``witness`` (tuple or None) and ``minimal_k``
    (int or None, by default None).  A report is a tuple of them.
    """

    __slots__ = ()

    def to_json_dict(self):
        return {
            "theorem": self.theorem,
            "r": self.r,
            "s": self.s,
            "dim_rad": self.dim_rad,
            "dim_ann": self.dim_ann,
            "holds": self.holds,
            "witness": [str(x) for x in self.witness] if self.witness else None,
            "powers_used": list(self.powers_used),
        }


def _require_faithful(rho):
    ok, pair = is_faithful(rho)
    if not ok:
        a, b = pair
        labels = rho.monoid.labels
        raise ValueError(
            f"representation is not faithful: elements {labels[a]!r} and "
            f"{labels[b]!r} have the same matrix")


def _check(theorem, rho, mode, radical, r, s, bound, first=0):
    """Report whether the annihilator at step ``bound`` of the ``mode``
    chain (steps ``first``..) lies in the radical.  Annihilators only
    shrink, so it does exactly when some step up to ``bound`` is covered,
    the first being ``minimal_k``.  The read stops at ``bound`` or at
    Ann = 0, which lasts; only a failed check tests step ``bound`` again,
    for its witness.

    ``radical`` is the radical of QM, or None to compute it here first,
    so that its size guard refuses before any chain step."""
    if bound < first:
        raise ValueError(f"{theorem} bound {bound} is below the first power "
                         f"{first}: there is no power to check")
    if radical is None:
        radical = radical_basis(rho.monoid)
    steps = _steps(rho, mode, first, bound)
    minimal_k = next((k for k, ann in enumerate(steps, first) if ann <= radical), None)
    ann = steps[-1]
    holds = minimal_k is not None
    witness = None if holds else subspace_leq(ann, radical)[1]
    return VerificationReport(theorem, holds, r, s, bound,
                              tuple(range(first, bound + 1)),
                              radical.dim, ann.dim, witness, minimal_k)


def verify_tensor_theorem(rho: Representation,
                          radical: Subspace | None = None) -> VerificationReport:
    """Check that tensor powers 0..r-1 already reach every simple module.

    r is the number of distinct character values of the (faithful) input.
    A False result would contradict the theorem and therefore signals an
    implementation bug; the report carries the witness for auditing.
    ``radical`` overrides the computed radical (negative-path testing, or
    one radical shared by several checks).  The chain walked is shared
    with every other read of it (``_steps``).
    """
    _require_faithful(rho)
    r = len(distinct_character_values(rho))
    return _check("tensor", rho, "tensor", radical, r, None, r - 1)


def verify_symmetric_theorem(rho: Representation,
                             radical: Subspace | None = None) -> VerificationReport:
    """Check that symmetric powers 0..dim*s-1 reach every simple module.

    s is the number of distinct characteristic polynomials of the element
    matrices of the (faithful) input.  The rest is as for
    ``verify_tensor_theorem``; a degree too large to build raises.
    """
    _require_faithful(rho)
    s = len(distinct_charpolys(rho))
    return _check("symmetric", rho, "symmetric", radical, None, s, rho.dim * s - 1)


def verify_positive_power_refinement(rho: Representation,
                                     radical: Subspace | None = None) -> VerificationReport:
    """Check powers 1..r suffice when the monoid has no zero element.

    With a zero element acting as zero the trivial module never occurs in
    a positive tensor power, so such monoids are rejected outright.
    """
    _require_faithful(rho)
    z = has_zero(rho.monoid)
    if z is not None:
        raise ValueError(
            f"monoid has a zero element ({rho.monoid.labels[z]!r}); the "
            "positive-power refinement does not apply")
    r = len(distinct_character_values(rho))
    return _check("positive-refinement", rho, "tensor", radical, r, None, r,
                  first=1)


def _entry_rows(rho):
    """Yield the nonzero coefficient functions x -> rho(x)[i][j], as
    integer tuples, denominators cleared."""
    mats = [m.rows for m in rho.matrices]
    for i in range(rho.dim):
        for j in range(rho.dim):
            row = [m[i][j] for m in mats]
            if any(row):
                yield tuple(clear_denominators(row))


def tensor_annihilator_chain(rho: Representation):
    """Yield (k, Ann(V^1 + ... + V^k)) for k = 1, 2, ...

    Never builds a Kronecker power.  The coefficient functions of V^k
    span the space E_k of k-fold entrywise products of V's coefficient
    functions, so E_{k+1} = E_k * E_1, and the annihilator is the kernel
    of the accumulated span F_k = E_1 + ... + E_k.  Let D_k hold the
    vectors that step k added, so F_k = F_{k-1} + D_k.  Then E_{k+1} lies
    in F_{k-1} * E_1 + D_k * E_1, and F_{k-1} * E_1 lies in F_k, so
    F_{k+1} = F_k + D_k * E_1: each vector is multiplied with an E_1
    basis once, and the work stops as soon as a step adds nothing.  Any
    basis serves.  Step 1 inserts the distinct entry rows, denominators
    cleared and otherwise as they are, not reduced; those that enlarge
    F_1 = E_1 are D_1, and they are the E_1 basis later steps multiply
    by.  A transformation monoid's are 0/1 rows, so their products stay
    sparse 0/1 rows and many of them coincide.  Each later step inserts
    each distinct nonzero product once.  The chain has
    no last step: a reader takes the steps it needs (``_steps``, whose
    reads from power 0 add the constants to these steps).

    A transformation representation (``_point_values``), where rho(x) is
    the 0/1 matrix of a self-map x of the points, takes a basis with no
    products.  Its entry rows are [x(j) = a]; two of them at one point j
    multiply to 0 or to a repeat, and they sum to 1 over the values a.
    So with one reference value a_j per point, its most common, F_k is
    spanned by the constants and the monomials prod_{j in J} [x(j) = b_j]
    over point sets |J| <= k and values b_j != a_j: the 0/1 rows of the
    fibres of x -> x|_J that avoid every a_j.  Step 1 inserts the
    constants, and step k the fibres of each k-set J of points, each
    fibre once; none is a product or a repeat.
    """
    n = rho.monoid.size
    acc = Echelon(n)
    points = _point_values(rho)
    if points is not None:  # fibre rows, in a walk that never returns
        acc.insert((1,) * n)
        # each point's values x -> x(j), with None where x(j) = a_j
        refs = [max(set(col), key=col.count) for col in points]
        marked = [tuple(None if a == ref else a for a in col)
                  for col, ref in zip(points, refs)]
        for k in count(1):
            for part in combinations(marked, k):
                if acc.rank == n:
                    break
                fibres = {}
                for x, key in enumerate(zip(*part)):
                    if None not in key:
                        fibres.setdefault(key, bytearray(n))[x] = 1
                # insert the fibres in turn, up to full rank
                any(acc.insert(row) and acc.rank == n for row in fibres.values())
            yield k, _kernel(acc)
    new = e1 = [v for v in dict.fromkeys(_entry_rows(rho)) if acc.rank < n and acc.insert(v)]
    yield 1, _kernel(acc)
    for k in count(2):
        products = dict.fromkeys(tuple(map(mul, d, g)) for d in new for g in e1)
        new = [v for v in products if any(v) and acc.rank < n and acc.insert(v)]
        yield k, _kernel(acc)


def _point_values(rho):
    """For a transformation representation, the values x -> x(j) of each
    point j, rho(x) holding its one 1 of column j in row x(j); else None.
    Such a representation has dimension at least 1, and every matrix is
    0/1 with exactly one 1 per column, as ``_action_matrices`` builds
    them.  Each matrix is read as ``bytes``, and column j as a slice."""
    d, maps = rho.dim, []
    try:
        for mat in rho.matrices:
            flat = b"".join(map(bytes, mat.rows))  # raises unless entries are 0..255
            if flat.count(1) != d or flat.count(0) != d * d - d:
                return None
            maps.append([flat[j::d].index(1) for j in range(d)])  # raises on a 0 column
    except (TypeError, ValueError):
        return None
    return list(zip(*maps)) if d else None


def symmetric_annihilator_chain(rho: Representation):
    """Yield (d, Ann(S^0 + ... + S^d)) for d = 0, 1, ...

    Each degree is built from the one before (``symmetric_columns``),
    which keeps only each element's nonzero columns; the entries of
    those are scattered straight into the coefficient rows
    x -> S^d(x)[p][q], in column order, so a zero column is never
    visited.  Each distinct row is folded once into one accumulated
    constraint space: a row already folded at an earlier degree lies in
    it and is skipped.  Once the kernel is zero it stays zero, so no
    further degree is built.  A degree of
    c = C(dim+d-1, d) columns holds at most |M| * c^2 entries, in its
    columns and in its rows; past ``SIZE_GUARD ** 3``, the work the
    radical guard admits, it is refused before it is built.  As for the
    tensor chain, a reader takes the degrees it needs.
    """
    n = rho.monoid.size
    acc = Echelon(n)
    folded = set()
    degrees = symmetric_columns(rho)
    for d in count():
        if acc.rank < n:
            size = n * sym_power_dim(rho.dim, d) ** 2
            if size > SIZE_GUARD ** 3:
                raise ValueError(f"symmetric degree {d} refused: predicted size "
                                 f"{size} exceeds {SIZE_GUARD ** 3}")
            rows = defaultdict(lambda: [0] * n)
            for x, cols in enumerate(next(degrees)):
                for q, col in cols.items():
                    for p, c in col.items():
                        rows[p, q][x] = c
            for row in dict.fromkeys(map(tuple, rows.values())):
                if acc.rank == n:
                    break
                if row not in folded:
                    folded.add(row)
                    acc.insert(row)
        yield d, _kernel(acc)


# rho -> {mode: [chain, floor, steps]}, freed with rho (weak keys, proxies)
_WALKS = weakref.WeakKeyDictionary()
_LOCK = threading.Lock()


def _steps(rho, mode, first, last):
    """The list of Ann at steps first..last of rho's ``mode`` walk, cut
    after its first Ann = 0 step or where the walk reaches its floor,
    which lasts.  Each mode is walked once per rho, under ``_LOCK``, as
    far as a read asks, and its chain closed at the floor, so its
    suspended frame is freed while the steps stay.  A step that raises
    drops the walk, so the next read raises again.

    The symmetric walk is its chain, with floor 0.  The tensor walk is
    its chain, which starts at power 1, after a step 0 with no power
    (Ann = QM).  Its floor is Q^Z, Z the elements whose matrix is 0:
    every F_k vanishes on Z, so once Ann is Q^Z it stays.  Power 0 is
    read here and nowhere else: a read from power 0 takes each step as
    it is once the constants lie in its span, else with the constants
    as one more row (its echelon built only if needed), and stores
    neither.  The constants do not vanish on Z, so above floor 0 no step
    holds them; at floor 0 steps are tested until one does."""
    with _LOCK:
        walks = _WALKS.setdefault(rho, {})
        if mode not in walks:
            if mode == "tensor":
                chain = tensor_annihilator_chain(weakref.proxy(rho))
                floor = sum(not any(map(any, m.rows)) for m in rho.matrices)
                walks[mode] = [chain, floor, [_kernel(Echelon(rho.monoid.size))]]
            elif mode == "symmetric":
                walks[mode] = [symmetric_annihilator_chain(weakref.proxy(rho)), 0, []]
            else:
                raise ValueError(f"unknown power mode {mode!r}")
        chain, floor, steps = walks[mode]
        ones = None if first or mode == "symmetric" else (1,) * rho.monoid.size
        read = []
        for k in range(first, last + 1):
            if k == len(steps):
                if steps and steps[-1].dim == floor:
                    break
                try:
                    steps.append(next(chain)[1])
                except BaseException:
                    del walks[mode]
                    raise
                if steps[-1].dim == floor:
                    chain.close()  # its last step: free the suspended frame
            step = steps[k]
            if ones and (floor or not step._echelon.contains(ones)):
                step = Subspace(step.ambient, [*step.rows, ones], step.dim - 1)
            else:
                ones = None  # this step holds the constants, and so every later one
            read.append(step)
            if not step.dim:
                break
        return read or steps[-1:]  # at its floor before first


def minimal_covering_power(rho: Representation, mode="tensor", *,
                           radical: Subspace | None = None):
    """Least k such that powers 0..k together reach every simple module.

    This is the ``minimal_k`` of ``verify_tensor_theorem`` or
    ``verify_symmetric_theorem``, which check up to k = r-1 and
    k = dim*s-1.  The coverage theorems guarantee a covering power within
    that bound for faithful input, so a report without one raises: it
    would mean the machinery itself is broken, which must not pass
    silently.
    """
    if mode not in ("tensor", "symmetric"):
        raise ValueError(f"unknown power mode {mode!r}")
    verify = verify_tensor_theorem if mode == "tensor" else verify_symmetric_theorem
    rep = verify(rho, radical)
    if rep.minimal_k is not None:
        return rep.minimal_k
    raise RuntimeError(
        f"no covering power up to {rep.bound} in {mode} mode; this contradicts "
        "the coverage theorem for a faithful representation and indicates "
        "an implementation bug")


def minimal_faithful_power(rho: Representation, mode="tensor", cap=32):
    """Least k with Ann(power 0 + ... + power k) = 0, or None up to cap.

    Unlike the covering power, no bound in terms of r alone exists: for
    the N_t family the answer grows as t-1 however many character values
    there are, which is exactly what the scan exposes.
    """
    if cap < 0:
        raise ValueError(f"bad cap: {cap} (must be nonnegative)")
    _require_faithful(rho)
    steps = _steps(rho, mode, 0, cap)
    return None if steps[-1].dim else len(steps) - 1


def verify_steinberg_bound(rho: Representation,
                           radical: Subspace | None = None) -> VerificationReport:
    """Check the coarse bound: tensor powers 0..|M|-1 reach every simple.

    Uses the incremental coefficient-span chain, so it stays cheap even
    when |M|-1 Kronecker powers would be astronomically large.
    """
    _require_faithful(rho)
    return _check("steinberg", rho, "tensor", radical, None, None,
                  rho.monoid.size - 1)
