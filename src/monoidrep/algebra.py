"""The rational monoid algebra: radical, annihilators, coverage checks.

The algebra QM has the monoid elements as basis; its vectors are plain
coefficient tuples.  Two subspaces of QM drive everything here:

* the radical, computed in characteristic zero as the kernel of the trace
  form (x, y) -> trace of left multiplication by x*y on the algebra;
* the annihilator of a module W, the kernel of the linear map sending a
  coefficient vector c to sum_m c_m W(m).

The bridge to representation theory is the containment test:  every
simple QM-module occurs as a composition factor of W exactly when
Ann(W) is contained in Rad(QM).  If every simple occurs, anything
annihilating W annihilates every simple and hence lies in the radical;
conversely a missing simple yields a primitive idempotent killing W,
and a nonzero idempotent is never nilpotent, so the containment fails.
That single test replaces any explicit construction of simple modules.

Both sides are kernels: Rad = (rowspace G)^perp for the trace-form Gram
matrix G, and Ann(W) = F^perp for the span F, inside Q^M, of W's
matrix-coefficient functions x -> W(x)[i][j].  So the test is decided
in dual form, on row spaces: Ann(W) <= Rad exactly when
rowspace(G) <= F, and dim Ann(W) = |M| - rank F.  A ``Subspace`` is
therefore kept as integer rows spanning the space it is the kernel of,
with its dimension, and has one constructor.  Every span of a list of
rows is built by ``Echelon(ncols, rows)``.  The chains hand a
``Subspace`` their echelon's rows and the echelon itself; Ann(W) is
step 1 of the tensor chain, read off that chain's walk.
The radical hands it the rows of G it accepted, with the exact echelon
of G or, when certified, the kernel; the certified rows' echelon is
built only when ``<=``, ``==`` or ``hash`` needs it.  Any spanning set
serves, so the radical is read as rows of G (entries at most |M|), not
as their reduced echelon, whose entries grow large.  Canonical reduced
echelon rows are derived only for equality and hashing, and a kernel
basis only when it is read, which on the checking path happens only to
produce the witness of a failed containment.

The radical is the one computation done modulo a prime: G is put in
echelon form mod p < 2^26 on rows packed into single ints
(``linalg._echelon_mod_p``), and the result is certified over Z before
it is used.  Rows independent mod p are independent over Q; the mod-p
kernel vectors, lifted by rational reconstruction, are checked to
satisfy G k = 0 exactly and are independent, so the exact rank equals
the rank mod p (``_certified_radical``).  When a check fails a second
prime is tried, and when that fails too the exact integer echelon of G
decides.  Every verdict stays exact.

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
those two walks.  The tensor chain runs from power 1 and is the one
tensor loop: a step from power 0 is the same step with the constant
functions E_0 as one more row, computed on each read and stored nowhere.
No bound is capped: a tensor chain multiplies each of the at most |M|
vectors it adds once; a symmetric degree too large is refused unbuilt.
No direct sum or Kronecker power is built: the span
E_k of the k-th tensor power's coefficient functions consists of the
k-fold entrywise products of V's, and the accumulated span
F_k = E_0 + ... + E_k never grows past dimension |M|.  No symmetric
power matrix is built either: each degree's sparse columns come from the
degree below, and their entries are scattered straight into coefficient
rows.
"""

from __future__ import annotations

import threading
import weakref
from collections import namedtuple
from itertools import compress, count
from math import isqrt, lcm
from operator import eq, mul

from .linalg import Echelon, _echelon_mod_p, _pack, _slots_fit, clear_denominators
from .monoids import Monoid, has_zero
from .representations import (
    Representation,
    distinct_character_values,
    distinct_charpolys,
    is_faithful,
    sym_power_dim,
    symmetric_columns,
)

# Exact Gram matrices cost O(|M|^3); beyond a few hundred elements this
# stops being a desk-scale computation.
SIZE_GUARD = 300


class Subspace:
    """A linear subspace of Q^ambient, kept as the kernel of integer rows.

    ``rows`` spans the orthogonal complement, any spanning set: the
    radical keeps rows of G.  ``dim`` is the subspace's dimension,
    ``ambient`` minus the rank of ``rows``; the caller has worked it out.
    ``echelon``, when given, is an echelon of ``rows`` that no one
    changes afterwards.  It decides ``a <= b`` (b's rows lie in a's row
    space) and, by its canonical RREF, ``==`` and ``hash``; without it,
    it is built from ``rows`` when one of those first needs it.
    ``contains`` is a dot product with each row.  ``basis`` is derived on
    read, from ``kernel`` when the caller has certified one.
    """

    def __init__(self, ambient, rows, dim, echelon=None, kernel=None):
        self.ambient, self.rows, self.dim = ambient, rows, dim
        self._snapshot, self._kernel = echelon, kernel

    @property
    def _echelon(self):
        if self._snapshot is None:
            self._snapshot = Echelon(self.ambient, self.rows)
        return self._snapshot

    @property
    def basis(self):
        """Canonical RREF basis, as a tuple of tuples."""
        kernel = self._echelon.kernel_basis() if self._kernel is None else self._kernel
        return Echelon(self.ambient, kernel).rows

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

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self._echelon.rows == other._echelon.rows)

    def __hash__(self):
        return hash((self.ambient, self._echelon.rows))

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


# The two largest primes below 2^26: packed rows of G keep 64-bit slots
# for up to 4096 pivots (``_slots_fit``).  The second is tried only when
# the first fails the certificate, before the exact echelon.
_PRIMES = (67108859, 67108837)


def _lift(vec, p):
    """An integer vector whose reduction mod p is a multiple of ``vec``,
    by rational reconstruction of each entry (Wang, Guy & Davenport
    1982) with numerator and denominator at most sqrt(p/2); None when an
    entry has no such fraction."""
    bound = isqrt(p // 2)
    fracs = []
    for j, a in compress(enumerate(vec), vec):  # the nonzero entries
        r0, r1, s0, s1 = p, a, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound:
            return None
        fracs.append((j, r1, s1))
    d = lcm(*(abs(s) for _, _, s in fracs))
    out = [0] * len(vec)
    for j, r, s in fracs:
        out[j] = r * (d // s)
    return out


def _certified_radical(gram, n, p):
    """The kernel of G from one echelon mod the prime ``p``, or None.

    The rows accepted mod p are independent mod p, hence over Q, so
    rank G >= rank_p.  Each mod-p kernel vector is lifted by rational
    reconstruction and checked to satisfy G k = 0 exactly over Z; the
    lifted vectors are nonzero at distinct free columns and zero at the
    other free columns, so they are independent, and nullity G >=
    n - rank_p.  When every check passes, rank G = rank_p: the accepted
    rows span G's row space and the lifted vectors its kernel.

    G k is summed over G's columns packed into 64-bit slots, the positive
    and the negative terms apart, so no slot borrows; G's entries are
    nonnegative (fixed-point counts), so no slot carries while
    max(G) * sum |k_j| < 2^64, and then the two sums are equal exactly
    when every entry of G k is 0.  The rank mod p is at most n, so the
    echelon's slots cannot overflow when ``_slots_fit(n)`` (n <= 4096);
    beyond that there is no candidate.
    """
    if not _slots_fit(n, p):
        return None
    accepted, kernel = _echelon_mod_p(gram, n, p)
    cols = [_pack(col) for col in zip(*dict.fromkeys(gram))]  # of distinct rows
    top = max(map(max, gram))
    lifted = []
    for v in kernel:
        k = _lift(v, p)
        if k is None or top * sum(map(abs, k)) >= 1 << 64:
            return None
        pos = neg = 0
        for c, col in compress(zip(k, cols), k):
            if c > 0:
                pos += c * col
            else:
                neg -= c * col
        if pos != neg:
            return None
        lifted.append(k)
    return Subspace(n, [gram[i] for i in accepted], len(lifted), kernel=lifted)


def radical_basis(m: Monoid, force=False) -> Subspace:
    """Radical of QM as a subspace, via the trace-form kernel.

    In characteristic zero the radical is exactly the kernel of the
    bilinear form (x, y) -> trace of left multiplication by x*y.  The
    trace of left multiplication by a basis element z is the number of
    fixed points {j : z*j = j}, so the Gram matrix G is integral.  Its
    rank and kernel are computed modulo a prime below 2^26 and certified
    over Z (``_certified_radical``): the ``rows`` are the rows of G that
    are independent mod p, with entries at most |M|, and ``basis`` is
    read from the lifted kernel vectors.  If a check fails, a second
    prime is tried, and if that fails too the exact integer echelon of G
    decides instead, keeping the rows it accepted.
    """
    n = m.size
    if n > SIZE_GUARD and not force:
        raise ValueError(
            f"monoid has {n} > {SIZE_GUARD} elements; exact O(n^3) radical "
            "computation refused (pass --force, or force=True from Python, "
            "to override)")
    fix = [sum(map(eq, row, range(n))) for row in m.table]
    gram = [tuple(map(fix.__getitem__, tx)) for tx in m.table]
    for p in _PRIMES:
        rad = _certified_radical(gram, n, p)
        if rad is not None:
            return rad
    ech = Echelon(n)
    rows = [row for row in gram if ech.insert(row)]
    return Subspace(n, rows, n - ech.rank, ech)


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

    The chain is walked before the radical is first read, so ``radical``
    may be a zero-argument callable returning it, called once the walk
    is done: the radical can then be computed elsewhere meanwhile.  With
    ``radical=None`` it is computed here first, so its size guard refuses
    before any chain step."""
    if bound < first:
        raise ValueError(f"{theorem} bound {bound} is below the first power "
                         f"{first}: there is no power to check")
    if radical is None:
        radical = radical_basis(rho.monoid)
    steps = _steps(rho, mode, first, bound)
    rad = radical() if callable(radical) else radical
    minimal_k = next((k for k, ann in enumerate(steps, first) if ann <= rad), None)
    ann = steps[-1]
    holds = minimal_k is not None
    witness = None if holds else subspace_leq(ann, rad)[1]
    return VerificationReport(theorem, holds, r, s, bound,
                              tuple(range(first, bound + 1)),
                              rad.dim, ann.dim, witness, minimal_k)


def verify_tensor_theorem(rho: Representation,
                          radical: Subspace | None = None) -> VerificationReport:
    """Check that tensor powers 0..r-1 already reach every simple module.

    r is the number of distinct character values of the (faithful) input.
    A False result would contradict the theorem and therefore signals an
    implementation bug; the report carries the witness for auditing.
    ``radical`` overrides the computed radical (negative-path testing), or
    is a zero-argument callable returning it, called once the chain is
    walked (``_check``).  The chain walked is shared with every other
    read of it (``_steps``).
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
    """Yield the nonzero coefficient functions x -> rho(x)[i][j], as rows."""
    mats = [m.rows for m in rho.matrices]
    for i in range(rho.dim):
        for j in range(rho.dim):
            row = [m[i][j] for m in mats]
            if any(row):
                yield row


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
    basis serves; the one taken is the entry rows that enlarge E_1's
    span, denominators cleared and otherwise as they are, not reduced:
    a transformation monoid's are 0/1 rows, so their products stay
    sparse 0/1 rows and many of them coincide.  The seed D_0 is the
    constant functions, which span E_0, with F_0 = 0.  Each step inserts
    each distinct nonzero product once.  The chain has
    no last step: a reader takes the steps it needs (``_steps``, whose
    reads from power 0 add the constants to these steps).
    """
    n = rho.monoid.size
    acc = Echelon(n)
    new = [(1,) * n]  # D_0: the constant functions, spanning E_0
    span, e1 = Echelon(n), []  # a basis of E_1: entry rows, as they are
    for row in _entry_rows(rho):
        if span.insert(row):
            e1.append(clear_denominators(row))
            if span.rank == n:
                break
    for k in count(1):
        products = dict.fromkeys(tuple(map(mul, d, g)) for d in new for g in e1)
        new = [v for v in products if any(v) and acc.rank < n and acc.insert(v)]
        yield k, _kernel(acc)


def symmetric_annihilator_chain(rho: Representation):
    """Yield (d, Ann(S^0 + ... + S^d)) for d = 0, 1, ...

    Each degree is built from the one before (``symmetric_columns``); the
    entries of its sparse columns are scattered straight into the
    coefficient rows x -> S^d(x)[p][q], and each distinct row is folded
    once into one accumulated constraint space: a row already folded at
    an earlier degree lies in it and is skipped.  Once the kernel is zero
    it stays zero, so no further degree is built.  A degree of
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
            rows = {}
            for x, cols in enumerate(next(degrees)):
                for q, col in enumerate(cols):
                    for p, c in col.items():
                        row = rows.get((p, q))
                        if row is None:
                            row = rows[p, q] = [0] * n
                        row[x] = c
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
