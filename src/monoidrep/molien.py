"""Molien-type generating functions for symmetric-power characters.

For an element m acting through a matrix A, the generating function of
the symmetric-power character values sum_d trace(S^d(A)) t^d equals
1 / det(I - tA), and det(I - tA) is the characteristic polynomial of A
with its coefficient order reversed: its coefficient of t^k, (-1)^k e_k
of A's eigenvalues, is h_k of the negated power traces -tr(A), ...,
-tr(A^n), as ``linalg.charpoly`` computes it.  No determinant is ever
expanded symbolically, and all arithmetic stays in Q[t].  Coefficients are
canonical (``linalg.Polynomial``): for an element of a finite monoid
det(I - tA) has integer coefficients, so its reciprocal series runs in
ints, and only rational weights bring in ``Fraction``.

* ``reversed_charpoly``  -- det(I - tA) as a polynomial with constant 1;
* ``element_series``     -- the reciprocal power series, term by term;
* ``weighted_series``    -- the exact series sum_m c_m / det(I - tA_m) as one
  pair (num, den) of polynomials in lowest terms with den(0) = 1, for
  weights supported on a local monoid eMe, read off the ambient
  matrices: for m in eMe, rho(m) = rho(e) rho(m) rho(e) acts as zero on
  ker rho(e), so its determinant and power traces are those of its
  restriction to eV;
* ``series_prefix``      -- Taylor coefficients of num / den via the linear
  recurrence carried by den.

Coefficient d of ``element_series(rho, x, n)`` is the degree-d
symmetric-power character ``representations.sym_power_characters(rho,
x, n)[d]``, the sum that `mbt molien` checks each weighted series
against.
"""

from __future__ import annotations

from .linalg import Polynomial, _div, _exact, charpoly, poly_gcd
from .monoids import local_monoid
from .representations import Representation


def reversed_charpoly(rho: Representation, x) -> Polynomial:
    """det(I - t rho(x)), a polynomial with constant term 1.

    Its coefficients are those of the monic degree-n characteristic
    polynomial in reverse order, n the dimension: h_0, ..., h_n of the
    negated power traces of rho(x)'s own matrix powers.  For a nilpotent
    matrix it collapses to the constant polynomial 1.  The traces come
    from the matrix, not from the character at the powers x^i as in
    ``sym_power_characters``, so ``mbt molien``'s cross-check of the two
    compares independent sources.
    """
    return Polynomial(charpoly(rho.matrices[x]).coeffs[::-1])


def element_series(rho: Representation, x, nterms: int):
    """First nterms+1 coefficients of 1 / det(I - t rho(x)).

    Coefficient d is the degree-d symmetric-power character value at x.
    """
    return series_prefix(Polynomial([1]), reversed_charpoly(rho, x), nterms)


def weighted_series(rho: Representation, e, weights):
    """Exact sum_m c_m / det(I - t rho'(m)) as a pair (num, den).

    ``weights`` assigns a rational coefficient to every monoid element
    and must vanish outside the local monoid eMe of the idempotent e;
    rho' is the restriction of rho to eMe acting on eV, the column space
    of rho(e).  Every term is read off rho itself: for m in eMe,
    rho(m) = rho(e) rho(m) rho(e) maps V into eV and kills ker rho(e), so
    det(I - t rho(m)) = det(I - t rho'(m)).  Terms sharing a reversed
    characteristic polynomial are grouped first, and the groups c_q / q
    are added in sorted order of q, reduced by their gcd after each, so
    den divides the product of the distinct reversed polynomials on the
    support.  Every q has constant term 1, so den(0) is nonzero; it is
    scaled to 1 at the end, which makes the reduced pair unique.  The
    zero series is (0, 1).
    """
    m = rho.monoid
    if len(weights) != m.size:
        raise ValueError("weight vector length differs from monoid size")
    weights = [_exact(c) for c in weights]
    members = set(local_monoid(m, e))  # validates idempotency
    support = [x for x, c in enumerate(weights) if c]
    outside = [x for x in support if x not in members]
    if outside:
        raise ValueError(
            f"weights supported outside eMe: element "
            f"{m.labels[outside[0]]!r} has a nonzero coefficient")
    grouped = {}
    for x in support:
        q = reversed_charpoly(rho, x)
        grouped[q] = grouped.get(q, 0) + weights[x]
    num, den = Polynomial(), Polynomial([1])
    for q in sorted(grouped):
        num, den = num * q + den * grouped[q], den * q
        g = poly_gcd(num, den)
        num, den = num // g, den // g
    inverse = _div(1, den[0])
    return num * inverse, den * inverse


def series_prefix(num: Polynomial, den: Polynomial, nterms: int):
    """First nterms+1 Taylor coefficients of num / den at 0, exactly.

    ``den`` must not vanish at 0; its coefficients define the linear
    recurrence the series satisfies.
    """
    if nterms < 0:
        raise ValueError("series length must be nonnegative")
    if not den[0]:
        raise ValueError("denominator vanishes at 0; no power series there")
    # the series s solves den * s = num term by term
    out = []
    for k in range(nterms + 1):
        out.append(_div(num[k] - sum(den[i] * out[k - i]
                                     for i in range(1, min(k, den.degree) + 1)), den[0]))
    return tuple(out)
