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
* ``weighted_series``    -- an exact rational function sum_m c_m / det(I - tA_m)
  for weights supported on a local monoid eMe, read off the ambient
  matrices: for m in eMe, rho(m) = rho(e) rho(m) rho(e) acts as zero on
  ker rho(e), so its determinant and power traces are those of its
  restriction to eV;
* ``series_prefix``      -- Taylor coefficients of a rational function via
  the linear recurrence carried by its denominator.
"""

from __future__ import annotations

from .linalg import Polynomial, _div, _exact, charpoly, poly_gcd
from .monoids import local_monoid
from .representations import Representation


class RationalFunction:
    """Quotient of two polynomials in lowest terms.

    The denominator is normalised to constant term 1 whenever its
    constant term is nonzero (the series-expandable case), otherwise to
    leading coefficient 1, so equal functions compare equal; the zero
    function has denominator 1.
    """

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = Polynomial([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        inverse = _div(1, den[0] if den[0] else den.coeffs[-1])
        self.num = num * inverse
        self.den = den * inverse

    @property
    def is_zero(self):
        return self.num.is_zero

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        return RationalFunction(self.num * _exact(other), self.den)

    def __rmul__(self, other):
        return self * other

    def __repr__(self):
        return f"RationalFunction(({self.num}) / ({self.den}))"

    def __str__(self):
        return f"({self.num}) / ({self.den})"


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
    return series_prefix(RationalFunction(Polynomial([1]), reversed_charpoly(rho, x)),
                         nterms)


def weighted_series(rho: Representation, e, weights) -> RationalFunction:
    """Exact rational function sum_m c_m / det(I - t rho'(m)).

    ``weights`` assigns a rational coefficient to every monoid element
    and must vanish outside the local monoid eMe of the idempotent e;
    rho' is the restriction of rho to eMe acting on eV, the column space
    of rho(e).  Every term is read off rho itself: for m in eMe,
    rho(m) = rho(e) rho(m) rho(e) maps V into eV and kills ker rho(e), so
    det(I - t rho(m)) = det(I - t rho'(m)).  Terms sharing a reversed
    characteristic polynomial are grouped first, so the reduced
    denominator divides the product of the distinct reversed polynomials
    on the support.
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
    total = RationalFunction(Polynomial(), Polynomial([1]))
    for q in sorted(grouped):
        total = total + RationalFunction(Polynomial([grouped[q]]), q)
    return total


def series_prefix(f: RationalFunction, nterms: int):
    """First nterms+1 Taylor coefficients of f at 0, exactly.

    The denominator must not vanish at 0; its coefficients define the
    linear recurrence the series satisfies.
    """
    if nterms < 0:
        raise ValueError("series length must be nonnegative")
    if not f.den[0]:
        raise ValueError("denominator vanishes at 0; no power series there")
    # den has constant term 1, so the series s solves den * s = num term by term
    num, den = f.num, f.den
    out = []
    for k in range(nterms + 1):
        out.append(_exact(num[k] - sum(den[i] * out[k - i]
                                       for i in range(1, min(k, den.degree) + 1))))
    return tuple(out)
