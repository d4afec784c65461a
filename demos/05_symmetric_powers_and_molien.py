"""Symmetric powers, their characters, and Molien-type series.

The character of the d-th symmetric power at an element m is the
complete homogeneous symmetric function h_d of the eigenvalues of the
acting matrix.  Three independent routes compute it here:

  1. build the symmetric power on the monomial basis and take the trace;
  2. run Newton's identities on the power traces (no eigenvalues);
  3. expand the reciprocal of det(I - t rho(m)) as a power series.

The generating-function route turns weighted sums over a local monoid
eMe into a single exact rational function whose denominator degree is
bounded by dim(eV) times the number of distinct characteristic
polynomials -- the engine behind the symmetric-power coverage bound.
"""

from monoidrep import (
    element_series,
    from_transformations,
    natural_representation,
    nt_paper_representation,
    reversed_charpoly,
    series_prefix,
    sym_power,
    sym_power_characters,
    verify_symmetric_theorem,
    weighted_series,
)

t2 = from_transformations(2, [(2, 1), (1, 1)])
rho = natural_representation(t2)

print("element | d=0 1 2 3 4  (three routes each, all equal)")
for x in range(t2.size):
    series = element_series(rho, x, 4)
    row = []
    for d in range(5):
        a = sym_power(rho, d).matrices[x].trace()
        b = sym_power_characters(rho, x, d)[d]
        c = series[d]
        assert a == b == c
        row.append(str(a))
    print(f"{t2.labels[x]:7} | {' '.join(row)}")

# det(I - t rho(m)) is the reversed characteristic polynomial; for the
# swap it is 1 - t^2, and its reciprocal series alternates.
print("\ndet(I - t swap) =", reversed_charpoly(rho, 1))
print("its reciprocal series:", [str(c) for c in element_series(rho, 1, 6)])

# A weighted sum over eMe becomes one exact rational function, a
# (numerator, denominator) pair in lowest terms.
n5 = nt_paper_representation(5)
weights = [0, 1, 1, 0, 0, 0]          # identity and the element 2
num, den = weighted_series(n5, 1, weights)
print(f"\ng(t) = ({num}) / ({den})")
print("coefficients:", [str(c) for c in series_prefix(num, den, 6)])

# The symmetric-power coverage theorem for T_2: s = 3 distinct
# characteristic polynomials, dimension 2, so degrees 0..5 suffice.
report = verify_symmetric_theorem(rho)
print(f"\nT_2 symmetric coverage: s = {report.s}, degrees 0..{report.bound}, "
      f"holds = {report.holds}")
