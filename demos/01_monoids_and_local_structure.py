"""Building finite monoids and inspecting their local structure.

A monoid here is just a validated Cayley table.  Four constructors are
available; this script walks through all of them and then pokes at the
structure every later computation relies on: idempotents e, the local
monoids eMe, their unit groups G_e and the ideals I_e = eMe - G_e.
"""

from monoidrep import (
    Monoid,
    from_matrices,
    from_transformations,
    has_zero,
    idempotents,
    local_ideal,
    local_monoid,
    nt_monoid,
    unit_group,
)

# 1. Raw Cayley table: the cyclic group of order 2.
c2 = Monoid([[0, 1], [1, 0]], 0)
print("C_2:", c2, "idempotents:", idempotents(c2))

# 2. Transformation monoid: all self-maps of {1, 2}, generated by the
#    swap and one constant.  Labels are one-line notation.
t2 = from_transformations(2, [(2, 1), (1, 1)])
print("\nT_2 has", t2.size, "elements:", ", ".join(t2.labels))

# The two constants and the identity are idempotent; the swap is not.
for e in idempotents(t2):
    print(f"  e = {t2.labels[e]:6}  eMe = {[t2.labels[x] for x in local_monoid(t2, e)]}"
          f"  G_e = {[t2.labels[x] for x in unit_group(t2, e)]}"
          f"  I_e = {[t2.labels[x] for x in local_ideal(t2, e)]}")

# 3. Matrix monoid: closure of exact rational matrices.  A nilpotent
#    generator reaches the zero matrix after one step.
nil = from_matrices([[[0, 2], [0, 0]]], cap=100)
print("\nmatrix closure of [[0,2],[0,0]]:", nil.size, "elements,",
      "zero element at index", has_zero(nil))

# 4. The N_t family: t+1 elements, 1 is the identity, and any product of
#    two non-identity elements collapses to 0.  This tiny monoid is the
#    counterexample engine for everything in demo 04.
n5 = nt_monoid(5)
print("\nN_5:", n5.size, "elements, zero =", n5.labels[has_zero(n5)],
      "idempotents =", [n5.labels[e] for e in idempotents(n5)])
print("2 * 3 =", n5.labels[n5.table[2][3]], " 1 * 4 =", n5.labels[n5.table[1][4]])
