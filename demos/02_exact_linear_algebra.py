"""The exact arithmetic substrate: rational matrices and polynomials.

Everything downstream (radicals, annihilators, generating functions)
reduces to kernels, ranks, Kronecker products and characteristic
polynomials over the rationals.  No floating point is involved anywhere,
so every equality below is exact.
"""

from fractions import Fraction

from monoidrep import (
    Echelon,
    Matrix,
    charpoly,
    charpoly_from_power_traces,
    complete_homogeneous_sequence,
    kron,
    power_traces,
)

# A matrix's rows, fed to an exact echelon, give its rank and its
# kernel, in a canonical form: one vector per free column.
m = Matrix([[1, 1], [1, 1]])
print("kernel of [[1,1],[1,1]]:", Echelon(m.ncols, m.rows).kernel_basis())

# Rank and nullity always add up to the number of columns.
gram = Matrix([[4, 0, 1, 1], [0, 4, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])
ech = Echelon(gram.ncols, gram.rows)
print("rank of the T_2 trace-form Gram matrix:", ech.rank,
      " nullity:", len(ech.kernel_basis()))

# The Kronecker product realises the action on a tensor product; its
# trace is the product of the traces.
swap = Matrix([[0, 1], [1, 0]])
print("trace(swap x swap) =", kron(swap, swap).trace(),
      "= trace(swap)^2 =", swap.trace() ** 2)

# A characteristic polynomial is read off the traces of the matrix
# powers; on an integral matrix every exact division lands in the
# integers.
fib = Matrix([[0, 1], [1, 1]])
print("charpoly of the Fibonacci companion matrix:", charpoly(fib))

# Newton's identities turn power traces tr(A), tr(A^2), ... into the
# characteristic polynomial without touching eigenvalues; ``charpoly``
# is exactly that, so the two lines below agree.
a = Matrix([[Fraction(1, 2), 3], [0, -2]])
p = power_traces(a, 2)
print("power traces:", p)
print("rebuilt charpoly:", charpoly_from_power_traces(p, 2))
print("direct charpoly: ", charpoly(a))

# The same identities evaluate complete homogeneous symmetric functions
# of the eigenvalues; h_d of (1, 1) counts degree-d monomials in two
# variables.
for d in range(5):
    print(f"h_{d}(1, 1) =", complete_homogeneous_sequence((2, 2, 2, 2), d)[d])
