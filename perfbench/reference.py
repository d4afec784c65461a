"""Fixed reference program: the benchmark's yardstick for host speed.

It uses nothing from monoidrep, so its run time depends only on the
machine and the interpreter.  It does the kind of work `mbt` does:
exact `Fraction` row reduction, list and tuple building and dict
lookups.  On an unloaded 2-core Xeon VM with Python 3.11 it takes about
one second.
"""

from fractions import Fraction

N, ROUNDS = 34, 14


def reduce_rows(rows):
    pivots = {}
    for r in rows:
        v = list(r)
        for p, row in pivots.items():
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        p = next((j for j, c in enumerate(v) if c), None)
        if p is not None:
            inv = 1 / v[p]
            pivots[p] = tuple(c * inv for c in v)
    return pivots


if __name__ == "__main__":
    for k in range(ROUNDS):
        rank = len(reduce_rows(
            [[Fraction((i * 7 + j * 13 + k) % 11 - 5, (i + 2 * j) % 5 + 1)
              for j in range(N)] for i in range(N)]))
    print(f"rank {rank}")
