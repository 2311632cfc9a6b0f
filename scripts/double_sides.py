#!/usr/bin/env python3
"""Check the class rule D(T_N) declares as its sides, cell by cell.

For each N in ORDERS and each primitive N-th root q, this builds the
double of T_{N,q} under the default convention and, in the counit basis
of H*, where the algebraic YBE checks walk and the only basis that
declares classes, fills every cell of the row table that the declared
sides rule out: the cells where both classes are declared (not None) and
differ.  Each of them must be empty, or the YBE walk would drop residual
terms.  The rule and its proof are in the docstring of DoubleAlgebra.
Each row prints the cells tested, how many of them were nonempty, and
the wall time; the script exits 1 if any was, or if the counit basis
does not declare N classes.

    python3 scripts/double_sides.py
"""

import pathlib
import sys
import time
from math import gcd

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbax import build_double, build_taft, cyclotomic

# Tier-1 fills the same cells for N = 2..4, under every convention
ORDERS = (5, 6)


def main() -> int:
    status = 0
    print("double    q          classes  cells of C tested  nonempty  time")
    for N in ORDERS:
        z = cyclotomic(N).q()
        for k in (k for k in range(1, N) if gcd(k, N) == 1):
            t0 = time.perf_counter()
            alg = build_double(build_taft(N, z ** k))._counit_basis()
            left, right = alg.sides
            tested = nonempty = 0
            for i in range(alg.dim):
                for j in range(alg.dim):
                    r, l = right[i], left[j]
                    if r is not None and l is not None and r != l:
                        tested += 1
                        nonempty += bool(alg.row(i, j))
            classes = len(set(left) - {None})
            status |= nonempty > 0 or classes != N
            print(f"D(T_{N})  zeta_{N}^{k:<4d} {classes:7d}  {tested:17d}"
                  f"  {nonempty:8d}  {time.perf_counter() - t0:5.2f}s",
                  flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
