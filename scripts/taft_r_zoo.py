#!/usr/bin/env python3
"""Sweep the modules of D(T_N) and verify every induced R-matrix exactly.

For each N in ORDERS this builds the double once, runs every irreducible
module V_{n,l} (1 <= n, l <= N) and a few indecomposables through the
canonical element, and checks the parametric Yang-Baxter identity for the
resulting dim(V)^2 x dim(V)^2 family.  Everything is symbolic; a FAIL row
prints the worst residual entry.

    python3 scripts/taft_r_zoo.py
"""

from functools import partial
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbax import build_double, build_taft, check_parametric_ybe, \
    rep_indecomposable, rep_irreducible, taft_r_matrix

ORDERS = (2, 3, 4, 5, 6)


def main() -> int:
    status = 0
    print("module        N  dim(R)   nnz  parametric-YBE   time")
    for N in ORDERS:
        h = build_taft(N)
        d = build_double(h)
        alphas = ((h.domain.one(), "1"), (h.domain.q(), "q"))
        modules = [(f"V_{{{n},{l}}}       ", n > 1,
                    partial(rep_irreducible, d, n, l))
                   for n in range(1, N + 1) for l in range(1, N + 1)]
        modules += [(f"W_{{{l}}}(a={tag})   ", False,
                     partial(rep_indecomposable, d, alpha, l))
                    for alpha, tag in alphas for l in (1, N)]
        for name, normalize, build in modules:
            t0 = time.perf_counter()
            r = taft_r_matrix(build(), parametric=True, normalize=normalize)
            rep_ok = check_parametric_ybe(r)
            dt = time.perf_counter() - t0
            status |= 0 if rep_ok.passed else 1
            flag = "PASS" if rep_ok.passed else f"FAIL {rep_ok.worst}"
            print(f"{name}{N}  {r.dim:4d}  {len(r.entries):5d}"
                  f"  {flag:14s}  {dt:5.2f}s")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
