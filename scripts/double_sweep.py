#!/usr/bin/env python3
"""Check the algebraic Yang-Baxter equations inside D(T_N) for each N.

For each N in --orders this builds the double of T_N, checks that its
canonical element R solves the constant YBE by exact expansion in
D (x) D (x) D, Baxterizes R along the x-degree grading and checks the
parametric YBE of R(mu) the same way.  Each row prints the verdict, the
wall time of that check (the parametric one includes the Baxterization)
and the peak RSS of the process so far; a FAIL row prints the worst
residual term and the script exits 1.
"""

import argparse
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbax import build_double, build_taft, canonical_r, \
    check_constant_ybe_algebraic, check_parametric_ybe_algebraic
from hopfbax.taft import canonical_r_mu


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4])
    args = ap.parse_args()

    status = 0
    print("double     dim  check         verdict   time     peak RSS")
    for N in args.orders:
        d = build_double(build_taft(N))
        r = canonical_r(d).tensor()
        checks = (
            ("constant", lambda: check_constant_ybe_algebraic(d, r)),
            ("parametric", lambda: check_parametric_ybe_algebraic(
                d, canonical_r_mu(d))),
        )
        for kind, check in checks:
            t0 = time.perf_counter()
            report = check()
            dt = time.perf_counter() - t0
            status |= 0 if report.passed else 1
            flag = "PASS" if report.passed else f"FAIL {report.worst}"
            print(f"D(T_{N})  {d.algebra.dim:5d}  {kind:12s}  {flag:8s}"
                  f"  {dt:6.2f}s  {_peak_rss_mb():6.1f} MB")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
