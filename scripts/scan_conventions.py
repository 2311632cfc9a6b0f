#!/usr/bin/env python3
"""Scan the candidate straightening conventions for the double of T_N.

The cross-relation f.h = sum h_(2) . f(<left> x <right>) leaves a finite
ambiguity: which coproduct leg sits on which side of the argument, and
which of them carries the inverse antipode.  Each choice gives a candidate
product on H (x) H*; only one survives both gates:

  gate 1: the product is associative (checked on all basis triples),
  gate 2: the canonical element solves the constant Yang-Baxter equation.

This script reruns that scan and prints the verdict table.  The winner is
pinned as DEFAULT_CONVENTION; "left_s" is kept as the associative-but-YBE-
failing negative control in the regression suite.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbax import CONVENTIONS, DEFAULT_CONVENTION, build_double, \
    build_taft, canonical_r, check_constant_ybe_algebraic
from hopfbax.algebra import associativity_violations, unit_violations


# Taft order of the scan (associativity is exhaustive: dim N^4)
N = 2


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    h = build_taft(N)
    winners = []
    print(f"convention     assoc  unit   constant-YBE   (D(T_{N}), dim {N ** 4})")
    for conv in CONVENTIONS:
        t0 = time.perf_counter()
        d = build_double(h, conv)
        assoc = not associativity_violations(d.algebra)
        unit = not unit_violations(d.algebra)
        ybe = (check_constant_ybe_algebraic(d, canonical_r(d).tensor()).passed
               if assoc else False)
        dt = time.perf_counter() - t0
        if assoc and unit and ybe:
            winners.append(conv)
        print(f"{conv:12s}   {'ok' if assoc else 'NO':5s}  {'ok' if unit else 'NO':5s}"
              f"  {'ok' if ybe else ('NO' if assoc else '-'):12s}  {dt:5.1f}s")
    print()
    if winners == [DEFAULT_CONVENTION]:
        print(f"unique winner: {winners[0]} (= DEFAULT_CONVENTION)")
        return 0
    print(f"scan result {winners} disagrees with pinned default "
          f"{DEFAULT_CONVENTION!r}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
