#!/usr/bin/env python3
"""Rebuild the three R-matrix families and diff them against the frozen ones.

Writes JSON for the spin-1/2, spin-1 and Taft (N=4, V_{3,l}) families into
--outdir, then compares each against the stored reference entry tables.
Exit code 0 iff everything matches.  For LaTeX, use
``hopfbax uqsl2 ... --format latex`` or ``hopfbax taft ... --format latex``.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbax import build_double, build_taft, rep_irreducible, spin_half, \
    spin_one, taft_r_matrix, uqsl2_r_matrix
from hopfbax.regressions import reference_spin_half, reference_spin_one, \
    reference_taft_9x9


def families():
    yield "spin_half", uqsl2_r_matrix(spin_half()), reference_spin_half()
    yield "spin_one", uqsl2_r_matrix(spin_one()), reference_spin_one()
    d = build_double(build_taft(4))
    for l in (1, 2, 3, 4):
        rep = rep_irreducible(d, 3, l)
        yield f"taft_n3_l{l}", taft_r_matrix(rep), reference_taft_9x9(l)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", help="where to write matrices")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, built, ref in families():
        (outdir / f"{name}.json").write_text(built.to_json())
        ok = built == ref
        status |= 0 if ok else 1
        nnz = len(built.entries)
        print(f"{'PASS' if ok else 'FAIL'}  {name:12s} "
              f"dim {built.dim:2d}  nnz {nnz:3d}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
