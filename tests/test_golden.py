"""Frozen CLI transcripts: stdout, stderr and exit code, byte for byte.

Each case in CASES has three files under tests/golden/: <name>.out,
<name>.err and <name>.exit.  They cover the README command-line examples
(all but the slow all-regressions), the Hopf report of T_8 (the largest
--N), plus the LaTeX and text renderings of
the V_{3,1} family, the LaTeX of the spin-1 family (fractions in s), the
text of baxterize --N 3 (the flat route, next to the --zn JSON) and a
constant JSON verify.  The verify cases read the frozen JSON of the
V_{3,1} family, so they need no temporary file.

The JSON of the spin-3/2 and spin-2 U_q[sl(2)] families, parametric and
constant, is frozen there too, as uqsl2_spin<2j>_2_<kind>.json: the
spin-1/2 and spin-1 entries are pinned elsewhere, and these catch an
index slip in the series terms at dimension 4 and up.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from itertools import product as iproduct
import pathlib
import sys

import pytest

from hopfbax import CONVENTIONS, build_double, build_taft, rep_irreducible, \
    uqsl2_r_matrix
from hopfbax.cli import main
from hopfbax.taft import RepresentationError
from hopfbax.uqsl2 import spin_rep

GOLDEN = pathlib.Path(__file__).parent / "golden"
_R_JSON = "{golden}/taft_rep31_json.out"

CASES = {
    "uqsl2_half_verify_json": ["uqsl2", "--spin", "1/2", "--parametric",
                               "--verify", "--format", "json"],
    "uqsl2_one_latex": ["uqsl2", "--spin", "1", "--parametric",
                        "--format", "latex"],
    "taft_hopf_report": ["taft", "--N", "3"],
    "taft_n8_report": ["taft", "--N", "8"],
    "taft_rep31_json": ["taft", "--N", "4", "--rep", "3,1", "--parametric",
                        "--format", "json"],
    "taft_rep31_latex": ["taft", "--N", "4", "--rep", "3,1", "--parametric",
                         "--format", "latex"],
    "taft_rep31_text": ["taft", "--N", "4", "--rep", "3,1", "--parametric",
                        "--format", "text"],
    "taft_indecomposable_verify": ["taft", "--N", "3", "--indecomposable", "q",
                                   "--l", "1", "--parametric", "--verify"],
    "double_n2_parametric": ["double", "--N", "2", "--parametric"],
    "baxterize_n3_text": ["baxterize", "--N", "3"],
    "baxterize_n3_zn_json": ["baxterize", "--N", "3", "--zn",
                             "--format", "json"],
    "verify_auto": ["verify", "--input", _R_JSON],
    "verify_braid": ["verify", "--input", _R_JSON, "--kind", "braid"],
    "verify_constant_json": ["verify", "--input", _R_JSON, "--kind",
                             "constant", "--format", "json"],
}


def _run(argv):
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), f"{code}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_frozen(name):
    out, err, code = _run(CASES[name])
    assert code == (GOLDEN / f"{name}.exit").read_text()
    assert err == (GOLDEN / f"{name}.err").read_text()
    assert out == (GOLDEN / f"{name}.out").read_text()


SPINS = {f"uqsl2_spin{two_j}_2_{kind}.json": (two_j, kind == "parametric")
         for two_j in (3, 4) for kind in ("parametric", "constant")}


def _spin_json(name):
    two_j, parametric = SPINS[name]
    return uqsl2_r_matrix(spin_rep(two_j), parametric=parametric).to_json()


@pytest.mark.parametrize("name", sorted(SPINS))
def test_larger_spin_families_are_frozen(name):
    assert _spin_json(name) == (GOLDEN / name).read_text()


def _module_convention_text():
    lines = []
    for N in range(2, 7):
        h = build_taft(N)
        for conv in CONVENTIONS:
            d = build_double(h, conv)
            for n, l in iproduct(range(1, N + 1), repeat=2):
                try:
                    rep_irreducible(d, n, l)
                    verdict = "ok"
                except RepresentationError as e:
                    verdict = f"FAIL {e}"
                lines.append(f"{N} {conv} {n} {l} {verdict}\n")
    return "".join(lines)


def test_module_verdicts_under_every_convention_are_frozen():
    assert (_module_convention_text().splitlines()
            == (GOLDEN / "module_conventions.txt").read_text().splitlines())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    # the verify cases read taft_rep31_json.out, so it is written first
    for name in sorted(CASES, key=lambda n: n != "taft_rep31_json"):
        for suffix, text in zip(("out", "err", "exit"), _run(CASES[name])):
            (GOLDEN / f"{name}.{suffix}").write_text(text)
        print(name, file=sys.stderr)
    for name in SPINS:
        (GOLDEN / name).write_text(_spin_json(name))
        print(name, file=sys.stderr)
    (GOLDEN / "module_conventions.txt").write_text(_module_convention_text())
    print("module_conventions.txt", file=sys.stderr)
