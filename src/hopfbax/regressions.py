"""The twelve-item acceptance suite with frozen reference matrices.

Each criterion function returns a RegressionResult; run_all() executes the
whole ladder.  The reference matrices are stored as canonical strings and
parsed, never rebuilt through the construction pipeline, so a regression
in any layer (scalars, Hopf tables, double, Baxterization, representation
formulas) surfaces as an entry mismatch here.

All comparisons are exact equality of canonical forms; there are no
tolerances anywhere.
"""

from __future__ import annotations

import io
import os
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from .algebra import TensorElement
from .baxterize import baxterize_zn, decompose_graded
from .double import build_double, canonical_r, check_constant_ybe_algebraic, \
    double_grading
from .hopf import HopfAlgebra, check_coproduct_grading, check_grading, \
    check_hopf_axioms, dual_algebra, dual_grading
from .matrices import ParametricMatrix, find_diagonal_gauge, kron_entries
from .scalars import SQRT_Q, accumulate, cyclotomic, eval_q_powers, \
    parse_param_scalar
from .taft import _primitive_roots, a_degree_grading, build_taft, \
    canonical_r_mu, rep_irreducible, taft_r_matrix, x_degree_grading
from .uqsl2 import r_matrix_terms, spin_half, spin_one, uqsl2_r_matrix
from .ybe import check_constant_ybe, check_parametric_ybe


class RegressionResult(namedtuple("RegressionResult",
                                  "number title passed detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if (self.detail and not self.passed) else ""
        return f"{flag}  criterion {self.number:2d}: {self.title}{tail}"

    def to_dict(self):
        return self._asdict()


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------

_SPIN_HALF_ENTRIES = {
    (1, 1): "s", (2, 2): "1/s", (3, 3): "1/s", (4, 4): "s",
    (2, 3): "mu*(q - q^-1)/s",
}

_SPIN_ONE_ENTRIES = {
    (1, 1): "q^2", (2, 2): "1", (3, 3): "q^-2", (4, 4): "1", (5, 5): "1",
    (6, 6): "1", (7, 7): "q^-2", (8, 8): "1", (9, 9): "q^2",
    (2, 4): "mu*(q^2 - q^-2)",
    (3, 5): "mu*q^-2*(q^2 - q^-2)",
    (3, 7): "mu^2*q^-1*(q - q^-1)*(q - q^-1)*(q + q^-1)",
    (5, 7): "mu*(q^2 - q^-2)",
    (6, 8): "mu*(q^2 - q^-2)",
}


def _taft_9x9_entries(l: int) -> dict:
    return {
        (1, 1): "1",
        (2, 2): f"q^{-l - 2}",
        (2, 4): "mu*(1 - q^-2)",
        (3, 3): f"q^{-2 * (l + 2)}",
        (3, 5): f"mu*q^{-l - 4}*(q^2 - 1)",
        (3, 7): "mu^2*(1 - q^-1)*(1 - q^-2)",
        (4, 4): f"q^{l}",
        (5, 5): "q^-1",
        (5, 7): f"mu*q^{l + 1}*(1 - q^-2)",
        (6, 6): f"q^{-l - 2}",
        (6, 8): "mu*(1 - q^-2)",
        (7, 7): f"q^{2 * l}",
        (8, 8): f"q^{l}",
        (9, 9): "1",
    }


def _from_strings(dim, domain, entries) -> ParametricMatrix:
    m = ParametricMatrix(dim, domain)
    for (r, c), text in entries.items():
        m.set(r - 1, c - 1, parse_param_scalar(text, domain))
    return m


def reference_spin_half() -> ParametricMatrix:
    return _from_strings(4, SQRT_Q, _SPIN_HALF_ENTRIES)


def reference_spin_one() -> ParametricMatrix:
    return _from_strings(9, SQRT_Q, _SPIN_ONE_ENTRIES)


def reference_taft_9x9(l: int) -> ParametricMatrix:
    """The closed-form 9x9 family for the 3-dimensional modules V_{3,l}."""
    return _from_strings(9, cyclotomic(4), _taft_9x9_entries(l))


# ---------------------------------------------------------------------------
# shared builds (cached: criteria reuse each other's objects)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spin_matrices():
    return {"1/2": uqsl2_r_matrix(spin_half(), parametric=True),
            "1": uqsl2_r_matrix(spin_one(), parametric=True)}


@lru_cache(maxsize=None)
def _taft4():
    h = build_taft(4)
    d = build_double(h)
    reps = {l: rep_irreducible(d, 3, l) for l in (1, 2, 3, 4)}
    mats = {l: taft_r_matrix(r, parametric=True, normalize=True)
            for l, r in reps.items()}
    return h, d, reps, mats


@lru_cache(maxsize=None)
def _doubles():
    return {n: build_double(build_taft(n)) for n in (2, 3)}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1() -> RegressionResult:
    """4x4 spin-1/2 family, reconstructed end to end through the CLI."""
    from . import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["uqsl2", "--spin", "1/2", "--parametric",
                         "--format", "json"])
    ok, detail = False, ""
    if code != 0:
        detail = f"cli exit code {code}"
    else:
        got = ParametricMatrix.from_json(buf.getvalue())
        ok = got == reference_spin_half()
        detail = "" if ok else "entry mismatch against stored reference"
    return RegressionResult(1, "spin-1/2 4x4 family matches the stored "
                               "reference (via cli)", ok, detail)


def criterion_2() -> RegressionResult:
    ok = _spin_matrices()["1"] == reference_spin_one()
    return RegressionResult(2, "spin-1 9x9 family matches the stored "
                               "reference", ok,
                            "" if ok else "entry mismatch")


def criterion_3() -> RegressionResult:
    _, _, _, mats = _taft4()
    bad = [l for l in (1, 2, 3, 4)
           if mats[l] != reference_taft_9x9(l)]
    return RegressionResult(3, "Taft 9x9 family (N=4, V_{3,l}) matches the "
                               "stored reference for every l", not bad,
                            "" if not bad else f"mismatch at l={bad}")


def _all_family_matrices():
    mats = dict(_spin_matrices())
    _, _, _, tmats = _taft4()
    for l, m in tmats.items():
        mats[f"taft l={l}"] = m
    return mats


def criterion_4() -> RegressionResult:
    bad = [name for name, m in _all_family_matrices().items()
           if not check_parametric_ybe(m).passed]
    return RegressionResult(4, "every reconstructed family satisfies the "
                               "parametric Yang-Baxter identity in mu, nu",
                            not bad, "" if not bad else f"failed: {bad}")


def criterion_5() -> RegressionResult:
    problems = []
    for name, m in _all_family_matrices().items():
        if not check_constant_ybe(m.at_one()).passed:
            problems.append(f"{name}: constant YBE at mu=1")
    for name, rep in (("1/2", spin_half()), ("1", spin_one())):
        if uqsl2_r_matrix(rep, parametric=True).at_one() \
                != uqsl2_r_matrix(rep, parametric=False):
            problems.append(f"spin-{name}: mu=1 vs constant series")
    _, d, reps, _ = _taft4()
    for l, rep in reps.items():
        raw_mu = taft_r_matrix(rep, parametric=True, normalize=False)
        raw_const = taft_r_matrix(rep, parametric=False, normalize=False)
        # the raw sum of pi(z) (x) pi(z^*) over the basis of H, read off the
        # module's images without the double's canonical element
        image = {}
        for z in d.h.algebra.labels:
            for k, v in kron_entries(rep.h_image(z), rep.dual_image(z),
                                     rep.dim).items():
                accumulate(image, k, v)
        image = ParametricMatrix(rep.dim ** 2, rep.domain, image)
        if not (raw_mu.at_one() == raw_const == image):
            problems.append(f"taft l={l}: mu=1 vs canonical image")
    return RegressionResult(5, "mu=1 specialization solves the constant YBE "
                               "and equals the unweighted canonical image",
                            not problems, "; ".join(problems))


def criterion_6() -> RegressionResult:
    problems = []
    for n in range(2, 7):
        for q in _primitive_roots(n):
            rep = check_hopf_axioms(build_taft(n, q))
            if not rep.passed:
                problems.append(f"N={n}, q={q}")
    h = build_taft(2)
    co = dict(h.coproduct)
    alg = h.algebra
    co[(0, 1)] = TensorElement((alg, alg),
                               {((0, 1), (0, 0)): alg.domain.one()})
    corrupted = check_hopf_axioms(HopfAlgebra(alg, co, h.counit, h.antipode))
    compat = next(a for a in corrupted.axioms
                  if a.name == "bialgebra compatibility")
    if compat.passed or not compat.counterexample:
        problems.append("corrupted coproduct not caught with a counterexample")
    return RegressionResult(6, "Hopf axiom suite passes for N=2..6, all "
                               "primitive q; corrupted coproduct is caught",
                            not problems, "; ".join(problems))


def criterion_7() -> RegressionResult:
    problems = []
    h, _, _, _ = _taft4()
    g = x_degree_grading(h)
    r1 = check_grading(h.algebra, g)
    r2 = check_coproduct_grading(h, g)
    if not (r1.passed and r2.passed and r1.nontrivial):
        problems.append("x-degree grading checks")
    if check_coproduct_grading(h, a_degree_grading(h)).passed:
        problems.append("a-degree grading wrongly accepted by coproduct check")
    for name, rep in (("1/2", spin_half()), ("1", spin_one())):
        if _spin_matrices()[name].blocks() != r_matrix_terms(rep):
            problems.append(f"spin-{name}: mu-power blocks")
    return RegressionResult(7, "grading suite: Taft x-degree passes, "
                               "a-degree control fails, mu-power equals "
                               "e-power per series term", not problems,
                            "; ".join(problems))


def criterion_8() -> RegressionResult:
    bad = []
    for n in range(2, 6):
        h = build_taft(n)
        hd = dual_algebra(h)
        if not check_grading(hd, dual_grading(x_degree_grading(h), hd)).passed:
            bad.append(n)
    return RegressionResult(8, "dual grading is multiplicatively homogeneous "
                               "on the dual of every Taft algebra, N=2..5",
                            not bad, "" if not bad else f"failed N={bad}")


def criterion_9() -> RegressionResult:
    bad = []
    for n, d in _doubles().items():
        if not check_constant_ybe_algebraic(d, canonical_r(d).tensor()).passed:
            bad.append(n)
    return RegressionResult(9, "canonical element of D(T_N) solves the "
                               "constant YBE by exact expansion, N=2,3",
                            not bad, "" if not bad else f"failed N={bad}")


def criterion_10() -> RegressionResult:
    d = _doubles()[3]
    flat = canonical_r_mu(d)
    lifted = double_grading(d, x_degree_grading(d.h)).lift_zn(
        lambda j: (j, 0))
    g2 = decompose_graded(canonical_r(d).tensor(), lifted, lifted)
    ok = (baxterize_zn(g2, (1, 1)) == flat
          and baxterize_zn(g2, lambda p: p[0] + p[1]) == flat)
    return RegressionResult(10, "Z^2-lifted Baxterization with coordinate-sum "
                                "tau reproduces the Z-graded output "
                                "term-for-term", ok,
                            "" if ok else "term mismatch")


def criterion_11() -> RegressionResult:
    dom8 = cyclotomic(8)
    Q = dom8.q()
    h = build_taft(4, Q * Q)
    d = build_double(h)
    rep = rep_irreducible(d, 3, 3)
    taft_m = taft_r_matrix(rep, parametric=True, normalize=True)
    spin1_at = _spin_matrices()["1"].map_entries(
        lambda v: v.map_scalars(lambda x: eval_q_powers(x, Q)))
    gauge = find_diagonal_gauge(spin1_at, taft_m)
    detail = "no scalar+diagonal gauge found" if gauge is None else \
        f"scalar {gauge[0]}, diagonal {[str(x) for x in gauge[1]]}"
    return RegressionResult(11, "Taft 9x9 at l=N-1 is a scalar plus diagonal "
                                "gauge transform of the spin-1 family "
                                "(gauge discovered, then verified)",
                            gauge is not None, detail)


def criterion_12() -> RegressionResult:
    problems = []
    half = _spin_matrices()["1/2"]
    bad_half = half.copy()
    bad_half.set(1, 2, bad_half.get(1, 2) + bad_half.get(1, 2))
    if check_constant_ybe(bad_half.at_one()).passed:
        problems.append("doubled 4x4 entry passed constant YBE")
    if check_parametric_ybe(bad_half).passed:
        problems.append("doubled 4x4 entry passed parametric YBE")
    one = _spin_matrices()["1"]
    bad_one = one.copy()
    bad_one.set(2, 6, bad_one.get(2, 6) * 2)
    if check_parametric_ybe(bad_one).passed:
        problems.append("perturbed 9x9 mu^2 entry passed parametric YBE")
    d = _doubles()[2]
    r = canonical_r(d).tensor()
    key = next(iter(sorted(r.terms, key=repr)))
    perturbed = TensorElement((d.algebra, d.algebra),
                              {**r.terms, key: r.terms[key] + r.terms[key]})
    if check_constant_ybe_algebraic(d, perturbed).passed:
        problems.append("perturbed canonical element passed algebraic YBE")
    from . import cli
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corrupted.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bad_half.to_json())
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            code = cli.main(["verify", "--input", path])
        if code != 1:
            problems.append(f"cli verify on corrupted input exited {code}")
    return RegressionResult(12, "negative controls: perturbed matrices and "
                                "elements fail their checks; cli verify "
                                "exits 1", not problems, "; ".join(problems))


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12)


def run_all() -> list:
    return [c() for c in CRITERIA]
