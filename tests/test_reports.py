"""Frozen report texts: every YBE backend and the Hopf-axiom report.

The constant and parametric checks of each backend share one residual
engine, so a change to an engine shows up here as a changed summary,
residual count or worst entry.
"""

from hopfbax import (
    HopfAlgebra,
    TensorElement,
    baxterize,
    braid_check,
    build_double,
    build_taft,
    canonical_r,
    check_constant_ybe,
    check_constant_ybe_algebraic,
    check_hopf_axioms,
    check_parametric_ybe,
    check_parametric_ybe_algebraic,
    decompose_graded,
    double_grading,
    spin_half,
    uqsl2_r_matrix,
    x_degree_grading,
)

_MATRIX_FAIL = {
    "constant": (2, "(2,5): (-2 + 4*s^4 - 2*s^8)/(s^5)"),
    "parametric": (2, "(2,5): ((-2 + 4*s^4 - 2*s^8)/(s^5))*mu*nu"),
    "braid": (2, "(5,5): (2 - 4*s^4 + 2*s^8)/(s^5)"),
}

# spin-1/2's R(mu) given straight to the constant and braid checks: R(mu)
# stands in every slot, so the residual is a polynomial in mu
_MATRIX_MU = {
    "constant": (2, "(2,5): ((1 - 2*s^4 + s^8)/(s^5))*mu"
                    " + ((-1 + 2*s^4 - s^8)/(s^5))*mu^2"),
    "braid": (2, "(5,5): ((-1 + 2*s^4 - s^8)/(s^5))*mu"
                 " + ((1 - 2*s^4 + s^8)/(s^5))*mu^2"),
}

_ALGEBRAIC_FAIL = {
    "constant-algebraic": (17, "[e.(e)* (x) x.(e)* (x) e.(x)*]: -3"),
    "parametric-algebraic": (17, "[e.(e)* (x) x.(e)* (x) e.(x)*]: -3*nu"),
}

_HOPF_CORRUPTED = """\
Hopf axioms for T_2:
  PASS  associativity
  PASS  unit
  PASS  coassociativity
  FAIL  counit  [x]
  FAIL  bialgebra compatibility  [x, a]
  PASS  bialgebra unit/counit of 1
  FAIL  antipode  [x]"""


def _assert_frozen(report, kind, dim, failure):
    if failure is None:
        assert report.summary() == f"PASS  {kind} Yang-Baxter check (dim {dim})"
        terms, worst = 0, None
    else:
        terms, worst = failure
        assert report.summary() == (
            f"FAIL  {kind} Yang-Baxter check (dim {dim}): "
            f"{terms} residual terms, worst {worst}")
    assert report.to_dict() == {"kind": kind, "dim": dim,
                                "passed": failure is None,
                                "residual_terms": terms, "worst": worst}


def test_report_texts_are_frozen():
    good = uqsl2_r_matrix(spin_half(), parametric=True)
    bad = good.copy()
    bad.set(1, 2, bad.get(1, 2) * 2)
    for m, failing in ((good, False), (bad, True)):
        reports = {"constant": check_constant_ybe(m.at_one()),
                   "parametric": check_parametric_ybe(m),
                   "braid": braid_check(m.at_one())}
        for kind, report in reports.items():
            _assert_frozen(report, kind, 4,
                           _MATRIX_FAIL[kind] if failing else None)
    _assert_frozen(check_constant_ybe(good), "constant", 4, _MATRIX_MU["constant"])
    _assert_frozen(braid_check(good), "braid", 4, _MATRIX_MU["braid"])

    d = build_double(build_taft(2))
    r = canonical_r(d).tensor()
    key = sorted(r.terms, key=repr)[0]
    bad_r = TensorElement((d.algebra, d.algebra),
                          {**r.terms, key: r.terms[key] + r.terms[key]})
    grading = double_grading(d, x_degree_grading(d.h))
    for element, failing in ((r, False), (bad_r, True)):
        r_mu = baxterize(decompose_graded(element, grading, grading))
        reports = {"constant-algebraic": check_constant_ybe_algebraic(d, element),
                   "parametric-algebraic": check_parametric_ybe_algebraic(d, r_mu)}
        for kind, report in reports.items():
            _assert_frozen(report, kind, 16,
                           _ALGEBRAIC_FAIL[kind] if failing else None)

    h = build_taft(2)
    alg = h.algebra
    coproduct = dict(h.coproduct)
    coproduct[(0, 1)] = TensorElement((alg, alg),
                                      {((0, 1), (0, 0)): alg.domain.one()})
    corrupted = HopfAlgebra(alg, coproduct, h.counit, h.antipode)
    assert check_hopf_axioms(corrupted).summary() == _HOPF_CORRUPTED
