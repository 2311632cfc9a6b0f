"""The package's record types: the report namedtuples and scalars.Domain.

Each record is built by position and by keyword, with its defaults, and
its to_dict() is checked against a literal dict."""

import pytest

from hopfbax import RATIONAL, SQRT_Q, CanonicalR, Domain, HopfReport, \
    YbeReport, cyclotomic
from hopfbax.hopf import AxiomResult, GradingReport
from hopfbax.regressions import RegressionResult


def test_axiom_result_fields_defaults_and_dict():
    assert AxiomResult("counit", True) == \
        AxiomResult(name="counit", passed=True, counterexample=None)
    bad = AxiomResult("antipode", False, "S(x)")
    assert (bad.name, bad.passed, bad.counterexample) == \
        ("antipode", False, "S(x)")
    assert bad.to_dict() == {"name": "antipode", "passed": False,
                             "counterexample": "S(x)"}
    assert type(bad.to_dict()) is dict


def test_hopf_report_gets_a_fresh_axiom_list():
    a, b = HopfReport("T_2"), HopfReport(algebra="T_2")
    assert a.axioms == [] and b.axioms == [] and a.axioms is not b.axioms
    a.axioms.append(AxiomResult("counit", True))
    assert b.axioms == [] and HopfReport("T_2").axioms == []
    assert a.passed
    a.axioms.append(AxiomResult("antipode", False, "S(x)"))
    assert not a.passed
    given = [AxiomResult("counit", True)]
    assert HopfReport("T_3", given).axioms is given
    assert HopfReport(axioms=given, algebra="T_3").to_dict() == {
        "algebra": "T_3", "passed": True,
        "axioms": [{"name": "counit", "passed": True,
                    "counterexample": None}]}


def test_grading_report_fields_defaults_and_dict():
    a = GradingReport("T_2", "product", True, True)
    b = GradingReport(algebra="T_2", kind="product", passed=True,
                      nontrivial=True)
    assert a == b and a.violations == [] and a.violations is not b.violations
    bad = GradingReport("T_2", "coproduct", False, True,
                        [("x", "a", "x")] * 7)
    assert bad.to_dict() == {"algebra": "T_2", "kind": "coproduct",
                             "passed": False, "nontrivial": True,
                             "violations": ["('x', 'a', 'x')"] * 5}
    assert bad.summary() == ("FAIL  coproduct homogeneity on T_2 "
                             "(nontrivial=True)  e.g. ('x', 'a', 'x')")


def test_ybe_report_fields_defaults_and_dict():
    ok = YbeReport("constant", 4, True)
    assert ok == YbeReport(kind="constant", dim=4, passed=True,
                           residual_terms=0, worst=None)
    assert ok.to_dict() == {"kind": "constant", "dim": 4, "passed": True,
                            "residual_terms": 0, "worst": None}
    bad = YbeReport("braid", 9, False, 3, "(1,2,3): mu")
    assert bad.to_dict() == {"kind": "braid", "dim": 9, "passed": False,
                             "residual_terms": 3, "worst": "(1,2,3): mu"}
    assert bad.summary() == ("FAIL  braid Yang-Baxter check (dim 9): "
                             "3 residual terms, worst (1,2,3): mu")


def test_regression_result_fields_defaults_and_dict():
    r = RegressionResult(3, "title", True)
    assert r == RegressionResult(number=3, title="title", passed=True,
                                 detail="")
    assert r.to_dict() == {"number": 3, "title": "title", "passed": True,
                           "detail": ""}
    assert RegressionResult(12, "t", False, "why").line() == \
        "FAIL  criterion 12: t  [why]"


def test_canonical_r_fields(double2):
    factors = tuple((l, l) for l in double2.h.algebra.labels)
    r = CanonicalR(double2, factors)
    assert r == CanonicalR(double=double2, factors=factors)
    assert r.double is double2 and r.factors is factors


def test_domain_equality_hash_and_str():
    assert Domain("cyclotomic", 8) == cyclotomic(8)
    assert hash(Domain("cyclotomic", 8)) == hash(cyclotomic(8))
    assert Domain("rational") == RATIONAL and Domain("sqrt_q") == SQRT_Q
    assert Domain("rational", 0) == Domain(kind="rational")
    assert cyclotomic(8) != cyclotomic(16) and RATIONAL != SQRT_Q
    assert len({cyclotomic(8), Domain("cyclotomic", 8), cyclotomic(16),
                RATIONAL, Domain("rational"), SQRT_Q}) == 4
    assert RATIONAL != ("rational", 0) and RATIONAL != "rational"
    assert [str(d) for d in (RATIONAL, SQRT_Q, cyclotomic(12))] == \
        ["rational", "sqrt_q", "cyclotomic(12)"]
    assert cyclotomic(4).phi == (1, 0, 1) and RATIONAL.phi == (-1, 1)
    assert SQRT_Q.phi == ()


def test_domain_construction_refusals():
    with pytest.raises(ValueError, match="unknown scalar domain 'p_adic'"):
        Domain("p_adic")
    with pytest.raises(ValueError, match="cyclotomic domain needs n >= 2"):
        Domain("cyclotomic", 1)
    with pytest.raises(ValueError, match="cyclotomic domain needs n >= 2"):
        Domain("cyclotomic")
