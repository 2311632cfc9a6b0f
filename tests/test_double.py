import random
import sys
from math import gcd

import pytest

from hopfbax import (
    CONVENTIONS,
    DEFAULT_CONVENTION,
    Algebra,
    TensorElement,
    build_double,
    build_taft,
    canonical_r,
    check_constant_ybe_algebraic,
    check_parametric_ybe_algebraic,
    cyclotomic,
    double_grading,
    rep_irreducible,
    taft_r_matrix,
    x_degree_grading,
)
from hopfbax import hopf
from hopfbax.algebra import associativity_violations, embed, \
    tensor_multiply, unit_violations
from hopfbax.baxterize import baxterize, decompose_graded, mu_components
from hopfbax.regressions import criterion_8
from hopfbax.scalars import accumulate, laurent_by_key
from hopfbax.taft import canonical_r_mu
from hopfbax.ybe import YbeReport, ybe_residual


def test_double_dimension_and_labels(double2, taft2):
    alg = double2.algebra
    assert alg.dim == 16
    h_labels = taft2.algebra.labels
    assert set(alg.labels) == {(g, f) for g in h_labels for f in h_labels}


def test_unknown_convention_rejected(taft2):
    with pytest.raises(ValueError):
        build_double(taft2, "outside_in")
    assert DEFAULT_CONVENTION in CONVENTIONS


def test_embeddings_are_algebra_maps(double2, taft2):
    halg = taft2.algebra
    dalg = double2.dual_algebra
    for l1 in halg.labels:
        for l2 in halg.labels:
            left = double2.embed_h(halg.basis(l1)) * double2.embed_h(halg.basis(l2))
            assert left == double2.embed_h(halg.basis(l1) * halg.basis(l2))
            dleft = double2.embed_dual(dalg.basis(l1)) * double2.embed_dual(dalg.basis(l2))
            assert dleft == double2.embed_dual(dalg.basis(l1) * dalg.basis(l2))
    assert double2.embed_h(halg.unit()) == double2.algebra.unit()


def test_pair_label_is_h_times_dual(double2):
    alg = double2.algebra
    for (g, f) in alg.labels:
        prod = double2.embed_h(g) * double2.embed_dual(f)
        assert prod == alg.basis((g, f))


def test_double_is_associative_exhaustively_n2(double2):
    assert unit_violations(double2.algebra) == []
    assert associativity_violations(double2.algebra) == []


def test_double_is_associative_exhaustively_n3(double3):
    # all 81^3 triples of D(T_3), batched over the third factor
    assert unit_violations(double3.algebra) == []
    assert associativity_violations(double3.algebra) == []


def test_canonical_r_factor_structure(double3, taft3):
    r = canonical_r(double3)
    assert len(r.factors) == taft3.algebra.dim
    assert all(g == f for g, f in r.factors)
    t = r.tensor()
    assert not t.is_zero()
    assert t.arity == 2


def test_canonical_r_satisfies_constant_ybe(double2):
    report = check_constant_ybe_algebraic(double2,
                                          canonical_r(double2).tensor())
    assert report.passed
    assert report.residual_terms == 0
    assert report.kind == "constant-algebraic"


def test_perturbed_r_fails_constant_ybe(double2):
    t = canonical_r(double2).tensor()
    alg = double2.algebra
    extra = TensorElement.of(alg.basis(((1, 0), (0, 0))),
                             alg.basis(((0, 1), (0, 0))))
    report = check_constant_ybe_algebraic(double2, t + extra)
    assert not report.passed
    assert report.residual_terms > 0
    assert report.worst is not None


def test_baxterized_r_satisfies_parametric_ybe(double2, taft2):
    grading = double_grading(double2, x_degree_grading(taft2))
    graded = decompose_graded(canonical_r(double2).tensor(), grading, grading)
    r_mu = baxterize(graded)
    report = check_parametric_ybe_algebraic(double2, r_mu)
    assert report.passed, report.worst
    assert report.kind == "parametric-algebraic"


# the residual reports of perturbed families, frozen from the check that
# multiplied Laurent-polynomial coefficients: (N, index of the perturbed key
# among the repr-sorted keys of the mu^1 block, the block it is added to,
# residual terms, worst entry)
_PERTURBED_FAMILIES = [
    (2, 0, 1, 8, "[x.(e)* (x) e.(a)* (x) e.(ax)*]: -1*mu*nu"),
    (3, 3, 1, 92, "[x.(e)* (x) x^2.(x)* (x) e.(x^2)*]: mu*nu^2"),
    (2, 0, 0, 14, "[x.(e)* (x) e.(e)* (x) e.(x)*]: 1 + -1*mu"),
    (3, 0, 0, 103, "[x.(e)* (x) e.(e)* (x) e.(x)*]: 1 + -1*mu"),
]


@pytest.mark.parametrize("n, pick, block, terms, worst", _PERTURBED_FAMILIES)
def test_perturbed_family_keeps_its_worst_entry(n, pick, block, terms, worst):
    # a mu^1 term doubled (block 1), or also put into the mu^0 block, so
    # that one key carries 1 + mu: the regrouped residual names the same
    # worst entry as the Laurent-coefficient residual did
    d = build_double(build_taft(n))
    grading = double_grading(d, x_degree_grading(d.h))
    r_mu = baxterize(decompose_graded(canonical_r(d).tensor(), grading,
                                      grading))
    key = sorted(r_mu[1].terms, key=repr)[pick]
    c = r_mu[1].terms[key]
    bad = dict(r_mu)
    bad[block] = r_mu[block] + TensorElement(r_mu[1].algebras, {key: c})
    report = check_parametric_ybe_algebraic(d, bad)
    assert not report.passed
    assert (report.residual_terms, report.worst) == (terms, worst)


def test_parametric_ybe_algebraic_refuses_nu_dependent_input(double2, taft2):
    # the check substitutes mu itself, so a nu in the input has no meaning;
    # the matrix check refuses such input the same way
    grading = double_grading(double2, x_degree_grading(taft2))
    graded = decompose_graded(canonical_r(double2).tensor(), grading, grading)
    r_mu = baxterize(graded)
    # R(nu) as a family keyed by (mu, nu) exponent pairs
    r_nu = {(0, e): block for e, block in r_mu.items()}
    with pytest.raises(ValueError, match="mu only"):
        check_parametric_ybe_algebraic(double2, r_nu)
    assert check_parametric_ybe_algebraic(double2, r_mu).passed


def test_double_grading_adds_leg_degrees(double3, taft3):
    g = double_grading(double3, x_degree_grading(taft3))
    # deg(a^i x^j . (a^k x^l)*) = j + l
    assert g.degree(((1, 2), (0, 1))) == 3
    assert g.degree(((2, 0), (1, 0))) == 0
    assert g.is_nontrivial()


# ---------------------------------------------------------------------------
# the straightening rule is pinned operationally: among the candidate
# sign/side/antipode-power conventions exactly one yields an associative
# double whose canonical R solves the constant YBE
# ---------------------------------------------------------------------------

def _assoc_ok(d):
    return associativity_violations(d.algebra) == []


def test_selected_convention_passes_both_gates(taft2):
    d = build_double(taft2, "inv_left_s")
    assert _assoc_ok(d)
    assert check_constant_ybe_algebraic(d, canonical_r(d).tensor()).passed


def test_mirror_convention_is_associative_but_fails_ybe(taft2):
    d = build_double(taft2, "left_s")
    assert _assoc_ok(d)
    assert not check_constant_ybe_algebraic(d, canonical_r(d).tensor()).passed


def test_swapped_sandwich_convention_breaks_associativity(taft2):
    d = build_double(taft2, "s_inv_right")
    assert not _assoc_ok(d)


def test_convention_scan_has_unique_winner(taft2):
    winners = []
    for conv in CONVENTIONS:
        d = build_double(taft2, conv)
        r = canonical_r(d).tensor()
        if _assoc_ok(d) and check_constant_ybe_algebraic(d, r).passed:
            winners.append(conv)
    assert winners == ["inv_left_s"]


# ---------------------------------------------------------------------------
# straightening from index rows against the AlgebraElement sandwich
# ---------------------------------------------------------------------------

def _reference_cross_for(d, g):
    """f.g for every dual label f, each sandwich L k R formed as a product of
    AlgebraElements, with the legs decoded from the convention tokens."""
    h, conv = d.h, d.convention
    halg = h.algebra
    out = {f: {} for f in halg.labels}
    for (u, v, w), c in h.delta_squared(g).terms.items():
        twisted, plain = (w, u) if "right" in conv else (u, w)
        twist = h.gamma_inverse if "inv" in conv else h.gamma
        legs = (twist(twisted), halg.basis(plain))
        left, right = legs if conv.startswith("s_") else legs[::-1]
        for k in halg.labels:
            sandwiched = left * halg.basis(k) * right
            for m, val in sandwiched.terms.items():
                accumulate(out[m], (v, k), c * val)
    return out


@pytest.mark.parametrize("n, conventions", [
    (2, CONVENTIONS), (3, CONVENTIONS), (4, (DEFAULT_CONVENTION,))])
def test_straightening_matches_the_element_sandwich(n, conventions):
    z = cyclotomic(n).q()
    for q in (z ** k for k in range(1, n) if gcd(k, n) == 1):
        h = build_taft(n, q)
        for conv in conventions:
            d = build_double(h, conv)
            for g in h.algebra.labels:
                assert d._cross_for(g) == _reference_cross_for(d, g), (q, conv, g)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_double_sides_match_their_rows(n):
    # the conventions that twist h_(1) declare the class rule proved in
    # DoubleAlgebra's docstring, so the walk pairs only keys that can meet:
    # every cell the rule rules out is empty; the other four conventions
    # break the rule and keep the single class
    z = cyclotomic(n).q()
    for q in (z ** k for k in range(1, n) if gcd(k, n) == 1):
        h = build_taft(n, q)
        for conv in CONVENTIONS:
            alg = build_double(h, conv).algebra
            left, right = alg.sides
            if "right" in conv:
                assert alg.sides == ((0,) * alg.dim,) * 2, conv
                continue
            assert set(left) == set(right) == set(range(n)), conv
            basis = range(alg.dim)
            for i in basis:
                for j in basis:
                    if right[i] != left[j]:
                        assert not alg.row(i, j), (q, conv, i, j)


# ---------------------------------------------------------------------------
# the index-space walk against the block-pair engine it replaced
# ---------------------------------------------------------------------------

def _worst_tensor_term(residual: dict, label_str):
    """The entry of {label key: ParamScalar} with the most Laurent terms,
    the first in repr order on a tie."""
    if not residual:
        return None
    key = max(sorted(residual, key=repr),
              key=lambda k: len(residual[k].terms))
    name = " (x) ".join(label_str(l) for l in key)
    return f"[{name}]: {residual[key]}"


def _reference_triple_compare(kind, double, f12, f13, f23) -> YbeReport:
    """The residual R12 R13 R23 - R23 R13 R12 from one tensor_multiply per
    pair and per triple of exponent blocks, over label keys."""
    algs = (double.algebra,) * 3
    f12, f13, f23 = ({e: embed(t, slots, algs) for e, t in f.items()}
                     for f, slots in ((f12, (0, 1)), (f13, (0, 2)),
                                      (f23, (1, 2))))
    residual = {}
    for x, y, z, neg in ((f12, f13, f23, False), (f23, f13, f12, True)):
        for (a, b), tx in x.items():
            for (c, d), ty in y.items():
                txy = tensor_multiply(tx, ty)
                for (e, f), tz in z.items():
                    mu, nu = a + c + e, b + d + f
                    for key, v in tensor_multiply(txy, tz).terms.items():
                        accumulate(residual, (key, mu, nu), -v if neg else v)
    by_key = laurent_by_key(residual)
    return YbeReport(kind=kind, dim=double.algebra.dim, passed=not residual,
                     residual_terms=len(by_key),
                     worst=_worst_tensor_term(by_key, double.algebra.label_str))


def _reports(d, r):
    """(engine, reference) reports: the constant check for a TensorElement
    r, the parametric check for a family {e: R_e}."""
    if isinstance(r, TensorElement):
        family = {(0, 0): r}
        return (check_constant_ybe_algebraic(d, r), _reference_triple_compare(
            "constant-algebraic", d, family, family, family))
    blocks = mu_components(r)
    return (check_parametric_ybe_algebraic(d, r), _reference_triple_compare(
        "parametric-algebraic", d, {(e, 0): t for e, t in blocks.items()},
        {(e, e): t for e, t in blocks.items()},
        {(0, e): t for e, t in blocks.items()}))


def _family(d):
    grading = double_grading(d, x_degree_grading(d.h))
    return baxterize(decompose_graded(canonical_r(d).tensor(), grading,
                                      grading))


def _doubled(r, key):
    return TensorElement(r.algebras, {**r.terms, key: r.terms[key] * 2})


def _engine_inputs():
    doubles = {n: build_double(build_taft(n)) for n in (2, 3, 4)}
    for n, d in doubles.items():
        yield f"canonical R, D(T_{n})", d, canonical_r(d).tensor()
        yield f"canonical family, D(T_{n})", d, _family(d)
    for n, keys in ((2, None), (3, 5)):
        d = doubles[n]
        r = canonical_r(d).tensor()
        ordered = sorted(r.terms, key=repr)
        if keys is not None:
            ordered = random.Random(n).sample(ordered, keys)
        for key in ordered:
            yield f"D(T_{n}) term {key} doubled", d, _doubled(r, key)
    for n in (2, 3):
        # left_s declares sides, and its canonical R fails the YBE
        left = build_double(build_taft(n), "left_s")
        yield f"left_s, D(T_{n})", left, canonical_r(left).tensor()
    family = _family(doubles[3])
    yield "block 1 scaled by 2, D(T_3)", doubles[3], {
        **family, 1: family[1].scaled(family[1].algebras[0].domain.one() * 2)}
    top = max(family)
    yield "top block moved up one, D(T_3)", doubles[3], {
        **{e: t for e, t in family.items() if e != top}, top + 1: family[top]}


def test_walk_reports_equal_the_block_pair_engine():
    seen = []
    for name, d, r in _engine_inputs():
        got, expect = _reports(d, r)
        assert got == expect, name
        seen.append(got)
    # the inputs reach both verdicts, and Laurent residuals of several terms
    assert any(r.passed for r in seen) and any(not r.passed for r in seen)
    assert any(r.worst and r.worst.count("mu") > 1 for r in seen)


def test_declared_sides_leave_the_residual_as_one_class_does():
    # the double's classes skip only cells the rule proves empty, so on
    # failing inputs the walk gives, key for key, the residual of a walk
    # that puts every basis index in one class
    d, left = (build_double(build_taft(3), conv)
               for conv in (DEFAULT_CONVENTION, "left_s"))
    r, family = canonical_r(d).tensor(), _family(d)
    cases = [(d, {0: _doubled(r, min(r.terms))}, False),
             (d, mu_components({**family, 1: family[1].scaled(
                 d.domain.one() * 2)}), True),
             (left, {0: canonical_r(left).tensor()}, False)]
    for double, blocks, parametric in cases:
        blind = build_double(double.h, double.convention).algebra
        blind.sides = ((0,) * blind.dim,) * 2
        index = double.algebra.index
        blocks = {e: {(index[a], index[b]): c for (a, b), c in t.terms.items()}
                  for e, t in blocks.items()}
        got = ybe_residual(double.algebra, blocks, parametric)
        assert got, (double.convention, parametric)
        assert got == ybe_residual(blind, blocks, parametric)


def test_warm_and_cold_doubles_give_identical_reports():
    # the warm double's row table, and so its shared constants, is filled
    # before any check's memo exists; the cold double fills it while walking
    warm, cold = (build_double(build_taft(3)) for _ in range(2))
    basis = range(warm.algebra.dim)
    for i in basis:
        for j in basis:
            warm.algebra.row(i, j)
    reports = []
    for d in (warm, cold):
        r = canonical_r(d).tensor()
        family = _family(d)
        reports.append([report.to_dict() for report in (
            check_constant_ybe_algebraic(d, r),
            check_parametric_ybe_algebraic(d, family),
            check_constant_ybe_algebraic(d, _doubled(r, min(r.terms))),
            check_parametric_ybe_algebraic(d, {
                **family, 1: family[1].scaled(d.domain.one() * 2)}))])
    assert reports[0] == reports[1]
    assert [r["passed"] for r in reports[0]] == [True, True, False, False]


def test_double_paths_never_build_the_dual_hopf_algebra(monkeypatch):
    # the double, its modules, their R-matrices, the algebraic YBE checks
    # and criterion 8 read only H*'s algebra (hopf.dual_algebra); every
    # name bound to hopf.dual raises here, wherever it was imported
    def refuse(h):
        raise AssertionError("hopf.dual was called")

    real = hopf.dual
    for name, module in list(sys.modules.items()):
        if name == "hopfbax" or name.startswith("hopfbax."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, refuse)
    for n in (2, 3, 4):
        d = build_double(build_taft(n))
        assert isinstance(d.dual_algebra, Algebra)
        assert taft_r_matrix(rep_irreducible(d, n, 1)).dim == n * n
        assert check_constant_ybe_algebraic(d, canonical_r(d).tensor()).passed
        assert check_parametric_ybe_algebraic(d, canonical_r_mu(d)).passed
    assert criterion_8().passed
