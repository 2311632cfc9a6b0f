import random
from math import gcd

import pytest

from hopfbax import (
    CONVENTIONS,
    DEFAULT_CONVENTION,
    TensorElement,
    build_double,
    build_taft,
    canonical_r,
    check_constant_ybe_algebraic,
    check_parametric_ybe_algebraic,
    cyclotomic,
    double_grading,
    x_degree_grading,
)
from hopfbax.algebra import associativity_violations, unit_violations
from hopfbax.baxterize import baxterize, decompose_graded
from hopfbax.scalars import accumulate


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
    dalg = double2.hdual.algebra
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


def test_double_is_associative_sampled_n3(double3):
    alg = double3.algebra
    assert unit_violations(alg) == []
    rng = random.Random(20240817)
    labels = list(alg.labels)
    triples = [tuple(rng.choice(labels) for _ in range(3)) for _ in range(1500)]
    assert associativity_violations(alg, triples) == []


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
