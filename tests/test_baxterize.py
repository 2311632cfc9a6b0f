from itertools import product as iproduct

import pytest

from hopfbax import (
    NotDiagonallyGraded,
    TensorElement,
    baxterize,
    baxterize_zn,
    build_double,
    build_taft,
    canonical_r,
    check_parametric_ybe_algebraic,
    double_grading,
    evaluate_at_one,
    mu_components,
    rep_irreducible,
    tensor_multiply,
    x_degree_grading,
)
from hopfbax.algebra import embed
from hopfbax.baxterize import decompose_graded


def _graded(double, h):
    g = double_grading(double, x_degree_grading(h))
    return decompose_graded(canonical_r(double).tensor(), g, g), g


def test_decompose_degrees_and_roundtrip(double3, taft3):
    graded, g = _graded(double3, taft3)
    assert sorted(graded) == [0, 1, 2]
    assert sum(graded.values(), TensorElement(graded[0].algebras)) \
        == canonical_r(double3).tensor()
    for d, block in graded.items():
        for (l0, l1) in block.terms:
            assert g.degree(l0) == d and g.degree(l1) == d


def test_decompose_rejects_off_diagonal_terms(double2, taft2):
    g = double_grading(double2, x_degree_grading(taft2))
    alg = double2.algebra
    bad = TensorElement.of(alg.basis(((0, 1), (0, 0))),   # degree 1
                           alg.basis(((0, 0), (0, 0))))   # degree 0
    with pytest.raises(NotDiagonallyGraded) as exc:
        decompose_graded(bad, g, g)
    assert "left degree 1" in str(exc.value)
    assert "right degree 0" in str(exc.value)


def test_decompose_rejects_wrong_arity(double2, taft2):
    g = double_grading(double2, x_degree_grading(taft2))
    alg = double2.algebra
    t3 = TensorElement.of(alg.unit(), alg.unit(), alg.unit())
    with pytest.raises(ValueError):
        decompose_graded(t3, g, g)


def test_baxterize_attaches_mu_powers(double2, taft2):
    graded, _ = _graded(double2, taft2)
    r_mu = baxterize(graded)
    comps = mu_components(r_mu)
    assert list(comps) == sorted(graded)
    for d, block in graded.items():
        assert comps[d] == block
    assert evaluate_at_one(r_mu) == canonical_r(double2).tensor()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_baxterize_blocks_are_the_graded_blocks(n):
    # R(mu) = sum_i mu^i R_i is held as {i: R_i}: exactly the blocks
    d = build_double(build_taft(n))
    graded, _ = _graded(d, d.h)
    assert sorted(graded) == list(range(n))
    r_mu = baxterize(graded)
    assert r_mu == graded
    assert list(r_mu) == sorted(graded)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_both_cli_routes_sum_back_to_the_canonical_element(n):
    # hopfbax baxterize does not re-check R(1) = R: the x-degree split and
    # its Z^2 lift weighted by tau = (1, 1) must each give R term for term
    d = build_double(build_taft(n))
    r = canonical_r(d).tensor()
    g = double_grading(d, x_degree_grading(d.h))
    lifted = g.lift_zn(lambda j: (j, 0))
    assert evaluate_at_one(baxterize(decompose_graded(r, g, g))).terms == r.terms
    assert evaluate_at_one(baxterize_zn(
        decompose_graded(r, lifted, lifted), (1, 1))).terms == r.terms


def test_degree_zero_block_needs_no_parameter(double2, taft2):
    graded, _ = _graded(double2, taft2)
    r = baxterize({0: graded[0]})
    assert r == {0: graded[0]}
    assert mu_components(r) == {0: graded[0]}
    assert evaluate_at_one(r) == graded[0]


def test_baxterize_rejects_tuple_degrees(double2, taft2):
    g = double_grading(double2, x_degree_grading(taft2))
    lifted = g.lift_zn(lambda d: (d, 0))
    graded = decompose_graded(canonical_r(double2).tensor(), lifted, lifted)
    with pytest.raises(TypeError):
        baxterize(graded)


def test_baxterize_rejects_empty():
    with pytest.raises(ValueError):
        baxterize({})
    with pytest.raises(ValueError):
        baxterize_zn({}, (1, 1))


def test_zn_lift_recovers_flat_family(double3, taft3):
    graded, g = _graded(double3, taft3)
    flat = baxterize(graded)
    lifted_grading = g.lift_zn(lambda d: (d, 2 * d))
    lifted = decompose_graded(canonical_r(double3).tensor(),
                              lifted_grading, lifted_grading)
    assert baxterize_zn(lifted, (1, 0)) == flat
    assert baxterize_zn(lifted, lambda p: p[0]) == flat
    # tau = 0 forgets the parameter entirely
    assert baxterize_zn(lifted, (0, 0)) == {0: canonical_r(double3).tensor()}
    # a genuinely different additive tau reweights the powers
    comps = mu_components(baxterize_zn(lifted, (1, 1)))
    assert sorted(comps) == [0, 3, 6]


def test_zn_rejects_non_additive_tau(double3, taft3):
    _, g = _graded(double3, taft3)
    lifted_grading = g.lift_zn(lambda d: (d, 2 * d))
    lifted = decompose_graded(canonical_r(double3).tensor(),
                              lifted_grading, lifted_grading)
    with pytest.raises(ValueError):
        baxterize_zn(lifted, lambda p: p[0] ** 2)
    with pytest.raises(ValueError):
        baxterize_zn(lifted, lambda p: p[0] + 1)


def test_mu_components_rejects_nu_dependence(double2):
    # a family keyed by (mu, nu) exponent pairs depends on nu
    alg = double2.algebra
    t = {(0, 1): TensorElement.of(alg.unit(), alg.unit())}
    with pytest.raises(ValueError, match="mu only"):
        mu_components(t)


def test_triple_product_exponents_follow_degrees(double2, taft2):
    # in R12(mu) R13(mu nu) R23(nu) the product of the blocks of degrees
    # a, b, c carries mu^(a+b) nu^(b+c), and each of its terms has degree
    # a+b in slot 1 and b+c in slot 3: homogeneity transports the grading
    # onto the parameters
    graded, g = _graded(double2, taft2)
    r_mu = baxterize(graded)
    algs = (double2.algebra,) * 3
    r12, r13, r23 = ({e: embed(t, slots, algs) for e, t in r_mu.items()}
                     for slots in ((0, 1), (0, 2), (1, 2)))
    surviving = 0
    for a, b, c in iproduct(r_mu, repeat=3):
        lhs = tensor_multiply(tensor_multiply(r12[a], r13[b]), r23[c])
        surviving += len(lhs.terms)
        for (k1, _, k3) in lhs.terms:
            assert g.degree(k1) == a + b
            assert g.degree(k3) == b + c
    assert surviving


@pytest.mark.parametrize("call, error, match", [
    (lambda d, r: check_parametric_ybe_algebraic(d, r), TypeError,
     "not a family"),
    (lambda d, r: evaluate_at_one(r), TypeError, "not a family"),
    (lambda d, r: mu_components({0: [r]}), TypeError, "not a family"),
    (lambda d, r: evaluate_at_one({}), ValueError, "empty family"),
    (lambda d, r: check_parametric_ybe_algebraic(d, {}), ValueError,
     "empty family"),
    (lambda d, r: rep_irreducible(d, 2, 1).tensor_image({}), ValueError,
     "empty family"),
], ids=["check-tensor", "evaluate-tensor", "list-block", "evaluate-empty",
        "check-empty", "image-empty"])
def test_family_consumers_say_what_a_family_is(double2, call, error, match):
    # a family R(mu) = sum_e mu^e R_e is a nonempty {e: TensorElement} dict;
    # a bare TensorElement (the form before families) or an empty dict is
    # refused with an error that says so
    r = canonical_r(double2).tensor()
    with pytest.raises(error, match=match):
        call(double2, r)
