import pytest

from hopfbax import (
    NotDiagonallyGraded,
    ParamScalar,
    TensorElement,
    baxterize,
    baxterize_zn,
    canonical_r,
    double_grading,
    evaluate_at_one,
    mu_components,
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
    assert sorted(comps) == sorted(graded)
    dom = r_mu.domain
    for d, block in graded.items():
        assert comps[d] == block.scaled(ParamScalar.mu(dom, d))
    assert evaluate_at_one(r_mu) == canonical_r(double2).tensor()


def test_degree_zero_block_needs_no_parameter(double2, taft2):
    graded, _ = _graded(double2, taft2)
    r = baxterize({0: graded[0]})
    assert all(not c.uses_parameters() for c in r.terms.values())
    assert r == graded[0]


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
    assert baxterize_zn(lifted, (0, 0)) == canonical_r(double3).tensor()
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
    alg = double2.algebra
    t = TensorElement.of(alg.unit(), alg.unit()).scaled(
        ParamScalar.nu(double2.domain))
    with pytest.raises(ValueError):
        mu_components(t)


def test_triple_product_exponents_follow_degrees(double2, taft2):
    # in R12(mu) R13(mu nu) R23(nu) every surviving monomial carries
    # mu^(deg of slot 1) nu^(deg of slot 3): homogeneity transports the
    # grading onto the parameters
    graded, g = _graded(double2, taft2)
    r_mu = baxterize(graded)
    algs = (double2.algebra,) * 3
    r12 = embed(r_mu, (0, 1), algs)
    r13 = embed(r_mu.map_coefficients(
        lambda v: v.remap_exponents(mu_to=(1, 1))), (0, 2), algs)
    r23 = embed(r_mu.map_coefficients(
        lambda v: v.remap_exponents(mu_to=(0, 1))), (1, 2), algs)
    lhs = tensor_multiply(tensor_multiply(r12, r13), r23)
    assert lhs.terms
    for (k1, _, k3), c in lhs.terms.items():
        for (e_mu, e_nu) in c.terms:
            assert e_mu == g.degree(k1)
            assert e_nu == g.degree(k3)
