import random
import time
from math import gcd

import pytest

from hopfbax import (
    Grading,
    HopfAlgebra,
    TensorElement,
    build_taft,
    check_coproduct_grading,
    check_grading,
    check_hopf_axioms,
    cyclotomic,
    dual,
    dual_grading,
    pair,
    tensor_multiply,
    x_degree_grading,
)
from hopfbax.taft import a_degree_grading


def test_hopf_axioms_pass(taft2, taft3):
    for h in (taft2, taft3):
        report = check_hopf_axioms(h)
        assert report.passed, report.summary()
        names = [a.name for a in report.axioms]
        assert "bialgebra compatibility" in names
        assert "antipode" in names
        assert len(names) == 7


def test_corrupted_coproduct_fails_loudly(taft3):
    alg = taft3.algebra
    x = alg.basis((0, 1))
    e = alg.unit()
    coproduct = dict(taft3.coproduct)
    coproduct[(0, 1)] = TensorElement.of(x, e)  # drop the a (x) x term
    broken = HopfAlgebra(alg, coproduct, taft3.counit, taft3.antipode)
    report = check_hopf_axioms(broken)
    assert not report.passed
    compat = next(a for a in report.axioms if a.name == "bialgebra compatibility")
    assert not compat.passed
    assert compat.counterexample


def test_coproduct_of_x_squared(taft3):
    q = taft3.domain.q()
    alg = taft3.algebra
    got = taft3.delta(alg.basis((0, 2)))
    x2, ax, a2 = alg.basis((0, 2)), alg.basis((1, 1)), alg.basis((2, 0))
    x, e = alg.basis((0, 1)), alg.unit()
    expect = (TensorElement.of(x2, e)
              + TensorElement.of(ax, x).scaled(alg.domain.one() + q)
              + TensorElement.of(a2, alg.basis((0, 2))))
    assert got == expect


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coproduct_matches_homomorphism_expansion(n, taft2, taft3, taft4):
    # independent oracle: Delta is an algebra map, so Delta(a^i x^j) must
    # equal Delta(a)^i Delta(x)^j built from the generator coproducts alone
    from hopfbax import build_taft
    h = {2: taft2, 3: taft3, 4: taft4}.get(n) or build_taft(n)
    alg = h.algebra
    da = h.delta(alg.basis((1, 0)))
    dx = h.delta(alg.basis((0, 1)))
    one = TensorElement.of(alg.unit(), alg.unit())
    for i in range(n):
        for j in range(n):
            expect = one
            for _ in range(i):
                expect = tensor_multiply(expect, da)
            for _ in range(j):
                expect = tensor_multiply(expect, dx)
            assert h.delta(alg.basis((i, j))) == expect, (n, i, j)


def test_antipode_closed_values(taft4):
    alg = taft4.algebra
    q = alg.domain.q()
    # gamma(x) = -a^(N-1) x
    assert taft4.gamma(alg.basis((0, 1))) == -alg.basis((3, 1))
    # gamma(a) = a^(N-1)
    assert taft4.gamma(alg.basis((1, 0))) == alg.basis((3, 0))
    # gamma(ax) = -q^-1 a^2 x at N=4
    assert taft4.gamma(alg.basis((1, 1))) == alg.basis((2, 1)).scaled(-(q ** -1))


def test_antipode_is_invertible():
    # T_2..T_6 at every primitive root, and their duals: gamma_inverse must
    # be a two-sided inverse of gamma on every basis element
    for n in range(2, 7):
        z = cyclotomic(n).q()
        for k in (k for k in range(1, n) if gcd(k, n) == 1):
            h = build_taft(n, z ** k)
            for hh in (h, dual(h)):
                alg = hh.algebra
                for l in alg.labels:
                    b = alg.basis(l)
                    assert hh.gamma_inverse(hh.gamma(b)) == b, (alg.name, k, l)
                    assert hh.gamma(hh.gamma_inverse(b)) == b, (alg.name, k, l)


@pytest.mark.parametrize("broken", ["doubled", "zero image"])
def test_gamma_inverse_refuses_a_map_that_is_no_antipode(taft4, broken):
    # 2S is invertible but of infinite order; a zero image is singular
    alg = taft4.algebra
    if broken == "doubled":
        antipode = {l: v.scaled(2) for l, v in taft4.antipode.items()}
    else:
        antipode = {**taft4.antipode, (1, 1): alg.zero()}
    h = HopfAlgebra(alg, taft4.coproduct, taft4.counit, antipode)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        h.gamma_inverse(alg.basis((0, 1)))
    assert time.perf_counter() - t0 < 0.5


def test_counit_values(taft3):
    alg = taft3.algebra
    one, zero = alg.domain.one(), alg.domain.zero()
    assert taft3.eps(alg.basis((2, 0))) == one
    assert taft3.eps(alg.basis((0, 1))) == zero
    assert taft3.eps(alg.basis((1, 1))) == zero


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_pairing_is_dual_basis(taft3):
    alg = taft3.algebra
    d = dual(taft3)
    for l1 in alg.labels:
        for l2 in alg.labels:
            got = pair(d.algebra.basis(l1), alg.basis(l2))
            want = alg.domain.one() if l1 == l2 else alg.domain.zero()
            assert got == want


def test_dual_product_is_adjoint_to_coproduct(taft3):
    # <f g, z> = sum <f, z_(1)> <g, z_(2)> checked on random elements
    alg = taft3.algebra
    d = dual(taft3)
    rng = random.Random(11)
    labels = list(alg.labels)

    def rand(algebra):
        out = algebra.zero()
        for _ in range(3):
            c = algebra.domain.from_fraction(rng.randint(-2, 2))
            out = out + algebra.basis(rng.choice(labels)).scaled(c)
        return out

    for _ in range(12):
        f, g, z = rand(d.algebra), rand(d.algebra), rand(alg)
        lhs = pair(f * g, z)
        rhs = alg.domain.zero()
        for (l0, l1), c in taft3.delta(z).terms.items():
            rhs = rhs + (pair(f, alg.basis(l0)) * pair(g, alg.basis(l1))
                         * c.as_scalar())
        assert lhs == rhs


def test_dual_unit_is_counit(taft3):
    unit = dual(taft3).algebra.unit()
    # epsilon = sum over group-likes (a^i)*
    assert unit.terms == {l: c for l, c in taft3.counit.items()
                          if not c.is_zero()}


def test_dual_x_star_squares_to_zero(taft3):
    # no basis coproduct contains x (x) x, so (x*)^2 = 0 in the dual
    d = dual(taft3)
    xs = d.algebra.basis((0, 1))
    assert (xs * xs).is_zero()


def test_dual_is_hopf(taft2, taft3):
    for h in (taft2, taft3):
        report = check_hopf_axioms(dual(h))
        assert report.passed, report.summary()


def test_double_dual_recovers_structure(taft3):
    h2 = dual(dual(taft3))
    alg, alg2 = taft3.algebra, h2.algebra
    assert alg2.labels == alg.labels
    for l1 in alg.labels:
        for l2 in alg.labels:
            assert alg2.product_basis(l1, l2) == alg.product_basis(l1, l2)
    for l in alg.labels:
        assert h2.coproduct[l].terms == taft3.coproduct[l].terms
        assert h2.counit[l] == taft3.counit[l]
        assert h2.antipode[l].terms == taft3.antipode[l].terms


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

def test_x_degree_grading_is_compatible(taft3):
    g = x_degree_grading(taft3)
    prod = check_grading(taft3.algebra, g)
    cop = check_coproduct_grading(taft3, g)
    assert prod.passed and prod.nontrivial
    assert cop.passed and cop.nontrivial
    assert g.degree((2, 1)) == 1
    assert g.degree((1, 0)) == 0


def test_a_degree_grading_fails_both_checks(taft3):
    g = a_degree_grading(taft3)
    assert g.is_nontrivial()
    # a^2 * a = e has degree 0, not 3
    assert not check_grading(taft3.algebra, g).passed
    # Delta(a) = a (x) a has degree 2 on the right, 1 on the left
    cop = check_coproduct_grading(taft3, g)
    assert not cop.passed
    assert cop.violations


def test_trivial_grading_is_flagged(taft3):
    g = Grading(taft3.algebra, {l: 0 for l in taft3.algebra.labels})
    rep = check_grading(taft3.algebra, g)
    assert rep.passed and not rep.nontrivial
    assert not g.is_nontrivial()


def test_grading_requires_every_label(taft3):
    with pytest.raises(ValueError):
        Grading(taft3.algebra, {(0, 0): 0})


def test_dual_grading_transports_degrees(taft3):
    g = x_degree_grading(taft3)
    d = dual(taft3)
    gd = dual_grading(g, d.algebra)
    assert gd.degree((0, 1)) == 1
    rep = check_coproduct_grading(d, gd)
    assert rep.passed and rep.nontrivial


def test_zn_lift_of_grading(taft3):
    g = x_degree_grading(taft3)
    lifted = g.lift_zn(lambda d: (d, 2 * d))
    assert lifted.degree((0, 2)) == (2, 4)
    assert lifted.is_nontrivial()
    assert check_grading(taft3.algebra, lifted).passed
