import random
import time
from itertools import product as iproduct
from math import gcd

import pytest

from hopfbax import (
    Grading,
    HopfAlgebra,
    HopfReport,
    TensorElement,
    build_taft,
    check_coproduct_grading,
    check_grading,
    check_hopf_axioms,
    cyclotomic,
    dual,
    dual_grading,
    tensor_multiply,
    x_degree_grading,
)
from hopfbax.algebra import Algebra
from hopfbax.hopf import AxiomResult
from hopfbax.scalars import Memo, Scalar, accumulate
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


def _reference_hopf_axioms(h):
    """The axiom suite on AlgebraElement and TensorElement arithmetic: the
    reference for check_hopf_axioms, which compares index tables."""
    alg = h.algebra
    labels = alg.labels
    report = HopfReport(alg.name)

    def record(name, failures):
        bad = next(iter(failures), None)
        report.axioms.append(AxiomResult(name, bad is None, None if bad is None
                                         else ", ".join(map(alg.label_str, bad))))

    b = alg.basis
    record("associativity", (t for t in iproduct(labels, repeat=3)
                             if (b(t[0]) * b(t[1])) * b(t[2])
                             != b(t[0]) * (b(t[1]) * b(t[2]))))
    e = alg.unit()
    record("unit", ((l,) for l in labels if e * b(l) != b(l) or b(l) * e != b(l)))

    def coassoc_fail(l):
        right = {}
        for (l0, l1), c in h.delta(l).terms.items():
            for (m0, m1), d in h.coproduct[l1].terms.items():
                accumulate(right, (l0, m0, m1), c * d)
        return h.delta_squared(l) != TensorElement((alg,) * 3, right)

    record("coassociativity", ((l,) for l in labels if coassoc_fail(l)))

    def counit_fail(l):
        left, right = alg.zero(), alg.zero()
        for (l0, l1), c in h.delta(l).terms.items():
            left = left + b(l1).scaled(c * h.counit[l0])
            right = right + b(l0).scaled(c * h.counit[l1])
        return left != b(l) or right != b(l)

    record("counit", ((l,) for l in labels if counit_fail(l)))

    def compat_fail(pair):
        prod = b(pair[0]) * b(pair[1])
        return (h.delta(prod) != tensor_multiply(h.coproduct[pair[0]],
                                                 h.coproduct[pair[1]])
                or h.eps(prod) != h.counit[pair[0]] * h.counit[pair[1]])

    record("bialgebra compatibility",
           (p for p in iproduct(labels, labels) if compat_fail(p)))
    unit_ok = h.delta(e) == TensorElement.of(e, e) and h.eps(e).is_one()
    report.axioms.append(AxiomResult("bialgebra unit/counit of 1", unit_ok,
                                     None if unit_ok else "unit element"))

    def antipode_fail(l):
        want = e.scaled(h.counit[l])
        left, right = alg.zero(), alg.zero()
        for (l0, l1), c in h.delta(l).terms.items():
            left = left + (h.antipode[l0] * b(l1)).scaled(c)
            right = right + (b(l0) * h.antipode[l1]).scaled(c)
        return left != want or right != want

    record("antipode", ((l,) for l in labels if antipode_fail(l)))
    return report


def _every_primitive_root(n):
    z = cyclotomic(n).q()
    return [z ** k for k in range(1, n) if gcd(k, n) == 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_axioms_match_the_reference_checker(n):
    for q in _every_primitive_root(n):
        h = build_taft(n, q)
        report = check_hopf_axioms(h)
        assert report.passed
        assert report.to_dict() == _reference_hopf_axioms(h).to_dict()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corrupted_axioms_match_the_reference_checker(n):
    # every label of T_2..T_4 with a corrupted coproduct (an extra
    # l (x) a term), antipode (doubled) or counit (shifted by 1): the same
    # verdicts and the same first witnesses as the reference
    h = build_taft(n)
    alg = h.algebra
    one = alg.domain.one()
    for l in alg.labels:
        coproduct, counit, antipode = (dict(h.coproduct), dict(h.counit),
                                       dict(h.antipode))
        coproduct[l] = coproduct[l] + TensorElement((alg, alg),
                                                    {(l, (1, 0)): one})
        counit[l] = counit[l] + one
        antipode[l] = antipode[l].scaled(2)
        for broken in (HopfAlgebra(alg, coproduct, h.counit, h.antipode),
                       HopfAlgebra(alg, h.coproduct, counit, h.antipode),
                       HopfAlgebra(alg, h.coproduct, h.counit, antipode)):
            report = check_hopf_axioms(broken)
            assert not report.passed
            assert report.to_dict() == _reference_hopf_axioms(broken).to_dict()


def test_hopf_axioms_multiply_through_one_memo(monkeypatch):
    # every product of the check goes through one memo of interned values,
    # so T_5 needs few Scalar multiplications: 223 here, 24,508 when
    # each axiom multiplied plain Scalars term by term
    h = build_taft(5)
    calls = []
    mul = Scalar.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    assert check_hopf_axioms(h).passed
    assert len(calls) < 2500


def test_hopf_check_sums_one_basis_row_per_accumulate(monkeypatch):
    # associativity sums every c of a pair (a, b), and compatibility every
    # j of an i, in one accumulate per side: 1,578 calls on a fresh T_5,
    # 26,475 when each basis triple and pair was summed alone
    h = build_taft(5)
    calls = []
    accumulate_ = Memo.accumulate

    def counted(memo, pairs):
        calls.append(1)
        return accumulate_(memo, pairs)

    monkeypatch.setattr(Memo, "accumulate", counted)
    assert check_hopf_axioms(h).passed
    assert len(calls) < 2000


def test_associativity_needs_both_products_zero_to_skip(taft2):
    # T_2 with a * a = 0 instead of e: (x a) a = x but x (a a) = 0, and
    # (a a) x = 0 but a (a x) = x.  In each failing triple one of the rows
    # ab, bc is empty, so a check that skipped a triple when either row is
    # empty would pass this algebra
    alg = taft2.algebra

    def product(l1, l2):
        return {} if l1 == l2 == (1, 0) else alg.product_basis(l1, l2)

    broken = Algebra("T_2 with a^2 = 0", alg.domain, alg.labels,
                     alg._unit_terms, product, label_str=alg.label_str)
    h = HopfAlgebra(
        broken,
        {l: TensorElement((broken, broken), t.terms)
         for l, t in taft2.coproduct.items()},
        taft2.counit,
        {l: broken.element(v.terms) for l, v in taft2.antipode.items()})
    report = check_hopf_axioms(h)
    assoc = report.axioms[0]
    assert assoc.name == "associativity"
    assert (assoc.passed, assoc.counterexample) == (False, "x, a, a")
    assert report.to_dict() == _reference_hopf_axioms(h).to_dict()


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

def pair(f, x):
    """<f, x> for f in the dual basis algebra and x in the primal, by
    <a_i^*, a_j> = delta_ij: the reference the duality tests evaluate with."""
    out = f.algebra.domain.zero()
    for l, c in f.terms.items():
        d = x.terms.get(l)
        if d is not None:
            out = out + c * d
    return out


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
            rhs = rhs + (pair(f, alg.basis(l0)) * pair(g, alg.basis(l1)) * c)
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


def test_grading_check_reads_every_term_of_a_product(taft2):
    # e * e = e + x: the first term has the right degree 0, the later term
    # x has degree 1
    alg = taft2.algebra
    one = alg.domain.one()

    def product(l1, l2):
        if l1 == l2 == (0, 0):
            return {(0, 0): one, (0, 1): one}
        return alg.product_basis(l1, l2)

    broken = Algebra("T_2 with e e = e + x", alg.domain, alg.labels,
                     alg._unit_terms, product, label_str=alg.label_str)
    report = check_grading(broken, x_degree_grading(taft2))
    assert not report.passed
    assert report.violations == [("e", "e", "x")]


def test_coproduct_grading_reads_terms_led_by_the_label(taft2):
    # Delta(x) + x (x) x: the extra term has degree 2, not 1, and its first
    # leg is x itself
    alg = taft2.algebra
    x = alg.basis((0, 1))
    coproduct = dict(taft2.coproduct)
    coproduct[(0, 1)] = coproduct[(0, 1)] + TensorElement.of(x, x)
    broken = HopfAlgebra(alg, coproduct, taft2.counit, taft2.antipode)
    report = check_coproduct_grading(broken, x_degree_grading(taft2))
    assert not report.passed
    assert report.violations == [("x", "x", "x")]


def test_compatibility_witness_keeps_a_counit_only_failure(taft2):
    # eps(x) = 1 breaks eps(x y) = eps(x) eps(y) at (x, x) and (x, a), and
    # doubling Delta(ax) breaks Delta(x a) = Delta(x) Delta(a) at (x, a)
    # only.  Row e passes, so (x, x), which fails only the counit part, is
    # the first failing pair
    alg = taft2.algebra
    counit = {**taft2.counit, (0, 1): alg.domain.one()}
    coproduct = dict(taft2.coproduct)
    coproduct[(1, 1)] = coproduct[(1, 1)] + coproduct[(1, 1)]
    broken = HopfAlgebra(alg, coproduct, counit, taft2.antipode)
    compat = next(a for a in check_hopf_axioms(broken).axioms
                  if a.name == "bialgebra compatibility")
    assert (compat.passed, compat.counterexample) == (False, "x, x")


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
