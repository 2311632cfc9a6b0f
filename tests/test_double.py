import json
import random
import sys
from itertools import product as iproduct

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
    double_grading,
    rep_irreducible,
    taft_r_matrix,
    x_degree_grading,
)
from hopfbax import hopf
from hopfbax.algebra import associativity_violations, unit_violations
from hopfbax.baxterize import baxterize, decompose_graded, mu_components
from hopfbax.double import _rewritten
from hopfbax.regressions import criterion_8
from hopfbax.scalars import Domain, Scalar, accumulate, laurent_by_key
from hopfbax.taft import _primitive_roots, canonical_r_mu
from hopfbax.ybe import YbeReport, residual_report, ybe_residual

from reference_ybe import reference_residual


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
    r_mu = canonical_r_mu(d)
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

# (associative, unital, constant YBE) of D(T_2) under each convention; the
# YBE is checked only where the product is associative
_CONVENTION_TABLE = {
    "s_inv_right": (False, True, None),
    "s_inv_left": (False, True, None),
    "s_right": (False, True, None),
    "s_left": (False, True, None),
    "inv_right_s": (False, True, None),
    "inv_left_s": (True, True, True),
    "right_s": (False, True, None),
    "left_s": (True, True, False),    # the mirror: fails only the YBE
}


def _convention_row(taft2, conv):
    d = build_double(taft2, conv)
    assoc = associativity_violations(d.algebra) == []
    ybe = check_constant_ybe_algebraic(
        d, canonical_r(d).tensor()).passed if assoc else None
    return assoc, unit_violations(d.algebra) == [], ybe


def test_selected_convention_passes_both_gates(taft2):
    assert _convention_row(taft2, "inv_left_s") == (True, True, True)


def test_mirror_convention_is_associative_but_fails_ybe(taft2):
    assert _convention_row(taft2, "left_s") == (True, True, False)


def test_swapped_sandwich_convention_breaks_associativity(taft2):
    assert _convention_row(taft2, "s_inv_right") == (False, True, None)


def test_convention_scan_has_unique_winner(taft2):
    table = {conv: _convention_row(taft2, conv) for conv in CONVENTIONS}
    assert table == _CONVENTION_TABLE
    assert [c for c, row in table.items() if all(row)] == [DEFAULT_CONVENTION]


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
    for q in _primitive_roots(n):
        h = build_taft(n, q)
        for conv in conventions:
            d = build_double(h, conv)
            for g in h.algebra.labels:
                assert d._cross_for(g) == _reference_cross_for(d, g), (q, conv, g)


# ---------------------------------------------------------------------------
# the counit basis of H*, in which the algebraic checks walk
# ---------------------------------------------------------------------------

_UNIT = (0, 0)     # the label of 1 = a^0 x^0 in T_N, and of eps in C


def test_pair_basis_declares_no_classes(taft3):
    # the class rule is declared once, on the counit basis the walk reads;
    # the pair basis puts every index in one class under every convention
    for conv in CONVENTIONS:
        alg = build_double(taft3, conv).algebra
        assert alg.sides == ((0,) * alg.dim,) * 2, conv


@pytest.mark.parametrize("n", [2, 3, 4])
def test_double_sides_match_their_rows(n):
    # under the conventions that twist h_(1), the counit basis declares the
    # class rule proved in DoubleAlgebra's docstring, with the pairs
    # (g, eps) of class None, so the walk pairs only keys that can meet:
    # every cell where both classes are declared and differ is empty; the
    # other four conventions break the rule and keep the single class
    for q in _primitive_roots(n):
        h = build_taft(n, q)
        for conv in CONVENTIONS:
            alg = build_double(h, conv)._counit_basis()
            left, right = alg.sides
            if "right" in conv:
                assert alg.sides == ((0,) * alg.dim,) * 2, conv
                continue
            assert set(left) == set(right) == {*range(n), None}, conv
            assert [c is None for c in left] == [
                f == _UNIT for _, f in alg.labels] == [
                c is None for c in right], conv
            basis = range(alg.dim)
            for i in basis:
                for j in basis:
                    if None not in (right[i], left[j]) and right[i] != left[j]:
                        assert not alg.row(i, j), (q, conv, i, j)


def _in_pair_basis(pairs, terms):
    """{(pair index,): Scalar} as an element of the double."""
    return pairs.element({pairs.labels[i]: c for (i,), c in terms.items()})


@pytest.mark.parametrize("n, conventions", [
    (2, CONVENTIONS), (3, CONVENTIONS), (4, (DEFAULT_CONVENTION,))])
def test_counit_basis_cells_are_the_pair_products_written_in_c(n, conventions):
    # (g, eps) is embedded g and every other pair of C the pair of its
    # label; writing into C undoes writing back; every cell of the
    # counit-basis algebra is the pair-basis product of its two elements,
    # written in C; and every cell that the declared classes rule out
    # (both not None, unequal) is empty, the pairs (g, eps) being of class
    # None under the conventions that declare the rule
    for q in _primitive_roots(n) if n < 4 else (None,):
        h = build_taft(n, q)
        for conv in conventions:
            d = build_double(h, conv)
            alg = d._counit_basis()
            pairs, one, rest = d.algebra, d.domain.one(), d._eps_rest
            back = [_rewritten({(i,): one}, rest, 1, True)
                    for i in range(alg.dim)]
            for i, (g, f) in enumerate(alg.labels):
                assert _in_pair_basis(pairs, back[i]) == (
                    d.embed_h(g) if f == _UNIT else pairs.basis((g, f)))
                assert _rewritten(_rewritten({(i,): one}, rest, 1, False),
                                  rest, 1, True) == {(i,): one}
            left, right = alg.sides
            if "right" in conv:
                assert alg.sides == ((0,) * alg.dim,) * 2
            else:
                assert [c is None for c in left] == [
                    f == _UNIT for _, f in alg.labels] == [
                    c is None for c in right]
            basis = range(alg.dim)
            for i in basis:
                for j in basis:
                    want = {}
                    for (a,), ca in back[i].items():
                        for (b,), cb in back[j].items():
                            for k, ck in pairs.row(a, b):
                                accumulate(want, (k,), ca * cb * ck)
                    cell = alg.row(i, j)
                    assert {(k,): c for k, c in cell} == _rewritten(
                        want, rest, 1, False), (q, conv, i, j)
                    assert not cell or None in (right[i], left[j]) or (
                        right[i] == left[j]), (q, conv, i, j)


def test_counit_rewrite_touches_only_the_pairs_of_one_star(monkeypatch):
    # on D(T_3) the rewrite map has one key per pair (g, 1^*), each holding
    # the N - 1 pairs (g, (a^m)^*), m != 0; a key with no such slot comes
    # out of either direction as it went in, with the same coefficient
    # object and no Scalar product; and writing into C and back, or back
    # and into C, is the identity on every pair index
    d = build_double(build_taft(3))
    alg, dom = d._counit_basis(), d.domain
    rest, index = d._eps_rest, alg.index
    assert rest == {index[g, _UNIT]: tuple(
        (index[g, (m, 0)], dom.one()) for m in (1, 2))
        for g in d.h.algebra.labels}
    others = [i for i in range(alg.dim) if i not in rest]
    assert len(others) == alg.dim - 9
    products = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    coefficients = (dom.one(), dom.q(), -dom.one())
    for n, (i, j) in enumerate(iproduct(others, repeat=2)):
        c = coefficients[n % 3]
        for back in (False, True):
            got = _rewritten({(i, j, 5, 0): c}, rest, 2, back)
            assert got == {(i, j, 5, 0): c} and got[i, j, 5, 0] is c
    assert not products
    one = dom.one()
    for i in range(alg.dim):
        for back in (False, True):
            there = _rewritten({(i,): one}, rest, 1, back)
            assert len(there) == (3 if i in rest else 1)
            assert _rewritten(there, rest, 1, not back) == {(i,): one}, i


def test_counit_cells_by_eps_take_no_product_by_one(monkeypatch):
    # k eps = k: filling every cell (g1, f1)(g2, eps) of D(T_3)'s counit
    # basis, _straightened multiplies each term of f1 . g2 by H's row
    # constants only, and never by a 1 the domain hands out for eps
    d = build_double(build_taft(3))
    alg, halg = d._counit_basis(), d.h.algebra
    for g in halg.labels:
        d._cross_for(g)
    for i, j in iproduct(range(halg.dim), repeat=2):
        halg.row(i, j)
    ones, operands = [], []
    one, mul = Domain.one, Scalar.__mul__

    def counted_one(dom):
        ones.append(one(dom))
        return ones[-1]

    def traced(a, b):
        if sys._getframe(1).f_code.co_name == "_straightened":
            operands.extend((a, b))
        return mul(a, b)

    monkeypatch.setattr(Domain, "one", counted_one)
    monkeypatch.setattr(Scalar, "__mul__", traced)
    for (i, (_, f1)), (j, (_, f2)) in iproduct(enumerate(alg.labels),
                                               repeat=2):
        if f1 != _UNIT and f2 == _UNIT:
            alg.row(i, j)
    assert operands
    assert not [x for x in operands if any(x is o for o in ones)]


def test_canonical_r_in_the_counit_basis():
    # R = sum_{b != 1} (b, eps) (x) (1, b*) + (1, eps) (x) ((1, eps) -
    # sum_{m != 0} (1, (a^m)*)): N^2 + N - 1 terms, where the pair basis
    # has N^3; D's unit is the one pair (1, eps)
    for n in range(2, 9):
        d = build_double(build_taft(n))
        alg = d._counit_basis()
        one, index, rest = d.domain.one(), alg.index, d._eps_rest
        assert isinstance(alg, Algebra) and len(rest) == n * n
        r = canonical_r(d).tensor()
        assert len(r.terms) == n ** 3
        got = _rewritten({(index[a], index[b]): c
                          for (a, b), c in r.terms.items()}, rest, 2, False)
        unit = index[_UNIT, _UNIT]
        want = {(index[b, _UNIT], index[_UNIT, b]): one
                for b in d.h.algebra.labels if b != _UNIT}
        want[unit, unit] = one
        for m in range(1, n):
            want[unit, index[_UNIT, (m, 0)]] = -one
        assert got == want and len(got) == n * n + n - 1, n
        assert alg._unit_terms == {(_UNIT, _UNIT): one}


def _pair_basis_report(kind, double, blocks, parametric) -> YbeReport:
    """The report of the walk in the pair basis (g, f), f in the monomial
    dual basis, as the algebraic checks made it before they walked in
    the counit basis: the reference of the one they make now."""
    alg = double.algebra
    index, labels = alg.index, alg.labels
    res = ybe_residual(alg, {
        e: {(index[a], index[b]): c for (a, b), c in t.terms.items()}
        for e, t in blocks.items()}, parametric)
    return residual_report(kind, alg.dim, {
        ((labels[i0], labels[i1], labels[i2]), e_mu, e_nu): c
        for (i0, i1, i2, e_mu, e_nu), c in res.items()},
        lambda key: f"[{' (x) '.join(map(alg.label_str, key))}]", repr)


def _counit_basis_inputs():
    for n in (2, 3, 4):
        for q in _primitive_roots(n) if n < 4 else (None,):
            d = build_double(build_taft(n, q))
            two = d.domain.one() * 2
            r, family = canonical_r(d).tensor(), canonical_r_mu(d)
            yield f"canonical R, D(T_{n}), q = {q}", d, r
            yield f"2 R, D(T_{n}), q = {q}", d, r.scaled(two)
            yield f"R(mu), D(T_{n}), q = {q}", d, family
            yield f"2 R(mu), D(T_{n}), q = {q}", d, {
                e: t.scaled(two) for e, t in family.items()}
            yield f"block 1 scaled by 2, D(T_{n}), q = {q}", d, {
                **family, 1: family[1].scaled(two)}
            top = max(family)
            yield f"top block moved up one, D(T_{n}), q = {q}", d, {
                **{e: t for e, t in family.items() if e != top},
                top + 1: family[top]}
            # the first key, (1, 1*) (x) (1, 1*), has 1* in both slots
            ordered = sorted(r.terms, key=repr)
            for key in (ordered[0], *random.Random(n).sample(ordered, 2)):
                yield f"D(T_{n}) term {key} doubled, q = {q}", d, _doubled(
                    r, key)
    for n in (2, 3):
        left = build_double(build_taft(n), "left_s")
        yield f"left_s, D(T_{n})", left, canonical_r(left).tensor()


def test_counit_basis_reports_equal_the_pair_basis_walk():
    seen = []
    for name, d, r in _counit_basis_inputs():
        if isinstance(r, TensorElement):
            got = check_constant_ybe_algebraic(d, r)
            want = _pair_basis_report("constant-algebraic", d, {0: r}, False)
        else:
            got = check_parametric_ybe_algebraic(d, r)
            want = _pair_basis_report("parametric-algebraic", d,
                                      mu_components(r), True)
        assert got == want, name
        seen.append(got)
    assert any(r.passed for r in seen) and any(not r.passed for r in seen)
    assert any(r.worst and r.worst.count("mu") > 1 for r in seen)


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
    """The report of the residual R12 R13 R23 - R23 R13 R12 expanded by
    reference_residual, over label keys."""
    residual = reference_residual(
        double.algebra, [(f12, (0, 1)), (f13, (0, 2)), (f23, (1, 2))],
        (((0, 1), 2), ((2, 1), 0)))
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


def _doubled(r, key):
    return TensorElement(r.algebras, {**r.terms, key: r.terms[key] * 2})


def _engine_inputs():
    doubles = {n: build_double(build_taft(n)) for n in (2, 3, 4)}
    for n, d in doubles.items():
        yield f"canonical R, D(T_{n})", d, canonical_r(d).tensor()
        yield f"canonical family, D(T_{n})", d, canonical_r_mu(d)
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
    family = canonical_r_mu(doubles[3])
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


def _failing_controls():
    """(double, R or family) for three failing controls of D(T_3): a
    doubled canonical term, a scaled parametric block, and left_s."""
    d, left = (build_double(build_taft(3), conv)
               for conv in (DEFAULT_CONVENTION, "left_s"))
    r, family = canonical_r(d).tensor(), canonical_r_mu(d)
    return [(d, _doubled(r, min(r.terms))),
            (d, {**family, 1: family[1].scaled(d.domain.one() * 2)}),
            (left, canonical_r(left).tensor())]


def _counit_blocks(double, r):
    """(the counit basis, blocks in it over basis numbers, parametric) for
    R or a family, as the algebraic checks hand them to ybe_residual."""
    parametric = not isinstance(r, TensorElement)
    alg, index = double._counit_basis(), double.algebra.index
    blocks = mu_components(r) if parametric else {0: r}
    return alg, {e: _rewritten({(index[a], index[b]): c
                                for (a, b), c in t.terms.items()},
                               double._eps_rest, 2, False)
                 for e, t in blocks.items()}, parametric


def test_declared_sides_leave_the_residual_as_one_class_does():
    # the classes of the counit basis of H*, where the pairs (g, eps) are
    # of class None and meet every class, skip only cells the rule proves
    # empty, so on failing inputs the walk gives, key for key, the residual
    # of a walk that puts every basis index in one class
    for double, r in _failing_controls():
        alg, keyed, parametric = _counit_blocks(double, r)
        blind = build_double(double.h, double.convention)._counit_basis()
        blind.sides = ((0,) * blind.dim,) * 2
        got = ybe_residual(alg, keyed, parametric)
        assert got, (double.convention, parametric)
        assert got == ybe_residual(blind, keyed, parametric)


def test_double_brackets_give_equal_residuals_and_reports(monkeypatch):
    # the checks walk R12 (R13 R23) and (R23 R13) R12, which is the YBE's
    # residual as D is associative: on failing controls, (R12 R13) R23 on
    # the left gives the same residual key for key, and the same reports
    def texts(double, r):
        check = (check_constant_ybe_algebraic if isinstance(r, TensorElement)
                 else check_parametric_ybe_algebraic)
        report = check(double, r)
        return report.summary(), json.dumps(report.to_dict(), indent=2,
                                            sort_keys=True)

    controls = _failing_controls()
    walked = [texts(*control) for control in controls]
    for double, r in controls:
        alg, keyed, parametric = _counit_blocks(double, r)
        got = [ybe_residual(alg, keyed, parametric, sides)
               for sides in ((((0, 1), 2), ((2, 1), 0)),
                             ((0, (1, 2)), ((2, 1), 0)))]
        assert got[0] and got[0] == got[1], (double.convention, parametric)
    monkeypatch.setattr("hopfbax.double.ybe_residual",
                        lambda alg, blocks, parametric, sides:
                        ybe_residual(alg, blocks, parametric))
    assert [texts(*control) for control in controls] == walked
    assert not any('"passed": true' in text for _, text in walked)


def test_warm_and_cold_doubles_give_identical_reports():
    # the warm double's row table in the counit basis, where the checks
    # walk, and so its shared constants, is filled before any check's memo
    # exists; the cold double fills it while walking
    warm, cold = (build_double(build_taft(3)) for _ in range(2))
    table = warm._counit_basis()
    basis = range(table.dim)
    for i in basis:
        for j in basis:
            table.row(i, j)
    reports = []
    for d in (warm, cold):
        r = canonical_r(d).tensor()
        family = canonical_r_mu(d)
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
