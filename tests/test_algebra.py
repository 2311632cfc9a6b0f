import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from hopfbax import (CONVENTIONS, SQRT_Q, ParamScalar, ScalarDomainError,
                     TensorElement, build_double, build_taft, canonical_r,
                     check_constant_ybe_algebraic, cyclotomic, dual, embed,
                     tensor_multiply)
from hopfbax.algebra import associativity_violations, generators, \
    unit_violations
from reference_hopf import CORRUPTED_PRODUCTS, corrupted, element_violations, \
    per_triple_violations


def _basis(h, i, j):
    return h.algebra.basis((i, j))


def test_generator_relations_n3(taft3):
    alg = taft3.algebra
    q = alg.domain.q()
    a = alg.basis((1, 0))
    x = alg.basis((0, 1))
    # x a = q a x
    assert x * a == (a * x).scaled(q)
    # a^N = e
    assert a * a * a == alg.unit()
    # x^N = 0
    assert (x * x * x).is_zero()
    assert alg.unit() * x == x


def test_power_labels(taft4):
    alg = taft4.algebra
    a = alg.basis((1, 0))
    x = alg.basis((0, 1))
    cur = alg.unit()
    for _ in range(3):
        cur = cur * a
    assert cur == alg.basis((3, 0))
    ax = a * x
    assert ax == alg.basis((1, 1))
    # x^(N-1) * x = 0
    x3 = x * x * x
    assert x3 == alg.basis((0, 3))
    assert (x3 * x).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_taft_algebra_associative_and_unital(n, taft2, taft3, taft4):
    alg = {2: taft2, 3: taft3, 4: taft4}[n].algebra
    assert unit_violations(alg) == []
    assert associativity_violations(alg) == []


def test_element_arithmetic(taft3):
    alg = taft3.algebra
    q = alg.domain.q()
    a = alg.basis((1, 0))
    x = alg.basis((0, 1))
    y = a + x.scaled(q)
    assert y.terms == {(1, 0): alg.domain.one(), (0, 1): q}
    assert (y - y).is_zero()
    assert (-y + y).is_zero()


def test_element_str_shares_the_text_rule_of_parameter_scalars(taft3):
    # labels in label order; the name alone for a coefficient of 1, and a
    # coefficient with a space in brackets
    alg = taft3.algebra
    assert str(alg.basis((0, 1)).scaled(2) + alg.unit()) == "e + 2*x"
    assert str(taft3.gamma(alg.basis((1, 1)))) == "(1 + q)*ax"
    assert str(taft3.gamma(alg.basis((0, 1)))) == "-1*a^2x"
    assert str(alg.zero()) == "0"


def test_tensor_multiply_is_slotwise(taft3):
    alg = taft3.algebra
    q = alg.domain.q()
    e = alg.unit()
    a = alg.basis((1, 0))
    x = alg.basis((0, 1))
    left = TensorElement.of(x, e)
    right = TensorElement.of(a, x)
    got = tensor_multiply(left, right)
    # (x(x)e)(a(x)x) = xa (x) x = q * (ax (x) x)
    expect = TensorElement.of(a * x, x).scaled(q)
    assert got == expect


def _brute_force_product(xt, yt):
    """Slot-wise product by an explicit loop over all pairs of terms."""
    algs = xt.algebras
    expect = TensorElement(algs)
    for kx, cx in xt.terms.items():
        for ky, cy in yt.terms.items():
            expect = expect + TensorElement.of(*(
                alg.basis(a) * alg.basis(b)
                for alg, a, b in zip(algs, kx, ky))).scaled(cx * cy)
    return expect


def test_tensor_multiply_brute_force_oracle(taft2, double2):
    rng = random.Random(3)

    def rand_tensor(algs, n_terms, coeff):
        t = TensorElement(algs)
        for _ in range(n_terms):
            key = tuple(rng.choice(alg.labels) for alg in algs)
            t = t + TensorElement.of(*(
                alg.basis(l) for alg, l in zip(algs, key))).scaled(coeff())
        return t

    # two legs of T_2, integer coefficients
    algs = (taft2.algebra, taft2.algebra)
    dom = taft2.algebra.domain

    def integer():
        return dom.from_fraction(rng.randint(-3, 3))

    for _ in range(10):
        xt, yt = rand_tensor(algs, 3, integer), rand_tensor(algs, 3, integer)
        assert tensor_multiply(xt, yt) == _brute_force_product(xt, yt)

    # three legs over different algebras of one domain, non-integer
    # rational coefficients; x and x^* square to zero, so many slot
    # products vanish
    algs = (double2.algebra, taft2.algebra, double2.dual_algebra)

    def rational():
        return dom.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))

    x = taft2.algebra.basis((0, 1))
    x_dual = double2.dual_algebra.basis((0, 1))
    nilpotent = TensorElement.of(double2.embed_dual((0, 1)), x, x_dual)
    assert tensor_multiply(nilpotent, nilpotent).is_zero()
    zero_pairs = 0
    for _ in range(12):
        xt = rand_tensor(algs, 4, rational) + nilpotent.scaled(rational())
        yt = rand_tensor(algs, 4, rational) + nilpotent.scaled(rational())
        zero_pairs += sum(
            any(not alg.product_basis(a, b) for alg, a, b in zip(algs, kx, ky))
            for kx in xt.terms for ky in yt.terms)
        got = tensor_multiply(xt, yt)
        assert got == _brute_force_product(xt, yt)
        assert got.algebras == algs
    assert zero_pairs > 0


@pytest.mark.parametrize("make", [
    # e.x = 2x and x.e = 2x: unit failures too
    lambda: corrupted(build_taft(3).algebra, ((0, 0), (0, 1)), (0, 1), 2),
    lambda: corrupted(build_taft(3).algebra, ((0, 1), (0, 0)), (0, 1), 2),
    # x.a = 3 q ax
    lambda: corrupted(build_taft(3).algebra, ((0, 1), (1, 0)), (1, 1), 3),
    # a double of T_2 with a rejected straightening convention
    lambda: build_double(build_taft(2), "s_inv_right").algebra,
], ids=["left-unit", "right-unit", "cross", "rejected-double"])
def test_table_checks_match_element_loop(make):
    alg = make()
    assoc, unit = element_violations(alg)
    assert assoc
    assert associativity_violations(alg) == assoc
    assert unit_violations(alg) == unit


@pytest.mark.parametrize("n, pair, label, factor", CORRUPTED_PRODUCTS)
def test_batched_associativity_matches_the_per_triple_scan(n, pair, label,
                                                           factor):
    # one corrupted structure constant breaks many triples, several of
    # them sharing a pair (a, b): the batch over c must report every one,
    # in basis order
    alg = corrupted(build_taft(n).algebra, pair, label, factor)
    want = per_triple_violations(alg)
    assert len(want) > len({t[:2] for t in want})
    assert associativity_violations(alg) == want


@pytest.mark.parametrize("n", range(2, 9))
def test_generators_reach_every_basis_index(n):
    # every basis element of T_n is a nonzero multiple of a right-nested
    # word s_1 (s_2 (... s_m)) in S, rebuilt here by element products
    alg = build_taft(n).algebra
    gens = [alg.basis(alg.labels[i]) for i in generators(alg)]
    words, todo = {}, list(gens)
    while todo:
        word = todo.pop()
        (label,) = word.terms
        if label not in words:
            words[label] = word
            todo += [p for p in (s * word for s in gens) if len(p.terms) == 1]
    assert sorted(words) == sorted(alg.labels)


def test_embed_two_into_three(taft2):
    alg = taft2.algebra
    algs = [alg, alg, alg]
    a = alg.basis((1, 0))
    x = alg.basis((0, 1))
    t = TensorElement.of(a, x)
    e = alg.unit()
    assert embed(t, (0, 1), algs) == TensorElement.of(a, x, e)
    assert embed(t, (0, 2), algs) == TensorElement.of(a, e, x)
    assert embed(t, (1, 2), algs) == TensorElement.of(e, a, x)


def test_embed_then_multiply_matches_slotwise(taft3):
    # legs that only meet through units multiply slot by slot
    alg = taft3.algebra
    algs = [alg, alg, alg]
    a = alg.basis((1, 0))
    x = alg.basis((0, 1))
    t12 = embed(TensorElement.of(a, x), (0, 1), algs)
    t23 = embed(TensorElement.of(x, a), (1, 2), algs)
    prod = tensor_multiply(t12, t23)
    assert prod == TensorElement.of(a, x * x, a)
    # disjoint legs commute
    t1 = embed(TensorElement.of(x), (0,), algs)
    t3 = embed(TensorElement.of(a), (2,), algs)
    assert tensor_multiply(t1, t3) == tensor_multiply(t3, t1)


def test_embed_rejects_bad_positions(taft2):
    alg = taft2.algebra
    t = TensorElement.of(alg.basis((1, 0)), alg.basis((0, 1)))
    with pytest.raises(ValueError):
        embed(t, (0,), [alg, alg, alg])
    with pytest.raises(ValueError):
        embed(t, (0, 3), [alg, alg, alg])


def test_mismatched_algebras_rejected(taft2, taft3):
    a2 = taft2.algebra.basis((1, 0))
    a3 = taft3.algebra.basis((1, 0))
    with pytest.raises(ValueError):
        a2 * a3
    t2 = TensorElement.of(a2, a2)
    t3 = TensorElement.of(a3, a3)
    with pytest.raises(ValueError):
        tensor_multiply(t2, t3)


def test_tensor_coefficients_keep_the_algebra_domain(taft2):
    # T_2 lives over Q(zeta_2); a Q(s) coefficient is another field's value,
    # and a Laurent polynomial is no tensor coefficient even over Q(zeta_2)
    alg = taft2.algebra
    key = ((1, 0), (0, 1))
    for c in (SQRT_Q.s(), ParamScalar.mu(SQRT_Q), cyclotomic(4).q(),
              ParamScalar.constant(cyclotomic(2).q())):
        with pytest.raises(ScalarDomainError):
            TensorElement((alg, alg), {key: c})
        with pytest.raises(ScalarDomainError):
            TensorElement.of(alg.basis((1, 0)), alg.basis((0, 1))).scaled(c)
    q = cyclotomic(2).q()
    assert TensorElement((alg, alg), {key: q}).terms == {key: q}


def test_tensor_arity_mismatch_rejected(taft2):
    alg = taft2.algebra
    a = alg.basis((1, 0))
    t2 = TensorElement.of(a, a)
    t3 = TensorElement.of(a, a, a)
    with pytest.raises(ValueError):
        tensor_multiply(t2, t3)


# ---------------------------------------------------------------------------
# the int-indexed structure-constant table
# ---------------------------------------------------------------------------

def _row_cases():
    for n in (2, 3, 4, 5):
        h = build_taft(n)
        yield f"T_{n}", h.algebra
        yield f"T_{n}^*", dual(h).algebra
    for conv in CONVENTIONS:
        yield f"D(T_2) {conv}", build_double(build_taft(2), conv).algebra


@pytest.mark.parametrize("name, alg", list(_row_cases()),
                         ids=[name for name, _ in _row_cases()])
def test_row_agrees_with_product_basis(name, alg):
    labels, index = alg.labels, alg.index
    for i, l1 in enumerate(labels):
        for j, l2 in enumerate(labels):
            row = alg.row(i, j)
            assert row == tuple((index[l], c)
                                for l, c in alg.product_basis(l1, l2).items())
            assert all(not c.is_zero() for _, c in row)
            assert alg.row(i, j) is row      # kept, not recomputed


def test_row_table_fills_lazily():
    # the algebraic check fills only the cells of the double its walk reads
    d = build_double(build_taft(3))
    assert not any(d.algebra._rows)
    assert check_constant_ybe_algebraic(d, canonical_r(d).tensor()).passed
    alg = d.algebra
    filled = sum(len(cells) for cells in alg._rows)
    assert 0 < filled < alg.dim ** 2


def test_no_label_keyed_product_cache():
    d = build_double(build_taft(2))
    assert check_constant_ybe_algebraic(d, canonical_r(d).tensor()).passed
    for alg in (d.algebra, d.h.algebra, d.dual_algebra):
        assert not hasattr(alg, "_cache")
        pairs = set(iproduct(alg.labels, repeat=2))
        for value in vars(alg).values():
            if isinstance(value, dict):
                assert not pairs.intersection(value)
        for cells in alg._rows:
            assert all(isinstance(j, int) for j in cells)
