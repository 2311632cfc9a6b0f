import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfbax import (
    RATIONAL,
    SQRT_Q,
    ParamScalar,
    ScalarDomainError,
    cyclotomic,
    eval_q_powers,
    gauss_binomial,
    parse_param_scalar,
    parse_scalar,
    q_bracket,
    q_bracket_factorial,
    q_number,
    q_number_factorial,
)
from hopfbax.scalars import cyclotomic_polynomial, proportionality_ratio

import reference_parser
import strategies

Q = SQRT_Q.q()  # generic q = s^2, no algebraic relations


# ---------------------------------------------------------------------------
# q-combinatorics against independent oracles
# ---------------------------------------------------------------------------

def test_q_bracket_small_values():
    one = SQRT_Q.one()
    assert q_bracket(0, Q).is_zero()
    assert q_bracket(1, Q) == one
    assert q_bracket(3, Q) == one + Q + Q * Q


@given(st.integers(min_value=0, max_value=12))
def test_q_bracket_matches_geometric_sum(n):
    acc = SQRT_Q.zero()
    for k in range(n):
        acc = acc + Q ** k
    assert q_bracket(n, Q) == acc


def test_q_bracket_factorial_product():
    expect = SQRT_Q.one()
    for k in range(1, 5):
        expect = expect * q_bracket(k, Q)
    assert q_bracket_factorial(4, Q) == expect
    assert q_bracket_factorial(0, Q) == SQRT_Q.one()


def test_gauss_binomial_small_values():
    one = SQRT_Q.one()
    assert gauss_binomial(2, 0, Q) == one
    assert gauss_binomial(2, 1, Q) == one + Q
    assert gauss_binomial(4, 2, Q) == (one + Q * Q) * (one + Q + Q * Q)


def test_gauss_binomial_q_binomial_theorem():
    # prod_{k=0}^{n-1} (1 + q^k t) = sum_m q^(m(m-1)/2) C(n,m)_q t^m,
    # with mu standing in for t.
    for n in range(7):
        prod = ParamScalar.constant(SQRT_Q.one())
        for k in range(n):
            prod = prod * (ParamScalar.constant(SQRT_Q.one())
                           + ParamScalar(SQRT_Q, {(1, 0): Q ** k}))
        for m in range(n + 1):
            coeff = prod.terms[(m, 0)]
            assert coeff == Q ** (m * (m - 1) // 2) * gauss_binomial(n, m, Q)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_gauss_binomial_symmetry(n, m):
    if m > n:
        assert gauss_binomial(n, m, Q).is_zero()
    else:
        assert gauss_binomial(n, m, Q) == gauss_binomial(n, n - m, Q)


def test_gauss_binomial_vanishing_denominator_is_loud():
    z3 = cyclotomic(3).q()
    assert q_bracket(3, z3).is_zero()
    with pytest.raises(ScalarDomainError):
        gauss_binomial(4, 3, z3)


def test_gauss_binomial_at_root_of_unity_lucas_case():
    # (N choose m)_q = 0 at a primitive N-th root for 0 < m < N.
    z4 = cyclotomic(4).q()
    assert gauss_binomial(4, 1, z4).is_zero()
    assert gauss_binomial(4, 2, z4).is_zero()


def test_q_number_small_values():
    assert q_number(0, Q).is_zero()
    assert q_number(1, Q) == SQRT_Q.one()
    assert q_number(2, Q) == Q + Q ** -1


@given(st.integers(min_value=-8, max_value=8))
def test_q_number_balanced_identity(n):
    # [n]_q (q - q^-1) = q^n - q^-n, and [-n] = -[n].
    lhs = q_number(n, Q) * (Q - Q ** -1)
    assert lhs == Q ** n - Q ** -n
    assert q_number(-n, Q) == -q_number(n, Q)


def test_q_number_factorial_values():
    assert q_number_factorial(0, Q) == SQRT_Q.one()
    assert q_number_factorial(2, Q) == Q + Q ** -1
    expect = (Q + Q ** -1) * (Q ** 2 + SQRT_Q.one() + Q ** -2)
    assert q_number_factorial(3, Q) == expect


# ---------------------------------------------------------------------------
# field axioms on the scalar tower
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(strategies.rationals(), strategies.rationals(), strategies.rationals())
def test_rational_field_axioms(a, b, c):
    _check_field_triple(a, b, c)


@settings(max_examples=60)
@given(st.sampled_from((5,) + strategies.COMPOSITE_ORDERS).flatmap(
    lambda n: st.tuples(*[strategies.cyclotomics(n)] * 3)))
def test_cyclotomic_field_axioms(triple):
    _check_field_triple(*triple)


@settings(max_examples=60)
@given(strategies.sqrt_scalars(), strategies.sqrt_scalars(),
       strategies.sqrt_scalars())
def test_sqrt_field_axioms(a, b, c):
    _check_field_triple(a, b, c)


def _check_field_triple(a, b, c):
    one = a.domain.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == a.domain.zero()
    assert a * one == a
    if not a.is_zero():
        assert a * a.inverse() == one
        assert (one / a) * a == one


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        RATIONAL.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        RATIONAL.one() / RATIONAL.zero()


def test_parsed_division_by_zero_says_so():
    for text, dom in (("1/0", RATIONAL), ("q/(q - q)", SQRT_Q), ("mu/0", SQRT_Q)):
        with pytest.raises(ScalarDomainError, match="division by zero"):
            parse_param_scalar(text, dom)
    with pytest.raises(ScalarDomainError, match="division by zero"):
        parse_scalar("1/0", RATIONAL)


def test_parsed_divisor_in_mu_must_be_a_monomial():
    assert parse_param_scalar("1/mu", SQRT_Q) == ParamScalar.mu(SQRT_Q, -1)
    assert str(parse_param_scalar("1/mu", SQRT_Q)) == "mu^-1"
    with pytest.raises(ScalarDomainError, match="single Laurent monomial"):
        parse_param_scalar("1/(1+mu)", SQRT_Q)


_DOMAINS = (RATIONAL, SQRT_Q, cyclotomic(3), cyclotomic(4))
_numbers = st.integers(min_value=-50, max_value=50) | st.fractions(
    min_value=-50, max_value=50, max_denominator=20)


# a Scalar, or the constant ParamScalar with that coefficient
_wraps = st.sampled_from((lambda s: s, ParamScalar.constant))


@given(_numbers, st.sampled_from(_DOMAINS), _wraps)
def test_scalar_equal_to_a_number_hashes_like_it(x, dom, wrap):
    s = wrap(dom.from_fraction(x))
    assert s == x and hash(s) == hash(x)
    assert s in {x} and x in {s}


@given(_numbers, st.sampled_from(_DOMAINS), st.sampled_from(_DOMAINS),
       _wraps, _wraps)
def test_cross_domain_equality_is_false_and_arithmetic_raises(x, d1, d2,
                                                              wrap1, wrap2):
    assume(d1 != d2)
    a, b = wrap1(d1.from_fraction(x)), wrap2(d2.from_fraction(x))
    assert not a == b and a != b
    with pytest.raises(ScalarDomainError):
        a + b
    with pytest.raises(ScalarDomainError):
        a * b


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclotomic_root_relations(n):
    dom = cyclotomic(n)
    z = dom.q()
    assert z ** n == dom.one()
    # minimal polynomial: Phi_n(z) = 0
    phi = cyclotomic_polynomial(n)
    acc = dom.zero()
    power = dom.one()
    for coeff in phi:
        acc = acc + power * dom.from_fraction(Fraction(coeff))
        power = power * z
    assert acc.is_zero()
    if n > 2:
        assert z ** k_not_one(n) != dom.one()


def k_not_one(n):
    # any exponent in 1..n-1 certifies the order is exactly n for prime n;
    # 1 works for every n since zeta_n != 1 when n > 1
    return 1


def test_eval_q_powers_even_only():
    x = Q ** 2 + Q ** -1  # s^4 + s^-2, all even in s
    z8 = cyclotomic(8)
    got = eval_q_powers(x, z8.q())
    assert got == z8.q() ** 2 + z8.q() ** -1
    with pytest.raises(ScalarDomainError):
        eval_q_powers(SQRT_Q.s(), z8.q())


# ---------------------------------------------------------------------------
# ParamScalar ring laws and parameter handling
# ---------------------------------------------------------------------------

@settings(max_examples=50)
@given(strategies.param_scalars(), strategies.param_scalars(), strategies.param_scalars())
def test_param_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@settings(max_examples=50)
@given(strategies.param_scalars(), strategies.sqrt_scalars() | st.just(SQRT_Q.zero()))
def test_param_scalar_times_scalar_is_times_constant(a, x):
    # a Scalar operand scales each coefficient; it must act as the constant
    assert a * x == a * ParamScalar.constant(x) == x * a


def test_param_scalar_components_and_at_one():
    mu = ParamScalar.mu(SQRT_Q)
    nu = ParamScalar.nu(SQRT_Q)
    x = mu ** 2 * ParamScalar.constant(Q) + nu - ParamScalar.constant(SQRT_Q.one())
    assert x.uses_parameters()
    assert {k: v for k, v in x.terms.items() if k[0] == 2} == {(2, 0): Q}
    assert x.at_one() == Q - SQRT_Q.one() + SQRT_Q.one()
    assert not ParamScalar.constant(Q).uses_parameters()
    assert ParamScalar.constant(Q).as_scalar() == Q


def test_proportionality_ratio():
    mu = ParamScalar.mu(SQRT_Q)
    a = mu * ParamScalar.constant(Q) + ParamScalar.constant(SQRT_Q.one())
    c = ParamScalar.constant(Q ** -3)
    assert proportionality_ratio(c * a, a) == c
    b = mu * ParamScalar.constant(Q)
    assert proportionality_ratio(a, b) is None


# ---------------------------------------------------------------------------
# canonical string grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "q", "s", "1", "0", "-3", "q^-1", "s^3", "q^2 + q^-2",
    "mu*(q - q^-1)/s", "mu^2*q^-1*(q - q^-1)^2*(q + q^-1)",
    "(1 - q^-1)*(1 - q^-2)", "1/2", "-q^3/(1 + q)",
])
def test_parse_emit_round_trip(text):
    x = parse_param_scalar(text, SQRT_Q)
    assert parse_param_scalar(str(x), SQRT_Q) == x
    # emitting twice is stable
    assert str(parse_param_scalar(str(x), SQRT_Q)) == str(x)


def test_parse_double_star_alias():
    assert parse_param_scalar("q**2", SQRT_Q) == parse_param_scalar("q^2", SQRT_Q)


def test_parse_scalar_rejects_parameters():
    with pytest.raises(ScalarDomainError):
        parse_scalar("mu*q", SQRT_Q)
    assert parse_scalar("q^2 - 1", SQRT_Q) == Q ** 2 - SQRT_Q.one()


def test_parse_rejects_garbage():
    for bad in ["q +", "(q", "q^", "foo", "2..5", "mu nu",
                "(" * 400 + "q" + ")" * 400, "-" * 2000 + "q",
                "2^99999999", "(1+s)^99999999", "s^-1001",
                "-" * 100_000 + "q"]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            parse_param_scalar(bad, SQRT_Q)
        assert time.perf_counter() - t0 < 0.5


def test_parse_bounds_what_a_power_grows():
    # n = |k| times the exponents of the enclosing powers may not exceed
    # MAX_EXPONENT, nor may prod (spread * n + 1) over mu, nu and s exceed
    # MAX_EXPONENT + 1
    for bad, dom in [("(1+mu+nu)^1000", SQRT_Q),
                     ("((1+mu+nu)^10)^100", SQRT_Q),
                     ("(1+mu+nu)^31", SQRT_Q),
                     ("(1+mu+s)^31", SQRT_Q),
                     ("((1+s)^1000)^1000", SQRT_Q),
                     ("((1+mu)^1000)^1000", SQRT_Q),
                     ("-((1 + nu)^2)^600", SQRT_Q),
                     ("(1+s^2)^1000", SQRT_Q),
                     ("((1+q)^-1)^1000", SQRT_Q),
                     ("(mu^10)^101", SQRT_Q),
                     ("((1+q)^1000)^1000", cyclotomic(7)),
                     ("((2)^1000)^1000", RATIONAL),
                     ("(2^10)^101", RATIONAL)]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            parse_param_scalar(bad, dom)
        assert time.perf_counter() - t0 < 0.5
    assert parse_param_scalar("(mu^10)^100", SQRT_Q) == ParamScalar.mu(
        SQRT_Q, 1000)
    assert parse_param_scalar("(2^10)^100", RATIONAL) == ParamScalar.constant(
        RATIONAL.from_fraction(2 ** 1000))
    assert parse_param_scalar("((1 + s)^5)^2", SQRT_Q) == parse_param_scalar(
        "(1 + s)^10", SQRT_Q)
    # (30 + 1)^2 <= 1001: the largest power of a bivariate linear base
    assert len(parse_param_scalar("(1+mu+nu)^30", SQRT_Q).terms) == 496
    assert len(parse_param_scalar("(1+mu+s)^30", SQRT_Q).terms) == 31


# every token of the grammar, plus an unknown word and a stray character;
# exponents stay small so that the values stay cheap, except 1001
_FUZZ_TOKENS = ("0", "1", "2", "3", "1001", "q", "s", "mu", "nu", "x", "(",
                ")", "+", "-", "*", "/", "^", "**", "#")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=12),
       st.sampled_from((RATIONAL, SQRT_Q, cyclotomic(5))))
def test_parse_fuzz_gives_a_value_or_a_value_error(tokens, dom):
    # ScalarDomainError is the parser's other documented failure (1/0, s
    # outside sqrt_q, q over the rationals); anything else is a bug
    try:
        v = parse_param_scalar(" ".join(tokens), dom)
    except (ValueError, ScalarDomainError):
        return
    assert isinstance(v, ParamScalar) and v.domain == dom


def _grammar_strings():
    """Strings of the scalar grammar, with nested and chained powers.

    The exponents 30, 31, 1000 and 1001 go only on a bare symbol or
    integer, and a compound base gets 0 to 3, so that no accepted value
    needs seconds to expand."""
    leaves = st.sampled_from(("0", "1", "2", "3", "q", "s", "mu", "nu", "x"))

    def power(base, exps):
        return st.tuples(base, st.sampled_from(("^", "**")),
                         st.sampled_from(("", "-")),
                         st.sampled_from(exps)).map(lambda t: "".join(map(str, t)))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(" + | - | * | / |*|-".split("|")),
                      inner).map("".join),
            inner.map(lambda t: "-" + t),
            inner.map(lambda t: f"({t})"),
            power(inner, (0, 1, 2, 3)))

    return st.recursive(
        leaves | power(leaves, (0, 1, 2, 3, 30, 31, 1000, 1001)), extend,
        max_leaves=8)


def _parsed_or_refused(parse, text, dom):
    """The canonical string of parse(text, dom), or None if it refuses."""
    try:
        return str(parse(text, dom))
    except (ValueError, ScalarDomainError):
        return None


@settings(max_examples=400, deadline=None)
@given(_grammar_strings() | st.lists(st.sampled_from(_FUZZ_TOKENS),
                                     max_size=12).map(" ".join),
       st.sampled_from((RATIONAL, SQRT_Q, cyclotomic(5))))
def test_parse_agrees_with_the_descent_parser(text, dom):
    # the descent parser in reference_parser.py is the reference for the
    # accepted language, the values and the power bounds; the two may only
    # differ in which of ValueError and ScalarDomainError refuses a string
    assert _parsed_or_refused(parse_param_scalar, text, dom) == \
        _parsed_or_refused(reference_parser.parse_param_scalar, text, dom)


@settings(max_examples=400, deadline=None)
@given(_grammar_strings(), st.sampled_from((RATIONAL, SQRT_Q, cyclotomic(5))))
def test_accepted_values_reparse_to_their_canonical_string(text, dom):
    # whatever the parser accepts, its str() is accepted again with the
    # same canonical string: products and sums are bounded like powers, and
    # no value prints an exponent the parser would refuse
    canonical = _parsed_or_refused(parse_param_scalar, text, dom)
    if canonical is not None:
        assert _parsed_or_refused(parse_param_scalar, canonical, dom) == canonical


def test_parse_bounds_products_and_printed_exponents():
    # each product is bounded before it is expanded (101 * 11 and 41 * 41
    # terms exceed 1001), every value after it is computed
    for bad in ["(1+mu)^100*(1+nu)^10", "mu^-5*(1+mu)^100*(1+nu)^10",
                "(1+mu)^100/(1+s)^10", "mu^1000*mu", "s^-1000/s",
                "(1+mu)^40 + (1+nu)^40", "(s^500)^2*s"]:
        with pytest.raises(ValueError):
            parse_param_scalar(bad, SQRT_Q)
    v = parse_param_scalar("mu^-500*(1+mu)^10*(1+s)^50", SQRT_Q)
    assert len(v.terms) == 11
    assert str(parse_param_scalar(str(v), SQRT_Q)) == str(v)
    assert parse_param_scalar("mu^1000*mu^-1000", SQRT_Q) == \
        ParamScalar.constant(SQRT_Q.one())


@settings(max_examples=40)
@given(strategies.param_scalars() | strategies.cyclotomic_param_scalars())
def test_emit_parse_identity_property(x):
    y = parse_param_scalar(str(x), x.domain)
    assert y == x and str(y) == str(x)
