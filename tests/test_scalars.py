import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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
    uqsl2_r_matrix,
)
from hopfbax import scalars
from hopfbax.scalars import _mul, _normal, cyclotomic_polynomial, latex_str, \
    normal_key, proportionality_ratio
from hopfbax.uqsl2 import spin_rep

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


# ---------------------------------------------------------------------------
# products: a unit factor returns the other one, Q(s) cancels across
# ---------------------------------------------------------------------------

def _product_cases():
    """(domain, values): zero, +-1, fractions and multi-term values."""
    for dom, g in ((RATIONAL, RATIONAL.from_fraction(3)),
                   (cyclotomic(5), cyclotomic(5).q()),
                   (cyclotomic(8), cyclotomic(8).q()), (SQRT_Q, SQRT_Q.s())):
        yield dom, [dom.zero(), dom.one(), -dom.one(),
                    dom.from_fraction(Fraction(1, 2)),
                    dom.from_fraction(Fraction(-3, 7)), g, g.inverse(),
                    g * g - 3 * g + Fraction(1, 5), (g + 2).inverse(),
                    (g * g + 1) / (g - Fraction(1, 2))]


def _schoolbook(p, r):
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def _is_product(z, x, y) -> bool:
    """z = x y, by cross-multiplying the normal-form fields:
    s^k num_z den_x den_y = s^(k_x + k_y) num_x num_y den_z (mod Phi_n)."""
    if x.is_zero() or y.is_zero():
        return z.is_zero()
    (zn, zd, zk), (xn, xd, xk), (yn, yd, yk) = map(normal_key, (z, x, y))
    low = min(zk, xk + yk)
    lhs = [0] * (zk - low) + _schoolbook(_schoolbook(zn, xd), yd)
    rhs = [0] * (xk + yk - low) + _schoolbook(_schoolbook(xn, yn), zd)
    diff = [0] * max(len(lhs), len(rhs))
    for i, c in enumerate(lhs):
        diff[i] += c
    for i, c in enumerate(rhs):
        diff[i] -= c
    if z.domain is not SQRT_Q:
        phi = cyclotomic_polynomial(max(z.domain.n, 1))
        for top in range(len(diff) - 1, len(phi) - 2, -1):
            c = diff[top]
            for i, p in enumerate(phi):
                diff[top - len(phi) + 1 + i] -= c * p
    return not any(diff)


def test_product_with_one_is_the_other_factor():
    for dom, values in _product_cases():
        one = dom.one()
        for x in values:
            for y in (x * one, one * x, x * 1, 1 * x):
                assert y == x and normal_key(y) == normal_key(x), (dom, x)


def test_products_agree_with_a_schoolbook_product():
    # every pair, units included: a short-circuit taken for a factor
    # that is not exactly 1 gives a wrong product here
    for dom, values in _product_cases():
        for x in values:
            for y in values:
                assert _is_product(x * y, x, y), (dom, x, y)


def test_sums_agree_with_one_gcd_over_the_cross_multiplied_sum():
    # a sum over two constant denominators b, d divides out only a factor
    # of gcd(b, d), and adds the shorter operand into the longer one; its
    # normal form must be that of the full sum over b d
    for dom, values in _product_cases():
        g = values[5]
        values += [x * g ** 4 for x in values] + [
            dom.from_fraction(Fraction(5, 6)), g * Fraction(7, 10)]
        for x in values:
            for y in values:
                if x.is_zero() or y.is_zero():
                    continue
                (xn, xd, xk), (yn, yd, yk) = normal_key(x), normal_key(y)
                k = min(xk, yk)
                num = [0] * (max(len(xn) + xk, len(yn) + yk) - k
                             + max(len(xd), len(yd)))
                for shift, p in ((xk - k, _mul(xn, yd)), (yk - k, _mul(yn, xd))):
                    for i, c in enumerate(p, shift):
                        num[i] += c
                full = _normal(dom, num, _mul(xd, yd), k)
                assert normal_key(x + y) == normal_key(full), (dom, x, y)


@settings(max_examples=80)
@given(strategies.sqrt_scalars(), strategies.sqrt_scalars(),
       strategies.sqrt_fractions())
@example(SQRT_Q.one(), 1 / (1 + SQRT_Q.s() ** 2), -1 / (1 + SQRT_Q.s() ** 2))
def test_sqrt_products_cancel_to_the_full_gcd_normal_form(a, b, c):
    # (a/c)(b c) cancels c's factors across the two fractions; the normal
    # form must equal that of one gcd over the whole product.  In the
    # example a product reaches the normal form over -1 - s^2, whose
    # leading coefficient must be made positive
    assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
    for x, y in ((a, b), (a / c, b * c), (b * c, a / c)):
        (xn, xd, xk), (yn, yd, yk) = normal_key(x), normal_key(y)
        full = _normal(SQRT_Q, _mul(xn, yn), _mul(xd, yd), xk + yk)
        assert normal_key(x * y) == normal_key(full)


def test_sqrt_square_of_a_reduced_fraction_is_fast():
    # ((1+s^3)^-1 + s)^32 squared: one gcd over the whole product took
    # 0.5 s; cancelling across the factors leaves two coprime gcds
    s, one = SQRT_Q.s(), SQRT_Q.one()
    x = ((one + s ** 3).inverse() + s) ** 32
    start = time.perf_counter()
    y = x * x
    assert time.perf_counter() - start < 0.25
    assert y * (one + s ** 3) ** 64 == (one + s + s ** 4) ** 64


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        RATIONAL.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        RATIONAL.one() / RATIONAL.zero()


def test_constant_inverses_are_swaps_in_normal_form():
    # a constant inverts by swapping numerator and denominator, the sign
    # moved to the numerator, in every domain
    for dom in (RATIONAL, cyclotomic(5), cyclotomic(8), SQRT_Q):
        for c in (Fraction(-2), Fraction(-3, 7), Fraction(5, 6)):
            assert dom.from_fraction(c).inverse() == dom.from_fraction(1 / c)


def test_parsed_division_by_zero_says_so():
    for text, dom in (("1/0", RATIONAL), ("q/(0*q)", SQRT_Q), ("mu/0", SQRT_Q),
                      ("0/(1/0)", RATIONAL), ("1/(2*(q/0))", cyclotomic(5)),
                      ("1/(1/(1/0))", SQRT_Q), ("1/-(mu/0)", SQRT_Q)):
        with pytest.raises(ScalarDomainError, match="division by zero"):
            parse_param_scalar(text, dom)
    with pytest.raises(ScalarDomainError, match="division by zero"):
        parse_scalar("1/0", RATIONAL)


def test_parsed_divisor_in_mu_must_be_a_monomial():
    assert parse_param_scalar("1/mu", SQRT_Q) == ParamScalar.mu(SQRT_Q, -1)
    assert str(parse_param_scalar("1/mu", SQRT_Q)) == "mu^-1"
    # the grammar refuses a divisor holding a sum before any arithmetic
    with pytest.raises(ValueError, match="no binary"):
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
# printing: one value per spelling branch of str() and latex_str()
# ---------------------------------------------------------------------------

def _printed_values():
    s, q5 = SQRT_Q.s(), cyclotomic(5).q()
    mu, nu = ParamScalar.mu(SQRT_Q), ParamScalar.nu(SQRT_Q)
    return [s, s ** 2, s ** 3, s ** 4, s ** -1,
            Fraction(3, 2) * s ** 2 - Fraction(1, 3),
            (1 + s) / (2 - 3 * s ** 2),
            RATIONAL.from_fraction(Fraction(-5, 7)), RATIONAL.zero(),
            2 - q5 - 3 * q5 ** 2, -q5 ** 3 + 4,
            (1 + s) * mu + Fraction(-1, 2) * nu ** 2 + 3 * mu ** -1 * nu
            + mu * nu,
            ParamScalar.constant(-s) * mu ** 2 + 1]


_PRINTED = [
    ("s", "q^{1/2}"), ("s^2", "q"), ("s^3", "q^{3/2}"), ("s^4", "q^{2}"),
    ("(1)/(s)", "\\frac{1}{q^{1/2}}"),
    ("-1/3 + 3/2*s^2", "-\\tfrac{1}{3} +\\tfrac{3}{2} q"),
    ("(-1/3 - 1/3*s)/(-2/3 + s^2)",
     "\\frac{-\\tfrac{1}{3} -\\tfrac{1}{3} q^{1/2}}{-\\tfrac{2}{3} +q}"),
    ("-5/7", "-\\tfrac{5}{7}"), ("0", "0"),
    ("2 - q - 3*q^2", "2 -q -3 q^{2}"),
    ("4 - q^3", "4 -q^{3}"),
    ("3*mu^-1*nu + -1/2*nu^2 + (1 + s)*mu + mu*nu",
     "3 \\mu^{-1}\\nu -\\tfrac{1}{2} \\nu^{2} "
     "+\\left(1 +q^{1/2}\\right)\\mu +\\mu\\nu"),
    ("1 + -s*mu^2", "1 -q^{1/2} \\mu^{2}"),
]


@pytest.mark.parametrize("value, printed", zip(_printed_values(), _PRINTED))
def test_text_and_latex_spell_every_branch(value, printed):
    p = value if isinstance(value, ParamScalar) else ParamScalar.constant(value)
    assert (str(value), latex_str(p)) == printed


def _fraction_printed(x, notation) -> str:
    """The reference printer: every coefficient a Fraction over the leading
    coefficient of the denominator, whatever that coefficient is."""
    num, den = scalars._dense(x)
    lead, gen = den[-1], x.domain.generator_name
    num = scalars._poly(tuple(Fraction(c, lead) for c in num), gen, notation)
    if len(den) == 1:
        return num
    return notation.quotient.format(num, scalars._poly(
        tuple(Fraction(c, lead) for c in den), gen, notation))


# sqrt_q values times a small fraction: most lead with a denominator other
# than 1, which the integer-coefficient strategies never do
_scaled_sqrt = st.builds(lambda x, k: x * k, strategies.sqrt_scalars(),
                         st.fractions(-3, 3, max_denominator=6))


@settings(max_examples=200)
@given(strategies.rationals() | strategies.cyclotomics()
       | strategies.sqrt_scalars() | _scaled_sqrt
       | strategies.param_scalars(_scaled_sqrt))
@example(Fraction(1, 2) * SQRT_Q.s() / (1 + SQRT_Q.s() ** 2))
def test_printers_match_the_fraction_reference(value):
    # both sides of the printer's lead test, in both notations
    p = value if isinstance(value, ParamScalar) else ParamScalar.constant(value)
    with mock.patch.object(scalars, "_printed", _fraction_printed):
        want = str(value), latex_str(p)
    assert (str(value), latex_str(p)) == want


# ---------------------------------------------------------------------------
# canonical string grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "q", "s", "1", "0", "-3", "q^-1", "s^3", "q^2 + q^-2",
    "mu*(q - q^-1)/s", "mu^2*q^-1*(q - q^-1)*(q - q^-1)*(q + q^-1)",
    "(1 - q^-1)*(1 - q^-2)", "1/2", "-q^3/(2*s)",
])
def test_parse_emit_round_trip(text):
    x = parse_param_scalar(text, SQRT_Q)
    assert parse_param_scalar(str(x), SQRT_Q) == x
    # emitting twice is stable
    assert str(parse_param_scalar(str(x), SQRT_Q)) == str(x)


def test_round_trip_is_the_identity_on_laurent_values_only():
    # a Q(s) value whose denominator is a sum prints, but no parse reads it
    # back: 1/(1 + s) and the U_q series coefficient c_2
    s, one = SQRT_Q.s(), SQRT_Q.one()
    q = s * s
    c_2 = q ** 3 * (one - q ** -2) ** 2 / q_number_factorial(2, q)
    for value, printed in [((one + s).inverse(), "(1)/(1 + s)"),
                           (c_2, "(1 - 2*s^4 + s^8)/(1 + s^4)")]:
        assert str(value) == printed
        with pytest.raises(ValueError, match="no binary"):
            parse_scalar(printed, SQRT_Q)
    # every entry of a written matrix is Laurent, so it round trips
    for two_j in (1, 2, 3, 4):
        r = uqsl2_r_matrix(spin_rep(two_j), parametric=True)
        for v in r.entries.values():
            assert str(parse_param_scalar(str(v), SQRT_Q)) == str(v)


def test_parse_refuses_a_divisor_in_s_that_is_no_monomial():
    # a divisor, the right operand of /, holds no binary + or -, and only
    # names take an exponent, so every divisor is a monomial and every
    # parsed Q(s) value a Laurent polynomial
    for bad in ["-q^3/(1 + q)", "1/(1+s)", "(1)/(1 + s^2)", "mu/(2 - s)",
                "1/-(s*(2 - s))", "1/(s/(1 + s))"]:
        with pytest.raises(ValueError, match="no binary"):
            parse_param_scalar(bad, SQRT_Q)
    for bad in ["(1+s)^-1", "(s + mu*(1 + s))^-2", "(2*q^-1*mu)^-2",
                "(s)^-1*(-s)^2"]:
        with pytest.raises(ValueError, match="take an exponent"):
            parse_param_scalar(bad, SQRT_Q)
    assert parse_param_scalar("(1 + s)/(2*s^3)", SQRT_Q) == \
        parse_param_scalar("s^-3/2 + s^-2/2", SQRT_Q)
    assert parse_param_scalar("1/(2*q^-1*mu)/(2*q^-1*mu)", SQRT_Q) == \
        parse_param_scalar("q^2*mu^-2/4", SQRT_Q)
    # a sign is no sum, and ((s)) is the name s
    assert parse_param_scalar("1/-s/2 + ((s))^-1", SQRT_Q) == \
        parse_param_scalar("s^-1/2", SQRT_Q)
    # the rules are the same in every domain
    dom = cyclotomic(5)
    with pytest.raises(ValueError, match="no binary"):
        parse_scalar("1/(1 + q)", dom)
    assert parse_scalar("1/(2*q^3)", dom) * 2 * dom.q() ** 3 == dom.one()


def test_parse_double_star_alias():
    assert parse_param_scalar("q**2", SQRT_Q) == parse_param_scalar("q^2", SQRT_Q)


def test_parse_scalar_rejects_parameters():
    with pytest.raises(ScalarDomainError):
        parse_scalar("mu*q", SQRT_Q)
    assert parse_scalar("q^2 - 1", SQRT_Q) == Q ** 2 - SQRT_Q.one()


def test_parse_rejects_garbage():
    for bad in ["q +", "(q", "q^", "foo", "2..5", "mu nu",
                "(" * 400 + "q" + ")" * 400,
                "2^99999999", "(1+s)^99999999", "s^-1001",
                "-" * 100_000 + "q",
                # over the work budget (at the parent most took seconds)
                "(1+mu)^1000", "((1+nu)^10)^100", "(1+mu)^500*(1+mu)^500",
                "(2+3*mu)^1000", "(1+mu)^300", "(1+s)^1000", "(1+s)^500",
                # powers of sums, some of them under a divisor
                "((1+s^3)^-1+s)^80", "((1+s^3)^-1+s)^8",
                "((1+s)^-1+(1+s^3)^-1+7+(2+q)^-1)^31",
                "(1*3)^400*(s*3+7*s+123456789+(2+q)^-1*mu)^10"
                "*(2*s^-1+" + "9" * 60 + "+s*mu^-1)^10"]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            parse_param_scalar(bad, SQRT_Q)
        assert time.perf_counter() - t0 < 0.5
    # signs are read without recursion: 2,000 of them cancel, 1,999 negate
    assert parse_param_scalar("-" * 2000 + "q", SQRT_Q).as_scalar() == Q
    assert parse_param_scalar("-" * 1999 + "q", SQRT_Q).as_scalar() == -Q


def test_parse_bounds_the_work_of_every_value():
    # products are charged from two sizes of their operands, so that big
    # coefficients, wide cyclotomic coefficients and long products of sums
    # are refused before they are expanded; powers and quotients of sums
    # are refused by the grammar
    wide = "(" + "+".join(f"{'9' * 300}*mu^{i}" for i in range(200)) + ")"
    for bad, dom in [("(999+(1+q)^-1)^-200", cyclotomic(64)),
                     ("(q^-1+mu+7)^150", cyclotomic(8)),
                     ("(123456789-q)^-200", cyclotomic(64)),
                     ("1/(123456789-q+99999*q^5)^100", cyclotomic(64)),
                     ("(1+q)^1000", cyclotomic(64)),
                     ("((1+q)^-1+999+(2+q)^-1+1)^2+((s^-1)^-300)^3*((1+s)^-1"
                      "*123456789+(1+q)^-1*2+(1+s)^-1*(1+s)^-1)^-2*(999)^40",
                      SQRT_Q),
                     # one product of two 200-term sums of 300-digit numbers
                     (f"{wide}*{wide}", SQRT_Q),
                     ("*".join(["(" + "9" * 40 + "+q+q^-1)"] * 200),
                      cyclotomic(64))]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            parse_param_scalar(bad, dom)
        assert time.perf_counter() - t0 < 0.5
    # one product of two 200-term sums, 4 sums of 1,000 products of small
    # sums (80 KB) and 218 summed products of dense Q(zeta_64) values
    # (106 KB): the last two took 0.8 and 1.3 s when small products and
    # dense coefficients were undercharged.  A 4,000-digit literal is
    # charged the square of its words, for reading and printing it
    dense = "*".join("(" + "+".join(f"{c + i}*q^{i}" for i in range(32)) + ")"
                     for c in (7, 3))
    for bad, dom in [(f"{wide}*{wide}", SQRT_Q),
                     ("+".join(["(" + "+".join(["(1+mu)*(1+s)*(1+nu)"] * 1000)
                                + ")"] * 4), SQRT_Q),
                     ("+".join([dense] * 218), cyclotomic(64)),
                     ("+".join(["9" * 4000] * 100), RATIONAL)]:
        with pytest.raises(ValueError, match="units of work"):
            parse_param_scalar(bad, dom)
    assert len(parse_param_scalar("*".join(["(1+mu)"] * 200),
                                  SQRT_Q).terms) == 201
    mus, nus = ("(" + "+".join(f"{x}^{i}" for i in range(31)) + ")"
                for x in ("mu", "nu"))
    assert len(parse_param_scalar(f"{mus}*{nus}", SQRT_Q).terms) == 961
    dom = cyclotomic(64)
    assert parse_scalar("*".join(["(1+q)"] * 1000), dom) == \
        (dom.one() + dom.q()) ** 1000


def test_parse_bounds_sums_by_terms():
    # a sum is read into one dict in one pass, and only the finished sum is
    # bounded: 1,001 distinct powers of mu parse, 1,002 span too much
    text = "+".join(f"mu^{i}" for i in range(-500, 502))
    assert len(parse_param_scalar(text.rpartition("+")[0], SQRT_Q).terms) == 1001
    with pytest.raises(ValueError, match="spans more than"):
        parse_param_scalar(text, SQRT_Q)
    # a summand is not bounded on its own, a factor is
    assert parse_param_scalar("(mu^1000+mu^-1000) - mu^1000", SQRT_Q) == \
        ParamScalar.mu(SQRT_Q, -1000)
    with pytest.raises(ValueError, match="spans more than"):
        parse_param_scalar("(mu^1000+mu^-1000)*0", SQRT_Q)
    # a + (b + (c + ...)) is the same sum as ((a + b) + c) + ...
    terms = [f"{i}*mu^{i % 7}*s^{i % 5}" for i in range(150)]
    assert parse_param_scalar("+(".join(terms) + ")" * 149, SQRT_Q) == \
        parse_param_scalar("+".join(terms), SQRT_Q)
    # signs cost no copy: 2,000 of them on a 496-term product
    product = "*".join(["(1+mu+nu)"] * 30)
    assert parse_param_scalar("-" * 2000 + f"({product})", SQRT_Q) == \
        parse_param_scalar(product, SQRT_Q)
    assert parse_param_scalar("+".join(f"s^{i}" for i in range(1000)),
                              SQRT_Q).as_scalar() == \
        sum((SQRT_Q.s() ** i for i in range(1000)), SQRT_Q.zero())


def test_parse_takes_no_inverse_for_a_power_of_q():
    # q^-k is q^(n-k) in Q(zeta_n), and a divisor is read as its reciprocal
    # monomial, so no parse takes an inverse
    dom = cyclotomic(997)
    for text in ("*".join(["q^-2"] * 20), "+".join(["1/q^995"] * 20)):
        t0 = time.perf_counter()
        try:
            parse_param_scalar(text, dom)
        except ValueError:
            pass
        assert time.perf_counter() - t0 < 0.5
    dom = cyclotomic(5)
    assert parse_scalar("q^-1", dom) == dom.q().inverse()
    assert parse_scalar("q^-7", dom) == dom.q().inverse() ** 7


def test_quotients_over_q_zeta_997_take_no_inverse():
    # 1/q^995 is q^2 read leaf by leaf, with no inverse taken
    dom = cyclotomic(997)
    q = dom.q()
    assert parse_scalar("1/q^995", dom) == q ** 2
    t0 = time.perf_counter()
    assert parse_scalar("+".join(["1/q^995"] * 20), dom) == 20 * q ** 2
    assert time.perf_counter() - t0 < 0.5
    assert parse_scalar("1/(2*q^3)", dom) == (2 * q ** 3).inverse()
    assert parse_scalar("q/(2/q^4)/-3", dom) == -q ** 5 / 6


def _euclid_inverse(x):
    """x^-1 over cyclotomic(n) by Euclid against Phi_n, for any x != 0."""
    r, t = scalars._euclid(x.domain.phi, x.num, (), (1,))
    return _normal(x.domain, [c * x.den[0] for c in t], r)


def test_cyclotomic_monomials_invert_without_euclid():
    # c q^k inverts to q^(n-k) / c; every other value still runs Euclid
    for n in range(2, 17):
        dom = cyclotomic(n)
        for k in range(len(dom.phi) - 1):
            for c in (1, -3, Fraction(5, 2)):
                x = dom.from_fraction(c) * dom.q() ** k
                assert x.inverse() == _euclid_inverse(x), (n, k, c)
                assert x * x.inverse() == dom.one()
        y = dom.one() + 2 * dom.q()
        assert y.inverse() == _euclid_inverse(y)
    dom = cyclotomic(997)
    x = 2 * dom.q() ** 3
    t0 = time.perf_counter()
    inv = x.inverse()
    assert time.perf_counter() - t0 < 0.005
    assert inv == dom.q() ** 994 / 2


def _costly_cases():
    """(string, domain) pairs of what can still cost: sums of long products
    of sums over monomial divisors, dense sums of the powers of q and one
    product repeated as the summand of a long sum.  The leaves are the
    domain's own (q outside the rationals, s only over Q(s)) with big
    integers and powers of names, so no draw breaks a grammar rule."""
    def strings(dom):
        names = {"rational": (), "cyclotomic": ("q", "q^-1", "q^5", "q^-7"),
                 "sqrt_q": ("q", "q^-1", "s", "s^-1", "s^3", "q^-30")}
        leaves = st.sampled_from(("1", "2", "7", "999", "123456789", "9" * 40,
                                  "mu", "nu", "mu^-1", "nu^2")
                                 + names[dom.kind])
        monomials = st.lists(leaves, min_size=1, max_size=3).map("*".join)
        sums = st.lists(monomials, min_size=2, max_size=6).map(
            lambda t: "(" + "+".join(t) + ")")
        if dom.kind == "cyclotomic":   # every power of q below 32
            sums |= st.just("(" + "+".join(f"{i + 7}*q^{i}" for i in range(32))
                            + ")")
        divisors = st.lists(monomials.map("/({})".format), max_size=2)
        products = st.tuples(st.lists(sums | monomials, min_size=1,
                                      max_size=40).map("*".join),
                             divisors.map("".join)).map("".join)
        repeated = st.tuples(products, st.integers(2, 300)).map(
            lambda t: " + ".join([t[0]] * t[1]))
        return st.lists(products, min_size=1, max_size=3).map(" + ".join) \
            | repeated

    return st.sampled_from((RATIONAL, SQRT_Q, cyclotomic(5), cyclotomic(8),
                            cyclotomic(64))).flatmap(
        lambda dom: st.tuples(strings(dom), st.just(dom)))


@settings(max_examples=150, deadline=None)
@given(_costly_cases())
def test_accepted_strings_evaluate_within_a_second(case):
    # the work budget and the size bounds refuse whatever would expand for
    # long, so every accepted string evaluates within a second (the time
    # a string takes to be refused is not bounded by this property)
    text, dom = case
    t0 = time.perf_counter()
    try:
        parse_param_scalar(text, dom)
    except (ValueError, ScalarDomainError):
        return
    assert time.perf_counter() - t0 < 1


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
    """Strings of the scalar grammar, with sums, products, quotients, signs,
    parentheses and powers of names.

    The exponents 30, 31, 1000 and 1001 go on a name, a parenthesized name
    or, which the grammar refuses, an integer; a divisor holding a sum is
    refused too, and a compound base is left to the fuzz tokens."""
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
            inner.map(lambda t: f"({t})"))

    bases = st.sampled_from(("q", "s", "mu", "nu", "(q)", "((mu))", "2"))
    return st.recursive(
        leaves | power(bases, (0, 1, 2, 3, 30, 31, 1000, 1001)), extend,
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
@example("(q + 1)^2", SQRT_Q)
@example("-q^2 - ((q))^-3/(2*s)", SQRT_Q)
@example("1/-(mu*(1 + mu)) + 3", SQRT_Q)
@example("1/2/q*(1 - q)", cyclotomic(5))
@example("(mu^1000+mu^-1000)*0", SQRT_Q)
@example("0*(mu^1000+mu^-1000)", SQRT_Q)
@example("(mu^1000+mu^-1000) - mu^1000", SQRT_Q)
@example("- - -(1+mu)", SQRT_Q)
def test_parse_agrees_with_the_descent_parser(text, dom):
    # the descent parser in reference_parser.py is the reference for the
    # accepted language, the values and the size bounds; the two may only
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
    # each product, charged before it is expanded, is bounded once it is
    # computed (101 * 11 and 41 * 41 terms exceed 1001), like every value
    def power(base, k):
        return "*".join([base] * k)

    for bad in ["(1+mu)^100*(1+nu)^10", "mu^-5*(1+mu)^100*(1+nu)^10",
                "(1+mu)^100/(1+s)^10", "mu^1000*mu", "s^-1000/s",
                "(1+mu)^40 + (1+nu)^40", "(s^500)^2*s",
                power("(1+mu)", 100) + "*" + power("(1+nu)", 10),
                "mu^-5*" + power("(1+mu)", 100) + "*" + power("(1+nu)", 10),
                f"({power('(1+mu)', 40)}) + ({power('(1+nu)', 40)})",
                "s^500*s^500*s"]:
        with pytest.raises(ValueError):
            parse_param_scalar(bad, SQRT_Q)
    v = parse_param_scalar(
        "mu^-500*" + power("(1+mu)", 10) + "*" + power("(1+s)", 50), SQRT_Q)
    assert len(v.terms) == 11
    assert str(parse_param_scalar(str(v), SQRT_Q)) == str(v)
    assert parse_param_scalar("mu^1000*mu^-1000", SQRT_Q) == \
        ParamScalar.constant(SQRT_Q.one())


@settings(max_examples=40)
@given(strategies.param_scalars(strategies.sqrt_laurents())
       | strategies.cyclotomic_param_scalars())
def test_emit_parse_identity_property(x):
    y = parse_param_scalar(str(x), x.domain)
    assert y == x and str(y) == str(x)


@settings(max_examples=40)
@given(strategies.param_scalars(strategies.sqrt_fractions()))
def test_emitted_fractions_in_s_are_refused(x):
    # a Q(s) value whose denominator is no power of s has no string the
    # parser accepts: its denominator is a sum
    assume(any(len(c.den) > 1 for c in x.terms.values()))
    with pytest.raises(ValueError, match="no binary"):
        parse_param_scalar(str(x), SQRT_Q)


@settings(max_examples=300, deadline=None)
@given(_grammar_strings(), _grammar_strings(),
       st.sampled_from((RATIONAL, SQRT_Q, cyclotomic(5))))
@example("s + 1", "q - mu^0", SQRT_Q)
@example("1", "q", cyclotomic(5))
def test_parsing_runs_no_euclid_in_any_domain(a, b, dom):
    # a divisor is read as its reciprocal monomial and every parsed Q(s)
    # value is a Laurent polynomial, so no sum, product, quotient or power
    # of a parse takes an inverse by Euclid's algorithm or a polynomial
    # gcd; a quotient of two strings is where one would run
    def euclid(*args):
        raise AssertionError("Euclid's algorithm ran while parsing")

    with mock.patch.object(scalars, "_euclid", euclid):
        for text in (a, f"({a})/({b})", f"({b})^-1*({a})"):
            _parsed_or_refused(parse_param_scalar, text, dom)
