"""The scalar parser's bounds at the edges of their documented ranges:
the exponents a power may carry and what it may grow to, and the work
budget spent to its last unit.  No test here imports hypothesis, so each
node starts fast as the named killer of its mutants."""

import time

import pytest

from hopfbax import RATIONAL, SQRT_Q, ParamScalar, cyclotomic, \
    parse_param_scalar
from hopfbax import scalars


def test_parse_bounds_what_a_power_grows():
    # only q, s, mu and nu take an exponent, |k| <= MAX_EXPONENT (q^-1001
    # is refused even where q^7 = 1), and no value may print an exponent
    # above MAX_EXPONENT: every power of a compound base is refused before
    # anything is evaluated
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
                     ("(2^10)^101", RATIONAL),
                     ("(mu^10)^100", SQRT_Q), ("(-s)^2", SQRT_Q),
                     ("mu^1001", SQRT_Q), ("q^501", SQRT_Q),
                     ("q^-1001", cyclotomic(7))]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            parse_param_scalar(bad, dom)
        assert time.perf_counter() - t0 < 0.5
    assert parse_param_scalar("mu^1000", SQRT_Q) == ParamScalar.mu(
        SQRT_Q, 1000)
    assert parse_param_scalar("q^-500", SQRT_Q) == ParamScalar.constant(
        SQRT_Q.s() ** -1000)
    assert parse_param_scalar("((q))^1000", cyclotomic(7)) == \
        parse_param_scalar("q^6", cyclotomic(7))
    assert parse_param_scalar("q^-1000", cyclotomic(7)) == \
        parse_param_scalar("q", cyclotomic(7))
    # a product spans at most its factors' spreads added: (30 + 1)^2 <= 1001
    # terms allow 30 bivariate linear factors, not 31
    for base, terms in (("(1+mu+nu)", 496), ("(1+mu+s)", 31)):
        assert len(parse_param_scalar("*".join([base] * 30),
                                      SQRT_Q).terms) == terms
        with pytest.raises(ValueError, match="spans more than"):
            parse_param_scalar("*".join([base] * 31), SQRT_Q)


def test_parse_spends_the_whole_budget_and_no_more():
    # names, signs and parentheses cost scalars.TOKEN each, and a sum over
    # one denominator costs nothing: a string of exactly MAX_WORK units is
    # accepted, and two tokens more are refused
    k, m = 10, scalars.MAX_WORK // scalars.TOKEN // 20 - 1
    assert 2 * k * (m + 1) * scalars.TOKEN == scalars.MAX_WORK
    text = "-" + "+".join(["(" + "+".join(["mu"] * m) + ")"] * k)
    assert parse_param_scalar(text, SQRT_Q) == parse_param_scalar(
        f"{(k - 2) * m}*mu", SQRT_Q)
    with pytest.raises(ValueError, match="units of work"):
        parse_param_scalar(text + "+mu", SQRT_Q)
