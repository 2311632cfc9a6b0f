"""Hypothesis strategies for exact scalar domains."""

from fractions import Fraction

import hypothesis.strategies as st

from hopfbax import RATIONAL, SQRT_Q, ParamScalar, cyclotomic

_small = st.integers(min_value=-9, max_value=9)

# orders whose Phi_n is not 1 + x + ... + x^(n-1)
COMPOSITE_ORDERS = (6, 8, 12)


def rationals():
    return st.builds(
        lambda n, d: RATIONAL.from_fraction(Fraction(n, d)),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=1, max_value=12),
    )


def cyclotomics(n: int = 5):
    dom = cyclotomic(n)

    def build(coeffs):
        acc = dom.zero()
        power = dom.one()
        for c in coeffs:
            acc = acc + power * dom.from_fraction(Fraction(c))
            power = power * dom.q()
        return acc

    return st.lists(_small, min_size=1, max_size=n).map(build)


def sqrt_laurents():
    # Laurent polynomials in s with small integer coefficients.
    def build(coeffs, low):
        acc = SQRT_Q.zero()
        for k, c in enumerate(coeffs):
            acc = acc + SQRT_Q.s() ** (low + k) * SQRT_Q.from_fraction(Fraction(c))
        return acc

    return st.builds(build, st.lists(_small, min_size=1, max_size=5),
                     st.integers(min_value=-4, max_value=4))


# denominators that are not powers of s: 1 + s^2, 1 - s, 2 + s^3, 1 + s + s^2
_DENOMINATORS = ((1, 0, 1), (1, -1), (2, 0, 0, 1), (1, 1, 1))


def sqrt_fractions():
    # Laurent polynomials over products of the denominators above, so that
    # arithmetic needs a polynomial gcd and not only a shift in s.
    def build(num, factors):
        s, den = SQRT_Q.s(), SQRT_Q.one()
        for coeffs in factors:
            den = den * sum((s ** k * c for k, c in enumerate(coeffs)),
                            SQRT_Q.zero())
        return num / den

    return st.builds(build, sqrt_laurents(),
                     st.lists(st.sampled_from(_DENOMINATORS), min_size=1,
                              max_size=3))


def sqrt_scalars():
    return sqrt_laurents() | sqrt_fractions()


def param_scalars(base=None, domain=SQRT_Q):
    if base is None:
        base = sqrt_scalars()

    def build(items):
        acc = ParamScalar(domain)
        for (emu, enu), coeff in items:
            acc = acc + ParamScalar(coeff.domain, {(emu, enu): coeff})
        return acc

    exponents = st.tuples(st.integers(min_value=-3, max_value=3),
                          st.integers(min_value=-3, max_value=3))
    return st.lists(st.tuples(exponents, base), max_size=4).map(build)


def cyclotomic_param_scalars():
    """param_scalars over Q(zeta_n) for a composite order n."""
    return st.sampled_from(COMPOSITE_ORDERS).flatmap(
        lambda n: param_scalars(cyclotomics(n), cyclotomic(n)))
