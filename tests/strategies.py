"""Hypothesis strategies for exact scalar domains, and for the bound path
algebras of random quivers on which the YBE walk is fuzzed."""

from fractions import Fraction

import hypothesis.strategies as st

from hopfbax import RATIONAL, SQRT_Q, ParamScalar, cyclotomic
from path_algebras import coefficients, path_algebra, quiver_paths

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


# ---------------------------------------------------------------------------
# bound path algebras of random quivers
# ---------------------------------------------------------------------------

@st.composite
def path_algebra_cases(draw, domain=cyclotomic(3)):
    """(A, families, blocks): a path_algebra() of 2-4 vertices, 1-4 arrows,
    length 1-3 and q one of q, -1 (so that q^2 is the constant 1) and 2,
    with a random set of paths of class None on each side; three families
    {(e_mu, e_nu): {(i, j): Scalar}} over its basis numbers, with random
    exponents; and blocks {e: {(i, j): Scalar}} of a family in mu."""
    vertices = draw(st.integers(min_value=2, max_value=4))
    vertex = st.integers(min_value=0, max_value=vertices - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                           max_size=4))
    length = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.sampled_from((domain.q(), -domain.one(),
                              domain.from_fraction(2))))
    dim = len(quiver_paths(vertices, arrows, length))
    basis = st.integers(min_value=0, max_value=dim - 1)
    unclassed = (draw(st.sets(basis, max_size=3)),
                 draw(st.sets(basis, max_size=3)))
    block = st.dictionaries(st.tuples(basis, basis), st.sampled_from(
        coefficients(domain)), min_size=2, max_size=5)
    exponent = st.integers(min_value=-2, max_value=2)
    families = draw(st.lists(st.dictionaries(
        st.tuples(exponent, exponent), block, min_size=1, max_size=2),
        min_size=3, max_size=3))
    blocks = draw(st.dictionaries(exponent, block, min_size=1, max_size=2))
    return (path_algebra(vertices, arrows, length, q, unclassed), families,
            blocks)
