"""A modular oracle for the exact scalar kernel.

Q(zeta_n) maps into F_p, for a prime p = 1 (mod n), by sending zeta to the
primitive n-th root of unity pow(g, (p - 1) // n, p); Q(s) maps into F_p by
substituting a drawn s0, skipping draws that zero a denominator.  Both maps
are ring homomorphisms, so they must respect +, * and inverse, and equal
scalars must have equal images.  A scalar's image is read off its canonical
string, so the oracle shares no code with the kernel.  It is a test only;
no verdict of the package rests on it.
"""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies

ORDERS = (3, 4, 5, 6, 7, 8, 12)


def _is_prime(m: int) -> bool:
    # Miller-Rabin with these bases is exact below 3.3e24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2 or any(m % b == 0 for b in bases):
        return m in bases
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_1_mod(n: int, above: int) -> int:
    p = above - above % n + 1
    while not _is_prime(p):
        p += n
    return p


# above 2^61, so p exceeds the norm of every difference of two drawn
# cyclotomic scalars, and p | N(a - b) forces a = b
P = _prime_1_mod(840, 2 ** 61)   # 840 = lcm of ORDERS


def _root_of_unity(n: int) -> int:
    """A primitive n-th root of unity mod P, as pow(g, (P - 1) // n, P)."""
    primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
    for g in range(2, P):
        w = pow(g, (P - 1) // n, P)
        if all(pow(w, n // r, P) != 1 for r in primes):
            return w


_TOKEN = re.compile(r"\d+|[qs]|[-+*/^()]")


def image(x, gen: int) -> int:
    """x's canonical string evaluated in F_P with its generator at gen.

    Raises ZeroDivisionError when a denominator vanishes mod P.
    """
    toks = _TOKEN.findall(str(x))
    toks.reverse()

    def expr():
        v = term()
        while toks and toks[-1] in "+-":
            v = v + term() if toks.pop() == "+" else v - term()
        return v % P

    def term():
        v = factor()
        while toks and toks[-1] in "*/":
            if toks.pop() == "*":
                v = v * factor() % P
            else:
                d = factor()
                if d == 0:
                    raise ZeroDivisionError("denominator vanishes mod P")
                v = v * pow(d, -1, P) % P
        return v

    def factor():
        if toks[-1] == "-":
            toks.pop()
            return -factor() % P
        v = atom()
        if toks and toks[-1] == "^":
            toks.pop()
            v = pow(v, int(toks.pop()), P)
        return v

    def atom():
        t = toks.pop()
        if t == "(":
            v = expr()
            assert toks.pop() == ")"
            return v
        return gen if t in "qs" else int(t) % P

    v = expr()
    assert not toks
    return v


def _check_homomorphism(a, b, gen):
    ia, ib = image(a, gen), image(b, gen)
    assert image(a + b, gen) == (ia + ib) % P
    assert image(a + b - b, gen) == ia      # cancels the low terms of b
    assert image(a * b, gen) == ia * ib % P
    if ia:
        assert image(a.inverse(), gen) * ia % P == 1
    if a == b:
        assert ia == ib


def test_prime_and_roots():
    assert _is_prime(P) and P > 2 ** 61 and (P - 1) % 840 == 0
    for n in ORDERS:
        w = _root_of_unity(n)
        assert pow(w, n, P) == 1
        assert all(pow(w, k, P) != 1 for k in range(1, n))


@pytest.mark.parametrize("n", ORDERS)
@settings(max_examples=40)
@given(data=st.data())
def test_cyclotomic_map_respects_arithmetic(n, data):
    a = data.draw(strategies.cyclotomics(n))
    b = data.draw(strategies.cyclotomics(n) | st.just(a))
    w = _root_of_unity(n)
    _check_homomorphism(a, b, w)
    # a nonzero a - b has |N(a - b)| < P, so its image is nonzero
    assert (a == b) == (image(a, w) == image(b, w))


@settings(max_examples=80)
@given(data=st.data(), s0=st.integers(min_value=1, max_value=P - 1))
def test_sqrt_q_map_respects_arithmetic(data, s0):
    a = data.draw(strategies.sqrt_scalars())
    b = data.draw(strategies.sqrt_scalars() | st.just(a))
    try:
        image(a, s0), image(b, s0)
    except ZeroDivisionError:
        assume(False)
    _check_homomorphism(a, b, s0)
