"""A modular oracle for the exact scalar kernel.

Q(zeta_n) maps into F_p, for a prime p = 1 (mod n), by sending zeta to the
primitive n-th root of unity pow(g, (p - 1) // n, p); Q(s) maps into F_p by
substituting a drawn s0, skipping draws that zero a denominator.  Both maps
are ring homomorphisms, so they must respect +, * and inverse, and equal
scalars must have equal images.  A scalar's image is read off its canonical
string, so the oracle shares no code with the kernel.  It is a test only;
no verdict of the package rests on it.

The same maps give a differential oracle for the parametric Yang-Baxter
checks: a family R(mu) is evaluated in F_P at mu0, mu0*nu0 and nu0 for
drawn mu0, nu0, and R12 R13 R23 - R23 R13 R12 is formed there with a sparse
product written below: of matrices for the matrix check, and for the
algebraic check in D (x) D (x) D of tensors over the structure constants
of the double, each sent to F_P.  A zero exact residual maps to zero; a
nonzero one maps to a nonzero polynomial in the draws unless P divides the
norm of every coefficient, and by Schwartz-Zippel such a polynomial
vanishes at a random draw with probability at most deg/P.  So the oracle
must agree with the exact verdict both ways.
"""

import random
import re
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies
from hopfbax import TensorElement, build_double, build_taft, canonical_r, \
    check_constant_ybe_algebraic, check_parametric_ybe, \
    check_parametric_ybe_algebraic, rep_indecomposable, rep_irreducible, \
    taft_r_matrix
from hopfbax.regressions import reference_taft_9x9
from hopfbax.taft import canonical_r_mu

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


_TOKEN = re.compile(r"\d+|mu|[qs]|[-+*/^()]")


def image(x, gen: int, mu: int | None = None) -> int:
    """x's canonical string evaluated in F_P with its generator at gen and,
    for a parameter scalar, mu at mu.

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
        if t == "mu":
            return mu
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


# ---------------------------------------------------------------------------
# differential Yang-Baxter oracle
# ---------------------------------------------------------------------------

def _on_legs(r: dict, d: int, legs) -> dict:
    """A d^2 x d^2 matrix {(row, col): value} acting on two legs of
    V (x) V (x) V, the identity on the third; indices are leg triples."""
    out = {}
    for (row, col), v in r.items():
        for m in range(d):
            x, y = [m] * 3, [m] * 3
            x[legs[0]], x[legs[1]] = divmod(row, d)
            y[legs[0]], y[legs[1]] = divmod(col, d)
            out[tuple(x), tuple(y)] = v
    return out


def _matmul(a: dict, b: dict) -> dict:
    rows = {}
    for (r, k), v in b.items():
        rows.setdefault(r, []).append((k, v))
    out = {}
    for (r, k), v in a.items():
        for c, w in rows.get(k, ()):
            out[r, c] = (out.get((r, c), 0) + v * w) % P
    return out


def ybe_residual(m, gen: int, mu0: int, nu0: int) -> set:
    """Entries where R12(a) R13(b) R23(c) and R23(c) R13(b) R12(a) differ
    in F_P, at a = mu0, b = mu0*nu0, c = nu0."""
    d = isqrt(m.dim)

    def at(mu, legs):
        return _on_legs({k: image(v, gen, mu) for k, v in m.entries.items()},
                        d, legs)

    r12, r13, r23 = at(mu0, (0, 1)), at(mu0 * nu0 % P, (0, 2)), at(nu0, (1, 2))
    lhs = _matmul(_matmul(r12, r13), r23)
    rhs = _matmul(_matmul(r23, r13), r12)
    return {k for k in lhs.keys() | rhs.keys() if lhs.get(k, 0) != rhs.get(k, 0)}


@lru_cache(maxsize=None)
def _zoo(n: int) -> dict:
    """Every V_{k,l} and every W_l(alpha), alpha in {1, q}, of D(T_n)."""
    h = build_taft(n)
    d = build_double(h)
    out = {}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            out[f"V_{{{k},{l}}}"] = taft_r_matrix(
                rep_irreducible(d, k, l), parametric=True, normalize=k > 1)
    for alpha, tag in ((h.domain.one(), "1"), (h.domain.q(), "q")):
        for l in range(1, n + 1):
            out[f"W_{l}({tag})"] = taft_r_matrix(
                rep_indecomposable(d, alpha, l), parametric=True,
                normalize=False)
    return out


def _perturbed(r_half, r_one) -> dict:
    """Criterion 12's perturbed spin matrices."""
    bad_half, bad_one = r_half.copy(), r_one.copy()
    bad_half.set(1, 2, bad_half.get(1, 2) + bad_half.get(1, 2))
    bad_one.set(2, 6, bad_one.get(2, 6) * 2)
    return {"perturbed spin-1/2": bad_half, "perturbed spin-1": bad_one}


@pytest.mark.parametrize("group", ["spin", "taft 9x9", "N=2", "N=3", "N=4",
                                   "perturbed"])
def test_ybe_oracle_agrees_with_the_exact_check(group, r_half, r_one):
    if group == "spin":
        families = {"spin-1/2": r_half, "spin-1": r_one}
    elif group == "taft 9x9":
        families = {f"l={l}": reference_taft_9x9(l) for l in (1, 2, 3, 4)}
    elif group == "perturbed":
        families = _perturbed(r_half, r_one)
    else:
        families = _zoo(int(group[2:]))
    disagree, verdicts = [], {}
    for name, m in families.items():
        verdicts[name] = exact = check_parametric_ybe(m).passed
        rng = random.Random(f"{group} {name}")
        for _ in range(3):
            mu0, nu0, s0 = (rng.randrange(1, P) for _ in range(3))
            gen = s0 if m.domain.kind == "sqrt_q" else _root_of_unity(m.domain.n)
            if (not ybe_residual(m, gen, mu0, nu0)) != exact:
                disagree.append((name, exact, mu0, nu0))
    assert not disagree
    # criterion 12's matrices fail exactly, so every draw found a residual
    assert group != "perturbed" or not any(verdicts.values())


# ---------------------------------------------------------------------------
# differential oracle of the algebraic Yang-Baxter checks in D (x) D (x) D
# ---------------------------------------------------------------------------

def _fp_rows(alg, gen):
    """alg.row(i, j) with every structure constant sent to F_P."""
    cells, images = {}, {}

    def row(i, j):
        hit = cells.get((i, j))
        if hit is None:
            hit = cells[i, j] = []
            for k, c in alg.row(i, j):
                if id(c) not in images:   # c stays alive in the entry
                    images[id(c)] = (c, image(c, gen))
                hit.append((k, images[id(c)][1]))
        return hit
    return row


def _fp_slots(family: dict, gen: int, weight: int, slots, alg) -> dict:
    """sum_e weight^e R_e at two slots of D (x) D (x) D and the unit at
    the third, as {(i0, i1, i2): value in F_P}."""
    index = alg.index
    unit = [(index[l], image(c, gen)) for l, c in alg.unit().terms.items()]
    out = {}
    for e, t in family.items():
        w = pow(weight, e, P)
        for (l0, l1), c in t.terms.items():
            v = image(c, gen) * w % P
            for u, cu in unit:
                key = [u] * 3
                key[slots[0]], key[slots[1]] = index[l0], index[l1]
                key = tuple(key)
                out[key] = (out.get(key, 0) + v * cu) % P
    return out


def _fp_product(x: dict, y: dict, row) -> dict:
    """x y for tensors {(i0, i1, i2): value} of D (x) D (x) D over F_P."""
    by_first = {}
    for (j0, j1, j2), b in y.items():
        by_first.setdefault(j0, []).append((j1, j2, b))
    out = {}
    for (i0, i1, i2), a in x.items():
        for j0, rest in by_first.items():
            r0 = row(i0, j0)
            for j1, j2, b in rest if r0 else ():
                r1, r2 = row(i1, j1), row(i2, j2)
                if not (r1 and r2):
                    continue
                for k0, c0 in r0:
                    for k1, c1 in r1:
                        for k2, c2 in r2:
                            key = (k0, k1, k2)
                            out[key] = (out.get(key, 0)
                                        + a * b * c0 * c1 * c2) % P
    return {k: v for k, v in out.items() if v}


def algebraic_ybe_passes_mod_p(double, family: dict, mu0: int, nu0: int) -> bool:
    """R12(mu0) R13(mu0 nu0) R23(nu0) = R23(nu0) R13(mu0 nu0) R12(mu0) in
    F_P for a family {e: R_e} in D (x) D."""
    alg = double.algebra
    gen = _root_of_unity(alg.domain.n)
    row = _fp_rows(alg, gen)
    r12, r13, r23 = (_fp_slots(family, gen, w, slots, alg) for w, slots in (
        (mu0, (0, 1)), (mu0 * nu0 % P, (0, 2)), (nu0, (1, 2))))
    return (_fp_product(_fp_product(r12, r13, row), r23, row)
            == _fp_product(_fp_product(r23, r13, row), r12, row))


def _algebraic_cases(n: int):
    """(name, double, family, parametric) for D(T_n): the canonical R and
    its Baxterized family, doubled-term controls, and for n = 2 the double
    of the left_s convention."""
    d = build_double(build_taft(n))
    r = canonical_r(d).tensor()
    yield "canonical R", d, {0: r}, False
    yield "canonical family", d, canonical_r_mu(d), True
    keys = sorted(r.terms, key=repr)
    for key in keys if n == 2 else random.Random(n).sample(keys, 7 - n):
        doubled = TensorElement(r.algebras, {**r.terms, key: r.terms[key] * 2})
        yield f"term {key} doubled", d, {0: doubled}, False
    if n == 2:
        left = build_double(build_taft(2), "left_s")
        yield "left_s", left, {0: canonical_r(left).tensor()}, False


@pytest.mark.parametrize("n", (2, 3, 4))
def test_algebraic_ybe_oracle_agrees_with_the_exact_check(n):
    disagree, verdicts = [], []
    for name, d, family, parametric in _algebraic_cases(n):
        exact = (check_parametric_ybe_algebraic(d, family) if parametric
                 else check_constant_ybe_algebraic(d, family[0])).passed
        verdicts.append(exact)
        rng = random.Random(f"D(T_{n}) {name}")
        mu0, nu0 = ((rng.randrange(2, P), rng.randrange(2, P)) if parametric
                    else (1, 1))
        if algebraic_ybe_passes_mod_p(d, family, mu0, nu0) != exact:
            disagree.append((name, exact, mu0, nu0))
    assert not disagree
    # both verdicts occur: the canonical elements pass, the controls fail
    assert verdicts[:2] == [True, True] and not any(verdicts[2:])
