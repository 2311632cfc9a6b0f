"""Exact scalar arithmetic for q-deformed algebra.

Every matrix entry and structure constant in this package is a Scalar:
an element of one of three exact coefficient fields,

  * ``rational``        -- plain rationals,
  * ``cyclotomic(n)``   -- Q(zeta_n), with the deformation parameter q equal
                           to the generator (a primitive n-th root of unity),
  * ``sqrt_q``          -- the rational function field Q(s) where s is a
                           formal square root of q (s^2 = q); this is where
                           matrices with half-integer q-powers live.

Scalars from different domains never mix; ints and Fractions promote into
any domain.  On top of Scalar sits ParamScalar: a Laurent polynomial in the
spectral parameters mu, nu with Scalar coefficients.

Arithmetic runs on Python ints, in the number-field layout of FLINT (von
zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 3-6); Fraction appears
only where a value crosses the API.  A value is s^k * a/b: a and b are
ascending int tuples without trailing zeros, the gcd of all their
coefficients is 1 and lead(b) > 0.  In rational and cyclotomic(n), k = 0, b
is a constant and a (in q) is reduced modulo the monic integer Phi_n, so
products never leave the integers (Q is Q(zeta_1), Phi_1 = x - 1).  In
sqrt_q, a and b (in s) are coprime with nonzero constant terms, so a Laurent
polynomial (constant b) needs no polynomial gcd.  Zero is a = (), b = (1,),
k = 0.  The normal forms are unique, so == and hash compare the fields.

Canonical string grammar (``str()`` emits it; ``parse_param_scalar`` checks
the tokens, then walks the ``ast.parse`` tree and refuses any node outside it):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ['-'] (name '^' ['-'] integer | atom)
    atom    := integer | name | '(' expr ')'
    name    := 'q' | 's' | 'mu' | 'nu'

``q`` denotes the domain's deformation parameter (s^2 in sqrt_q), ``s`` is
only legal in sqrt_q.  Only names take an exponent, and a divisor, the
right operand of ``/``, holds no binary + or -: ``(1+q)^2``, ``1/(1+mu)``
and ``1/(1+s)`` raise ValueError, ``(1+q)*(1+q)`` and ``1/(2*s)`` parse.
So every divisor is a monomial c*q^a*s^b*mu^c*nu^d and every parsed Q(s)
value is a Laurent polynomial in s, reached without a gcd.  Emission is
canonical: polynomials are expanded, exponents ascend, denominators are
monic, so emit -> parse -> emit is the identity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
import re


class ScalarDomainError(ArithmeticError):
    """Raised when an operation leaves its domain (zero division, bad mix)."""


def _power(base, k: int, one):
    """base**k, k >= 0, by square-and-multiply starting from base."""
    out = one
    while k:
        if k & 1:
            out = base if out is one else out * base
        k >>= 1
        if k:
            base = base * base
    return out


def normal_key(x: "Scalar") -> tuple:
    """x's normal-form fields: equal for equal Scalars of one domain, and
    cheaper to hash than x, whose hash builds a Fraction if x is rational."""
    return x.num, x.den, x.shift


def accumulate(terms: dict, key, value):
    """terms[key] += value for a sparse dict, dropping the key if the sum is 0."""
    old = terms.get(key)
    if old is not None:
        value = old + value
    if value.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = value


class Memo:
    """Scalar products and sums of one exact check, memoized by the ids of
    their operands: canonical values kept in `values` (one per normal_key)
    or structure constants kept by an algebra's row table, both outliving
    the memo, so no id in a key is ever reused."""

    def __init__(self, domain):
        self.values, self.muls, self.adds = {}, {}, {}
        self.zero = self.intern(domain.zero())

    def intern(self, x):
        return self.values.setdefault(normal_key(x), x)

    def mul(self, a, b):
        c = self.muls.get((id(a), id(b)))
        if c is None:
            c = self.muls[id(a), id(b)] = self.intern(a * b)
        return c

    def add(self, a, b):
        c = self.adds.get((id(a), id(b)))
        if c is None:
            c = self.adds[id(a), id(b)] = self.intern(a + b)
        return c

    def accumulate(self, pairs) -> dict:
        """{key: the sum of its values} of (key, canonical value) pairs,
        without the keys whose sum is (the canonical) zero."""
        terms = {}
        for key, value in pairs:
            old = terms.get(key)
            if old is not None:
                value = self.add(old, value)
            if value is self.zero:
                terms.pop(key, None)
            else:
                terms[key] = value
        return terms


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient sequences of ints)
# ---------------------------------------------------------------------------

def _trim(c) -> tuple:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _mul(a, b) -> list:
    """Product of two nonzero polynomials (a nonzero top coefficient each)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sub_multiple(a: list, c, b, base: int):
    """a -= c * x^base * b, in place (a long enough)."""
    for j, y in enumerate(b, base):
        a[j] -= c * y


def _rem(c: list, phi) -> tuple:
    """c modulo the monic polynomial phi; c is consumed."""
    d = len(phi) - 1
    for k in range(len(c) - 1, d - 1, -1):
        if c[k]:
            _sub_multiple(c, c[k], phi, k - d)
    return _trim(c[:d])


def _divexact(a, b) -> tuple:
    """a / b, where b divides a with an integer quotient."""
    a, db = list(a), len(b) - 1
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = c = a[i + db] // b[-1]
        if c:
            _sub_multiple(a, c, b, i)
    return tuple(quo)


def _euclid(r0, r1, t0=None, t1=None):
    """Last nonzero remainder of Euclid's algorithm on r0, r1 over Z, each
    step cancelling a leading term by integer multiples and dividing out the
    content.  Cofactors with r = t*a (mod m), started as r0 = m, t0 = (),
    r1 = a, t1 = (1,), are carried along; the last one is returned."""
    while r1:
        while len(r0) >= len(r1):
            g = gcd(r0[-1], r1[-1])
            c, lead, base = r0[-1] // g, r1[-1] // g, len(r0) - len(r1)
            r0 = [lead * x for x in r0]
            _sub_multiple(r0, c, r1, base)
            r0 = _trim(r0)
            if t0 is not None:
                t0 = [lead * x for x in t0] + [0] * (len(t1) + base - len(t0))
                _sub_multiple(t0, c, t1, base)
                t0 = _trim(t0)
            g = gcd(*r0, *(t0 or ()))
            if g > 1:
                r0 = tuple(x // g for x in r0)
                t0 = t0 if t0 is None else tuple(x // g for x in t0)
        r0, t0, r1, t1 = r1, t1, r0, t0
    return r0, t0


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Integer coefficient tuple of the n-th cyclotomic polynomial Phi_n."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = (-1,) + (0,) * (n - 1) + (1,)  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _divexact(poly, cyclotomic_polynomial(d))
    return poly


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    kind: str          # "rational" | "cyclotomic" | "sqrt_q"
    n: int = 0         # root-of-unity order for cyclotomic
    # the monic modulus of rational (Phi_1) and cyclotomic (Phi_n) values
    phi: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("rational", "cyclotomic", "sqrt_q"):
            raise ValueError(f"unknown scalar domain {self.kind!r}")
        if self.kind == "cyclotomic" and self.n < 2:
            raise ValueError("cyclotomic domain needs n >= 2")
        if self.kind != "sqrt_q":
            object.__setattr__(self, "phi",
                               cyclotomic_polynomial(max(self.n, 1)))

    # -- constants ---------------------------------------------------------
    def zero(self) -> "Scalar":
        return Scalar(self, (), (1,))

    def one(self) -> "Scalar":
        return self.from_fraction(1)

    def from_fraction(self, x) -> "Scalar":
        x = x if x.__class__ is int else Fraction(x)
        return Scalar(self, (x.numerator,), (x.denominator,)) if x \
            else self.zero()

    def q(self) -> "Scalar":
        """The deformation parameter of this domain."""
        if self.kind == "cyclotomic":
            return _normal(self, [0, 1], (1,))
        if self.kind == "sqrt_q":
            return Scalar(self, (1,), (1,), 2)
        raise ScalarDomainError("the rational domain has no deformation parameter")

    def s(self) -> "Scalar":
        """Formal square root of q (sqrt_q domain only)."""
        if self.kind != "sqrt_q":
            raise ScalarDomainError("s only exists in the sqrt_q domain")
        return Scalar(self, (1,), (1,), 1)

    @property
    def generator_name(self):
        return {"rational": None, "cyclotomic": "q", "sqrt_q": "s"}[self.kind]

    def __str__(self):
        if self.kind == "cyclotomic":
            return f"cyclotomic({self.n})"
        return self.kind


RATIONAL = Domain("rational")
SQRT_Q = Domain("sqrt_q")


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Domain:
    return Domain("cyclotomic", n)


def _normal(domain, num, den, shift=0) -> "Scalar":
    """s^shift * num/den in normal form.  num and den are int sequences, num
    a list if it needs reducing; den is a nonzero constant outside sqrt_q,
    with a nonzero constant term in sqrt_q."""
    phi = domain.phi
    num = _rem(num, phi) if phi and len(num) >= len(phi) else _trim(num)
    if not num:
        return domain.zero()
    if not phi:
        i = 0
        while not num[i]:
            i += 1
        (num, den), shift = _cancel(num[i:], den), shift + i
    return _primitive(domain, num, den, shift)


def _cancel(num, den):
    """num / g and den / g for g the gcd of two Q(s) polynomials."""
    if len(num) > 1 and len(den) > 1:
        g = _euclid(num, den)[0]
        if len(g) > 1:
            c = gcd(*g)
            g = tuple(x // c for x in g)
            return _divexact(num, g), _divexact(den, g)
    return num, den


def _primitive(domain, num, den, shift) -> "Scalar":
    """s^shift * num/den for coprime nonzero num and den, in normal form: the
    integer content of num and den divided out and lead(den) > 0."""
    g = gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num, den = [x // g for x in num], [x // g for x in den]
    return Scalar(domain, tuple(num), tuple(den), shift)


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

class Scalar:
    """An exact field element s^shift * num/den in integer normal form.

    num and den are int coefficient tuples in the domain's generator (q, or
    s in sqrt_q); the module docstring states the normal form of each
    domain.  Only this module reads the fields.
    """

    __slots__ = ("domain", "num", "den", "shift")

    def __init__(self, domain, num, den, shift=0):
        # the fields must already be in normal form
        self.domain = domain
        self.num = num
        self.den = den
        self.shift = shift

    # -- construction helpers ----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.domain != self.domain:
                raise ScalarDomainError(
                    f"cannot mix scalars from {self.domain} and {other.domain}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.domain.from_fraction(other)
        return None

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == (1,) and not self.shift

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        dom = self.domain
        if other.__class__ is not Scalar or other.domain is not dom:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        k = min(self.shift, other.shift)
        a = (0,) * (self.shift - k) + a
        b = (0,) * (other.shift - k) + b
        da, db = self.den, other.den
        if da != db:
            a, b, da = _mul(a, db), _mul(b, da), _mul(da, db)
        if len(a) < len(b):
            a, b = b, a
        num = list(a)
        for i, c in enumerate(b):
            num[i] += c
        return _normal(dom, num, da, k)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.domain, tuple(-c for c in self.num), self.den,
                      self.shift)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        dom = self.domain
        if other.__class__ is not Scalar or other.domain is not dom:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return dom.zero()
        if a == (1,) == self.den and not self.shift:   # Scalars are immutable
            return other
        if b == (1,) == other.den and not other.shift:
            return self
        den, phi = self.den, dom.phi
        if not phi:   # Q(s): a/den and b/d are reduced, so cancel across
            (a, d), (b, den) = _cancel(a, other.den), _cancel(b, den)
            return _primitive(dom, _mul(a, b), _mul(den, d),
                              self.shift + other.shift)
        num = _mul(a, b)
        if den != (1,) or other.den != (1,):
            return _normal(dom, num, _mul(den, other.den))
        # the common case: two rational or cyclotomic values over 1
        return Scalar(dom, _rem(num, phi) if len(num) >= len(phi)
                      else tuple(num), den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        num = self.num
        if not num:
            raise ZeroDivisionError("inverting zero scalar")
        dom = self.domain
        if dom.kind == "sqrt_q":
            num, den = self.den, num
            if den[-1] < 0:
                num, den = tuple(-c for c in num), tuple(-c for c in den)
            return Scalar(dom, num, den, -self.shift)
        # Phi_n is irreducible, so the last remainder r is a constant
        r, t = _euclid(dom.phi, num, (), (1,))
        return _normal(dom, [x * self.den[0] for x in t], r)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        return _power(base, abs(k), self.domain.one())

    def __eq__(self, other):
        if isinstance(other, Scalar):
            if other.domain != self.domain:
                return False
        elif isinstance(other, (int, Fraction)):
            other = self.domain.from_fraction(other)
        else:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.shift == other.shift)

    def __hash__(self):
        num, den = self.num, self.den
        if not num:
            return 0
        if len(num) == 1 and len(den) == 1 and not self.shift:
            # a rational number: equal to an int or Fraction, so it must
            # hash like one
            return hash(Fraction(num[0], den[0]))
        return hash((self.domain, num, den, self.shift))

    def __bool__(self):
        return bool(self.num)

    # -- misc ----------------------------------------------------------------
    def __str__(self):
        gen = self.domain.generator_name or "x"
        num, den = _monic_form(self)
        if den == (1,):
            return _poly_str(num, gen)
        return f"({_poly_str(num, gen)})/({_poly_str(den, gen)})"

    def __repr__(self):
        return f"Scalar[{self.domain}]({self})"


def _dense(x: Scalar):
    """(numerator, denominator) int tuples in the generator, s^k spelt out."""
    k = x.shift
    return (0,) * max(k, 0) + x.num, (0,) * max(-k, 0) + x.den


def _monic_form(x: Scalar):
    """The printed form: _dense with Fraction coefficients and a monic
    denominator."""
    num, den = _dense(x)
    lead = den[-1]
    return (tuple(Fraction(c, lead) for c in num),
            tuple(Fraction(c, lead) for c in den))


def _poly_str(p, gen: str) -> str:
    if not p:
        return "0"
    parts = []
    for e, c in enumerate(p):
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            v = gen if e == 1 else f"{gen}^{e}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _latex_scalar(x: Scalar) -> str:
    def poly(p):
        gen = x.domain.generator_name
        if not p:
            return "0"
        parts = []
        for e, coeff in enumerate(p):
            if not coeff:
                continue
            mag = abs(coeff)
            if e == 0:
                body = _latex_frac(mag)
            else:
                if gen == "s":
                    v = "q^{1/2}" if e == 1 else (
                        f"q^{{{e // 2}}}" if e % 2 == 0 else f"q^{{{e}/2}}")
                    if e == 2:
                        v = "q"
                else:
                    v = gen if e == 1 else f"{gen}^{{{e}}}"
                body = v if mag == 1 else f"{_latex_frac(mag)} {v}"
            parts.append(("-" if coeff < 0 else ("+" if parts else "")) + body)
        return " ".join(parts)

    num, den = _monic_form(x)
    if den == (1,):
        return poly(num)
    return f"\\frac{{{poly(num)}}}{{{poly(den)}}}"


def _latex_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else \
        f"\\tfrac{{{f.numerator}}}{{{f.denominator}}}"


# ---------------------------------------------------------------------------
# q-power evaluation
# ---------------------------------------------------------------------------

def eval_q_powers(x: Scalar, q_target: Scalar) -> Scalar:
    """Evaluate a sqrt_q scalar that is Laurent in q at a concrete q.

    Only even powers of s may appear; odd powers raise ScalarDomainError.
    """
    if x.domain.kind != "sqrt_q":
        raise ScalarDomainError("eval_q_powers expects a sqrt_q scalar")

    def ev(p):
        if any(c and (e % 2) for e, c in enumerate(p)):
            raise ScalarDomainError("scalar has a genuine half-integer q power")
        out = q_target.domain.zero()
        top = ((len(p) - 1) // 2) * 2 if p else -2
        for e in range(top, -1, -2):
            out = out * q_target + p[e]
        return out

    num, den = _dense(x)
    return ev(num) / ev(den)


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_bracket(n: int, q: Scalar) -> Scalar:
    """(n)_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("(n)_q needs n >= 0")
    out = q.domain.zero()
    p = q.domain.one()
    for _ in range(n):
        out = out + p
        p = p * q
    return out


def q_bracket_factorial(n: int, q: Scalar) -> Scalar:
    """(n)_q! = (1)_q (2)_q ... (n)_q."""
    if n < 0:
        raise ValueError("(n)_q! needs n >= 0")
    out = q.domain.one()
    for k in range(1, n + 1):
        out = out * q_bracket(k, q)
    return out


def gauss_binomial(n: int, m: int, q: Scalar):
    """Gaussian binomial (n choose m)_q = (n)_q! / ((m)_q! (n-m)_q!)."""
    if m < 0 or m > n:
        return q.domain.zero()
    den = q_bracket_factorial(m, q) * q_bracket_factorial(n - m, q)
    if den.is_zero():
        raise ScalarDomainError(
            f"({n} choose {m})_q denominator vanishes at this q")
    return q_bracket_factorial(n, q) / den


def q_number(n: int, q: Scalar) -> Scalar:
    """Balanced q-integer [n]_q = (q^n - q^-n)/(q - q^-1), as a Laurent sum."""
    if n < 0:
        return -q_number(-n, q)
    out = q.domain.zero()
    for k in range(n):
        out = out + q ** (n - 1 - 2 * k)
    return out


def q_number_factorial(n: int, q: Scalar) -> Scalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise ValueError("[n]_q! needs n >= 0")
    out = q.domain.one()
    for k in range(1, n + 1):
        out = out * q_number(k, q)
    return out


# ---------------------------------------------------------------------------
# ParamScalar: Laurent polynomials in the spectral parameters mu, nu
# ---------------------------------------------------------------------------

class ParamScalar:
    """Sparse Laurent polynomial in (mu, nu) with Scalar coefficients."""

    __slots__ = ("domain", "terms")

    def __init__(self, domain, terms=None):
        self.domain = domain
        self.terms = {k: v for k, v in (terms or {}).items()
                      if not v.is_zero()}

    # -- constructors --------------------------------------------------------
    @staticmethod
    def constant(x: Scalar) -> "ParamScalar":
        return ParamScalar(x.domain, {(0, 0): x})

    @staticmethod
    def mu(domain: Domain, power: int = 1) -> "ParamScalar":
        return ParamScalar(domain, {(power, 0): domain.one()})

    @staticmethod
    def nu(domain: Domain, power: int = 1) -> "ParamScalar":
        return ParamScalar(domain, {(0, power): domain.one()})

    def _coerce(self, other):
        if isinstance(other, (ParamScalar, Scalar, int, Fraction)):
            return as_param_scalar(other, self.domain)
        return None

    # -- predicates ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def as_scalar(self) -> Scalar:
        if not self.terms:
            return self.domain.zero()
        if self.uses_parameters():
            raise ScalarDomainError("parameter scalar genuinely involves mu/nu")
        return self.terms[(0, 0)]

    def uses_parameters(self) -> bool:
        return any(k != (0, 0) for k in self.terms)

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            accumulate(out, k, v)
        return ParamScalar(self.domain, out)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(self.domain, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for (a, b), v in self.terms.items():
            for (c, d), w in o.terms.items():
                accumulate(out, (a + c, b + d), v * w)
        return ParamScalar(self.domain, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            raise ScalarDomainError("division by zero")
        if len(o.terms) != 1:
            raise ScalarDomainError("can only divide by a single Laurent monomial")
        ((a, b), v), = o.terms.items()
        inv = v.inverse()
        return ParamScalar(self.domain,
                           {(c - a, d - b): w * inv for (c, d), w in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if len(self.terms) != 1:
                raise ScalarDomainError("negative power of a non-monomial")
            ((a, b), v), = self.terms.items()
            return ParamScalar(self.domain, {(a * k, b * k): v ** k})
        return _power(self, k, ParamScalar.constant(self.domain.one()))

    def __eq__(self, other):
        if isinstance(other, (ParamScalar, Scalar)) and other.domain != self.domain:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        if self.uses_parameters():
            return hash((self.domain, frozenset(self.terms.items())))
        # zero or constant: equal to its coefficient, so it hashes like it
        return hash(self.as_scalar())

    def at_one(self) -> Scalar:
        """Evaluate at mu = nu = 1."""
        return sum(self.terms.values(), self.domain.zero())

    def map_scalars(self, fn) -> "ParamScalar":
        """Apply fn to every coefficient (fn may change the scalar domain)."""
        out = {k: fn(v) for k, v in self.terms.items()}
        return ParamScalar(next(iter(out.values())).domain if out
                           else self.domain, out)

    # -- display ---------------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms):
            v = self.terms[(a, b)]
            mono = []
            if a:
                mono.append("mu" if a == 1 else f"mu^{a}")
            if b:
                mono.append("nu" if b == 1 else f"nu^{b}")
            mono = "*".join(mono)
            cs = str(v)
            if not mono:
                parts.append(cs)
            elif v.is_one():
                parts.append(mono)
            else:
                if " " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"ParamScalar[{self.domain}]({self})"


def laurent_by_key(terms: dict) -> dict:
    """{(key, e_mu, e_nu): nonzero Scalar} as {key: ParamScalar}."""
    out = {}
    for (key, e_mu, e_nu), c in terms.items():
        out.setdefault(key, ParamScalar(c.domain)).terms[(e_mu, e_nu)] = c
    return out


def latex_str(v: ParamScalar) -> str:
    """LaTeX form of a ParamScalar, the display twin of its str()."""
    parts = []
    for (a, b) in sorted(v.terms):
        coeff = v.terms[(a, b)]
        mono = ""
        if a:
            mono += "\\mu" if a == 1 else f"\\mu^{{{a}}}"
        if b:
            mono += "\\nu" if b == 1 else f"\\nu^{{{b}}}"
        cs = _latex_scalar(coeff)
        if not mono:
            body = cs
        elif coeff.is_one():
            body = mono
        else:
            body = (f"\\left({cs}\\right){mono}" if ("+" in cs or "-" in cs[1:])
                    else f"{cs} {mono}")
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return " ".join(parts) if parts else "0"


def as_param_scalar(c, domain: Domain) -> ParamScalar:
    """c (a ParamScalar, Scalar, int or Fraction) as a ParamScalar over domain."""
    if c.__class__ is ParamScalar and c.domain is domain:
        return c    # the common case, checked first because it is hot
    if not isinstance(c, (ParamScalar, Scalar)):
        return ParamScalar.constant(domain.from_fraction(c))
    if c.domain is not domain and c.domain != domain:
        raise ScalarDomainError(f"cannot use a scalar from {c.domain} over {domain}")
    return c if isinstance(c, ParamScalar) else ParamScalar.constant(c)


def proportionality_ratio(a: ParamScalar, b: ParamScalar):
    """Scalar r with a = r*b, or None if the two are not proportional."""
    if b.is_zero():
        return a.domain.zero() if a.is_zero() else None
    if a.is_zero():
        return a.domain.zero()
    k, v = min(b.terms.items())
    r = a.terms[k] / v if k in a.terms else None
    return r if r is not None and a == ParamScalar.constant(r) * b else None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# largest |k| accepted in name^k.  Powers and quotients are of monomials,
# so only products of sums grow: each is refused before it is computed if
# it may span more than MAX_EXPONENT + 1 terms, and no value may print an
# exponent above MAX_EXPONENT, so every str() parses.
MAX_EXPONENT = 1000

# the predicted work of all products of one parse, about 0.4 s
MAX_WORK = 3_500_000

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\*\*|[()+\-*/^])")

_NAMES = {"q": lambda d: ParamScalar.constant(d.q()),
          "s": lambda d: ParamScalar.constant(d.s()),
          "mu": ParamScalar.mu, "nu": ParamScalar.nu}

_OPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b}


def _python_source(text: str) -> str:
    """text respelt as Python (^ as **, digit runs as ASCII ints) once each
    token is checked against the grammar; an exponent must be an int literal."""
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character in scalar string at {text[pos:]!r}")
        tok, pos = m.group(1), m.end()
        if tok.isdigit():
            tok = str(int(tok))
        elif tok.isalpha() and tok not in _NAMES:
            raise ValueError(f"unknown symbol {tok!r}")
        out.append("**" if tok == "^" else tok)
    source = " ".join(out)
    if re.search(r"\*\*(?! (- )?\d)", source):
        raise ValueError("exponent must be an integer")
    return source


def _checked(tree):
    """tree if only names are raised to a power and no divisor, the right
    operand of /, holds a binary + or -; ValueError otherwise."""
    todo = [(tree, False)]
    while todo:
        node, divisor = todo.pop()
        if isinstance(node, ast.UnaryOp):
            todo.append((node.operand, divisor))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not isinstance(node.left, ast.Name):
                raise ValueError("only q, s, mu and nu take an exponent")
        elif isinstance(node, ast.BinOp):
            if divisor and isinstance(node.op, (ast.Add, ast.Sub)):
                raise ValueError("a divisor may hold no binary + or -")
            todo += [(node.left, divisor),
                     (node.right, divisor or isinstance(node.op, ast.Div))]
    return tree


def _spread(v: ParamScalar) -> tuple:
    """The degrees v spans in mu, in nu and in s (the most of any
    coefficient's numerator and denominator spans added); a product spans
    at most the sum of its factors'."""
    out = []
    for i in (0, 1):
        exps = [key[i] for key in v.terms]
        out.append(max(exps) - min(exps) if exps else 0)
    s = 0
    if v.domain.kind == "sqrt_q":
        for c in v.terms.values():
            s = max(s, len(c.num) + len(c.den) - 2)
    return (*out, s)


def _bounded(v: ParamScalar, spread=None, what="value") -> ParamScalar:
    """v if its spread, or the spread predicted for it, gives at most
    MAX_EXPONENT + 1 terms and, once computed, str(v) prints no exponent
    above MAX_EXPONENT; ValueError otherwise."""
    terms, spans = 1, spread or _spread(v)
    for d in spans:
        terms *= d + 1
    reach = 0 if spread else max((abs(e) for k in v.terms for e in k), default=0)
    if not spread and v.domain.kind == "sqrt_q":   # str() spells s^shift out
        for c in v.terms.values():
            reach = max(reach, max(c.shift, 0) + len(c.num) - 1,
                        max(-c.shift, 0) + len(c.den) - 1)
    if terms > MAX_EXPONENT + 1 or reach > MAX_EXPONENT:
        raise ValueError(f"{what} spans more than {MAX_EXPONENT + 1} terms "
                         f"or prints an exponent above {MAX_EXPONENT}")
    return v


def _size(v: ParamScalar, spread: tuple) -> tuple:
    """What _work reads of v, given its mu, nu and s spreads: those in mu
    and nu, the degrees the coefficients span in s (or q), the most words a
    coefficient holds and the bits of all the integers."""
    mu, nu, s = spread
    cs, phi = v.terms.values(), len(v.domain.phi) - 1   # phi(n); -1 in Q(s)
    bits = sum(sum(map(abs, c.num)) + sum(map(abs, c.den)) for c in cs).bit_length()
    if phi > 0:
        s = max((len(c.num) - 1 for c in cs), default=0)
    return mu, nu, s, phi if phi > 0 else MAX_EXPONENT + 1, bits


def _work(x: tuple, y: tuple) -> int:
    """The predicted work of v * w (x and y the _size of v and w) in units of
    about 0.1 us: per pair of (mu, nu) terms an overhead plus four per pair
    of coefficient words, scaled by the bits, linearly and squared."""
    pairs, words, bits = 1, 1, 0
    for mu, nu, s, most, n in (x, y):
        pairs *= (mu + 1) * (nu + 1)
        words *= min(most, s + 1)
        bits += n
    return pairs * (16 + 4 * words) * (1 + bits // 256 + (bits // 512) ** 2)


def _small(v: ParamScalar) -> bool:
    """v is one term c mu^a nu^b whose coefficient c is one power of s or q
    times a ratio of integers below 2^32: its products with such values
    cost next to nothing."""
    if len(v.terms) != 1:
        return False
    (c,) = v.terms.values()
    return (len(c.den) == 1 and sum(1 for x in c.num if x) == 1
            and max(map(abs, c.num)) < 2 ** 32 and c.den[0] < 2 ** 32)


def _bound_product(budget: list, v: ParamScalar, w: ParamScalar):
    """Refuse v * w or v / w with ValueError before it is computed if it
    may span too much (the factors' spreads added) or costs too much."""
    sv, sw = _spread(v), _spread(w)
    _bounded(v, tuple(map(sum, zip(sv, sw))), "product")
    if not (_small(v) and _small(w)):
        budget[0] -= _work(_size(v, sv), _size(w, sw))
        if budget[0] < 0:
            raise ValueError(f"scalar string needs more than {MAX_WORK} units "
                             "of work to evaluate")


def _evaluate(node, domain: Domain, budget: list) -> ParamScalar:
    """The value of a syntax tree that _checked passed; a chain a + b - c
    ... costs no recursion."""
    chain = []
    while isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        chain.append(node)
        node = node.left
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        k, sign = node.right, 1
        if isinstance(k, ast.UnaryOp) and isinstance(k.op, ast.USub):
            k, sign = k.operand, -1
        if not (isinstance(k, ast.Constant) and type(k.value) is int):
            raise ValueError("exponent must be an integer")
        if k.value > MAX_EXPONENT:
            raise ValueError(f"exponent {k.value} is above {MAX_EXPONENT}")
        v = _bounded(_NAMES[node.left.id](domain) ** (sign * k.value))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = -_evaluate(node.operand, domain, budget)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        v = ParamScalar.constant(domain.from_fraction(node.value))
    elif isinstance(node, ast.Name):
        v = _NAMES[node.id](domain)
    else:
        raise ValueError("scalar string does not follow the grammar")
    for op in reversed(chain):
        w = _evaluate(op.right, domain, budget)
        if type(op.op) in (ast.Mult, ast.Div):
            _bound_product(budget, v, w)
        v = _bounded(_OPS[type(op.op)](v, w))
    return v


def parse_param_scalar(text: str, domain: Domain) -> ParamScalar:
    """Parse the canonical grammar into a ParamScalar over `domain`."""
    try:
        tree = ast.parse(_python_source(text), mode="eval").body
        return _evaluate(_checked(tree), domain, [MAX_WORK])
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValueError(f"malformed or too deeply nested scalar string "
                         f"({exc.__class__.__name__})") from None


def parse_scalar(text: str, domain: Domain) -> Scalar:
    """Parse a parameter-free expression into a Scalar."""
    return parse_param_scalar(text, domain).as_scalar()
