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

Canonical string grammar (``str()`` emits it; ``parse_param_scalar`` charges
and checks the tokens, then walks the ``ast.parse`` tree, refusing all else):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ['-'] (name '^' ['-'] integer | atom)
    atom    := integer | name | '(' expr ')'
    name    := 'q' | 's' | 'mu' | 'nu'

``q`` denotes the domain's deformation parameter (s^2 in sqrt_q), ``s`` is
only legal in sqrt_q.  Only names take an exponent, and a divisor, the
right operand of ``/``, holds no binary + or -: ``(1+q)^2``, ``1/(1+mu)``
and ``1/(1+s)`` raise ValueError, ``(1+q)*(1+q)`` and ``1/(2*s)`` parse.
So every divisor is a monomial c*q^a*s^b*mu^c*nu^d, read as its reciprocal:
the parser only adds and multiplies, takes no inverse and runs no Euclid,
and every parsed Q(s) value is a Laurent polynomial in s.  A sum takes time
linear in its terms, and a string is refused once it passes its work
budget, MAX_WORK.  Emission is canonical: polynomials are expanded,
exponents ascend, denominators are monic, so emit -> parse -> emit is the
identity on Laurent values: every value the parser returns and every matrix
entry the package writes.  The inverse of 1 + s prints as (1)/(1 + s), which
does not parse.  One printer spells a Scalar, and one a sum of named terms
(a ParamScalar, an algebra element), as text (str) and as LaTeX.
"""

from __future__ import annotations

import ast
from collections import namedtuple
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
    return tuple(c[:n]) if n < len(c) else tuple(c)


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

class Domain:
    """kind is "rational" | "cyclotomic" | "sqrt_q", n the root-of-unity
    order of cyclotomic (0 otherwise) and phi the monic modulus of rational
    (Phi_1) and cyclotomic (Phi_n) values, () in sqrt_q."""
    __slots__ = ("kind", "n", "phi")

    def __init__(self, kind: str, n: int = 0):
        if kind not in ("rational", "cyclotomic", "sqrt_q"):
            raise ValueError(f"unknown scalar domain {kind!r}")
        if kind == "cyclotomic" and n < 2:
            raise ValueError("cyclotomic domain needs n >= 2")
        self.kind, self.n = kind, n
        self.phi = () if kind == "sqrt_q" else cyclotomic_polynomial(max(n, 1))

    def __eq__(self, other):
        return (other.__class__ is Domain and self.kind == other.kind
                and self.n == other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"Domain(kind={self.kind!r}, n={self.n!r})"

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


def _normal(domain, num, den, shift=0, g=0) -> "Scalar":
    """s^shift * num/den in normal form.  num and den are int sequences, num
    a list if it needs reducing; den is a nonzero constant outside sqrt_q,
    with a nonzero constant term in sqrt_q; g is as for _primitive."""
    phi = domain.phi
    num = _rem(num, phi) if phi and len(num) >= len(phi) else _trim(num)
    if not num:
        return domain.zero()
    if not phi:
        i = 0
        while not num[i]:
            i += 1
        (num, den), shift = _cancel(num[i:], den), shift + i
    return _primitive(domain, num, den, shift, g)


def _cancel(num, den):
    """num / g and den / g for g the gcd of two Q(s) polynomials."""
    if len(num) > 1 and len(den) > 1:
        g = _euclid(num, den)[0]
        if len(g) > 1:
            c = gcd(*g)
            g = tuple(x // c for x in g)
            return _divexact(num, g), _divexact(den, g)
    return num, den


def _primitive(domain, num, den, shift, g=0) -> "Scalar":
    """s^shift * num/den for coprime nonzero num and den, in normal form: the
    integer content of num and den divided out and lead(den) > 0.  g is 0
    or a multiple of that content; den, most often small, comes first."""
    g = 1 if len(den) == 1 == den[0] else gcd(g, *den, *num)
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
        pa, pb = self.shift - k, other.shift - k   # the zeros below a, b
        da, db, g = self.den, other.den, 0
        if da != db and len(da) == len(db) == 1:
            # a/b + c/d = (a d/g + c b/g) / (b d/g) for g = gcd(b, d), whose
            # content divides g (Henrici): no gcd of two big numbers runs
            g = gcd(da[0], db[0])
            x, y = db[0] // g, da[0] // g
            a, b, da = [c * x for c in a], [c * y for c in b], (y * db[0],)
        elif da != db:
            a, b, da = _mul(a, db), _mul(b, da), _mul(da, db)
        if len(a) < len(b):   # loop over the shorter, copy the longer
            a, b, pa, pb = b, a, pb, pa
        num = [0] * pa + list(a) if pa else list(a)
        if pb + len(b) > len(num):
            num += [0] * (pb + len(b) - len(num))
        for i, c in enumerate(b, pb):
            num[i] += c
        return _normal(dom, num, da, k, g)

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
        if dom.kind == "sqrt_q" or len(num) == 1:   # no Euclid: swap
            num, den = self.den, num
            if den[-1] < 0:
                num, den = tuple(-c for c in num), tuple(-c for c in den)
            return Scalar(dom, num, den, -self.shift)
        k = len(num) - 1
        if not any(num[:k]):   # c q^k with q^n = 1 inverts to q^(n-k) / c
            return _normal(dom, [0] * (dom.n - k) + [self.den[0]], (num[k],))
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
        return _printed(self, _TEXT)

    def __repr__(self):
        return f"Scalar[{self.domain}]({self})"


def _dense(x: Scalar):
    """(numerator, denominator) int tuples in the generator, s^k spelt out."""
    k = x.shift
    return (0,) * max(k, 0) + x.num, (0,) * max(-k, 0) + x.den


def _printed(x: Scalar, notation) -> str:
    """x in a notation: its numerator, and its denominator if that is not 1,
    with Fraction coefficients over a monic denominator."""
    num, den = _dense(x)
    lead, gen = den[-1], x.domain.generator_name
    num = _poly(tuple(Fraction(c, lead) for c in num), gen, notation)
    if len(den) == 1:
        return num
    return notation.quotient.format(
        num, _poly(tuple(Fraction(c, lead) for c in den), gen, notation))


def _poly(p, gen, notation) -> str:
    """The nonzero terms of p in ascending powers of gen."""
    coeff, power, times, gap = notation[:4]
    parts = []
    for e, c in enumerate(p):
        if c:
            mag = abs(c)
            body = coeff(mag) if e == 0 else power(gen, e) if mag == 1 \
                else coeff(mag) + times + power(gen, e)
            parts.append(("-" if c < 0 else "") + body if not parts
                         else ("+" if c > 0 else "-") + gap + body)
    return " ".join(parts) or "0"


def _text_power(gen: str, e: int) -> str:
    return gen if e == 1 else f"{gen}^{e}"


def _latex_power(gen: str, e: int) -> str:
    """gen^e, with s^e spelt as a power of q."""
    if gen != "s":
        return gen if e == 1 else f"{gen}^{{{e}}}"
    return "q" if e == 2 else "q^{1/2}" if e == 1 else \
        f"q^{{{e}/2}}" if e % 2 else f"q^{{{e // 2}}}"


def _latex_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else \
        f"\\tfrac{{{f.numerator}}}{{{f.denominator}}}"


# a notation: how it spells a coefficient and a power of the generator, its
# product sign, the space after the sign of a later term, its quotient form;
# for sums of named terms, the names of mu and nu, the sign between them, the
# characters that bracket a coefficient when they follow its first, the
# bracket, and what precedes a later term, and a later term led by "-"
_Notation = namedtuple("_Notation", "coeff power times gap quotient params "
                       "joint breaks bracket plus minus")
_TEXT = _Notation(str, _text_power, "*", " ", "({})/({})", ("mu", "nu"), "*",
                  " ", "({})*", " + ", " + ")
_LATEX = _Notation(_latex_frac, _latex_power, " ", "", "\\frac{{{}}}{{{}}}",
                   ("\\mu", "\\nu"), "", "+-", "\\left({}\\right)", " +", " ")


def sum_str(terms, notation=_TEXT) -> str:
    """A sum of (name, Scalar) terms in a notation: the coefficient alone
    where the name is empty, the name alone where the coefficient is 1,
    else the two joined; "0" for no terms."""
    parts = []
    for name, c in terms:
        cs = _printed(c, notation)
        if name:
            cs = name if c.is_one() else notation.bracket.format(cs) + name \
                if any(b in cs[1:] for b in notation.breaks) \
                else cs + notation.times + name
        parts.append(cs)
    return parts[0] + "".join((notation.minus if p[0] == "-" else notation.plus)
                              + p for p in parts[1:]) if parts else "0"


def _param_str(v, n) -> str:
    """A ParamScalar in notation n, its mu,nu monomials in ascending order."""
    return sum_str(((n.joint.join(n.power(g, e) for g, e in zip(n.params, k)
                                  if e), c) for k, c in sorted(v.terms.items())), n)


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
        return _param_str(self, _TEXT)

    def __repr__(self):
        return f"ParamScalar[{self.domain}]({self})"


def laurent_by_key(terms: dict) -> dict:
    """{(key, e_mu, e_nu): nonzero Scalar} as {key: ParamScalar}."""
    out = {}
    for (key, e_mu, e_nu), c in terms.items():
        out.setdefault(key, ParamScalar(c.domain)).terms[(e_mu, e_nu)] = c
    return out


def latex_str(v: ParamScalar) -> str:
    """LaTeX form of a ParamScalar."""
    return _param_str(v, _LATEX)


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

# largest |k| accepted in name^k.  Every computed value (each power, each
# product and each whole sum) may span at most MAX_EXPONENT + 1
# terms and print no exponent above MAX_EXPONENT, so every str() parses.
MAX_EXPONENT = 1000

# the work one parse may take, in units of about 0.1 us: about 0.4 s.  A
# token costs TOKEN, a product v * w PAIR per pair of terms plus words(v)
# words(w), the schoolbook cost (von zur Gathen & Gerhard, ch. 8), a quotient
# as the product with its divisor's reciprocal, and a sum of coefficients
# a, b over two denominators words(a) words(b).
MAX_WORK = 3_500_000
TOKEN, PAIR = 200, 40

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\*\*|[()+\-*/^])")

# name^k; q^n = 1 in cyclotomic(n), so no power of a name runs Euclid
_NAMES = {"q": lambda d, k: ParamScalar.constant(
              d.q() ** (k % d.n if d.kind == "cyclotomic" else k)),
          "s": lambda d, k: ParamScalar.constant(d.s() ** k),
          "mu": ParamScalar.mu, "nu": ParamScalar.nu}

# the sign a sum or a sign gives its (right) operand
_SUMS = {ast.Add: 1, ast.Sub: -1, ast.USub: -1}


def _python_source(text: str, budget: list) -> str:
    """text respelt as Python (^ as **, digit runs as ASCII ints), each token
    charged and checked against the grammar; exponents must be int literals."""
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character in scalar string at {text[pos:]!r}")
        tok, pos = m.group(1), m.end()
        _charge(budget, _token_units(tok))
        if tok.isdigit():
            tok = str(int(tok))
        elif tok.isalpha() and tok not in _NAMES:
            raise ValueError(f"unknown symbol {tok!r}")
        out.append("**" if tok == "^" else tok)
    source = " ".join(out)
    if re.search(r"\*\*(?! (- )?\d)", source):
        raise ValueError("exponent must be an integer")
    return source


def _token_units(tok: str) -> int:
    """TOKEN, and w * w more for a digit run of w 64-bit words, which the
    interpreter reads and prints in quadratic time."""
    return TOKEN + (len(tok) // 19 + 1) ** 2 if tok.isdigit() else TOKEN


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


def _bounded(v: ParamScalar) -> ParamScalar:
    """v if it spans at most MAX_EXPONENT + 1 terms (the product of its
    spreads in mu, in nu and, in sqrt_q, in s, each plus one) and str(v)
    prints no exponent above MAX_EXPONENT; ValueError otherwise."""
    terms, reach = 1, 0
    for i in (0, 1):
        exps = [key[i] for key in v.terms] or [0]
        terms *= max(exps) - min(exps) + 1
        reach = max(reach, *map(abs, exps))
    if v.domain.kind == "sqrt_q":   # str() spells s^shift out
        spread = 0
        for c in v.terms.values():
            spread = max(spread, len(c.num) + len(c.den) - 2)
            reach = max(reach, max(c.shift, 0) + len(c.num) - 1,
                        max(-c.shift, 0) + len(c.den) - 1)
        terms *= spread + 1
    if terms > MAX_EXPONENT + 1 or reach > MAX_EXPONENT:
        raise ValueError(f"value spans more than {MAX_EXPONENT + 1} terms "
                         f"or prints an exponent above {MAX_EXPONENT}")
    return v


def _words(cs) -> int:
    """The 64-bit words of all the integers of the Scalars cs."""
    ints = [x for c in cs for x in (*c.num, *c.den)]
    return len(ints) + sum(x.bit_length() for x in ints) // 64


def _charge(budget: list, units: int):
    """Take units from the budget of one parse; ValueError once it is spent."""
    budget[0] -= units
    if budget[0] < 0:
        raise ValueError(f"scalar string needs more than {MAX_WORK} units "
                         "of work to evaluate")


def _charge_product(budget: list, v: ParamScalar, w: ParamScalar):
    """Charge v * w before it is computed."""
    _charge(budget, PAIR * len(v.terms) * len(w.terms)
            + _words(v.terms.values()) * _words(w.terms.values()))


def _evaluate(node, domain: Domain, budget: list,
              inverted: bool = False) -> ParamScalar:
    """The value of a syntax tree that _checked passed, or if inverted (a
    divisor, a monomial) the product of its leaves' reciprocals, a / in it
    flipping back.  Every +, - and sign below a sum is read into one dict,
    however it is nested, and a chain a * b / c ... costs no recursion."""
    if type(getattr(node, "op", None)) in _SUMS:
        terms, todo = {}, [(node, 1)]
        while todo:
            node, sign = todo.pop()
            op = type(getattr(node, "op", None))
            if op is ast.USub:
                todo.append((node.operand, -sign))
            elif op in _SUMS:
                todo += [(node.right, sign * _SUMS[op]), (node.left, sign)]
            else:
                for key, c in _evaluate(node, domain, budget,
                                        inverted).terms.items():
                    old = terms.get(key)
                    if old is not None and old.den != c.den:
                        _charge(budget, _words((old,)) * _words((c,)))
                    accumulate(terms, key, c if sign > 0 else -c)
        return _bounded(ParamScalar(domain, terms))
    chain, sign = [], -1 if inverted else 1
    while isinstance(node, ast.BinOp) and type(node.op) in (ast.Mult, ast.Div):
        chain.append(node)
        node = node.left
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        e = node.right
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            e, sign = e.operand, -sign
        if not (isinstance(e, ast.Constant) and type(e.value) is int):
            raise ValueError("exponent must be an integer")
        if e.value > MAX_EXPONENT:
            raise ValueError(f"exponent {e.value} is above {MAX_EXPONENT}")
        v = _bounded(_NAMES[node.left.id](domain, sign * e.value))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        v = ParamScalar.constant(domain.from_fraction(   # 0 stays 0, see below
            Fraction(1, node.value) if inverted and node.value else node.value))
    elif isinstance(node, ast.Name):
        v = _NAMES[node.id](domain, sign)
    elif chain and type(getattr(node, "op", None)) in _SUMS:
        v = _evaluate(node, domain, budget, inverted)
    else:
        raise ValueError("scalar string does not follow the grammar")
    for op in reversed(chain):
        quotient = isinstance(op.op, ast.Div)
        w = _evaluate(op.right, domain, budget, inverted != quotient)
        if quotient and not w.terms:   # a 0 anywhere in the divisor
            raise ScalarDomainError("division by zero")
        _charge_product(budget, v, w)
        v = _bounded(v * w)
    return v


def parse_param_scalar(text: str, domain: Domain) -> ParamScalar:
    """Parse the canonical grammar into a ParamScalar over `domain`."""
    budget = [MAX_WORK]
    try:
        tree = ast.parse(_python_source(text, budget), mode="eval").body
        return _evaluate(_checked(tree), domain, budget)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValueError(f"malformed or too deeply nested scalar string "
                         f"({exc.__class__.__name__})") from None


def parse_scalar(text: str, domain: Domain) -> Scalar:
    """Parse a parameter-free expression into a Scalar."""
    return parse_param_scalar(text, domain).as_scalar()
