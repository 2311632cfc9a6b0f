"""Exact scalar arithmetic for q-deformed algebra.

Every matrix entry and structure constant in this package is a Scalar:
an element of one of three exact coefficient fields,

  * ``rational``        -- plain rationals,
  * ``cyclotomic(n)``   -- Q(zeta_n), with the deformation parameter q equal
                           to the generator (a primitive n-th root of unity);
                           elements are polynomials in q reduced mod the n-th
                           cyclotomic polynomial,
  * ``sqrt_q``          -- the rational function field Q(s) where s is a
                           formal square root of q (s^2 = q); this is where
                           matrices with half-integer q-powers live.

Scalars from different domains never mix; ints and Fractions promote into
any domain.  On top of Scalar sits ParamScalar: a Laurent polynomial in the
spectral parameters mu, nu with Scalar coefficients.

Canonical string grammar (used by ``str()`` and accepted by the parsers):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ['-'] atom ['^' ['-'] integer]
    atom    := integer | 'q' | 's' | 'mu' | 'nu' | '(' expr ')'

``q`` denotes the domain's deformation parameter (s^2 in sqrt_q), ``s`` is
only legal in sqrt_q.  Division is exact; a divisor may not involve mu or
nu.  Emission is canonical: polynomials are expanded, exponents ascend,
denominators are monic, so emit -> parse -> emit is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import re


class ScalarDomainError(ArithmeticError):
    """Raised when an operation leaves its domain (zero division, bad mix)."""


def _power(base, k: int, one):
    """base**k for an integer k >= 0, by square-and-multiply."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def accumulate(terms: dict, key, value):
    """terms[key] += value for a sparse dict, dropping the key if the sum is 0."""
    old = terms.get(key)
    if old is not None:
        value = old + value
    if value.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = value


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction (ascending coefficient tuples)
# ---------------------------------------------------------------------------

def _ptrim(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pscale(a, k):
    if not k:
        return ()
    return tuple(x * k for x in a)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        a = _pscale(a, 1 / a[-1])  # monic
    return a


def _pinv_mod(a, m):
    """Inverse of a modulo m in Q[x] (m irreducible), by extended Euclid."""
    r0, r1 = m, a
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
    if len(r0) != 1:
        raise ScalarDomainError("element is not invertible modulo the cyclotomic polynomial")
    return _pscale(t0, 1 / r0[0])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficient tuple of the n-th cyclotomic polynomial Phi_n."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = _ptrim([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _pdivmod(poly, cyclotomic_polynomial(d))
            assert not r
            poly = q
    return poly


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    kind: str          # "rational" | "cyclotomic" | "sqrt_q"
    n: int = 0         # root-of-unity order for cyclotomic

    def __post_init__(self):
        if self.kind not in ("rational", "cyclotomic", "sqrt_q"):
            raise ValueError(f"unknown scalar domain {self.kind!r}")
        if self.kind == "cyclotomic" and self.n < 2:
            raise ValueError("cyclotomic domain needs n >= 2")

    # -- constants ---------------------------------------------------------
    def zero(self) -> "Scalar":
        return Scalar(self, (), (Fraction(1),))

    def one(self) -> "Scalar":
        return Scalar(self, (Fraction(1),), (Fraction(1),))

    def from_fraction(self, x) -> "Scalar":
        x = Fraction(x)
        if not x:
            return self.zero()
        return Scalar(self, (x,), (Fraction(1),))

    def q(self) -> "Scalar":
        """The deformation parameter of this domain."""
        if self.kind == "cyclotomic":
            return Scalar(self, (Fraction(0), Fraction(1)), (Fraction(1),))
        if self.kind == "sqrt_q":
            return Scalar(self, (Fraction(0), Fraction(0), Fraction(1)), (Fraction(1),))
        raise ScalarDomainError("the rational domain has no deformation parameter")

    def s(self) -> "Scalar":
        """Formal square root of q (sqrt_q domain only)."""
        if self.kind != "sqrt_q":
            raise ScalarDomainError("s only exists in the sqrt_q domain")
        return Scalar(self, (Fraction(0), Fraction(1)), (Fraction(1),))

    @property
    def generator_name(self):
        return {"rational": None, "cyclotomic": "q", "sqrt_q": "s"}[self.kind]

    def __str__(self):
        if self.kind == "cyclotomic":
            return f"cyclotomic({self.n})"
        return self.kind


RATIONAL = Domain("rational")
SQRT_Q = Domain("sqrt_q")


def cyclotomic(n: int) -> Domain:
    return Domain("cyclotomic", n)


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

class Scalar:
    """An exact field element: num/den, dense Fraction tuples in the generator.

    Normal form: rational and cyclotomic scalars have denominator (1,);
    cyclotomic numerators are reduced mod Phi_n; sqrt_q fractions are in
    lowest terms with monic denominator.
    """

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain, num, den, _reduced=True):
        self.domain = domain
        if not _reduced:
            num, den = self._reduce(domain, num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(domain, num, den):
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if domain.kind == "cyclotomic":
            phi = cyclotomic_polynomial(domain.n)
            num = _pdivmod(num, phi)[1]
            if len(den) > 1 or den[0] != 1:
                den = _pdivmod(den, phi)[1]
                num = _pmul(num, _pinv_mod(den, phi))
                num = _pdivmod(num, phi)[1]
                den = (Fraction(1),)
        elif domain.kind == "rational":
            if len(num) > 1 or len(den) > 1:
                raise ScalarDomainError("rational scalars cannot carry a generator")
            if den[0] != 1:
                num = (num[0] / den[0],) if num else ()
                den = (Fraction(1),)
        else:
            if not num:
                den = (Fraction(1),)
            else:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num = _pdivmod(num, g)[0]
                    den = _pdivmod(den, g)[0]
                lead = den[-1]
                if lead != 1:
                    num = _pscale(num, 1 / lead)
                    den = _pscale(den, 1 / lead)
        return num, den

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
        return self.num == (Fraction(1),) and self.den == (Fraction(1),)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return Scalar(self.domain, _padd(self.num, o.num), self.den,
                          _reduced=False)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return Scalar(self.domain, num, _pmul(self.den, o.den), _reduced=False)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.domain, _pneg(self.num), self.den)

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
        if not self.num or not o.num:
            return self.domain.zero()
        return Scalar(self.domain, _pmul(self.num, o.num),
                      _pmul(self.den, o.den), _reduced=False)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverting zero scalar")
        if self.domain.kind == "cyclotomic":
            inv = _pinv_mod(self.num, cyclotomic_polynomial(self.domain.n))
            return Scalar(self.domain, inv, (Fraction(1),), _reduced=False)
        return Scalar(self.domain, self.den, self.num, _reduced=False)

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
            return (other.domain == self.domain
                    and self.num == other.num and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            o = self.domain.from_fraction(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        if len(self.num) < 2 and self.den == (1,):
            # equal to an int or Fraction, so it must hash like one
            return hash(self.num[0] if self.num else 0)
        return hash((self.domain, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- misc ----------------------------------------------------------------
    def __str__(self):
        gen = self.domain.generator_name or "x"
        if self.den == (Fraction(1),):
            return _poly_str(self.num, gen)
        return f"({_poly_str(self.num, gen)})/({_poly_str(self.den, gen)})"

    def __repr__(self):
        return f"Scalar[{self.domain}]({self})"


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

    if x.den == (Fraction(1),):
        return poly(x.num)
    return f"\\frac{{{poly(x.num)}}}{{{poly(x.den)}}}"


def _latex_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else \
        f"\\tfrac{{{f.numerator}}}{{{f.denominator}}}"


# ---------------------------------------------------------------------------
# field embeddings / q-power evaluation
# ---------------------------------------------------------------------------

def lift_cyclotomic(x: Scalar, m: int) -> Scalar:
    """Embed Q(zeta_n) into Q(zeta_m) (n | m) via zeta_n -> zeta_m^(m/n)."""
    if x.domain.kind != "cyclotomic":
        raise ScalarDomainError("lift_cyclotomic expects a cyclotomic scalar")
    n = x.domain.n
    if m % n:
        raise ScalarDomainError(f"Q(zeta_{n}) does not embed in Q(zeta_{m})")
    tgt = cyclotomic(m)
    g = tgt.q() ** (m // n)
    out = tgt.zero()
    for e in range(len(x.num) - 1, -1, -1):
        out = out * g + x.num[e]
    assert x.den == (Fraction(1),)
    return out


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

    return ev(x.num) / ev(x.den)


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
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    self.terms[k] = v

    # -- constructors --------------------------------------------------------
    @staticmethod
    def constant(x: Scalar) -> "ParamScalar":
        return ParamScalar(x.domain, {(0, 0): x})

    @staticmethod
    def monomial(x: Scalar, e_mu: int = 0, e_nu: int = 0) -> "ParamScalar":
        return ParamScalar(x.domain, {(e_mu, e_nu): x})

    @staticmethod
    def mu(domain: Domain, power: int = 1) -> "ParamScalar":
        return ParamScalar(domain, {(power, 0): domain.one()})

    @staticmethod
    def nu(domain: Domain, power: int = 1) -> "ParamScalar":
        return ParamScalar(domain, {(0, power): domain.one()})

    def _coerce(self, other):
        if isinstance(other, ParamScalar):
            if other.domain != self.domain:
                raise ScalarDomainError("cannot mix parameter scalars across domains")
            return other
        if isinstance(other, Scalar):
            if other.domain != self.domain:
                raise ScalarDomainError("cannot mix scalars across domains")
            return ParamScalar.constant(other)
        if isinstance(other, (int, Fraction)):
            return ParamScalar.constant(self.domain.from_fraction(other))
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

    # -- substitutions -------------------------------------------------------------
    def remap_exponents(self, mu_to=(1, 0), nu_to=(0, 1)) -> "ParamScalar":
        """Monomial substitution mu -> mu^a nu^b, nu -> mu^c nu^d.

        mu_to=(a, b), nu_to=(c, d).  Used to place a one-parameter matrix
        into the three slots of the parametric Yang-Baxter equation:
        slot 12 keeps mu, slot 13 maps mu -> mu*nu, slot 23 maps mu -> nu.
        """
        a, b = mu_to
        c, d = nu_to
        out = {}
        for (e, f), v in self.terms.items():
            accumulate(out, (e * a + f * c, e * b + f * d), v)
        return ParamScalar(self.domain, out)

    def at_one(self) -> Scalar:
        """Evaluate at mu = nu = 1."""
        out = self.domain.zero()
        for v in self.terms.values():
            out = out + v
        return out

    def mu_component(self, power: int) -> "ParamScalar":
        """Terms whose mu-exponent equals `power` (nu untouched)."""
        return ParamScalar(self.domain,
                           {k: v for k, v in self.terms.items() if k[0] == power})

    def map_scalars(self, fn) -> "ParamScalar":
        """Apply fn to every coefficient (fn may change the scalar domain)."""
        out = {}
        domain = self.domain
        for k, v in self.terms.items():
            w = fn(v)
            domain = w.domain
            if not w.is_zero():
                out[k] = w
        return ParamScalar(domain, out)

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
    if isinstance(c, ParamScalar):
        return c
    if isinstance(c, Scalar):
        return ParamScalar.constant(c)
    return ParamScalar.constant(domain.from_fraction(c))


def proportionality_ratio(a: ParamScalar, b: ParamScalar):
    """Scalar r with a = r*b, or None if the two are not proportional."""
    if b.is_zero():
        return a.domain.zero() if a.is_zero() else None
    if a.is_zero():
        return a.domain.zero()
    k, v = next(iter(sorted(b.terms.items())))
    w = a.terms.get(k)
    if w is None:
        return None
    r = w / v
    if a == ParamScalar.constant(r) * b:
        return r
    return None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\*\*|[()+\-*/^])")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character in scalar string at {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, domain):
        self.toks = tokens
        self.i = 0
        self.domain = domain

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.toks[self.i:]!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                v = v + self.term()
            else:
                v = v - self.term()
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                v = v * self.factor()
            else:
                v = v / self.factor()
        return v

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        v = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            t = self.take()
            if t is None or not t.isdigit():
                raise ValueError("exponent must be an integer")
            v = v ** (sign * int(t))
        return v

    def atom(self):
        t = self.take()
        if t == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t is None:
            raise ValueError("unexpected end of scalar string")
        if t.isdigit():
            return ParamScalar.constant(self.domain.from_fraction(int(t)))
        if t == "q":
            return ParamScalar.constant(self.domain.q())
        if t == "s":
            return ParamScalar.constant(self.domain.s())
        if t == "mu":
            return ParamScalar.mu(self.domain)
        if t == "nu":
            return ParamScalar.nu(self.domain)
        raise ValueError(f"unknown symbol {t!r}")


def parse_param_scalar(text: str, domain: Domain) -> ParamScalar:
    """Parse the canonical grammar into a ParamScalar over `domain`."""
    try:
        return _Parser(_tokenize(text), domain).parse()
    except RecursionError:
        raise ValueError("scalar string is nested too deeply") from None


def parse_scalar(text: str, domain: Domain) -> Scalar:
    """Parse a parameter-free expression into a Scalar."""
    return parse_param_scalar(text, domain).as_scalar()
