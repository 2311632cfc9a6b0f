"""Spin-1/2 and spin-1 R-matrices of U_q[sl(2)] with mu-weights.

The quantum enveloping algebra of sl(2) carries a universal element

    R = sum_{n >= 0} [ q^{n(n+1)/2} (1-q^{-2})^n / [n]_q! ]
        q^{(h (x) h)/2} (e^n (x) f^n),

with [n]_q the balanced q-integer.  In a finite-dimensional module e is
nilpotent, the series terminates, and the term e^n (x) f^n is homogeneous
of degree n for the grading by e-power, so weighting term n with mu^n
yields a multiplicative-parameter family.

Everything is computed over Q(s) with s^2 = q.  The spin-1 module needs
sqrt(q + q^{-1}) on e and f; that lives in the quadratic extension
SqrtExt and provably cancels (entries of e^n (x) f^n carry r^{2n}), which
the builder asserts before emitting plain Q(s) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import ParametricMatrix, matmul_entries
from .scalars import SQRT_Q, ParamScalar, Scalar, accumulate, q_number, \
    q_number_factorial


def _r_squared() -> Scalar:
    q = SQRT_Q.q()
    return q + q.inverse()


@dataclass(frozen=True)
class SqrtExt:
    """a + b r with r^2 = q + q^{-1}, coefficients in Q(s)."""
    a: Scalar
    b: Scalar

    @staticmethod
    def of(a: Scalar) -> "SqrtExt":
        return SqrtExt(a, SQRT_Q.zero())

    @staticmethod
    def root() -> "SqrtExt":
        return SqrtExt(SQRT_Q.zero(), SQRT_Q.one())

    def __add__(self, o: "SqrtExt") -> "SqrtExt":
        return SqrtExt(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "SqrtExt") -> "SqrtExt":
        return SqrtExt(self.a - o.a, self.b - o.b)

    def __neg__(self) -> "SqrtExt":
        return SqrtExt(-self.a, -self.b)

    def __mul__(self, o: "SqrtExt") -> "SqrtExt":
        rr = _r_squared()
        return SqrtExt(self.a * o.a + self.b * o.b * rr,
                       self.a * o.b + self.b * o.a)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def even_part(self) -> Scalar:
        """The element as a Q(s) scalar; fails if an odd r-power survives."""
        if not self.b.is_zero():
            raise ValueError(f"residual sqrt(q+1/q) term: {self.b}")
        return self.a


class WeightedRep:
    """A finite module given by nilpotent e, f and integer h-weights."""

    def __init__(self, name: str, weights, e_entries: dict, f_entries: dict):
        self.name = name
        self.dim = len(weights)
        self.weights = tuple(weights)
        self.e = dict(e_entries)
        self.f = dict(f_entries)
        self._validate()

    def _validate(self):
        for (r, c) in self.e:
            if self.weights[r] - self.weights[c] != 2:
                raise ValueError(f"{self.name}: [h,e] = 2e fails at {(r, c)}")
        for (r, c) in self.f:
            if self.weights[r] - self.weights[c] != -2:
                raise ValueError(f"{self.name}: [h,f] = -2f fails at {(r, c)}")
        q = SQRT_Q.q()
        comm = matmul_entries(self.e, self.f)
        for k, v in matmul_entries(self.f, self.e).items():
            accumulate(comm, k, -v)
        want = {(k, k): SqrtExt.of(q_number(w, q))
                for k, w in enumerate(self.weights) if w != 0}
        if comm != want:
            raise ValueError(
                f"{self.name}: [e,f] != (q^h - q^-h)/(q - q^-1)")
        if self.power(self.e, self.dim) or self.power(self.f, self.dim):
            raise ValueError(f"{self.name}: e, f are not nilpotent of order dim")

    @staticmethod
    def power(m: dict, n: int) -> dict:
        out = None
        for _ in range(n):
            out = dict(m) if out is None else matmul_entries(out, m)
        return {} if out is None else out


def spin_half() -> WeightedRep:
    one = SqrtExt.of(SQRT_Q.one())
    return WeightedRep("spin-1/2", (1, -1), {(0, 1): one}, {(1, 0): one})


def spin_one() -> WeightedRep:
    r = SqrtExt.root()
    return WeightedRep("spin-1", (2, 0, -2),
                       {(0, 1): r, (1, 2): r},
                       {(1, 0): r, (2, 1): r})


def r_matrix_terms(rep: WeightedRep) -> dict:
    """Constant matrices {n: image of the degree-n series term}.

    Term n is c_n q^{(h (x) h)/2} (e^n (x) f^n) with
    c_n = q^{n(n+1)/2} (1-q^{-2})^n / [n]_q!; terms with e^n = 0 vanish.
    """
    s = SQRT_Q.s()
    q = s * s
    one = SQRT_Q.one()
    out = {}
    e_pow = {(k, k): SqrtExt.of(one) for k in range(rep.dim)}
    f_pow = dict(e_pow)
    for n in range(rep.dim):
        if n:
            e_pow = matmul_entries(e_pow, rep.e)
            f_pow = matmul_entries(f_pow, rep.f)
            if not e_pow:
                break
        c_n = (q ** (n * (n + 1) // 2)
               * (one - q ** -2) ** n
               / q_number_factorial(n, q))
        term = ParametricMatrix(rep.dim ** 2, SQRT_Q)
        for (r1, c1), ve in e_pow.items():
            for (r2, c2), vf in f_pow.items():
                v = (ve * vf).even_part()
                # the diagonal q^{(h (x) h)/2} acts on the output vector
                v = v * s ** (rep.weights[r1] * rep.weights[r2]) * c_n
                term.set(rep.dim * r1 + r2, rep.dim * c1 + c2, v)
        out[n] = term
    return out


def uqsl2_r_matrix(rep: WeightedRep, parametric: bool = True) -> ParametricMatrix:
    """The (dim^2 x dim^2) R-matrix of the module, mu-weighted if asked."""
    out = ParametricMatrix(rep.dim ** 2, SQRT_Q)
    for n, term in r_matrix_terms(rep).items():
        if parametric and n:
            term = term.scaled(ParamScalar.monomial(SQRT_Q.one(), n, 0))
        out = out + term
    return out
