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

from .matrices import ParametricMatrix, kron_entries, matmul_entries, \
    matrix_powers
from .scalars import SQRT_Q, Scalar, accumulate, laurent_by_key, q_number, \
    q_number_factorial

_R_SQUARED = SQRT_Q.q() + SQRT_Q.q().inverse()


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
        return SqrtExt(self.a * o.a + self.b * o.b * _R_SQUARED,
                       self.a * o.b + self.b * o.a)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def even_part(self) -> Scalar:
        """The element as a Q(s) scalar; fails if an odd r-power survives."""
        if not self.b.is_zero():
            raise ValueError(f"residual sqrt(q+1/q) term: {self.b}")
        return self.a


def _identity(d: int) -> dict:
    return {(k, k): SqrtExt.of(SQRT_Q.one()) for k in range(d)}


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
        ident = _identity(self.dim)
        if any(matrix_powers(m, self.dim, ident)[-1] for m in (self.e, self.f)):
            raise ValueError(f"{self.name}: e, f are not nilpotent of order dim")


def spin_half() -> WeightedRep:
    one = SqrtExt.of(SQRT_Q.one())
    return WeightedRep("spin-1/2", (1, -1), {(0, 1): one}, {(1, 0): one})


def spin_one() -> WeightedRep:
    r = SqrtExt.root()
    return WeightedRep("spin-1", (2, 0, -2),
                       {(0, 1): r, (1, 2): r},
                       {(1, 0): r, (2, 1): r})


def r_matrix_terms(rep: WeightedRep) -> dict:
    """The series terms as {n: {(row, col): Scalar}}, the mu^n blocks.

    Term n is c_n q^{(h (x) h)/2} (e^n (x) f^n) with
    c_n = q^{n(n+1)/2} (1-q^{-2})^n / [n]_q!; terms with e^n = 0 vanish.
    """
    s = SQRT_Q.s()
    q = s * s
    one = SQRT_Q.one()
    d, w = rep.dim, rep.weights
    ident = _identity(d)
    out = {}
    for n, (e_n, f_n) in enumerate(zip(matrix_powers(rep.e, d - 1, ident),
                                       matrix_powers(rep.f, d - 1, ident))):
        if not e_n:
            break
        c_n = (q ** (n * (n + 1) // 2)
               * (one - q ** -2) ** n
               / q_number_factorial(n, q))
        # the diagonal q^{(h (x) h)/2} acts on the output vector
        out[n] = {(r, c): v.even_part() * s ** (w[r // d] * w[r % d]) * c_n
                  for (r, c), v in kron_entries(e_n, f_n, d).items()}
    return out


def uqsl2_r_matrix(rep: WeightedRep, parametric: bool = True) -> ParametricMatrix:
    """The (dim^2 x dim^2) R-matrix of the module, mu-weighted if asked."""
    entries = {}
    for n, term in r_matrix_terms(rep).items():
        for k, c in term.items():
            accumulate(entries, (k, n if parametric else 0, 0), c)
    return ParametricMatrix(rep.dim ** 2, SQRT_Q, laurent_by_key(entries))
