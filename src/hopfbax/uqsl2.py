"""Spin-1/2 and spin-1 R-matrices of U_q[sl(2)] with mu-weights.

The quantum enveloping algebra of sl(2) carries a universal element

    R = sum_{n >= 0} [ q^{n(n+1)/2} (1-q^{-2})^n / [n]_q! ]
        q^{(h (x) h)/2} (e^n (x) f^n),

with [n]_q the balanced q-integer.  In a finite-dimensional module e is
nilpotent, the series terminates, and the term e^n (x) f^n is homogeneous
of degree n for the grading by e-power, so weighting term n with mu^n
yields a multiplicative-parameter family.

Everything is computed over Q(s) with s^2 = q.  Both modules are given
in a gauge with Q(s) entries: spin-1 takes e = [2]_q E and f = F, where E
and F have 1 on every link of the weight ladder.  The usual symmetric
choice puts sqrt([2]_q) on both, and either way e^n (x) f^n =
[2]_q^n E^n (x) F^n, so the R-matrix is the same.
"""

from __future__ import annotations

from .matrices import ParametricMatrix, kron_entries, matmul_entries, \
    matrix_powers
from .scalars import SQRT_Q, Scalar, accumulate, laurent_by_key, q_number, \
    q_number_factorial


class SqrtExt:
    """Kept for callers of ``SqrtExt.of``; module entries are Q(s) Scalars."""

    @staticmethod
    def of(a: Scalar) -> Scalar:
        return a


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
        comm = matmul_entries(self.e, self.f)
        for k, v in matmul_entries(self.f, self.e).items():
            accumulate(comm, k, -v)
        want = {(k, k): q_number(w, SQRT_Q.q())
                for k, w in enumerate(self.weights) if w != 0}
        if comm != want:
            raise ValueError(
                f"{self.name}: [e,f] != (q^h - q^-h)/(q - q^-1)")
        # [1, m, ..., m^dim]; the series terms read the first dim of them
        ident = {(k, k): SQRT_Q.one() for k in range(self.dim)}
        self.e_powers, self.f_powers = (matrix_powers(m, self.dim, ident)
                                        for m in (self.e, self.f))
        if self.e_powers[-1] or self.f_powers[-1]:
            raise ValueError(f"{self.name}: e, f are not nilpotent of order dim")


def spin_half() -> WeightedRep:
    one = SQRT_Q.one()
    return WeightedRep("spin-1/2", (1, -1), {(0, 1): one}, {(1, 0): one})


def spin_one() -> WeightedRep:
    """The ladder e = [2]_q on both links, f = 1 (see the module note)."""
    one, two = SQRT_Q.one(), q_number(2, SQRT_Q.q())
    return WeightedRep("spin-1", (2, 0, -2), {(0, 1): two, (1, 2): two},
                       {(1, 0): one, (2, 1): one})


def r_matrix_terms(rep: WeightedRep) -> dict:
    """The series terms as {n: {(row, col): Scalar}}, the mu^n blocks.

    Term n is c_n q^{(h (x) h)/2} (e^n (x) f^n) with
    c_n = q^{n(n+1)/2} (1-q^{-2})^n / [n]_q!; terms with e^n = 0 vanish.
    """
    s = SQRT_Q.s()
    q = s * s
    one = SQRT_Q.one()
    d, w = rep.dim, rep.weights
    out = {}
    for n, (e_n, f_n) in enumerate(zip(rep.e_powers[:d], rep.f_powers[:d])):
        if not e_n:
            break
        c_n = (q ** (n * (n + 1) // 2) * (one - q ** -2) ** n
               / q_number_factorial(n, q))
        # the diagonal q^{(h (x) h)/2} acts on the output vector
        out[n] = {(r, c): v * s ** (w[r // d] * w[r % d]) * c_n
                  for (r, c), v in kron_entries(e_n, f_n, d).items()}
    return out


def uqsl2_r_matrix(rep: WeightedRep, parametric: bool = True) -> ParametricMatrix:
    """The (dim^2 x dim^2) R-matrix of the module, mu-weighted if asked."""
    entries = {}
    for n, term in r_matrix_terms(rep).items():
        for k, c in term.items():
            accumulate(entries, (k, n if parametric else 0, 0), c)
    return ParametricMatrix(rep.dim ** 2, SQRT_Q, laurent_by_key(entries))
