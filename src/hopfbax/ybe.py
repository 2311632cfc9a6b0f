"""Yang-Baxter verification for matrices, with exact residual reporting.

All checks are symbolic and exact: a check passes iff the residual
(difference of the two triple products) is identically zero.  Failures
report the worst residual entry, where "worst" means the entry whose
Laurent expansion has the most terms (ties broken by smallest index).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .matrices import ParametricMatrix, embed_two_site, flip_operator


@dataclass
class YbeReport:
    kind: str            # constant | parametric | braid | *-algebraic
    dim: int
    passed: bool
    residual_terms: int = 0
    worst: str | None = None

    def summary(self) -> str:
        if self.passed:
            return f"PASS  {self.kind} Yang-Baxter check (dim {self.dim})"
        return (f"FAIL  {self.kind} Yang-Baxter check (dim {self.dim}): "
                f"{self.residual_terms} residual terms, worst {self.worst}")

    to_dict = asdict


def _local_dim(matrix_dim: int) -> int:
    d = math.isqrt(matrix_dim)
    if d * d != matrix_dim:
        raise ValueError(
            f"matrix dimension {matrix_dim} is not a perfect square, "
            "so it cannot act on V (x) V")
    return d


def worst_matrix_entry(residual: ParametricMatrix):
    if residual.is_zero():
        return None
    key = max(sorted(residual.entries),
              key=lambda k: (len(residual.entries[k].terms),
                             (-k[0], -k[1])))
    r, c = key
    return f"({r + 1},{c + 1}): {residual.entries[key]}"


def worst_tensor_term(residual: dict, label_str):
    """The entry of {label key: ParamScalar} with the most Laurent terms."""
    if not residual:
        return None
    key = max(sorted(residual, key=repr),
              key=lambda k: len(residual[k].terms))
    name = " (x) ".join(label_str(l) for l in key)
    return f"[{name}]: {residual[key]}"


def _report(kind, residual, matrix_dim) -> YbeReport:
    return YbeReport(kind=kind, dim=matrix_dim, passed=residual.is_zero(),
                     residual_terms=len(residual.entries),
                     worst=worst_matrix_entry(residual))


def _three_slot(kind, r12, r13, r23) -> YbeReport:
    """Place two-site matrices on legs 12, 13, 23 of V (x) V (x) V and
    report the residual R12 R13 R23 - R23 R13 R12."""
    d = _local_dim(r12.dim)
    r12 = embed_two_site(r12, d, (0, 1))
    r13 = embed_two_site(r13, d, (0, 2))
    r23 = embed_two_site(r23, d, (1, 2))
    residual = (r12 @ r13 @ r23) - (r23 @ r13 @ r12)
    return _report(kind, residual, d * d)


def check_constant_ybe(r: ParametricMatrix) -> YbeReport:
    """R12 R13 R23 = R23 R13 R12 on V (x) V (x) V, exact."""
    return _three_slot("constant", r, r, r)


def check_parametric_ybe(r_mu: ParametricMatrix) -> YbeReport:
    """R12(mu) R13(mu nu) R23(nu) = R23(nu) R13(mu nu) R12(mu), exact.

    The input is a one-parameter family in mu; the two-parameter equation
    is formed by monomial substitution (mu -> mu nu in slot 13,
    mu -> nu in slot 23).
    """
    if any(e_nu for v in r_mu.entries.values() for (_, e_nu) in v.terms):
        raise ValueError("input matrix must depend on mu only")
    return _three_slot("parametric", r_mu,
                       r_mu.remap_exponents(mu_to=(1, 1)),
                       r_mu.remap_exponents(mu_to=(0, 1)))


def braid_check(r: ParametricMatrix) -> YbeReport:
    """B12 B23 B12 = B23 B12 B23 for B = P R (P the flip), exact."""
    d = _local_dim(r.dim)
    b = flip_operator(d, r.domain) @ r
    b12 = embed_two_site(b, d, (0, 1))
    b23 = embed_two_site(b, d, (1, 2))
    residual = (b12 @ b23 @ b12) - (b23 @ b12 @ b23)
    return _report("braid", residual, r.dim)
