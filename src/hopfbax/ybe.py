"""Yang-Baxter verification: one exact residual engine for every check.

All checks are symbolic and exact: a check passes iff the residual
(difference of the two triple products) is identically zero.  Failures
report the worst residual entry, where "worst" means the entry whose
Laurent expansion has the most terms (ties broken by smallest index).

residual() expands both sides over basis indices of A (x) A (x) A.  Each
placed family is one trie, nested from the third slot down (zero products
prune soonest there), with the (mu, nu) exponents in its leaf keys.  A
side is two walks, its first two factors into a trie and that times the
third, into one residual {(i2, i1, i0, e_mu, e_nu): Scalar} (the second
side negated).  Every product and sum goes through one _Memo of interned
values, made by the check and dropped with it.

A d^2 x d^2 matrix is an element of End V (x) End V = M_d (x) M_d, so the
matrix checks run the same engine in the matrix-unit algebra M_d, built
by each check (the memo's id keys need its row table to outlive them).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .algebra import Algebra, TensorElement, embed
from .matrices import ParametricMatrix
from .scalars import laurent_by_key, normal_key


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


class _Memo:
    """Scalar products and sums of one check, memoized by the ids of their
    operands: canonical values kept in `values` (one per normal_key, `zero`
    among them) or structure constants kept by the algebra's row table.
    Both outlive the memo, so no id in a key is ever reused."""

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


def _trie(terms) -> dict:
    """{(i, j, k, e_mu, e_nu): c} nested as {i: {j: {(k, e_mu, e_nu): c}}}."""
    trie = {}
    for (i, j, *leaf), c in terms.items():
        trie.setdefault(i, {}).setdefault(j, {})[tuple(leaf)] = c
    return trie


def _walk(x, y, alg, memo, out):
    """out += x y for tries of A (x) A (x) A, slot by slot: a zero basis
    product in one slot drops every pair of terms below it, and the
    exponents in the leaf keys add."""
    mul, add, zero, muls = memo.mul, memo.add, memo.zero, memo.muls
    row = alg.row
    for i0, x1 in x.items():
        for j0, y1 in y.items():
            row0 = row(i0, j0)
            if not row0:
                continue
            for i1, x2 in x1.items():
                for j1, y2 in y1.items():
                    row1 = row(i1, j1)
                    if not row1:
                        continue
                    upper = [(k0, k1, mul(c0, c1))
                             for k0, c0 in row0 for k1, c1 in row1]
                    for (i2, mx, nx), cx in x2.items():
                        for (j2, my, ny), cy in y2.items():
                            row2 = row(i2, j2)
                            if not row2:
                                continue
                            cxy, e_mu, e_nu = mul(cx, cy), mx + my, nx + ny
                            for k0, k1, c01 in upper:
                                c01 = mul(c01, cxy)
                                i01 = id(c01)
                                for k2, c2 in row2:
                                    key = (k0, k1, k2, e_mu, e_nu)
                                    v = muls.get((i01, id(c2))) or mul(c01, c2)
                                    old = out.get(key)
                                    if old is not None:
                                        v = add(old, v)
                                        if v is zero:
                                            del out[key]
                                            continue
                                    out[key] = v


def residual(alg: Algebra, placed, sides) -> dict:
    """Side 0 minus side 1 in alg^(x)3 as {(i2, i1, i0, e_mu, e_nu): Scalar}
    (i_s the basis index in slot s), for `placed` a list of (family
    {(e_mu, e_nu): two-leg TensorElement}, target slots) and each side a
    triple of positions in it: the YBE is ((0, 1, 2), (2, 1, 0))."""
    index, memo = alg.index, _Memo(alg.domain)
    tries = [_trie({
        (*(index[l] for l in reversed(key)), *e): memo.intern(c)
        for e, t in family.items()
        for key, c in embed(t, slots, (alg,) * 3).terms.items()})
        for family, slots in placed]
    out = {}
    for (x, y, z), sign in zip(sides, (1, -1)):
        xy, sign = {}, memo.intern(alg.domain.from_fraction(sign))
        _walk(tries[x], tries[y], alg, memo, xy)
        _walk(_trie({k: memo.mul(c, sign) for k, c in xy.items()}), tries[z],
              alg, memo, out)
    return out


def ybe_residual(alg: Algebra, blocks: dict, parametric: bool) -> dict:
    """residual() of the YBE for R(mu) = sum_e mu^e blocks[e]: R(mu) in
    every slot, or R12(mu) R13(mu nu) R23(nu) when parametric."""
    subs = ((1, 0), (1, 1), (0, 1)) if parametric else ((1, 0),) * 3
    placed = [({(e * a, e * b): t for e, t in blocks.items()}, slots)
              for (a, b), slots in zip(subs, ((0, 1), (0, 2), (1, 2)))]
    return residual(alg, placed, ((0, 1, 2), (2, 1, 0)))


def _matrix_report(kind, r: ParametricMatrix) -> YbeReport:
    """The check `kind` on R in M_d (x) M_d, the entry ((a, b), (c, e)) of
    each mu^e block read as E_ac (x) E_be (or, for B = P R, E_bc (x) E_ae)."""
    d = math.isqrt(r.dim)
    if d * d != r.dim:
        raise ValueError(f"matrix dimension {r.dim} is not a perfect square, "
                         "so it cannot act on V (x) V")
    one = r.domain.one()
    alg = Algebra(f"M_{d}", r.domain, [divmod(i, d) for i in range(d * d)],
                  {(k, k): one for k in range(d)},   # E_ac E_be = [c = b] E_ae
                  lambda x, y: {(x[0], y[1]): one} if x[1] == y[0] else {})
    blocks = {}
    for (row, col), v in r.entries.items():
        (a, b), (c, e) = divmod(row, d), divmod(col, d)
        if kind == "braid":
            a, b = b, a
        for (e_mu, e_nu), s in v.terms.items():
            if e_nu:
                raise ValueError("input matrix must depend on mu only")
            blocks.setdefault(e_mu, {})[(a, c), (b, e)] = s
    blocks = {e: TensorElement((alg, alg), t) for e, t in blocks.items()}
    if kind == "braid":
        b = {(e, 0): t for e, t in blocks.items()}
        res = residual(alg, [(b, (0, 1)), (b, (1, 2))], ((0, 1, 0), (1, 0, 1)))
    else:
        res = ybe_residual(alg, blocks, kind == "parametric")
    entries = {}
    for (i2, i1, i0, e_mu, e_nu), v in res.items():   # to V (x) V (x) V
        (a0, c0), (a1, c1), (a2, c2) = (alg.labels[i] for i in (i0, i1, i2))
        entries[((a0 * d + a1) * d + a2, (c0 * d + c1) * d + c2), e_mu, e_nu] = v
    m = ParametricMatrix(d ** 3, r.domain, laurent_by_key(entries))
    return YbeReport(kind=kind, dim=r.dim, passed=not res,
                     residual_terms=len(m.entries),
                     worst=worst_matrix_entry(m))


def check_constant_ybe(r: ParametricMatrix) -> YbeReport:
    """R12 R13 R23 = R23 R13 R12 on V (x) V (x) V, exact; a matrix in mu
    stands as R(mu) in every slot, not at mu = 1."""
    return _matrix_report("constant", r)


def check_parametric_ybe(r_mu: ParametricMatrix) -> YbeReport:
    """R12(mu) R13(mu nu) R23(nu) = R23(nu) R13(mu nu) R12(mu), exact, for
    R(mu) depending on mu only."""
    return _matrix_report("parametric", r_mu)


def braid_check(r: ParametricMatrix) -> YbeReport:
    """B12 B23 B12 = B23 B12 B23 for B = P R (P the flip), exact."""
    return _matrix_report("braid", r)
