"""Yang-Baxter verification: one exact residual engine for every check.

All checks are symbolic and exact: a check passes iff the residual
(difference of the two triple products) is identically zero.  Failures
report the worst residual entry: the one whose Laurent expansion has the
most terms, ties to the smallest (row, col) or label-triple repr.

residual() expands both sides over basis indices of A (x) A (x) A.  Each
placed family {(e_mu, e_nu): {(i, j): Scalar}}, with the unit of A in its
free slot, is one trie nested from the third slot down (zero products
prune soonest there), with the (mu, nu) exponents in its leaf keys.  A
side is two walks, its first two factors into a trie and that times the
third, into one residual {(i2, i1, i0, e_mu, e_nu): Scalar} (the second
side negated).  Every product and sum goes through one scalars.Memo of
interned values, made by the check and dropped with it.

A d^2 x d^2 matrix is an element of End V (x) End V = M_d (x) M_d, so the
matrix checks run the same engine in the matrix-unit algebra M_d (E_ac
is basis index a d + c), built by each check (the memo's id keys need
its row table to outlive them).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import Algebra
from .matrices import ParametricMatrix
from .scalars import Memo, laurent_by_key


class YbeReport(namedtuple("YbeReport", "kind dim passed residual_terms worst",
                           defaults=(0, None))):
    __slots__ = ()   # kind is constant | parametric | braid | *-algebraic

    def summary(self) -> str:
        if self.passed:
            return f"PASS  {self.kind} Yang-Baxter check (dim {self.dim})"
        return (f"FAIL  {self.kind} Yang-Baxter check (dim {self.dim}): "
                f"{self.residual_terms} residual terms, worst {self.worst}")

    def to_dict(self):
        return self._asdict()


def cell(key) -> str:
    """A 0-based (row, col) key as the 1-based "(row,col)"."""
    r, c = key
    return f"({r + 1},{c + 1})"


def residual_report(kind, dim, terms: dict, label, order=None) -> YbeReport:
    """The YbeReport of a residual {(key, e_mu, e_nu): nonzero Scalar}, the
    one maker of YbeReports: one residual term per key, and the worst key
    the one whose Laurent polynomial has the most terms, the first by
    `order` (a sort key; the keys' own order if None) on a tie, printed as
    label(key)."""
    by_key = laurent_by_key(terms)
    worst = None
    if by_key:
        key = max(sorted(by_key, key=order), key=lambda k: len(by_key[k].terms))
        worst = f"{label(key)}: {by_key[key]}"
    return YbeReport(kind=kind, dim=dim, passed=not by_key,
                     residual_terms=len(by_key), worst=worst)


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
    {(e_mu, e_nu): {(i, j): nonzero Scalar}}, target slots; the unit in the
    third) and each side a triple of positions in it: the YBE is
    ((0, 1, 2), (2, 1, 0))."""
    memo = Memo(alg.domain)
    units = [(alg.index[l], memo.intern(c)) for l, c in alg._unit_terms.items()]
    tries = []
    for family, (s, t) in placed:
        terms = {}
        for e, block in family.items():
            for (i, j), c in block.items():
                c = memo.intern(c)
                for u, cu in units:
                    key = [u, u, u]
                    key[s], key[t] = i, j
                    terms[(*reversed(key), *e)] = memo.mul(c, cu)
        tries.append(_trie(terms))
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
    for e_mu, block in r.blocks().items():
        out = blocks[e_mu] = {}
        for (row, col), s in block.items():
            (a, b), (c, e) = divmod(row, d), divmod(col, d)
            if kind == "braid":
                a, b = b, a
            out[a * d + c, b * d + e] = s
    if kind == "braid":
        b = {(e, 0): t for e, t in blocks.items()}
        res = residual(alg, [(b, (0, 1)), (b, (1, 2))], ((0, 1, 0), (1, 0, 1)))
    else:
        res = ybe_residual(alg, blocks, kind == "parametric")
    entries = {}
    for (i2, i1, i0, e_mu, e_nu), v in res.items():   # to V (x) V (x) V
        (a0, c0), (a1, c1), (a2, c2) = (divmod(i, d) for i in (i0, i1, i2))
        entries[((a0 * d + a1) * d + a2, (c0 * d + c1) * d + c2), e_mu, e_nu] = v
    return residual_report(kind, r.dim, entries, cell)


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
