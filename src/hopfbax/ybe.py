"""Yang-Baxter verification: one exact residual engine for every check.

All checks are symbolic and exact: a check passes iff the residual
(difference of the two triple products) is identically zero.  Failures
report the worst residual entry: the one whose Laurent expansion has the
most terms, ties to the smallest (row, col) or label-triple repr.

residual() expands both sides over basis indices of A (x) A (x) A.  Each
placed family {(e_mu, e_nu): {(i, j): Scalar}}, with the unit of A in its
free slot, is one trie nested from the third slot down (zero products
prune soonest there), with the (mu, nu) exponents in its leaf keys, and
a copy of it whose every level maps a right class r to the keys that a
key of class r may meet: by A.sides, those of left class r and those of
left class None, which meet every class.  A side is two walks, into one
sum keyed (i2, i1, i0, e_mu, e_nu) as the tries nest, and says which pair
of its factors is multiplied first: ((x, y), z) walks x times y into a
trie and that times z; (x, (y, z)) walks y times z, turns that sum into a
trie and its _meets() copy, and walks x times it.  Both brackets give the
same element when A is associative, so for an associative A either
bracket walks the YBE's side.  A walk pairs a key i only with the keys
the copy holds for right[i] (every key, if right[i] is None), as A.sides
promises that no other basis product is nonzero, and it takes no product
by the memo's 1, which is A's shared structure constant 1, so a
structure constant 1 costs no lookup.  Every product and sum goes
through one scalars.Memo of interned values, made by the check and
dropped with it, whose tables the walk reads inline.  The two sums are
compared, not cancelled: the residual is empty when they are equal, and
otherwise side 0 minus side 1 at the keys where they differ, re-keyed in
slot order (i0, i1, i2, e_mu, e_nu).

A d^2 x d^2 matrix is an element of End V (x) End V = M_d (x) M_d, so the
matrix checks run the same engine in the matrix-unit algebra M_d (E_ac
is basis index a d + c, of left a and right c, and every structure
constant is 1), built by each check (the memo's id keys need its row
table to outlive them); M_d is associative, and its checks walk (x y) z
on both sides: there the bracket changes no count, and x (y z) would pay
for one more _meets().  The algebraic checks of the double D(T_N) walk
in the counit basis of H*, which declares sides too (the class rule and
its proof are in double.DoubleAlgebra; the pairs (g, eps) are of class
None), so they skip the cells of its row table that the rule proves
empty.  They walk R12 (R13 R23) and (R23 R13) R12: R13 R23 and R23 R13
have their third slot a product in H*, so their sums collapse, where
R12 R13 = sum e_i e_j (x) e^i (x) e^j has distinct keys that the product
by R23 would mostly cancel.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import Algebra
from .matrices import ParametricMatrix
from .scalars import Memo, laurent_by_key, normal_key


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
    """{(i, j, k, e_mu, e_nu): c} nested as {i: {j: {(k, e_mu, e_nu): c}}},
    in one pass: a node is made when the first key below it arrives."""
    trie, leaves = {}, {}
    for (i, j, k, *e), c in terms.items():
        leaf = leaves.get((i, j))
        if leaf is None:
            leaf = leaves[i, j] = trie.setdefault(i, {})[j] = {}
        leaf[k, *e] = c
    return trie


def _meets(level, left, classes, depth=0) -> dict:
    """A trie level, its children converted alike, as {r: the (key, child)
    pairs that a key of right class r may meet}: those of left class r,
    and those of left class None, filed in a group of their own that
    meets every r in `classes`; r = None meets every pair."""
    items = [(key, _meets(child, left, classes, depth + 1) if depth < 2
              else child) for key, child in level.items()]
    groups = {}
    for item in items:
        key = item[0]
        groups.setdefault(left[key[0] if depth == 2 else key], []).append(item)
    free = groups.pop(None, ())
    meets = ({r: (*groups.get(r, ()), *free) for r in classes} if free else
             {r: tuple(group) for r, group in groups.items()})
    meets[None] = tuple(items)
    return meets


def _walk(x, y, alg, memo, one, out):
    """out += x y for a trie x of A (x) A (x) A and y in _meets() form,
    slot by slot: a key i of x meets only the pairs y holds for right[i],
    a zero basis product in one slot drops every pair of terms below it,
    a product by `one` is not taken, and the exponents in the leaf keys
    add.  Cells are read from A's row table and products and sums from
    the memo's tables, so row(), memo.mul and memo.add run only on a
    miss."""
    mul, add, zero, muls, adds = (memo.mul, memo.add, memo.zero, memo.muls,
                                  memo.adds)
    rows, row, right = alg._rows, alg.row, alg.sides[1]
    for i0, x1 in x.items():
        cells0 = rows[i0]
        for j0, y1 in y.get(right[i0], ()):
            row0 = cells0.get(j0)
            if row0 is None:
                row0 = row(i0, j0)
            if not row0:
                continue
            for i1, x2 in x1.items():
                cells1 = rows[i1]
                for j1, y2 in y1.get(right[i1], ()):
                    row1 = cells1.get(j1)
                    if row1 is None:
                        row1 = row(i1, j1)
                    if not row1:
                        continue
                    upper = [(k0, k1, c1 if c0 is one else c0 if c1 is one
                              else muls.get((id(c0), id(c1))) or mul(c0, c1))
                             for k0, c0 in row0 for k1, c1 in row1]
                    for (i2, mx, nx), cx in x2.items():
                        cells2 = rows[i2]
                        for (j2, my, ny), cy in y2.get(right[i2], ()):
                            row2 = cells2.get(j2)
                            if row2 is None:
                                row2 = row(i2, j2)
                            if not row2:
                                continue
                            cxy = (cy if cx is one else cx if cy is one else
                                   muls.get((id(cx), id(cy))) or mul(cx, cy))
                            e_mu, e_nu = mx + my, nx + ny
                            for k0, k1, c01 in upper:
                                if c01 is one:
                                    c01 = cxy
                                elif cxy is not one:
                                    c01 = (muls.get((id(c01), id(cxy)))
                                           or mul(c01, cxy))
                                for k2, c2 in row2:
                                    if c2 is one:
                                        v = c01
                                    elif c01 is one:
                                        v = c2
                                    else:
                                        v = (muls.get((id(c01), id(c2)))
                                             or mul(c01, c2))
                                    key = (k0, k1, k2, e_mu, e_nu)
                                    old = out.get(key)
                                    if old is not None:
                                        s = adds.get((id(old), id(v)))
                                        v = add(old, v) if s is None else s
                                        if v is zero:
                                            del out[key]
                                            continue
                                    out[key] = v


def residual(alg: Algebra, placed, sides) -> dict:
    """Side 0 minus side 1 in alg^(x)3 as {(i0, i1, i2, e_mu, e_nu): Scalar}
    (i_s the basis index in slot s), for `placed` a list of (family
    {(e_mu, e_nu): {(i, j): nonzero Scalar}}, target slots; the unit in the
    third) and each side three positions in it, bracketed: ((x, y), z)
    walks (x y) z and (x, (y, z)) walks x (y z).  The YBE is
    (((0, 1), 2), ((2, 1), 0))."""
    memo, (left, right) = Memo(alg.domain), alg.sides
    classes = set(right) - {None}
    # the memo's 1 is the rows' shared 1, so every value 1 here is `one`
    one = alg.domain.one()
    one = memo.intern(alg._constants.setdefault(normal_key(one), one))
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
        trie = _trie(terms)
        tries.append((trie, _meets(trie, left, classes)))
    a, b = {}, {}
    for side, out in zip(sides, (a, b)):
        pair = {}
        if isinstance(side[0], tuple):      # (x y) z
            (x, y), z = side
            _walk(tries[x][0], tries[y][1], alg, memo, one, pair)
            _walk(_trie(pair), tries[z][1], alg, memo, one, out)
        else:                               # x (y z)
            x, (y, z) = side
            _walk(tries[y][0], tries[z][1], alg, memo, one, pair)
            _walk(tries[x][0], _meets(_trie(pair), left, classes), alg, memo,
                  one, out)
    if a == b:
        return {}
    zero = memo.zero
    return {(*key[2::-1], *key[3:]): a.get(key, zero) - b.get(key, zero)
            for key in {**a, **b} if a.get(key) != b.get(key)}


def ybe_residual(alg: Algebra, blocks: dict, parametric: bool,
                 sides=(((0, 1), 2), ((2, 1), 0))) -> dict:
    """residual() of the YBE for R(mu) = sum_e mu^e blocks[e]: R(mu) in
    every slot, or R12(mu) R13(mu nu) R23(nu) when parametric, each side
    bracketed as `sides` says (positions 0, 1, 2 are R12, R13, R23)."""
    subs = ((1, 0), (1, 1), (0, 1)) if parametric else ((1, 0),) * 3
    placed = [({(e * a, e * b): t for e, t in blocks.items()}, slots)
              for (a, b), slots in zip(subs, ((0, 1), (0, 2), (1, 2)))]
    return residual(alg, placed, sides)


def matrix_units(d: int, domain) -> Algebra:
    """M_d on the matrix units E_ac (basis index a d + c), E_ac E_be =
    [c = b] E_ae, with sides: E_ac has left a and right c."""
    one = domain.one()
    labels = [divmod(i, d) for i in range(d * d)]
    return Algebra(f"M_{d}", domain, labels, {(k, k): one for k in range(d)},
                   lambda x, y: {(x[0], y[1]): one} if x[1] == y[0] else {},
                   sides=tuple(zip(*labels)))


def _matrix_report(kind, r: ParametricMatrix) -> YbeReport:
    """The check `kind` on R in M_d (x) M_d, the entry ((a, b), (c, e)) of
    each mu^e block read as E_ac (x) E_be (or, for B = P R, E_bc (x) E_ae)."""
    d = math.isqrt(r.dim)
    if d * d != r.dim:
        raise ValueError(f"matrix dimension {r.dim} is not a perfect square, "
                         "so it cannot act on V (x) V")
    alg = matrix_units(d, r.domain)
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
        res = residual(alg, [(b, (0, 1)), (b, (1, 2))],
                       (((0, 1), 0), ((1, 0), 1)))
    else:
        res = ybe_residual(alg, blocks, kind == "parametric")
    entries = {}
    for (i0, i1, i2, e_mu, e_nu), v in res.items():   # to V (x) V (x) V
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
