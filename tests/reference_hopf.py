"""Full-basis scans of associativity and bialgebra compatibility.

associativity_violations and check_hopf_axioms take the first factor from
algebra.generators only, and associativity scans the whole basis only
after that finds a violation.  The scans here take every basis element as
the first factor, as both did before the reduction, and are the
references the tests compare the reduced checks with.  element_violations
is the one reference by AlgebraElement arithmetic instead of row tables.
"""

import weakref
from itertools import product as iproduct

from hopfbax import HopfReport, check_hopf_axioms
from hopfbax.algebra import Algebra, differing
from hopfbax.hopf import AxiomResult
from hopfbax.scalars import Memo


# (n, pair, label, factor): T_n with the coefficient of `label` in the
# product `pair` times factor.  One such constant breaks many triples,
# several of them sharing a pair (a, b)
CORRUPTED_PRODUCTS = [
    (3, ((0, 1), (1, 0)), (1, 1), 3),       # x.a = 3 q ax
    (3, ((1, 1), (2, 1)), (0, 2), -1),      # ax.a^2x = -q^2 x^2
    (3, ((2, 0), (2, 0)), (1, 0), 2),       # a^2.a^2 = 2a
    (3, ((0, 0), (1, 2)), (1, 2), 5),       # e.ax^2 = 5 ax^2
    (4, ((0, 1), (1, 0)), (1, 1), 3),       # x.a = 3 q ax
    (4, ((3, 2), (1, 1)), (0, 3), 2),       # a^3x^2.ax = 2 q^2 x^3
    (4, ((1, 0), (3, 0)), (0, 0), -1),      # a.a^3 = -e
    (4, ((0, 2), (0, 1)), (0, 3), 7),       # x^2.x = 7 x^3
]


def corrupted(alg, pair, label, factor):
    """alg with the coefficient of `label` in the product `pair` times factor."""
    def product(l1, l2):
        out = dict(alg.product_basis(l1, l2))
        if (l1, l2) == pair:
            out[label] = out[label] * factor
        return out
    return Algebra(f"corrupted {alg.name}", alg.domain, alg.labels,
                   alg._unit_terms, product, label_str=alg.label_str)


# by algebra object: every corruption of one T_n's coproduct, counit or
# antipode shares its algebra
_PAIR_PRODUCTS = weakref.WeakKeyDictionary()
_ELEMENT_VIOLATIONS = weakref.WeakKeyDictionary()


def pair_products(alg):
    """[[b_i b_j for j] for i], the products of basis elements as
    AlgebraElements, each formed once per algebra object."""
    if alg not in _PAIR_PRODUCTS:
        basis = list(map(alg.basis, alg.labels))
        _PAIR_PRODUCTS[alg] = [[x * y for y in basis] for x in basis]
    return _PAIR_PRODUCTS[alg]


def element_violations(alg):
    """(associativity, unit) failures by multiplying basis elements: every
    triple (a, b, c) with (ab)c != a(bc), and every label l with e l != l
    or l e != l, each in basis order.  (b_i b_j) b_k and b_i (b_j b_k)
    read the pair products of pair_products()."""
    if alg not in _ELEMENT_VIOLATIONS:
        labels, e = alg.labels, alg.unit()
        basis = list(map(alg.basis, labels))
        pairs = pair_products(alg)
        n = range(alg.dim)
        _ELEMENT_VIOLATIONS[alg] = (
            [(labels[i], labels[j], labels[k])
             for i, j, k in iproduct(n, repeat=3)
             if pairs[i][j] * basis[k] != basis[i] * pairs[j][k]],
            [l for l, x in zip(labels, basis) if e * x != x or x * e != x])
    return _ELEMENT_VIOLATIONS[alg]


def per_triple_violations(alg):
    """The per-triple scan that associativity_violations batches: for each
    triple in basis order, (ab)c and a(bc) as two {index: Scalar} dicts
    summed through one memo."""
    index, basis = alg.index, range(alg.dim)
    rows = [[alg.row(i, j) for j in basis] for i in basis]
    memo = Memo(alg.domain)
    mul, acc = memo.mul, memo.accumulate
    bad = []
    for t in iproduct(alg.labels, repeat=3):
        i, j, k = (index[l] for l in t)
        if (acc((p, mul(c, v)) for m, c in rows[i][j] for p, v in rows[m][k])
                != acc((p, mul(c, v)) for m, c in rows[j][k]
                       for p, v in rows[i][m])):
            bad.append(tuple(t))
    return bad


def batched_violations(alg):
    """The dim^3 batch: for every basis pair (a, b), (ab)c and a(bc) for
    every c as one {(c, index): Scalar} dict each."""
    labels, basis = alg.labels, range(alg.dim)
    rows = [[alg.row(i, j) for j in basis] for i in basis]
    memo = Memo(alg.domain)
    mul, acc = memo.mul, memo.accumulate
    bad = {(i, j, k) for i, j in iproduct(basis, basis) for k in differing(
        acc(((k, p), mul(c, v)) for m, c in rows[i][j] for k in basis
            for p, v in rows[m][k]),
        acc(((k, p), mul(c, v)) for k in basis for m, c in rows[j][k]
            for p, v in rows[i][m]))}
    return [(labels[i], labels[j], labels[k]) for i, j, k in sorted(bad)]


def compatibility_failures(h):
    """The dim^2 scan: every basis pair (x, y), in basis order, where
    Delta(xy) != Delta(x)Delta(y) or eps(xy) != eps(x)eps(y)."""
    alg = h.algebra
    labels, index, row, basis = alg.labels, alg.index, alg.row, range(alg.dim)
    memo = Memo(alg.domain)
    mul, acc, intern = memo.mul, memo.accumulate, memo.intern
    co = [[(index[l0], index[l1], intern(c))
           for (l0, l1), c in h.coproduct[l].terms.items()] for l in labels]
    counit = [intern(h.counit[l]) for l in labels]

    def failures(i):
        delta = differing(
            acc(((j, k0, k1), mul(c, d)) for j in basis
                for k, c in row(i, j) for k0, k1, d in co[k]),
            acc(((j, k0, k1), mul(mul(mul(ca, cb), v0), v1)) for j in basis
                for a0, a1, ca in co[i] for b0, b1, cb in co[j]
                for k0, v0 in row(a0, b0) for k1, v1 in row(a1, b1)))
        return delta | differing(
            acc(((j,), mul(c, counit[k])) for j in basis for k, c in row(i, j)),
            acc(((j,), mul(counit[i], counit[j])) for j in basis))

    return [(labels[i], labels[j]) for i in basis for j in sorted(failures(i))]


def full_scan_summary(h):
    """check_hopf_axioms(h).summary() with the associativity and
    compatibility lines taken from the full scans."""
    alg = h.algebra
    full = {"associativity": batched_violations(alg),
            "bialgebra compatibility": compatibility_failures(h)}

    def result(axiom):
        if axiom.name not in full:
            return axiom
        bad = next(iter(full[axiom.name]), None)
        return AxiomResult(axiom.name, bad is None, None if bad is None
                           else ", ".join(map(alg.label_str, bad)))

    report = check_hopf_axioms(h)
    return HopfReport(report.algebra, [result(a) for a in report.axioms]).summary()
