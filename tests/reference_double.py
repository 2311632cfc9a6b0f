"""The double in the pair basis of H (x) H*, the reference of the tests
that read DoubleAlgebra, which holds the double in the counit basis of H*.

The pair basis has the labels of the double, but there the label
(g, 1^*) stands for g 1^*, with 1^* the monomial dual basis element, not
for g eps.  Its product is DoubleAlgebra._straightened with the monomial
index of 1^*, so it reads none of the double's cells.  in_c writes an
element of it in the counit basis, independently of the package's
change of basis; in_pairs is the package's way back, the pair spelling
of printed output.
"""

from functools import lru_cache

from hopfbax.algebra import Algebra, TensorElement
from hopfbax.scalars import accumulate


@lru_cache(maxsize=None)
def pair_basis(d) -> Algebra:
    """D(H) on the pairs (g, f), f in the monomial basis of H*."""
    halg, dalg = d.h.algebra, d.dual_algebra
    hlab, dlab, didx = halg.labels, dalg.labels, dalg.index
    (u,) = halg._unit_terms

    def product(p1, p2):
        (g1, f1), (g2, f2) = p1, p2
        return {(hlab[g], dlab[f]): c for (g, f), c in d._straightened(
            g1, f1, g2, didx[f2]).items()}

    return Algebra(f"{d.algebra.name} on pairs", halg.domain, d.algebra.labels,
                   {(u, l): c for l, c in dalg._unit_terms.items()}, product,
                   label_str=d.algebra.label_str)


def in_c(d, terms: dict) -> dict:
    """{(p_1, ..., p_n): Scalar} over the pair basis written in the counit
    basis, slot by slot: (g, 1^*) = (g, eps) - sum_{m != 0} (g, (a^m)^*),
    and (g, eps) takes the label of (g, 1^*)."""
    (u,) = d.h.algebra._unit_terms
    eps = d.dual_algebra._unit_terms
    for s in range(len(next(iter(terms), ()))):
        out = {}
        for key, c in terms.items():
            accumulate(out, key, c)
            g, f = key[s]
            if f == u:
                for l, e in eps.items():
                    if l != u:
                        accumulate(out, (*key[:s], (g, l), *key[s + 1:]),
                                   -(c * e))
        terms = out
    return terms


def in_pairs(d, terms: dict) -> dict:
    """{(p_1, ..., p_n): Scalar} over the counit basis written in the pair
    basis, by the double's in_pair_basis."""
    n = len(next(iter(terms), ()))
    return {key: c for (key,), c in d.in_pair_basis(
        {(key,): c for key, c in terms.items()}, n).items()}


def tensor_in_c(d, terms: dict) -> TensorElement:
    """A pair-basis {label key: Scalar} as an element of D (x) ... (x) D."""
    return TensorElement((d.algebra,) * len(next(iter(terms))), in_c(d, terms))


def pair_r(d) -> dict:
    """The canonical element sum_l l (x) l^* in the pair basis: N^3 terms."""
    halg, dalg = d.h.algebra, d.dual_algebra
    (u,) = halg._unit_terms
    return {((l, m), (u, l)): e for l in halg.labels
            for m, e in dalg._unit_terms.items()}
