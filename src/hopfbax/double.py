"""Drinfeld double D(H) on the basis {g f : g in H, f in H*}.

D(H) is H (x) H* as a vector space; H and H* embed as subalgebras and a
basis pair (g, f) stands for the product (embedded g) * (embedded f).
Multiplying two basis pairs therefore needs the straightening rule that
rewrites (dual element) * (algebra element) back into h-then-dual order:

    f . h  =  sum_(h)  h_(2) * ( x |-> f( L x R ) )

where {L, R} are the outer coproduct legs {h_(1), h_(3)}, one of them
wrapped in an antipode power S^{+-1}.  Textbook presentations of the
double differ exactly in this choice, so the rule is kept as an explicit
`convention` knob.  The default, selected operationally rather than
transcribed, is

    f . h  =  sum_(h)  h_(2) * ( x |-> f( h_(3) x S^{-1}(h_(1)) ) ),

the unique candidate among the eight for which the double of the
4-dimensional Taft algebra is associative AND its canonical element
R = sum_i a_i (x) a_i^* satisfies the constant Yang-Baxter equation by
exact expansion in D (x) D (x) D.  (One other candidate, "left_s", gives
an associative product whose canonical element fails the YBE; the tests
keep it as a negative control.)  The embedded copy of H* multiplies by
the plain dual product, with no co-opposite twist on the product side.

Convention names: the tokens name the sandwich pieces left-to-right.
"inv" picks S^{-1} over S; "right" twists the right coproduct leg h_(3),
otherwise the left leg h_(1) is twisted; a leading "s_" puts the twisted
leg on the left of x, otherwise on the right.  So "inv_left_s" puts the
plain leg h_(3) on the left and S^{-1} of the left coproduct leg h_(1) on
the right, "s_inv_right" means x |-> f(S^{-1}(h_(3)) x h_(1)), and so on.

The sandwich L x R is read off the index rows of H (Algebra.row) for each
basis element x, one table per h, filled when a product first needs it.

The algebraic Yang-Baxter checks expand R12 R13 R23 - R23 R13 R12 in
D (x) D (x) D through the residual engine of ybe.py, on basis indices,
in the counit basis of H* (DoubleAlgebra), where the canonical element
has N^2 + N - 1 terms instead of N^3; a nonzero residual is written back
in the pair basis for its report.  They walk the left side as
R12 (R13 R23) and the right side as (R23 R13) R12, the brackets whose
first product collapses (its third slot is a product in H*), so they
assume that D is associative: then each bracket is the YBE's side.  The
default convention's double is associative (the tests show it for
N <= 3), and so is the failing "left_s" control.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .algebra import Algebra, AlgebraElement, TensorElement
from .baxterize import mu_components
from .hopf import HopfAlgebra, Grading, _deg_add, dual_algebra
from .scalars import accumulate
from .ybe import YbeReport, residual_report, ybe_residual


CONVENTIONS = ("s_inv_right", "s_inv_left", "s_right", "s_left",
               "inv_right_s", "inv_left_s", "right_s", "left_s")

DEFAULT_CONVENTION = "inv_left_s"


def _pair_terms(h_terms: dict, dual_terms: dict) -> dict:
    """Coefficients of (sum c_g g) * (sum c_f f) on the pair labels (g, f)."""
    return {(g, f): cg * cf for g, cg in h_terms.items()
            for f, cf in dual_terms.items()}


class DoubleAlgebra:
    """The double as a table-driven Algebra on pair labels (g, f), every
    index of one class; the algebraic checks walk in the counit basis.

    The counit basis of H* (_counit_basis).  With 1 the unit of H,
    C = {eps} u {l^* : l != 1}, and a pair (g, f) stands for g f as in the
    pair basis; the label of 1^* stands for eps.  Then:

      * C is a basis of H*: eps = 1^* + sum_{l != 1} eps(l) l^*, as
        eps(1) = 1 (for T_N, eps = sum_m (a^m)^*).  So the change of basis
        touches only the N^2 pairs (g, 1^*), and (g, eps) takes their
        indices: into C, (g, 1^*) = (g, eps) - sum_{l != 1} eps(l) (g, l^*),
        and back, (g, eps) = (g, 1^*) + that sum.  _eps_rest maps the
        index of each (g, 1^*) to ((index of (g, l^*), eps(l)), ...); every
        other index passes through with its coefficient as it is.
      * R = sum_l l (x) l^* has N^2 + N - 1 terms on the pairs of C: as
        eps is the unit of D, embedded l is the one pair (l, eps), not the
        N pairs (l, (a^m)^*), so R = sum_{l != 1} (l, eps) (x) (1, l^*) +
        (1, eps) (x) ((1, eps) - sum_{m != 0} (1, (a^m)^*)), N^2 - 1 +
        1 + N - 1 terms; in the pair basis it has N^3.  D's unit is the
        one pair (1, eps).
      * The cells: (g1, eps)(g2, f2) = g1 g2 f2, which is (g1 g2, f2) read
        off H's row.  For f1 != eps, (g1 f1)(g2 f2) = g1 (f1 . g2) f2 =
        sum c (g1 v)(k f2) over f1 . g2 = sum c v k (_cross_for), with
        k f2 read off H*'s row, or k f2 = k when f2 = eps, and each 1^*
        of the result written in C.  Both are the products of the pair
        basis under every convention, since there eps . g = g eps: eps
        is multiplicative, eps S^{+-1} = eps, and
        sum eps(h_(1)) h_(2) eps(h_(3)) = h.

    The sides of C.  For h = T_N (build_taft, the only H this package
    doubles) and a convention that twists the left leg h_(1) (no "right"
    in its name), C declares sides: with g = a^{g_a} x^{g_x} and
    f = (a^{f_a} x^{f_x})^* != eps, the pair (g, f) has left class
    f_a + f_x - g_x (mod N) and right class f_a; the N^2 pairs (g, eps)
    are of class None, which meets every class, so the walk never skips
    a cell of theirs.  A product of two pairs with f != eps is zero unless
    the right class of the first is the left class of the second.  Give
    a^m x^j the weight (m mod N, j).  Then:

      * T_N's product adds weights: a^i x^j a^k x^l = q^{jk} a^{i+k} x^{j+l}
        (or 0), as x a = q a x only scales;
      * Delta^2(a^m x^t) is a sum of a^{m+t-s} x^s (x) a^{m+t-k} x^{k-s}
        (x) a^m x^{t-k} over s <= k <= t, so h_(1) = a^{u_a} x^{u_x} has
        u_a + u_x = m + t and h_(3) has a-weight m;
      * S(a^m x^j) is a multiple of a^{-m-j} x^j, and (m, j) -> (-m-j, j)
        is an involution, so S and S^{-1} both map weight (m, j) to
        (-m-j, j);
      * (a^p x^k)^* (a^i x^j)^* is 0 unless p = i + j (mod N), as H*'s
        product is the transpose of Delta (see taft._dual_images).

    Now f . g = sum h_(2) (x |-> f(L x R)), with x |-> f(L x R) =
    sum_k f(L k R) k^*.  For g of weight (m, t), L and R are h_(3) and
    S^{+-1}(h_(1)) in some order, so L k R has a-weight m + k_a - (m + t),
    and f(L k R) = 0 unless k_a = f_a + t (mod N).  In the pair basis,
    (g1, f1)(g2, f2) = sum (g1 h_(2)) (k^* f2), and the factor k^* f2 is 0
    unless k_a = f2_a + f2_x, so the product is 0 unless
    f1_a = f2_a + f2_x - g2_x (mod N).  A pair with f != eps is the pair
    of the same label in both bases, so a cell of C of two such pairs is
    that product written in C, and empty when it is.  Twisting h_(3)
    instead makes the a-weight of L k R depend on the x-weight of h_(2),
    so those four conventions keep the default single class.
    """

    def __init__(self, h: HopfAlgebra, convention: str = DEFAULT_CONVENTION):
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown double convention {convention!r}")
        self.h = h
        self.dual_algebra = dual_algebra(h)
        self.convention = convention
        halg, dalg = h.algebra, self.dual_algebra
        labels = [(g, f) for g in halg.labels for f in dalg.labels]
        unit_terms = _pair_terms(halg._unit_terms, dalg._unit_terms)

        def label_str(pair):
            g, f = pair
            return f"{halg.label_str(g)}.{dalg.label_str(f)}"

        self.algebra = Algebra(f"D({halg.name})", halg.domain, labels,
                               unit_terms, self._pair_product,
                               label_str=label_str)
        self._cross = {}     # h label -> {dual label -> {pair: Scalar}}
        self._counit = self._eps_rest = None   # _counit_basis()

    @property
    def domain(self):
        return self.h.domain

    # -- the straightening rule ------------------------------------------------
    def _cross_for(self, g):
        """Straightening of f.g for every dual basis label f at once.

        Returns {dual label f: {pair label: Scalar}} with
        f . g = sum over pairs of coeff * (pair).
        """
        hit = self._cross.get(g)
        if hit is not None:
            return hit
        h, conv = self.h, self.convention
        labels, index, row = h.algebra.labels, h.algebra.index, h.algebra.row
        twist = h.gamma_inverse if "inv" in conv else h.gamma
        out = {f: {} for f in labels}
        for (u, v, w), c in h.delta_squared(g).terms.items():
            # legs L, R as [(basis index, Scalar)], decoded from the convention
            # tokens (see the module docstring); c rides on the plain leg
            twisted, plain = (w, u) if "right" in conv else (u, w)
            legs = ([(index[l], ct) for l, ct in twist(twisted).terms.items()],
                    [(index[plain], c)])
            left, right = legs if conv.startswith("s_") else legs[::-1]
            outer = [(a, b, ca * cb) for a, ca in left for b, cb in right]
            for k, lab in enumerate(labels):
                for a, b, cab in outer:
                    for p, cp in row(a, k):
                        cabp = cab * cp
                        for m, cm in row(p, b):
                            accumulate(out[labels[m]], (v, lab), cabp * cm)
        self._cross[g] = out
        return out

    def _straightened(self, g1, f1, g2, j2):
        """(g1 f1)(g2 f2) = sum c (g1 v)(k f2) over f1 . g2 = sum c v k
        (_cross_for), as {(H index, H* index): Scalar}, for f2 the H*
        basis element of index j2, or the unit eps of H* if j2 is None."""
        halg, dalg = self.h.algebra, self.dual_algebra
        hidx, didx = halg.index, dalg.index
        i1, out = hidx[g1], {}
        for (v, k), c in self._cross_for(g2)[f1].items():
            kf = None if j2 is None else dalg.row(didx[k], j2)
            for gg, cg in halg.row(i1, hidx[v]) if kf is None or kf else ():
                ccg = c * cg
                if kf is None:   # k eps = k, with no product by 1
                    accumulate(out, (gg, didx[k]), ccg)
                else:
                    for ff, cf in kf:
                        accumulate(out, (gg, ff), ccg * cf)
        return out

    def _pair_product(self, p1, p2):
        (g1, f1), (g2, f2) = p1, p2
        hlab, dlab = self.h.algebra.labels, self.dual_algebra.labels
        return {(hlab[g], dlab[f]): c for (g, f), c in self._straightened(
            g1, f1, g2, self.dual_algebra.index[f2]).items()}

    # -- the counit basis of H* -------------------------------------------------
    def _counit_basis(self):
        """The double on the pairs (g, f) with f in C, where the label of
        1^* stands for eps (see the class docstring), built on first use
        with _eps_rest.  Both bases share the labels and so the indices."""
        if self._counit is None:
            halg, dalg, pairs = self.h.algebra, self.dual_algebra, self.algebra
            (u,) = halg._unit_terms
            eps, index = dalg._unit_terms, pairs.index
            self._eps_rest = {index[g, u]: tuple(
                (index[g, l], c) for l, c in eps.items() if l != u)
                for g in halg.labels}
            sides = None
            if "right" not in self.convention:   # the class rule of the docstring
                N = isqrt(halg.dim)
                sides = tuple(zip(*(((fa + fx - gx) % N, fa) if (fa, fx) != u
                                    else (None, None)
                                    for (_, gx), (fa, fx) in pairs.labels)))
            self._counit = Algebra(
                f"{pairs.name} on C", pairs.domain, pairs.labels,
                {(u, u): self.domain.one()}, self._counit_product,
                sides=sides)
        return self._counit

    def _counit_product(self, p1, p2):
        """(g1, f1)(g2, f2) in the counit basis: (g1 g2, f2) read off H's
        row when f1 is eps, else _straightened() with each 1^* of the
        result written in C by _eps_rest."""
        (g1, f1), (g2, f2) = p1, p2
        halg, dalg = self.h.algebra, self.dual_algebra
        (u,) = halg._unit_terms
        if f1 == u:
            hidx, hlab = halg.index, halg.labels
            return {(hlab[k], f2): c
                    for k, c in halg.row(hidx[g1], hidx[g2])}
        labels, rest, dim = self.algebra.labels, self._eps_rest, dalg.dim
        out = {}
        for (g, f), c in self._straightened(
                g1, f1, g2, None if f2 == u else dalg.index[f2]).items():
            p = g * dim + f
            accumulate(out, labels[p], c)
            for k, e in rest.get(p, ()):
                accumulate(out, labels[k], -(c * e))
        return out

    # -- embeddings -------------------------------------------------------------
    def embed_h(self, x) -> AlgebraElement:
        """H -> D, g |-> g * 1_{H*}."""
        if not isinstance(x, AlgebraElement):
            x = self.h.algebra.basis(x)
        return self.algebra.element(
            _pair_terms(x.terms, self.dual_algebra._unit_terms))

    def embed_dual(self, x) -> AlgebraElement:
        """H* -> D, f |-> 1_H * f."""
        if not isinstance(x, AlgebraElement):
            x = self.dual_algebra.basis(x)
        return self.algebra.element(
            _pair_terms(self.h.algebra._unit_terms, x.terms))

    def __repr__(self):
        return f"DoubleAlgebra({self.algebra.name}, dim={self.algebra.dim})"


def build_double(h: HopfAlgebra, convention: str = DEFAULT_CONVENTION) -> DoubleAlgebra:
    return DoubleAlgebra(h, convention)


# ---------------------------------------------------------------------------
# canonical R element
# ---------------------------------------------------------------------------

class CanonicalR(namedtuple("CanonicalR", "double factors")):
    """R = sum_i a_i (x) a_i^*, one factor pair per basis element of H:
    factors is ((h label, dual label), ...), with coefficient 1 each."""
    __slots__ = ()

    def tensor(self) -> TensorElement:
        """Expansion in the pair basis of D (x) D."""
        d = self.double
        out = {}
        for g, f in self.factors:
            for key, c in TensorElement.of(d.embed_h(g),
                                           d.embed_dual(f)).terms.items():
                accumulate(out, key, c)
        return TensorElement((d.algebra, d.algebra), out)


def canonical_r(double: DoubleAlgebra) -> CanonicalR:
    labels = double.h.algebra.labels
    return CanonicalR(double, tuple((l, l) for l in labels))


def double_grading(double: DoubleAlgebra, grading_h: Grading) -> Grading:
    """Total grading on pair labels: deg(g, f) = deg g + deg f^*.

    The dual basis element (a of degree p)^* again carries degree p, so the
    canonical R is diagonally graded whenever the coproduct respects the
    grading.
    """
    deg = grading_h.degree
    return Grading(double.algebra, {(g, f): _deg_add(deg(g), deg(f))
                                    for (g, f) in double.algebra.labels})


# ---------------------------------------------------------------------------
# algebraic Yang-Baxter checks (exact expansion in D (x) D (x) D)
# ---------------------------------------------------------------------------

def _rewritten(terms: dict, rest: dict, n: int, back: bool) -> dict:
    """{(i_1, ..., i_n, *tail): Scalar} with each i_s that is a key of rest
    (DoubleAlgebra._eps_rest) rewritten, slot by slot: into C, (g, 1^*) =
    (g, eps) - sum_{l != 1} eps(l) (g, l^*); back, (g, eps) = (g, 1^*) +
    that sum.  A term with no such index passes through, its coefficient
    object unmultiplied; zero sums go."""
    for s in range(n):
        out = {}
        for k, c in terms.items():
            accumulate(out, k, c)
            for i, e in rest.get(k[s], ()):
                v = c * e
                accumulate(out, (*k[:s], i, *k[s + 1:]), v if back else -v)
        terms = out
    return terms


def _algebraic_report(kind, double, blocks, parametric) -> YbeReport:
    """ybe_residual() of R(mu) = sum_e mu^e blocks[e] in D (x) D (x) D,
    walked in the counit basis as R12 (R13 R23) and (R23 R13) R12 and
    reported in the pair basis, by label triple (ties to the first by
    repr)."""
    alg, pairs = double._counit_basis(), double.algebra
    index, labels, rest = pairs.index, pairs.labels, double._eps_rest
    res = ybe_residual(alg, {
        e: _rewritten({(index[a], index[b]): c
                       for (a, b), c in t.terms.items()}, rest, 2, False)
        for e, t in blocks.items()}, parametric, ((0, (1, 2)), ((2, 1), 0)))
    return residual_report(kind, alg.dim, {
        ((labels[i0], labels[i1], labels[i2]), e_mu, e_nu): c
        for (i0, i1, i2, e_mu, e_nu), c in _rewritten(
            res, rest, 3, True).items()},
        lambda key: f"[{' (x) '.join(map(pairs.label_str, key))}]", repr)


def check_constant_ybe_algebraic(double: DoubleAlgebra, r: TensorElement) -> YbeReport:
    """R12 R13 R23 = R23 R13 R12 for R in D (x) D, expanded exactly as
    R12 (R13 R23) and (R23 R13) R12, which assumes D associative."""
    return _algebraic_report("constant-algebraic", double, {0: r}, False)


def check_parametric_ybe_algebraic(double: DoubleAlgebra, r_mu: dict) -> YbeReport:
    """R12(mu) R13(mu nu) R23(nu) = R23(nu) R13(mu nu) R12(mu), exactly,
    for a family r_mu = {e: R_e} meaning R(mu) = sum_e mu^e R_e, expanded
    as R12 (R13 R23) and (R23 R13) R12, which assumes D associative."""
    return _algebraic_report("parametric-algebraic", double,
                             mu_components(r_mu), True)
