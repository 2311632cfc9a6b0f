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
D (x) D (x) D through the residual engine of ybe.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, AlgebraElement, TensorElement
from .baxterize import mu_components
from .hopf import HopfAlgebra, Grading, _deg_add, dual, dual_grading
from .scalars import accumulate, laurent_by_key
from .ybe import YbeReport, worst_tensor_term, ybe_residual


CONVENTIONS = ("s_inv_right", "s_inv_left", "s_right", "s_left",
               "inv_right_s", "inv_left_s", "right_s", "left_s")

DEFAULT_CONVENTION = "inv_left_s"


def _pair_terms(h_terms: dict, dual_terms: dict) -> dict:
    """Coefficients of (sum c_g g) * (sum c_f f) on the pair labels (g, f)."""
    return {(g, f): cg * cf for g, cg in h_terms.items()
            for f, cf in dual_terms.items()}


class DoubleAlgebra:
    """The double as a table-driven Algebra on pair labels (g, f)."""

    def __init__(self, h: HopfAlgebra, convention: str = DEFAULT_CONVENTION):
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown double convention {convention!r}")
        self.h = h
        self.hdual = dual(h)
        self.convention = convention
        halg, dalg = h.algebra, self.hdual.algebra
        labels = [(g, f) for g in halg.labels for f in dalg.labels]
        unit_terms = _pair_terms(halg._unit_terms, dalg._unit_terms)

        def label_str(pair):
            g, f = pair
            return f"{halg.label_str(g)}.{dalg.label_str(f)}"

        self.algebra = Algebra(f"D({halg.name})", halg.domain, labels,
                               unit_terms, self._pair_product, label_str=label_str)
        self._cross = {}     # h label -> {dual label -> {pair: Scalar}}
        self._r_mu = None    # canonical R Baxterized by x-degree (taft.py)

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

    def _pair_product(self, p1, p2):
        (g1, f1), (g2, f2) = p1, p2
        halg, dalg = self.h.algebra, self.hdual.algebra
        hidx, didx = halg.index, dalg.index
        hlab, dlab = halg.labels, dalg.labels
        i1, j2 = hidx[g1], didx[f2]
        out = {}
        for (v, k), c in self._cross_for(g2)[f1].items():
            for gg, cg in halg.row(i1, hidx[v]):
                for ff, cf in dalg.row(didx[k], j2):
                    accumulate(out, (hlab[gg], dlab[ff]), c * cg * cf)
        return out

    # -- embeddings -------------------------------------------------------------
    def embed_h(self, x) -> AlgebraElement:
        """H -> D, g |-> g * 1_{H*}."""
        if not isinstance(x, AlgebraElement):
            x = self.h.algebra.basis(x)
        return self.algebra.element(
            _pair_terms(x.terms, self.hdual.algebra._unit_terms))

    def embed_dual(self, x) -> AlgebraElement:
        """H* -> D, f |-> 1_H * f."""
        if not isinstance(x, AlgebraElement):
            x = self.hdual.algebra.basis(x)
        return self.algebra.element(
            _pair_terms(self.h.algebra._unit_terms, x.terms))

    def __repr__(self):
        return f"DoubleAlgebra({self.algebra.name}, dim={self.algebra.dim})"


def build_double(h: HopfAlgebra, convention: str = DEFAULT_CONVENTION) -> DoubleAlgebra:
    return DoubleAlgebra(h, convention)


# ---------------------------------------------------------------------------
# canonical R element
# ---------------------------------------------------------------------------

@dataclass
class CanonicalR:
    """R = sum_i a_i (x) a_i^*, one factor pair per basis element of H."""
    double: DoubleAlgebra
    factors: tuple      # ((h label, dual label), ...) with coefficient 1 each

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
    gd = dual_grading(grading_h, double.hdual.algebra)
    return Grading(double.algebra, {
        (g, f): _deg_add(grading_h.degree(g), gd.degree(f))
        for (g, f) in double.algebra.labels})


# ---------------------------------------------------------------------------
# algebraic Yang-Baxter checks (exact expansion in D (x) D (x) D)
# ---------------------------------------------------------------------------

def _report(kind, alg: Algebra, res: dict) -> YbeReport:
    """A YbeReport of residual() over the double's basis labels."""
    labels = alg.labels
    by_key = laurent_by_key({
        ((labels[i0], labels[i1], labels[i2]), e_mu, e_nu): c
        for (i2, i1, i0, e_mu, e_nu), c in res.items()})
    return YbeReport(kind=kind, dim=alg.dim, passed=not res,
                     residual_terms=len(by_key),
                     worst=worst_tensor_term(by_key, alg.label_str))


def check_constant_ybe_algebraic(double: DoubleAlgebra, r: TensorElement) -> YbeReport:
    """R12 R13 R23 = R23 R13 R12 for R in D (x) D, expanded exactly."""
    return _report("constant-algebraic", double.algebra,
                   ybe_residual(double.algebra, {0: r}, False))


def check_parametric_ybe_algebraic(double: DoubleAlgebra, r_mu: dict) -> YbeReport:
    """R12(mu) R13(mu nu) R23(nu) = R23(nu) R13(mu nu) R12(mu), exactly,
    for a family r_mu = {e: R_e} meaning R(mu) = sum_e mu^e R_e."""
    return _report("parametric-algebraic", double.algebra,
                   ybe_residual(double.algebra, mu_components(r_mu), True))
