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

The algebraic Yang-Baxter checks expand R12 R13 R23 - R23 R13 R12 over
basis indices.  Each slot family is one trie, nested from the third slot
down (zero products prune soonest there), with the (mu, nu) exponents in
its leaf keys.  A side is two walks, its first two families into a trie
and that times the third, into one residual {(i2, i1, i0, e_mu, e_nu):
Scalar} (the second side negated).  Every product and sum goes through
one _Memo of interned values, made by the check and dropped with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, AlgebraElement, TensorElement, embed
from .baxterize import mu_components
from .hopf import HopfAlgebra, Grading, _deg_add, dual, dual_grading
from .scalars import accumulate, laurent_by_key, normal_key
from .ybe import YbeReport, worst_tensor_term


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
    """out += x y for tries of D (x) D (x) D, slot by slot: a zero basis
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


def _triple_compare(kind, double, f12, f13, f23) -> YbeReport:
    """Place families {(e_mu, e_nu): two-leg element} at slots 12, 13, 23
    of D (x) D (x) D and report the residual R12 R13 R23 - R23 R13 R12,
    expanded as the module docstring describes."""
    alg = double.algebra
    index, labels = alg.index, alg.labels
    memo = _Memo(alg.domain)
    f12, f13, f23 = (_trie({
        (*(index[l] for l in reversed(key)), *e): memo.intern(c)
        for e, t in f.items()
        for key, c in embed(t, slots, (alg,) * 3).terms.items()})
        for f, slots in ((f12, (0, 1)), (f13, (0, 2)), (f23, (1, 2))))
    residual = {}
    for x, y, z, sign in ((f12, f13, f23, 1), (f23, f13, f12, -1)):
        xy, sign = {}, memo.intern(alg.domain.from_fraction(sign))
        _walk(x, y, alg, memo, xy)
        _walk(_trie({k: memo.mul(c, sign) for k, c in xy.items()}), z, alg,
              memo, residual)
    by_key = laurent_by_key({
        ((labels[i0], labels[i1], labels[i2]), e_mu, e_nu): c
        for (i2, i1, i0, e_mu, e_nu), c in residual.items()})
    return YbeReport(kind=kind, dim=alg.dim, passed=not residual,
                     residual_terms=len(by_key),
                     worst=worst_tensor_term(by_key, alg.label_str))


def check_constant_ybe_algebraic(double: DoubleAlgebra, r: TensorElement) -> YbeReport:
    """R12 R13 R23 = R23 R13 R12 for R in D (x) D, expanded exactly."""
    family = {(0, 0): r}
    return _triple_compare("constant-algebraic", double, family, family, family)


def check_parametric_ybe_algebraic(double: DoubleAlgebra, r_mu: dict) -> YbeReport:
    """R12(mu) R13(mu nu) R23(nu) = R23(nu) R13(mu nu) R12(mu), exactly,
    for a family r_mu = {e: R_e} meaning R(mu) = sum_e mu^e R_e."""
    blocks = mu_components(r_mu)
    return _triple_compare(
        "parametric-algebraic", double,
        {(e, 0): t for e, t in blocks.items()},
        {(e, e): t for e, t in blocks.items()},
        {(0, e): t for e, t in blocks.items()})
