"""Hopf algebra data, axiom verification, duals and gradings.

A HopfAlgebra packages an Algebra with coproduct/counit/antipode tables on
the basis.  Everything is table-driven and exact, so the axiom checker is a
finite computation: each axiom is verified on all basis elements (or basis
tuples) and the report carries a counterexample when one exists.

The dual Hopf algebra is built by transposing tables through the pairing
<a_i^*, a_j> = delta_ij:

    product on the dual   = transpose of the coproduct,
    coproduct on the dual = transpose of the product,
    unit of the dual      = the counit functional,
    counit of the dual    = evaluation at the unit,
    antipode of the dual  = precomposition with the antipode.

dual_algebra builds the first and third, all the double reads of H*.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product as iproduct

from .algebra import Algebra, AlgebraElement, TensorElement, \
    associativity_violations, differing, generators, unit_violations
from .scalars import Memo, Scalar, accumulate


class HopfAlgebra:
    """Algebra + coproduct/counit/antipode tables on its basis."""

    def __init__(self, algebra: Algebra, coproduct, counit, antipode):
        self.algebra = algebra
        self.coproduct = coproduct      # label -> TensorElement (arity 2)
        self.counit = counit            # label -> Scalar
        self.antipode = antipode        # label -> AlgebraElement
        self._antipode_inv = None

    @property
    def name(self):
        return self.algebra.name

    @property
    def domain(self):
        return self.algebra.domain

    # -- linear extensions ----------------------------------------------------
    @staticmethod
    def _extend(table, x, zero):
        """table[x] for a basis label x; the linear extension for an element."""
        if not isinstance(x, AlgebraElement):
            return table[x]
        out = zero()
        for l, c in x.terms.items():
            v = table[l]
            out = out + (c * v if isinstance(v, Scalar) else v.scaled(c))
        return out

    def delta(self, x) -> TensorElement:
        """Coproduct of a basis label or element."""
        return self._extend(self.coproduct, x,
                            lambda: TensorElement((self.algebra, self.algebra)))

    def delta_squared(self, x) -> TensorElement:
        """(Delta (x) id) Delta, an arity-3 expansion."""
        d = self.delta(x)
        out = {}
        for (l0, l1), c in d.terms.items():
            for (m0, m1), e in self.coproduct[l0].terms.items():
                accumulate(out, (m0, m1, l1), c * e)
        return TensorElement((self.algebra,) * 3, out)

    def eps(self, x) -> Scalar:
        return self._extend(self.counit, x, self.domain.zero)

    def gamma(self, x) -> AlgebraElement:
        return self._extend(self.antipode, x, self.algebra.zero)

    def gamma_inverse(self, x) -> AlgebraElement:
        """S^-1 as S^(m-1), m the order of S.

        The antipode of a finite-dimensional Hopf algebra has finite order
        dividing 4 dim H (Radford, Amer. J. Math. 98, 1976); a map none of
        whose powers up to the 4 dim H-th is the identity is refused.
        """
        if self._antipode_inv is None:
            alg = self.algebra
            identity = {l: alg.basis(l) for l in alg.labels}
            previous, power = identity, self.antipode
            for _ in range(4 * alg.dim):
                if power == identity:
                    self._antipode_inv = previous
                    break
                previous, power = power, {l: self.gamma(v)
                                          for l, v in power.items()}
            else:
                raise ValueError("antipode has no finite order up to 4 dim H")
        return self._extend(self._antipode_inv, x, self.algebra.zero)

    def __repr__(self):
        return f"HopfAlgebra({self.name}, dim={self.algebra.dim})"


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

class AxiomResult(namedtuple("AxiomResult", "name passed counterexample",
                             defaults=(None,))):
    __slots__ = ()

    def to_dict(self):
        return self._asdict()


class HopfReport(namedtuple("HopfReport", "algebra axioms")):
    __slots__ = ()

    def __new__(cls, algebra, axioms=None):
        return super().__new__(cls, algebra, [] if axioms is None else axioms)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.axioms)

    def summary(self) -> str:
        lines = [f"Hopf axioms for {self.algebra}:"]
        for a in self.axioms:
            line = f"  {'PASS' if a.passed else 'FAIL'}  {a.name}"
            if a.counterexample:
                line += f"  [{a.counterexample}]"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self):
        return {"algebra": self.algebra, "passed": self.passed,
                "axioms": [a.to_dict() for a in self.axioms]}


def check_hopf_axioms(h: HopfAlgebra) -> HopfReport:
    """Verify all Hopf axioms on the basis; exact, no tolerances.  The
    tables are read once into lists over basis indices, and the two sides
    of an identity are {index key: Scalar} dicts summed from them and
    Algebra.row through one Memo.

    Once associativity holds, compatibility reads only the rows x in
    S = algebra.generators(alg).  B = {x : Delta(xy) = Delta(x)Delta(y)
    and eps(xy) = eps(x)eps(y) for all y} is a subspace, and it is closed
    under products once H, and so H (x) H, is associative: for x, x' in B,
    Delta((xx')y) = Delta(x(x'y)) = Delta(x)(Delta(x')Delta(y))
    = (Delta(x)Delta(x'))Delta(y) = Delta(xx')Delta(y), and likewise for
    eps.  B contains S, so B is all of H.  The witness is the one a scan
    of every row finds: generators() adds an index k outside S only as a
    multiple of a word in the members of S before k, so if those rows
    pass, row k passes, and the first failing row is a member of S.  When
    associativity fails, every row is read in basis order."""
    alg = h.algebra
    labels, index, row, basis = alg.labels, alg.index, alg.row, range(alg.dim)
    memo = Memo(alg.domain)
    mul, acc, intern = memo.mul, memo.accumulate, memo.intern
    co = [[(index[l0], index[l1], intern(c))
           for (l0, l1), c in h.coproduct[l].terms.items()] for l in labels]
    counit = [intern(h.counit[l]) for l in labels]
    antipode = [[(index[m], intern(c)) for m, c in h.antipode[l].terms.items()]
                for l in labels]
    unit = [(index[u], intern(c)) for u, c in alg._unit_terms.items()]
    report = HopfReport(alg.name)

    def record(name, failures):
        """Record an axiom; the first failing basis tuple is its witness."""
        bad = next(iter(failures), None)
        report.axioms.append(AxiomResult(name, bad is None, None if bad is None
                                         else ", ".join(map(alg.label_str, bad))))

    triples = associativity_violations(alg, memo=memo)
    record("associativity", triples)
    record("unit", ((l,) for l in unit_violations(alg, memo)))

    def coassoc_fail(i):
        return (acc(((j0, j1, i1), mul(c, d))
                    for i0, i1, c in co[i] for j0, j1, d in co[i0])
                != acc(((i0, j0, j1), mul(c, d))
                       for i0, i1, c in co[i] for j0, j1, d in co[i1]))

    record("coassociativity", ((labels[i],) for i in basis if coassoc_fail(i)))

    def counit_fail(i):
        want = {i: alg.domain.one()}
        return (acc((i1, mul(c, counit[i0])) for i0, i1, c in co[i]) != want
                or acc((i0, mul(c, counit[i1])) for i0, i1, c in co[i])
                != want)

    record("counit", ((labels[i],) for i in basis if counit_fail(i)))

    def compat_failures(i):
        # Delta(l_i l_j) against Delta(l_i) Delta(l_j) for every j at once,
        # keyed (j, k0, k1); the second-slot row is read only where the
        # first-slot row is not empty.  The counit part is keyed (j,)
        delta = differing(
            acc(((j, k0, k1), mul(c, d)) for j in basis
                for k, c in row(i, j) for k0, k1, d in co[k]),
            acc(((j, k0, k1), mul(mul(mul(ca, cb), v0), v1)) for j in basis
                for a0, a1, ca in co[i] for b0, b1, cb in co[j]
                for k0, v0 in row(a0, b0) for k1, v1 in row(a1, b1)))
        return delta | differing(
            acc(((j,), mul(c, counit[k])) for j in basis for k, c in row(i, j)),
            acc(((j,), mul(counit[i], counit[j])) for j in basis))

    firsts = basis if triples else generators(alg)
    record("bialgebra compatibility",
           ((labels[i], labels[j]) for i in firsts
            for j in sorted(compat_failures(i))))

    unit_ok = (acc(((i0, i1), mul(c, d)) for u, c in unit for i0, i1, d in co[u])
               == acc(((u, v), mul(c, d)) for u, c in unit for v, d in unit)
               and acc(((), mul(c, counit[u])) for u, c in unit)
               == {(): alg.domain.one()})
    report.axioms.append(AxiomResult("bialgebra unit/counit of 1", unit_ok,
                                     None if unit_ok else "unit element"))

    def antipode_fail(i):
        want = acc((u, mul(c, counit[i])) for u, c in unit)
        return (acc((k, mul(mul(c, s), v)) for i0, i1, c in co[i]
                    for m, s in antipode[i0] for k, v in row(m, i1)) != want
                or acc((k, mul(mul(c, s), v)) for i0, i1, c in co[i]
                       for m, s in antipode[i1] for k, v in row(i0, m)) != want)

    record("antipode", ((labels[i],) for i in basis if antipode_fail(i)))
    return report


# ---------------------------------------------------------------------------
# dual Hopf algebra
# ---------------------------------------------------------------------------

def dual_algebra(h: HopfAlgebra) -> Algebra:
    """H* as an algebra on the dual basis {a_i^*}: the product is the
    transpose of the coproduct and the unit is the counit."""
    alg = h.algebra
    prod_table = {}
    for k in alg.labels:
        for pair, c in h.coproduct[k].terms.items():
            prod_table.setdefault(pair, {})[k] = c
    return Algebra(f"{alg.name}^*", alg.domain, alg.labels, h.counit,
                   lambda l1, l2: prod_table.get((l1, l2), {}),
                   label_str=lambda l: f"({alg.label_str(l)})*")


def dual(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra: dual_algebra(h) with the transposed product,
    unit and antipode of H as its coproduct, counit and antipode."""
    alg, dual_alg = h.algebra, dual_algebra(h)
    labels = alg.labels
    coprod_terms = {k: {} for k in labels}
    for (i, l0), (j, l1) in iproduct(enumerate(labels), repeat=2):
        for k, c in alg.row(i, j):
            accumulate(coprod_terms[labels[k]], (l0, l1), c)
    coproduct = {k: TensorElement((dual_alg, dual_alg), coprod_terms[k])
                 for k in labels}
    counit = {k: alg._unit_terms.get(k, alg.domain.zero()) for k in labels}
    antipode = {k: dual_alg.element({m: h.antipode[m].terms[k] for m in labels
                                     if k in h.antipode[m].terms})
                for k in labels}
    return HopfAlgebra(dual_alg, coproduct, counit, antipode)


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

def _deg_add(p, q):
    if isinstance(p, tuple):
        return tuple(a + b for a, b in zip(p, q))
    return p + q


def _deg_zero(p):
    return tuple(0 for _ in p) if isinstance(p, tuple) else 0


class Grading:
    """Degree assignment on an algebra's basis (int or tuple of ints)."""

    def __init__(self, algebra: Algebra, degrees):
        self.algebra = algebra
        self.degrees = dict(degrees)
        missing = [l for l in algebra.labels if l not in self.degrees]
        if missing:
            raise ValueError(f"grading misses labels {missing[:3]}")

    def degree(self, label):
        return self.degrees[label]

    def is_nontrivial(self) -> bool:
        return any(d != _deg_zero(d) for d in self.degrees.values())

    def lift_zn(self, embed_fn) -> "Grading":
        """New grading with degrees mapped through embed_fn (e.g. j -> (j, 0))."""
        return Grading(self.algebra, {l: embed_fn(d) for l, d in self.degrees.items()})


class GradingReport(namedtuple("GradingReport",
                               "algebra kind passed nontrivial violations")):
    __slots__ = ()   # kind is "product" | "coproduct"

    def __new__(cls, algebra, kind, passed, nontrivial, violations=None):
        return super().__new__(cls, algebra, kind, passed, nontrivial,
                               [] if violations is None else violations)

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f"  e.g. {self.violations[0]}"
        kind = "multiplicative" if self.kind == "product" else "coproduct"
        return (f"{flag}  {kind} homogeneity on {self.algebra} "
                f"(nontrivial={self.nontrivial}){extra}")

    def to_dict(self):
        return {"algebra": self.algebra, "kind": self.kind, "passed": self.passed,
                "nontrivial": self.nontrivial,
                "violations": [str(v) for v in self.violations[:5]]}


def check_grading(algebra: Algebra, grading: Grading) -> GradingReport:
    """Multiplicative homogeneity: deg(b_i b_j) = deg(b_i) + deg(b_j)."""
    viol = []
    labels = algebra.labels
    for (i, l1), (j, l2) in iproduct(enumerate(labels), repeat=2):
        want = _deg_add(grading.degree(l1), grading.degree(l2))
        for k, _ in algebra.row(i, j):
            m = labels[k]
            if grading.degree(m) != want:
                viol.append((algebra.label_str(l1), algebra.label_str(l2),
                             algebra.label_str(m)))
                break
    return GradingReport(algebra.name, "product", not viol,
                         grading.is_nontrivial(), viol)


def check_coproduct_grading(h: HopfAlgebra, grading: Grading) -> GradingReport:
    """Coproduct condition: Delta maps degree p into sum_q (deg q) (x) (deg p-q)."""
    viol = []
    alg = h.algebra
    for l in alg.labels:
        p = grading.degree(l)
        for (l0, l1) in h.coproduct[l].terms:
            if _deg_add(grading.degree(l0), grading.degree(l1)) != p:
                viol.append((alg.label_str(l), alg.label_str(l0), alg.label_str(l1)))
                break
    return GradingReport(alg.name, "coproduct", not viol,
                         grading.is_nontrivial(), viol)


def dual_grading(grading: Grading, hdual: Algebra) -> Grading:
    """Grading on the dual: (a_i of degree p)^* again has degree p."""
    return Grading(hdual, dict(grading.degrees))
