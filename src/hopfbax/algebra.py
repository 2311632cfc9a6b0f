"""Finite-dimensional algebras over exact scalars, and tensor powers.

An Algebra is a basis (hashable, orderable labels) plus structure constants:
``product(l1, l2) -> {label: Scalar}``.  Labels are numbered once, in basis
order, and the structure constants are read by number: ``row(i, j)`` is the
product of basis elements i and j as ``((k, Scalar), ...)``, computed on
first use and kept.  Elements are sparse dictionaries over basis labels.
TensorElement holds elements of tensor products of (possibly different)
algebras, with Scalar coefficients over basis-label keys.  A family that
depends on the spectral parameter, R(mu) = sum_e mu^e R_e, is not a tensor
but the dict {e: TensorElement} of its constant blocks (see baxterize.py).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from .scalars import Memo, Scalar, Domain, ScalarDomainError, accumulate, \
    normal_key, sum_str


class Algebra:
    """Associative unital algebra given by structure constants on a basis."""

    def __init__(self, name, domain: Domain, labels, unit_terms, product,
                 label_str=None):
        self.name = name
        self.domain = domain
        self.labels = tuple(labels)
        self.index = {l: i for i, l in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self._unit_terms = {l: c for l, c in unit_terms.items() if not c.is_zero()}
        self._product = product
        self._rows = [{} for _ in self.labels]   # i -> {j: row(i, j)}, filled lazily
        self._constants = {}   # normal_key -> the one Scalar the rows share
        self.label_str = label_str or repr   # basis label -> display string

    @property
    def dim(self) -> int:
        return len(self.labels)

    # -- element constructors -------------------------------------------------
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def unit(self) -> "AlgebraElement":
        return AlgebraElement(self, dict(self._unit_terms))

    def basis(self, label) -> "AlgebraElement":
        if label not in self.index:
            raise KeyError(f"{label!r} is not a basis label of {self.name}")
        return AlgebraElement(self, {label: self.domain.one()})

    def element(self, terms) -> "AlgebraElement":
        for l in terms:
            if l not in self.index:
                raise KeyError(f"{l!r} is not a basis label of {self.name}")
        return AlgebraElement(self, terms)

    # -- structure constants ----------------------------------------------------
    def product_basis(self, l1, l2):
        """Structure constants of l1*l2 as a {label: Scalar} dict, computed
        afresh on every call; row() keeps each result."""
        return {l: c for l, c in self._product(l1, l2).items() if not c.is_zero()}

    def row(self, i: int, j: int) -> tuple:
        """Basis element i times basis element j, as ((k, Scalar), ...) over
        basis indices with zeros dropped; each cell is computed once, and
        equal constants in any cells are one shared Scalar object."""
        cells = self._rows[i]
        hit = cells.get(j)
        if hit is None:
            index, labels, shared = self.index, self.labels, self._constants
            hit = cells[j] = tuple(
                (index[l], shared.setdefault(normal_key(c), c))
                for l, c in self.product_basis(labels[i], labels[j]).items())
        return hit

    def __repr__(self):
        return f"Algebra({self.name}, dim={self.dim})"


class AlgebraElement:
    """Sparse element of an Algebra: {basis label: Scalar}."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {l: c for l, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if other.algebra is not self.algebra:
            raise ValueError(
                f"elements live in different algebras "
                f"({self.algebra.name} vs {other.algebra.name})")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for l, c in other.terms.items():
            accumulate(out, l, c)
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, c) -> "AlgebraElement":
        if isinstance(c, (int, Fraction)):
            c = self.algebra.domain.from_fraction(c)
        if c.is_zero():
            return self.algebra.zero()
        return AlgebraElement(self.algebra, {l: c * v for l, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        alg = self.algebra
        index, labels, row = alg.index, alg.labels, alg.row
        right = [(index[l], c) for l, c in other.terms.items()]
        out = {}
        for l1, c1 in self.terms.items():
            i = index[l1]
            for j, c2 in right:
                cell = row(i, j)
                if cell:
                    c12 = c1 * c2
                    for k, c3 in cell:
                        accumulate(out, labels[k], c12 * c3)
        return AlgebraElement(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __str__(self):
        name = self.algebra.label_str
        return sum_str((name(l), self.terms[l]) for l in sorted(self.terms))

    __repr__ = __str__


# ---------------------------------------------------------------------------
# tensor elements
# ---------------------------------------------------------------------------

class TensorElement:
    """Sparse element of A_1 (x) ... (x) A_k with Scalar coefficients."""

    __slots__ = ("algebras", "terms")

    def __init__(self, algebras, terms=None):
        self.algebras = tuple(algebras)
        domain = self.algebras[0].domain
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if v.__class__ is not Scalar or (v.domain is not domain
                                                 and v.domain != domain):
                    raise ScalarDomainError(
                        f"tensor coefficient {v!r} is not a Scalar of {domain}")
                if not v.is_zero():
                    self.terms[tuple(k)] = v

    @property
    def arity(self) -> int:
        return len(self.algebras)

    @staticmethod
    def of(*factors) -> "TensorElement":
        """Tensor product of AlgebraElements."""
        algebras = tuple(f.algebra for f in factors)
        terms = {}
        for combo in iproduct(*(f.terms.items() for f in factors)):
            key = tuple(l for l, _ in combo)
            c = combo[0][1]
            for _, v in combo[1:]:
                c = c * v
            accumulate(terms, key, c)
        return TensorElement(algebras, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.algebras != other.algebras:
            raise ValueError("tensor elements live over different slot algebras")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(out, k, v)
        return TensorElement(self.algebras, out)

    def scaled(self, c: Scalar) -> "TensorElement":
        return TensorElement(self.algebras,
                             {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.algebras == other.algebras and self.terms == other.terms

    def __str__(self):
        return tensor_str(self.algebras, self.terms)

    __repr__ = __str__


def tensor_str(algebras, terms: dict) -> str:
    """terms {label key: coefficient} as a sum of [l_1 (x) ... (x) l_k]
    over repr-sorted keys; any coefficient with a str() prints."""
    if not terms:
        return "0"
    bits = []
    for k in sorted(terms, key=repr):
        name = " (x) ".join(a.label_str(l) for a, l in zip(algebras, k))
        vs = str(terms[k])
        bits.append(f"[{name}]" if vs == "1" else f"({vs})*[{name}]")
    return " + ".join(bits)


def _add_products(out: dict, c, rows):
    """out += c * (row_1 (x) ... (x) row_k) for ((index, Scalar), ...) rows."""
    for combo in iproduct(*rows):
        s = combo[0][1]
        for _, v in combo[1:]:
            s = s * v
        accumulate(out, tuple(k for k, _ in combo), c * s)


def tensor_multiply(x: TensorElement, y: TensorElement) -> TensorElement:
    """Slot-wise product of two tensor elements of equal arity.

    Keys become basis indices on entry and labels again on exit.  A pair of
    terms is dropped at its first slot whose basis product is zero, before
    any later slot's structure constants are looked up.
    """
    x._check(y)
    algebras = x.algebras
    indices = [a.index for a in algebras]
    ys = [(tuple(ix[l] for ix, l in zip(indices, key)), c)
          for key, c in y.terms.items()]
    out = {}
    for key, cx in x.terms.items():
        kx = [ix[l] for ix, l in zip(indices, key)]
        for ky, cy in ys:
            rows = []
            for a, i, j in zip(algebras, kx, ky):
                rows.append(a.row(i, j))
                if not rows[-1]:
                    break
            else:
                _add_products(out, cx * cy, rows)
    labels = [a.labels for a in algebras]
    return TensorElement(algebras, {
        tuple(ls[k] for ls, k in zip(labels, key)): c for key, c in out.items()})


def embed(x: TensorElement, positions, algebras) -> "TensorElement":
    """Place the legs of x at the given slots of a bigger tensor product.

    `positions` are 0-based target slots, one per leg of x; every other slot
    is filled with the unit of its algebra.  Example: embed(R, (0, 2), (D, D, D))
    builds R_13 in D (x) D (x) D.
    """
    positions = tuple(positions)
    if len(positions) != x.arity:
        raise ValueError("need one target position per tensor leg")
    algebras = tuple(algebras)
    if len(set(positions)) != len(positions) or any(
            not 0 <= p < len(algebras) for p in positions):
        raise ValueError(f"positions {positions} must be distinct slots "
                         f"in 0..{len(algebras) - 1}")
    free = [i for i in range(len(algebras)) if i not in positions]
    units = {i: algebras[i]._unit_terms for i in free}
    out = {}
    for k, c in x.terms.items():
        for combo in iproduct(*(units[i].items() for i in free)):
            key = [None] * len(algebras)
            for pos, l in zip(positions, k):
                key[pos] = l
            cc = c
            for (i, (l, u)) in zip(free, combo):
                key[i] = l
                cc = cc * u
            accumulate(out, tuple(key), cc)
    return TensorElement(algebras, out)


# ---------------------------------------------------------------------------
# structural spot checks
# ---------------------------------------------------------------------------

def differing(left: dict, right: dict) -> set:
    """The key[0]s at which two {(index, ...): Scalar} dicts differ."""
    return set() if left == right else {
        key[0] for key in left.keys() | right.keys()
        if left.get(key) != right.get(key)}


def associativity_violations(algebra: Algebra, memo=None):
    """Basis triples where (ab)c != a(bc), in basis order; empty list means
    associative.  Every cell of the row table is read once, into a local
    index table; for each pair (a, b) both sides for every c are one
    {(c, index): Scalar} dict summed through `memo` (a new one if None)."""
    labels, basis = algebra.labels, range(algebra.dim)
    rows = [[algebra.row(i, j) for j in basis] for i in basis]
    memo = memo or Memo(algebra.domain)
    mul, acc = memo.mul, memo.accumulate
    bad = {(i, j, k) for i, j in iproduct(basis, basis) for k in differing(
        acc(((k, p), mul(c, v)) for m, c in rows[i][j] for k in basis
            for p, v in rows[m][k]),
        acc(((k, p), mul(c, v)) for k in basis for m, c in rows[j][k]
            for p, v in rows[i][m]))}
    return [(labels[i], labels[j], labels[k]) for i, j, k in sorted(bad)]


def unit_violations(algebra: Algebra, memo=None):
    """Basis labels where e*b != b or b*e != b, compared as {index: Scalar}
    dicts summed through `memo` (a new one if None)."""
    memo, row = memo or Memo(algebra.domain), algebra.row
    mul, acc = memo.mul, memo.accumulate
    unit = [(algebra.index[u], memo.intern(c))
            for u, c in algebra._unit_terms.items()]
    return [l for j, l in enumerate(algebra.labels) if not (
        acc((k, mul(c, v)) for u, c in unit for k, v in row(u, j))
        == acc((k, mul(c, v)) for u, c in unit for k, v in row(j, u))
        == {j: algebra.domain.one()})]
