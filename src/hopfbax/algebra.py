"""Finite-dimensional algebras over exact scalars, and tensor powers.

An Algebra is a basis (hashable, orderable labels) plus structure constants:
``product(l1, l2) -> {label: Scalar}``.  Labels are numbered once, in basis
order, and the structure constants are read by number: ``row(i, j)`` is the
product of basis elements i and j as ``((k, Scalar), ...)``, computed on
first use and kept.  Elements are sparse dictionaries over basis labels.
TensorElement holds elements of tensor products of (possibly different)
algebras, with ParamScalar coefficients so that the same code path serves
constant and spectral-parameter-dependent objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from .scalars import Scalar, ParamScalar, Domain, accumulate, as_param_scalar


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
        basis indices with zeros dropped; each cell is computed once."""
        cells = self._rows[i]
        hit = cells.get(j)
        if hit is None:
            index, labels = self.index, self.labels
            hit = cells[j] = tuple(
                (index[l], c)
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
        if not self.terms:
            return "0"
        bits = []
        for l in sorted(self.terms):
            c = self.terms[l]
            name = self.algebra.label_str(l)
            cs = str(c)
            bits.append(name if c.is_one() else
                        (f"({cs})*{name}" if " " in cs else f"{cs}*{name}"))
        return " + ".join(bits)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# tensor elements
# ---------------------------------------------------------------------------

class TensorElement:
    """Sparse element of A_1 (x) ... (x) A_k with ParamScalar coefficients."""

    __slots__ = ("algebras", "terms")

    def __init__(self, algebras, terms=None):
        self.algebras = tuple(algebras)
        domain = self.algebras[0].domain
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = as_param_scalar(v, domain)
                if not v.is_zero():
                    self.terms[tuple(k)] = v

    @property
    def arity(self) -> int:
        return len(self.algebras)

    @property
    def domain(self):
        return self.algebras[0].domain

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

    def __neg__(self):
        return TensorElement(self.algebras, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, c) -> "TensorElement":
        c = as_param_scalar(c, self.domain)
        return TensorElement(self.algebras,
                             {k: c * v for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar, ParamScalar)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.algebras == other.algebras and self.terms == other.terms

    def map_coefficients(self, fn) -> "TensorElement":
        return TensorElement(self.algebras,
                             {k: fn(v) for k, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, key=repr):
            v = self.terms[k]
            name = " (x) ".join(a.label_str(l) for a, l in zip(self.algebras, k))
            vs = str(v)
            bits.append(f"[{name}]" if vs == "1" else f"({vs})*[{name}]")
        return " + ".join(bits)

    __repr__ = __str__


def _slot_trie(t: TensorElement) -> dict:
    """The terms of t over basis indices, nested slot by slot as
    {i_1: {i_2: ... {i_k: c}}}."""
    *upper, bottom = [a.index for a in t.algebras]
    trie = {}
    for key, c in t.terms.items():
        node = trie
        for ix, l in zip(upper, key):
            i = ix[l]
            child = node.get(i)
            if child is None:
                child = node[i] = {}
            node = child
        node[bottom[key[-1]]] = c
    return trie


def _add_products(out: dict, c, rows):
    """out += c * (row_1 (x) ... (x) row_k) for ((index, Scalar), ...) rows."""
    for combo in iproduct(*rows):
        s = combo[0][1]
        for _, v in combo[1:]:
            s = s * v
        accumulate(out, tuple(k for k, _ in combo), c * s)


def tensor_multiply(x: TensorElement, y: TensorElement) -> TensorElement:
    """Slot-wise product of two tensor elements of equal arity.

    Keys become basis indices on entry and labels again on exit.  The terms
    of x and of y are each nested slot by slot (see _slot_trie) and the two
    nestings are walked together: a zero basis product in one slot drops
    every pair of terms below it before any later slot is looked up, and
    coefficients are multiplied only for the pairs whose products are
    nonzero in every slot.
    """
    x._check(y)
    algebras = x.algebras
    last = len(algebras) - 1
    out = {}
    stack = [(_slot_trie(x), _slot_trie(y), ())]   # (nodes of both, rows above)
    while stack:
        xnode, ynode, rows = stack.pop()
        s = len(rows)
        alg = algebras[s]
        table, fill = alg._rows, alg.row
        for i, xbelow in xnode.items():
            cells = table[i]
            for j, ybelow in ynode.items():
                row = cells.get(j)
                if row is None:
                    row = fill(i, j)
                if not row:
                    continue
                if s < last:
                    stack.append((xbelow, ybelow, rows + (row,)))
                else:
                    _add_products(out, xbelow * ybelow, rows + (row,))
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

def _times_basis(algebra: Algebra, terms, j: int, terms_first: bool) -> dict:
    """terms * basis j (terms_first) or basis j * terms, for (index, Scalar)
    pairs, as {index: Scalar}."""
    row = algebra.row
    out = {}
    for m, c in terms:
        for k, v in (row(m, j) if terms_first else row(j, m)):
            accumulate(out, k, c * v)
    return out


def associativity_violations(algebra: Algebra, triples=None):
    """Basis triples where (ab)c != a(bc); empty list means associative."""
    labels, index, row = algebra.labels, algebra.index, algebra.row
    if triples is None:
        triples = iproduct(labels, labels, labels)
    bad = []
    for l1, l2, l3 in triples:
        i, j, k = index[l1], index[l2], index[l3]
        if (_times_basis(algebra, row(i, j), k, True)
                != _times_basis(algebra, row(j, k), i, False)):
            bad.append((l1, l2, l3))
    return bad


def unit_violations(algebra: Algebra):
    """Basis labels where e*b != b or b*e != b."""
    index, one = algebra.index, algebra.domain.one()
    unit = [(index[l], c) for l, c in algebra._unit_terms.items()]
    bad = []
    for j, l in enumerate(algebra.labels):
        b = {j: one}
        if (_times_basis(algebra, unit, j, True) != b
                or _times_basis(algebra, unit, j, False) != b):
            bad.append(l)
    return bad
