"""Taft Hopf algebras T_{N,q} and their double's representations.

T_{N,q} is the N^2-dimensional Hopf algebra

    < a, x |  a^N = 1,  x^N = 0,  x a = q a x >

with q a primitive N-th root of unity, Delta(a) = a (x) a,
Delta(x) = x (x) 1 + a (x) x, eps(a) = 1, eps(x) = 0, gamma(a) = a^{-1},
gamma(x) = -a^{-1} x.  Basis labels are exponent pairs (i, j) <-> a^i x^j.

The x-degree j is a Z-grading compatible with the coproduct, so the
canonical R of the double Baxterizes with mu^j weights.  Pushing that
through the n-dimensional modules below yields parametric R-matrices.
A module's images are sparse {(row, col): Scalar} dicts; only the
R-matrix, where mu enters, is a ParametricMatrix.

Index conventions for the modules (documented choices):

  * the module V_{n,l} has basis v_1..v_n; a acts diagonally with
    eigenvalue q^{k-l-n} on v_k and x lowers k by one;
  * a dual basis element (a^m x^j)^* acts as E_{i+j,i} / (j)_q! where i is
    the representative of m - l + 1 (mod N) in {1..N}, provided i+j <= n;
  * ``taft_r_matrix(..., normalize=True)`` rescales by the inverse of the
    top-left entry (a unit scalar, q^{l(l+2)} for V_{n,l}); the raw sum
    sum_{i,j} mu^j pi(a^i x^j) (x) pi((a^i x^j)^*) is the normalize=False
    form, and both satisfy the parametric Yang-Baxter equation.
"""

from __future__ import annotations

import weakref
from math import gcd, isqrt

from .algebra import Algebra, TensorElement
from .baxterize import baxterize, decompose_graded, mu_components
from .double import DoubleAlgebra, canonical_r, double_grading
from .hopf import Grading, HopfAlgebra
from .matrices import ParametricMatrix, kron_entries, matmul_entries, \
    matrix_powers
from .scalars import (Scalar, ScalarDomainError, accumulate, cyclotomic,
                      laurent_by_key, q_bracket, q_bracket_factorial)


def canonical_q(N: int) -> Scalar:
    """The generator of Q(zeta_N) as the default primitive root."""
    return cyclotomic(N).q()


def is_primitive_root(q: Scalar, N: int) -> bool:
    p = q.domain.one()
    for k in range(1, N):
        p = p * q
        if p.is_one():
            return False
    return (p * q).is_one()


def _primitive_roots(N: int) -> list:
    """The primitive N-th roots of unity, zeta_N^k for k coprime to N."""
    return [canonical_q(N) ** k for k in range(1, N) if gcd(k, N) == 1]


def build_taft(N: int, q: Scalar | None = None) -> HopfAlgebra:
    """The Taft Hopf algebra on basis {a^i x^j : 0 <= i, j < N}."""
    if N < 2:
        raise ValueError("Taft algebras need N >= 2")
    if q is None:
        q = canonical_q(N)
    if not is_primitive_root(q, N):
        raise ValueError(f"q must be a primitive root of unity of order {N}")
    domain = q.domain
    labels = [(i, j) for i in range(N) for j in range(N)]

    def label_str(lab):
        i, j = lab
        a = "" if not i else ("a" if i == 1 else f"a^{i}")
        x = "" if not j else ("x" if j == 1 else f"x^{j}")
        return (a + x) or "e"

    powers = [q ** k for k in range(N)]   # q^N = 1 was checked above
    # (j choose k)_q by q-Pascal: (j-1 choose k-1)_q + q^k (j-1 choose k)_q
    binomials = [[domain.one()]]
    for j in range(1, N):
        prev = binomials[-1]
        binomials.append([prev[0], *(prev[k - 1] + powers[k] * prev[k]
                                     for k in range(1, j)), prev[0]])

    def product(l1, l2):
        (i, j), (k, l) = l1, l2
        if j + l >= N:
            return {}
        return {((i + k) % N, j + l): powers[j * k % N]}

    alg = Algebra(f"T_{N}", domain, labels, {(0, 0): domain.one()}, product,
                  label_str=label_str)

    coproduct = {}
    counit = {}
    antipode = {}
    for (i, j) in labels:
        terms = {}
        for k in range(j + 1):
            terms[(((j - k + i) % N, k), (i, j - k))] = binomials[j][k]
        coproduct[(i, j)] = TensorElement((alg, alg), terms)
        counit[(i, j)] = domain.one() if j == 0 else domain.zero()
        sign = domain.from_fraction(-1 if j % 2 else 1)
        coeff = sign * powers[-(j * (j - 1) // 2 + i * j) % N]
        antipode[(i, j)] = alg.element({((-i - j) % N, j): coeff})

    return HopfAlgebra(alg, coproduct, counit, antipode)


def x_degree_grading(h: HopfAlgebra) -> Grading:
    """d(a^i x^j) = j: the grading that makes the double Baxterize."""
    return Grading(h.algebra, {lab: lab[1] for lab in h.algebra.labels})


def a_degree_grading(h: HopfAlgebra) -> Grading:
    """d(a^i x^j) = i: a deliberately incompatible control grading."""
    return Grading(h.algebra, {lab: lab[0] for lab in h.algebra.labels})


# ---------------------------------------------------------------------------
# modules over the double
# ---------------------------------------------------------------------------

class RepresentationError(ValueError):
    pass


class Representation:
    """A module of D(T_N): {(row, col): Scalar} images of H, H* and the
    pairs of the double, read in the counit basis of H*."""

    def __init__(self, double: DoubleAlgebra, dim: int, h_images, dual_images,
                 name: str):
        self.double = double
        self.dim = dim
        self.name = name
        self._h = h_images          # (i, j) -> {(row, col): Scalar}
        self._dual = dual_images    # (m, j) -> {(row, col): Scalar}
        self._pair = {}
        (self._eps,) = double.h.algebra._unit_terms

    @property
    def domain(self):
        return self.double.domain

    def h_image(self, label) -> dict:
        return self._h[label]

    def dual_image(self, label) -> dict:
        return self._dual[label]

    def pair_image(self, pair) -> dict:
        """pi(g f) for the pair (g, f) of the double: the label of 1^*
        stands for eps, and pi(eps) = I (see _dual_images)."""
        if pair not in self._pair:
            g, f = pair
            self._pair[pair] = self._h[g] if f == self._eps else \
                matmul_entries(self._h[g], self._dual[f])
        return self._pair[pair]

    def tensor_image(self, te) -> ParametricMatrix:
        """Matrix of an element of D (x) ... (x) D on (C^dim)^arity; a family
        {e: element} (see baxterize.py) maps to sum_e mu^e image(element)."""
        family = te if isinstance(te, dict) else {0: te}
        entries = {}
        for e, block in mu_components(family).items():
            for key, c in block.terms.items():
                m = self.pair_image(key[0])
                for lab in key[1:]:
                    m = kron_entries(m, self.pair_image(lab), self.dim)
                for k, v in m.items():
                    accumulate(entries, (k, e, 0), c * v)
        arity = next(iter(family.values())).arity
        return ParametricMatrix(self.dim ** arity, self.domain,
                                laurent_by_key(entries))


def _first_break(left, right, image, rows):
    """The first (x, y) of the (x, y, terms) rows with left(x) right(y) !=
    sum c * image(z) over the (z, Scalar c) pairs terms, or None."""
    for x, y, terms in rows:
        want = {}
        for z, c in terms:
            for k, v in image(z).items():
                accumulate(want, k, v * c)
        if matmul_entries(left(x), right(y)) != want:
            return x, y
    return None


def check_double_multiplicative(rep: Representation, pairs=None) -> bool:
    """pi(uv) = pi(u) pi(v) over pairs of double basis labels (all if None)."""
    alg = rep.double.algebra
    index, labels = alg.index, alg.labels
    if pairs is None:
        pairs = ((u, v) for u in labels for v in labels)
    rows = ((u, v, ((labels[k], c) for k, c in alg.row(index[u], index[v])))
            for u, v in pairs)
    image = rep.pair_image
    return _first_break(image, image, image, rows) is None


def _dual_images(h: HopfAlgebra, q: Scalar, n: int, l: int) -> dict:
    """(a^m x^j)^* acts as E_{i+j,i} / (j)_q! if i + j <= n, else as 0, where
    i = m - l + 1 (mod N) is in 1..N.  No build checks this map: it is a
    unital algebra map on H* for every N >= 2, primitive q, window l and
    n <= N.  H*'s product is the transpose of Delta (build_taft), so

        (a^p x^k)^* (a^i x^j)^* = (k+j choose k)_q (a^i x^{k+j})^*

    if p = i + j (mod N) and k + j < N, and 0 otherwise.  With windows
    i1, i2 of the factors, E_{i1+k,i1} E_{i2+j,i2} is nonzero only if
    i1 = i2 + j.  If i2 + j > n the second image is 0; otherwise
    i2 + j <= N, so p = i + j (mod N) holds exactly when i1 = i2 + j, and
    the product E_{i2+j+k,i2} / ((k)_q! (j)_q!) is the image
    (k+j choose k)_q / (k+j)_q! E_{i2+j+k,i2} of the right side, as
    (m)_q != 0 for m < N.  Both sides vanish unless i2 + j + k <= n, so
    whenever k + j >= N.  The unit eps = sum_m (a^m)^* goes to
    sum_{i<=n} E_{i,i} = I, as the window of a^m runs over 1..N with m.
    """
    N = isqrt(h.algebra.dim)
    inverses = [q_bracket_factorial(j, q).inverse() for j in range(n)]
    images = {}
    for (m, j) in h.algebra.labels:
        i = (m - l) % N + 1
        images[(m, j)] = {(i + j - 1, i - 1): inverses[j]} if i + j <= n else {}
    return images


def _module(double: DoubleAlgebra, powers, name: str, a_exponents,
            x_entries, l: int) -> Representation:
    """The module with pi(a) = diag(powers[e mod N] : e in a_exponents), powers
    being q^0 .. q^(N-1), pi(x) given by its {(row, col): Scalar} entries,
    pi(a^i x^j) = pi(a)^i pi(x)^j and the dual window l of _dual_images.
    H is not checked: both builders' pi(a), pi(x) satisfy T_N's relations,
    pi(a)^N = 1 (q^N = 1), each pi(x) entry (r, c) has e_c = e_r + 1 mod N
    (x a = q a x) and lies on one chain of at most N vectors (pi(x)^N = 0)."""
    n, N = len(a_exponents), len(powers)
    a_mat = {(k, k): powers[e % N] for k, e in enumerate(a_exponents)}
    x_mat = {k: v for k, v in x_entries.items() if not v.is_zero()}
    ident = {(k, k): powers[0] for k in range(n)}
    pow_a, pow_x = (matrix_powers(m, N - 1, ident) for m in (a_mat, x_mat))
    return Representation(
        double, n, {(i, j): matmul_entries(pow_a[i], pow_x[j])
                    for (i, j) in double.h.algebra.labels},
        _dual_images(double.h, powers[1], n, l), name)


def rep_irreducible(double: DoubleAlgebra, n: int, l: int) -> Representation:
    """The n-dimensional irreducible module V_{n,l} of D(T_N).

    Built from its generator matrices: a acts diagonally with eigenvalue
    q^{k-l-n} on v_k, x v_{k+1} = (k)_q (1 - q^{k-n}) v_k, and
    pi(a^i x^j) = pi(a)^i pi(x)^j.  One check runs, and construction fails
    loudly if it fails: the cross relation pi(f) pi(g) = pi(f.g) for every
    f of H* and g in {x, a}.  It is enough, because pi is an algebra map on
    H by construction (see _module), pi is one on H* by construction (see
    _dual_images), and the default convention's double is associative (see
    test_convention_scan_has_unique_winner): the g for which the relation
    holds for every f then form a subalgebra of H that contains 1, since
    pi(f) pi(g1 g2) = pi(f.g1) pi(g2) = pi((f.g1).g2) = pi(f.(g1 g2)).
    """
    h = double.h
    N = isqrt(h.algebra.dim)
    if not (1 <= n <= N and 1 <= l <= N):
        raise ValueError(f"need 1 <= n, l <= N (got n={n}, l={l}, N={N})")
    q = _taft_q(h)
    powers = [q ** k for k in range(N)]
    rep = _module(double, powers, f"V_{{{n},{l}}}",
                  [k - l - n for k in range(1, n + 1)],
                  {(k - 1, k): q_bracket(k, q) * (powers[0] - powers[k - n])
                   for k in range(1, n)}, l)
    dalg = double.dual_algebra
    broken = _first_break(
        rep.dual_image, rep.h_image,    # pi(v) pi(k^*) for f.g's terms (v, k)
        lambda z: matmul_entries(rep.h_image(z[0]), rep.dual_image(z[1])),
        ((f, g, double._cross_for(g)[f].items())
         for g in ((0, 1), (1, 0)) for f in dalg.labels))    # x, then a
    if broken is not None:
        f, g = broken
        raise RepresentationError(
            f"{rep.name} breaks the straightening rule at "
            f"f={dalg.label_str(f)}, g={h.algebra.label_str(g)}")
    return rep


def rep_indecomposable(double: DoubleAlgebra, alpha: Scalar, l: int) -> Representation:
    """The N-dimensional indecomposable module with wrap parameter alpha.

    a acts diagonally with eigenvalue q^{k-1-l} on v_k; x lowers the index
    cyclically with x v_1 = alpha v_N and x v_2 = 0, the other links
    carrying (k-1)_q (1 - q^k).  Powers of the generator matrices give the
    action of the whole basis, so pi is an algebra map on H by construction
    (see _module) and no check runs.  The dual action reuses the V_{n,l}
    window formula with n = N; no multiplicativity beyond H is promised.
    """
    h = double.h
    N = isqrt(h.algebra.dim)
    if not (1 <= l <= N):
        raise ValueError(f"need 1 <= l <= N (got l={l})")
    q = _taft_q(h)
    if alpha.domain != q.domain:
        raise ScalarDomainError("alpha must live in the algebra's scalar domain")
    powers = [q ** k for k in range(N)]
    links = {(N - 1, 0): alpha}
    for k in range(2, N):
        links[(k - 1, k)] = q_bracket(k - 1, q) * (powers[0] - powers[k])
    return _module(double, powers, f"W_{{{l}}}(alpha)",
                   [k - 1 - l for k in range(1, N + 1)], links, l)


def _taft_q(h: HopfAlgebra) -> Scalar:
    """Recover q from the commutation x a = q a x."""
    alg = h.algebra
    (_, q), = alg.row(alg.index[(0, 1)], alg.index[(1, 0)])
    return q


# ---------------------------------------------------------------------------
# R-matrices through the canonical element
# ---------------------------------------------------------------------------

# R(mu) per double as label-keyed terms: a TensorElement would keep it alive
_R_MU_TERMS = weakref.WeakKeyDictionary()


def canonical_r_mu(double: DoubleAlgebra) -> dict:
    """R(mu) of the double: its canonical R, decomposed along the x-degree
    grading and Baxterized with mu^j weights; computed once per double."""
    terms = _R_MU_TERMS.get(double)
    if terms is None:
        grading = double_grading(double, x_degree_grading(double.h))
        family = baxterize(decompose_graded(canonical_r(double).tensor(),
                                            grading, grading))
        terms = _R_MU_TERMS[double] = {e: t.terms for e, t in family.items()}
    algebras = (double.algebra, double.algebra)
    return {e: TensorElement(algebras, t) for e, t in terms.items()}


def taft_r_matrix(rep: Representation, parametric: bool = True,
                  normalize: bool = True) -> ParametricMatrix:
    """Image of the (Baxterized) canonical R of D(T_N) on V (x) V.

    R(mu) is ``canonical_r_mu`` of the double, pushed through the module.
    With normalize=True the result is rescaled by the inverse of its
    top-left entry (a unit scalar), which is the display normalization of
    the known closed forms; normalize=False returns the raw sum, which is
    what evaluating the un-Baxterized canonical element gives at mu = 1.
    """
    double = rep.double
    mat = rep.tensor_image(canonical_r_mu(double) if parametric
                           else canonical_r(double).tensor())
    if normalize:
        top = mat.get(0, 0)
        if top.uses_parameters() or top.is_zero():
            raise RepresentationError(
                "cannot normalize: top-left entry is zero or parameter-dependent")
        mat = mat.scaled(top.as_scalar().inverse())
    return mat
