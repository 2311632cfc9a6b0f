"""Turning graded constant R-elements into spectral-parameter families.

If R = sum_i R_i solves the constant Yang-Baxter equation and each R_i
lies in A^i (x) B^i for multiplicative gradings A = (+) A^i, B = (+) B^i,
then

    R(mu) = sum_i mu^i R_i

solves the parametric equation R_12(mu) R_13(mu nu) R_23(nu) =
R_23(nu) R_13(mu nu) R_12(mu).  The same works for Z^n gradings with
mu^{tau(i)} weights for any additive tau: Z^n -> Z.

``decompose_graded`` performs the required diagonal split and fails with
NotDiagonallyGraded (naming the offending term) when the two legs of some
term sit in different degrees, which is exactly the situation where the
weighting trick is not available.
"""

from __future__ import annotations

from .algebra import TensorElement
from .hopf import Grading, _deg_add, _deg_zero
from .scalars import ParamScalar


class NotDiagonallyGraded(ValueError):
    """Raised when some term g (x) f has deg(g) != deg(f)."""


def decompose_graded(r: TensorElement, left: Grading,
                     right: Grading) -> dict:
    """Split r = sum_i r_i, r_i in (degree i) (x) (degree i), as {i: r_i}."""
    if r.arity != 2:
        raise ValueError("degree decomposition expects a two-leg element")
    blocks = {}
    for (l0, l1), c in r.terms.items():
        d0 = left.degree(l0)
        d1 = right.degree(l1)
        if d0 != d1:
            raise NotDiagonallyGraded(
                f"term {left.algebra.label_str(l0)} (x) "
                f"{right.algebra.label_str(l1)} has left degree {d0} "
                f"but right degree {d1}")
        blocks.setdefault(d0, {})[(l0, l1)] = c
    return {d: TensorElement(r.algebras, t) for d, t in blocks.items()}


def _weighted_sum(graded: dict, weight) -> TensorElement:
    """sum_p mu^weight(p) R_p over the degree blocks R_p."""
    out = None
    for d, te in graded.items():
        piece = te.scaled(ParamScalar.monomial(te.domain.one(), weight(d), 0))
        out = piece if out is None else out + piece
    if out is None:
        raise ValueError("nothing to Baxterize: empty decomposition")
    return out


def baxterize(graded: dict) -> TensorElement:
    """R(mu) = sum_i mu^i R_i for an integer-graded decomposition."""
    for d in graded:
        if not isinstance(d, int):
            raise TypeError(
                f"degree {d!r} is not an integer; use baxterize_zn with a "
                "weight functional")
    return _weighted_sum(graded, lambda d: d)


def _as_tau(tau):
    if callable(tau):
        return tau
    weights = tuple(tau)
    return lambda d: sum(w * c for w, c in zip(weights, d))


def baxterize_zn(graded: dict, tau) -> TensorElement:
    """R(mu) = sum_p mu^{tau(p)} R_p for a Z^n-graded decomposition.

    tau may be a callable or a weight vector (c_1, ..., c_n) encoding
    tau(p) = sum_k c_k p_k.  Additivity of a callable tau is spot-checked
    on the degrees that actually occur; a non-additive tau would silently
    break the parametric equation otherwise.
    """
    fn = _as_tau(tau)
    degs = list(graded)
    if degs:
        z = _deg_zero(degs[0])
        if fn(z) != 0:
            raise ValueError(f"tau({z}) = {fn(z)} != 0; tau must be additive")
        for p in degs:
            for r in degs:
                if fn(_deg_add(p, r)) != fn(p) + fn(r):
                    raise ValueError(
                        f"tau is not additive: tau({p}+{r}) != tau({p})+tau({r})")
    return _weighted_sum(graded, fn)


def mu_components(r: TensorElement) -> dict:
    """Split a mu-dependent element into {power: constant element}."""
    powers = set()
    for c in r.terms.values():
        for (e_mu, e_nu) in c.terms:
            if e_nu:
                raise ValueError("element depends on nu; expected mu only")
            powers.add(e_mu)
    out = {}
    for p in sorted(powers):
        comp = r.map_coefficients(lambda c: c.mu_component(p))
        if comp.terms:
            out[p] = comp
    return out


def evaluate_at_one(r: TensorElement) -> TensorElement:
    """Specialize mu = nu = 1, collapsing a family to a constant element."""
    return r.map_coefficients(lambda c: ParamScalar.constant(c.at_one()))
