"""Turning graded constant R-elements into spectral-parameter families.

If R = sum_i R_i solves the constant Yang-Baxter equation and each R_i
lies in A^i (x) B^i for multiplicative gradings A = (+) A^i, B = (+) B^i,
then

    R(mu) = sum_i mu^i R_i

solves the parametric equation R_12(mu) R_13(mu nu) R_23(nu) =
R_23(nu) R_13(mu nu) R_12(mu).  The same works for Z^n gradings with
mu^{tau(i)} weights for any additive tau: Z^n -> Z.

A family R(mu) is held as the dict {e: R_e} of its constant blocks, one
TensorElement per mu-exponent e that occurs.

``decompose_graded`` performs the required diagonal split and fails with
NotDiagonallyGraded (naming the offending term) when the two legs of some
term sit in different degrees, which is exactly the situation where the
weighting trick is not available.
"""

from __future__ import annotations

from functools import reduce

from .algebra import TensorElement
from .hopf import Grading, _deg_add, _deg_zero


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


def _weighted_sum(graded: dict, weight) -> dict:
    """{e: sum of the blocks R_p with weight(p) = e} over the degree blocks."""
    if not graded:
        raise ValueError("nothing to Baxterize: empty decomposition")
    out = {}
    for d, te in graded.items():
        e = weight(d)
        out[e] = out[e] + te if e in out else te
    return dict(sorted(out.items()))


def baxterize(graded: dict) -> dict:
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


def baxterize_zn(graded: dict, tau) -> dict:
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


def mu_components(r_mu: dict) -> dict:
    """The nonzero blocks {e: R_e} of a family R(mu) = sum_e mu^e R_e, in
    exponent order.  Anything but a nonempty {int: TensorElement} dict is
    refused: TypeError for another type, ValueError otherwise."""
    if not isinstance(r_mu, dict) or not all(
            isinstance(te, TensorElement) for te in r_mu.values()):
        raise TypeError("not a family: a family R(mu) = sum_e mu^e R_e is a "
                        f"dict {{e: TensorElement}}, got {type(r_mu).__name__}")
    if not r_mu:
        raise ValueError("empty family: a family needs at least one block")
    for e in r_mu:
        if type(e) is not int:
            raise ValueError(f"family key {e!r} is not a mu-exponent: "
                             "the family must depend on mu only")
    return {e: te for e, te in sorted(r_mu.items()) if te.terms}


def evaluate_at_one(r_mu: dict) -> TensorElement:
    """Specialize mu = 1: the sum of the blocks of a family."""
    mu_components(r_mu)
    return reduce(TensorElement.__add__, r_mu.values())
