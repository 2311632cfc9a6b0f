"""Bound path algebras of quivers, and the contract of the YBE walk on them.

A path algebra of a quiver bound by the paths longer than L (Assem, Simson
and Skowronski, *Elements of the Representation Theory of Associative
Algebras*, vol. 1, ch. II) has a sparsity pattern, a placement of classes
and a unit of several terms that neither M_d nor the double has.
check_walk_contract() compares ybe.residual on such an algebra with the
element-product reference; strategies.path_algebra_cases() draws the
random cases that test_path_algebras.py fuzzes it with, and test_ybe.py
runs it on fixed ones.
"""

from functools import partial

from hopfbax.algebra import Algebra, TensorElement
from hopfbax.ybe import residual, ybe_residual

from reference_ybe import reference_residual


def _target(arrows, path):
    s, p = path
    return arrows[p[-1]][1] if p else s


def quiver_paths(vertices, arrows, length):
    """The paths of at most `length` arrows of the quiver on `vertices`
    vertices with arrows [(source, target)], as (source, arrow numbers),
    the vertices (v, ()) first and then by length."""
    paths, frontier = [], [(v, ()) for v in range(vertices)]
    for _ in range(length + 1):
        paths += frontier
        frontier = [(s, (*p, a)) for s, p in frontier
                    for a, (u, _) in enumerate(arrows)
                    if u == _target(arrows, (s, p))]
    return paths


def path_algebra(vertices, arrows, length, q, unclassed=((), ())):
    """The path algebra of a quiver bound by the paths longer than
    `length`, twisted by q: its basis is quiver_paths(), and
    p r = q^{|p||r|} (p r) when p ends where r starts and
    |p| + |r| <= length, and 0 otherwise.  The twist keeps it
    associative, as |p||r| + (|p| + |r|)|s| is symmetric in p, r and s.
    The unit is the sum of the vertices.  A path's left class is its
    source and its right class its target, except that the paths numbered
    in unclassed[0] (unclassed[1]) declare a left (right) class None."""
    paths = quiver_paths(vertices, arrows, length)
    target = partial(_target, arrows)

    def product(x, y):
        if target(x) != y[0] or len(x[1]) + len(y[1]) > length:
            return {}
        return {(x[0], x[1] + y[1]): q ** (len(x[1]) * len(y[1]))}

    sides = tuple(tuple(None if i in drop else end(p)
                        for i, p in enumerate(paths))
                  for end, drop in zip((lambda p: p[0], target), unclassed))
    one = q.domain.one()
    return Algebra(f"path algebra of {arrows} bound at {length}", q.domain,
                   paths, {(v, ()): one for v in range(vertices)}, product,
                   sides=sides)


def coefficients(domain):
    """The coefficients of random families: 1 twice, so that a product
    with 1 on one operand only is common."""
    q, one = domain.q(), domain.one()
    return (one, one, -one, domain.from_fraction(2), q, one + q)


def reference_by_index(alg, placed, sides) -> dict:
    """reference_residual() for families and keys over basis numbers."""
    labels, index = alg.labels, alg.index
    placed = [({e: TensorElement((alg, alg), {
        (labels[i], labels[j]): c for (i, j), c in block.items()})
        for e, block in family.items()}, slots) for family, slots in placed]
    return {(*map(index.get, key), mu, nu): v
            for (key, mu, nu), v in reference_residual(
                alg, placed, sides).items()}


# each side of the YBE and of the braid relation in both brackets
YBE_SIDES = ((((0, 1), 2), ((2, 1), 0)), ((0, (1, 2)), ((2, 1), 0)),
             ((0, (1, 2)), (2, (1, 0))))
BRAID_SIDES = ((((0, 1), 0), ((1, 0), 1)), ((0, (1, 0)), (1, (0, 1))))


def check_walk_contract(alg, families, blocks):
    """The classes of alg rule out only empty cells, and residual() under
    the YBE and braid placements of three families {(e_mu, e_nu):
    {(i, j): Scalar}}, and ybe_residual() of the parametric family of
    blocks {e: {(i, j): Scalar}}, equal the reference in every bracket."""
    left, right = alg.sides
    for i in range(alg.dim):
        for j in range(alg.dim):
            if None not in (right[i], left[j]) and right[i] != left[j]:
                assert not alg.row(i, j), (i, j)
    slots = ((0, 1), (0, 2), (1, 2))
    ybe = list(zip(families, slots))
    braid = [(families[0], (0, 1)), (families[1], (1, 2))]
    parametric = [({(e * a, e * b): t for e, t in blocks.items()}, s)
                  for (a, b), s in zip(((1, 0), (1, 1), (0, 1)), slots)]
    for placed, brackets, walk in (
            (ybe, YBE_SIDES, partial(residual, alg, ybe)),
            (braid, BRAID_SIDES, partial(residual, alg, braid)),
            (parametric, YBE_SIDES, partial(ybe_residual, alg, blocks, True))):
        for sides in brackets:
            assert walk(sides) == reference_by_index(alg, placed, sides), sides
