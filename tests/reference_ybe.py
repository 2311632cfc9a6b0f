"""The YBE residual by element products, the reference of the walk tests.

hopfbax.ybe walks one trie of basis numbers through the algebra's row
table.  This expands the same residual the plain way: each placed family
is embedded into A (x) A (x) A as TensorElements over labels, and each side
is one tensor_multiply per pair of exponent blocks, in the side's bracket.
test_ybe.py compares it with ybe.residual, and test_double.py with the
algebraic checks of the double.
"""

from hopfbax.algebra import embed, tensor_multiply
from hopfbax.scalars import accumulate


def reference_residual(alg, placed, sides) -> dict:
    """{(label key, e_mu, e_nu): nonzero Scalar}: the product of the
    placed families named by sides[0] minus that named by sides[1].  Each
    placed entry is ({(e_mu, e_nu): TensorElement over (alg, alg)}, slots),
    and each side is three positions in placed, bracketed as ybe.residual
    takes them: ((x, y), z) multiplies (x y) z, and (x, (y, z)) x (y z)."""
    algs = (alg,) * 3
    legs = [[(e, embed(t, slots, algs)) for e, t in family.items()]
            for family, slots in placed]

    def product(side):
        """[((e_mu, e_nu), TensorElement)]: one term per exponent block."""
        if isinstance(side, int):
            return legs[side]
        return [((a + c, b + d), tensor_multiply(tx, ty))
                for (a, b), tx in product(side[0])
                for (c, d), ty in product(side[1])]

    out = {}
    for side, neg in zip(sides, (False, True)):
        for (mu, nu), t in product(side):
            for key, v in t.terms.items():
                accumulate(out, (key, mu, nu), -v if neg else v)
    return out
