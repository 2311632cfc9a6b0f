"""The YBE residual by element products, the reference of the walk tests.

hopfbax.ybe walks one trie of basis numbers through the algebra's row
table.  This expands the same residual the plain way: each placed family
is embedded into A (x) A (x) A as TensorElements over labels, and each side
is one tensor_multiply per pair and per triple of exponent blocks.
test_ybe.py compares it with ybe.residual, and test_double.py with the
algebraic checks of the double.
"""

from hopfbax.algebra import embed, tensor_multiply
from hopfbax.scalars import accumulate


def reference_residual(alg, placed, sides) -> dict:
    """{(label key, e_mu, e_nu): nonzero Scalar}: the products of the
    placed families named by sides[0] minus those named by sides[1].  Each
    placed entry is ({(e_mu, e_nu): TensorElement over (alg, alg)}, slots),
    and each side is a triple of positions in placed."""
    algs = (alg,) * 3
    legs = [{e: embed(t, slots, algs) for e, t in family.items()}
            for family, slots in placed]
    out = {}
    for (x, y, z), neg in zip(sides, (False, True)):
        for (a, b), tx in legs[x].items():
            for (c, d), ty in legs[y].items():
                txy = tensor_multiply(tx, ty)
                for (e, f), tz in legs[z].items():
                    for key, v in tensor_multiply(txy, tz).terms.items():
                        accumulate(out, (key, a + c + e, b + d + f),
                                   -v if neg else v)
    return out
