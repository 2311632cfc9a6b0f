"""The spin-j modules of U_q[sl(2)] beyond the package's spin_half and
spin_one, shared by the tests."""

from hopfbax import SQRT_Q, WeightedRep, q_number


def spin_rep(two_j):
    """Spin j = two_j/2 in the gauge e_{i-1,i} = [i][d-i], f_{i,i-1} = 1."""
    d = two_j + 1
    q = SQRT_Q.q()
    e = {(i - 1, i): q_number(i, q) * q_number(d - i, q) for i in range(1, d)}
    f = {(i, i - 1): SQRT_Q.one() for i in range(1, d)}
    return WeightedRep(f"spin-{two_j}/2",
                       tuple(d - 1 - 2 * i for i in range(d)), e, f)
