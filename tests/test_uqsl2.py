import pytest

from hopfbax import (
    SQRT_Q,
    SqrtExt,
    WeightedRep,
    braid_check,
    check_constant_ybe,
    check_parametric_ybe,
    parse_param_scalar,
    r_matrix_terms,
    spin_half,
    spin_one,
    uqsl2_r_matrix,
)

ONE = SQRT_Q.one()
Q = SQRT_Q.q()
S = SQRT_Q.s()


# ---------------------------------------------------------------------------
# the quadratic extension carrying sqrt(q + 1/q)
# ---------------------------------------------------------------------------

def test_sqrt_ext_square_is_q_plus_qinv():
    r = SqrtExt.root()
    sq = r * r
    assert sq.b.is_zero()
    assert sq.a == Q + Q ** -1
    assert sq.even_part() == Q + Q ** -1


def test_sqrt_ext_arithmetic():
    r = SqrtExt.root()
    x = SqrtExt.of(Q) + r
    y = SqrtExt.of(ONE) - r
    prod = x * y
    # (q + r)(1 - r) = q - (q + 1/q) + (1 - q) r
    assert prod.a == Q - (Q + Q ** -1)
    assert prod.b == ONE - Q
    assert (x - x).is_zero()
    assert (-r + r).is_zero()


def test_sqrt_ext_even_part_guards():
    with pytest.raises(ValueError):
        SqrtExt.root().even_part()
    assert SqrtExt.of(S).even_part() == S


# ---------------------------------------------------------------------------
# module validation
# ---------------------------------------------------------------------------

def test_spin_modules_validate():
    h = spin_half()
    assert h.weights == (1, -1) and h.dim == 2
    o = spin_one()
    assert o.weights == (2, 0, -2) and o.dim == 3


def test_weighted_rep_rejects_bad_weight_ladder():
    one = SqrtExt.of(ONE)
    with pytest.raises(ValueError):
        # weights differ by 4, not 2, across the raising link
        WeightedRep("bad", (3, -1), {(0, 1): one}, {(1, 0): one})


def test_weighted_rep_rejects_wrong_ef_commutator():
    one = SqrtExt.of(ONE)
    # spin-1 shape but without the sqrt(q + 1/q) normalization:
    # [e, f] then equals diag(1, 0, -1) instead of diag([2]_q, 0, -[2]_q)
    with pytest.raises(ValueError):
        WeightedRep("unnormalized", (2, 0, -2),
                    {(0, 1): one, (1, 2): one},
                    {(1, 0): one, (2, 1): one})


def test_weighted_rep_rejects_non_nilpotent():
    one = SqrtExt.of(ONE)
    with pytest.raises(ValueError):
        # e maps the top weight to itself: weight difference 0
        WeightedRep("loop", (1, -1), {(0, 0): one}, {(1, 0): one})


def test_ef_commutator_value_spin_half():
    h = spin_half()
    comm = {}
    from hopfbax.matrices import matmul_entries
    for k, v in matmul_entries(h.e, h.f).items():
        comm[k] = v
    for k, v in matmul_entries(h.f, h.e).items():
        comm[k] = comm.get(k, SqrtExt.of(SQRT_Q.zero())) - v
    assert comm[(0, 0)].even_part() == ONE
    assert comm[(1, 1)].even_part() == -ONE


# ---------------------------------------------------------------------------
# R-matrices
# ---------------------------------------------------------------------------

def test_series_terminates_with_nilpotency():
    assert sorted(r_matrix_terms(spin_half())) == [0, 1]
    assert sorted(r_matrix_terms(spin_one())) == [0, 1, 2]


def test_spin_half_entries(r_half):
    assert r_half.dim == 4
    assert r_half.get(0, 0) == parse_param_scalar("s", SQRT_Q)
    assert r_half.get(1, 1) == parse_param_scalar("1/s", SQRT_Q)
    assert r_half.get(2, 2) == parse_param_scalar("1/s", SQRT_Q)
    assert r_half.get(3, 3) == parse_param_scalar("s", SQRT_Q)
    assert r_half.get(1, 2) == parse_param_scalar("mu*(q - q^-1)/s", SQRT_Q)
    assert len(r_half.support()) == 5


def test_spin_one_entries(r_one):
    assert r_one.dim == 9
    diag = ["q^2", "1", "q^-2", "1", "1", "1", "q^-2", "1", "q^2"]
    for k, text in enumerate(diag):
        assert r_one.get(k, k) == parse_param_scalar(text, SQRT_Q)
    hop = parse_param_scalar("mu*(q^2 - q^-2)", SQRT_Q)
    assert r_one.get(1, 3) == hop
    assert r_one.get(4, 6) == hop
    assert r_one.get(5, 7) == hop
    assert r_one.get(2, 4) == parse_param_scalar(
        "mu*q^-2*(q^2 - q^-2)", SQRT_Q)
    assert r_one.get(2, 6) == parse_param_scalar(
        "mu^2*q^-1*(q - q^-1)^2*(q + q^-1)", SQRT_Q)
    # entries are Laurent in q: the sqrt factors provably cancel
    assert len(r_one.support()) == 14


def test_spin_one_entries_even_in_s(r_one):
    from hopfbax import eval_q_powers
    from hopfbax import cyclotomic
    target = cyclotomic(8).q()
    for (r, c) in r_one.support():
        for coeff in r_one.get(r, c).terms.values():
            eval_q_powers(coeff, target)  # raises on odd s-powers


def test_spin_half_constant_ybe_and_braid(r_half):
    const = r_half.at_one()
    assert check_constant_ybe(const).passed
    assert braid_check(const).passed


def test_spin_matrices_solve_parametric_ybe(r_half, r_one):
    assert check_parametric_ybe(r_half).passed
    assert check_parametric_ybe(r_one).passed


def test_parametric_specializes_to_constant():
    for rep in (spin_half(), spin_one()):
        para = uqsl2_r_matrix(rep, parametric=True)
        const = uqsl2_r_matrix(rep, parametric=False)
        assert para.at_one() == const
        assert para != const
        terms = r_matrix_terms(rep)
        acc = None
        for t in terms.values():
            acc = t if acc is None else acc + t
        assert acc == const
