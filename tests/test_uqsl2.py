import pytest

from hopfbax import (
    SQRT_Q,
    ParamScalar,
    Scalar,
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
from hopfbax import regressions
from hopfbax.matrices import matmul_entries, matrix_powers
from hopfbax.scalars import accumulate
from hopfbax.uqsl2 import spin_rep

ONE = SQRT_Q.one()
Q = SQRT_Q.q()


# ---------------------------------------------------------------------------
# module validation
# ---------------------------------------------------------------------------

def test_spin_modules_validate():
    h = spin_half()
    assert h.weights == (1, -1) and h.dim == 2
    o = spin_one()
    assert o.weights == (2, 0, -2) and o.dim == 3


def test_weighted_rep_rejects_bad_weight_ladder():
    with pytest.raises(ValueError):
        # weights differ by 4, not 2, across the raising link
        WeightedRep("bad", (3, -1), {(0, 1): ONE}, {(1, 0): ONE})


def test_weighted_rep_rejects_wrong_ef_commutator():
    # spin-1 shape but with 1 in place of [2]_q on e:
    # [e, f] then equals diag(1, 0, -1) instead of diag([2]_q, 0, -[2]_q)
    with pytest.raises(ValueError):
        WeightedRep("unnormalized", (2, 0, -2),
                    {(0, 1): ONE, (1, 2): ONE},
                    {(1, 0): ONE, (2, 1): ONE})


def test_weighted_rep_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        # e maps the top weight to itself: weight difference 0
        WeightedRep("loop", (1, -1), {(0, 0): ONE}, {(1, 0): ONE})


def test_weighted_rep_rejects_f_that_breaks_only_its_weight_rule():
    # f + I keeps [e, f] (I commutes with e) and is not nilpotent; only the
    # [h, f] = -2f check sees it
    o = spin_one()
    f = {**o.f, **{(k, k): ONE for k in range(3)}}
    comm = matmul_entries(o.e, f)
    for k, v in matmul_entries(f, o.e).items():
        accumulate(comm, k, -v)
    assert comm == {(0, 0): Q + Q ** -1, (2, 2): -(Q + Q ** -1)}
    with pytest.raises(ValueError, match=r"\[h,f\] = -2f"):
        WeightedRep("f + I", o.weights, o.e, f)


@pytest.mark.parametrize("two_j", range(7))
def test_spin_rep_is_nilpotent_of_order_dim(two_j):
    # WeightedRep runs no nilpotency check: its weight checks imply this
    rep = spin_rep(two_j)
    assert rep.dim == two_j + 1
    assert rep.weights == tuple(range(two_j, -two_j - 1, -2))
    for m, powers in ((rep.e, rep.e_powers), (rep.f, rep.f_powers)):
        assert len(powers) == rep.dim
        assert powers[-1] and matmul_entries(powers[-1], m) == {}


def test_spin_rep_names_and_the_two_cli_spins():
    assert [spin_rep(k).name for k in range(5)] == [
        "spin-0", "spin-1/2", "spin-1", "spin-3/2", "spin-2"]
    h, o = spin_half(), spin_one()
    assert (h.name, h.e, h.f) == ("spin-1/2", {(0, 1): ONE}, {(1, 0): ONE})
    assert o.name == "spin-1"


def test_ef_commutator_value_spin_half():
    h = spin_half()
    comm = matmul_entries(h.e, h.f)
    for k, v in matmul_entries(h.f, h.e).items():
        accumulate(comm, k, -v)
    assert comm == {(0, 0): ONE, (1, 1): -ONE}


def test_spin_one_ladder_is_two_up_one_down():
    # e = [2]_q E, f = F: every entry lies in Q(s), no square root of [2]_q
    o = spin_one()
    two = Q + Q ** -1
    assert o.e == {(0, 1): two, (1, 2): two}
    assert o.f == {(1, 0): ONE, (2, 1): ONE}
    assert all(isinstance(v, Scalar) for m in (o.e, o.f) for v in m.values())


def test_series_reads_the_powers_of_the_validation(monkeypatch):
    import hopfbax.uqsl2 as uqsl2
    # the tables end at m^(dim-1), the last power that can be nonzero
    o = spin_one()
    assert len(o.e_powers) == len(o.f_powers) == 3
    assert o.e_powers[2] == {(0, 2): (Q + Q ** -1) ** 2}
    assert o.f_powers[2] == {(2, 0): ONE}
    monkeypatch.setattr(uqsl2, "matrix_powers", None)   # no second power loop
    assert sorted(r_matrix_terms(o)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# R-matrices
# ---------------------------------------------------------------------------

def test_matrix_powers_start_from_the_matrix():
    e = spin_one().e
    ident = {"never": "multiplied"}
    pows = matrix_powers(e, 3, ident)
    assert pows[0] is ident and pows[1] is e
    assert pows[2] == matmul_entries(e, e) and pows[2] and not pows[3]
    assert matrix_powers(e, 0, ident) == [ident]


def test_series_terminates_with_nilpotency():
    assert sorted(r_matrix_terms(spin_half())) == [0, 1]
    terms = r_matrix_terms(spin_one())
    assert sorted(terms) == [0, 1, 2]
    assert all(isinstance(c, Scalar) for t in terms.values() for c in t.values())


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
        "mu^2*q^-1*(q - q^-1)*(q - q^-1)*(q + q^-1)", SQRT_Q)
    # entries are Laurent in q
    assert len(r_one.support()) == 14


def test_spin_one_reference_mu_squared_entry():
    # the frozen (3,7) entry, spelt with no power of a sum, is still
    # mu^2 q^-1 (q - q^-1)^2 (q + q^-1), here built without the parser
    q, mu = ParamScalar.constant(SQRT_Q.q()), ParamScalar.mu(SQRT_Q)
    want = mu ** 2 * q ** -1 * (q - q ** -1) ** 2 * (q + q ** -1)
    assert regressions.reference_spin_one().get(2, 6) == want


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
        total = {}
        for term in r_matrix_terms(rep).values():
            for k, c in term.items():
                accumulate(total, k, c)
        assert const.blocks() == {0: total}
