import json

import pytest

from hopfbax import (
    ParamScalar,
    ParametricMatrix,
    SQRT_Q,
    ScalarDomainError,
    braid_check,
    check_constant_ybe,
    check_parametric_ybe,
    cyclotomic,
    embed_two_site,
    find_diagonal_gauge,
    flip_operator,
    parse_param_scalar,
)
from hopfbax.regressions import reference_taft_9x9
from hopfbax.scalars import proportionality_ratio
from hopfbax.ybe import worst_matrix_entry


@pytest.mark.parametrize("d", [2, 3])
def test_identity_and_flip_pass(d):
    ident = ParametricMatrix.identity(d * d, SQRT_Q)
    assert check_constant_ybe(ident).passed
    assert braid_check(ident).passed       # B = P satisfies the braid relation
    p = flip_operator(d, SQRT_Q)
    assert check_constant_ybe(p).passed    # P12 P13 P23 = P23 P13 P12
    assert check_parametric_ybe(ident).passed  # degenerate constant family


def test_flip_operator_squares_to_identity():
    p = flip_operator(3, SQRT_Q)
    assert p @ p == ParametricMatrix.identity(9, SQRT_Q)
    # P e_(a,b) = e_(b,a)
    assert p.get(1 * 3 + 2, 2 * 3 + 1).as_scalar().is_one()
    assert p.get(1, 2).is_zero()


def test_matrix_sums_need_equal_dimensions_and_domains():
    i2, i3 = (ParametricMatrix.identity(d, SQRT_Q) for d in (2, 3))
    for a, b in ((i3, i2), (i2, i3)):
        for op in (a.__add__, a.__sub__, a.__matmul__):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(b)
    with pytest.raises(ScalarDomainError):
        i2 + ParametricMatrix.identity(2, cyclotomic(3))
    assert i3 + i3 == i3.scaled(2)
    assert (i3 - i3).is_zero() and (i3 - i3).dim == 3


def test_matrix_entries_keep_the_matrix_domain():
    # a Q(zeta_3) q stored over Q(s) would serialize as "q" and reload as s^2
    m = ParametricMatrix(2, SQRT_Q)
    for c in (cyclotomic(3).q(), ParamScalar.constant(cyclotomic(3).q())):
        with pytest.raises(ScalarDomainError):
            m.set(0, 0, c)
        with pytest.raises(ScalarDomainError):
            ParametricMatrix(2, SQRT_Q, {(0, 1): c})
        with pytest.raises(ScalarDomainError):
            ParametricMatrix.identity(2, SQRT_Q).scaled(c)
    assert m.is_zero()
    m.set(0, 0, SQRT_Q.q())
    assert ParametricMatrix.from_json(m.to_json()) == m


def test_corrupted_entry_fails_with_located_worst(r_half):
    bad = r_half.copy()
    bad.set(1, 2, bad.get(1, 2) * 2)
    report = check_parametric_ybe(bad)
    assert not report.passed
    assert report.residual_terms > 0
    assert report.worst is not None and "(" in report.worst
    # constant check on the corrupted matrix at mu = 1 also fails
    assert not check_constant_ybe(bad.at_one()).passed


def test_report_counts_match_manual_residual(r_half):
    bad = r_half.copy()
    bad.set(0, 0, bad.get(0, 0) * 3)
    report = check_parametric_ybe(bad)
    d = 2
    r12 = embed_two_site(bad, d, (0, 1))
    r13 = embed_two_site(bad.remap_exponents(mu_to=(1, 1)), d, (0, 2))
    r23 = embed_two_site(bad.remap_exponents(mu_to=(0, 1)), d, (1, 2))
    residual = (r12 @ r13 @ r23) - (r23 @ r13 @ r12)
    assert not report.passed
    assert report.residual_terms == len(residual.entries)
    # swapping the two sides flips the sign of the residual
    swapped = (r23 @ r13 @ r12) - (r12 @ r13 @ r23)
    assert swapped == -residual


def test_parametric_rejects_nu_dependence():
    m = ParametricMatrix.identity(4, SQRT_Q)
    m.set(0, 0, ParamScalar.nu(SQRT_Q))
    with pytest.raises(ValueError):
        check_parametric_ybe(m)


def test_non_square_total_dimension_rejected():
    with pytest.raises(ValueError):
        check_constant_ybe(ParametricMatrix.identity(3, SQRT_Q))
    with pytest.raises(ValueError):
        braid_check(ParametricMatrix.identity(8, SQRT_Q))


def test_worst_entry_is_one_based():
    dom = cyclotomic(4)
    m = ParametricMatrix(4, dom)
    m.set(0, 2, dom.q())
    assert worst_matrix_entry(m) == "(1,3): q"
    assert worst_matrix_entry(ParametricMatrix(4, SQRT_Q)) is None


# ---------------------------------------------------------------------------
# leg embeddings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_leg_02_embedding_is_flip_conjugate(d, r_half, r_one):
    r = {2: r_half, 3: r_one}[d]
    p23 = embed_two_site(flip_operator(d, r.domain), d, (1, 2))
    direct = embed_two_site(r, d, (0, 2))
    assert direct == p23 @ embed_two_site(r, d, (0, 1)) @ p23
    p12 = embed_two_site(flip_operator(d, r.domain), d, (0, 1))
    assert embed_two_site(r, d, (1, 2)) == p12 @ direct @ p12


def test_embed_two_site_shapes(r_half):
    ident = ParametricMatrix.identity(2, r_half.domain)
    assert embed_two_site(r_half, 2, (0, 1)) == r_half.kron(ident)
    assert embed_two_site(r_half, 2, (1, 2)) == ident.kron(r_half)
    with pytest.raises(ValueError):
        embed_two_site(r_half, 3, (0, 1))
    with pytest.raises(ValueError):
        embed_two_site(r_half, 2, (1, 0))


# ---------------------------------------------------------------------------
# gauge discovery
# ---------------------------------------------------------------------------

def test_gauge_found_for_constructed_pair(r_half):
    a = r_half
    dom = a.domain
    lam = [dom.from_fraction(k) for k in (1, 2, 3, 5)]
    c = dom.q() ** -2
    b = ParametricMatrix(a.dim, dom)
    for (r, cc), v in a.entries.items():
        b.set(r, cc, ParamScalar.constant(c * lam[r] / lam[cc]) * v)
    got = find_diagonal_gauge(a, b)
    assert got is not None
    c2, lam2 = got
    assert c2 == c
    # the returned gauge reproduces b exactly
    check = ParametricMatrix(a.dim, dom)
    for (r, cc), v in a.entries.items():
        check.set(r, cc, ParamScalar.constant(c2 * lam2[r] / lam2[cc]) * v)
    assert check == b


def test_gauge_rejects_different_support(r_half):
    b = r_half.copy()
    b.set(0, 3, SQRT_Q.one())
    assert find_diagonal_gauge(r_half, b) is None


def test_gauge_rejects_inconsistent_scaling(r_half):
    b = r_half.copy()
    b.set(0, 0, b.get(0, 0) * 2)   # one diagonal entry rescaled alone
    assert find_diagonal_gauge(r_half, b) is None


def test_gauge_identity_pair(r_one):
    got = find_diagonal_gauge(r_one, r_one)
    assert got is not None
    c, _ = got
    assert c.is_one()


def _reference_gauge(a, b):
    """The earlier gauge search, kept as the reference: every diagonal ratio
    must equal c and every off-diagonal ratio must agree with the lambdas
    propagated so far, before the final entry-by-entry verification."""
    if a.dim != b.dim or a.domain != b.domain:
        return None
    if a.support() != b.support():
        return None
    dom = a.domain
    n = a.dim
    c = None
    for (r, cc), v in sorted(a.entries.items()):
        if r == cc:
            ratio = proportionality_ratio(b.entries[(r, cc)], v)
            if ratio is None:
                return None
            if c is None:
                c = ratio
            elif c != ratio:
                return None
    if c is None:
        c = dom.one()
    lam = [None] * n
    edges = {}
    for (r, cc), v in a.entries.items():
        if r == cc:
            continue
        ratio = proportionality_ratio(b.entries[(r, cc)], v)
        if ratio is None:
            return None
        edges.setdefault(r, []).append((cc, ratio / c))
        edges.setdefault(cc, []).append((r, c / ratio))
    for start in range(n):
        if lam[start] is not None or start not in edges:
            continue
        lam[start] = dom.one()
        stack = [start]
        while stack:
            i = stack.pop()
            for j, g in edges.get(i, ()):
                want = lam[i] / g
                if lam[j] is None:
                    lam[j] = want
                    stack.append(j)
                elif lam[j] != want:
                    return None
    lam = [x if x is not None else dom.one() for x in lam]
    cinv = [x.inverse() for x in lam]
    for (r, cc), v in a.entries.items():
        if b.entries[(r, cc)] != ParamScalar.constant(c * lam[r] * cinv[cc]) * v:
            return None
    return c, lam


def _gauge_transform(a, c, lam):
    """c * L a L^-1 with L = diag(lam)."""
    b = ParametricMatrix(a.dim, a.domain)
    for (r, cc), v in a.entries.items():
        b.set(r, cc, ParamScalar.constant(c * lam[r] / lam[cc]) * v)
    return b


def _gauges(dom, dim):
    """Several (c, lambdas): integers, powers of q, and mixed products."""
    q = dom.q()
    return [(dom.one(), [dom.one()] * dim),
            (q ** -2, [dom.from_fraction(k + 1) for k in range(dim)]),
            (dom.from_fraction(3), [q ** (k * k - 3) for k in range(dim)]),
            (q - dom.one(), [dom.from_fraction(-(k % 3) - 1) * q ** (k % 4)
                             for k in reversed(range(dim))])]


def test_gauge_matches_the_propagating_reference(r_half, r_one):
    for a in [r_half, r_one] + [reference_taft_9x9(l) for l in (1, 2, 3, 4)]:
        for c, lam in _gauges(a.domain, a.dim):
            b = _gauge_transform(a, c, lam)
            got = find_diagonal_gauge(a, b)
            assert got is not None
            assert got == _reference_gauge(a, b)
            assert got[0] == c
            assert _gauge_transform(a, *got) == b


def test_gauge_rejects_a_rescaled_cycle_entry(r_one):
    # spin-1's support holds the cycle (3,5), (5,7), (3,7) (1-based): one
    # rescaled entry on it leaves every edge proportional but no gauge fits
    dom = r_one.domain
    for c, lam in _gauges(dom, r_one.dim):
        for key in ((2, 4), (4, 6), (2, 6)):
            b = _gauge_transform(r_one, c, lam)
            b.set(*key, b.get(*key) * 2)
            assert find_diagonal_gauge(r_one, b) is None
            assert _reference_gauge(r_one, b) is None


def test_gauge_rejects_a_mu_term_off_the_diagonal(r_half, r_one):
    # entries hold mu or mu^2, so an added mu^3 makes one entry of b no
    # constant multiple of the entry of a
    mu3 = parse_param_scalar("mu^3", SQRT_Q)
    for a in (r_half, r_one):
        for c, lam in _gauges(a.domain, a.dim):
            for key in a.entries:
                if key[0] == key[1]:
                    continue
                b = _gauge_transform(a, c, lam)
                b.set(*key, b.get(*key) + mu3)
                assert find_diagonal_gauge(a, b) is None
                assert _reference_gauge(a, b) is None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_is_byte_identical(r_half, r_one):
    for m in (r_half, r_one, r_half.at_one()):
        text = m.to_json()
        again = ParametricMatrix.from_json(text)
        assert again == m
        assert again.to_json() == text


def test_json_schema_fields(r_half):
    obj = r_half.to_json_dict()
    assert obj["dim"] == 4
    assert obj["domain"] == "sqrt_q"
    assert obj["param"] == "mu"
    assert all(set(e) == {"row", "col", "value"} for e in obj["entries"])
    assert min(e["row"] for e in obj["entries"]) == 1
    const = r_half.at_one().to_json_dict()
    assert const["param"] is None


def test_json_cyclotomic_domain_round_trip(double4_reps):
    from hopfbax import taft_r_matrix
    _, reps = double4_reps
    m = taft_r_matrix(reps[1])
    obj = m.to_json_dict()
    assert obj["domain"] == "cyclotomic(4)"
    assert ParametricMatrix.from_json(m.to_json()) == m


def test_json_rejects_unknown_domain():
    blob = json.dumps({"dim": 1, "domain": "galois", "param": None,
                       "entries": []})
    with pytest.raises(ValueError):
        ParametricMatrix.from_json(blob)


def test_value_strings_use_canonical_grammar(r_half):
    for ent in r_half.to_json_dict()["entries"]:
        v = parse_param_scalar(ent["value"], SQRT_Q)
        assert str(v) == ent["value"]


def test_latex_and_text_rendering():
    m = ParametricMatrix(2, SQRT_Q)
    m.set(0, 0, SQRT_Q.s())
    m.set(1, 0, ParamScalar.mu(SQRT_Q))
    latex = m.to_latex()
    assert latex == "q^{1/2} & 0 \\\\\n\\mu & 0"
    text = m.to_text()
    assert text.splitlines()[0].startswith("[")
    assert "mu" in text and "s" in text
