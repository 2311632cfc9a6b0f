import json
import math
import random
from fractions import Fraction

import pytest

from hopfbax import (
    ParamScalar,
    ParametricMatrix,
    RATIONAL,
    SQRT_Q,
    ScalarDomainError,
    YbeReport,
    braid_check,
    build_double,
    build_taft,
    check_constant_ybe,
    check_parametric_ybe,
    cyclotomic,
    embed_two_site,
    find_diagonal_gauge,
    parse_param_scalar,
    rep_indecomposable,
    rep_irreducible,
    spin_half,
    spin_one,
    taft_r_matrix,
    uqsl2_r_matrix,
)
from hopfbax.algebra import Algebra
from hopfbax.regressions import reference_taft_9x9
from hopfbax.scalars import accumulate, eval_q_powers, proportionality_ratio
from hopfbax.uqsl2 import spin_rep
from hopfbax.ybe import cell, matrix_units, residual, residual_report, \
    ybe_residual

from path_algebras import check_walk_contract, coefficients, \
    path_algebra, reference_by_index


def _flip(d, domain):
    """The swap P(u (x) v) = v (x) u on V (x) V."""
    one = ParamScalar.constant(domain.one())
    return ParametricMatrix(d * d, domain, {
        (a * d + b, b * d + a): one for a in range(d) for b in range(d)})


def _minus(a, b):
    """a - b for ParametricMatrix a and b."""
    out = a.copy()
    for k, v in b.entries.items():
        accumulate(out.entries, k, -v)
    return out


def _worst_matrix_entry(residual):
    """The entry with the most Laurent terms, the first by (row, col) on a
    tie, printed 1-based."""
    if residual.is_zero():
        return None
    key = max(sorted(residual.entries),
              key=lambda k: (len(residual.entries[k].terms),
                             (-k[0], -k[1])))
    r, c = key
    return f"({r + 1},{c + 1}): {residual.entries[key]}"


def _substitute(r, a, b):
    """r(mu) with mu -> mu^a nu^b, for r depending on mu only."""
    return r.map_entries(lambda v: ParamScalar(v.domain, {
        (e * a, e * b): c for (e, _), c in v.terms.items()}))


@pytest.mark.parametrize("d", [2, 3])
def test_identity_and_flip_pass(d):
    ident = ParametricMatrix.identity(d * d, SQRT_Q)
    assert check_constant_ybe(ident).passed
    assert braid_check(ident).passed       # B = P satisfies the braid relation
    p = _flip(d, SQRT_Q)
    assert check_constant_ybe(p).passed    # P12 P13 P23 = P23 P13 P12
    assert check_parametric_ybe(ident).passed  # degenerate constant family


def test_flip_operator_squares_to_identity():
    p = _flip(3, SQRT_Q)
    assert p @ p == ParametricMatrix.identity(9, SQRT_Q)
    # P e_(a,b) = e_(b,a)
    assert p.get(1 * 3 + 2, 2 * 3 + 1).as_scalar().is_one()
    assert p.get(1, 2).is_zero()


def test_matrix_sums_need_equal_dimensions_and_domains():
    i2, i3 = (ParametricMatrix.identity(d, SQRT_Q) for d in (2, 3))
    for a, b in ((i3, i2), (i2, i3)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            a @ b
    with pytest.raises(ScalarDomainError):
        i2 @ ParametricMatrix.identity(2, cyclotomic(3))


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
    r13 = embed_two_site(_substitute(bad, 1, 1), d, (0, 2))
    r23 = embed_two_site(_substitute(bad, 0, 1), d, (1, 2))
    residual = _minus(r12 @ r13 @ r23, r23 @ r13 @ r12)
    assert not report.passed
    assert report.residual_terms == len(residual.entries)
    # swapping the two sides flips the sign of the residual
    swapped = _minus(r23 @ r13 @ r12, r12 @ r13 @ r23)
    assert swapped == residual.scaled(-1)


def test_parametric_rejects_nu_dependence():
    m = ParametricMatrix.identity(4, SQRT_Q)
    m.set(0, 0, ParamScalar.nu(SQRT_Q))
    with pytest.raises(ValueError, match="must depend on mu only"):
        check_parametric_ybe(m)


def test_non_square_total_dimension_rejected():
    with pytest.raises(ValueError):
        check_constant_ybe(ParametricMatrix.identity(3, SQRT_Q))
    with pytest.raises(ValueError):
        braid_check(ParametricMatrix.identity(8, SQRT_Q))


def test_worst_entry_is_one_based():
    dom = cyclotomic(4)
    report = residual_report("constant", 4, {((0, 2), 0, 0): dom.q()}, cell)
    assert (report.passed, report.residual_terms) == (False, 1)
    assert report.worst == "(1,3): q"
    assert residual_report("constant", 4, {}, cell).worst is None


# ---------------------------------------------------------------------------
# the residual engine in M_d against the matrix-product path it replaced
# ---------------------------------------------------------------------------

def _reference_three_slot(kind, r) -> YbeReport:
    """The check `kind` by d^3 x d^3 matrix products in ParamScalar
    arithmetic: R12 R13 R23 - R23 R13 R12 with R(mu) in every slot
    (constant) or R12(mu) R13(mu nu) R23(nu) (parametric), and
    B12 B23 B12 - B23 B12 B23 for B = P R (braid)."""
    d = math.isqrt(r.dim)
    if kind == "braid":
        b = _flip(d, r.domain) @ r
        x, y = embed_two_site(b, d, (0, 1)), embed_two_site(b, d, (1, 2))
        residual = _minus(x @ y @ x, y @ x @ y)
    else:
        slots = (r, r, r) if kind == "constant" else (
            r, _substitute(r, 1, 1), _substitute(r, 0, 1))
        x, y, z = (embed_two_site(m, d, legs) for m, legs in
                   zip(slots, ((0, 1), (0, 2), (1, 2))))
        residual = _minus(x @ y @ z, z @ y @ x)
    return YbeReport(kind=kind, dim=r.dim, passed=residual.is_zero(),
                     residual_terms=len(residual.entries),
                     worst=_worst_matrix_entry(residual))


def _doubled_entries(m):
    for key in sorted(m.entries):
        bad = m.copy()
        bad.set(*key, bad.get(*key) * 2)
        yield bad


def _reference_inputs():
    spins = [spin_half(), spin_one(), spin_rep(3), spin_rep(4)]
    yield from (uqsl2_r_matrix(rep, parametric=True) for rep in spins)
    doubles = {n: build_double(build_taft(n)) for n in (2, 3, 4)}
    for n, d in doubles.items():
        for dim in range(1, n + 1):
            for l in range(1, n + 1):
                yield taft_r_matrix(rep_irreducible(d, dim, l),
                                    parametric=True, normalize=dim > 1)
        for alpha in (d.domain.one(), d.domain.q()):
            for l in range(1, n + 1):
                yield taft_r_matrix(rep_indecomposable(d, alpha, l),
                                    parametric=True, normalize=False)
    for rep in spins[:2]:
        yield from _doubled_entries(uqsl2_r_matrix(rep, parametric=True))
    v31 = rep_irreducible(doubles[3], 3, 1)
    yield from _doubled_entries(taft_r_matrix(v31, parametric=True))


def test_matrix_checks_match_the_matrix_product_reference():
    checks = {"constant": check_constant_ybe,
              "parametric": check_parametric_ybe, "braid": braid_check}
    reports = failing = 0
    for m in _reference_inputs():
        for kind, r in (("constant", m), ("constant", m.at_one()),
                        ("braid", m), ("braid", m.at_one()), ("parametric", m)):
            got = checks[kind](r).to_dict()
            assert got == _reference_three_slot(kind, r).to_dict(), (kind, r)
            reports += 1
            failing += not got["passed"]
    assert (reports, failing) == (420, 241)


# ---------------------------------------------------------------------------
# the residual engine on an algebra whose unit has a coefficient other than 1
# ---------------------------------------------------------------------------

def _doubled_matrix_units(domain, sides=None):
    """M_2 on the basis F_ac = 2 E_ac: F_ac F_be = 2 [c = b] F_ae, and the
    unit is (F_00 + F_11) / 2; no structure constant is 1."""
    two, half = domain.from_fraction(2), domain.from_fraction(Fraction(1, 2))
    return Algebra("M_2 on 2E", domain, [divmod(i, 2) for i in range(4)],
                   {(k, k): half for k in range(2)},
                   lambda x, y: {(x[0], y[1]): two} if x[1] == y[0] else {},
                   sides=sides)


def _check_against_the_reference(alg):
    """residual() and ybe_residual() on M_2 on 2E equal the reference on
    failing constant, parametric and braid cases."""
    dom = alg.domain
    q, one = dom.q(), dom.one()
    # a family in mu whose YBE and braid relation both fail
    blocks = {0: {(0, 0): one, (3, 3): one, (1, 2): q},
              1: {(2, 1): one - q, (0, 3): dom.from_fraction(3)}}
    cases = [([({(e * a, e * b): t for e, t in blocks.items()}, slots)
               for (a, b), slots in zip(subs, ((0, 1), (0, 2), (1, 2)))],
              (((0, 1), 2), ((2, 1), 0)))   # constant, then parametric
             for subs in (((1, 0),) * 3, ((1, 0), (1, 1), (0, 1)))]
    braid = {(e, 0): t for e, t in blocks.items()}
    cases.append(([(braid, (0, 1)), (braid, (1, 2))],
                  (((0, 1), 0), ((1, 0), 1))))
    for placed, sides in cases:
        got = residual(alg, placed, sides)
        assert got, sides
        assert got == reference_by_index(alg, placed, sides), sides
    for parametric, (placed, sides) in zip((False, True), cases):
        assert ybe_residual(alg, blocks, parametric) == residual(
            alg, placed, sides)


def test_residual_places_the_unit_with_its_coefficients():
    _check_against_the_reference(_doubled_matrix_units(cyclotomic(3)))


def test_residual_with_matrix_unit_sides_equals_the_reference():
    # F_ac has left a and right c, so the walk pairs only the keys that meet
    _check_against_the_reference(_doubled_matrix_units(
        cyclotomic(3), ((0, 0, 1, 1), (0, 1, 0, 1))))


def test_residual_with_none_classes_equals_the_reference():
    # a class None meets every class: F_01 (index 1) declares no left
    # class and F_10 (index 2) no right class, and the walk still pairs
    # every pair of keys whose product may be nonzero
    _check_against_the_reference(_doubled_matrix_units(
        cyclotomic(3), ((0, None, 1, 1), (0, 1, None, 1))))


def test_residual_keys_read_in_slot_order():
    # in M_2, X = E_00 (x) E_01 (x) 1 mu, Y = 1 (x) E_11 (x) E_10 nu^2 and
    # Z = E_00 (x) 1 (x) E_00: XYZ = E_00 (x) E_01 (x) E_10 mu nu^2, and
    # ZYX = 0 (its slot 1 is E_11 E_01 = 0), so the one residual key
    # names three distinct basis indices (E_00, E_01 and E_10 are 0, 1
    # and 2) and must read them in slot order
    alg = matrix_units(2, RATIONAL)
    one = RATIONAL.one()
    placed = [({(1, 0): {(0, 1): one}}, (0, 1)),
              ({(0, 2): {(3, 2): one}}, (1, 2)),
              ({(0, 0): {(0, 0): one}}, (0, 2))]
    got = residual(alg, placed, (((0, 1), 2), ((2, 1), 0)))
    assert got == {(0, 1, 2, 1, 2): one}


@pytest.mark.parametrize("d", range(1, 9))
def test_matrix_units_sides_match_their_rows(d):
    # E_ac E_be is nonzero exactly when c = b: the walk pairs no other keys
    alg = matrix_units(d, RATIONAL)
    left, right = alg.sides
    basis = range(d * d)
    assert [(left[i], right[i]) for i in basis] == list(alg.labels)
    for i in basis:
        for j in basis:
            assert bool(alg.row(i, j)) == (right[i] == left[j]), (i, j)


# ---------------------------------------------------------------------------
# the walk's contract on bound path algebras (fuzzed in test_path_algebras)
# ---------------------------------------------------------------------------

def test_walk_contract_on_fixed_path_algebras():
    # the first quiver is 0 -> 1 -> 2 with a loop at 1, bound at two
    # arrows: vertices 0..2, arrows 3..5 and the paths 6..9 of two.  The
    # first two quivers put keys of class None on vertices and on arrows,
    # so at every level of the tries, and in every family
    # coefficients 1 meet others
    dom = cyclotomic(3)
    q, one = dom.q(), dom.one()
    quivers = [(3, [(0, 1), (1, 2), (1, 1)], 2, q, ({1, 4, 8}, {3, 5})),
               (2, [(0, 1), (1, 0)], 3, -one, ({0, 3}, {2, 6})),
               (4, [(0, 1), (1, 2), (2, 3), (0, 0)], 3, dom.from_fraction(2),
                ((), ()))]
    for seed, quiver in enumerate(quivers):
        rng = random.Random(seed)
        alg = path_algebra(*quiver)

        def block():
            return {(rng.randrange(alg.dim), rng.randrange(alg.dim)):
                    rng.choice(coefficients(dom)) for _ in range(6)}
        families = [{(rng.randint(-2, 2), rng.randint(-2, 2)): block()
                     for _ in range(2)} for _ in range(3)]
        check_walk_contract(alg, families, {0: block(), 1: block()})


# ---------------------------------------------------------------------------
# leg embeddings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_leg_02_embedding_is_flip_conjugate(d, r_half, r_one):
    r = {2: r_half, 3: r_one}[d]
    p23 = embed_two_site(_flip(d, r.domain), d, (1, 2))
    direct = embed_two_site(r, d, (0, 2))
    assert direct == p23 @ embed_two_site(r, d, (0, 1)) @ p23
    p12 = embed_two_site(_flip(d, r.domain), d, (0, 1))
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


@pytest.mark.parametrize("N, j", [(N, j) for N in (3, 4, 5, 6)
                                  for j in (1, 2) if 2 * j + 1 <= N])
def test_integer_spin_is_a_gauge_of_one_taft_module(N, j):
    # the paper's two examples check each other: at Q = zeta_{2N} (s goes
    # to zeta_{4N}) and q = Q^2, the spin-j family is a scalar plus diagonal
    # gauge of the normalised V_{2j+1, l} family exactly when l = N - j;
    # criterion 11 is the case N = 4, j = 1
    Q = cyclotomic(2 * N).q()
    d = build_double(build_taft(N, Q * Q))
    spin = uqsl2_r_matrix(spin_rep(2 * j), parametric=True).map_entries(
        lambda v: v.map_scalars(lambda x: eval_q_powers(x, Q)))
    found = [l for l in range(1, N + 1) if find_diagonal_gauge(
        spin, taft_r_matrix(rep_irreducible(d, 2 * j + 1, l))) is not None]
    assert found == [N - j]


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


def _reference_json(m) -> str:
    """The frozen layout through the stdlib encoder: 1-based row and col,
    str() of each value, "mu" or null as the param."""
    ref = {"dim": m.dim, "domain": str(m.domain),
           "param": "mu" if m.uses_parameters() else None,
           "entries": [{"row": r + 1, "col": c + 1, "value": str(v)}
                       for (r, c), v in sorted(m.entries.items())]}
    return json.dumps(ref, indent=2, sort_keys=True) + "\n"


def test_json_layout_is_the_stdlib_encoders(double4_reps):
    # spin-1/2 to spin-2 parametric and at mu = 1, the four V_{3,l} of
    # D(T_4), and one matrix per branch of the writer and the printer
    spins = [uqsl2_r_matrix(spin_rep(two_j), parametric=True)
             for two_j in (1, 2, 3, 4)]
    _, reps = double4_reps
    quotient = ParametricMatrix(2, SQRT_Q)
    quotient.set(0, 1, (1 + SQRT_Q.s()).inverse())
    zero, constant = ParametricMatrix(3, SQRT_Q), spins[0].at_one()
    halved = spins[1].scaled(Fraction(1, 2))
    cases = ([m for r in spins for m in (r, r.at_one())]
             + [taft_r_matrix(reps[l]) for l in (1, 2, 3, 4)]
             + [zero, halved, quotient])
    for m in cases:
        assert m.to_json() == _reference_json(m)
    assert '"entries": []' in zero.to_json()
    assert '"param": null' in constant.to_json()
    assert '"value": "1/2"' in halved.to_json()
    assert '"value": "(1)/(1 + s)"' in quotient.to_json()


def test_json_schema_fields(r_half):
    obj = json.loads(r_half.to_json())
    assert obj["dim"] == 4
    assert obj["domain"] == "sqrt_q"
    assert obj["param"] == "mu"
    assert all(set(e) == {"row", "col", "value"} for e in obj["entries"])
    assert min(e["row"] for e in obj["entries"]) == 1
    const = json.loads(r_half.at_one().to_json())
    assert const["param"] is None


def test_json_cyclotomic_domain_round_trip(double4_reps):
    from hopfbax import taft_r_matrix
    _, reps = double4_reps
    m = taft_r_matrix(reps[1])
    obj = json.loads(m.to_json())
    assert obj["domain"] == "cyclotomic(4)"
    assert ParametricMatrix.from_json(m.to_json()) == m


def test_json_rejects_unknown_domain():
    blob = json.dumps({"dim": 1, "domain": "galois", "param": None,
                       "entries": []})
    with pytest.raises(ValueError):
        ParametricMatrix.from_json(blob)


def test_value_strings_use_canonical_grammar(r_half):
    for ent in json.loads(r_half.to_json())["entries"]:
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
