import random
from itertools import product as iproduct

import pytest

from hopfbax import (
    RATIONAL,
    ScalarDomainError,
    build_double,
    build_taft,
    canonical_q,
    check_parametric_ybe,
    cyclotomic,
    gauss_binomial,
    parse_param_scalar,
    q_bracket_factorial,
    rep_indecomposable,
    rep_irreducible,
    taft_r_matrix,
)
from hopfbax.hopf import dual
from hopfbax.matrices import matmul_entries
from hopfbax.scalars import Scalar, accumulate
from hopfbax import taft
from hopfbax.taft import (
    Representation,
    RepresentationError,
    _first_break,
    _primitive_roots,
    _taft_q,
    check_double_multiplicative,
    is_primitive_root,
)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_taft(1)
    with pytest.raises(ValueError):
        build_taft(4, cyclotomic(4).q() ** 2)   # order 2, not 4
    with pytest.raises(ValueError):
        build_taft(2, RATIONAL.one())


def test_canonical_q_is_primitive():
    for n in range(2, 8):
        z = canonical_q(n)
        assert is_primitive_root(z, n)
        assert z ** n == z.domain.one()
    assert not is_primitive_root(cyclotomic(6).q() ** 2, 6)


def test_coproduct_coefficients_are_gauss_binomials():
    # build_taft reads Delta(a^i x^j) = sum_k (j choose k)_q a^(i+j-k) x^k
    # (x) a^i x^(j-k) off a q-Pascal table; gauss_binomial divides
    # factorials, an independent path, at every primitive N-th root
    roots = [(2, RATIONAL.from_fraction(-1))]
    for N in range(2, 9):
        roots += [(N, q) for q in _primitive_roots(N)]
    for N, q in roots:
        h = build_taft(N, q)
        for (i, j), delta in h.coproduct.items():
            assert delta.terms == {
                (((i + j - k) % N, k), (i, j - k)): gauss_binomial(j, k, q)
                for k in range(j + 1)}, (N, q, (i, j))


def test_build_taft_inverts_nothing(monkeypatch):
    # the coproduct's q-binomials come from q-Pascal additions and the
    # antipode's q^-e from the list of the N powers of q
    calls = []
    inverse = Scalar.inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(Scalar, "inverse", counted)
    build_taft(6)
    assert calls == []


def test_taft_q_recovered_from_table(taft3, taft4):
    assert _taft_q(taft3) == canonical_q(3)
    assert _taft_q(taft4) == canonical_q(4)


# ---------------------------------------------------------------------------
# irreducible modules
# ---------------------------------------------------------------------------

def test_irreducible_identity_and_vanishing(double3):
    rep = rep_irreducible(double3, 2, 1)
    one = rep.domain.one()
    assert rep.h_image((0, 0)) == {(0, 0): one, (1, 1): one}
    # x^j kills an n-dimensional module for j >= n
    assert rep.h_image((0, 2)) == {}
    assert rep.h_image((1, 2)) == {}


def test_irreducible_generator_entries(double3):
    # V_{3,l} over D(T_3): pi(x) is upper triangular with the closed-form
    # ladder coefficients, pi(a) is diagonal with powers of q
    q = double3.domain.q()
    one = double3.domain.one()
    for l in (1, 2, 3):
        rep = rep_irreducible(double3, 3, l)
        # every entry is compared: an absent key is a zero entry
        assert rep.h_image((0, 1)) == {(0, 1): one - q ** -2,
                                       (1, 2): (one + q) * (one - q ** -1)}
        assert rep.h_image((1, 0)) == {(k - 1, k - 1): q ** (k - l - 3)
                                       for k in range(1, 4)}


def test_irreducible_dual_entries(double3):
    rep = rep_irreducible(double3, 3, 1)
    q = double3.domain.q()
    one = double3.domain.one()
    # (a^m x^j)* lands at a single matrix unit scaled by 1/(j)_q!
    # m=0, l=1 -> window i=3: i+j=4 > 3 -> zero
    assert rep.dual_image((0, 1)) == {}
    # window i=1, entry (i+j, i) = (2, 1)
    assert rep.dual_image((1, 1)) == {(1, 0): one}
    # 1/(2)_q! = 1/(1+q)
    assert rep.dual_image((1, 2)) == {(2, 0): (one + q).inverse()}


def _closed_form_h_image(q, n, l, i, j):
    """pi(a^i x^j) on V_{n,l} in closed form, the reference for the
    generator-built images: entry (k, k+j), k = 1..n-j, is
    q^{(k-l-n)i} (k+j-1)_q!/(k-1)_q! prod_{p<j} (1 - q^{p+k-n})."""
    one = q.domain.one()
    m = {}
    for k in range(1, n - j + 1):
        c = (q ** ((k - l - n) * i) * q_bracket_factorial(k + j - 1, q)
             / q_bracket_factorial(k - 1, q))
        for p in range(j):
            c = c * (one - q ** (p + k - n))
        if not c.is_zero():
            m[(k - 1, k + j - 1)] = c
    return m


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_irreducible_images_match_closed_form(N):
    d = build_double(build_taft(N))
    q = d.domain.q()
    for n in range(1, N + 1):
        for l in range(1, N + 1):
            rep = rep_irreducible(d, n, l)
            for (i, j) in d.h.algebra.labels:
                assert rep.h_image((i, j)) == _closed_form_h_image(q, n, l, i, j)


def test_irreducible_range_checks(double3):
    for n, l in ((0, 1), (4, 1), (1, 0), (1, 4)):
        with pytest.raises(ValueError):
            rep_irreducible(double3, n, l)


def test_double_multiplicative_exhaustive_n2(double2):
    rep = rep_irreducible(double2, 2, 1)
    assert check_double_multiplicative(rep)


def test_double_multiplicative_sampled_n3(double3):
    rep = rep_irreducible(double3, 3, 2)
    labels = list(double3.algebra.labels)
    rng = random.Random(99)
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(500)]
    assert check_double_multiplicative(rep, pairs)


def test_double_multiplicative_rejects_doubled_x(double3):
    rep = rep_irreducible(double3, 3, 1)
    bad_h = dict(rep._h)
    bad_h[(0, 1)] = {k: v * 2 for k, v in bad_h[(0, 1)].items()}
    broken = Representation(double3, 3, bad_h, rep._dual, "x doubled")
    assert not check_double_multiplicative(broken)


def _check_subalgebra(alg, image, dim, name):
    """The reference no build runs: image, pi on the labels of the
    subalgebra alg (H or H*) of the double, is a unital algebra map."""
    def combine(terms):
        out = {}
        for z, c in terms:
            for k, v in image(z).items():
                accumulate(out, k, v * c)
        return out

    index, labels = alg.index, alg.labels
    for x, y in iproduct(labels, repeat=2):
        terms = ((labels[k], c) for k, c in alg.row(index[x], index[y]))
        if matmul_entries(image(x), image(y)) != combine(terms):
            raise RepresentationError(
                f"is not multiplicative on {name} at "
                f"{alg.label_str(x)}, {alg.label_str(y)}")
    ident = {(k, k): alg.domain.one() for k in range(dim)}
    if combine(alg._unit_terms.items()) != ident:
        raise RepresentationError(f"does not send 1_{name} to the identity")


def test_corrupted_module_fails_loudly(double3, taft3):
    rep = rep_irreducible(double3, 3, 1)
    bad_d = dict(rep._dual)
    bad_d[(1, 1)] = {**bad_d[(1, 1)], (0, 2): double3.domain.one()}
    with pytest.raises(RepresentationError):
        _check_subalgebra(double3.dual_algebra, bad_d.__getitem__, 3, "H*")
    # doubling any one nonzero entry of any H image (H* image) must make
    # the reference H (H*) check refuse the module
    for side, alg, images in (("H", taft3.algebra, rep._h),
                              ("H*", double3.dual_algebra, rep._dual)):
        assert any(images.values())
        for label, image in images.items():
            for key in image:
                bad = {**images, label: {**image, key: image[key] * 2}}
                with pytest.raises(RepresentationError):
                    _check_subalgebra(alg, bad.__getitem__, 3, side)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_built_modules_satisfy_the_taft_relations(N):
    # _module checks nothing on H: pi(a), pi(x) of every module it builds
    # satisfy T_N's relations, so the replay of the whole H table passes
    d = build_double(build_taft(N))
    q, zero, one = d.domain.q(), d.domain.zero(), d.domain.one()
    reps = [rep_irreducible(d, n, l) for n in range(1, N + 1)
            for l in range(1, N + 1)]
    reps += [rep_indecomposable(d, alpha, l) for alpha in (zero, one, q)
             for l in range(1, N + 1)]
    for rep in reps:
        am, xm = rep.h_image((1, 0)), rep.h_image((0, 1))
        ident = {(k, k): one for k in range(rep.dim)}
        a_n = x_n = ident
        for _ in range(N):
            a_n, x_n = matmul_entries(a_n, am), matmul_entries(x_n, xm)
        assert a_n == ident and x_n == {}
        assert matmul_entries(xm, am) == {
            k: v * q for k, v in matmul_entries(am, xm).items()}
        _check_subalgebra(d.h.algebra, rep.h_image, rep.dim, "H")


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_dual_images_are_a_unital_algebra_map(N):
    # no build checks the H* table or unit: _dual_images proves them for
    # every primitive q, window l and n <= N, and this replays both on every
    # such V_{n,l}; at N = 4 also over Q(zeta_8) with q = zeta_8^2, the
    # double of criterion 11
    roots = _primitive_roots(N)
    if N == 4:
        roots.append(cyclotomic(8).q() ** 2)
    for q in roots:
        h = build_taft(N, q)
        hdual = dual(h).algebra
        for n, l in iproduct(range(1, N + 1), repeat=2):
            images = taft._dual_images(h, q, n, l)
            _check_subalgebra(hdual, images.__getitem__, n, "H*")


def _check_every_cross_product(rep):
    """pi(f) pi(g) = pi(f.g) for every label f of H* and g of H."""
    d = rep.double
    assert _first_break(
        rep, rep.dual_image, rep.h_image,
        ((f, g, d._cross_for(g)[f].items())
         for g in d.h.algebra.labels for f in d.dual_algebra.labels)) is None


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_built_modules_satisfy_every_cross_relation(N):
    # rep_irreducible checks the cross relation at the generators x, a of H
    # only; over the associative default double that implies it at every g
    d = build_double(build_taft(N))
    for n, l in iproduct(range(1, N + 1), repeat=2):
        _check_every_cross_product(rep_irreducible(d, n, l))


def test_dual_images_of_another_window_break_the_rule_at_x(double3,
                                                           monkeypatch):
    # the dual images of window l' != l are an algebra map on H* (they are
    # those of V_{n,l'}), so only the cross relation refuses them, at g = x
    images = taft._dual_images
    for n, l, other in iproduct(range(1, 4), repeat=3):
        if other == l:
            continue
        monkeypatch.setattr(taft, "_dual_images",
                            lambda h, q, dim, _: images(h, q, dim, other))
        with pytest.raises(RepresentationError,
                           match=r"straightening rule at f=\S+, g=x$"):
            rep_irreducible(double3, n, l)


def test_straightening_check_reads_the_rule_at_a(taft3):
    # the default straightening at x, but at a the rule of the s_ conventions
    # (conjugation by a the other way round): x passes, so only the check at
    # g = a refuses V_{2,1}
    d = build_double(taft3)
    d._cross[(1, 0)] = build_double(taft3, "s_left")._cross_for((1, 0))
    with pytest.raises(RepresentationError,
                       match=r"straightening rule at f=\S+, g=a$"):
        rep_irreducible(d, 2, 1)


def test_straightening_check_rejects_wrong_convention(taft3):
    # left_s changes only the straightening of the double, not the H and H*
    # images, so the cross relation catches it
    with pytest.raises(RepresentationError, match="straightening rule"):
        rep_irreducible(build_double(taft3, "left_s"), 3, 1)


def test_irreducible_refuses_one_wrong_dual_entry(double3, monkeypatch):
    # doubling any one nonzero entry of the dual images of V_{n,l}, n >= 2,
    # breaks the cross relation; at n = 1 every image is a scalar, so only
    # the proof in _dual_images speaks for the H* table and unit there
    q = _taft_q(double3.h)
    for n, l in iproduct((2, 3), (1, 2, 3)):
        images = taft._dual_images(double3.h, q, n, l)
        wrong = [(label, key) for label, image in images.items()
                 for key in image]
        assert wrong
        for label, key in wrong:
            bad = {**images,
                   label: {**images[label], key: images[label][key] * 2}}
            monkeypatch.setattr(taft, "_dual_images", lambda *args: bad)
            with pytest.raises(RepresentationError,
                               match="breaks the straightening rule"):
                rep_irreducible(double3, n, l)


def test_subalgebra_check_refuses_a_wrong_image_of_one(taft3):
    # images that are all zero are multiplicative, so only the unit check
    # sees that 1 goes to 0 and not to the identity
    zero = {label: {} for label in taft3.algebra.labels}
    with pytest.raises(RepresentationError,
                       match="does not send 1_H to the identity"):
        _check_subalgebra(taft3.algebra, zero.__getitem__, 3, "H")


def test_algebra_map_check_reads_the_last_pair(double2):
    rep = rep_irreducible(double2, 2, 1)
    alg = double2.algebra
    index, labels = alg.index, alg.labels
    table = [(x, y, [(labels[k], c) for k, c in alg.row(index[x], index[y])])
             for x, y in iproduct(labels, repeat=2)]
    assert _first_break(rep, rep.pair_image, rep.pair_image, table) is None
    z = next(z for z in labels if rep.pair_image(z))
    x, y, terms = table[-1]
    table[-1] = (x, y, [*terms, (z, double2.domain.one())])
    assert _first_break(rep, rep.pair_image, rep.pair_image, table) == (x, y)


def test_double_multiplicative_returns_false_at_a_last_pair_break(double2):
    # over pairs that all hold but the last, the verdict reads that last
    # pair and is a plain False, not an error
    rep = rep_irreducible(double2, 2, 1)
    bad_h = dict(rep._h)
    bad_h[(0, 1)] = {k: v * 2 for k, v in bad_h[(0, 1)].items()}
    broken = Representation(double2, 2, bad_h, rep._dual, "x doubled")
    pairs = list(iproduct(double2.algebra.labels, repeat=2))
    holding = [p for p in pairs if check_double_multiplicative(broken, [p])]
    failing = next(p for p in pairs if p not in holding)
    assert holding and check_double_multiplicative(broken, holding)
    assert check_double_multiplicative(broken, [*holding, failing]) is False


# ---------------------------------------------------------------------------
# indecomposable modules
# ---------------------------------------------------------------------------

def test_indecomposable_generator_action():
    for N in (2, 3, 4, 5):
        _check_indecomposable_generator_action(N)


def _check_indecomposable_generator_action(N):
    """Every entry of pi(a) and pi(x) on W_l(alpha) against its closed form,
    for every l and alpha in {1, q}; the dual images are those of V_{N,l}."""
    d = build_double(build_taft(N))
    dom = d.domain
    q = dom.q()
    one = dom.one()

    def bracket(m):        # (m)_q = 1 + q + ... + q^(m-1)
        return sum((q ** p for p in range(m)), dom.zero())

    for l in range(1, N + 1):
        irreducible = rep_irreducible(d, N, l)
        for alpha in (one, q):
            rep = rep_indecomposable(d, alpha, l)
            am, xm = rep.h_image((1, 0)), rep.h_image((0, 1))
            # a v_k = q^{k-1-l} v_k; x v_1 = alpha v_N, x v_2 = 0 and
            # x v_{k+1} = (k-1)_q (1 - q^k) v_k for k = 2..N-1
            want_x = {(N - 1, 0): alpha}
            for k in range(2, N):
                want_x[(k - 1, k)] = bracket(k - 1) * (one - q ** k)
            # every entry is compared: an absent key is a zero entry
            assert am == {(r, r): q ** (r - l) for r in range(N)}
            assert xm == want_x
            # x a = q a x transported through the module
            assert matmul_entries(xm, am) == {
                k: v * q for k, v in matmul_entries(am, xm).items()}
            # powers generate the rest of the basis action
            for (i, j) in d.h.algebra.labels:
                power = {(r, r): one for r in range(N)}
                for m in [am] * i + [xm] * j:
                    power = matmul_entries(power, m)
                assert rep.h_image((i, j)) == power
            for label in d.h.algebra.labels:
                assert rep.dual_image(label) == irreducible.dual_image(label)


def test_indecomposable_rejects_foreign_alpha(double3):
    with pytest.raises(ScalarDomainError):
        rep_indecomposable(double3, RATIONAL.one(), 1)
    with pytest.raises(ValueError):
        rep_indecomposable(double3, double3.domain.one(), 0)


def test_indecomposable_r_matrix_solves_parametric_ybe(double3):
    rep = rep_indecomposable(double3, double3.domain.q(), 1)
    r = taft_r_matrix(rep, parametric=True, normalize=False)
    report = check_parametric_ybe(r)
    assert report.passed, report.worst


# ---------------------------------------------------------------------------
# R-matrices
# ---------------------------------------------------------------------------

def test_r_matrix_top_left_normalization(double4_reps):
    double4, reps = double4_reps
    q = double4.domain.q()
    for l, rep in reps.items():
        raw = taft_r_matrix(rep, parametric=True, normalize=False)
        top = raw.get(0, 0).as_scalar()
        assert top == q ** (-l * (l + 2))
        normalized = taft_r_matrix(rep, parametric=True)
        assert normalized == raw.scaled(top.inverse())
        assert normalized.get(0, 0).as_scalar().is_one()


def test_r_matrix_known_entries(double4_reps):
    double4, reps = double4_reps
    dom = double4.domain
    for l, rep in reps.items():
        r = taft_r_matrix(rep, parametric=True)
        assert r.get(1, 1) == parse_param_scalar(f"q^{-l - 2}", dom)
        assert r.get(4, 6) == parse_param_scalar(
            f"mu*q^{l + 1}*(1 - q^-2)", dom)
        assert r.get(2, 6) == parse_param_scalar(
            "mu^2*(1 - q^-1)*(1 - q^-2)", dom)
        assert r.get(6, 6) == parse_param_scalar(f"q^{2 * l}", dom)
        assert r.get(8, 8).as_scalar().is_one()


def test_r_matrix_constant_is_mu_one(double3):
    rep = rep_irreducible(double3, 2, 1)
    para = taft_r_matrix(rep, parametric=True, normalize=False)
    const = taft_r_matrix(rep, parametric=False, normalize=False)
    assert para.at_one() == const
    assert para.uses_parameters() and not const.uses_parameters()


def test_r_matrix_family_is_computed_once_per_double(monkeypatch):
    import hopfbax.taft as taft
    d = build_double(build_taft(3))
    calls, decompose = [], taft.decompose_graded

    def counted(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(taft, "decompose_graded", counted)
    rep = rep_irreducible(d, 2, 1)
    taft_r_matrix(rep, parametric=False)
    assert not calls        # the constant R needs no grading
    first = taft_r_matrix(rep)
    assert len(calls) == 1
    assert taft_r_matrix(rep) == first
    assert taft_r_matrix(rep_irreducible(d, 3, 2)).dim == 9
    assert len(calls) == 1


def test_r_matrix_parametric_ybe(double3):
    rep = rep_irreducible(double3, 3, 3)
    report = check_parametric_ybe(taft_r_matrix(rep, parametric=True))
    assert report.passed, report.worst


def test_normalization_failure_is_loud(double3):
    rep = rep_irreducible(double3, 3, 1)
    raw = taft_r_matrix(rep, parametric=True, normalize=False)

    class Fake:
        double = rep.double
        dim = rep.dim
        domain = rep.domain

        def tensor_image(self, te):
            out = raw.copy()
            out.set(0, 0, out.get(0, 0) - out.get(0, 0))
            return out

    with pytest.raises(RepresentationError):
        taft_r_matrix(Fake(), parametric=True, normalize=True)


def test_r_matrix_family_cache_does_not_keep_the_double_alive():
    import gc
    import weakref
    d = build_double(build_taft(2))
    taft_r_matrix(rep_irreducible(d, 2, 1))
    gone = weakref.ref(d)
    del d
    gc.collect()
    assert gone() is None
