import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affineframes import automorphisms as am
from affineframes import config as cfg
from affineframes import metric_lattice as ml
from affineframes import runner
from affineframes.errors import RejectedInputError

SEED = 24680
L2_1 = ml.euclidean_l2(1)
L2_2 = ml.euclidean_l2(2)
LINF_2 = ml.euclidean_linf(2)
GABOR = ml.gabor_product()


def test_jacobian_of_one_by_one_powers_is_exact():
    # det goes through exp(sum log|u_ii|) and comes out one ulp off 2 ** j
    for j in range(-60, 61):
        assert am.matrix_power([[2.0]], j).jacobian == 2.0 ** j
    assert am.matrix_automorphism([[-3.0]]).jacobian == 3.0


def test_jacobian_closed_forms():
    # the shearlet and Gabor-shift constructors fix their closed forms
    assert am.shearlet(4.0, 1.0).jacobian == 8.0
    assert am.shearlet(3.0, -2.0).jacobian == 3.0 ** 1.5
    assert am.matrix_automorphism([[2.0, 0.0], [0.0, 0.5]]).jacobian == pytest.approx(1.0)
    assert am.gabor_shift(0.7).jacobian == 1.0


def test_singular_matrix_rejected_at_construction():
    with pytest.raises(RejectedInputError):
        am.matrix_automorphism([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RejectedInputError):  # negative powers invert the base
        am.matrix_power([[0.0]], -1)


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(SEED)
    autos = [am.shearlet(4.0, 1.5), am.matrix_power([[2.0, 0.0], [0.0, 0.5]], 5),
             am.gabor_shift(0.8), am.matrix_automorphism(rng.normal(size=(3, 3)))]
    for auto in autos:
        pts = rng.normal(size=(1000, auto.dim))
        back = auto.inverse_apply(auto.apply(pts))
        assert np.max(np.abs(back - pts)) < 1e-12 * max(1.0, np.max(np.abs(pts)))


def test_singular_values_match_svd_reference():
    rng = np.random.default_rng(SEED)
    for dim in (2, 3, 4, 6, 8):
        for _ in range(10):
            m = rng.normal(size=(dim, dim))
            mine = am.singular_values(m)
            ref = np.sort(np.linalg.svd(m, compute_uv=False))
            assert np.allclose(mine, ref, rtol=1e-10, atol=1e-12)


def test_one_by_one_constants_are_the_entry_beyond_the_squared_range():
    # 2**512 squared overflows a float; the constants must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = am.matrix_power_family([[2.0]], 500, 520, L2_1)
        m = fam.member(512)
        assert (m.lower, m.upper) == (2.0 ** 512, 2.0 ** 512)
        assert all(np.isfinite([m.lower, m.upper]).all() for m in fam.members)


def test_lipschitz_closed_forms():
    c = am.lipschitz_constants(am.matrix_automorphism([[2.0, 0.0], [0.0, 3.0]]), L2_2)
    assert (c.lower, c.upper) == pytest.approx((2.0, 3.0))
    c = am.lipschitz_constants(am.gabor_shift(0.5), GABOR)
    assert (c.lower, c.upper) == pytest.approx((2.0 / 3.0, 1.5))
    c = am.lipschitz_constants(am.shearlet(4.0, 0.0), L2_2)
    assert (c.lower, c.upper) == pytest.approx((2.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(c=st.floats(0.1, 10.0), dim=st.integers(1, 3), linf=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(c=0.20900900900900904, dim=1, linf=True, seed=0)
@example(c=1.5, dim=2, linf=False, seed=0)
def test_constants_of_scaled_isometries_are_never_inverted(c, dim, linf, seed):
    # exactly lower == upper == c for c times a signed permutation (L∞) or an
    # orthogonal map (L2); the lower constant goes through the inverse, where
    # 1 / (1 / c) rounds one ulp above c for about 7% of c
    rng = np.random.default_rng(seed)
    if linf:
        q = np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], size=dim)
    else:
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    metric = (ml.euclidean_linf if linf else ml.euclidean_l2)(dim)
    k = am.lipschitz_constants(am.matrix_automorphism(c * q), metric)
    assert 0 < k.lower <= k.upper


@pytest.mark.parametrize("c", [1.2, 1.3, 1.5, 1.7, 3.0])
def test_classify_scaled_identity_powers_uniformly_expanding(c):
    # some powers of c * I once got a lower constant one ulp above the upper one,
    # and classify rejected the family as holding invalid constants
    fam = am.matrix_power_family([[c, 0.0], [0.0, c]], -10, 10, L2_2)
    assert am.classify_expansiveness(fam).verdict == "uniformly_expanding"


@settings(max_examples=200, deadline=None)
@given(st.floats(1.05, 3.0), st.floats(-50.0, 50.0), st.sampled_from([-1.0, 1.0]),
       st.sampled_from([-1.0, 1.0]), st.integers(0, 30))
def test_l2_constants_of_ill_conditioned_powers_match_svd(a, b, sign_a, sign_d, j):
    # powers of a triangular base with a unit eigenvalue reach cond ~ 1e16, where
    # the smallest Gram eigenvalue of the matrix is rounding noise
    auto = am.matrix_power([[sign_a * a, b], [0.0, sign_d]], j)
    c = am.lipschitz_constants(auto, L2_2)
    sv = np.linalg.svd(auto.matrix, compute_uv=False)
    assert c.lower == pytest.approx(sv[-1], rel=1e-12, abs=0.0)
    assert c.upper == pytest.approx(sv[0], rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.5, 1e4), st.floats(-1e4, 1e4))
def test_shearlet_l2_bounds_match_exact_singular_values(a, s):
    # sigma_max = sqrt((a/2)(T + sqrt(T^2 - 4a))), T = a + s^2 + 1, with T^2 - 4a
    # expanded into nonnegative terms; sigma_min = a ** 1.5 / sigma_max as
    # |det| = a ** 1.5, while (a/2)(T - sqrt(T^2 - 4a)) loses 14% at a = 1, s = 1e4
    t = a + s * s + 1.0
    disc = math.sqrt((a - 1.0) ** 2 + s * s * (s * s + 2.0 * (a + 1.0)))
    upper = math.sqrt(0.5 * a * (t + disc))
    c = am.lipschitz_constants(am.shearlet(a, s), L2_2)
    assert c.upper == pytest.approx(upper, rel=1e-12, abs=0.0)
    assert c.lower == pytest.approx(a ** 1.5 / upper, rel=1e-12, abs=0.0)


def test_gabor_product_rejects_other_automorphisms():
    # only the shift form [[1, x], [0, 1]] is a Gabor shift
    for auto in (am.matrix_automorphism([[2.0]]), am.shearlet(2.0, 1.0),
                 am.matrix_power([[2.0, 0.0], [0.0, 3.0]], 2),
                 am.matrix_automorphism([[1.0, 0.5], [0.25, 1.0]]),
                 am.matrix_automorphism([[1.0, 0.5], [0.0, 2.0]]),
                 am.matrix_automorphism([[-1.0, 0.5], [0.0, 1.0]])):
        with pytest.raises(RejectedInputError):
            am.lipschitz_constants(auto, GABOR)


def test_linf_closed_form_vs_oracle_exact_at_corners():
    rng = np.random.default_rng(SEED)
    autos = []
    for _ in range(20):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.05:
            continue
        autos.append(am.matrix_automorphism(m))
    oracle = am.lipschitz_oracle(autos, LINF_2, n_directions=2000)
    for auto, (o_lo, o_hi) in zip(autos, oracle):
        c = am.lipschitz_constants(auto, LINF_2)
        assert c.upper == pytest.approx(o_hi, rel=1e-12)
        assert c.lower == pytest.approx(o_lo, rel=1e-12)


def test_gabor_oracle_brackets_closed_form():
    auto = am.gabor_shift(0.8)
    [(o_lo, o_hi)] = am.lipschitz_oracle([auto], GABOR)
    c = am.lipschitz_constants(auto, GABOR)
    assert c.lower <= o_lo + 1e-12 and o_hi <= c.upper + 1e-12
    assert o_hi == pytest.approx(c.upper, rel=1e-9)
    assert o_lo == pytest.approx(c.lower, rel=1e-9)


def test_distortion_sandwich_on_samples():
    # lower * d <= d(image) <= upper * d over many sampled frequencies
    rng = np.random.default_rng(SEED)
    cases = [(am.shearlet(4.0, 1.0), L2_2), (am.matrix_power([[2.0, 0.0], [0.0, 0.5]], 3), LINF_2),
             (am.matrix_automorphism([[1.0, 0.4], [-0.2, 0.7]]), L2_2)]
    for auto, metric in cases:
        c = am.lipschitz_constants(auto, metric)
        lo, hi = c.lower, c.upper
        pts = rng.normal(size=(10000, metric.dim))
        d0 = metric.norm(pts)
        d1 = metric.norm(auto.apply(pts))
        assert np.all(d1 <= hi * d0 * (1 + 1e-9))
        assert np.all(d1 >= lo * d0 * (1 - 1e-9))


def test_gabor_distortion_sandwich_on_integer_slices():
    rng = np.random.default_rng(SEED)
    auto = am.gabor_shift(0.6)
    c = am.lipschitz_constants(auto, GABOR)
    lo, hi = c.lower, c.upper
    xs = rng.uniform(-5, 5, size=10000)
    ks = rng.integers(-4, 5, size=10000).astype(float)
    pts = np.stack([xs, ks], axis=-1)
    keep = GABOR.norm(pts) > 0
    pts = pts[keep]
    d0 = GABOR.norm(pts)
    d1 = GABOR.norm(auto.apply(pts))
    assert np.all(d1 <= hi * d0 * (1 + 1e-9))
    assert np.all(d1 >= lo * d0 * (1 - 1e-9))


def test_inverse_constants_inequality():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.05:
            continue
        auto = am.matrix_automorphism(m)
        for metric in (L2_2, LINF_2):
            c = am.lipschitz_constants(auto, metric)
            ci = am.lipschitz_constants(am.matrix_automorphism(auto.inv_matrix), metric)
            assert ci.lower >= 1.0 / c.upper - 1e-9
            assert ci.upper <= 1.0 / c.lower + 1e-9


def test_ball_inclusion_sandwich():
    # inner ball maps inside the image, image stays inside the outer ball
    rng = np.random.default_rng(SEED)
    metric = L2_2
    for _ in range(30):
        auto = am.shearlet(float(rng.uniform(0.5, 6.0)), float(rng.uniform(-3, 3)))
        c = am.lipschitz_constants(auto, metric)
        lo, hi = c.lower, c.upper
        for _ in range(33):
            center = rng.normal(size=2)
            r = float(rng.uniform(0.1, 2.0))
            image_center = auto.apply(center)
            dirs = rng.normal(size=(1000, 2))
            dirs /= metric.norm(dirs)[:, None]
            radii = rng.uniform(0, 1, size=(1000, 1))
            inner_pts = image_center + dirs * radii * (lo * r) * (1 - 1e-9)
            pre = auto.inverse_apply(inner_pts)
            assert np.all(metric.distance_many(pre, center) < r * (1 + 1e-9))
            ball_pts = center + dirs * radii * r
            image_pts = auto.apply(ball_pts)
            assert np.all(metric.distance_many(image_pts, image_center)
                          <= hi * r * (1 + 1e-9))


def test_measure_scaling_of_deformed_balls():
    # Monte Carlo volume of the image ball matches jacobian * ball volume
    rng = np.random.default_rng(SEED)
    metric = L2_2
    auto = am.shearlet(3.0, 1.0)
    r = 0.7
    lo_box, hi_box = auto.box_image(*metric.ball_box(r))
    n = 400000
    pts = rng.uniform(lo_box, hi_box, size=(n, 2))
    inside = metric.norm(auto.inverse_apply(pts)) < r
    box_vol = float(np.prod(hi_box - lo_box))
    estimate = box_vol * inside.mean()
    stderr = box_vol * math.sqrt(inside.mean() * (1 - inside.mean()) / n)
    expected = auto.jacobian * metric.ball_measure(r)
    assert abs(estimate - expected) <= 3 * stderr


# ---------------------------------------------------------------------------
# Families and classification
# ---------------------------------------------------------------------------

def test_family_constants_positive_and_ordered():
    fam = am.shearlet_grid_family([1, 2, 4], range(-3, 4), L2_2)
    for m in fam.members:
        assert 0 < m.lower <= m.upper


def _assert_table_matches_recomputation(fam):
    assert [m.param for m in fam.members] == list(fam.params)
    for m in fam.members:
        auto = fam.generator(*m.param) if isinstance(m.param, tuple) else fam.generator(m.param)
        c = am.lipschitz_constants(auto, fam.metric)
        assert np.array_equal(m.auto.matrix, auto.matrix)
        assert (m.lower, m.upper) == (c.lower, c.upper)
        assert m.jacobian == auto.jacobian
        assert m.weight == fam.weight_of(m.param)


def test_family_table_matches_per_parameter_recomputation_on_bundled_families():
    checked = 0
    for name in runner.bundled_scenario_names():
        fam = cfg.build_family(runner.load_bundled_scenario(name))
        if fam.is_continuous:
            continue
        _assert_table_matches_recomputation(fam)
        checked += 1
    assert checked >= 5


def test_family_table_built_once_and_shared_by_restrictions():
    fam = am.matrix_power_family([[2.0]], -10, 10, L2_1)
    assert fam.members is fam.members
    sub = fam.restrict(lambda _p, _lo, hi: hi > 4.0)
    assert list(sub.params) == list(range(3, 11))
    assert all(a is b for a, b in zip(sub.members, fam.members[13:]))
    assert fam.member(3) is fam.members[13]
    with pytest.raises(RejectedInputError):
        fam.member(11)


def test_family_table_rejects_negative_weights():
    fam = am.matrix_power_family([[2.0]], -3, 3, L2_1, weight=lambda j: float(j))
    with pytest.raises(RejectedInputError):
        fam.members


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 2), j_min=st.integers(-12, 6), span=st.integers(0, 12),
       entries=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       metric_kind=st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF]))
def test_matrix_power_table_property(dim, j_min, span, entries, metric_kind):
    base = np.array(entries[:dim * dim]).reshape(dim, dim) + 1.5 * np.eye(dim)
    if abs(np.linalg.det(base)) < 0.25:
        return
    fam = am.matrix_power_family(base, j_min, j_min + span, ml.MetricSpace(metric_kind, dim),
                                 weight=lambda j: 1.0 + 0.5 * j * j)
    _assert_table_matches_recomputation(fam)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), entries=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
       metric_kind=st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF]))
def test_closed_form_constants_bracket_oracle_property(dim, entries, metric_kind):
    m = np.array(entries[:dim * dim]).reshape(dim, dim)
    assume(abs(np.linalg.det(m)) > 1e-3 and np.linalg.cond(m) < 100.0)
    auto, metric = am.matrix_automorphism(m), ml.MetricSpace(metric_kind, dim)
    closed = am.lipschitz_constants(auto, metric)
    [(o_lo, o_hi)] = am.lipschitz_oracle([auto], metric, n_directions=2000)
    # the oracle only reports attained ratios, so the optimal constants enclose it
    assert closed.lower <= o_lo * (1 + 1e-12)
    assert closed.upper >= o_hi * (1 - 1e-12)


def _member_oracle(auto, metric, n_directions):
    """Reference: the oracle for one member, redrawing everything per call."""
    if metric.kind == ml.GABOR_PRODUCT:
        return _member_oracle_gabor(auto, n_directions)
    rng = np.random.default_rng(am.ORACLE_SEED)
    dim = auto.dim
    dirs = rng.normal(size=(n_directions, dim))
    corners = np.stack(np.meshgrid(*[(-1.0, 1.0)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)
    special = np.concatenate([np.eye(dim), corners])
    dirs = np.concatenate([dirs, special, auto.inverse_apply(special),
                           _member_power_iteration(auto, rng)])
    norms = metric.norm(dirs)
    keep = norms > 1e-12
    dirs = dirs[keep] / norms[keep][:, None]
    ratios = metric.norm(auto.apply(dirs))
    return float(np.min(ratios)), float(np.max(ratios))


def _member_oracle_gabor(auto, n_points):
    p = -float(auto.matrix[0, 1])
    rng = np.random.default_rng(am.ORACLE_SEED)
    span = 2.0 * (1.0 + abs(p)) + 1.0
    xs = np.concatenate([rng.uniform(-span, span, n_points), [0.0, p, -p]])
    pts = np.stack([xs, np.ones_like(xs)], axis=-1)
    ratios = (np.abs(pts[:, 0] - p) + 1.0) / (np.abs(pts[:, 0]) + 1.0)
    return min(float(np.min(ratios)), 1.0), max(float(np.max(ratios)), 1.0)


def _member_power_iteration(auto, rng):
    gram = auto.matrix.T @ auto.matrix
    grow = rng.normal(size=auto.dim)
    shrink = rng.normal(size=auto.dim)
    for _ in range(60):
        grow = gram @ grow
        grow /= np.linalg.norm(grow)
        shrink = np.linalg.solve(gram, shrink)
        shrink /= np.linalg.norm(shrink)
    return np.stack([grow, shrink])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), n_members=st.integers(1, 40),
       log_cond=st.floats(0.0, 16.0), n_directions=st.integers(1, 400),
       metric_kind=st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF]))
@example(seed=1, dim=2, n_members=40, log_cond=16.0, n_directions=400,
         metric_kind=ml.EUCLIDEAN_L2)
@example(seed=2, dim=3, n_members=40, log_cond=16.0, n_directions=400,
         metric_kind=ml.EUCLIDEAN_LINF)
def test_family_oracle_matches_member_by_member_reference(seed, dim, n_members, log_cond,
                                                          n_directions, metric_kind):
    # members of cond up to e^log_cond <= e^16 (Gram cond e^32) at scales
    # e^-3..e^3; the draws are shared and the power iteration stacked, which
    # must not move a bit
    rng = np.random.default_rng(seed)
    autos = []
    for _ in range(n_members):
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        log_sigma = (np.linspace(-0.5, 0.5, dim) * rng.uniform(0.0, log_cond)
                     + rng.uniform(-3.0, 3.0))
        autos.append(am.matrix_automorphism(u @ np.diag(np.exp(log_sigma)) @ v))
    metric = ml.MetricSpace(metric_kind, dim)
    assert am.lipschitz_oracle(autos, metric, n_directions=n_directions) == [
        _member_oracle(auto, metric, n_directions) for auto in autos]


def test_family_oracle_matches_member_by_member_reference_on_gabor_shifts():
    autos = [am.gabor_shift(p) for p in np.linspace(-3.0, 3.0, 13)]
    assert am.lipschitz_oracle(autos, GABOR, n_directions=5000) == [
        _member_oracle(auto, GABOR, 5000) for auto in autos]


def test_classify_dyadic_dilations_uniform_identity_envelope():
    fam = am.matrix_power_family([[2.0]], -20, 20, L2_1)
    verdict = am.classify_expansiveness(fam)
    assert verdict.verdict == "uniformly_expanding"
    xs = np.array([2.0, 4.0, 64.0, 1024.0])
    assert np.allclose(verdict.envelope(xs), xs, atol=1e-9)


def test_classify_hyperbolic_powers_non_expanding_with_witness():
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 0.5]], -20, 20, LINF_2)
    verdict = am.classify_expansiveness(fam)
    assert verdict.verdict == "non_expanding"
    assert verdict.witness == 20
    lo, hi = verdict.witness_constants
    assert lo == pytest.approx(2.0 ** -20)
    assert hi == pytest.approx(2.0 ** 20)


def test_classify_shearlet_grid_non_expanding_large_shear_witness():
    fam = am.shearlet_grid_family(range(1, 9), range(-8, 9), L2_2)
    verdict = am.classify_expansiveness(fam)
    assert verdict.verdict == "non_expanding"
    a, s = verdict.witness
    assert abs(s) >= 6


def test_classify_gabor_grid_non_expanding():
    fam = am.gabor_shift_family(np.arange(0.0, 3.5, 0.5))
    verdict = am.classify_expansiveness(fam)
    assert verdict.verdict == "non_expanding"


def test_classify_anisotropic_powers_uniformly_expanding():
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 3.0]], -12, 12, L2_2)
    verdict = am.classify_expansiveness(fam)
    assert verdict.verdict == "uniformly_expanding"


def test_classify_unit_eigenvalue_powers_plain_expanding():
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 1.0]], 0, 30, L2_2)
    verdict = am.classify_expansiveness(fam)
    assert verdict.verdict == "expanding"


def test_classify_empty_family_rejected():
    with pytest.raises(RejectedInputError):
        am.matrix_power_family([[2.0]], 3, 1, L2_1)


def test_subspace_expansion_consistent_with_family_classifier():
    # every base with no eigenvalue modulus below one and one above, wrapped as
    # its nonnegative power family, is classified expanding on the truncation
    rng = np.random.default_rng(SEED)
    matrices = [np.array([[2.0, 0.0], [0.0, 1.0]]),
                np.array([[2.0, 1.0], [0.0, 3.0]]),
                np.array([[1.5, 0.0], [0.0, 1.0]])]
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        matrices.append(q @ np.diag([2.0, 1.2]) @ q.T)
    for A in matrices:
        moduli = np.abs(np.linalg.eigvals(A))
        assert np.all(moduli >= 1.0) and np.any(moduli > 1.0), A
        fam = am.matrix_power_family(A, 0, 30, L2_2)
        verdict = am.classify_expansiveness(fam)
        assert verdict.verdict in ("expanding", "uniformly_expanding"), A


def test_gabor_families_with_large_shift_classified_non_expanding():
    for p_max in (2.5, 6.0, 14.0):
        fam = am.gabor_shift_family(np.linspace(0.0, p_max, 8))
        verdict = am.classify_expansiveness(fam)
        assert verdict.verdict == "non_expanding"


# ---------------------------------------------------------------------------
# Level-band mass
# ---------------------------------------------------------------------------

def test_band_mass_reciprocal_density_is_log_c():
    fam = am.continuous_dilation_family(0.05, 500.0, 64, L2_1, weight=lambda a: 1.0 / a)
    for c in (1.5, 2.0, 3.0):
        prof = am.band_mass_profile(fam, lambda x: x, c, [1.0, 2.0, 7.5, 30.0], 1.0,
                                    cap=10.0)
        assert np.allclose(prof.values, math.log(c), atol=1e-8)
        assert prof.bounded


def test_band_mass_constant_density_grows_linearly():
    fam = am.continuous_dilation_family(0.05, 500.0, 64, L2_1, weight=lambda a: 1.0)
    t = np.array([1.0, 4.0, 16.0, 64.0])
    prof = am.band_mass_profile(fam, lambda x: x, 2.0, t, 1.0, cap=10.0)
    assert np.allclose(prof.values, t, atol=1e-7)
    assert not prof.bounded


def test_band_mass_integer_family_finite_count():
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 3.0]], -12, 12, L2_2)
    envelope = lambda x: x ** (math.log(3) / math.log(2))
    prof = am.band_mass_profile(fam, envelope, 2.0, np.geomspace(1.5, 50, 9), 1.5,
                                cap=20.0)
    assert prof.bounded
    assert prof.max_value <= 5.0


def test_band_mass_rejects_bad_inputs():
    fam = am.matrix_power_family([[2.0]], 0, 5, L2_1)
    with pytest.raises(RejectedInputError):
        am.band_mass_profile(fam, lambda x: x, 1.0, [1.0], 1.0)
    with pytest.raises(RejectedInputError):
        am.band_mass_profile(fam, lambda x: x, 2.0, [0.5], 1.0)
    with pytest.raises(RejectedInputError):
        am.band_mass_profile(fam, lambda x: -x, 2.0, [1.0], 1.0)


def _reference_classify(family, probe_m=None):
    """classify_expansiveness as it stood, with a per-candidate loop for rule (A)."""
    table = [(m.param, m.lower, m.upper) for m in family.members]
    if not table:
        raise RejectedInputError("empty truncation")
    for _param, lo, hi in table:
        if not (0 < lo <= hi):
            raise RejectedInputError("invalid distortion constants in family")
    uppers = np.array([hi for _p, _lo, hi in table])
    m = float(np.quantile(uppers, 0.25)) if probe_m is None else float(probe_m)
    tail = [(p, lo, hi) for p, lo, hi in table if hi > m]
    if not tail:
        tail = list(table)
    witness = None
    by_upper = sorted(tail, key=lambda t: (t[2], str(t[0])))
    best_prev_lower = -np.inf
    for p, lo, hi in by_upper:
        if lo * am.EXPLOSION <= best_prev_lower:
            cand = (p, lo, hi)
            if witness is None or lo < witness[1] or (lo == witness[1]
                                                      and str(p) > str(witness[0])):
                witness = cand
        best_prev_lower = max(best_prev_lower, lo)
    if witness is None:
        lows = np.array([lo for _p, lo, _hi in tail])
        if lows.size >= 4:
            argmin = int(np.argmin(lows))
            others = np.delete(lows, argmin)
            if lows[argmin] * am.EXPLOSION <= float(np.median(others)):
                hi_at_min = tail[argmin][2]
                if hi_at_min >= float(np.median([hi for _p, _lo, hi in tail])):
                    witness = tail[argmin]
    if witness is None and len(tail) >= 3:
        logs_u = np.log([hi for _p, _lo, hi in tail])
        logs_l = np.log([lo for _p, lo, _hi in tail])
        if logs_u.max() - logs_u.min() > math.log(1.5):
            slope = float(np.polyfit(logs_u, logs_l, 1)[0])
            if slope <= am.SLOPE_THRESHOLD:
                witness = tail[int(np.argmin(logs_l))]
    if witness is not None:
        candidates = [t for t in tail if t[1] <= witness[1] * (1 + 1e-12)]
        chosen = max(candidates, key=lambda t: (str(t[0])))
        return am.ExpansivenessVerdict("non_expanding", m, chosen[0], (chosen[1], chosen[2]))
    by_lower = sorted(tail, key=lambda t: t[1])
    lows, his = (np.array(col) for col in list(zip(*by_lower))[1:])
    i = 0
    while i < len(by_lower):
        end = int(np.searchsorted(lows, lows[i] * (1 + am.TIE_RTOL), side="right"))
        if his[i:end].max() >= am.EXPLOSION * his[i:end].min():
            return am.ExpansivenessVerdict("expanding", m)
        i = end
    envelope = am._monotone_concave_majorant([(lo, hi) for _p, lo, hi in tail])
    return am.ExpansivenessVerdict("uniformly_expanding", m, envelope=envelope)


def _verdict_fields(classify, family, probe_m):
    """The verdict's fields, or the type of the input error classifying raises."""
    try:
        v = classify(family, probe_m)
    except RejectedInputError as exc:
        return type(exc)
    env = None if v.envelope is None else (v.envelope.xs.tolist(), v.envelope.ys.tolist())
    return v.verdict, v.probe_m, v.witness, v.witness_constants, env, v.note


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
       metric_kind=st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF]),
       n_members=st.integers(1, 29), spread=st.floats(0.0, 3.0), n_ties=st.integers(0, 8),
       diagonal=st.booleans(), probe_q=st.none() | st.floats(0.0, 1.0))
def test_classify_matches_reference_property(seed, dim, metric_kind, n_members, spread,
                                             n_ties, diagonal, probe_q):
    # rows scaled over 10 ** +-spread spread both constants; diagonals diag(1, 10 ** k)
    # tie lower constants under spread upper ones; -A ties every constant of A
    rng = np.random.default_rng(seed)
    mats = [np.diag(10.0 ** (rng.integers(0, 3, dim) * (np.arange(dim) > 0))) if diagonal else
            10.0 ** rng.uniform(-spread, spread, (dim, 1)) * rng.normal(size=(dim, dim))
            for _ in range(n_members)]
    for i, j in rng.integers(n_members, size=(n_ties, 2)):
        mats[i] = -mats[j]
    fam = am.AutomorphismFamily(tuple(range(n_members)),
                                lambda i: am.matrix_automorphism(mats[i]),
                                lambda i: 1.0, ml.MetricSpace(metric_kind, dim))
    uppers = [m.upper for m in fam.members]
    probe_m = None if probe_q is None else float(np.quantile(uppers, probe_q))
    assert (_verdict_fields(am.classify_expansiveness, fam, probe_m)
            == _verdict_fields(_reference_classify, fam, probe_m))


def test_gabor_product_reads_any_shift_form_matrix_as_a_gabor_shift():
    for p in (0.0, 0.7, -2.5, 1e6):
        shift, matrix = am.gabor_shift(p), am.matrix_automorphism([[1.0, -p], [0.0, 1.0]])
        assert am.lipschitz_constants(matrix, GABOR) == am.lipschitz_constants(shift, GABOR)
        assert matrix.jacobian == shift.jacobian == 1.0
        assert matrix.line_action() == shift.line_action() == (1.0, -p)
