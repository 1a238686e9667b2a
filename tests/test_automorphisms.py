import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


def test_jacobian_closed_forms():
    assert am.shearlet(4.0, 1.0).jacobian() == pytest.approx(8.0)
    assert am.matrix_automorphism([[2.0, 0.0], [0.0, 0.5]]).jacobian() == pytest.approx(1.0)
    assert am.gabor_shift(0.7).jacobian() == pytest.approx(1.0)


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


def test_jacobi_singular_values_match_reference():
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


def test_shearlet_constants_match_jacobi_route():
    for a in (1.0, 2.0, 4.0, 9.0):
        for s in (-3.0, 0.0, 1.0, 2.5):
            closed = am.shearlet_l2_constants(a, s)
            sv = am.singular_values(am.shearlet(a, s).matrix)
            assert closed == pytest.approx((sv[0], sv[-1]), rel=1e-10)


def test_linf_closed_form_vs_oracle_exact_at_corners():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.05:
            continue
        auto = am.matrix_automorphism(m)
        c = am.lipschitz_constants(auto, LINF_2)
        o_lo, o_hi = am.lipschitz_oracle(auto, LINF_2, n_directions=2000)
        assert c.upper == pytest.approx(o_hi, rel=1e-12)
        assert c.lower == pytest.approx(o_lo, rel=1e-12)


def test_gabor_oracle_brackets_closed_form():
    auto = am.gabor_shift(0.8)
    o_lo, o_hi = am.lipschitz_oracle(auto, GABOR)
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
    expected = auto.jacobian() * metric.ball_measure(r)
    assert abs(estimate - expected) <= 3 * stderr


# ---------------------------------------------------------------------------
# Families and classification
# ---------------------------------------------------------------------------

def test_family_constants_positive_and_ordered():
    fam = am.shearlet_grid_family([1, 2, 4], range(-3, 4), L2_2)
    for m in fam.members:
        assert 0 < m.lower <= m.upper


def _assert_table_matches_recomputation(fam):
    assert [m.param for m in fam.members] == fam.parameters()
    for m in fam.members:
        auto = fam.generator(*m.param) if isinstance(m.param, tuple) else fam.generator(m.param)
        c = am.lipschitz_constants(auto, fam.metric)
        assert np.array_equal(m.auto.matrix, auto.matrix)
        assert (m.lower, m.upper, m.method) == (c.lower, c.upper, c.method)
        assert m.jacobian == auto.jacobian()
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
    assert sub.parameters() == list(range(3, 11))
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
    o_lo, o_hi = am.lipschitz_oracle(auto, metric, n_directions=2000)
    # the oracle only reports attained ratios, so the optimal constants enclose it
    assert closed.method == am.CLOSED_FORM
    assert closed.lower <= o_lo * (1 + 1e-12)
    assert closed.upper >= o_hi * (1 - 1e-12)


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
        am.IntegerRange(3, 1)


# ---------------------------------------------------------------------------
# Subspace expansion
# ---------------------------------------------------------------------------

def test_expanding_on_subspace_diag_2_1():
    verdict = am.expanding_on_subspace([[2.0, 0.0], [0.0, 1.0]])
    assert verdict.verdict == "yes"
    f = verdict.expanding_basis
    e = verdict.neutral_basis
    assert abs(abs(float(f[0, 0])) - 1.0) < 1e-9 and abs(float(f[1, 0])) < 1e-9
    assert abs(float(e[0, 0])) < 1e-9 and abs(abs(float(e[1, 0])) - 1.0) < 1e-9
    # brute-force growth/no-contraction over powers up to 30
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    x_f = np.array([1.0, 0.0])
    x_e = np.array([0.0, 1.0])
    P = np.eye(2)
    for j in range(31):
        assert np.linalg.norm(P @ x_f) >= 0.9 * 2.0 ** j
        assert np.linalg.norm(P @ x_e) >= 0.9
        P = A @ P


def test_expanding_on_subspace_contracting_direction_fails():
    verdict = am.expanding_on_subspace([[2.0, 0.0], [0.0, 0.5]])
    assert verdict.verdict == "no"
    # witness: the contracting axis violates any uniform lower bound
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    x = np.array([0.0, 1.0])
    norms = [np.linalg.norm(np.linalg.matrix_power(A, j) @ x) for j in range(31)]
    assert norms[-1] < 1e-8


def test_expanding_on_subspace_rotation_fails():
    verdict = am.expanding_on_subspace([[0.0, -1.0], [1.0, 0.0]])
    assert verdict.verdict == "no"


def test_expanding_on_subspace_defective_unit_block_fails():
    # shear block alone: no strictly growing eigenvalue
    verdict = am.expanding_on_subspace([[1.0, 1.0], [0.0, 1.0]])
    assert verdict.verdict == "no"
    # shear block next to a growing eigenvalue: the unit eigenvalue is
    # defective, so the complement contracts in effect
    verdict = am.expanding_on_subspace([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 2.0]])
    assert verdict.verdict == "no"
    assert "defective" in verdict.reason


def test_expanding_on_subspace_near_defective_flagged_indeterminate():
    # unit eigenvalue with an off-diagonal perturbation inside the rank
    # tolerance band: the multiplicity test is threshold-sensitive
    A = np.array([[1.0, 1e-8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    verdict = am.expanding_on_subspace(A)
    assert verdict.verdict == "indeterminate"


def test_expanding_on_subspace_full_expansion():
    verdict = am.expanding_on_subspace([[2.0, 1.0], [0.0, 3.0]])
    assert verdict.verdict == "yes"
    assert verdict.expanding_basis.shape[1] == 2
    assert verdict.neutral_basis.shape[1] == 0


def test_subspace_expansion_consistent_with_family_classifier():
    # every yes-matrix, wrapped as its nonnegative power family, is classified
    # expanding (never non_expanding) on the truncation
    rng = np.random.default_rng(SEED)
    matrices = [np.array([[2.0, 0.0], [0.0, 1.0]]),
                np.array([[2.0, 1.0], [0.0, 3.0]]),
                np.array([[1.5, 0.0], [0.0, 1.0]])]
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        matrices.append(q @ np.diag([2.0, 1.2]) @ q.T)
    for A in matrices:
        if am.expanding_on_subspace(A).verdict != "yes":
            continue
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
