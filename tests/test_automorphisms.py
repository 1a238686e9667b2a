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
from reference_members import (_ref_above, _ref_line_action, _ref_lipschitz_oracle_gabor,
                               _ref_members, _ref_restrict, constants, oracle_pairs, raised)

SEED = 24680
L2_1 = ml.euclidean_l2(1)
L2_2 = ml.euclidean_l2(2)
LINF_2 = ml.euclidean_linf(2)
GABOR = ml.gabor_product()


def test_jacobian_of_one_by_one_powers_is_exact():
    # det goes through exp(sum log|u_ii|) and comes out one ulp off 2 ** j
    for j in range(-60, 61):
        assert am.Automorphism(*am.matrix_power([[2.0]], j)).jacobian == 2.0 ** j
    assert am.Automorphism([[-3.0]]).jacobian == 3.0


def test_jacobian_closed_forms():
    # the shearlet and Gabor-shift makers fix their closed forms
    assert am.Automorphism(*am.shearlet(4.0, 1.0)).jacobian == 8.0
    assert am.Automorphism(*am.shearlet(3.0, -2.0)).jacobian == 3.0 ** 1.5
    assert am.Automorphism([[2.0, 0.0], [0.0, 0.5]]).jacobian == pytest.approx(1.0)
    assert am.Automorphism(*am.gabor_shift(0.7)).jacobian == 1.0


def test_singular_matrix_rejected_at_construction():
    with pytest.raises(RejectedInputError):
        am.Automorphism([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RejectedInputError):  # negative powers invert the base
        am.matrix_power([[0.0]], -1)


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(SEED)
    autos = [am.Automorphism(*am.shearlet(4.0, 1.5)),
             am.Automorphism(*am.matrix_power([[2.0, 0.0], [0.0, 0.5]], 5)),
             am.Automorphism(*am.gabor_shift(0.8)), am.Automorphism(rng.normal(size=(3, 3)))]
    for auto in autos:
        pts = rng.normal(size=(1000, auto.matrix.shape[0]))
        back = (pts @ auto.matrix.T) @ auto.inv_matrix.T
        assert np.max(np.abs(back - pts)) < 1e-12 * max(1.0, np.max(np.abs(pts)))


def test_singular_values_match_svd_reference():
    # the L2 constants of a stack are its smallest and largest singular values
    rng = np.random.default_rng(SEED)
    for dim in (2, 3, 4, 6, 8):
        m = rng.normal(size=(10, dim, dim))
        lower, upper = am.lipschitz_constants(m, np.linalg.inv(m), ml.euclidean_l2(dim))
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(upper, ref[:, 0], rtol=1e-10, atol=1e-12)
        assert np.allclose(lower, ref[:, -1], rtol=1e-10, atol=1e-12)


def test_one_by_one_constants_are_the_entry_beyond_the_squared_range():
    # 2**512 squared overflows a float; the constants must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = am.matrix_power_family([[2.0]], 500, 520, L2_1)
        t, i = fam.members, fam.params.index(512)
        assert (t.lower[i], t.upper[i]) == (2.0 ** 512, 2.0 ** 512)
        assert np.isfinite(t.lower).all() and np.isfinite(t.upper).all()


def test_lipschitz_closed_forms():
    c = constants(am.Automorphism([[2.0, 0.0], [0.0, 3.0]]), L2_2)
    assert (c.lower, c.upper) == pytest.approx((2.0, 3.0))
    c = constants(am.Automorphism(*am.gabor_shift(0.5)), GABOR)
    assert (c.lower, c.upper) == pytest.approx((2.0 / 3.0, 1.5))
    c = constants(am.Automorphism(*am.shearlet(4.0, 0.0)), L2_2)
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
    k = constants(am.Automorphism(c * q), metric)
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
    auto = am.Automorphism(*am.matrix_power([[sign_a * a, b], [0.0, sign_d]], j))
    c = constants(auto, L2_2)
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
    c = constants(am.Automorphism(*am.shearlet(a, s)), L2_2)
    assert c.upper == pytest.approx(upper, rel=1e-12, abs=0.0)
    assert c.lower == pytest.approx(a ** 1.5 / upper, rel=1e-12, abs=0.0)


def test_gabor_product_rejects_other_automorphisms():
    # only the shift form [[1, x], [0, 1]] is a Gabor shift
    for auto in (am.Automorphism([[2.0]]), am.Automorphism(*am.shearlet(2.0, 1.0)),
                 am.Automorphism(*am.matrix_power([[2.0, 0.0], [0.0, 3.0]], 2)),
                 am.Automorphism([[1.0, 0.5], [0.25, 1.0]]),
                 am.Automorphism([[1.0, 0.5], [0.0, 2.0]]),
                 am.Automorphism([[-1.0, 0.5], [0.0, 1.0]])):
        with pytest.raises(RejectedInputError):
            constants(auto, GABOR)


def test_linf_closed_form_vs_oracle_exact_at_corners():
    rng = np.random.default_rng(SEED)
    autos = []
    for _ in range(20):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.05:
            continue
        autos.append(am.Automorphism(m))
    oracle = oracle_pairs(autos, LINF_2, n_directions=2000)
    for auto, (o_lo, o_hi) in zip(autos, oracle):
        c = constants(auto, LINF_2)
        assert c.upper == pytest.approx(o_hi, rel=1e-12)
        assert c.lower == pytest.approx(o_lo, rel=1e-12)


def test_gabor_oracle_brackets_closed_form():
    auto = am.Automorphism(*am.gabor_shift(0.8))
    [(o_lo, o_hi)] = oracle_pairs([auto], GABOR)
    c = constants(auto, GABOR)
    assert c.lower <= o_lo + 1e-12 and o_hi <= c.upper + 1e-12
    assert o_hi == pytest.approx(c.upper, rel=1e-9)
    assert o_lo == pytest.approx(c.lower, rel=1e-9)


def test_distortion_sandwich_on_samples():
    # lower * d <= d(image) <= upper * d over many sampled frequencies
    rng = np.random.default_rng(SEED)
    cases = [(am.Automorphism(*am.shearlet(4.0, 1.0)), L2_2),
             (am.Automorphism(*am.matrix_power([[2.0, 0.0], [0.0, 0.5]], 3)), LINF_2),
             (am.Automorphism([[1.0, 0.4], [-0.2, 0.7]]), L2_2)]
    for auto, metric in cases:
        c = constants(auto, metric)
        lo, hi = c.lower, c.upper
        pts = rng.normal(size=(10000, metric.dim))
        d0 = metric.norm(pts)
        d1 = metric.norm(pts @ auto.matrix.T)
        assert np.all(d1 <= hi * d0 * (1 + 1e-9))
        assert np.all(d1 >= lo * d0 * (1 - 1e-9))


def test_gabor_distortion_sandwich_on_integer_slices():
    rng = np.random.default_rng(SEED)
    auto = am.Automorphism(*am.gabor_shift(0.6))
    c = constants(auto, GABOR)
    lo, hi = c.lower, c.upper
    xs = rng.uniform(-5, 5, size=10000)
    ks = rng.integers(-4, 5, size=10000).astype(float)
    pts = np.stack([xs, ks], axis=-1)
    keep = GABOR.norm(pts) > 0
    pts = pts[keep]
    d0 = GABOR.norm(pts)
    d1 = GABOR.norm(pts @ auto.matrix.T)
    assert np.all(d1 <= hi * d0 * (1 + 1e-9))
    assert np.all(d1 >= lo * d0 * (1 - 1e-9))


def test_inverse_constants_inequality():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.05:
            continue
        auto = am.Automorphism(m)
        for metric in (L2_2, LINF_2):
            c = constants(auto, metric)
            ci = constants(am.Automorphism(auto.inv_matrix), metric)
            assert ci.lower >= 1.0 / c.upper - 1e-9
            assert ci.upper <= 1.0 / c.lower + 1e-9


def test_ball_inclusion_sandwich():
    # inner ball maps inside the image, image stays inside the outer ball
    rng = np.random.default_rng(SEED)
    metric = L2_2
    for _ in range(30):
        auto = am.Automorphism(*am.shearlet(float(rng.uniform(0.5, 6.0)),
                                            float(rng.uniform(-3, 3))))
        c = constants(auto, metric)
        lo, hi = c.lower, c.upper
        for _ in range(33):
            center = rng.normal(size=2)
            r = float(rng.uniform(0.1, 2.0))
            image_center = center @ auto.matrix.T
            dirs = rng.normal(size=(1000, 2))
            dirs /= metric.norm(dirs)[:, None]
            radii = rng.uniform(0, 1, size=(1000, 1))
            inner_pts = image_center + dirs * radii * (lo * r) * (1 - 1e-9)
            pre = inner_pts @ auto.inv_matrix.T
            assert np.all(metric.norm(pre - center) < r * (1 + 1e-9))
            ball_pts = center + dirs * radii * r
            image_pts = ball_pts @ auto.matrix.T
            assert np.all(metric.norm(image_pts - image_center)
                          <= hi * r * (1 + 1e-9))


def test_measure_scaling_of_deformed_balls():
    # Monte Carlo volume of the image ball matches jacobian * ball volume
    rng = np.random.default_rng(SEED)
    metric = L2_2
    auto = am.Automorphism(*am.shearlet(3.0, 1.0))
    r = 0.7
    lo_box, hi_box = auto.box_image(*metric.ball_box(r))
    n = 400000
    pts = rng.uniform(lo_box, hi_box, size=(n, 2))
    inside = metric.norm(pts @ auto.inv_matrix.T) < r
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
    assert np.all((0 < fam.members.lower) & (fam.members.lower <= fam.members.upper))


def _assert_table_matches_recomputation(fam):
    """Every array of the member table == the member records built one by one."""
    t, ref = fam.members, _ref_members(fam)
    assert len(t.matrices) == len(fam.params) == len(ref)
    assert np.array_equal(t.matrices, np.stack([m.auto.matrix for m in ref]))
    assert np.array_equal(t.inverses, np.stack([m.auto.inv_matrix for m in ref]))
    assert t.jacobians.tolist() == [m.jacobian for m in ref]
    assert t.lower.tolist() == [m.lower for m in ref]
    assert t.upper.tolist() == [m.upper for m in ref]
    assert t.weights.tolist() == [m.weight for m in ref]


def test_family_table_matches_per_parameter_recomputation_on_bundled_families():
    checked = 0
    for name in runner.bundled_scenario_names():
        fam = cfg.build_family(runner.load_bundled_scenario(name))
        if fam.is_continuous:
            continue
        _assert_table_matches_recomputation(fam)
        checked += 1
    assert checked >= 5


def test_family_table_built_once_and_shared_by_restrictions(monkeypatch):
    fam = am.matrix_power_family([[2.0]], -10, 10, L2_1)
    assert fam.members is fam.members
    built, powers = [], []
    post_init, matrix_power = am.Automorphism.__post_init__, am.matrix_power
    monkeypatch.setattr(am.Automorphism, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(am, "matrix_power", lambda *args: powers.append(1) or matrix_power(*args))
    sub = _ref_restrict(fam, fam.members.upper > 4.0)
    assert built == [] and powers == []  # the restriction shares the table's rows
    assert list(sub.params) == list(range(3, 11))
    for name in ("matrices", "inverses", "jacobians", "lower", "upper", "weights"):
        assert np.array_equal(getattr(sub.members, name), getattr(fam.members, name)[13:])
    three = fam.member(3)  # one map, built from row 13 of the table
    assert np.array_equal(three.matrix, fam.members.matrices[13])
    assert np.array_equal(three.inv_matrix, fam.members.inverses[13])
    assert three.jacobian == fam.members.jacobians[13]
    assert powers == []
    with pytest.raises(RejectedInputError, match="parameter 11 is not in the family"):
        fam.member(11)


def test_power_family_table_builds_no_automorphism(monkeypatch):
    # members checks the stacked matrices with the check one map goes through
    built, checked = [], []
    post_init, check = am.Automorphism.__post_init__, am._check_maps
    monkeypatch.setattr(am.Automorphism, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(am, "_check_maps", lambda *args: checked.append(args[0].shape)
                        or check(*args))
    fam = am.matrix_power_family([[2.0]], -60, 60, L2_1)
    assert len(fam.members.matrices) == 121
    assert built == [] and checked == [(121, 1, 1)]
    am.Automorphism([[2.0]])
    assert built == [1] and checked == [(121, 1, 1), (1, 1, 1)]


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


@st.composite
def member_families(draw):
    """A power, shearlet, Gabor or matrix-atom family, in L2 or L-infinity (Gabor
    shifts in their product metric), with weights that vary by member.  One
    draw in four is faulty, to pin which member raises first: a power
    overflows or underflows, a shearlet scale is negative, an atom is
    singular, numerically singular (a subnormal entry: finite det, infinite
    inverse), not square, of another dimension, of an overflowing |det| or of
    an overflowing Gram matrix M^T M, or a member is refused a weight."""
    kind = draw(st.sampled_from(["power", "shearlet", "gabor", "atoms"]))
    faulty = draw(st.integers(0, 3)) == 0
    dim = 2 if kind == "shearlet" else draw(st.integers(1, 3))
    metric = (ml.gabor_product() if kind == "gabor" else
              ml.MetricSpace(draw(st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF])), dim))
    entries = st.floats(-3.0, 3.0)
    if kind == "power":
        base = (np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
                .reshape(dim, dim) + 1.5 * np.eye(dim))
        if faulty:  # a power that overflows or underflows names its exponent
            base *= draw(st.sampled_from([1e120, 1e-120]))
        j_min = draw(st.integers(-4, 2))
        fam = am.matrix_power_family(base, j_min, j_min + draw(st.integers(0, 6)), metric)
    elif kind == "shearlet":  # s and -s tie on their constants, in either member order
        a_values = draw(st.lists(st.floats(0.25, 8.0), min_size=1, max_size=4))
        if faulty:
            a_values.insert(draw(st.integers(0, len(a_values))), -1.0)
        s_values = draw(st.lists(entries, min_size=1, max_size=3))
        fam = am.shearlet_grid_family(a_values, s_values + [-s for s in s_values], metric)
    elif kind == "gabor":
        p_min, step = draw(st.floats(-6.0, 0.0)), draw(st.sampled_from([0.25, 0.5, 1.0]))
        fam = am.gabor_shift_family(p_min + step * np.arange(draw(st.integers(1, 12))))
    else:
        mats = [np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
                .reshape(dim, dim) for _ in range(draw(st.integers(1, 8)))]
        faults = [np.zeros((dim, dim)), np.diag([5e-324] + [1.0] * (dim - 1)),
                  np.ones((dim, dim + 1)), np.eye(dim + 1)]
        if dim > 1:
            gram = np.diag(np.arange(2.0, dim + 2.0))
            gram[0, -1] = 1e300  # [[2, 1e300], [0, 3]] in 2-d
            faults += [1e200 * np.eye(dim), gram]
        for _ in range(draw(st.integers(1, 2)) if faulty else 0):
            mats[draw(st.integers(0, len(mats) - 1))] = draw(st.sampled_from(faults))
        fam = am.AutomorphismFamily(tuple(range(len(mats))), lambda i: (mats[i], None),
                                    lambda i: 1.0, metric)
    refused = {draw(st.sampled_from(fam.params))} if faulty and draw(st.booleans()) else set()
    c = draw(st.floats(0.25, 2.0))

    def weight(*param):
        key = param if len(param) > 1 else param[0]
        if key in refused:
            raise RejectedInputError(f"no weight at {key!r}")
        return 1.0 + c * abs(float(np.sum(key)))

    return am.AutomorphismFamily(fam.params, fam.generator, weight, fam.metric, base=fam.base)


def _ref_band_mass_values(family, envelope, c, ts):
    """The atomic band masses as they stood, from the member records."""
    rows = _ref_members(family)
    uppers = np.array([m.upper for m in rows])
    masses = np.array([m.weight for m in rows])
    values = np.empty(len(ts))
    for i, t in enumerate(ts):
        hi = float(envelope(float(c * t)))
        values[i] = float(np.sum(masses[(uppers >= t) & (uppers <= hi)]))
    return values.tolist()


def _atoms(*mats, refused=None):
    """Three 2-d atoms in L2; the weight of the row `refused` raises."""
    def weight(i):
        if i == refused:
            raise RejectedInputError(f"no weight at {i!r}")
        return 1.0
    return am.AutomorphismFamily((0, 1, 2), lambda i: (mats[i], None), weight, L2_2)


_I2, _O2, _GRAM = np.eye(2), np.zeros((2, 2)), np.array([[2.0, 1e300], [0.0, 3.0]])
_FIRST_FAULTS = [  # (family, message of row 1, the first row at fault)
    (_atoms(_I2, np.ones((2, 3)), _O2), "automorphism matrix must be square"),
    (_atoms(_I2, np.diag([5e-324, 1.0]), np.ones((2, 3))),
     "automorphism matrix is numerically singular"),
    (_atoms(_I2, 1e200 * _I2, _O2), "automorphism jacobian inf overflows a float"),
    (_atoms(_I2, _GRAM, _O2), "Gram matrix M^T M overflows a float"),
    (_atoms(_I2, _O2, _GRAM), "automorphism matrix is singular"),
    (_atoms(_I2, _GRAM, _I2, refused=1), "Gram matrix M^T M overflows a float"),
    (_atoms(_I2, _I2, _GRAM, refused=1), "no weight at 1"),
    (am.matrix_power_family(1e-120 * np.array([[2.0, 1.0], [0.0, 3.0]]), 1, 3, L2_2),
     "** 2 underflows a float"),
]


@pytest.mark.parametrize("fam,message", _FIRST_FAULTS)
def test_first_member_at_fault_raises_as_the_per_member_reference(fam, message):
    error = raised(lambda: fam.members)
    assert error == raised(lambda: _ref_members(fam))
    assert error[0] is RejectedInputError and message in error[1]


@settings(max_examples=150, deadline=None)
@given(fam=member_families(), data=st.data())
def test_member_table_matches_per_member_reference(fam, data):
    ref, table = raised(lambda: _ref_members(fam)), raised(lambda: fam.members)
    if isinstance(ref, tuple):  # the same member raises first, with the same error
        assert table == ref
        return
    _assert_table_matches_recomputation(fam)
    t = fam.members
    if fam.metric.kind == ml.GABOR_PRODUCT or fam.metric.dim == 1:
        scale, offset = am.line_action(t.matrices)
        assert (list(zip(scale.tolist(), offset.tolist()))
                == [_ref_line_action(m.auto) for m in ref])
    # the distortion order, at a constant or between two of them
    uppers = sorted({m.upper for m in ref})
    M = data.draw(st.sampled_from(uppers + [0.5 * uppers[0]]
                                  + [0.5 * (a + b) for a, b in zip(uppers, uppers[1:])]))
    assert ([(fam.params[i], t.upper[i]) for i in fam.above(M).tolist()]
            == [(m.param, m.upper) for m in _ref_above(fam, M)])
    keep = data.draw(st.lists(st.booleans(), min_size=len(ref), max_size=len(ref)))
    kept = [m for m, k in zip(ref, keep) if k]
    sub = raised(lambda: _ref_restrict(fam, np.array(keep)))
    if not kept:
        assert sub == (RejectedInputError, "restriction removed every parameter")
    else:
        assert sub.params == tuple(m.param for m in kept)
        assert sub.members.upper.tolist() == [m.upper for m in kept]
        assert sub.members.weights.tolist() == [m.weight for m in kept]
        assert np.array_equal(sub.members.matrices, np.stack([m.auto.matrix for m in kept]))
    assert (_verdict_fields(am.classify_expansiveness, fam, None)
            == _verdict_fields(_reference_classify, fam, None))
    ts = np.array(uppers[:4])
    assert (am.band_mass_profile(fam, lambda x: x, 2.0, ts, ts[0]).values.tolist()
            == _ref_band_mass_values(fam, lambda x: x, 2.0, ts))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), entries=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
       metric_kind=st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF]))
def test_closed_form_constants_bracket_oracle_property(dim, entries, metric_kind):
    m = np.array(entries[:dim * dim]).reshape(dim, dim)
    assume(abs(np.linalg.det(m)) > 1e-3 and np.linalg.cond(m) < 100.0)
    auto, metric = am.Automorphism(m), ml.MetricSpace(metric_kind, dim)
    closed = constants(auto, metric)
    [(o_lo, o_hi)] = oracle_pairs([auto], metric, n_directions=2000)
    # the oracle only reports attained ratios, so the optimal constants enclose it
    assert closed.lower <= o_lo * (1 + 1e-12)
    assert closed.upper >= o_hi * (1 - 1e-12)


def _member_oracle(auto, metric, n_directions):
    """Reference: the oracle for one member, redrawing everything per call."""
    rng = np.random.default_rng(am.ORACLE_SEED)
    dim = auto.matrix.shape[0]
    dirs = rng.normal(size=(n_directions, dim))
    corners = np.stack(np.meshgrid(*[(-1.0, 1.0)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)
    special = np.concatenate([np.eye(dim), corners])
    dirs = np.concatenate([dirs, special, special @ auto.inv_matrix.T,
                           _member_power_iteration(auto, rng)])
    norms = metric.norm(dirs)
    keep = norms > 1e-12
    dirs = dirs[keep] / norms[keep][:, None]
    ratios = metric.norm(dirs @ auto.matrix.T)
    return float(np.min(ratios)), float(np.max(ratios))


def _member_power_iteration(auto, rng):
    gram = auto.matrix.T @ auto.matrix
    grow = rng.normal(size=auto.matrix.shape[0])
    shrink = rng.normal(size=auto.matrix.shape[0])
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
        autos.append(am.Automorphism(u @ np.diag(np.exp(log_sigma)) @ v))
    metric = ml.MetricSpace(metric_kind, dim)
    assert oracle_pairs(autos, metric, n_directions=n_directions) == [
        _member_oracle(auto, metric, n_directions) for auto in autos]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_members=st.integers(1, 40),
       n_directions=st.sampled_from([1, 7, 400, 5000, 300_000]))
def test_family_oracle_matches_member_by_member_reference_on_gabor_shifts(
        seed, n_members, n_directions):
    # shifts p = 0 and |p| from 1e-3 to 1e3 of both signs; 300,000 directions
    # split the stacked members into blocks of three
    rng = np.random.default_rng(seed)
    ps = rng.choice([-1.0, 1.0], n_members) * 10.0 ** rng.uniform(-3.0, 3.0, n_members)
    ps[rng.random(n_members) < 0.2] = 0.0
    autos = [am.Automorphism(*am.gabor_shift(float(p))) for p in ps]
    assert oracle_pairs(autos, GABOR, n_directions=n_directions) == [
        _ref_lipschitz_oracle_gabor(float(p), n_directions) for p in ps]


def test_classify_dyadic_dilations_uniform_identity_envelope():
    fam = am.matrix_power_family([[2.0]], -20, 20, L2_1)
    verdict = am.classify_expansiveness(fam)
    assert verdict.verdict == "uniformly_expanding"
    xs = np.array([2.0, 4.0, 64.0, 1024.0])
    assert np.allclose(np.interp(xs, verdict.envelope.xs, verdict.envelope.ys), xs, atol=1e-9)


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
    table = [(m.param, m.lower, m.upper) for m in _ref_members(family)]
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
                                lambda i: (mats[i], None),
                                lambda i: 1.0, ml.MetricSpace(metric_kind, dim))
    probe_m = None if probe_q is None else float(np.quantile(fam.members.upper, probe_q))
    assert (_verdict_fields(am.classify_expansiveness, fam, probe_m)
            == _verdict_fields(_reference_classify, fam, probe_m))


def test_gabor_product_reads_any_shift_form_matrix_as_a_gabor_shift():
    for p in (0.0, 0.7, -2.5, 1e6):
        shift = am.Automorphism(*am.gabor_shift(p))
        matrix = am.Automorphism([[1.0, -p], [0.0, 1.0]])
        assert constants(matrix, GABOR) == constants(shift, GABOR)
        assert matrix.jacobian == shift.jacobian == 1.0
        scale, offset = am.line_action(np.stack([matrix.matrix, shift.matrix]))
        assert scale.tolist() == [1.0, 1.0] and offset.tolist() == [-p, -p]
