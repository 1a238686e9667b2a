import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affineframes import automorphisms as am
from affineframes import counting as ct
from affineframes import metric_lattice as ml
from affineframes import runner
from affineframes.errors import RejectedInputError, ResourceLimitError
from unimodular import random_unimodular

SEED = 97531
L2_1 = ml.euclidean_l2(1)
LINF_2 = ml.euclidean_linf(2)
Z1 = ml.integer_lattice(1)
Z2 = ml.integer_lattice(2)
IDENTITY_2 = am.matrix_automorphism(np.eye(2))
ENUMERATE = ct.enumerate_points  # the function under test, whatever a test patches


def brute_count(basis: np.ndarray, auto: am.Automorphism, r: float,
                metric: ml.MetricSpace, span: int) -> int:
    """Independent oracle: full integer box, explicit membership."""
    axes = [np.arange(-span, span + 1)] * basis.shape[0]
    mesh = np.meshgrid(*axes, indexing="ij")
    m = np.stack([g.ravel() for g in mesh], axis=-1).astype(float)
    pts = m @ basis.T
    dist = metric.norm(auto.inverse_apply(pts))
    return int(np.sum(dist < r))


def _reference_enumerate(lattice: ml.Lattice, auto: am.Automorphism, r: float,
                         metric: ml.MetricSpace) -> tuple[int, int, np.ndarray]:
    """The box enumeration the line count replaced, kept as its oracle: every
    point of the integer box through the exact test.  Returns the count, the
    boundary hits and the inside points."""
    ball_lo, ball_hi = metric.ball_box(r)
    if metric.kind == ml.GABOR_PRODUCT:
        base = lattice.points_in_box(ball_lo[:1], ball_hi[:1])
        candidates = np.concatenate([base, np.zeros((base.shape[0], 1))], axis=1)
    else:
        candidates = lattice.points_in_box(*auto.box_image(ball_lo, ball_hi))
    dist = metric.norm(auto.inverse_apply(candidates))
    boundary = np.abs(dist - r) <= ct.BOUNDARY_GUARD
    inside = (dist < r) & ~boundary
    return int(inside.sum()), int(boundary.sum()), candidates[inside]


def _counts(lattice, auto, r, metric) -> set[tuple[int, int]]:
    """(count, boundary_hits) of enumerate_points on its default path and with
    every box sent down the line path."""
    default = ENUMERATE(lattice, auto, r, metric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ct, "WHOLE_BOX", 0)
        lines = ENUMERATE(lattice, auto, r, metric)
    return {(default.count, default.boundary_hits), (lines.count, lines.boundary_hits)}


def test_enumerate_identity_small_radius():
    count, hits, points = _reference_enumerate(Z2, IDENTITY_2, 0.4, LINF_2)
    assert np.array_equal(points, [[0.0, 0.0]]) and (count, hits) == (1, 0)
    assert _counts(Z2, IDENTITY_2, 0.4, LINF_2) == {(1, 0)}


def test_enumerate_hyperbolic_power_seven_points():
    auto = am.matrix_power([[2.0, 0.0], [0.0, 0.5]], 3)
    count, hits, points = _reference_enumerate(Z2, auto, 0.4, LINF_2)
    assert np.array_equal(np.sort(points[:, 0]), np.arange(-3.0, 4.0))
    assert np.array_equal(points[:, 1], np.zeros(7)) and (count, hits) == (7, 0)
    assert _counts(Z2, auto, 0.4, LINF_2) == {(7, 0)}


def test_enumeration_memory_stays_with_the_band():
    # example_bad's member j = 20: 838,861 points on one lattice line, which
    # the box enumeration held as a 13 MB array of inside points
    auto = am.matrix_power([[2.0, 0.0], [0.0, 0.5]], 20)
    tracemalloc.start()
    try:
        result = ct.enumerate_points(Z2, auto, 0.4, LINF_2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.count, result.boundary_hits) == (2 * math.floor(0.4 * 2 ** 20) + 1, 0)
    assert not any(isinstance(v, np.ndarray) for v in vars(result).values())
    assert peak < 1 << 20


def test_enumerate_shearlet_within_box_bound():
    auto = am.shearlet(4.0, 1.0)
    result = ct.enumerate_points(Z2, auto, 0.45, LINF_2)
    bound = (math.floor(2 * 0.45 * 4) + 1) * (math.floor(2 * 0.45 * 2) + 1)
    assert result.count == brute_count(np.eye(2), auto, 0.45, LINF_2, 8)
    assert result.count <= bound


def test_enumerate_counts_match_bruteforce_random_matrices():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.2:
            continue
        auto = am.matrix_automorphism(m)
        r = float(rng.uniform(0.2, 1.5))
        mine = ct.enumerate_points(Z2, auto, r, LINF_2).count
        assert mine == brute_count(np.eye(2), auto, r, LINF_2, 12)


def test_enumerate_boundary_points_excluded_and_logged():
    result = ct.enumerate_points(Z1, am.matrix_automorphism([[1.0]]), 1.0, L2_1)
    assert result.count == 1
    assert result.boundary_hits == 2


def test_enumerate_origin_always_counted():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        auto = am.shearlet(float(rng.uniform(0.5, 8)), float(rng.uniform(-4, 4)))
        r = float(rng.uniform(0.05, 1.0))
        assert ct.enumerate_points(Z2, auto, r, LINF_2).count >= 1


def test_enumerate_point_set_symmetric_under_negation():
    auto = am.shearlet(6.0, 2.0)
    count, hits, points = _reference_enumerate(Z2, auto, 0.6, LINF_2)
    pts = {tuple(p) for p in points}
    assert pts == {tuple(-np.asarray(p)) for p in pts} and len(pts) == count
    # -A deforms the ball into the same set, and -B spans the same lattice
    counts = _counts(Z2, auto, 0.6, LINF_2)
    assert counts == {(count, hits)}
    assert _counts(Z2, am.matrix_automorphism(-auto.matrix), 0.6, LINF_2) == counts
    assert _counts(ml.Lattice(-np.eye(2)), auto, 0.6, LINF_2) == counts


def test_enumerate_monotone_in_radius():
    auto = am.shearlet(3.0, -1.0)
    counts = [ct.enumerate_points(Z2, auto, r, LINF_2).count
              for r in (0.1, 0.3, 0.5, 0.8, 1.2)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_enumerate_resource_cap():
    # 400,001^2 lattice lines: the cap counts lines and fires before any exists
    auto = am.matrix_automorphism(np.diag([1e5, 1e5, 1e5]))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="lattice lines"):
            ct.enumerate_points(ml.integer_lattice(3), auto, 2.0, ml.euclidean_linf(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_counts_the_old_capped_box_in_closed_form():
    # 400,001^2 box points, past the old 1e8-point cap: |m_i| <= 199,999 are
    # inside, and the square ring max |m_i| = 200,000 sits on the sphere
    auto = am.matrix_automorphism(np.diag([1e5, 1e5]))
    result = ct.enumerate_points(Z2, auto, 2.0, LINF_2)
    assert (result.count, result.boundary_hits) == (399_999 ** 2, 400_001 ** 2 - 399_999 ** 2)


def test_enumerate_counts_far_past_the_old_cap_in_closed_form():
    # example_bad's base at j = 40: lattice line spacing 2**-40 < BOUNDARY_GUARD,
    # so the box ends t = +-floor(0.4 * 2**40), at 0.4 * 2**-40 inside the
    # sphere, are boundary hits and the count is 2 * floor(0.4 * 2**40) - 1
    auto = am.matrix_power([[2.0, 0.0], [0.0, 0.5]], 40)
    start = time.perf_counter()
    result = ct.enumerate_points(Z2, auto, 0.4, LINF_2)
    assert time.perf_counter() - start < 0.5
    assert (result.count, result.boundary_hits) == (2 * math.floor(0.4 * 2 ** 40) - 1, 2)
    assert result.count == 879_609_302_219


def test_enumerate_gabor_counts_base_slice():
    gfam = am.gabor_shift(0.7)
    metric = ml.gabor_product()
    # integer base lattice on the k = 0 slice; shifts never move it
    for r, expected in ((0.5, 1), (1.2, 3), (2.5, 5)):
        result = ct.enumerate_points(Z1, gfam, r, metric)
        assert result.count == expected


def test_counting_bounds_interval_example():
    bounds = ct.counting_bounds(Z1, am.matrix_automorphism([[1.0]]), 0.25, L2_1,
                                n_samples=200000)
    assert bounds.count == 1
    assert bounds.upper_bound == pytest.approx(2.0, rel=0.02)
    assert bounds.lower_bound_at_2r == pytest.approx(1.0, rel=0.02)
    count_2r = ct.enumerate_points(Z1, am.matrix_automorphism([[1.0]]), 0.5, L2_1).count
    assert bounds.count <= bounds.upper_bound + 3 * bounds.upper_bound_stderr
    assert count_2r >= bounds.lower_bound_at_2r - 3 * bounds.lower_bound_stderr
    assert set(bounds.bound_inputs) == {"deformed_ball_r", "deformed_ball_2r",
                                        "omega_overlap_r"}


def test_counting_bounds_degenerate_overlap_rejected():
    from affineframes.errors import DegenerateDomainError
    with pytest.raises(DegenerateDomainError):
        ct.counting_bounds(Z1, am.matrix_automorphism([[1.0]]), 1e-4, L2_1,
                           n_samples=1000, seed=3)


def test_counting_bounds_shearlet_sandwich():
    auto = am.shearlet(2.0, 3.0)
    bounds = ct.counting_bounds(Z2, auto, 0.3, LINF_2, n_samples=150000)
    count_2r = ct.enumerate_points(Z2, auto, 0.6, LINF_2).count
    assert bounds.count <= bounds.upper_bound + 3 * bounds.upper_bound_stderr
    assert count_2r >= bounds.lower_bound_at_2r - 3 * bounds.lower_bound_stderr


def test_counting_bounds_gabor_slice():
    # base-line lattice on the zero-modulation slice; the ball at 2r = 1
    # spans a single slice, so the bound inputs are exact small numbers
    auto = am.gabor_shift(0.7)
    metric = ml.gabor_product()
    bounds = ct.counting_bounds(Z1, auto, 0.5, metric, n_samples=100000)
    assert bounds.count == 1
    assert bounds.upper_bound == pytest.approx(2.0, rel=0.02)
    count_2r = ct.enumerate_points(Z1, auto, 1.0, metric).count
    assert count_2r >= bounds.lower_bound_at_2r - 3 * bounds.lower_bound_stderr


def test_property_x_shearlet_grid_holds_with_paper_constant():
    fam = am.shearlet_grid_family([1, 2, 4, 8, 16, 32, 64], range(-8, 9), LINF_2)
    report = ct.property_x_scan(fam, Z2, LINF_2, 0.4, 1.0)
    assert report.verdict == "holds"
    assert report.constant <= 2.24
    # holds means the bound is satisfied row by row with the estimated constant
    for row in report.rows:
        assert row.count <= 1 + report.constant * row.jacobian + 1e-9


def test_property_x_hyperbolic_powers_violated():
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 0.5]], 0, 20, LINF_2)
    report = ct.property_x_scan(fam, Z2, LINF_2, 0.4, 1.0)
    assert report.verdict == "violated"
    assert report.witness == 20
    assert report.witness_count == 2 * math.floor(0.4 * 2 ** 20) + 1
    assert report.attempted_bound is not None


def test_property_x_gabor_holds_with_unit_jacobian():
    fam = am.gabor_shift_family(np.arange(-10.0, 11.0))
    report = ct.property_x_scan(fam, Z1, ml.gabor_product(), 0.5, 1.0)
    assert report.verdict == "holds"
    counts = {row.count for row in report.rows}
    assert counts == {1}
    assert all(row.jacobian == 1.0 for row in report.rows)


def test_property_x_holds_propagates_to_smaller_radius():
    fam = am.shearlet_grid_family([1, 2, 4, 8], range(-6, 7), LINF_2)
    base = ct.property_x_scan(fam, Z2, LINF_2, 0.4, 1.0)
    assert base.verdict == "holds"
    for r in (0.3, 0.2, 0.1):
        smaller = ct.property_x_scan(fam, Z2, LINF_2, r, 1.0)
        assert smaller.verdict == "holds"
        for row in smaller.rows:
            assert row.count <= 1 + base.constant * row.jacobian + 1e-9


def test_property_x_empty_tail_rejected():
    fam = am.shearlet_grid_family([1, 2], [-1, 0, 1], LINF_2)
    with pytest.raises(RejectedInputError):
        ct.property_x_scan(fam, Z2, LINF_2, 0.4, 1e9)


def _filter_and_sort(family, M):
    """Reference copy of the distortion order: members with L(h) > M, sorted by
    upper constant, then by the parameter's string form."""
    return sorted((m for m in family.members if m.upper > M),
                  key=lambda m: (m.upper, str(m.param)))


def _scan_rows_reference(family, r, M):
    """Reference copy of the scan rows: enumerate in member order, sort after."""
    rows = []
    for m in family.members:
        if m.upper <= M:
            continue
        count = ct.enumerate_points(Z2, m.auto, r, family.metric).count
        rows.append(ct.ScanRow(m.param, m.upper, m.jacobian, count, (count - 1) / m.jacobian))
    rows.sort(key=lambda row: (row.upper_constant, str(row.param)))
    return rows


_symmetric_shearlets = st.builds(
    lambda a_values, s_abs, metric: am.shearlet_grid_family(
        a_values, s_abs + [-s for s in s_abs], metric),
    st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=3, unique=True),
    st.sampled_from([LINF_2, ml.euclidean_l2(2)]))
_power_ranges = st.builds(
    lambda base, j, metric: am.matrix_power_family(base, -j, j, metric),
    st.sampled_from([[[2.0, 0.0], [0.0, 0.5]], [[1.5, 0.0], [0.0, 1.0]],
                     [[2.0, 1.0], [0.0, 0.5]]]),
    st.integers(0, 4), st.sampled_from([LINF_2, ml.euclidean_l2(2)]))


@settings(max_examples=40, deadline=None)
@given(family=st.one_of(_symmetric_shearlets, _power_ranges), data=st.data())
def test_distortion_order_matches_filter_and_sort(family, data):
    # upper constants tie across s -> -s and j -> -j; M sits on a constant or
    # between two of them
    uppers = sorted({m.upper for m in family.members})
    cuts = uppers + [0.5 * (a + b) for a, b in zip(uppers, uppers[1:])] + [0.5 * uppers[0]]
    M = data.draw(st.sampled_from(cuts))
    expected = _filter_and_sort(family, M)
    assert family.above(M) == expected
    reference = _scan_rows_reference(family, 0.4, M)
    if not expected:
        with pytest.raises(RejectedInputError):
            ct.property_x_scan(family, Z2, family.metric, 0.4, M)
        return
    report = ct.property_x_scan(family, Z2, family.metric, 0.4, M)
    assert list(report.rows) == reference


def test_random_instance_sandwich_small():
    # randomized two-sided bounds in dims 1-3 (small copy of the acceptance run)
    rng = np.random.default_rng(SEED)
    for case in range(12):
        dim = int(rng.integers(1, 4))
        metric = ml.MetricSpace(ml.EUCLIDEAN_LINF if case % 2 else ml.EUCLIDEAN_L2, dim)
        basis = random_unimodular(rng, dim)
        deform = random_unimodular(rng, dim)
        lattice = ml.Lattice(basis)
        auto = am.matrix_automorphism(deform)
        r = float(rng.uniform(0.05, 2.0))
        bounds = ct.counting_bounds(lattice, auto, r, metric, n_samples=50000,
                                    seed=SEED + case)
        count_2r = ct.enumerate_points(lattice, auto, 2 * r, metric).count
        assert bounds.count <= bounds.upper_bound + 3 * bounds.upper_bound_stderr
        assert count_2r >= bounds.lower_bound_at_2r - 3 * bounds.lower_bound_stderr


@pytest.mark.parametrize("metric", [L2_1, ml.euclidean_linf(1)])
def test_guard_band_spans_many_points_of_a_fine_line(metric):
    # lattice spacing 1e-13 in y: the 1e-12 guard band inside the sphere holds
    # about 10 lattice points at each end of the box line t in [-1e10, 1e10]
    auto, r = am.matrix_automorphism([[1e13]]), 1e-3
    _, box_hi = Z1.integer_box(*auto.box_image(*metric.ball_box(r)))
    window = np.arange(box_hi[0] - 100, box_hi[0] + 1, dtype=float)[:, None]
    gap = metric.norm(auto.inverse_apply(window @ Z1.basis.T)) - r
    assert gap[0] < -ct.BOUNDARY_GUARD  # |dist| grows with |t|: every t below is inside
    last_inside = int(window[gap < -ct.BOUNDARY_GUARD, 0].max())
    hits = int(np.count_nonzero(np.abs(gap) <= ct.BOUNDARY_GUARD))
    assert hits >= 10
    assert _counts(Z1, auto, r, metric) == {(2 * last_inside + 1, 2 * hits)}


# ---------------------------------------------------------------------------
# The line count against the box enumeration, and metamorphic relations
# ---------------------------------------------------------------------------

MAX_REFERENCE_BOX = 20_000  # box points the reference enumerates per drawn case


@st.composite
def _random_counts(draw):
    """A lattice, a deformation scaled by e^[-1, 2] and a radius, in dims 1 to 3,
    L2 or L∞; half the time the radius is the distance of a lattice point, which
    then sits on the sphere."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = int(rng.integers(1, 4))
    metric = ml.MetricSpace((ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF)[rng.integers(2)], dim)
    lattice = ml.Lattice(random_unimodular(rng, dim, max_cond=10.0))
    auto = am.matrix_automorphism(random_unimodular(rng, dim, max_cond=10.0)
                                  * math.exp(rng.uniform(-1.0, 2.0)))
    if rng.random() < 0.5:
        m = rng.integers(-3, 4, size=dim)
        m[0] = m[0] or 1
        r = float(metric.norm(auto.inverse_apply(m.astype(float) @ lattice.basis.T)))
    else:
        r = float(rng.uniform(0.05, 2.0))
    box_lo, box_hi = lattice.integer_box(*auto.box_image(*metric.ball_box(r)))
    while np.prod((box_hi - box_lo + 1).astype(float)) > MAX_REFERENCE_BOX:
        r *= 0.5  # the drawn sphere point is lost, the case stays
        box_lo, box_hi = lattice.integer_box(*auto.box_image(*metric.ball_box(r)))
    return lattice, auto, r, metric


@settings(max_examples=200, deadline=None)
@given(case=_random_counts())
def test_line_count_equals_the_box_enumeration(case):
    count, hits, _ = _reference_enumerate(*case)
    assert _counts(*case) == {(count, hits)}


def test_every_bundled_enumeration_matches_the_box_enumeration(tmp_path, monkeypatch):
    calls = []

    def checked(lattice, auto, r, metric):
        count, hits, _ = _reference_enumerate(lattice, auto, r, metric)
        assert _counts(lattice, auto, r, metric) == {(count, hits)}
        calls.append(count)
        return ENUMERATE(lattice, auto, r, metric)

    monkeypatch.setattr(ct, "enumerate_points", checked)
    for name in runner.bundled_scenario_names():
        runner.run_scenario(runner.load_bundled_scenario(name), tmp_path / name)
    assert len(calls) == 287


def _random_unimodular_integers(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Integer matrix of determinant +-1: a signed permutation times shears."""
    u = np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], size=dim)
    for _ in range(3 * (dim - 1)):
        i, j = rng.choice(dim, size=2, replace=False)
        u[i] += rng.choice([-1.0, 1.0]) * u[j]
    return u


def _line_counts(lattice, auto, r, metric) -> tuple[int, int]:
    """(count, boundary_hits) with every box sent down the line path, so the
    relations below test `_line_band` against itself and need no oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ct, "WHOLE_BOX", 0)
        result = ENUMERATE(lattice, auto, r, metric)
    return result.count, result.boundary_hits


@st.composite
def _metamorphic_counts(draw):
    """`_random_counts`, or half the time a diagonal lattice and deformation:
    then the integer box is tight and points on its faces lie inside the
    ball, which the unimodular draws seldom reach."""
    if draw(st.booleans()):
        return draw(_random_counts())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = int(rng.integers(1, 4))
    metric = ml.MetricSpace((ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF)[rng.integers(2)], dim)
    lattice = ml.Lattice(np.diag(np.exp(rng.uniform(-0.5, 0.5, dim))))
    auto = am.matrix_automorphism(np.diag(np.exp(rng.uniform(-1.0, 2.5, dim))))
    return lattice, auto, float(rng.uniform(0.3, 2.0)), metric


@settings(max_examples=150, deadline=None)
@given(case=_metamorphic_counts(), seed=st.integers(0, 2 ** 32 - 1))
def test_line_counts_depend_on_the_lattice_not_its_basis(case, seed):
    lattice, auto, r, metric = case
    u = _random_unimodular_integers(np.random.default_rng(seed), lattice.dim)
    assert (_line_counts(ml.Lattice(lattice.basis @ u), auto, r, metric)
            == _line_counts(*case))


@settings(max_examples=150, deadline=None)
@given(case=_metamorphic_counts())
def test_line_counts_scale_with_the_lattice_and_radius(case):
    # doubling B and r doubles every computed distance and its gap to r exactly,
    # but the 1e-12 boundary guard stays absolute: a gap g in (5e-13, 1e-12] is a
    # boundary hit at (B, r) and not at (2B, 2r).  The draws put lattice points
    # exactly on the sphere (|g| near 1e-16) or, at uniform radii, almost surely
    # more than 2e-12 from it; the assumption discards the rest
    lattice, auto, r, metric = case
    candidates = lattice.points_in_box(*auto.box_image(*metric.ball_box(r)))
    gap = np.abs(metric.norm(auto.inverse_apply(candidates)) - r)
    assume(not np.any((gap > 1e-14) & (gap <= 2e-12)))
    assert (_line_counts(ml.Lattice(2.0 * lattice.basis), auto, 2.0 * r, metric)
            == _line_counts(*case))
