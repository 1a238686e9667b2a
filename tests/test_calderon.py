import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineframes import automorphisms as am
from affineframes import calderon as cd
from affineframes import config as cfg
from affineframes import metric_lattice as ml
from affineframes import runner
from affineframes.errors import RejectedInputError, SingularPointError
from affineframes.profiles import PiecewiseConstantProfile, indicator_interval

L2_1 = ml.euclidean_l2(1)
L2_2 = ml.euclidean_l2(2)

SHANNON = PiecewiseConstantProfile(np.array([[-1.0], [0.5]]), np.array([[-0.5], [1.0]]),
                                   np.array([1.0, 1.0]))
RING_2D = PiecewiseConstantProfile(
    np.array([[-1.0, 0.5], [-1.0, -1.0], [-1.0, -0.5], [0.5, -0.5]]),
    np.array([[1.0, 1.0], [1.0, -0.5], [-0.5, 0.5], [1.0, 0.5]]),
    np.array([1.0, 1.0, 1.0, 1.0]))


def dyadic_family(j_lo=-60, j_hi=60):
    return am.matrix_power_family([[2.0]], j_lo, j_hi, L2_1)


def shannon_bruteforce(xi: float) -> float:
    """Independent orbit-sum oracle: explicit dyadic loop."""
    total = 0.0
    for j in range(-60, 61):
        y = (2.0 ** j) * xi
        if (-1.0 <= y < -0.5) or (0.5 <= y < 1.0):
            total += 1.0
    return total


def test_shannon_orbit_sum_is_one_certified():
    fam = dyadic_family()
    for xi in (0.3, -0.7, 1.9, 0.011):
        ev = cd.calderon_sum(SHANNON, fam, xi)[0]
        assert ev.value == pytest.approx(shannon_bruteforce(xi), abs=1e-15)
        assert ev.value == pytest.approx(1.0, abs=1e-12)
        assert ev.certified_exact
        assert ev.tail_estimate == 0.0


def _assert_batch_matches_per_point(profile, fam, grid):
    batch = cd.calderon_sum(profile, fam, grid)
    assert len(batch) == len(grid)
    for x, ev in zip(grid, batch):
        single = cd.calderon_sum(profile, fam, x)[0]
        assert ev.value == single.value
        assert ev.tail_estimate == single.tail_estimate
        assert ev.certified_exact == single.certified_exact
        assert ev.truncation == single.truncation


def test_batched_orbit_sums_match_per_point_on_bundled_scans():
    for name in ("shannon_onb", "gabor_onb"):
        scenario = runner.load_bundled_scenario(name)
        scan = scenario["analyses"][0]
        grid = cfg.scan_grid(scan["segments"], scan["points_per_segment"])
        _assert_batch_matches_per_point(cfg.build_profile(scenario),
                                        cfg.build_family(scenario), grid)


def test_certificates_and_edge_tails_against_direct_end_terms():
    # dyadic powers j in [-3, 3] (expanding or contracting base) provably
    # leave the support past both ends exactly when 1/8 < |xi| < 4; elsewhere
    # the tail estimate is the weighted sum of the two end terms
    grid = np.array([-5.0, -0.2, 0.1, 0.2, 1.0, 3.9, 4.5, 9.0])
    weight = lambda j: 1.0 + abs(j)
    for base in (2.0, 0.5):
        fam = am.matrix_power_family([[base]], -3, 3, L2_1, weight=weight)
        _assert_batch_matches_per_point(SHANNON, fam, grid)
        for x, ev in zip(grid, cd.calderon_sum(SHANNON, fam, grid)):
            assert ev.certified_exact == (0.125 < abs(x) < 4.0)
            ends = sum(weight(j) * SHANNON.evaluate([[base ** j * x]])[0] ** 2
                       for j in (-3, 3))
            assert ev.tail_estimate == (0.0 if ev.certified_exact else ends)
    # shifts p in [-2, 2] cover the window support [0, 1) exactly when
    # -1 <= xi <= 2
    g = PiecewiseConstantProfile(np.array([[0.0], [0.4]]), np.array([[0.4], [1.0]]),
                                 np.array([0.7, 1.3]))
    gabor = am.gabor_shift_family(np.arange(-2.0, 3.0), weight=lambda p: 1.0 + p * p)
    grid = np.linspace(-3.0, 3.0, 61)
    _assert_batch_matches_per_point(g, gabor, grid)
    for x, ev in zip(grid, cd.calderon_sum(g, gabor, grid)):
        assert ev.certified_exact == (-1.0 <= x <= 2.0)
        ends = sum(5.0 * g.evaluate([[x - p]])[0] ** 2 for p in (-2.0, 2.0))
        assert ev.tail_estimate == (0.0 if ev.certified_exact else ends)
    assert any(ev.tail_estimate > 0.0 for ev in cd.calderon_sum(g, gabor, grid))


@settings(max_examples=40, deadline=None)
@given(base=st.floats(0.2, 4.0).filter(lambda b: abs(b - 1.0) > 0.05),
       j_min=st.integers(-10, 3), span=st.integers(0, 10),
       xs=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=20))
def test_batched_orbit_sums_property_on_dilation_powers(base, j_min, span, xs):
    fam = am.matrix_power_family([[base]], j_min, j_min + span, L2_1,
                                 weight=lambda j: 2.0 ** (-abs(j)))
    _assert_batch_matches_per_point(SHANNON, fam, np.array(xs + [-x for x in xs]))


def test_zero_profile_gives_zero_everywhere():
    zero = SHANNON.scaled(0.0)
    fam = dyadic_family()
    vals = cd.calderon_values(zero, fam, np.linspace(0.1, 2.0, 50)[:, None])
    assert np.all(vals == 0.0)


def test_gabor_tiling_window_sums_to_one():
    fam = am.gabor_shift_family(np.arange(-25.0, 26.0))
    g = indicator_interval(0.0, 1.0)
    vals = cd.calderon_values(g, fam, np.linspace(-3, 3, 200)[:, None])
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_quadratic_scaling_exact():
    fam = dyadic_family()
    xi = np.linspace(0.05, 1.5, 40)[:, None]
    base = cd.calderon_values(SHANNON, fam, xi)
    for c in (2.0, -3.0, 0.25):
        scaled = cd.calderon_values(SHANNON.scaled(c), fam, xi)
        assert np.array_equal(scaled, c * c * base)


def test_singular_point_rejected_for_dilation_families():
    with pytest.raises(SingularPointError):
        cd.calderon_sum(SHANNON, dyadic_family(), 0.0)


def test_gabor_family_allows_zero_frequency():
    fam = am.gabor_shift_family(np.arange(-5.0, 6.0))
    g = indicator_interval(0.0, 1.0)
    assert cd.calderon_sum(g, fam, 0.0)[0].value == pytest.approx(1.0)


def test_gabor_orbit_action_matches_direct_translate_formula():
    fam = am.gabor_shift_family(np.arange(-8.0, 9.0), weight=lambda p: 1.0 + abs(p))
    edges = np.array([0.0, 0.3, 0.8, 1.0])
    g = PiecewiseConstantProfile(edges[:-1, None], edges[1:, None],
                                 np.array([0.5, 1.5, -0.7]))

    def direct(xi: float) -> float:
        total = 0.0
        for p in np.arange(-8.0, 9.0):
            y = xi - p
            val = 0.0
            for lo, hi, v in zip(edges[:-1], edges[1:], (0.5, 1.5, -0.7)):
                if lo <= y < hi:
                    val = v
            total += (1.0 + abs(p)) * val * val
        return total

    for xi in (-2.3, 0.0, 0.45, 1.9):
        assert cd.calderon_sum(g, fam, xi)[0].value == pytest.approx(direct(xi), abs=1e-14)


def test_partition_additivity_under_shared_truncation():
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 0.5]], -10, 10, ml.euclidean_linf(2))
    xi = np.array([0.6, 0.35])
    M = 4.5  # avoids ties with the attained distortion values
    low = fam.restrict(lambda _p, _lo, hi: hi < M)
    high = fam.restrict(lambda _p, _lo, hi: hi >= M)
    for weighted in (False, True):
        full_v = cd.calderon_values(RING_2D, fam, xi[None, :], weighted=weighted)[0]
        parts = (cd.calderon_values(RING_2D, low, xi[None, :], weighted=weighted)[0]
                 + cd.calderon_values(RING_2D, high, xi[None, :], weighted=weighted)[0])
        assert parts == pytest.approx(full_v, abs=1e-14)


def test_tail_restriction_matches_weighted_restricted_sum():
    fam = dyadic_family(-20, 20)
    xi = 0.3
    M = 4.5
    tail = cd.calderon_tail(SHANNON, fam, xi, M)
    high = fam.restrict(lambda _p, _lo, hi: hi > M)
    direct = cd.calderon_values(SHANNON, high, np.array([[xi]]), weighted=True)[0]
    assert tail.value == pytest.approx(direct, abs=1e-14)
    assert not tail.diverging


def test_gabor_tail_never_exceeds_orbit_sum():
    fam = am.gabor_shift_family(np.arange(-25.0, 26.0))
    g = indicator_interval(0.0, 1.0)
    for xi in (-1.7, 0.2, 2.4):
        total = cd.calderon_sum(g, fam, xi)[0].value
        for M in (1.0, 2.0, 5.0, 20.0):
            tail = cd.calderon_tail(g, fam, xi, M)
            assert tail.value <= total + 1e-14


def test_tail_vanishes_as_cutoff_grows_when_integrable():
    fam = dyadic_family(-20, 20)
    xi = 0.3
    values = [cd.calderon_tail(SHANNON, fam, xi, M).value
              for M in (1.0, 4.0, 16.0, 64.0)]
    assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_continuous_reciprocal_square_weight_tail_is_log_two():
    # density a^-2 against the jacobian weight a leaves 1/a over the active
    # window [5/3, 10/3]; the integral is log 2
    fam = am.continuous_dilation_family(0.05, 200.0, 64, L2_1,
                                        weight=lambda a: a ** -2)
    ev = cd.calderon_tail(SHANNON, fam, 0.3, 1.0)
    assert ev.value == pytest.approx(math.log(2.0), abs=1e-6)
    assert ev.certified_exact


def test_continuous_tail_clipped_by_distortion_cutoff():
    # cutoff inside the active window [5/3, 10/3]: the weighted integrand is
    # identically one there, so the tail is the clipped window length
    fam = am.continuous_dilation_family(0.05, 200.0, 64, L2_1,
                                        weight=lambda a: 1.0 / a)
    ev = cd.calderon_tail(SHANNON, fam, 0.3, 2.0)
    assert ev.value == pytest.approx(10.0 / 3.0 - 2.0, abs=1e-9)


def test_continuous_orbit_sum_reciprocal_weight_constant_log_two():
    fam = am.continuous_dilation_family(0.05, 200.0, 64, L2_1,
                                        weight=lambda a: 1.0 / a)
    for xi in (0.06, 0.3, -1.4, 1.97):
        ev = cd.calderon_sum(SHANNON, fam, xi)[0]
        assert ev.value == pytest.approx(math.log(2.0), abs=1e-9)
        assert ev.certified_exact


def test_continuous_uncovered_window_reports_tail():
    fam = am.continuous_dilation_family(1.0, 2.0, 16, L2_1, weight=lambda a: 1.0)
    ev = cd.calderon_sum(SHANNON, fam, 0.3)[0]
    assert not ev.certified_exact
    assert ev.tail_estimate > 0.0


def test_divergence_flag_on_fixed_line_of_shear_powers():
    # frequency-side shears fix the horizontal axis pointwise, so geometric
    # weights pile up along distortion-ordered truncations
    fam = am.matrix_power_family([[1.0, 1.0], [0.0, 1.0]], 1, 24, L2_2,
                                 weight=lambda j: 2.0 ** j)
    box = PiecewiseConstantProfile(np.array([[-1.0, -1.0]]), np.array([[1.0, 1.0]]),
                                   np.array([1.0]))
    ev = cd.calderon_tail(box, fam, np.array([0.5, 0.0]), 1.0)
    assert ev.diverging
    sums = ev.truncation["partial_sums"]
    assert sums[-1] > 1.5 * sums[-2] > 2.25 * sums[-3]


# ---------------------------------------------------------------------------
# Local integrability over compact boxes
# ---------------------------------------------------------------------------

def test_local_integrability_shannon_finite():
    fam = dyadic_family(-20, 20)
    report = cd.local_integrability_check(SHANNON, fam, [0.1], [2.0], M=2.0)
    assert report.verdict == "finite"
    # only finitely many dilations can land the box inside the support
    assert report.value > 0


def test_local_integrability_anisotropic_superposition_bound():
    # annular box: the tail integral is bounded by (weight cap) * (number of
    # overlapping dilates) * (profile squared norm)
    base = np.array([[2.0, 0.0], [0.0, 3.0]])
    fam = am.matrix_power_family(base, -12, 12, L2_2)
    box_lo, box_hi = [0.25, 0.25], [2.0, 2.0]
    report = cd.local_integrability_check(RING_2D, fam, box_lo, box_hi, M=2.0,
                                          level=4)
    assert report.verdict == "finite"
    d = math.hypot(0.25, 0.25)
    D = math.hypot(2.0, 2.0)
    superpositions = math.ceil(math.log(D / d) / math.log(3.0))
    bound = 1.0 * superpositions * RING_2D.squared_norm()
    assert report.value <= bound + 1e-9


def test_local_integrability_divergent_evidence_for_geometric_weights():
    fam = am.matrix_power_family([[1.0, 1.0], [0.0, 1.0]], 1, 24, L2_2,
                                 weight=lambda j: 2.0 ** j)
    box = PiecewiseConstantProfile(np.array([[-1.0, -1.0]]), np.array([[1.0, 1.0]]),
                                   np.array([1.0]))
    report = cd.local_integrability_check(box, fam, [0.25, -0.25], [0.75, 0.25],
                                          M=1.0, level=3)
    assert report.verdict == "divergent"
    assert report.partial_sums[-1] > report.partial_sums[0]


def test_local_integrability_box_containing_identity_rejected():
    fam = dyadic_family(-5, 5)
    with pytest.raises(RejectedInputError):
        cd.local_integrability_check(SHANNON, fam, [-0.5], [0.5], M=2.0)


def test_tail_cutoff_must_be_positive():
    with pytest.raises(RejectedInputError):
        cd.calderon_tail(SHANNON, dyadic_family(-5, 5), 0.3, 0.0)
