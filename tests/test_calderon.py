import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affineframes import automorphisms as am
from affineframes import calderon as cd
from affineframes import cli
from affineframes import quadrature
from affineframes import config as cfg
from affineframes import metric_lattice as ml
from affineframes import runner
from affineframes.errors import RejectedInputError, SingularPointError
from affineframes.profiles import PiecewiseConstantProfile, SampledGridProfile
from reference_members import (_ref_above, _ref_calderon_sum, _ref_members, _ref_restrict,
                               _ref_truncation_label, constants, raised)
from sample_profiles import indicator_interval, scaled, squared_norm

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
        [value], [tail], [certified], _ = cd.calderon_sum(SHANNON, fam, xi)
        assert value == pytest.approx(shannon_bruteforce(xi), abs=1e-15)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert certified
        assert tail == 0.0


def _assert_batch_matches_per_point(profile, fam, grid):
    values, tails, certified, truncation = cd.calderon_sum(profile, fam, grid)
    assert len(values) == len(tails) == len(certified) == len(grid)
    for i, x in enumerate(grid):
        [value], [tail], [ok], label = cd.calderon_sum(profile, fam, x)
        assert values[i] == value
        assert tails[i] == tail
        assert certified[i] == ok
        assert truncation == label


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
        _, tails, certified, _ = cd.calderon_sum(SHANNON, fam, grid)
        for x, tail, ok in zip(grid, tails, certified):
            assert ok == (0.125 < abs(x) < 4.0)
            ends = sum(weight(j) * SHANNON.evaluate([[base ** j * x]])[0] ** 2
                       for j in (-3, 3))
            assert tail == (0.0 if ok else ends)
    # shifts p in [-2, 2] cover the window support [0, 1) exactly when
    # -1 <= xi <= 2
    g = PiecewiseConstantProfile(np.array([[0.0], [0.4]]), np.array([[0.4], [1.0]]),
                                 np.array([0.7, 1.3]))
    gabor = am.gabor_shift_family(np.arange(-2.0, 3.0), weight=lambda p: 1.0 + p * p)
    grid = np.linspace(-3.0, 3.0, 61)
    _assert_batch_matches_per_point(g, gabor, grid)
    _, tails, certified, _ = cd.calderon_sum(g, gabor, grid)
    for x, tail, ok in zip(grid, tails, certified):
        assert ok == (-1.0 <= x <= 2.0)
        ends = sum(5.0 * g.evaluate([[x - p]])[0] ** 2 for p in (-2.0, 2.0))
        assert tail == (0.0 if ok else ends)
    assert np.any(tails > 0.0)


@settings(max_examples=40, deadline=None)
@given(base=st.floats(0.2, 4.0).filter(lambda b: abs(b - 1.0) > 0.05),
       j_min=st.integers(-10, 3), span=st.integers(0, 10),
       xs=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=20))
def test_batched_orbit_sums_property_on_dilation_powers(base, j_min, span, xs):
    fam = am.matrix_power_family([[base]], j_min, j_min + span, L2_1,
                                 weight=lambda j: 2.0 ** (-abs(j)))
    _assert_batch_matches_per_point(SHANNON, fam, np.array(xs + [-x for x in xs]))


def test_zero_profile_gives_zero_everywhere():
    zero = scaled(SHANNON, 0.0)
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
        times_c = cd.calderon_values(scaled(SHANNON, c), fam, xi)
        assert np.array_equal(times_c, c * c * base)


def test_singular_point_rejected_for_dilation_families():
    with pytest.raises(SingularPointError):
        cd.calderon_sum(SHANNON, dyadic_family(), 0.0)


def test_gabor_family_allows_zero_frequency():
    fam = am.gabor_shift_family(np.arange(-5.0, 6.0))
    g = indicator_interval(0.0, 1.0)
    assert cd.calderon_sum(g, fam, 0.0)[0][0] == pytest.approx(1.0)


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
        assert cd.calderon_sum(g, fam, xi)[0][0] == pytest.approx(direct(xi), abs=1e-14)


def test_partition_additivity_under_shared_truncation():
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 0.5]], -10, 10, ml.euclidean_linf(2))
    xi = np.array([0.6, 0.35])
    M = 4.5  # avoids ties with the attained distortion values
    low = _ref_restrict(fam, fam.members.upper < M)
    high = _ref_restrict(fam, fam.members.upper >= M)
    for weighted in (False, True):
        full_v = cd.calderon_values(RING_2D, fam, xi[None, :], weighted=weighted)[0]
        parts = (cd.calderon_values(RING_2D, low, xi[None, :], weighted=weighted)[0]
                 + cd.calderon_values(RING_2D, high, xi[None, :], weighted=weighted)[0])
        assert parts == pytest.approx(full_v, abs=1e-14)


def test_tail_restriction_matches_weighted_restricted_sum():
    fam = dyadic_family(-20, 20)
    xi = 0.3
    M = 4.5
    tail = cd.calderon_values(SHANNON, fam, [[xi]], weighted=True, lower_cutoff=M)[0]
    high = _ref_restrict(fam, fam.members.upper > M)
    direct = cd.calderon_values(SHANNON, high, np.array([[xi]]), weighted=True)[0]
    assert tail == direct


def test_gabor_tail_never_exceeds_orbit_sum():
    fam = am.gabor_shift_family(np.arange(-25.0, 26.0))
    g = indicator_interval(0.0, 1.0)
    for xi in (-1.7, 0.2, 2.4):
        total = cd.calderon_sum(g, fam, xi)[0][0]
        for M in (1.0, 2.0, 5.0, 20.0):
            tail = cd.calderon_values(g, fam, [[xi]], weighted=True, lower_cutoff=M)[0]
            assert tail <= total + 1e-14


def test_tail_vanishes_as_cutoff_grows_when_integrable():
    fam = dyadic_family(-20, 20)
    xi = 0.3
    values = [cd.calderon_values(SHANNON, fam, [[xi]], weighted=True, lower_cutoff=M)[0]
              for M in (1.0, 4.0, 16.0, 64.0)]
    assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_continuous_orbit_sum_reciprocal_weight_constant_log_two():
    fam = am.continuous_dilation_family(0.05, 200.0, 64, L2_1,
                                        weight=lambda a: 1.0 / a)
    for xi in (0.06, 0.3, -1.4, 1.97):
        [value], _, [certified], _ = cd.calderon_sum(SHANNON, fam, xi)
        assert value == pytest.approx(math.log(2.0), abs=1e-9)
        assert certified


def test_continuous_uncovered_window_reports_tail():
    fam = am.continuous_dilation_family(1.0, 2.0, 16, L2_1, weight=lambda a: 1.0)
    _, [tail], [certified], _ = cd.calderon_sum(SHANNON, fam, 0.3)
    assert not certified
    assert tail > 0.0


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
    bound = 1.0 * superpositions * squared_norm(RING_2D)
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


def test_divergence_flag_on_fixed_line_of_shear_powers():
    # frequency-side shears fix the horizontal axis pointwise, so geometric
    # weights pile up along distortion-ordered truncations of a box around it
    fam = am.matrix_power_family([[1.0, 1.0], [0.0, 1.0]], 1, 24, L2_2,
                                 weight=lambda j: 2.0 ** j)
    box = PiecewiseConstantProfile(np.array([[-1.0, -1.0]]), np.array([[1.0, 1.0]]),
                                   np.array([1.0]))
    report = cd.local_integrability_check(box, fam, [0.45, -0.05], [0.55, 0.05],
                                          M=1.0, level=3)
    assert report.verdict == "divergent"
    sums = report.partial_sums
    assert sums[-1] > 1.5 * sums[-2] > 2.25 * sums[-3]


def test_local_integrability_box_containing_identity_rejected():
    fam = dyadic_family(-5, 5)
    with pytest.raises(RejectedInputError):
        cd.local_integrability_check(SHANNON, fam, [-0.5], [0.5], M=2.0)


# ---------------------------------------------------------------------------
# Reference bodies: the orbit routines as they stood when each automorphism
# carried a kind and a parameter dict, with Gabor shifts mapped by their p
# ---------------------------------------------------------------------------

def _ref_mapped_points(family, m, pts):
    if family.metric.kind == ml.GABOR_PRODUCT:  # every member is the shift by its parameter
        return pts * 1.0 + -float(m.param)
    if pts.shape[1] == m.auto.matrix.shape[0]:
        return pts @ m.auto.matrix.T
    raise RejectedInputError("profile dimension does not match the automorphism")


def _ref_calderon_values(psihat, family, points, weighted=False, lower_cutoff=None):
    if family.is_continuous:
        raise RejectedInputError("use calderon_sum for continuous families")
    pts = cd._frequencies(psihat, points)
    out = np.zeros(pts.shape[0])
    for m in _ref_members(family):
        if lower_cutoff is not None and m.upper <= lower_cutoff:
            continue
        term = psihat.evaluate(_ref_mapped_points(family, m, pts)) ** 2
        w = m.weight * m.jacobian if weighted else m.weight
        out += w * term
    return out


def _ref_edge_tail_estimate(psihat, family, pts, weighted=False):
    est = np.zeros(pts.shape[0])
    rows = _ref_members(family)
    for m in (rows[0], rows[-1]):
        w = m.weight * m.jacobian if weighted else m.weight
        est += w * psihat.evaluate(_ref_mapped_points(family, m, pts)) ** 2
    return est


def _ref_divergence_monitor(contributions):
    n = contributions.shape[0]
    sizes = sorted({max(1, n // 4), max(1, n // 2), n})
    sums = tuple(float(np.sum(contributions[:k])) for k in sizes)
    diverging = sums[-1] > cd.DIVERGENCE_CAP
    if len(sums) == 3 and sums[0] > 0:
        g = cd.DIVERGENCE_GROWTH
        diverging = diverging or (sums[2] >= g * sums[1] >= g ** 2 * sums[0])
    return diverging, sums, tuple(sizes)


def _ref_local_integrability_check(psihat, family, box_lo, box_hi, M, level=3):
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    if np.any(hi <= lo):
        raise RejectedInputError("empty integration box")
    if np.all(lo <= 0.0) and np.all(hi >= 0.0):
        raise RejectedInputError("integration box must exclude the identity")
    rows = _ref_above(family, M)
    if not rows:
        return cd.IntegrabilityReport("finite", 0.0, (0.0,), (0,))
    pts, weights = quadrature.tensor_nodes_weights(lo, hi, cells_per_axis=2 ** level)
    contributions = np.empty(len(rows))
    for i, m in enumerate(rows):
        vals = psihat.evaluate(_ref_mapped_points(family, m, pts)) ** 2
        contributions[i] = m.weight * m.jacobian * float(np.dot(weights, vals))
    diverging, partial, sizes = _ref_divergence_monitor(contributions)
    verdict = "divergent" if diverging else "finite"
    return cd.IntegrabilityReport(verdict, float(np.sum(contributions)), partial, sizes)


def _outcome(call):
    """What a call returns, or the type of the input error it raises."""
    try:
        return call()
    except (RejectedInputError, SingularPointError) as exc:
        return type(exc)


def _columns(result):
    """The columns of a `calderon_sum` result as lists, the label as it is."""
    return [np.asarray(column).tolist() for column in result]


def _same_array(a, b):
    return a is b if isinstance(a, type) or isinstance(b, type) else np.array_equal(a, b)


@st.composite
def orbit_cases(draw):
    """A power (1-d or 2-d), shearlet or Gabor family with a matching profile,
    frequencies, a weighting and cutoff choice, a tail cutoff and a box."""
    kind = draw(st.sampled_from(["power_1d", "power_2d", "shearlet", "gabor"]))
    c = draw(st.floats(0.25, 2.0))
    weight = lambda q, *_rest: c ** q
    dim = 2 if kind in ("power_2d", "shearlet") else 1
    metric = (ml.gabor_product() if kind == "gabor" else
              ml.MetricSpace(draw(st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF])), dim))
    if kind == "power_1d":
        base = draw(st.floats(0.3, 3.5).filter(lambda b: abs(b - 1.0) > 0.1))
        base *= draw(st.sampled_from([-1.0, 1.0]))
        j_min = draw(st.integers(-6, 0))
        fam = am.matrix_power_family([[base]], j_min, j_min + draw(st.integers(0, 10)),
                                     metric, weight)
    elif kind == "power_2d":
        base = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)))
        assume(abs(base[0] * base[3] - base[1] * base[2]) > 0.1)
        j_min = draw(st.integers(-4, 0))
        fam = am.matrix_power_family(base.reshape(2, 2), j_min,
                                     j_min + draw(st.integers(0, 6)), metric, weight)
    elif kind == "shearlet":
        a_values = draw(st.lists(st.floats(0.25, 8.0), min_size=1, max_size=4))
        s_values = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
        fam = am.shearlet_grid_family(a_values, s_values, metric, weight)
    else:
        p_min, step = draw(st.integers(-6, 0)), draw(st.sampled_from([0.5, 1.0, 1.5]))
        fam = am.gabor_shift_family(p_min + step * np.arange(draw(st.integers(1, 10))),
                                    weight)
    lo = np.array(draw(st.lists(st.floats(-2.0, 1.0), min_size=dim, max_size=dim)))
    width = np.array(draw(st.lists(st.floats(0.25, 2.0), min_size=dim, max_size=dim)))
    values = draw(st.lists(st.floats(0.05, 2.0) | st.floats(-2.0, -0.05), min_size=2,
                           max_size=6))
    if dim == 1 and draw(st.booleans()):
        psihat = SampledGridProfile(lo[0], lo[0] + width[0], np.array(values))
    else:
        # two boxes split along the first axis
        cut = lo[0] + draw(st.floats(0.1, 0.9)) * width[0]
        left_hi, right_lo = lo + width, lo.copy()
        left_hi[0] = right_lo[0] = cut
        psihat = PiecewiseConstantProfile(np.stack([lo, right_lo]),
                                          np.stack([left_hi, lo + width]),
                                          np.array(values[:2]))
    members = _outcome(lambda: _ref_members(fam))
    if isinstance(members, type):
        members = ()

    def frequency():
        """A frequency that some member maps into the support, or any."""
        if not members or draw(st.booleans()):
            return np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim)))
        m = members[draw(st.integers(0, len(members) - 1))]
        y = lo + width * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim,
                                                max_size=dim)))
        return y + m.param if kind == "gabor" else y @ m.auto.inv_matrix.T

    pts = np.array([frequency() for _ in range(draw(st.integers(1, 5)))])
    center, half = frequency(), draw(st.floats(0.01, 1.0))
    uppers = sorted(m.upper for m in members) or [1.0]
    M = uppers[draw(st.integers(0, len(uppers) - 1))] * draw(st.floats(0.5, 1.2))
    cutoff = draw(st.none() | st.sampled_from(uppers))
    return psihat, fam, pts, draw(st.booleans()), cutoff, M, (center - half, center + half)


@settings(max_examples=120, deadline=None)
@given(case=orbit_cases())
def test_orbit_routines_match_reference_bodies(case):
    psihat, fam, pts, weighted, cutoff, M, (box_lo, box_hi) = case
    assert _same_array(
        _outcome(lambda: cd.calderon_values(psihat, fam, pts, weighted, cutoff)),
        _outcome(lambda: _ref_calderon_values(psihat, fam, pts, weighted, cutoff)))
    if not isinstance(_outcome(lambda: fam.members), type):
        ends = np.array([0, -1])
        assert _same_array(_outcome(lambda: cd._orbit_sum(psihat, fam, ends, pts, weighted)),
                           _outcome(lambda: _ref_edge_tail_estimate(psihat, fam, pts,
                                                                    weighted)))
    assert (_outcome(lambda: cd.local_integrability_check(psihat, fam, box_lo, box_hi, M,
                                                          level=1))
            == _outcome(lambda: _ref_local_integrability_check(psihat, fam, box_lo, box_hi,
                                                               M, level=1)))


@st.composite
def column_cases(draw):
    """A power, shearlet or Gabor orbit case, or a 1-d profile with an atom list
    or a continuous dilation family; frequencies reach past the covered windows
    (and onto their domain edges), so some carry nonzero tails."""
    kind = draw(st.sampled_from(["orbit", "atoms", "continuous"]))
    if kind == "orbit":
        psihat, fam, pts, *_ = draw(orbit_cases())
        return psihat, fam, pts
    lo, width = draw(st.floats(-2.0, 1.0)), draw(st.floats(0.25, 2.0))
    values = draw(st.lists(st.floats(0.05, 2.0) | st.floats(-2.0, -0.05), min_size=2,
                           max_size=6))
    if draw(st.booleans()):
        psihat = SampledGridProfile(lo, lo + width, np.array(values))
    else:
        cut = lo + draw(st.floats(0.1, 0.9)) * width
        psihat = PiecewiseConstantProfile(np.array([[lo], [cut]]),
                                          np.array([[cut], [lo + width]]),
                                          np.array(values[:2]))
    metric = ml.MetricSpace(draw(st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF])), 1)
    expo = draw(st.floats(-1.5, 1.5))
    if kind == "atoms":
        scales = draw(st.lists(st.floats(0.1, 5.0) | st.floats(-5.0, -0.1), min_size=1,
                               max_size=6))
        fam = am.AutomorphismFamily(tuple(range(len(scales))),
                                    lambda i: ([[scales[i]]], None),
                                    lambda i: 1.5 ** (expo * i), metric)
        edges = (min(map(abs, scales)), max(map(abs, scales)))
    else:
        a_lo = draw(st.floats(0.05, 2.0))
        fam = am.continuous_dilation_family(a_lo, a_lo * draw(st.floats(1.5, 100.0)),
                                            draw(st.integers(1, 12)), metric,
                                            weight=lambda a: a ** expo)
        edges = fam.continuous_domain()
    cuts = psihat.breakpoints_1d()
    cuts = cuts[cuts != 0.0]

    def frequency():
        if draw(st.booleans()):  # a profile breakpoint over a domain edge
            return float(draw(st.sampled_from(cuts.tolist()))) / draw(st.sampled_from(edges))
        return draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 10.0))

    pts = np.array([frequency() for _ in range(draw(st.integers(1, 6)))])
    return psihat, fam, pts


def _record_columns(records):
    """Per-frequency records as the columns `calderon_sum` returns."""
    labels = {_ref_truncation_label(ev.truncation) for ev in records}
    assert len(labels) == 1
    return ([ev.value for ev in records], [ev.tail_estimate for ev in records],
            [ev.certified_exact for ev in records], labels.pop())


@settings(max_examples=150, deadline=None)
@given(case=column_cases())
def test_orbit_sum_columns_match_per_frequency_records(case):
    psihat, fam, pts = case
    columns = raised(lambda: cd.calderon_sum(psihat, fam, pts))
    records = raised(lambda: _ref_calderon_sum(psihat, fam, pts))
    if isinstance(records, tuple):  # the same input error
        assert columns == records
        return
    assert tuple(_columns(columns)) == _record_columns(records)


def test_orbit_sum_adds_many_live_terms_in_member_order():
    # powers of 1.05 keep all 41 members inside a wide sampled profile, so every
    # frequency sums 41 terms of mixed size: a pairwise sum moves their last bits
    fam = am.matrix_power_family([[1.05]], -20, 20, L2_1, weight=lambda j: 1.1 ** j)
    psihat = SampledGridProfile(-40.0, 40.0, np.random.default_rng(5).uniform(0.1, 2.0, 81))
    pts = np.linspace(0.3, 3.0, 400)[:, None]
    for weighted in (False, True):
        assert np.array_equal(cd.calderon_values(psihat, fam, pts, weighted),
                              _ref_calderon_values(psihat, fam, pts, weighted))
        for x in pts[::20]:  # one frequency at a time too
            assert np.array_equal(cd.calderon_values(psihat, fam, x, weighted),
                                  _ref_calderon_values(psihat, fam, x, weighted))


def test_profile_of_another_dimension_needs_a_gabor_family():
    # a 2-d family under a euclidean metric has no orbit on a 1-d profile, even
    # when its matrices have the Gabor shift form [[1, x], [0, 1]]
    for base in ([[2.0, 0.0], [0.0, 3.0]], [[1.0, 1.0], [0.0, 1.0]]):
        fam = am.matrix_power_family(base, 1, 4, L2_2)
        for call in (lambda: cd.calderon_values(SHANNON, fam, [[0.3]]),
                     lambda: cd.calderon_sum(SHANNON, fam, 0.3),
                     lambda: cd.calderon_values(SHANNON, fam, [[0.3]], True, 0.5),
                     lambda: cd.local_integrability_check(SHANNON, fam, [0.1], [0.4], 0.5)):
            with pytest.raises(RejectedInputError, match="profile dimension"):
                call()


def test_certificate_step_constants_built_once_per_family(monkeypatch):
    fam = am.matrix_power_family([[2.0, 1.0], [0.0, 3.0]], -3, 3, L2_2)
    first = cd.calderon_sum(RING_2D, fam, [[0.6, 0.2]])
    step = am.Automorphism(*am.matrix_power(fam.base, 1))
    assert fam.base_constants == constants(step, fam.metric)
    built = []
    post_init = am.Automorphism.__post_init__
    monkeypatch.setattr(am.Automorphism, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    again = cd.calderon_sum(RING_2D, fam, [[0.6, 0.2]])
    cd.calderon_values(RING_2D, fam, [[0.6, 0.2]], weighted=True, lower_cutoff=1.0)
    assert built == []
    assert _columns(again) == _columns(first)


def test_frequency_norm_overflow_is_refused_without_a_warning(tmp_path, capsys):
    # the L2 square of 1e300 overflows; the run used to warn and go on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam in (dyadic_family(), am.continuous_dilation_family(0.05, 200.0, 8, L2_1)):
            with pytest.raises(RejectedInputError, match="norm of a frequency overflows"):
                cd.calderon_sum(SHANNON, fam, [1e300, 2e300])
            with pytest.raises(SingularPointError):  # the square underflows to 0
                cd.calderon_sum(SHANNON, fam, 1e-200)
        code = cli.main(["run", "shannon_onb", "--out", str(tmp_path),
                         "--set", "analyses.0.segments=[[1e300,2e300]]"])
    assert code == 1
    assert capsys.readouterr().err == "error: metric norm of a frequency overflows a float\n"


def test_dyadic_orbit_sums_shift_with_the_power_range():
    # 2 ** j * (2 xi) == 2 ** (j + 1) * xi exactly, so the range [-20, 20] at 2 xi
    # adds the terms of [-19, 21] at xi in the same order; with jacobian
    # weights every term of the shifted range carries one factor 2 more
    u = np.linspace(-22.0, 22.0, 200)
    xi = np.concatenate([-(2.0 ** u), 2.0 ** u])[:, None]
    here, shifted = dyadic_family(-20, 20), dyadic_family(-19, 21)
    assert np.array_equal(cd.calderon_values(SHANNON, here, 2.0 * xi),
                          cd.calderon_values(SHANNON, shifted, xi))
    assert np.array_equal(2.0 * cd.calderon_values(SHANNON, here, 2.0 * xi, weighted=True),
                          cd.calderon_values(SHANNON, shifted, xi, weighted=True))
