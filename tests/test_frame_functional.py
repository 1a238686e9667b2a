import math
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affineframes import automorphisms as am
from affineframes import calderon as cd
from affineframes import config as cfg
from affineframes import counting as ct
from affineframes import frame_functional as ff
from affineframes import metric_lattice as ml
from affineframes import errors, quadrature, runner
from affineframes.errors import RejectedInputError, ResourceLimitError
from affineframes.profiles import PiecewiseConstantProfile, SampledGridProfile, grid_lookup
from reference_members import (_ref_line_action, _ref_members, _ref_property_x_scan,
                               _ref_random_probe_ensemble, _ref_restrict, masked)
from sample_profiles import indicator_interval, scaled, step_row, triangle_bump

L2_1 = ml.euclidean_l2(1)
GABOR = ml.gabor_product()
Z1 = ml.integer_lattice(1)

SHANNON = PiecewiseConstantProfile(np.array([[-1.0], [0.5]]), np.array([[-0.5], [1.0]]),
                                   np.array([1.0, 1.0]))


def dyadic_family(j_lo=-60, j_hi=60):
    return am.matrix_power_family([[2.0]], j_lo, j_hi, L2_1)


def gabor_family():
    return am.gabor_shift_family(np.arange(-25.0, 26.0))


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

def _row_squared_norm(row) -> float:
    """A step row's exact squared L2 norm: each value squared times its cell's width."""
    edges, values = row
    return float(np.dot(values ** 2, np.diff(edges)))


def test_make_test_function_euclidean_interval():
    tf = edges, values = ff.make_test_function([0.3], 0.01, L2_1)
    assert edges.tolist() == [0.3 - 0.01, 0.3 + 0.01]
    assert values.tolist() == [1.0 / math.sqrt(2.0 * 0.01)]
    assert _row_squared_norm(tf) == pytest.approx(1.0, abs=1e-12)
    inside = grid_lookup((edges,), np.append(values, 0.0), np.array([[0.295], [0.305]]))
    outside = grid_lookup((edges,), np.append(values, 0.0), np.array([[0.289], [0.311]]))
    assert np.all(inside == values[0])
    assert np.all(outside == 0.0)


def test_make_test_function_gabor_line_reduction():
    tf = edges, values = ff.make_test_function([0.3, 1], 0.25, GABOR)
    assert edges.shape == (2,) and values.shape == (1,)
    assert _row_squared_norm(tf) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("center,epsilon,word", [
    ([1e20], 0.01, "empty or inverted box"),  # c - epsilon rounds to c + epsilon
    ([1.7e308], 0.01, "empty or inverted box"),
    ([1.7e308], 1e308, "unbounded declared support"),  # c + epsilon overflows
    ([-1.7e308], 1e308, "unbounded declared support"),
])
def test_make_test_function_refuses_what_the_profile_refused(center, epsilon, word):
    with pytest.raises(RejectedInputError, match=word):
        ff.make_test_function(center, epsilon, L2_1)


def test_make_test_function_gabor_radius_cap():
    with pytest.raises(RejectedInputError):
        ff.make_test_function([0.3, 1], 1.0, GABOR)


def test_make_test_function_wrong_line_rejected():
    with pytest.raises(RejectedInputError):
        ff.make_test_function([0.3, 2], 0.25, GABOR)


# ---------------------------------------------------------------------------
# The functional
# ---------------------------------------------------------------------------

@st.composite
def _step_rows(draw):
    """A step row of 1 to 9 cells, zero and signed-zero values among them."""
    edges = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=10, unique=True)))
    values = draw(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]),
                           min_size=len(edges) - 1, max_size=len(edges) - 1))
    return np.array(edges), np.array(values)


_EDGE_ROW = (np.array([-1.0, -0.0, 0.5, 2.0]), np.array([3.0, -0.0, -2.5]))


@settings(max_examples=300, deadline=None)
@given(row=_step_rows(), points=st.lists(st.floats(), max_size=20))
@example(row=_EDGE_ROW, points=_EDGE_ROW[0].tolist())
@example(row=_EDGE_ROW, points=np.nextafter(_EDGE_ROW[0], -np.inf).tolist())
@example(row=_EDGE_ROW, points=[math.nan, math.inf, -math.inf, 0.0, -0.0])
@example(row=(np.array([1.0, 1.5]), np.array([-0.0])), points=[1.0, 1.25, 1.5, -math.inf])
def test_step_lookup_is_the_profile_mask_loop(row, points):
    # sign of zero included: the lookup copies a value or the +0.0 padded on
    edges, values = row
    off = [math.nan, math.inf, -math.inf]
    pts = np.concatenate([points, edges, np.nextafter(edges, -np.inf), off])[:, None]
    loop = masked(PiecewiseConstantProfile(edges[:-1, None], edges[1:, None], values))
    lookup = grid_lookup((edges,), np.append(values, 0.0), pts)
    assert lookup.tobytes() == loop.evaluate(pts).tobytes()


def test_shannon_functional_is_one_at_small_radii():
    fam = dyadic_family()
    for eps in (0.01, 0.005):
        tf = ff.make_test_function([0.3], eps, L2_1)
        [value] = ff.frame_functional(SHANNON, fam, Z1, [tf])
        assert value == pytest.approx(1.0, abs=1e-6)


def test_functional_is_quiet_with_members_far_outside_the_support():
    # 2**600 squared overflows, and its caps lie far beyond any integer box
    fam = dyadic_family(-600, 600)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [value] = ff.frame_functional(SHANNON, fam, Z1, [tf])
    assert value == pytest.approx(1.0, abs=1e-6)


def test_zero_window_gives_zero():
    fam = dyadic_family(-10, 10)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    assert ff.frame_functional(scaled(SHANNON, 0.0), fam, Z1, [tf]).tolist() == [0.0]


def test_gabor_unit_window_functional_is_one():
    g = indicator_interval(0.0, 1.0)
    tf = ff.make_test_function([0.3, 1], 0.25, GABOR)
    [value] = ff.frame_functional(g, gabor_family(), Z1, [tf])
    assert value == pytest.approx(1.0, abs=1e-6)


def test_functional_quadratic_in_the_window():
    fam = dyadic_family(-20, 20)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    [base] = ff.frame_functional(SHANNON, fam, Z1, [tf])
    [doubled] = ff.frame_functional(scaled(SHANNON, 2.0), fam, Z1, [tf])
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


def _single_shift_term(psihat, m, fhat) -> float:
    """Oracle for a member whose ball is below the single-term threshold: only
    the zero shift meets the domain, so the functional reduces to
    weight * value**2 * integral over the ball of psihat(scale*u + offset)**2."""
    psihat = masked(psihat)
    (lo, hi), (value,) = (a.tolist() for a in fhat)
    scale, offset = _ref_line_action(m.auto)
    cuts = [(float(b) - offset) / scale for b in psihat.breakpoints_1d()]
    [integral] = quadrature.integrate_with_breakpoints(
        lambda u, _owner: psihat.evaluate((scale * u + offset)[:, None]) ** 2,
        [(lo, hi, cuts)])
    return m.weight * value ** 2 * integral


def _single_term_threshold(family, lattice, param, xi0: float) -> float:
    """Largest test-function radius for which only one shift can contribute:
    the distance from the orbit point, reduced into the 1-d lattice's
    fundamental domain, to the domain boundary, over the upper distortion
    constant."""
    i = family.params.index(param)
    scale, offset = _ref_line_action(family.member(param))
    b = abs(float(lattice.basis[0, 0]))
    off = (scale * xi0 + offset) % b
    return min(off, b - off) / family.members.upper[i]


def test_single_shift_term_matches_frame_functional():
    fam = dyadic_family(-30, 30)
    for eps in (0.01, 0.003):
        tf = ff.make_test_function([0.3], eps, L2_1)
        below = [m for m in _ref_members(fam)
                 if eps < _single_term_threshold(fam, Z1, m.param, 0.3)]
        assert below
        for m in below:
            single = _ref_restrict(fam, np.array(fam.params) == m.param)
            [general] = ff.frame_functional(SHANNON, single, Z1, [tf])
            reduced = _single_shift_term(SHANNON, m, tf)
            assert reduced == pytest.approx(general, rel=1e-12, abs=1e-14)


def test_single_term_threshold_formula():
    fam = dyadic_family(-5, 5)
    # orbit point 0.3 reduces to boundary distance 0.3 at unit distortion
    assert _single_term_threshold(fam, Z1, 0, 0.3) == pytest.approx(0.3)
    # one dyadic step: orbit point 0.6, boundary distance 0.4, distortion 2
    assert _single_term_threshold(fam, Z1, 1, 0.3) == pytest.approx(0.2)


def test_partition_additivity_of_the_functional():
    fam = dyadic_family(-12, 12)
    M = 4.5
    low = _ref_restrict(fam, fam.members.upper < M)
    high = _ref_restrict(fam, fam.members.upper >= M)
    tf = ff.make_test_function([0.3], 0.02, L2_1)
    [full] = ff.frame_functional(SHANNON, fam, Z1, [tf])
    split = (ff.frame_functional(SHANNON, low, Z1, [tf])[0]
             + ff.frame_functional(SHANNON, high, Z1, [tf])[0])
    assert split == pytest.approx(full, rel=1e-13)


def test_lebesgue_point_convergence_ratio():
    # profile off the dyadic tiling: the orbit sum is locally constant around
    # interior points, and the functional clips the nearest jump linearly
    profile = indicator_interval(0.4, 0.9)
    fam = dyadic_family(-20, 20)
    xi0 = 0.81
    from affineframes.calderon import calderon_sum
    target = calderon_sum(profile, fam, xi0)[0][0]
    assert target == 2.0
    diffs = []
    for eps in (0.04, 0.005, 0.0025):
        tf = ff.make_test_function([xi0], eps, L2_1)
        [value] = ff.frame_functional(profile, fam, Z1, [tf])
        diffs.append(abs(value - target))
    assert diffs[0] <= 2.0 * 0.04 / 0.01  # first-order in the radius
    floored = [max(d, 1e-12) for d in diffs]  # roundoff floor
    assert floored[0] >= floored[1] >= floored[2]
    assert diffs[1] < 1e-12 and diffs[2] < 1e-12


def _per_member_functional(psihat, family, lattice, fhat) -> float:
    """Oracle: the per-member formula, one lattice-box query, one shift loop
    and one quadrature call per member, summed in member order."""
    psihat, fhat = masked(psihat), masked(fhat)
    b = float(lattice.basis[0, 0])
    omega_lo, omega_hi = (0.0, b) if b > 0 else (b, 0.0)
    psi_lo, psi_hi = float(psihat.support_lo[0]), float(psihat.support_hi[0])
    f_lo, f_hi = float(fhat.support_lo[0]), float(fhat.support_hi[0])
    total = 0.0
    for m in _ref_members(family):
        scale, offset = _ref_line_action(m.auto)
        if m.weight == 0.0:
            continue
        img = sorted((scale * f_lo + offset, scale * f_hi + offset))
        cap_lo, cap_hi = max(psi_lo, img[0]), min(psi_hi, img[1])
        if cap_hi <= cap_lo:
            continue
        shifts = lattice.points_in_box([cap_lo - omega_hi], [cap_hi - omega_lo])[:, 0]
        if shifts.shape[0] == 0:
            continue
        cuts: list[float] = []
        for lam in shifts:
            cuts.extend(float(c) - lam for c in psihat.breakpoints_1d())
            cuts.extend(float(scale * c + offset) - lam for c in fhat.breakpoints_1d())

        def integrand(xi, _owner, shifts=shifts, scale=scale, offset=offset):
            acc = np.zeros_like(xi)
            for lam in shifts:
                shifted = xi + lam
                acc += (fhat.evaluate(((shifted - offset) / scale)[:, None])
                        * psihat.evaluate(shifted[:, None]))
            return acc ** 2

        [integral] = quadrature.integrate_with_breakpoints(
            integrand, [(omega_lo, omega_hi, cuts)])
        total += m.weight * (integral / m.jacobian)
    return total


@st.composite
def _line_profiles(draw, hats=True):
    """A piecewise-constant profile of disjoint pieces or, with `hats`, a sampled hat."""
    if hats and draw(st.booleans()):
        return triangle_bump(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 1.5)),
                             draw(st.floats(0.5, 2.0)), n_nodes=draw(st.integers(3, 7)))
    cursor, lo, hi = draw(st.floats(-3.0, 0.0)), [], []
    for _ in range(draw(st.integers(1, 4))):
        cursor += draw(st.floats(0.0, 0.5))
        width = draw(st.floats(0.02, 1.5))
        lo.append([cursor])
        hi.append([cursor + width])
        cursor += width
    values = draw(st.lists(st.floats(0.25, 2.0) | st.floats(-2.0, -0.25),
                           min_size=len(lo), max_size=len(lo)))
    return PiecewiseConstantProfile(np.array(lo), np.array(hi), np.array(values))


@st.composite
def _families(draw):
    """1-d matrix powers (negative and fractional bases) or Gabor shifts,
    with some members weighted zero."""
    if draw(st.booleans()):
        base = draw(st.sampled_from([2.0, -1.5, 3.0, 0.5]))
        j_lo = draw(st.integers(-4, 2))
        js = range(j_lo, j_lo + draw(st.integers(0, 5)) + 1)
        zeros = draw(st.sets(st.sampled_from(js), max_size=len(js) // 2))
        return am.matrix_power_family([[base]], js[0], js[-1], L2_1,
                                      weight=lambda j: 0.0 if j in zeros else 1.0 + 0.1 * j)
    ps = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8, unique=True))
    zeros = draw(st.sets(st.sampled_from(ps), max_size=len(ps) // 2))
    return am.gabor_shift_family(ps, weight=lambda p: 0.0 if p in zeros else 0.5 + 0.1 * abs(p))


@settings(max_examples=200, deadline=None)
@given(family=_families(), psihat=_line_profiles(), fhat=_line_profiles(hats=False),
       b=st.sampled_from([1.0, -1.0, 0.75, -0.6, 2.5, -1.7]))
def test_functional_matches_per_member_formula(family, psihat, fhat, b):
    # the functional reads f-hat's step row, the reference evaluates its profile
    lattice = ml.Lattice(np.array([[b]]))
    assert (ff.frame_functional(psihat, family, lattice, [step_row(fhat)]).tolist()
            == [_per_member_functional(psihat, family, lattice, fhat)])


def _unbatched_functional(psihat, family, lattice, fhat) -> float:
    """Reference: the functional one f-hat at a time, with every live member
    integrated over the whole fundamental domain."""
    psihat, fhat = masked(psihat), masked(fhat)
    omega_lo, omega_hi = (float(v[0]) for v in lattice.fundamental_box())
    psi_lo, psi_hi, psi_breaks = (float(psihat.support_lo[0]), float(psihat.support_hi[0]),
                                  psihat.breakpoints_1d())
    f_lo, f_hi, f_breaks = (float(fhat.support_lo[0]), float(fhat.support_hi[0]),
                            fhat.breakpoints_1d())
    members = _ref_members(family)
    scale, offset = np.array([_ref_line_action(m.auto) for m in members]).reshape(-1, 2).T
    img_a, img_b = scale * f_lo + offset, scale * f_hi + offset
    cap_lo = np.maximum(psi_lo, np.minimum(img_a, img_b))
    cap_hi = np.minimum(psi_hi, np.maximum(img_a, img_b))
    live = (cap_hi > cap_lo) & (np.array([m.weight for m in members]) != 0.0)
    k_lo, k_hi = lattice.integer_box(np.where(live, cap_lo - omega_hi, 0.0)[:, None],
                                     np.where(live, cap_hi - omega_lo, 0.0)[:, None])
    count = np.where(live, np.maximum(k_hi[:, 0] - k_lo[:, 0] + 1, 0), 0)
    width = int(count.max(initial=0))
    breaks = np.concatenate([np.broadcast_to(psi_breaks, (len(members), psi_breaks.size)),
                             scale[:, None] * f_breaks + offset[:, None]], axis=1)
    shifts = (k_lo + np.arange(width)).astype(float) * lattice.basis[0, 0]
    cuts = breaks[:, None, :] - shifts[:, :, None]

    def integrand(xi, owner):
        acc = np.zeros_like(xi)
        for k in range(width):
            on = k < count[owner]
            i = owner[on]
            shifted = xi[on] + shifts[i, k]
            acc[on] += (fhat.evaluate(((shifted - offset[i]) / scale[i])[:, None])
                        * psihat.evaluate(shifted[:, None]))
        return acc ** 2

    intervals = [(omega_lo, omega_hi, cuts[i, :n]) if n else (omega_lo, omega_lo, ())
                 for i, n in enumerate(count)]
    integrals = quadrature.integrate_with_breakpoints(integrand, intervals)
    total = 0.0
    for m, integral in zip(members, integrals):
        if m.weight != 0.0:
            total += m.weight * (integral / m.jacobian)
    return total


@st.composite
def _wide_families(draw):
    """Matrix powers of dyadic, non-dyadic and negative bases with j reaching
    +-30, or Gabor shifts, with some members weighted zero."""
    if draw(st.booleans()):
        base = draw(st.sampled_from([1.5, 2.0, -2.0, 3.0, -1.7]))
        j_lo = draw(st.integers(-30, 30))
        js = range(j_lo, draw(st.integers(j_lo, min(j_lo + 50, 30))) + 1)
        zeros = draw(st.sets(st.sampled_from(js), max_size=3))
        return am.matrix_power_family([[base]], js[0], js[-1], L2_1,
                                      weight=lambda j: 0.0 if j in zeros else 1.0 + 0.01 * j)
    return draw(_families())


# psi-hat pieces wide enough to meet many shifts of a 0.3 lattice; with the
# support hulls trimmed exactly, the nodes just outside them that rounding
# carries across an f-hat breakpoint at scale 3^-30 (or 3^-28) were lost
_WIDE_PSI = PiecewiseConstantProfile(
    np.array([[-2.222], [-2.034], [0.461], [2.948], [4.702]]),
    np.array([[-2.034], [0.168], [2.86], [4.702], [6.332]]),
    np.array([0.47, -0.328, 0.311, 1.573, -1.815]))


def _steps_on(hat: SampledGridProfile) -> PiecewiseConstantProfile:
    """A step profile on a sampled hat's nodes, each cell at its mean sample:
    the hat's breakpoints, which f-hat can no longer be as a hat."""
    lo, hi = hat.pieces
    return PiecewiseConstantProfile(lo, hi, 0.5 * (hat.samples[:-1] + hat.samples[1:]))


@settings(max_examples=150, deadline=None)
@given(family=_wide_families(), psihat=_line_profiles(),
       fhats=st.lists(_line_profiles(hats=False), min_size=1, max_size=5),
       b=st.sampled_from([0.3, 0.5, 1.0, 2.0, -1.0]))
@example(family=am.matrix_power_family([[3.0]], -30, 17, L2_1), psihat=_WIDE_PSI,
         fhats=[indicator_interval(-0.657, -0.312, -1.879)], b=0.3)
@example(family=am.matrix_power_family([[3.0]], -28, -28, L2_1, weight=lambda j: 0.72),
         psihat=PiecewiseConstantProfile(
             np.array([[-2.9495966270303526], [-1.785454369684181], [1.1953224058409995],
                       [3.764202857964882], [6.846906379702979]]),
             np.array([[-1.785454369684181], [0.9052946804891799], [3.7097184429764223],
                       [6.401456511615517], [9.239582294103986]]),
             np.array([0.5490890466076779, -0.2692048463854227, 0.604539946465831,
                       1.0307742893252194, 0.9540298450703677])),
         fhats=[_steps_on(SampledGridProfile(0.4638074370776935, 0.8060556469657765, np.array(
             [0.0, 0.33764731961953626, 0.6752946392390727, 1.0129419588586086,
              0.6752946392390721, 0.3376473196195356, 0.0])))], b=-1.0)
def test_trimmed_functional_matches_the_unbatched_reference(family, psihat, fhats, b):
    # the functional reads each f-hat's step row, the reference evaluates its profile
    lattice = ml.Lattice(np.array([[b]]))
    assert (ff.frame_functional(psihat, family, lattice, [step_row(f) for f in fhats]).tolist()
            == [_unbatched_functional(psihat, family, lattice, f) for f in fhats])


# supports far past every drawn psi-hat's reach under every drawn member
_UNREACHED = st.floats(1e4, 1e5).map(lambda c: (np.array([c, c + 1.0]), np.array([0.7])))


@settings(max_examples=150, deadline=None)
@given(family=_families(), psihat=_line_profiles(),
       fhats=st.lists(_line_profiles(hats=False).map(step_row) | _UNREACHED,
                      min_size=2, max_size=8),
       b=st.sampled_from([1.0, -1.0, 0.75, -0.6, 2.5]))
def test_functional_of_an_ensemble_is_the_functional_of_each_member(family, psihat, fhats, b):
    # the ensemble is stacked with every f-hat padded to the widest one
    lattice = ml.Lattice(np.array([[b]]))
    assert (ff.frame_functional(psihat, family, lattice, fhats).tolist()
            == [ff.frame_functional(psihat, family, lattice, [f])[0] for f in fhats])


def _shannon_probe_inputs():
    """shannon_onb's profile, family and lattice, and its frame report's probe ensemble."""
    scenario = runner.load_bundled_scenario("shannon_onb")
    [analysis] = [a for a in scenario["analyses"] if a["kind"] == "frame_report"]
    ensemble = ff.random_probe_ensemble(*analysis["probe_band"], count=analysis["probe_count"],
                                        seed=scenario["seed"])
    return (cfg.build_profile(scenario), cfg.build_family(scenario),
            cfg.build_lattice(scenario), ensemble)


def test_trimmed_functional_integrates_few_cells_it_finds_zero(monkeypatch):
    # the bundled shannon_onb probe ensemble: the untrimmed domain handed over
    # 26,322 cells, of which 517 have a nonzero integrand value
    inputs = _shannon_probe_inputs()
    cells = []
    rule = quadrature.integrate_with_breakpoints

    def recorded(f, intervals):
        def g(x, owner):
            values = f(x, owner)
            cells.append(values.reshape(-1, quadrature.GL_ORDER))
            return values
        return rule(g, intervals)

    monkeypatch.setattr(quadrature, "integrate_with_breakpoints", recorded)
    ff.frame_functional(*inputs)
    [values] = cells
    live = int(np.count_nonzero((values != 0.0).any(axis=1)))
    assert 0 < values.shape[0] <= 3 * live


def test_functional_evaluates_psihat_once_per_fhat(monkeypatch):
    # the 50 probes used to be evaluated once per (probe, shift index): 200 calls,
    # and then once per probe next to psi-hat's once: 100; a step row is looked up
    *operands, ensemble = _shannon_probe_inputs()
    calls = [0]

    def counted(evaluate):
        def wrapper(self, points):
            calls[0] += 1
            return evaluate(self, points)
        return wrapper

    for kind in (PiecewiseConstantProfile, SampledGridProfile):
        monkeypatch.setattr(kind, "evaluate", counted(kind.evaluate))
    ff.frame_functional(*operands, ensemble)
    assert 0 < calls[0] <= len(ensemble)


def test_functional_is_one_quadrature_call_without_box_queries(monkeypatch):
    # one call in all, handing over exactly the members with a nonzero integral
    calls = []
    rule = quadrature.integrate_with_breakpoints

    def recorded(f, intervals):
        calls.append(rule(f, intervals))
        return calls[-1]

    monkeypatch.setattr(quadrature, "integrate_with_breakpoints", recorded)
    monkeypatch.setattr(ml.Lattice, "points_in_box", lambda *a, **k: pytest.fail("box query"))
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    fam = dyadic_family()
    assert ff.frame_functional(SHANNON, fam, Z1, [tf])[0] == pytest.approx(1.0)
    [integrals] = calls
    monkeypatch.undo()
    ball = indicator_interval(*tf[0], *tf[1])
    nonzero = [_unbatched_functional(SHANNON, _ref_restrict(fam, np.array(fam.params) == p), Z1,
                                     ball) != 0.0 for p in fam.params]
    assert len(integrals) == sum(nonzero) > 0
    assert all(v > 0.0 for v in integrals)


def test_functional_checks_shift_table_bytes_before_allocating():
    # a 1e-9 lattice puts 4e7 shifts under each member's cap: the byte budget
    # must refuse the table at once, inside an address-space limit that a
    # table of that size would exceed
    script = textwrap.dedent("""
        import resource, sys, time
        import numpy as np
        from affineframes import automorphisms as am, frame_functional as ff
        from affineframes import metric_lattice as ml
        from affineframes.errors import ResourceLimitError
        from affineframes.profiles import PiecewiseConstantProfile
        limit = 1536 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        shannon = PiecewiseConstantProfile(np.array([[-1.0], [0.5]]),
                                           np.array([[-0.5], [1.0]]), np.array([1.0, 1.0]))
        fam = am.matrix_power_family([[2.0]], -3, 3, ml.euclidean_l2(1))
        tf = ff.make_test_function([0.3], 0.01, ml.euclidean_l2(1))
        start = time.perf_counter()
        try:
            ff.frame_functional(shannon, fam, ml.Lattice(np.array([[1e-9]])), [tf])
        except ResourceLimitError:
            print(time.perf_counter() - start)
            sys.exit(0)
        sys.exit(3)
    """)
    env = {"PYTHONPATH": ":".join(sys.path), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 1.0


def _comb(stride: int) -> PiecewiseConstantProfile:
    """Value-1 boxes from every `stride`-th of 60 edges 0.015 apart to the next
    edge: 60 cuts for stride 1 (one component) or 2 (30 components)."""
    edges = np.arange(60)[:, None] * 0.015
    return PiecewiseConstantProfile(edges[:-1:stride], edges[1::stride],
                                    np.ones(len(edges[1::stride])))


def test_functional_cap_is_not_sized_by_the_components_of_fhat(monkeypatch):
    # 30 components and 1 have 120 cuts per shift each: under a cap that 120
    # cuts per shift fit, both pass the shift table and stop only at the
    # quadrature's own cap, since the meets per shift number psi-hat's components
    fam, combs = am.matrix_power_family([[2.0]], 0, 0, L2_1), (_comb(2), _comb(1))
    monkeypatch.setattr(errors, "MAX_GRID_BYTES", 4000)
    for comb in combs:
        with pytest.raises(ResourceLimitError, match="quadrature nodes"):
            ff.frame_functional(comb, fam, Z1, [step_row(comb)])


def test_functional_hands_each_interval_only_its_own_cuts(monkeypatch):
    # the bundled shannon_onb probes: with every f-hat's cuts padded to the
    # widest one, the quadrature got 3,796 cuts where the intervals' own are 3,165
    psihat, family, lattice, ensemble = _shannon_probe_inputs()
    calls = []
    rule = quadrature.integrate_with_breakpoints

    def recorded(f, intervals):
        calls.append(intervals)
        return rule(f, intervals)

    monkeypatch.setattr(quadrature, "integrate_with_breakpoints", recorded)
    ff.frame_functional(psihat, family, lattice, ensemble)
    for fhat in ensemble:
        ff.frame_functional(psihat, family, lattice, [fhat])
    together, *alone = calls
    # the intervals come f-hat by f-hat, as many per f-hat as it gets alone
    owners = [fhat for fhat, own in zip(ensemble, alone) for _ in own]
    assert len(owners) == len(together)
    psi_breaks, step = psihat.breakpoints_1d(), float(lattice.basis[0, 0])
    total = 0
    for (edges, _), (_, _, cuts) in zip(owners, together):
        per_shift = psi_breaks.size + edges.size
        assert cuts.size % per_shift == 0
        # one row per shift: psi-hat's breakpoints less the shift, then the
        # member's images of this f-hat's, less the same shift
        rows = np.reshape(cuts, (-1, per_shift))
        shift = psi_breaks[0] - rows[:, 0]
        unshifted = rows + shift[:, None]
        assert np.allclose(unshifted[:, :psi_breaks.size], psi_breaks, rtol=0.0, atol=1e-9)
        assert np.allclose(unshifted, unshifted[0], rtol=0.0, atol=1e-9)
        assert np.allclose(np.diff(shift), step, rtol=0.0, atol=1e-9)
        total += cuts.size
    assert total == 3165


def _frame_report_entry(tmp_path, name: str) -> dict:
    """The frame report of a bundled scenario, run alone."""
    scenario = runner.load_bundled_scenario(name)
    scenario["analyses"] = [a for a in scenario["analyses"] if a["kind"] == "frame_report"]
    _code, report = runner.run_scenario(scenario, tmp_path)
    [entry] = report["analyses"]
    return entry


def test_bundled_functional_values_are_pinned(tmp_path):
    # report.json only: no CSV digest holds these
    shannon = _frame_report_entry(tmp_path / "s", "shannon_onb")
    assert [c["value"] for c in shannon["functional_checks"]] == [1.0000000000000009] * 2
    assert shannon["probe"]["lower_empirical"] == 0.9999999999999994
    assert shannon["probe"]["upper_empirical"] == 1.0000000000000004
    gabor = _frame_report_entry(tmp_path / "g", "gabor_onb")
    assert [c["value"] for c in gabor["functional_checks"]] == [0.9999999999999998]


def test_functional_refuses_a_square_of_its_integrand_that_overflows():
    # psi-hat at 1e300 times the test function's 7.07: the square passed as inf
    fam = dyadic_family(-10, 10)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    with pytest.raises(RejectedInputError, match="square of the functional's integrand"):
        ff.frame_functional(scaled(SHANNON, 1e300), fam, Z1, [tf])


def test_functional_rejects_continuous_families():
    fam = am.continuous_dilation_family(0.1, 10.0, 16, L2_1)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    with pytest.raises(RejectedInputError):
        ff.frame_functional(SHANNON, fam, Z1, [tf])


# ---------------------------------------------------------------------------
# Probe and report
# ---------------------------------------------------------------------------

def _probe(psihat, family, ensemble) -> tuple[float, float]:
    """The frame report's inner frame-bound estimates: the functional's extremes."""
    values = ff.frame_functional(psihat, family, Z1, ensemble)
    return float(np.min(values)), float(np.max(values))


def test_probe_sandwich_and_monotonicity():
    fam = dyadic_family(-30, 30)
    ensemble = ff.random_probe_ensemble(0.1, 4.0, count=12, seed=7)
    a1, b1 = _probe(SHANNON, fam, ensemble[:6])
    a2, b2 = _probe(SHANNON, fam, ensemble)
    assert a1 <= b1 and a2 <= b2
    assert a2 <= a1 + 1e-15
    assert b2 >= b1 - 1e-15


def test_probe_zero_window_returns_zero_pair():
    fam = dyadic_family(-10, 10)
    ensemble = ff.random_probe_ensemble(0.1, 4.0, count=5, seed=3)
    a, b = _probe(scaled(SHANNON, 0.0), fam, ensemble)
    assert (a, b) == (0.0, 0.0)


@st.composite
def _probe_bands(draw):
    """(lo, hi) bands: negative, straddling and positive, from 1e-300 to 1e300
    wide, and never so narrow beside lo that the band holds few floats."""
    lo = draw(st.floats(-1e6, 1e6, allow_subnormal=False) | st.sampled_from([0.0, 1e-300]))
    width = max(draw(st.floats(1e-300, 1e300)), 1e-9 * abs(lo))
    return lo, lo + width


@settings(max_examples=120, deadline=None)
@given(band=_probe_bands(), seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 60))
@example(band=(0.1, 4.0), seed=20260401, count=50)
@example(band=(-3.0, -2.999), seed=0, count=60)
@example(band=(1e-300, 3e-300), seed=5, count=7)
@example(band=(-1e300, 1e300), seed=11, count=30)
def test_probe_ensemble_is_the_normalised_reference_at_unit_norm(band, seed, count):
    ensemble = ff.random_probe_ensemble(*band, count=count, seed=seed)
    reference = _ref_random_probe_ensemble(*band, count=count, seed=seed)
    assert len(ensemble) == len(reference) == count
    for (edges, probe_values), (lo, hi, values) in zip(ensemble, reference):
        assert edges[:-1, None].tolist() == lo.tolist()
        assert edges[1:, None].tolist() == hi.tolist()
        assert probe_values.tolist() == values.tolist()
        # the norm taken here, not by the package
        assert abs(sum(v * v * (b - a) for a, b, v in zip(
            edges[:-1].tolist(), edges[1:].tolist(), probe_values.tolist())) - 1.0) <= 1e-12


def test_probe_ensemble_builds_no_profile(tmp_path, monkeypatch):
    # each probe used to be built, then built again scaled to unit norm, and
    # then built once; a step row is no profile
    built, counts = [0], []
    post_init = PiecewiseConstantProfile.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    def ensemble(*args, **kwargs):
        before = built[0]
        probes = draw(*args, **kwargs)
        counts.append((len(probes), built[0] - before))
        return probes

    draw = ff.random_probe_ensemble
    monkeypatch.setattr(PiecewiseConstantProfile, "__post_init__", counted)
    monkeypatch.setattr(ff, "random_probe_ensemble", ensemble)
    runner.run_scenario(runner.load_bundled_scenario("shannon_onb"), tmp_path)
    assert counts == [(50, 0)]


def test_probe_ensemble_must_be_nonempty():
    with pytest.raises(RejectedInputError, match="probe ensemble must be nonempty"):
        ff.random_probe_ensemble(0.1, 4.0, count=0, seed=0)


def test_cli_narrow_probe_band_ends_in_one_error_line(tmp_path):
    # the band holds two floats, so every draw of four or more sorted edges has
    # a zero gap; the draw loop used to reject forever
    done = subprocess.run(
        [sys.executable, "-m", "affineframes", "run", "shannon_onb", "--out", str(tmp_path / "o"),
         "--set", "analyses.1.probe_band=[1.0,1.0000000000000002]"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": ":".join(sys.path)})
    assert done.returncode == 1
    assert done.stderr.startswith("error: probe band [1.0, 1.0000000000000002] is too narrow")
    assert done.stderr.count("\n") == 1 and "Warning" not in done.stderr


def _frame_report(tmp_path, j_lo, j_hi, segments, value=1.0) -> dict:
    """The frame_report entry of report.json for SHANNON (times `value`) under
    the dyadic powers j_lo..j_hi on Z, 50 grid points a segment, bounds 1, M = 4."""
    _, report = runner.run_scenario(cfg.resolve_defaults({
        "group": {"kind": "euclidean", "dim": 1},
        "family": {"kind": "matrix_power", "base": [[2.0]], "j_min": j_lo, "j_max": j_hi},
        "profile": {"kind": "piecewise_constant",
                    "pieces": [{"box": [[-1.0, -0.5]], "value": value},
                               {"box": [[0.5, 1.0]], "value": value}]},
        "analyses": [{"kind": "frame_report", "segments": segments, "points_per_segment": 50,
                      "lower": 1.0, "upper": 1.0, "M": 4.0}]}), tmp_path)
    [entry] = report["analyses"]
    return entry


def test_report_upper_bound_failures_for_scaled_window(tmp_path):
    report = _frame_report(tmp_path, -40, 40, [[-2, -0.01], [0.01, 2]], value=math.sqrt(2.0))
    assert report["n_failures"] == 100
    assert report["max"] == pytest.approx(2.0, abs=1e-12)


def test_report_rejects_grid_touching_exclusion_zone(tmp_path):
    with pytest.raises(RejectedInputError):
        _frame_report(tmp_path, -10, 10, [[1e-5, 0.5]])


def test_report_remainder_inequality_at_probe_points(tmp_path):
    report = _frame_report(tmp_path, -40, 40, [[-2, -0.05], [0.05, 2]])
    assert report["counting_verdict"] == "holds"
    assert len(report["remainder"]) == 3
    for row in report["remainder"]:
        assert row["satisfied"]
        assert 1.0 <= row["ball_average"] + row["remainder"] + 5e-6


def test_report_integrates_its_remainder_probes_in_one_call(tmp_path, monkeypatch):
    calls = []
    integrate = quadrature.integrate_with_breakpoints
    monkeypatch.setattr(quadrature, "integrate_with_breakpoints",
                        lambda f, intervals: calls.append(len(intervals))
                        or integrate(f, intervals))
    report = _frame_report(tmp_path, -40, 40, [[-2, -0.05], [0.05, 2]])
    assert len(report["remainder"]) == 3
    # a ball and its tail per probe point, then the functional's own call
    assert len(calls) == 2 and calls[0] == 6


# ---------------------------------------------------------------------------
# The frame report against the two-layer report it replaced
# ---------------------------------------------------------------------------

def _ref_ball_integrals(psihat, family, xi0, epsilon, M):
    """Reference: one ball's average and tail integral, one quadrature call."""
    lo, hi = xi0 - epsilon, xi0 + epsilon
    breaks = psihat.breakpoints_1d()
    members = _ref_members(family)
    scale, offset = np.array([_ref_line_action(m.auto) for m in members]).reshape(-1, 2).T
    cuts = (breaks[None, :] - offset[:, None]) / scale[:, None]
    tail = ~(np.array([m.upper for m in members]) <= M)

    def integrand(x, owner):
        out = np.empty_like(x)
        out[owner == 0] = cd.calderon_values(psihat, family, x[owner == 0, None])
        out[owner == 1] = cd.calderon_values(psihat, family, x[owner == 1, None],
                                             weighted=True, lower_cutoff=M)
        return out

    total, tail_total = quadrature.integrate_with_breakpoints(
        integrand, [(lo, hi, cuts), (lo, hi, cuts[tail])])
    return total / (2.0 * epsilon), tail_total


def _ref_calderon_inequality_report(psihat, family, lattice, xi_grid, lower, upper, M,
                                    epsilon, scan_radius):
    """Reference: the atomic-family bound report as the library layer built it,
    its fields in a dict and its remainder rows as dicts."""
    grid = np.asarray(xi_grid, dtype=float).ravel()
    gabor = family.metric.kind == ml.GABOR_PRODUCT
    if not gabor and np.any(np.abs(grid) < 1e-3):
        raise RejectedInputError("grid touches the exclusion radius 0.001 around the identity")
    values = cd.calderon_values(psihat, family, grid[:, None])
    passes = (values >= lower - 1e-9) & (values <= upper + 1e-9)
    scan_family = _ref_restrict(family, family.members.upper <= 4096.0)
    scan = _ref_property_x_scan(scan_family, lattice, family.metric, scan_radius, M)
    remainder_rows = []
    if scan.verdict == "holds":
        for i in sorted({0, grid.shape[0] // 2, grid.shape[0] - 1}):
            xi0 = float(grid[i])
            avg, tail = _ref_ball_integrals(psihat, family, xi0, epsilon, M)
            rem = scan.constant * tail / (2.0 * epsilon)
            ok = lower <= avg + rem + 5e-6
            remainder_rows.append({"xi0": xi0, "epsilon": epsilon, "ball_average": avg,
                                   "remainder": rem, "constant": scan.constant,
                                   "satisfied": ok})
    return {"xi_grid": grid, "values": values, "passes": passes,
            "n_failures": int(np.sum(~passes)), "min": float(np.min(values)),
            "max": float(np.max(values)), "counting_verdict": scan.verdict,
            "counting_constant": scan.constant, "remainder": remainder_rows}


@st.composite
def _report_scenarios(draw):
    """A resolved scenario with one frame_report: 1-d powers of dyadic, non-dyadic
    and negative bases, or Gabor shifts; lattices [[b]]; psi-hat of 1 to 3
    pieces with holes; drawn grid, bounds, M, epsilon and scan radius."""
    if draw(st.booleans()):
        j_lo = draw(st.integers(-25, 5))
        group = {"kind": "euclidean", "dim": 1}
        family = {"kind": "matrix_power",
                  "base": [[draw(st.sampled_from([1.5, 2.0, -2.0, 2.5, 3.0, -1.7]))]],
                  "j_min": j_lo, "j_max": j_lo + draw(st.integers(0, 40))}
        M = draw(st.floats(0.5, 40.0))
    else:
        group = {"kind": "gabor", "dim": 1}
        family = {"kind": "gabor_shifts", "p_values": draw(
            st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12, unique=True))}
        M = draw(st.floats(0.5, 0.99))  # every shift has L = 1
    family["weight"] = draw(st.sampled_from([{"kind": "constant", "value": 0.7},
                                             {"kind": "geometric", "base": 1.1},
                                             {"kind": "constant"}]))
    cursor, pieces = draw(st.floats(-2.0, 0.5)), []
    for _ in range(draw(st.integers(1, 3))):
        cursor += draw(st.floats(0.0, 0.5))  # a hole, or none
        width = draw(st.floats(0.05, 1.5))
        pieces.append({"box": [[cursor, cursor + width]],
                       "value": draw(st.floats(0.25, 2.0) | st.floats(-2.0, -0.25))})
        cursor += width
    ends = sorted(draw(st.lists(st.sampled_from([-2.5, -1.0, -0.3, -1e-4, 0.0, 0.2, 0.7,
                                                 1.3, 2.0, 3.0]),
                                min_size=2, max_size=4, unique=True)))
    lower = draw(st.floats(0.1, 1.5))
    return cfg.resolve_defaults({
        "group": group, "family": family, "lattice": {"basis": [[draw(
            st.sampled_from([0.3, 0.5, 1.0, 2.0, -1.0]))]]},
        "profile": {"kind": "piecewise_constant", "pieces": pieces},
        "analyses": [{"kind": "frame_report", "segments": list(zip(ends[::2], ends[1::2])),
                      "points_per_segment": draw(st.integers(2, 12)),
                      "lower": lower, "upper": lower + draw(st.floats(0.0, 1.0)),
                      "M": M,
                      "epsilons": [draw(st.floats(1e-3, 0.3))],
                      "scan_radius": draw(st.floats(0.1, 1.0))}]})


@settings(max_examples=150, deadline=None)
@given(scenario=_report_scenarios())
@example(scenario=cfg.resolve_defaults({
    "group": {"kind": "gabor", "dim": 1},
    "family": {"kind": "gabor_shifts", "p_min": -6, "p_max": 6, "p_step": 0.5},
    "profile": {"kind": "piecewise_constant", "pieces": [{"box": [[0.0, 0.5]], "value": 1.3},
                                                         {"box": [[0.75, 1.0]], "value": -0.4}]},
    "analyses": [{"kind": "frame_report", "segments": [[-1.5, 2.0]], "points_per_segment": 9,
                  "lower": 0.2, "upper": 2.0, "M": 0.5, "epsilons": [0.05]}]}))
@example(scenario=cfg.resolve_defaults({
    "group": {"kind": "euclidean", "dim": 1},
    "family": {"kind": "matrix_power", "base": [[-1.7]], "j_min": -15, "j_max": 15},
    "lattice": {"basis": [[-1.0]]},
    "profile": {"kind": "piecewise_constant", "pieces": [{"box": [[-1.2, -0.3]], "value": 0.8},
                                                         {"box": [[0.4, 1.1]], "value": 1.0}]},
    "analyses": [{"kind": "frame_report", "points_per_segment": 7, "lower": 0.1,
                  "upper": 3.0, "M": 3.0, "epsilons": [0.02]}]}))
def test_frame_report_matches_the_two_layer_reference(scenario):
    [analysis] = scenario["analyses"]
    ctx = {"scenario": scenario, "lattice": cfg.build_lattice(scenario),
           "family": cfg.build_family(scenario), "profile": cfg.build_profile(scenario)}
    grid = cfg.scan_grid(analysis["segments"], analysis["points_per_segment"])
    try:
        ref = _ref_calderon_inequality_report(
            ctx["profile"], ctx["family"], ctx["lattice"], grid, analysis["lower"],
            analysis["upper"], analysis["M"], analysis["epsilons"][0], analysis["scan_radius"])
    except Exception as exc:  # the same error, with the same message
        with pytest.raises(type(exc)) as raised:
            runner._run_frame_report(analysis, ctx)
        assert str(raised.value) == str(exc)
        return
    result, _, (_, rows) = runner._run_frame_report(analysis, ctx)
    assert rows == [[float(x), float(v), int(p)]
                    for x, v, p in zip(ref["xi_grid"], ref["values"], ref["passes"])]
    for key in ("n_failures", "min", "max", "counting_verdict", "counting_constant",
                "remainder"):
        assert result[key] == ref[key], key
