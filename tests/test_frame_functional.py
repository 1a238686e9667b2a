import math
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineframes import automorphisms as am
from affineframes import frame_functional as ff
from affineframes import metric_lattice as ml
from affineframes import quadrature
from affineframes.errors import RejectedInputError
from affineframes.profiles import PiecewiseConstantProfile, indicator_interval, triangle_bump

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

def test_make_test_function_euclidean_interval():
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    assert tf.values[0] == pytest.approx(1.0 / math.sqrt(0.02))
    assert tf.squared_norm() == pytest.approx(1.0, abs=1e-12)
    inside = tf.evaluate(np.array([[0.295], [0.305]]))
    outside = tf.evaluate(np.array([[0.289], [0.311]]))
    assert np.all(inside == tf.values[0])
    assert np.all(outside == 0.0)


def test_make_test_function_gabor_line_reduction():
    tf = ff.make_test_function([0.3, 1], 0.25, GABOR)
    assert tf.dim == 1
    assert tf.squared_norm() == pytest.approx(1.0, abs=1e-15)


def test_make_test_function_gabor_radius_cap():
    with pytest.raises(RejectedInputError):
        ff.make_test_function([0.3, 1], 1.0, GABOR)


def test_make_test_function_wrong_line_rejected():
    with pytest.raises(RejectedInputError):
        ff.make_test_function([0.3, 2], 0.25, GABOR)


# ---------------------------------------------------------------------------
# The functional
# ---------------------------------------------------------------------------

def test_shannon_functional_is_one_at_small_radii():
    fam = dyadic_family()
    for eps in (0.01, 0.005):
        tf = ff.make_test_function([0.3], eps, L2_1)
        value = ff.frame_functional(SHANNON, fam, Z1, tf)
        assert value == pytest.approx(1.0, abs=1e-6)


def test_functional_is_quiet_with_members_far_outside_the_support():
    # 2**600 squared overflows, and its caps lie far beyond any integer box
    fam = dyadic_family(-600, 600)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ff.frame_functional(SHANNON, fam, Z1, tf)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_zero_window_gives_zero():
    fam = dyadic_family(-10, 10)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    assert ff.frame_functional(SHANNON.scaled(0.0), fam, Z1, tf) == 0.0


def test_gabor_unit_window_functional_is_one():
    g = indicator_interval(0.0, 1.0)
    tf = ff.make_test_function([0.3, 1], 0.25, GABOR)
    value = ff.frame_functional(g, gabor_family(), Z1, tf)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_functional_quadratic_in_the_window():
    fam = dyadic_family(-20, 20)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    base = ff.frame_functional(SHANNON, fam, Z1, tf)
    doubled = ff.frame_functional(SHANNON.scaled(2.0), fam, Z1, tf)
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


def _single_shift_term(psihat, m, fhat) -> float:
    """Oracle for a member whose ball is below the single-term threshold: only
    the zero shift meets the domain, so the functional reduces to
    weight * value**2 * integral over the ball of psihat(scale*u + offset)**2."""
    lo, hi = float(fhat.boxes_lo[0, 0]), float(fhat.boxes_hi[0, 0])
    scale, offset = m.auto.line_action()
    cuts = [(float(b) - offset) / scale for b in psihat.breakpoints_1d()]
    [integral] = quadrature.integrate_with_breakpoints(
        lambda u, _owner: psihat.evaluate((scale * u + offset)[:, None]) ** 2,
        [(lo, hi, cuts)])
    return m.weight * float(fhat.values[0]) ** 2 * integral


def test_single_shift_term_matches_frame_functional():
    fam = dyadic_family(-30, 30)
    for eps in (0.01, 0.003):
        tf = ff.make_test_function([0.3], eps, L2_1)
        below = [m for m in fam.members
                 if eps < ff.single_term_threshold(fam, Z1, m.param, 0.3)]
        assert below
        for m in below:
            single = fam.restrict(lambda p, _lo, _hi, keep=m.param: p == keep)
            general = ff.frame_functional(SHANNON, single, Z1, tf)
            reduced = _single_shift_term(SHANNON, m, tf)
            assert reduced == pytest.approx(general, rel=1e-12, abs=1e-14)


def test_single_term_threshold_formula():
    fam = dyadic_family(-5, 5)
    # orbit point 0.3 reduces to boundary distance 0.3 at unit distortion
    assert ff.single_term_threshold(fam, Z1, 0, 0.3) == pytest.approx(0.3)
    # one dyadic step: orbit point 0.6, boundary distance 0.4, distortion 2
    assert ff.single_term_threshold(fam, Z1, 1, 0.3) == pytest.approx(0.2)


def test_partition_additivity_of_the_functional():
    fam = dyadic_family(-12, 12)
    M = 4.5
    low = fam.restrict(lambda _p, _lo, hi: hi < M)
    high = fam.restrict(lambda _p, _lo, hi: hi >= M)
    tf = ff.make_test_function([0.3], 0.02, L2_1)
    full = ff.frame_functional(SHANNON, fam, Z1, tf)
    split = (ff.frame_functional(SHANNON, low, Z1, tf)
             + ff.frame_functional(SHANNON, high, Z1, tf))
    assert split == pytest.approx(full, rel=1e-13)


def test_lebesgue_point_convergence_ratio():
    # profile off the dyadic tiling: the orbit sum is locally constant around
    # interior points, and the functional clips the nearest jump linearly
    profile = indicator_interval(0.4, 0.9)
    fam = dyadic_family(-20, 20)
    xi0 = 0.81
    from affineframes.calderon import calderon_sum
    target = calderon_sum(profile, fam, xi0)[0].value
    assert target == 2.0
    diffs = []
    for eps in (0.04, 0.005, 0.0025):
        tf = ff.make_test_function([xi0], eps, L2_1)
        value = ff.frame_functional(profile, fam, Z1, tf)
        diffs.append(abs(value - target))
    assert diffs[0] <= 2.0 * 0.04 / 0.01  # first-order in the radius
    floored = [max(d, 1e-12) for d in diffs]  # roundoff floor
    assert floored[0] >= floored[1] >= floored[2]
    assert diffs[1] < 1e-12 and diffs[2] < 1e-12


def _per_member_functional(psihat, family, lattice, fhat) -> float:
    """Oracle: the per-member formula, one lattice-box query, one shift loop
    and one quadrature call per member, summed in member order."""
    b = float(lattice.basis[0, 0])
    omega_lo, omega_hi = (0.0, b) if b > 0 else (b, 0.0)
    psi_lo, psi_hi = float(psihat.support_lo[0]), float(psihat.support_hi[0])
    f_lo, f_hi = float(fhat.support_lo[0]), float(fhat.support_hi[0])
    total = 0.0
    for m in family.members:
        scale, offset = m.auto.line_action()
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
def _line_profiles(draw):
    """A piecewise-constant profile of disjoint pieces or a sampled hat."""
    if draw(st.booleans()):
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
@given(family=_families(), psihat=_line_profiles(), fhat=_line_profiles(),
       b=st.sampled_from([1.0, -1.0, 0.75, -0.6, 2.5, -1.7]))
def test_functional_matches_per_member_formula(family, psihat, fhat, b):
    lattice = ml.Lattice(np.array([[b]]))
    assert (ff.frame_functional(psihat, family, lattice, fhat)
            == _per_member_functional(psihat, family, lattice, fhat))


def test_functional_is_one_quadrature_call_without_box_queries(monkeypatch):
    calls = []
    rule = quadrature.integrate_with_breakpoints
    monkeypatch.setattr(quadrature, "integrate_with_breakpoints",
                        lambda f, intervals: calls.append(len(intervals)) or rule(f, intervals))
    monkeypatch.setattr(ml.Lattice, "points_in_box", lambda *a, **k: pytest.fail("box query"))
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    assert ff.frame_functional(SHANNON, dyadic_family(), Z1, tf) == pytest.approx(1.0)
    assert calls == [121]


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
            ff.frame_functional(shannon, fam, ml.Lattice(np.array([[1e-9]])), tf)
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


def test_functional_rejects_continuous_families():
    fam = am.continuous_dilation_family(0.1, 10.0, 16, L2_1)
    tf = ff.make_test_function([0.3], 0.01, L2_1)
    with pytest.raises(RejectedInputError):
        ff.frame_functional(SHANNON, fam, Z1, tf)


# ---------------------------------------------------------------------------
# Probe and report
# ---------------------------------------------------------------------------

def test_probe_sandwich_and_monotonicity():
    fam = dyadic_family(-30, 30)
    ensemble = ff.random_probe_ensemble(0.1, 4.0, count=12, seed=7)
    a1, b1 = ff.frame_bound_probe(SHANNON, fam, Z1, ensemble[:6])
    a2, b2 = ff.frame_bound_probe(SHANNON, fam, Z1, ensemble)
    assert a1 <= b1 and a2 <= b2
    assert a2 <= a1 + 1e-15
    assert b2 >= b1 - 1e-15


def test_probe_requires_unit_norm():
    fam = dyadic_family(-5, 5)
    bad = indicator_interval(0.0, 1.0, value=2.0)
    with pytest.raises(RejectedInputError):
        ff.frame_bound_probe(SHANNON, fam, Z1, [bad])


def test_probe_zero_window_returns_zero_pair():
    fam = dyadic_family(-10, 10)
    ensemble = ff.random_probe_ensemble(0.1, 4.0, count=5, seed=3)
    a, b = ff.frame_bound_probe(SHANNON.scaled(0.0), fam, Z1, ensemble)
    assert (a, b) == (0.0, 0.0)


def test_report_upper_bound_failures_for_scaled_window():
    fam = dyadic_family(-40, 40)
    grid = np.concatenate([np.linspace(-2, -0.01, 50), np.linspace(0.01, 2, 50)])
    report = ff.calderon_inequality_report(SHANNON.scaled(math.sqrt(2.0)), fam, Z1,
                                           grid, 1.0, 1.0, M=4.0)
    assert report.n_failures == grid.size
    assert report.max_value == pytest.approx(2.0, abs=1e-12)


def test_report_rejects_grid_touching_exclusion_zone():
    fam = dyadic_family(-10, 10)
    with pytest.raises(RejectedInputError):
        ff.calderon_inequality_report(SHANNON, fam, Z1, np.array([1e-5, 0.5]),
                                      1.0, 1.0, M=4.0)


def test_report_remainder_inequality_at_probe_points():
    fam = dyadic_family(-40, 40)
    grid = np.concatenate([np.linspace(-2, -0.05, 50), np.linspace(0.05, 2, 50)])
    report = ff.calderon_inequality_report(SHANNON, fam, Z1, grid, 1.0, 1.0, M=4.0)
    assert report.counting_verdict == "holds"
    assert len(report.remainder) == 3
    for row in report.remainder:
        assert row.satisfied
        assert 1.0 <= row.ball_average + row.remainder + 5e-6
