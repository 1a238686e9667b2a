"""Continuous dilation families against the generic routines they replaced.

The members of a continuous family are dilations [[a]], so L(a) = jacobian(a)
= a and every frequency's orbit integral comes from one batched quadrature
call.  The references below are the per-frequency, generic-L routines that
computed the same numbers by rebuilding automorphisms at every probe; the
properties assert `==` against them, so no bit may move.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affineframes import automorphisms as am
from affineframes import calderon as cd
from affineframes import metric_lattice as ml
from affineframes import quadrature
from affineframes.profiles import PiecewiseConstantProfile, SampledGridProfile
from reference_members import constants

METRICS = [ml.euclidean_l2(1), ml.euclidean_linf(1)]


# ---------------------------------------------------------------------------
# References: the generic routines, one frequency and one probe at a time
# ---------------------------------------------------------------------------

def ref_level_set_intervals(family, lower, upper):
    def L(a):
        return constants(am.Automorphism(*family.generator(a)), family.metric).upper

    def inside(a):
        return lower <= L(a) <= upper

    edges = family.edges
    edge_vals = np.array([L(float(e)) for e in edges])
    out = []
    for a0, a1, v0, v1 in zip(edges[:-1], edges[1:], edge_vals[:-1], edge_vals[1:]):
        cell_lo, cell_hi = min(v0, v1), max(v0, v1)
        if cell_hi < lower or cell_lo > upper:
            continue
        if lower <= cell_lo and cell_hi <= upper:
            out.append((float(a0), float(a1)))
            continue
        grid = np.linspace(a0, a1, 5)
        flags = [inside(float(g)) for g in grid]
        cursor = None
        for g0, g1, f0, f1 in zip(grid[:-1], grid[1:], flags[:-1], flags[1:]):
            if f0 and cursor is None:
                cursor = float(g0)
            if f0 != f1:
                cut = am._bisect_flag(inside, float(g0), float(g1), f0)
                if f0:
                    out.append((cursor if cursor is not None else float(g0), cut))
                    cursor = None
                else:
                    cursor = cut
        if flags[-1] and cursor is not None:
            out.append((cursor, float(grid[-1])))
            cursor = None
    return _ref_merge_intervals(out)


def _ref_merge_intervals(intervals):
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        plo, phi = merged[-1]
        if lo <= phi + 1e-12:
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return [(lo, hi) for lo, hi in merged if hi > lo]


def ref_active_windows(psihat, xi, domain):
    lo_d, hi_d = domain
    windows = []
    edges = psihat.breakpoints_1d()
    for u0, u1 in zip(edges[:-1], edges[1:]):
        probes = np.array([[u0], [0.5 * (u0 + u1)], [u1 - 1e-12 * (u1 - u0)]])
        if np.all(psihat.evaluate(probes) == 0.0):
            continue
        if xi > 0:
            a0, a1 = u0 / xi, u1 / xi
        elif xi < 0:
            a0, a1 = u1 / xi, u0 / xi
        else:
            continue
        a0, a1 = max(a0, lo_d), min(a1, hi_d)
        if a1 > a0:
            windows.append((a0, a1))
    return windows


def ref_orbit_integral(psihat, family, xi):
    domain = family.continuous_domain()
    windows = ref_active_windows(psihat, xi, domain)

    def integrand(a, _owner=None):
        vals = psihat.evaluate((a * xi)[:, None]) ** 2
        return np.array([family.weight_of(float(v)) for v in a]) * vals

    total = 0.0
    for value in quadrature.integrate_with_breakpoints(
            integrand, [(a0, a1, ()) for a0, a1 in windows]):
        total += value
    full = ref_active_windows(psihat, xi, (0.0, np.inf))
    covered = all(domain[0] <= f0 and f1 <= domain[1] for f0, f1 in full)
    tail = 0.0
    if not covered:
        for f0, f1 in full:
            left_gap = max(0.0, min(f1, domain[0]) - f0)
            right_gap = max(0.0, f1 - max(f0, domain[1]))
            for gap, edge in ((left_gap, domain[0]), (right_gap, domain[1])):
                if gap > 0:
                    tail += gap * float(integrand(np.array([edge]))[0])
    return xi, total, tail, covered


# ---------------------------------------------------------------------------
# Random continuous families, profiles and probe points
# ---------------------------------------------------------------------------

def _random_family(rng, metric):
    lo = math.exp(rng.uniform(-4.0, 0.0))
    hi = lo * math.exp(rng.uniform(0.3, 8.0))
    p = float(rng.uniform(-2.0, 0.5))
    return am.continuous_dilation_family(lo, hi, int(rng.integers(1, 80)), metric,
                                         weight=lambda a: a ** p)


def _random_profile(rng, sampled):
    """Pieces on both sides of the identity, with zero pieces and gaps that
    the windows must skip."""
    if sampled:
        lo = float(rng.uniform(-3.0, 1.0))
        samples = rng.uniform(0.0, 2.0, size=int(rng.integers(2, 12)))
        samples[rng.random(samples.shape) < 0.3] = 0.0
        return SampledGridProfile(lo, lo + float(rng.uniform(0.2, 4.0)), samples)
    cuts = np.sort(rng.choice(np.linspace(-3.0, 3.0, 61), size=2 * int(rng.integers(1, 6)),
                              replace=False))
    values = rng.normal(size=cuts.size // 2)
    values[rng.random(values.shape) < 0.2] = 0.0
    return PiecewiseConstantProfile(cuts[0::2, None], cuts[1::2, None], values)


def _grid_points(family):
    """Cell edges and the 5-point bracketing grids the level sets probe."""
    edges = family.edges
    return np.concatenate([np.linspace(a0, a1, 5) for a0, a1 in zip(edges[:-1], edges[1:])])


def _probe_value(rng, family):
    """A parameter on an edge, on a bracketing grid point, or anywhere near
    the domain (outside it too)."""
    lo, hi = family.continuous_domain()
    kind = rng.integers(3)
    if kind == 0:
        return float(rng.choice(family.edges))
    if kind == 1:
        return float(rng.choice(_grid_points(family)))
    return float(math.exp(rng.uniform(math.log(lo) - 1.0, math.log(hi) + 1.0)))


def _frequencies(rng, psihat, family):
    """Frequencies of both signs, some placing a window end on a domain edge."""
    lo, hi = family.continuous_domain()
    xis = rng.choice([-1.0, 1.0], size=6) * np.exp(rng.uniform(-3.0, 3.0, size=6))
    u = psihat.breakpoints_1d()
    u = u[u != 0.0]
    if u.size:
        xis[:2] = [float(rng.choice(u)) / lo, float(rng.choice(u)) / hi]
    return xis


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _assert_true_band(got, family, lower, upper):
    """The generic walk missed bands narrower than one grid step; the level set
    now bisects their true ends max(lower, lo) and min(upper, hi) to BISECT_TOL.
    A band narrower than that tolerance may bisect to nothing."""
    edges = family.edges
    true_lo, true_hi = max(lower, float(edges[0])), min(upper, float(edges[-1]))
    if got == []:
        assert true_hi - true_lo <= am.BISECT_TOL * max(1.0, abs(true_lo))
        return
    [(lo, hi)] = got
    for end, true in ((lo, true_lo), (hi, true_hi)):
        assert abs(end - true) <= am.BISECT_TOL * max(1.0, abs(true))


def _band_mass(family, intervals):
    return sum(quadrature.integrate_box(
        lambda x: np.array([family.weight_of(float(v)) for v in x[:, 0]]),
        [a0], [a1], cells_per_axis=4) for a0, a1 in intervals)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), metric=st.sampled_from(METRICS))
def test_level_sets_read_the_parameter_bit_for_bit(seed, metric):
    rng = np.random.default_rng(seed)
    fam = _random_family(rng, metric)
    draws = [(_probe_value(rng, fam), np.inf if rng.random() < 0.2 else _probe_value(rng, fam))
             for _ in range(12)]
    grid = _grid_points(fam)  # and a band inside one grid step, which the walk missed
    step = int(rng.choice(np.flatnonzero(np.diff(grid) > 0))) + 1
    draws.append(np.sort(rng.uniform(grid[step - 1], grid[step], 2)).tolist())
    for lower, upper in draws:
        got, ref = fam.level_set_intervals(lower, upper), ref_level_set_intervals(
            fam, lower, upper)
        if ref:
            assert got == ref
        else:
            _assert_true_band(got, fam, lower, upper)
    # band masses integrate the density over those level sets
    ts = np.sort([_probe_value(rng, fam) for _ in range(4)])
    band = am.band_mass_profile(fam, lambda x: x, 2.0, ts, float(ts[0]), cap=1e6)
    for t, value in zip(ts.tolist(), band.values.tolist()):
        ref = ref_level_set_intervals(fam, t, 2.0 * t)
        if ref:
            assert value == _band_mass(fam, ref)
        else:
            got = fam.level_set_intervals(t, 2.0 * t)
            _assert_true_band(got, fam, t, 2.0 * t)
            assert value == _band_mass(fam, got)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), metric=st.sampled_from(METRICS),
       sampled=st.booleans())
def test_batched_orbit_integrals_match_per_frequency_reference(seed, metric, sampled):
    rng = np.random.default_rng(seed)
    fam = _random_family(rng, metric)
    psihat = _random_profile(rng, sampled)
    xis = _frequencies(rng, psihat, fam)
    values, tails, certified, truncation = cd.calderon_sum(psihat, fam, xis)
    assert list(zip(xis.tolist(), values.tolist(), tails.tolist(), certified.tolist())) == [
        ref_orbit_integral(psihat, fam, float(x)) for x in xis]
    lo, hi = fam.continuous_domain()
    assert truncation == f"domain[{lo:g},{hi:g}]"


SHANNON = PiecewiseConstantProfile(np.array([[-1.0], [0.5]]), np.array([[-0.5], [1.0]]),
                                   np.array([1.0, 1.0]))


def test_continuous_scan_is_one_quadrature_call(monkeypatch):
    calls = []
    integrate = quadrature.integrate_with_breakpoints
    monkeypatch.setattr(quadrature, "integrate_with_breakpoints",
                        lambda f, intervals: calls.append(len(intervals))
                        or integrate(f, intervals))
    fam = am.continuous_dilation_family(0.05, 200.0, 64, METRICS[0], weight=lambda a: 1.0 / a)
    xis = np.concatenate([np.linspace(-2.0, -0.05, 50), np.linspace(0.05, 2.0, 50)])
    assert all(len(column) == 100 for column in cd.calderon_sum(SHANNON, fam, xis)[:3])
    assert calls == [100]  # one window per frequency, all in one call


def test_continuous_family_materialises_each_member_once(monkeypatch):
    built, made = [], []
    post_init = am.Automorphism.__post_init__
    monkeypatch.setattr(am.Automorphism, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    dilations = am.continuous_dilation_family(0.05, 200.0, 64, METRICS[0],
                                              weight=lambda a: 1.0 / a)
    fam = am.AutomorphismFamily(dilations.params,
                                lambda a: made.append(a) or dilations.generator(a),
                                dilations.weight, dilations.metric, edges=dilations.edges)
    cd.calderon_sum(SHANNON, fam, np.linspace(0.05, 2.0, 50))
    am.band_mass_profile(fam, lambda x: x, 2.0, np.geomspace(1.0, 64.0, 13), 1.0)
    assert made == list(fam.params) and built == []  # one generator call per member
