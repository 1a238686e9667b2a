"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from affineframes import automorphisms as am
from affineframes import calderon as cd
from affineframes import counting as ct
from affineframes import frame_functional as ff
from affineframes import metric_lattice as ml
from affineframes.profiles import (PiecewiseConstantProfile, indicator_interval,
                                   triangle_bump)
from unimodular import random_unimodular

L2_1 = ml.euclidean_l2(1)
L2_2 = ml.euclidean_l2(2)
L2_3 = ml.euclidean_l2(3)
LINF_2 = ml.euclidean_linf(2)
Z1 = ml.integer_lattice(1)
Z2 = ml.integer_lattice(2)

SHANNON = PiecewiseConstantProfile(np.array([[-1.0], [0.5]]), np.array([[-0.5], [1.0]]),
                                   np.array([1.0, 1.0]))

ACCEPT_SEED = 20240823


def _report(line: str, elapsed: float, limit: float) -> None:
    print(f"[PASS] {line} ({elapsed:.2f}s < {limit:g}s)", flush=True)
    assert elapsed < limit


def test_criterion_1_shannon_onb_scan_and_functional():
    start = time.perf_counter()
    fam = am.matrix_power_family([[2.0]], -60, 60, L2_1)
    grid = np.concatenate([np.linspace(-2.0, -0.01, 200), np.linspace(0.01, 2.0, 200)])
    values = cd.calderon_values(SHANNON, fam, grid[:, None])

    # independent oracle: brute-force dyadic sum over |j| <= 60
    oracle = np.zeros_like(grid)
    for j in range(-60, 61):
        y = (2.0 ** j) * grid
        oracle += (((y >= -1.0) & (y < -0.5)) | ((y >= 0.5) & (y < 1.0))).astype(float)
    assert np.max(np.abs(values - oracle)) == 0.0
    assert np.max(np.abs(values - 1.0)) <= 1e-9

    for eps in (0.01, 0.005):
        tf = ff.make_test_function([0.3], eps, L2_1)
        value = ff.frame_functional(SHANNON, fam, Z1, tf)
        assert abs(value - 1.0) <= 1e-6
    _report("criterion 1: band-indicator wavelet scan = 1 (1e-9), functional = 1 (1e-6)",
            time.perf_counter() - start, 5.0)


def test_criterion_2_gabor_onb_sum_and_counting_bound():
    start = time.perf_counter()
    fam = am.gabor_shift_family(np.arange(-25.0, 26.0))
    window = indicator_interval(0.0, 1.0)
    grid = np.linspace(-3.0, 3.0, 200)
    values = cd.calderon_values(window, fam, grid[:, None])
    assert np.max(np.abs(values - 1.0)) <= 1e-12

    scan = ct.property_x_scan(fam, Z1, ml.gabor_product(), 0.5, 1.0)
    assert scan.verdict == "holds"
    assert all(row.jacobian == 1.0 for row in scan.rows)
    _report("criterion 2: gabor window sum = 1 (1e-12), counting bound holds, "
            "unit jacobian", time.perf_counter() - start, 2.0)


def test_criterion_3_counting_sandwich_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    failures = 0
    for case in range(200):
        dim = int(rng.integers(1, 4))
        kind = ml.EUCLIDEAN_LINF if case % 2 else ml.EUCLIDEAN_L2
        metric = ml.MetricSpace(kind, dim)
        lattice = ml.Lattice(random_unimodular(rng, dim))
        auto = am.matrix_automorphism(random_unimodular(rng, dim))
        r = float(rng.uniform(0.05, 2.0))
        bounds = ct.counting_bounds(lattice, auto, r, metric, n_samples=100_000,
                                    seed=ACCEPT_SEED + case)
        count_2r = ct.enumerate_points(lattice, auto, 2.0 * r, metric).count
        upper_ok = bounds.count <= bounds.upper_bound + 3.0 * bounds.upper_bound_stderr
        lower_ok = count_2r >= bounds.lower_bound_at_2r - 3.0 * bounds.lower_bound_stderr
        failures += not (upper_ok and lower_ok)
    assert failures == 0
    _report("criterion 3: two-sided counting sandwich, 200 random instances, 100%",
            time.perf_counter() - start, 120.0)


def test_criterion_4_shearlet_counting_bound():
    start = time.perf_counter()
    fam = am.shearlet_grid_family([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                                  range(-8, 9), LINF_2)
    r = 0.4
    report = ct.property_x_scan(fam, Z2, LINF_2, r, 1.0)
    assert report.verdict == "holds"
    assert report.constant <= 2.24
    for row in report.rows:
        a, _s = row.param
        box_bound = (math.floor(2 * r * a) + 1) * (math.floor(2 * r * math.sqrt(a)) + 1)
        assert row.count <= box_bound
    _report("criterion 4: shearlet grid counting bound holds, C <= 2.24, "
            "counts below the box bound", time.perf_counter() - start, 30.0)


def test_criterion_5_hyperbolic_powers_violation():
    start = time.perf_counter()
    fam = am.matrix_power_family([[2.0, 0.0], [0.0, 0.5]], 0, 20, LINF_2)
    counts = {}
    for j in range(0, 21):
        auto = am.matrix_power([[2.0, 0.0], [0.0, 0.5]], j)
        counts[j] = ct.enumerate_points(Z2, auto, 0.4, LINF_2).count
        # independent oracle: exact rational floor of the ball stretch
        expected = 2 * math.floor(Fraction(2, 5) * 2 ** j) + 1
        assert counts[j] == expected
    assert counts[0] == 1 and counts[1] == 1
    assert counts[20] > 10 ** 5  # unbounded growth at unit jacobian

    scan = ct.property_x_scan(fam, Z2, LINF_2, 0.4, 1.0)
    assert scan.verdict == "violated"
    assert scan.witness == 20

    verdict = am.classify_expansiveness(
        am.matrix_power_family([[2.0, 0.0], [0.0, 0.5]], -20, 20, LINF_2))
    assert verdict.verdict == "non_expanding"
    _report("criterion 5: hyperbolic powers violate the counting bound "
            "(witness j=20), classified non-expanding", time.perf_counter() - start, 5.0)


def test_criterion_6_distortion_constants_vs_sampling_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    cases = []
    for dim, metric in ((2, L2_2), (3, L2_3)):
        made = 0
        while made < 50:
            m = rng.normal(size=(dim, dim))
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[-1] < 1e-3 or sv[0] / sv[-1] > 50.0:
                continue
            cases.append((am.matrix_automorphism(m), metric))
            made += 1
    for _ in range(50):
        a = float(np.exp(rng.uniform(math.log(0.5), math.log(16.0))))
        s = float(rng.uniform(-4.0, 4.0))
        cases.append((am.shearlet(a, s), L2_2))

    # one oracle call per metric (a frozen (kind, dim) pair); each member's
    # bounds are the ones a call of its own would give
    groups: dict[ml.MetricSpace, list] = {}
    for auto, metric in cases:
        groups.setdefault(metric, []).append(auto)
    for metric, autos in groups.items():
        oracle = am.lipschitz_oracle(autos, metric, n_directions=100_000)
        for auto, (o_lo, o_hi) in zip(autos, oracle):
            closed = am.lipschitz_constants(auto, metric)
            assert closed.lower <= o_lo + 1e-12
            assert closed.upper >= o_hi - 1e-12
            assert (o_lo - closed.lower) <= 1e-3 * closed.lower
            assert (closed.upper - o_hi) <= 1e-3 * closed.upper
    _report("criterion 6: closed-form distortion constants bracket the "
            "100k-direction oracle within 1e-3", time.perf_counter() - start, 60.0)


def test_criterion_7_band_mass_profiles():
    start = time.perf_counter()
    fam_log = am.continuous_dilation_family(0.05, 500.0, 64, L2_1,
                                            weight=lambda a: 1.0 / a)
    t_grid = np.geomspace(1.0, 64.0, 13)
    for c in (1.5, 2.0, 4.0):
        prof = am.band_mass_profile(fam_log, lambda x: x, c, t_grid, 1.0, cap=10.0)
        assert np.max(np.abs(prof.values - math.log(c))) <= 1e-8
        assert prof.bounded

    fam_flat = am.continuous_dilation_family(0.05, 500.0, 64, L2_1,
                                             weight=lambda a: 1.0)
    prof = am.band_mass_profile(fam_flat, lambda x: x, 2.0, t_grid, 1.0, cap=10.0)
    assert np.max(np.abs(prof.values - (2.0 - 1.0) * t_grid)) <= 1e-6
    assert not prof.bounded

    fam_int = am.matrix_power_family([[2.0, 0.0], [0.0, 3.0]], -12, 12, L2_2)
    envelope = lambda x: x ** (math.log(3.0) / math.log(2.0))
    prof = am.band_mass_profile(fam_int, envelope, 2.0, np.geomspace(1.5, 50.0, 9),
                                1.5, cap=20.0)
    assert prof.bounded and prof.max_value <= 5.0
    _report("criterion 7: band mass log c for 1/a density (1e-8), linear growth "
            "flagged unbounded, integer case bounded", time.perf_counter() - start, 1.0)


def test_criterion_8_unfolding_identity_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    for _ in range(10):
        center = float(rng.uniform(-1.0, 1.0))
        halfwidth = float(rng.uniform(0.4, 2.0))
        bump = triangle_bump(center, halfwidth, height=float(rng.uniform(0.5, 2.0)),
                             n_nodes=int(rng.integers(5, 40)))
        lattice = ml.Lattice([[float(rng.uniform(0.3, 1.7))]])
        assert ml.weil_residual(bump, lattice) < 1e-8
    for _ in range(10):
        k = int(rng.integers(1, 4))
        lo, hi = [], []
        cursor = float(rng.uniform(-1.5, -0.5))
        for _piece in range(k):  # disjoint along the first axis by construction
            width = float(rng.uniform(0.2, 1.0))
            y0 = float(rng.uniform(-1.0, 0.5))
            lo.append([cursor, y0])
            hi.append([cursor + width, y0 + float(rng.uniform(0.2, 1.0))])
            cursor += width + 0.05
        bump2 = PiecewiseConstantProfile(np.array(lo), np.array(hi),
                                         rng.uniform(0.5, 2.0, size=k))
        basis = random_unimodular(rng, 2, max_cond=8.0)
        assert ml.weil_residual(bump2, ml.Lattice(basis)) < 1e-8
    _report("criterion 8: unfolding-identity residual below 1e-8 for 20 bump "
            "profiles on random lattices", time.perf_counter() - start, 10.0)


def test_criterion_9_structural_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)

    # deformed-ball inclusion sandwich: 1000 random (center, radius, map) triples
    for _ in range(50):
        auto = am.shearlet(float(rng.uniform(0.5, 6.0)), float(rng.uniform(-3.0, 3.0)))
        c = am.lipschitz_constants(auto, L2_2)
        lo, hi = c.lower, c.upper
        for _ in range(20):
            center = rng.normal(size=2)
            r = float(rng.uniform(0.1, 2.0))
            image_center = auto.apply(center)
            dirs = rng.normal(size=(1000, 2))
            dirs /= L2_2.norm(dirs)[:, None]
            radii = rng.uniform(0.0, 1.0, size=(1000, 1))
            inner = image_center + dirs * radii * (lo * r) * (1 - 1e-9)
            assert np.all(L2_2.distance_many(auto.inverse_apply(inner), center)
                          < r * (1 + 1e-9))
            image = auto.apply(center + dirs * radii * r)
            assert np.all(L2_2.distance_many(image, image_center) <= hi * r * (1 + 1e-9))

    # measure scaling of deformed balls within three standard errors
    for auto, r in ((am.shearlet(3.0, 1.0), 0.7), (am.matrix_automorphism(
            [[1.2, 0.4], [-0.3, 0.9]]), 1.1)):
        lo_box, hi_box = auto.box_image(*L2_2.ball_box(r))
        n = 300_000
        pts = rng.uniform(lo_box, hi_box, size=(n, 2))
        inside = L2_2.norm(auto.inverse_apply(pts)) < r
        box_vol = float(np.prod(hi_box - lo_box))
        est = box_vol * inside.mean()
        stderr = box_vol * math.sqrt(inside.mean() * (1 - inside.mean()) / n)
        assert abs(est - auto.jacobian * L2_2.ball_measure(r)) <= 3 * stderr

    # quadratic scaling of orbit sums, exactly
    fam = am.matrix_power_family([[2.0]], -40, 40, L2_1)
    grid = np.linspace(0.05, 1.9, 40)[:, None]
    base = cd.calderon_values(SHANNON, fam, grid)
    assert np.array_equal(cd.calderon_values(SHANNON.scaled(3.0), fam, grid), 9.0 * base)

    # partition additivity under a shared truncation, exactly
    M = 4.5
    low = fam.restrict(lambda _p, _lo, hi: hi < M)
    high = fam.restrict(lambda _p, _lo, hi: hi >= M)
    split = (cd.calderon_values(SHANNON, low, grid)
             + cd.calderon_values(SHANNON, high, grid))
    assert np.allclose(split, base, atol=1e-14)
    tf = ff.make_test_function([0.3], 0.02, L2_1)
    full_i = ff.frame_functional(SHANNON, fam, Z1, tf)
    split_i = (ff.frame_functional(SHANNON, low, Z1, tf)
               + ff.frame_functional(SHANNON, high, Z1, tf))
    assert split_i == pytest.approx(full_i, rel=1e-13)

    # averaged remainder inequality at probed points
    scan_grid = np.concatenate([np.linspace(-2.0, -0.05, 50), np.linspace(0.05, 2.0, 50)])
    report = ff.calderon_inequality_report(SHANNON, fam, Z1, scan_grid, 1.0, 1.0, M=4.0)
    assert report.counting_verdict == "holds"
    assert report.remainder and all(row.satisfied for row in report.remainder)

    # bases expanding on a subspace with no contraction stay consistent with
    # the family classifier
    mats = [np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([[2.0, 1.0], [0.0, 3.0]])]
    for _ in range(4):
        q, _r = np.linalg.qr(rng.normal(size=(2, 2)))
        mats.append(q @ np.diag([1.8, 1.1]) @ q.T)
    for A in mats:
        moduli = np.abs(np.linalg.eigvals(A))
        assert np.all(moduli >= 1.0) and np.any(moduli > 1.0)
        verdict = am.classify_expansiveness(am.matrix_power_family(A, 0, 30, L2_2))
        assert verdict.verdict in ("expanding", "uniformly_expanding")

    # the distortion tail vanishes pointwise as the cutoff grows
    fam20 = am.matrix_power_family([[2.0]], -20, 20, L2_1)
    for xi in (0.3, -1.2, 0.07):
        tails = [cd.calderon_tail(SHANNON, fam20, xi, M).value
                 for M in (1.0, 4.0, 16.0, 64.0, 256.0)]
        assert all(b <= a + 1e-14 for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0.0

    _report("criterion 9: structural property suites (ball sandwich, measure "
            "scaling, quadratic scaling, additivity, remainder, subspace "
            "consistency, vanishing tail)", time.perf_counter() - start, 180.0)
