import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineframes import metric_lattice as ml
from affineframes.automorphisms import matrix_automorphism, shearlet
from affineframes.errors import RejectedInputError
from affineframes.profiles import (PiecewiseConstantProfile, indicator_interval,
                                   triangle_bump)

SEED = 13579


def test_distance_closed_forms():
    assert ml.distance(ml.euclidean_linf(2), [0.3, -0.4], [0.0, 0.0]) == pytest.approx(0.4)
    assert ml.distance(ml.euclidean_l2(2), [3.0, 4.0], [0.0, 0.0]) == pytest.approx(5.0)
    assert ml.distance(ml.gabor_product(), [0.25, 2], [0.0, 0]) == pytest.approx(2.25)


def test_distance_dimension_mismatch_rejected():
    with pytest.raises(RejectedInputError):
        ml.distance(ml.euclidean_l2(2), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_ball_measures():
    assert ml.ball_measure(ml.euclidean_linf(2), 0.5) == pytest.approx(1.0)
    assert ml.ball_measure(ml.euclidean_l2(2), 1.0) == pytest.approx(math.pi)
    assert ml.ball_measure(ml.gabor_product(), 0.25) == pytest.approx(0.5)
    # one integer slice enters at radius above one
    assert ml.ball_measure(ml.gabor_product(), 1.5) == pytest.approx(3.0 + 2 * 0.5 * 2)


def test_ball_measure_rejects_nonpositive_radius():
    with pytest.raises(RejectedInputError):
        ml.ball_measure(ml.euclidean_l2(1), 0.0)


@pytest.mark.parametrize("metric", [ml.euclidean_l2(1), ml.euclidean_l2(2),
                                    ml.euclidean_linf(2), ml.euclidean_l2(3)])
def test_weak_doubling_ratio(metric):
    for r in (0.1, 0.5, 1.0):
        assert metric.doubling_ratio(r) <= 4.0 ** metric.dim + 1e-12


def test_gabor_doubling_bounded():
    mg = ml.gabor_product()
    for r in (0.1, 0.5, 0.9, 1.0):
        assert mg.doubling_ratio(r) <= 4.0 ** 2


def test_metric_axioms_on_sampled_triples():
    rng = np.random.default_rng(SEED)
    for metric in (ml.euclidean_l2(2), ml.euclidean_linf(3)):
        pts = rng.normal(size=(300, 3, metric.dim))
        for a, b, c in pts:
            dab = metric.distance(a, b)
            assert dab == pytest.approx(metric.distance(b, a))
            assert dab <= metric.distance(a, c) + metric.distance(c, b) + 1e-12
            tau = rng.normal(size=metric.dim)
            assert metric.distance(a + tau, b + tau) == pytest.approx(dab, abs=1e-12)


def test_ball_translation_invariance():
    rng = np.random.default_rng(SEED)
    metric = ml.euclidean_linf(2)
    for _ in range(1000):
        center = rng.normal(size=2)
        tau = rng.normal(size=2)
        r = float(rng.uniform(0.1, 2.0))
        probe = rng.normal(size=2)
        b0 = ml.Ball(center, r, metric)
        b1 = ml.Ball(center + tau, r, metric)
        assert b0.contains(probe[None, :])[0] == b1.contains((probe + tau)[None, :])[0]


def test_fundamental_domain_tiles():
    rng = np.random.default_rng(SEED)
    basis = np.array([[1.2, 0.3], [-0.4, 0.9]])
    lattice = ml.Lattice(basis)
    span = 3.0 * lattice.covolume
    pts = rng.uniform(-span, span, size=(10000, 2))
    m, rem = lattice.reduce(pts)
    # reconstruction is exact and the remainder is in the half-open cell
    rebuilt = (m.astype(float) @ basis.T) + rem
    assert np.allclose(rebuilt, pts, atol=1e-9)
    coords = rem @ lattice.inv_basis.T
    assert np.all(coords >= -1e-12) and np.all(coords < 1.0)
    # uniqueness: any other lattice point moves the remainder out of the cell
    shifted = rem + lattice.point([1, 0])
    coords2 = shifted @ lattice.inv_basis.T
    assert not np.any(np.all((coords2 >= 0) & (coords2 < 1), axis=1))


def test_lattice_rejects_singular_basis():
    with pytest.raises(RejectedInputError):
        ml.Lattice([[1.0, 2.0], [2.0, 4.0]])


# ---------------------------------------------------------------------------
# Periodization / unfolding identity
# ---------------------------------------------------------------------------

def test_weil_residual_indicator_exact_tiling():
    prof = indicator_interval(0.0, 1.0)
    assert ml.weil_residual(prof, ml.integer_lattice(1)) < 1e-12


def test_weil_residual_zero_profile():
    prof = indicator_interval(0.0, 1.0, value=0.0)
    assert ml.weil_residual(prof, ml.integer_lattice(1)) == pytest.approx(0.0, abs=1e-15)


def test_weil_residual_triangle_bump():
    prof = triangle_bump(0.0, 1.5, n_nodes=25)
    assert ml.weil_residual(prof, ml.integer_lattice(1)) < 1e-8


def test_weil_residual_incommensurate_lattice():
    prof = triangle_bump(0.0, 1.5, n_nodes=25)
    assert ml.weil_residual(prof, ml.Lattice([[0.7]])) < 1e-8


def test_weil_residual_grid_method_converges_with_refinement():
    prof = PiecewiseConstantProfile(np.array([[-0.8, -0.3]]), np.array([[1.1, 0.9]]),
                                    np.array([1.3]))
    lattice = ml.Lattice([[1.0, 0.2], [-0.3, 0.8]])
    residuals = [ml.weil_residual(prof, lattice, level=lv, method="grid")
                 for lv in (2, 3, 4)]
    assert residuals[0] > residuals[1] > residuals[2]
    # roughly first-order decay per level for a jump profile
    assert residuals[2] < 0.5 * residuals[0]
    # the exact clipping path agrees with the identity to roundoff
    assert ml.weil_residual(prof, lattice) < 1e-10


def test_periodize_rejects_dimension_mismatch():
    prof = indicator_interval(0.0, 1.0)
    with pytest.raises(RejectedInputError):
        ml.periodize(prof, ml.integer_lattice(2))


def test_periodize_values():
    prof = indicator_interval(0.0, 1.0)
    per = ml.periodize(prof, ml.integer_lattice(1))
    xs = np.array([[0.25], [0.75], [13.4], [-2.3]])
    assert np.allclose(per(xs), 1.0)


# ---------------------------------------------------------------------------
# Overlap measure
# ---------------------------------------------------------------------------

def test_overlap_identity_quarter():
    est = ml.overlap_measure(ml.integer_lattice(1), ml.euclidean_l2(1), None, 0.25,
                             n_samples=200000)
    assert est.stderr > 0
    assert abs(est.value - 0.5) <= 4 * est.stderr


def test_overlap_identity_covering_radius():
    est = ml.overlap_measure(ml.integer_lattice(1), ml.euclidean_l2(1), None, 0.6,
                             n_samples=50000)
    assert est.value == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0)


def test_overlap_monotone_in_radius():
    lattice = ml.integer_lattice(2)
    metric = ml.euclidean_linf(2)
    values = [ml.overlap_measure(lattice, metric, None, r, n_samples=60000).value
              for r in (0.1, 0.2, 0.3, 0.45, 0.6)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)


def test_overlap_gabor_reduces_to_base():
    est = ml.overlap_measure(ml.integer_lattice(1), ml.gabor_product(), None, 0.25,
                             n_samples=100000)
    assert abs(est.value - 0.5) <= 4 * est.stderr + 1e-12


def test_overlap_shear_against_independent_grid_oracle():
    lattice = ml.integer_lattice(2)
    metric = ml.euclidean_linf(2)
    auto = shearlet(2.0, 1.0)
    est = ml.overlap_measure(lattice, metric, auto, 0.3, n_samples=200000)

    # independent oracle: midpoint grid, explicit shift loop, no shared helpers;
    # the deformed ball's bounding box only reaches neighbor cells
    res = 2000
    steps = (np.arange(res) + 0.5) / res
    gx, gy = np.meshgrid(steps, steps, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    inv = np.linalg.inv(auto.matrix)
    hits = 0
    for chunk in np.array_split(pts, 8):
        covered = np.zeros(chunk.shape[0], dtype=bool)
        for m1 in range(-2, 4):
            for m2 in range(-2, 4):
                pre = (chunk - np.array([m1, m2])) @ inv.T
                covered |= np.max(np.abs(pre), axis=1) < 0.3
        hits += int(covered.sum())
    oracle = hits / pts.shape[0]
    assert abs(est.value - oracle) <= 3 * est.stderr + 2e-3


def test_overlap_rejects_nonpositive_radius():
    with pytest.raises(RejectedInputError):
        ml.overlap_measure(ml.integer_lattice(1), ml.euclidean_l2(1), None, 0.0)


def test_overlap_deterministic_given_seed():
    a = ml.overlap_measure(ml.integer_lattice(1), ml.euclidean_l2(1), None, 0.25,
                           n_samples=70000, seed=5)
    b = ml.overlap_measure(ml.integer_lattice(1), ml.euclidean_l2(1), None, 0.25,
                           n_samples=70000, seed=5)
    assert a.value == b.value and a.stderr == b.stderr


# ---------------------------------------------------------------------------
# Interval-arithmetic box bounds and shift pruning
# ---------------------------------------------------------------------------

def _unimodular(rng: np.random.Generator, dim: int, max_cond: float = 50.0) -> np.ndarray:
    cond = float(rng.uniform(1.0, max_cond))
    log_sigma = rng.uniform(-0.5, 0.5, size=dim) * math.log(cond)
    log_sigma -= log_sigma.mean()
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return u @ np.diag(np.exp(log_sigma)) @ v


def _signs(dim: int) -> np.ndarray:
    return np.stack(np.meshgrid(*[(-1.0, 1.0)] * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)


def _corner_prune_keeps(shifts, inv, metric, r, omega_lo, omega_hi) -> np.ndarray:
    """Oracle: the per-shift pruning test on the preimages of all box corners."""
    center = 0.5 * (omega_lo + omega_hi)
    half = 0.5 * (omega_hi - omega_lo)
    keep = np.zeros(shifts.shape[0], dtype=bool)
    for i, shift in enumerate(shifts):
        pts = (center - shift + _signs(center.shape[0]) * half) @ inv.T
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        lower = np.maximum(np.abs(0.5 * (lo + hi)) - 0.5 * (hi - lo), 0.0)
        if metric.kind == ml.EUCLIDEAN_L2:
            bound = float(np.sqrt(np.sum(lower ** 2)))
        else:
            bound = float(np.max(lower))
        keep[i] = bound < r
    return keep


_seeds = st.integers(0, 2 ** 32 - 1)
_dims = st.integers(1, 3)
_kinds = st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF])
_radii = st.floats(0.05, 2.0)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, dim=_dims, r=_radii)
def test_linear_box_contains_every_corner_image(seed, dim, r):
    rng = np.random.default_rng(seed)
    matrix = _unimodular(rng, dim)
    centers = rng.normal(scale=3.0, size=(4, dim))
    half = rng.uniform(0.0, r, size=dim)
    img_center, img_half = ml.linear_box(matrix, centers, half)
    for c, ic in zip(centers, img_center):
        images = (c + _signs(dim) * half) @ matrix.T
        tol = 1e-12 * (1.0 + np.abs(ic) + img_half)
        assert np.all(images >= ic - img_half - tol)
        assert np.all(images <= ic + img_half + tol)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, dim=_dims, kind=_kinds, r=_radii)
def test_box_image_and_integer_box_match_matrix_vector_form(seed, dim, kind, r):
    rng = np.random.default_rng(seed)
    lattice = ml.Lattice(_unimodular(rng, dim))
    auto = matrix_automorphism(_unimodular(rng, dim))
    ball_lo, ball_hi = ml.MetricSpace(kind, dim).ball_box(r)
    center, half = 0.5 * (ball_lo + ball_hi), 0.5 * (ball_hi - ball_lo)
    img_lo, img_hi = auto.box_image(ball_lo, ball_hi)
    old_center = auto.matrix @ center
    old_half = np.abs(auto.matrix) @ half
    assert np.array_equal(img_lo, old_center - old_half)
    assert np.array_equal(img_hi, old_center + old_half)

    lo, hi = img_lo + rng.normal(size=dim), img_hi + rng.uniform(0.0, 1.0, size=dim)
    m_center = lattice.inv_basis @ (0.5 * (lo + hi))
    m_half = np.abs(lattice.inv_basis) @ (0.5 * (hi - lo))
    m_lo, m_hi = lattice.integer_box(lo, hi)
    assert np.array_equal(m_lo, np.ceil(m_center - m_half - 1e-9).astype(np.int64))
    assert np.array_equal(m_hi, np.floor(m_center + m_half + 1e-9).astype(np.int64))


@settings(max_examples=25, deadline=None)
@given(seed=_seeds, dim=_dims, kind=_kinds, r=_radii)
def test_batched_pruning_keeps_every_shift_the_corner_bound_keeps(seed, dim, kind, r):
    rng = np.random.default_rng(seed)
    metric = ml.MetricSpace(kind, dim)
    lattice = ml.Lattice(_unimodular(rng, dim))
    auto = matrix_automorphism(_unimodular(rng, dim))
    img_lo, img_hi = auto.box_image(*metric.ball_box(r))
    omega_lo, omega_hi = lattice.fundamental_box()
    shifts = lattice.points_in_box(omega_lo - img_hi, omega_hi - img_lo)
    kept = ml._prune_shifts(shifts, auto.inv_matrix, metric, r, omega_lo, omega_hi)
    oracle = shifts[_corner_prune_keeps(shifts, auto.inv_matrix, metric, r,
                                        omega_lo, omega_hi)]
    assert {tuple(s) for s in oracle} <= {tuple(s) for s in kept}


def test_profile_rejects_unbounded_support():
    with pytest.raises(RejectedInputError):
        PiecewiseConstantProfile(np.array([[0.0]]), np.array([[np.inf]]),
                                 np.array([1.0]))


def test_profile_squared_norms_exact():
    boxes = PiecewiseConstantProfile(np.array([[0.0], [1.0]]), np.array([[0.5], [3.0]]),
                                     np.array([2.0, -1.0]))
    assert boxes.squared_norm() == pytest.approx(4.0 * 0.5 + 1.0 * 2.0)
    hat = triangle_bump(0.0, 1.0, height=1.0, n_nodes=3)
    # integral of the squared unit hat over [-1, 1]
    assert hat.squared_norm() == pytest.approx(2.0 / 3.0)
    assert hat.normalized().squared_norm() == pytest.approx(1.0)
