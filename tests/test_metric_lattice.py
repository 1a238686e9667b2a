import dataclasses
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affineframes import metric_lattice as ml
from affineframes.automorphisms import Automorphism, shearlet
from affineframes.errors import RejectedInputError, ResourceLimitError
from affineframes.profiles import PiecewiseConstantProfile, SampledGridProfile, support_radii
from reference_members import masked
from sample_profiles import indicator_interval, triangle_bump
from unimodular import random_unimodular

SEED = 13579


def test_distance_closed_forms():
    assert ml.euclidean_linf(2).norm(np.subtract([0.3, -0.4], [0.0, 0.0])) == pytest.approx(0.4)
    assert ml.euclidean_l2(2).norm(np.subtract([3.0, 4.0], [0.0, 0.0])) == pytest.approx(5.0)
    assert ml.gabor_product().norm(np.subtract([0.25, 2], [0.0, 0])) == pytest.approx(2.25)


def test_ball_measures():
    assert ml.euclidean_linf(2).ball_measure(0.5) == pytest.approx(1.0)
    assert ml.euclidean_l2(2).ball_measure(1.0) == pytest.approx(math.pi)
    assert ml.gabor_product().ball_measure(0.25) == pytest.approx(0.5)
    # one integer slice enters at radius above one
    assert ml.gabor_product().ball_measure(1.5) == pytest.approx(3.0 + 2 * 0.5 * 2)


def test_ball_measure_rejects_nonpositive_radius():
    with pytest.raises(RejectedInputError):
        ml.euclidean_l2(1).ball_measure(0.0)


@pytest.mark.parametrize("metric", [ml.euclidean_l2(1), ml.euclidean_l2(2),
                                    ml.euclidean_linf(2), ml.euclidean_l2(3)])
def test_weak_doubling_ratio(metric):
    for r in (0.1, 0.5, 1.0):
        assert metric.ball_measure(2.0 * r) / metric.ball_measure(r) <= 4.0 ** metric.dim + 1e-12


def test_gabor_doubling_bounded():
    mg = ml.gabor_product()
    for r in (0.1, 0.5, 0.9, 1.0):
        assert mg.ball_measure(2.0 * r) / mg.ball_measure(r) <= 4.0 ** 2


def test_metric_axioms_on_sampled_triples():
    rng = np.random.default_rng(SEED)
    for metric in (ml.euclidean_l2(2), ml.euclidean_linf(3)):
        pts = rng.normal(size=(300, 3, metric.dim))
        for a, b, c in pts:
            dab = metric.norm(a - b)
            assert dab == pytest.approx(metric.norm(b - a))
            assert dab <= metric.norm(a - c) + metric.norm(c - b) + 1e-12
            tau = rng.normal(size=metric.dim)
            assert metric.norm((a + tau) - (b + tau)) == pytest.approx(dab, abs=1e-12)


def test_ball_translation_invariance():
    rng = np.random.default_rng(SEED)
    metric = ml.euclidean_linf(2)
    for _ in range(1000):
        center = rng.normal(size=2)
        tau = rng.normal(size=2)
        r = float(rng.uniform(0.1, 2.0))
        probe = rng.normal(size=2)
        inside0 = metric.norm(probe[None, :] - center)[0] < r
        inside1 = metric.norm((probe + tau)[None, :] - (center + tau))[0] < r
        assert inside0 == inside1


def test_fundamental_domain_tiles():
    rng = np.random.default_rng(SEED)
    basis = np.array([[1.2, 0.3], [-0.4, 0.9]])
    lattice = ml.Lattice(basis)
    span = 3.0 * lattice.covolume
    pts = rng.uniform(-span, span, size=(10000, 2))
    # xi = lambda + omega: integer coordinates of lambda, omega in the half-open cell
    coords = pts @ lattice.inv_basis.T
    m = np.floor(coords).astype(np.int64)
    rem = (coords - m) @ lattice.basis.T
    # reconstruction is exact and the remainder is in the half-open cell
    rebuilt = (m.astype(float) @ basis.T) + rem
    assert np.allclose(rebuilt, pts, atol=1e-9)
    coords = rem @ lattice.inv_basis.T
    assert np.all(coords >= -1e-12) and np.all(coords < 1.0)
    # uniqueness: any other lattice point moves the remainder out of the cell
    shifted = rem + lattice.basis @ np.array([1.0, 0.0])
    coords2 = shifted @ lattice.inv_basis.T
    assert not np.any(np.all((coords2 >= 0) & (coords2 < 1), axis=1))


def test_lattice_rejects_singular_basis():
    with pytest.raises(RejectedInputError):
        ml.Lattice([[1.0, 2.0], [2.0, 4.0]])


def test_points_in_box_checks_bytes_before_allocating():
    lattice = ml.integer_lattice(3)
    # 251^3 points sit under the point cap but need about 1.1 GB of arrays
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="bytes"):
            lattice.points_in_box([0.0] * 3, [250.0] * 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert lattice.points_in_box([0.0] * 3, [9.0] * 3).shape == (1000, 3)


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


def test_weil_residual_converges_with_refinement():
    # a 3-d profile takes the plain cell-subdivision fallback on the periodized side
    box = PiecewiseConstantProfile(np.array([[-0.8, -0.3, -0.4]]),
                                   np.array([[1.1, 0.9, 0.7]]), np.array([1.3]))
    lattice3 = ml.Lattice([[1.0, 0.2, 0.1], [-0.3, 0.8, 0.0], [0.1, 0.2, 0.9]])
    residuals = [ml.weil_residual(box, lattice3, level=lv) for lv in (0, 1, 2)]
    assert residuals[0] > residuals[1] > residuals[2]
    # roughly first-order decay per level for a jump profile
    assert residuals[2] < 0.5 * residuals[0]
    # the exact clipping path agrees with the identity to roundoff
    prof = PiecewiseConstantProfile(np.array([[-0.8, -0.3]]), np.array([[1.1, 0.9]]),
                                    np.array([1.3]))
    lattice = ml.Lattice([[1.0, 0.2], [-0.3, 0.8]])
    assert ml.weil_residual(prof, lattice) < 1e-10


@st.composite
def _disjoint_pieces(draw, dim: int) -> PiecewiseConstantProfile:
    """Constant boxes laid out left to right along the first axis."""
    cursor, lo, hi = draw(st.floats(-1.5, -0.5)), [], []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.floats(0.2, 1.0))
        rest = [draw(st.floats(-1.0, 0.5)) for _ in range(dim - 1)]
        lo.append([cursor, *rest])
        hi.append([cursor + width, *[r + draw(st.floats(0.2, 1.0)) for r in rest]])
        cursor += width + draw(st.floats(0.0, 0.3))
    values = draw(st.lists(st.floats(0.5, 2.0), min_size=len(lo), max_size=len(lo)))
    return PiecewiseConstantProfile(np.array(lo), np.array(hi), np.array(values))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 2), scale=st.floats(0.3, 1.7),
       bump=st.booleans(), data=st.data())
def test_weil_residual_vanishes_on_random_lattices(seed, dim, scale, bump, data):
    lattice = ml.Lattice(scale * random_unimodular(np.random.default_rng(seed), dim, max_cond=8.0))
    if dim == 1 and bump:
        prof = triangle_bump(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(0.4, 2.0)),
                             height=data.draw(st.floats(0.5, 2.0)),
                             n_nodes=data.draw(st.integers(5, 40)))
    else:
        prof = data.draw(_disjoint_pieces(dim))
    assert ml.weil_residual(prof, lattice) < 1e-8


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
    auto = Automorphism(*shearlet(2.0, 1.0))
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
                covered |= (np.abs(pre[:, 0]) < 0.3) & (np.abs(pre[:, 1]) < 0.3)
        hits += int(covered.sum())
    oracle = hits / pts.shape[0]
    assert abs(est.value - oracle) <= 3 * est.stderr + 2e-3


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF]), b=st.floats(0.3, 3.0), a=st.floats(0.2, 5.0), flip_b=st.booleans(), flip_a=st.booleans(),
       coverage=st.floats(0.02, 1.25).filter(lambda f: abs(f - 1.0) > 1e-3))
def test_overlap_1d_against_exact_measure(seed, kind, b, a, flip_b, flip_a, coverage):
    """On bZ the deformed ball a.(-r, r) is an interval of length 2r|a|, and its
    translates cover min(|b|, 2r|a|) of the fundamental domain."""
    b, a = (-b if flip_b else b), (-a if flip_a else a)
    r = coverage * abs(b) / (2.0 * abs(a))  # most draws cover only part of the domain
    lattice = ml.Lattice([[b]])
    est = ml.overlap_measure(lattice, ml.MetricSpace(kind, 1), Automorphism([[a]]),
                             r, n_samples=20_000, seed=seed)
    exact = min(abs(b), 2.0 * r * abs(a))
    if exact < abs(b):
        assert abs(est.value - exact) <= 4 * est.stderr
    else:
        assert est.value == pytest.approx(lattice.covolume, rel=1e-12)


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
    matrix = random_unimodular(rng, dim)
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
    lattice = ml.Lattice(random_unimodular(rng, dim))
    auto = Automorphism(random_unimodular(rng, dim))
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


def test_integer_box_past_int64_is_refused_before_the_cast():
    lattice = ml.integer_lattice(2)
    for lo, hi in (([-1e300, 0.0], [1e300, 1.0]), ([0.0, -1e300], [1.0, 0.0]),
                   ([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [2.0 ** 62, 1.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ResourceLimitError):
                lattice.integer_box(lo, hi)
    m_lo, m_hi = lattice.integer_box([-2.0 ** 61, 0.0], [2.0 ** 61, 1.0])
    assert m_lo.tolist() == [-2 ** 61, 0] and m_hi.tolist() == [2 ** 61, 1]


@settings(max_examples=25, deadline=None)
@given(seed=_seeds, dim=_dims, kind=_kinds, r=_radii)
def test_batched_pruning_keeps_every_shift_the_corner_bound_keeps(seed, dim, kind, r):
    rng = np.random.default_rng(seed)
    metric = ml.MetricSpace(kind, dim)
    lattice = ml.Lattice(random_unimodular(rng, dim))
    auto = Automorphism(random_unimodular(rng, dim))
    img_lo, img_hi = auto.box_image(*metric.ball_box(r))
    omega_lo, omega_hi = lattice.fundamental_box()
    shifts = lattice.points_in_box(omega_lo - img_hi, omega_hi - img_lo)
    kept = ml._prune_shifts(shifts, auto.inv_matrix, metric, r, omega_lo, omega_hi)
    oracle = shifts[_corner_prune_keeps(shifts, auto.inv_matrix, metric, r,
                                        omega_lo, omega_hi)]
    assert {tuple(s) for s in oracle} <= {tuple(s) for s in kept}


# ---------------------------------------------------------------------------
# Column-wise norms and the coverage loop, bit for bit against numpy reductions
# ---------------------------------------------------------------------------

def _reduced_norm(kind: str, v: np.ndarray) -> np.ndarray:
    """Oracle: the norms as numpy last-axis reductions."""
    if kind == ml.EUCLIDEAN_L2:
        return np.sqrt(np.sum(v * v, axis=-1))
    if kind == ml.EUCLIDEAN_LINF:
        return np.max(np.abs(v), axis=-1)
    return np.abs(v[..., 0]) + np.abs(v[..., 1])


def _per_shift_overlap(lattice, metric, auto, r, n_samples, seed) -> tuple[float, float]:
    """Oracle: the per-shift coverage loop on row-major blocks with reduced norms."""
    inv = auto.inv_matrix
    img_lo, img_hi = auto.box_image(*metric.ball_box(r))
    omega_lo, omega_hi = lattice.fundamental_box()
    shifts = lattice.points_in_box(omega_lo - img_hi, omega_hi - img_lo, cap=2_000_000)
    center = 0.5 * (omega_lo + omega_hi)
    pre_center = (center - shifts) @ inv.T
    pre_half = (0.5 * (omega_hi - omega_lo)) @ np.abs(inv).T
    lower = np.maximum(np.abs(pre_center) - pre_half, 0.0)
    if metric.kind == ml.EUCLIDEAN_L2:
        bound = np.sqrt(np.sum(lower ** 2, axis=1))
    else:
        bound = np.max(lower, axis=1)
    shifts = shifts[bound < r * (1.0 + 1e-12)]
    shifts = shifts[np.argsort(_reduced_norm(metric.kind, shifts - center))]
    hits = 0
    for block, start in enumerate(range(0, n_samples, 1 << 17)):
        size = min(1 << 17, n_samples - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
        xi = rng.random((size, lattice.dim)) @ lattice.basis.T
        covered = np.zeros(size, dtype=bool)
        for shift in shifts:
            covered |= _reduced_norm(metric.kind, (xi - shift) @ inv.T) < r
            if covered.all():
                break
        hits += int(covered.sum())
    p = hits / n_samples
    return (lattice.covolume * p,
            lattice.covolume * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples))


_entries = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from([ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF, ml.GABOR_PRODUCT]),
       dim=st.integers(1, 7), rows=st.integers(1, 40), data=st.data())
def test_columnwise_norm_equals_numpy_reductions(kind, dim, rows, data):
    dim = 2 if kind == ml.GABOR_PRODUCT else dim
    metric = ml.MetricSpace(kind, dim)
    v = data.draw(hnp.arrays(np.float64, (rows, dim), elements=_entries))
    assert np.array_equal(metric.norm(v), _reduced_norm(kind, v))
    for row in v:
        value = metric.norm(row)
        assert isinstance(value, float) and value == _reduced_norm(kind, row)


@pytest.mark.parametrize("dim", range(1, 8))
def test_columnwise_norm_equals_numpy_reductions_on_full_blocks(dim):
    rng = np.random.default_rng(SEED + dim)
    v = rng.normal(size=((1 << 17) + 5, dim)) * np.exp(rng.uniform(-3.0, 3.0, size=dim))
    v[::7] = 0.0
    for kind in (ml.EUCLIDEAN_L2, ml.EUCLIDEAN_LINF):
        assert np.array_equal(ml.MetricSpace(kind, dim).norm(v), _reduced_norm(kind, v))


@settings(max_examples=30, deadline=None)
@given(seed=_seeds, dim=_dims, kind=_kinds, r=_radii, n_samples=st.integers(1000, 5000))
# two sample blocks, the second of 5 samples; about 28% of the domain is covered
@example(seed=SEED, dim=2, kind=ml.EUCLIDEAN_L2, r=0.3, n_samples=(1 << 17) + 5)
# thin slabs: the rows are sorted after the first shift and 60 shifts test slices
@example(seed=SEED, dim=3, kind=ml.EUCLIDEAN_L2, r=0.1, n_samples=5000)
# early compaction: 217 of 5,000 rows are left after the second shift
@example(seed=2, dim=2, kind=ml.EUCLIDEAN_L2, r=1.5, n_samples=5000)
# compaction inside the first of two blocks, then a block of 5 rows
@example(seed=2, dim=2, kind=ml.EUCLIDEAN_LINF, r=1.3, n_samples=(1 << 17) + 5)
def test_overlap_measure_equals_per_shift_loop(seed, dim, kind, r, n_samples):
    rng = np.random.default_rng(seed)
    metric = ml.MetricSpace(kind, dim)
    lattice = ml.Lattice(random_unimodular(rng, dim))
    auto = Automorphism(random_unimodular(rng, dim))
    est = ml.overlap_measure(lattice, metric, auto, r, n_samples=n_samples, seed=seed)
    assert (est.value, est.stderr) == _per_shift_overlap(lattice, metric, auto, r,
                                                         n_samples, seed)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, dim=_dims, kind=_kinds, r=st.floats(0.02, 0.3),
       log_cond=st.floats(0.0, 6.0), n_samples=st.integers(1000, 5000))
@example(seed=SEED, dim=3, kind=ml.EUCLIDEAN_L2, r=0.05, log_cond=6.0, n_samples=5000)
@example(seed=SEED, dim=2, kind=ml.EUCLIDEAN_LINF, r=0.3, log_cond=6.0, n_samples=5000)
# sorted after the first shift, then compacted with its bucket column
@example(seed=1, dim=2, kind=ml.EUCLIDEAN_L2, r=1.2, log_cond=2.0, n_samples=5000)
def test_overlap_measure_equals_per_shift_loop_on_ill_conditioned_deformations(
        seed, dim, kind, r, log_cond, n_samples):
    # long thin deformed balls: the slab axis, its rounding margin and the
    # sorted bucket column carried through each compaction all come into play
    rng = np.random.default_rng(seed)
    metric = ml.MetricSpace(kind, dim)
    lattice = ml.Lattice(random_unimodular(rng, dim))
    auto = Automorphism(random_unimodular(rng, dim, max_cond=10.0 ** log_cond))
    try:
        est = ml.overlap_measure(lattice, metric, auto, r, n_samples=n_samples, seed=seed)
    except ResourceLimitError:
        return  # a candidate box past the shift cap; the oracle would refuse it too
    assert (est.value, est.stderr) == _per_shift_overlap(lattice, metric, auto, r,
                                                         n_samples, seed)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, dim=_dims, kind=_kinds, log_cond=st.floats(2.0, 6.0))
def test_slab_half_width_bounds_every_hit_along_its_axis(seed, dim, kind, log_cond):
    # rows at the deformed ball's extreme along the slab axis, jittered by a
    # few rounding units, that still pass the test must lie within the slab
    rng = np.random.default_rng(seed)
    metric = ml.MetricSpace(kind, dim)
    lattice = ml.Lattice(random_unimodular(rng, dim))
    auto = Automorphism(random_unimodular(rng, dim, max_cond=10.0 ** log_cond))
    r = 0.1
    img_center, img_half = ml.linear_box(auto.matrix, np.zeros(dim), np.full(dim, r))
    omega_lo, omega_hi = lattice.fundamental_box()
    slab = ml._Slab.worth_sorting(auto.matrix, auto.inv_matrix, img_center, img_half,
                                  omega_lo, omega_hi, 10 ** 9)
    k = slab.axis
    row = auto.matrix[k]
    extreme = (r * row / np.linalg.norm(row) if kind == ml.EUCLIDEAN_L2
               else r * np.sign(row))
    shift = lattice.basis @ rng.integers(-2, 3, size=dim).astype(float)
    pull = 1.0 - 2.0 ** -rng.uniform(20.0, 52.0, size=(4000, 1))
    jitter = rng.normal(size=(4000, dim)) * 1e-13 * 10.0 ** log_cond * img_half.max()
    sign = rng.choice([-1.0, 1.0], size=(4000, 1))
    xi = shift + (sign * pull * extreme) @ auto.matrix.T + jitter
    hit = metric.norm((xi - shift) @ auto.inv_matrix.T) < r
    assert hit.any()
    assert np.all(np.abs(xi[hit, k] - (shift[k] + slab.centre)) <= slab.half)


@pytest.mark.parametrize("r", [0.25, 1.5, 2.7])
def test_gabor_overlap_equals_the_per_shift_loop_on_each_slice(r):
    lattice = ml.Lattice([[0.7]])
    est = ml.overlap_measure(lattice, ml.gabor_product(), None, r, n_samples=20000, seed=SEED)
    value = var = 0.0
    for k in range(-(math.ceil(r) - 1), math.ceil(r)):
        v, e = _per_shift_overlap(lattice, ml.euclidean_l2(1), Automorphism([[1.0]]),
                                  r - abs(k), 20000, SEED + k)
        value += v
        var += e ** 2
    assert (est.value, est.stderr) == (value, math.sqrt(var))


def _norm_rows(monkeypatch) -> list[int]:
    """Rows each MetricSpace.norm call receives, recorded from now on."""
    rows: list[int] = []
    norm = ml.MetricSpace.norm

    def counted(self, vec):
        rows.append(np.atleast_2d(vec).shape[0])
        return norm(self, vec)

    monkeypatch.setattr(ml.MetricSpace, "norm", counted)
    return rows


def _kept_shifts(lattice, metric, auto, r) -> int:
    img_lo, img_hi = auto.box_image(*metric.ball_box(r))
    omega_lo, omega_hi = lattice.fundamental_box()
    shifts = lattice.points_in_box(omega_lo - img_hi, omega_hi - img_lo)
    return ml._prune_shifts(shifts, auto.inv_matrix, metric, r, omega_lo, omega_hi).shape[0]


def test_thin_ball_tests_each_shift_on_its_slab_only(monkeypatch):
    rng = np.random.default_rng(SEED)
    metric = ml.euclidean_l2(3)
    lattice = ml.Lattice(random_unimodular(rng, 3))
    auto = Automorphism(random_unimodular(rng, 3))
    shifts = _kept_shifts(lattice, metric, auto, 0.05)
    rows = _norm_rows(monkeypatch)
    ml.overlap_measure(lattice, metric, auto, 0.05, n_samples=20000, seed=SEED)
    assert shifts > 20 and sum(rows) <= 0.2 * shifts * 20000


def test_covering_ball_makes_fewer_full_passes_than_it_has_shifts(monkeypatch):
    rng = np.random.default_rng(2)
    metric = ml.euclidean_linf(2)
    lattice = ml.Lattice(random_unimodular(rng, 2))
    auto = Automorphism(random_unimodular(rng, 2))
    shifts = _kept_shifts(lattice, metric, auto, 1.3)
    rows = _norm_rows(monkeypatch)
    est = ml.overlap_measure(lattice, metric, auto, 1.3, n_samples=20000, seed=SEED)
    assert est.value == lattice.covolume
    assert rows.count(20000) < shifts


def _needle_rows():
    """Rows the test passes past the image box of a thin 3-d L-inf needle.

    A = [[n, n+1, 0], [n-1, n, 0], [n, n, 1]] has det 1 and an integer
    inverse with the same large entries, so the test's preimage cancels terms
    of size n^2 r down to r and rounds by up to about eps n^2 = 1.7e-3 of r.
    Rows drawn that far around the two far corners of the needles at the
    corners of the unit cube, other than the origin's (the first shift, which
    every row meets), that pass the test reach past the image box along the
    slab axis (1) by several of the 32768 buckets of the domain span."""
    n = 2_788_313.0
    auto = Automorphism([[n, n + 1, 0.0], [n - 1, n, 0.0], [n, n, 1.0]])
    r = 0.1 / (2 * n - 1)
    rng = np.random.default_rng(SEED)
    f = 2.0 ** -52 * n * n
    rows = []
    for shift in itertools.product((0.0, 1.0), repeat=3):
        if any(shift):
            for sign in (-1.0, 1.0):
                pre = np.column_stack([r * (1.0 + rng.uniform(-f, 2 * f, (2000, 2))),
                                       rng.uniform(-r, r, 2000)])
                rows.append(np.asarray(shift) + sign * pre @ auto.matrix.T)
    rows = np.concatenate(rows)
    return auto, r, rows[np.all((rows >= 0.0) & (rows < 1.0), axis=1)]


def test_slab_guards_keep_the_hits_past_the_image_box(monkeypatch):
    # both guards of _Slab: the rounding margin of worth_sorting reaches hits
    # several buckets past the image box, and the one bucket either side of
    # `rows` reaches a hit that lies less than a bucket past a half-width
    auto, r, rows = _needle_rows()
    metric, lattice = ml.euclidean_linf(3), ml.Lattice(np.eye(3))
    hit = np.zeros(rows.shape[0], dtype=bool)
    along = np.zeros(rows.shape[0])  # the slab-axis distance to a shift that hits
    for shift in itertools.product((-1.0, 0.0, 1.0, 2.0), repeat=3):
        passed = metric.norm((rows - shift) @ auto.inv_matrix.T) < r
        hit |= passed
        along = np.where(passed, np.maximum(along, np.abs(rows[:, 1] - shift[1])), along)
    image_half = r * np.abs(auto.matrix).sum(axis=1)
    assert along.max() > image_half[1] + 2.0 / ml._SLAB_BUCKETS
    monkeypatch.setattr(ml.Lattice, "sample_fundamental", lambda self, rng, n: rows)

    def measured() -> float:
        return ml.overlap_measure(lattice, metric, auto, r, n_samples=rows.shape[0],
                                  seed=SEED).value

    assert measured() == np.count_nonzero(hit) / rows.shape[0]
    # a half-width a quarter bucket short of the bucket edge that the farthest
    # hit lies just past: only the extra bucket of `rows` reaches that hit
    half = (math.floor(along.max() * ml._SLAB_BUCKETS) - 0.25) / ml._SLAB_BUCKETS
    built = ml._Slab.worth_sorting
    monkeypatch.setattr(ml._Slab, "worth_sorting", staticmethod(
        lambda *args: dataclasses.replace(built(*args), half=half)))
    assert measured() == np.count_nonzero(hit) / rows.shape[0]


def test_profile_rejects_unbounded_support():
    with pytest.raises(RejectedInputError):
        PiecewiseConstantProfile(np.array([[0.0]]), np.array([[np.inf]]),
                                 np.array([1.0]))


def _first_overlap_by_loop(lo, hi):
    """The pairwise loop the broadcast overlap check replaced, kept as its oracle."""
    for i in range(lo.shape[0]):
        for j in range(i + 1, lo.shape[0]):
            if np.all(np.maximum(lo[i], lo[j]) < np.minimum(hi[i], hi[j])):
                return i, j
    return None


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_overlap_check_names_the_pair_the_loop_names(dim, data):
    # boxes on a coarse integer grid, so that many share an edge or a face
    k = data.draw(st.integers(1, 8))
    lo = data.draw(hnp.arrays(np.int64, (k, dim), elements=st.integers(-3, 3)))
    hi = lo + data.draw(hnp.arrays(np.int64, (k, dim), elements=st.integers(1, 3)))
    lo, hi = lo.astype(float), hi.astype(float)
    pair = _first_overlap_by_loop(lo, hi)
    if pair is None:
        PiecewiseConstantProfile(lo, hi, np.ones(k))
    else:
        with pytest.raises(RejectedInputError, match=f"^boxes {pair[0]} and {pair[1]} overlap$"):
            PiecewiseConstantProfile(lo, hi, np.ones(k))


def test_two_thousand_pieces_build_at_once():
    edges = np.linspace(0.0, 1.0, 2001)
    start = time.perf_counter()
    profile = PiecewiseConstantProfile(edges[:-1, None], edges[1:, None], np.ones(2000))
    assert time.perf_counter() - start < 0.5
    assert profile.breakpoints_1d().size == 2001


# ---------------------------------------------------------------------------
# The piece table against the per-kind code it replaced
# ---------------------------------------------------------------------------

def _reference_support_radii(profile, metric) -> tuple[float, float]:
    """The corner enumeration the closed form replaced: the identity clipped into
    each piece, and every one of the 2^d corners of each piece."""
    if isinstance(profile, PiecewiseConstantProfile):
        los, his = profile.boxes_lo, profile.boxes_hi
    else:
        los, his = np.array([[profile.lo]]), np.array([[profile.hi]])
    inr, circ, e = np.inf, 0.0, np.zeros(metric.dim)
    for lo, hi in zip(los, his):
        nearest = np.clip(e, lo, hi)
        corners = np.stack(np.meshgrid(*[(a, b) for a, b in zip(lo, hi)],
                                       indexing="ij"), axis=-1).reshape(-1, len(lo))
        inr = min(inr, float(metric.norm(nearest - e)))
        circ = max(circ, float(np.max(metric.norm(corners - e))))
    return inr, circ


def _reference_support_and_breakpoints(profile):
    """Each kind's own support_lo, support_hi and breakpoints_1d as they were."""
    if isinstance(profile, PiecewiseConstantProfile):
        lo, hi = profile.boxes_lo, profile.boxes_hi
        breaks = (np.unique(np.concatenate([lo[:, 0], hi[:, 0]]))
                  if profile.dim == 1 else None)
        return lo.min(axis=0), hi.max(axis=0), breaks
    return np.array([profile.lo]), np.array([profile.hi]), profile.nodes


@st.composite
def _profiles(draw):
    """Either kind in dims 1 to 3 (sampled grids are 1-d), coordinates scaled by
    10^[-3, 3], shifted so that the pieces straddle or avoid the identity.  The
    boxes are disjoint slabs along axis 0 with free extents on the other axes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if rng.random() < 0.3:
        n = int(rng.integers(2, 10))
        lo = float(rng.uniform(-4.0, 4.0)) * scale
        return SampledGridProfile(lo, lo + float(rng.uniform(0.1, 4.0)) * scale,
                                  rng.normal(size=n))
    dim, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    edges = np.sort(rng.choice(np.arange(-8, 9), size=2 * k, replace=False)).reshape(k, 2)
    lo = np.concatenate([edges[:, :1], rng.uniform(-4.0, 0.5, (k, dim - 1))], axis=1)
    hi = np.concatenate([edges[:, 1:], lo[:, 1:] + rng.uniform(0.1, 4.0, (k, dim - 1))], axis=1)
    shift = rng.uniform(-6.0, 6.0, dim) * (rng.random() < 0.5)
    return PiecewiseConstantProfile((lo + shift) * scale, (hi + shift) * scale,
                                    rng.normal(size=k))


@settings(max_examples=400, deadline=None)
@given(profile=_profiles(), linf=st.booleans())
def test_piece_table_matches_the_per_kind_references(profile, linf):
    metric = (ml.euclidean_linf if linf else ml.euclidean_l2)(profile.dim)
    assert support_radii(profile, metric) == _reference_support_radii(profile, metric)
    lo, hi, breaks = _reference_support_and_breakpoints(profile)
    assert np.array_equal(profile.support_lo, lo) and np.array_equal(profile.support_hi, hi)
    if breaks is None:
        with pytest.raises(RejectedInputError, match="requires a 1-d profile"):
            profile.breakpoints_1d()
    else:
        assert np.array_equal(profile.breakpoints_1d(), breaks)


# ---------------------------------------------------------------------------
# The edge-grid lookup against the mask loop it replaced
# ---------------------------------------------------------------------------

@st.composite
def _disjoint_box_profiles(draw):
    """1 to 8 disjoint boxes in dims 1 to 3, each a block of a few coordinates per
    axis, so that many touch along an edge or a face; zero and -0.0 among the
    values, and a drawn box that overlaps an earlier one is left out."""
    dim = draw(st.integers(1, 3))
    axes = [np.sort(draw(hnp.arrays(float, draw(st.integers(2, 6)), unique=True,
                                    elements=st.floats(-1e3, 1e3))))
            for _ in range(dim)]
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        block = [sorted(draw(st.lists(st.integers(0, a.size - 1), min_size=2, max_size=2,
                                      unique=True))) for a in axes]
        if not any(all(max(p[0], q[0]) < min(p[1], q[1]) for p, q in zip(block, other))
                   for other in blocks):
            blocks.append(block)
    lo = np.array([[a[i] for a, (i, _) in zip(axes, b)] for b in blocks])
    hi = np.array([[a[j] for a, (_, j) in zip(axes, b)] for b in blocks])
    values = draw(st.lists(st.floats() | st.sampled_from([0.0, -0.0]),
                           min_size=len(blocks), max_size=len(blocks)))
    return PiecewiseConstantProfile(lo, hi, np.array(values))


_RING = PiecewiseConstantProfile(  # anisotropic_wavelet's psi-hat
    np.array([[-1.0, 0.5], [-1.0, -1.0], [-1.0, -0.5], [0.5, -0.5]]),
    np.array([[1.0, 1.0], [1.0, -0.5], [-0.5, 0.5], [1.0, 0.5]]), np.ones(4))


@settings(max_examples=300, deadline=None)
@given(profile=_disjoint_box_profiles(), coords=st.lists(st.floats(), max_size=24))
@example(profile=_RING, coords=[0.0, -0.0, 0.5, 0.4999999999999999, 1.0, -1.0])
@example(profile=PiecewiseConstantProfile(np.array([[-1.0], [-0.0], [0.5]]),
                                          np.array([[-0.0], [0.5], [2.0]]),
                                          np.array([3.0, -0.0, -2.5])), coords=[])
@example(profile=PiecewiseConstantProfile(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, -0.0]]),
                                          np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 0.5]]),
                                          np.array([-0.0, 7.0])), coords=[1.0, 0.5, -0.0])
def test_grid_lookup_is_the_mask_loop(profile, coords):
    # every point whose coordinates are each a box end, one ulp below one, a
    # signed zero, NaN or +-inf, and the drawn ones: the lookup copies a value
    # or the +0.0 padded on, sign of zero and NaN payload included
    off = [0.0, -0.0, math.nan, math.inf, -math.inf]
    ends = [np.unique(e) for e in np.concatenate([profile.boxes_lo, profile.boxes_hi]).T]
    pools = [np.concatenate([e, np.nextafter(e, -np.inf), off]) for e in ends]
    grid = np.stack(np.meshgrid(*pools, indexing="ij"), axis=-1).reshape(-1, profile.dim)
    drawn = np.reshape(coords[:len(coords) // profile.dim * profile.dim], (-1, profile.dim))
    pts = np.concatenate([grid, drawn])
    assert profile.evaluate(pts).tobytes() == masked(profile).evaluate(pts).tobytes()


def test_over_cap_grid_is_refused_before_its_table_is_built():
    # 257 boxes on the diagonal of the cube, each at its own coordinates: 514
    # edges a side make 514^3 cells of 8 bytes, past the 2^30-byte cap, while
    # the overlap check needs 257^2 pairs only
    lo = np.repeat(2.0 * np.arange(257.0)[:, None], 3, axis=1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="profile grid cells: 135796744 need"):
            PiecewiseConstantProfile(lo, lo + 1.0, np.ones(257))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 24
