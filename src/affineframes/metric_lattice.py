"""Frequency-group geometry: invariant metrics, balls, lattices, periodization.

Concrete groups are Euclidean spaces with full-rank lattices and the
frequency side of the Gabor group (a line crossed with integer modulation
indices).  All fundamental domains are the half-open basis parallelepiped,
which makes every reduction deterministic and reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import quadrature
from .errors import RejectedInputError, ResourceLimitError, check_bytes
from .profiles import FrequencyProfile

DEFAULT_MC_SAMPLES = 1_000_000
DEFAULT_MC_SEED = 20240823
_MC_BLOCK = 1 << 17
INTEGER_BOX_MARGIN = 1e-9  # widens the integer box against rounding of the inverse basis

EUCLIDEAN_L2 = "euclidean_l2"
EUCLIDEAN_LINF = "euclidean_linf"
GABOR_PRODUCT = "gabor_product"


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def linear_box(matrix: np.ndarray, center: np.ndarray,
               half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval-arithmetic box (image center, image half-widths) containing the
    image of the box center +/- half; `center` is one point or one per row."""
    return center @ matrix.T, half @ np.abs(matrix).T


@dataclass(frozen=True)
class MetricSpace:
    """Translation-invariant metric on the frequency group.

    gabor_product points are (xi, k) with k an integer modulation index;
    the distance there is |xi - eta| + |k - l|.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN_L2, EUCLIDEAN_LINF, GABOR_PRODUCT):
            raise RejectedInputError(f"unknown metric kind {self.kind!r}")
        if self.kind == GABOR_PRODUCT and self.dim != 2:
            raise RejectedInputError("gabor_product points are (xi, k) pairs")
        if self.dim < 1:
            raise RejectedInputError("dimension must be positive")

    def norm(self, vec: np.ndarray) -> np.ndarray:
        """Norm over the last axis, accumulated column by column in place.

        The L2 squares are added left to right, which is numpy's own last-axis
        sum for up to 7 columns; from 8 columns numpy sums pairwise and the
        two differ in the last bit."""
        v = np.atleast_2d(vec)
        if self.kind == EUCLIDEAN_L2:
            out = v[..., 0] * v[..., 0]
            for i in range(1, v.shape[-1]):
                out += v[..., i] * v[..., i]
            np.sqrt(out, out=out)
        elif self.kind == EUCLIDEAN_LINF:
            out = np.abs(v[..., 0])
            for i in range(1, v.shape[-1]):
                np.maximum(out, np.abs(v[..., i]), out=out)
        else:
            out = np.abs(v[..., 0]) + np.abs(v[..., 1])
        return out if np.ndim(vec) > 1 else float(out[0])

    def ball_measure(self, r: float) -> float:
        """Haar measure of the open ball B(e, r)."""
        if r <= 0:
            raise RejectedInputError("ball radius must be positive")
        if self.kind == EUCLIDEAN_L2:
            return unit_ball_volume(self.dim) * r ** self.dim
        if self.kind == EUCLIDEAN_LINF:
            return (2.0 * r) ** self.dim
        # Lebesgue on the line times counting measure on the integer factor.
        kmax = math.ceil(r) - 1
        return float(sum(2.0 * (r - abs(k)) for k in range(-kmax, kmax + 1)))

    def ball_box(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of B(e, r)."""
        if self.kind == GABOR_PRODUCT:
            kmax = max(math.ceil(r) - 1, 0)
            return np.array([-r, -float(kmax)]), np.array([r, float(kmax)])
        return np.full(self.dim, -r), np.full(self.dim, r)


def euclidean_l2(dim: int) -> MetricSpace:
    return MetricSpace(EUCLIDEAN_L2, dim)


def euclidean_linf(dim: int) -> MetricSpace:
    return MetricSpace(EUCLIDEAN_LINF, dim)


def gabor_product() -> MetricSpace:
    return MetricSpace(GABOR_PRODUCT, 2)


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice basis . Z^dim with the half-open basis parallelepiped
    as fundamental domain.  For the Gabor group this is the base-line lattice;
    the annihilator sits on the k = 0 slice."""

    basis: np.ndarray
    inv_basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if b.shape[0] != b.shape[1]:
            raise RejectedInputError("lattice basis must be square")
        det = np.linalg.det(b)
        if abs(det) < 1e-14:
            raise RejectedInputError("lattice basis is singular")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "inv_basis", np.linalg.inv(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def covolume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    def fundamental_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the fundamental parallelepiped."""
        unit_half = np.full(self.dim, 0.5)
        center, half = linear_box(self.basis, unit_half, unit_half)
        return center - half, center + half

    def sample_fundamental(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random((n, self.dim)) @ self.basis.T

    def integer_box(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Integer-coordinate bounding box of {m : basis.m in [lo, hi]}."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        m_center, m_half = linear_box(self.inv_basis, 0.5 * (lo + hi), 0.5 * (hi - lo))
        m_lo = np.ceil(m_center - m_half - INTEGER_BOX_MARGIN)
        m_hi = np.floor(m_center + m_half + INTEGER_BOX_MARGIN)
        # int64 casts of larger or non-finite bounds wrap to garbage boxes
        if not np.all(np.abs([m_lo, m_hi]) < 2.0 ** 62):
            raise ResourceLimitError("lattice box bounds exceed the int64 range")
        return m_lo.astype(np.int64), m_hi.astype(np.int64)

    def points_in_box(self, lo, hi, cap: int = 100_000_000) -> np.ndarray:
        """All lattice points whose integer box intersects [lo, hi].

        Over-approximates: callers apply their own exact membership test.
        """
        m_lo, m_hi = self.integer_box(lo, hi)
        counts = np.maximum(m_hi - m_lo + 1, 0)
        total = int(np.prod(counts.astype(np.float64)))
        if np.any(counts <= 0):
            return np.empty((0, self.dim))
        if total > cap:
            raise ResourceLimitError(f"candidate box holds {total} lattice points (cap {cap})")
        # the stacked integers, their float copy and the mapped points; the
        # meshgrid is views of the axes
        check_bytes(total, 3 * 8 * self.dim, "candidate box lattice points")
        axes = [np.arange(a, b + 1) for a, b in zip(m_lo, m_hi)]
        mesh = np.meshgrid(*axes, indexing="ij", copy=False)
        m = np.stack(mesh, axis=-1).reshape(total, self.dim).astype(float)
        return m @ self.basis.T


def integer_lattice(dim: int) -> Lattice:
    return Lattice(np.eye(dim))


# ---------------------------------------------------------------------------
# Periodization and the unfolding identity
# ---------------------------------------------------------------------------

def _contributing_shifts(profile: FrequencyProfile, lattice: Lattice,
                         region_lo: np.ndarray, region_hi: np.ndarray) -> np.ndarray:
    """Lattice points lam with supp(profile) intersecting region + lam."""
    lo = profile.support_lo - region_hi
    hi = profile.support_hi - region_lo
    return lattice.points_in_box(lo, hi)


def periodize(profile: FrequencyProfile, lattice: Lattice):
    """xi -> sum_lam profile(xi + lam), with the shift sum truncated exactly
    by the declared support box."""
    if profile.dim != lattice.dim:
        raise RejectedInputError("profile and lattice dimensions disagree")

    def evaluate(points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lam = _contributing_shifts(profile, lattice, pts.min(axis=0), pts.max(axis=0))
        out = np.zeros(pts.shape[0])
        for shift in lam:
            out += profile.evaluate(pts + shift)
        return out

    return evaluate


def _integral_over_support(profile: FrequencyProfile, level: int) -> float:
    """Composite Gauss-Legendre integral of the profile over its own pieces."""
    total = 0.0
    for lo, hi in zip(*profile.pieces):
        total += quadrature.integrate_box(profile.evaluate, lo, hi, cells_per_axis=2 ** level)
    return total


def _clip_polygon_halfplane(poly: list[np.ndarray], normal: np.ndarray,
                            offset: float) -> list[np.ndarray]:
    """Keep the part of the polygon with normal . x <= offset."""
    out: list[np.ndarray] = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        c_in = normal @ cur <= offset + 1e-14
        n_in = normal @ nxt <= offset + 1e-14
        if c_in:
            out.append(cur)
        if c_in != n_in:
            t = (offset - normal @ cur) / (normal @ (nxt - cur))
            out.append(cur + t * (nxt - cur))
    return out


def _polygon_area(poly: list[np.ndarray]) -> float:
    if len(poly) < 3:
        return 0.0
    xs = np.array([p[0] for p in poly])
    ys = np.array([p[1] for p in poly])
    return 0.5 * abs(float(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1))))


def _box_parallelogram_area(box_lo, box_hi, para_origin, basis) -> float:
    """Area of an axis box intersected with origin + basis.[0,1)^2 (exact)."""
    poly = [np.array([box_lo[0], box_lo[1]]), np.array([box_hi[0], box_lo[1]]),
            np.array([box_hi[0], box_hi[1]]), np.array([box_lo[0], box_hi[1]])]
    inv = np.linalg.inv(basis)
    for row, ineq in ((inv[0], (0.0, 1.0)), (inv[1], (0.0, 1.0))):
        lo_off, hi_off = ineq
        base = row @ para_origin
        poly = _clip_polygon_halfplane(poly, row, hi_off + base)
        if not poly:
            return 0.0
        poly = _clip_polygon_halfplane(poly, -row, -(lo_off + base))
        if not poly:
            return 0.0
    return _polygon_area(poly)


def _integral_of_periodization(profile: FrequencyProfile, lattice: Lattice,
                               level: int) -> float:
    """Integral of the periodized profile over the fundamental domain."""
    omega_lo, omega_hi = lattice.fundamental_box()
    shifts = _contributing_shifts(profile, lattice, omega_lo, omega_hi)

    if lattice.dim == 1:
        per = periodize(profile, lattice)
        edges = profile.breakpoints_1d()
        cuts = (edges[None, :] - shifts[:, :1]).ravel()
        lo, hi = float(omega_lo[0]), float(omega_hi[0])
        cuts = sorted({float(c) for c in cuts if lo < c < hi})
        segment_edges = [lo, *cuts, hi]
        total = 0.0
        for a, c in zip(segment_edges[:-1], segment_edges[1:]):
            total += quadrature.integrate_box(per, [a], [c], cells_per_axis=2 ** level)
        return total

    if lattice.dim == 2:
        # Exact: clip each constant piece (2-d profiles are piecewise constant)
        # against every translated domain copy (the domain translated by shift
        # intersects the support exactly when shift lies in the window above).
        total = 0.0
        for lo, hi, v in zip(*profile.pieces, profile.values):
            for shift in shifts:
                area = _box_parallelogram_area(lo, hi, shift, lattice.basis)
                total += v * area
        return total

    # General fallback: composite rule on the parallelepiped in lattice coordinates.
    per = periodize(profile, lattice)
    jac = lattice.covolume

    def integrand(u: np.ndarray) -> np.ndarray:
        return per(u @ lattice.basis.T) * jac

    return quadrature.integrate_box(integrand, np.zeros(lattice.dim),
                                    np.ones(lattice.dim), cells_per_axis=2 ** level)


def weil_residual(profile: FrequencyProfile, lattice: Lattice, level: int = 5) -> float:
    """|integral of the profile - integral of its periodization over the
    fundamental domain|, both sides by composite Gauss-Legendre.

    The periodized side splits at profile breakpoints (1-d) or clips pieces
    against translated domain copies (2-d piecewise constant), so the residual
    measures the unfolding identity itself; in other cases it uses plain cell
    subdivision, which converges with `level`.
    """
    if profile.dim != lattice.dim:
        raise RejectedInputError("profile and lattice dimensions disagree")
    lhs = _integral_over_support(profile, level)
    return abs(lhs - _integral_of_periodization(profile, lattice, level))


# ---------------------------------------------------------------------------
# Overlap measure of the deformed-ball neighborhood inside the domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapEstimate:
    value: float
    stderr: float


_SLAB_BUCKETS = 1 << 15  # int16 bucket indices, so a stable argsort is a radix sort
_SORT_PASSES = 4.0  # about what one bucket sort and its gather cost, in test passes


@dataclass(frozen=True)
class _Slab:
    """Bucketed coordinate along one axis, and each shift's bucket range.

    A row xi can pass a shift's test only if xi[axis] lies within `half` of
    shift[axis] + centre: the test's preimage lies in the ball's box, whose
    image box has half-width img_half[axis] about img_center[axis].  `half`
    widens that outward by a bound on the rounding of the test (the subtract,
    the matmul with the computed inverse, the norm), which grows with the
    dimension and with |A|_inf |A^-1|_inf; one bucket either side absorbs the
    rounding of the bucket index itself."""

    axis: int
    lo: float
    scale: float
    centre: float
    half: float

    @staticmethod
    def worth_sorting(matrix, inv, img_center, img_half, omega_lo, omega_hi,
                      n_shifts: int) -> _Slab | None:
        """The slab along the most selective axis, if the later shifts' slabs
        would save at least _SORT_PASSES full passes over the block."""
        span = omega_hi - omega_lo
        axis = int(np.argmin(img_half / span))
        # python floats: an out-of-range input gives inf or nan here, not a warning
        kappa = float(np.abs(matrix).sum(axis=1).max()) * float(np.abs(inv).sum(axis=1).max())
        reach = float(np.abs(img_center).max()) + float(img_half.max())
        half = float(img_half[axis]) + 32.0 * (matrix.shape[0] + 2) * 2.0 ** -52 * kappa * reach
        share = min(2.0 * half / float(span[axis]) + 3.0 / _SLAB_BUCKETS, 1.0)
        if not (n_shifts - 1) * (1.0 - share) >= _SORT_PASSES:
            return None
        return _Slab(axis, float(omega_lo[axis]), _SLAB_BUCKETS / float(span[axis]),
                     float(img_center[axis]), half)

    def buckets(self, x):
        return np.clip(np.floor((x - self.lo) * self.scale), 0,
                       _SLAB_BUCKETS - 1).astype(np.int16)

    def rows(self, keys: np.ndarray, shift: np.ndarray) -> tuple[int, int]:
        """The slice of the sorted `keys` whose rows the shift's test can hit."""
        mid = float(shift[self.axis]) + self.centre
        first = max(int(self.buckets(mid - self.half)) - 1, 0)
        last = min(int(self.buckets(mid + self.half)) + 1, _SLAB_BUCKETS - 1)
        return (int(np.searchsorted(keys, first, "left")),
                int(np.searchsorted(keys, last, "right")))


def _blocked_rngs(seed: int, n_samples: int) -> Iterator[tuple[int, np.random.Generator]]:
    for block_index, offset in enumerate(range(0, n_samples, _MC_BLOCK)):
        size = min(_MC_BLOCK, n_samples - offset)
        yield size, np.random.default_rng(np.random.SeedSequence((seed, block_index)))


def overlap_measure(lattice: Lattice, metric: MetricSpace, auto=None, r: float = 0.5,
                    n_samples: int = DEFAULT_MC_SAMPLES,
                    seed: int = DEFAULT_MC_SEED) -> OverlapEstimate:
    """Monte Carlo measure of the part of the fundamental domain covered by
    lattice translates of the deformed ball.

    The sample stream is split into fixed-size blocks with per-block subseeds,
    so the estimate does not depend on how blocks are scheduled.
    """
    if r <= 0:
        raise RejectedInputError("radius must be positive")
    if n_samples < 1:
        raise RejectedInputError("Monte Carlo sample count must be positive")

    if metric.kind == GABOR_PRODUCT:
        # The annihilator sits on the k = 0 slice and the dual shifts fix that
        # slice, so the measure splits over integer slices of the ball.
        base_metric = euclidean_l2(1)
        kmax = math.ceil(r) - 1
        value = 0.0
        var = 0.0
        for k in range(-kmax, kmax + 1):
            est = overlap_measure(lattice, base_metric, None, r - abs(k),
                                  n_samples=n_samples, seed=seed + k)
            value += est.value
            var += est.stderr ** 2
        return OverlapEstimate(value, math.sqrt(var))

    matrix, inv = ((np.eye(metric.dim),) * 2 if auto is None
                   else (auto.matrix, auto.inv_matrix))
    ball_lo, ball_hi = metric.ball_box(r)
    img_center, img_half = linear_box(matrix, 0.5 * (ball_lo + ball_hi),
                                      0.5 * (ball_hi - ball_lo))
    omega_lo, omega_hi = lattice.fundamental_box()
    shifts = lattice.points_in_box(omega_lo - (img_center + img_half),
                                   omega_hi - (img_center - img_half), cap=2_000_000)
    shifts = _prune_shifts(shifts, inv, metric, r, omega_lo, omega_hi)
    # central shifts first: coverage saturates sooner, the scan loop exits
    # early; the L-inf key has no squares, so it cannot overflow
    shifts = shifts[np.argsort(np.abs(shifts - 0.5 * (omega_lo + omega_hi)).max(axis=1))]
    slab = _Slab.worth_sorting(matrix, inv, img_center, img_half, omega_lo, omega_hi,
                               shifts.shape[0])

    hits = 0
    total = 0
    for size, rng in _blocked_rngs(seed, n_samples):
        # column-major blocks keep each coordinate contiguous for the
        # broadcast subtract and the column-wise norm; the copy is exact.  One
        # allocation holds all three: freeing it lifts glibc's heap-trim
        # threshold above a call's working set, so later calls reuse the pages
        # (three buffers re-faulted about 1,200 pages per sandwich item)
        xi, diff, pre = (b.T for b in np.empty((3, lattice.dim, size)))
        xi[...] = lattice.sample_fundamental(rng, size)
        hits += _covered_count(xi, diff, pre, shifts, inv, metric, r, slab)
        total += size
    p = hits / total
    value = lattice.covolume * p
    stderr = lattice.covolume * math.sqrt(max(p * (1.0 - p), 0.0) / total)
    return OverlapEstimate(value, stderr)


def _covered_count(xi, diff, pre, shifts, inv, metric: MetricSpace, r: float,
                   slab: _Slab | None) -> int:
    """Rows of the block `xi` that some shift covers, by the test
    `metric.norm((xi - shift) @ inv.T) < r` on each (row, shift) pair that can
    be a hit; `diff` and `pre` are scratch buffers of the block's shape.

    The test is row by row, so skipping a pair changes no verdict.  Covered
    rows leave the active prefix of the block once only a quarter of it is
    uncovered, so the prefix shrinks geometrically.  After the first shift a
    `slab` sorts the active rows by bucket along its axis, and each later shift
    tests only the rows of its own bucket range.  A one-row matmul takes
    numpy's matrix-vector path, whose last bit can differ from the row's in a
    full block, so a tested slice and the active prefix keep two rows."""
    active = uncovered = xi.shape[0]
    covered = np.zeros(active, dtype=bool)
    keys = None
    for i, shift in enumerate(shifts):
        lo, hi = (0, active) if keys is None else slab.rows(keys, shift)
        if hi - lo == 1 and active > 1:
            lo, hi = (lo, hi + 1) if hi < active else (lo - 1, hi)
        if hi > lo:
            rows = hi - lo
            np.subtract(xi[lo:hi], shift, out=diff[:rows])
            np.matmul(diff[:rows], inv.T, out=pre[:rows])
            tested = covered[lo:hi]
            before = np.count_nonzero(tested)
            tested |= metric.norm(pre[:rows]) < r
            uncovered -= np.count_nonzero(tested) - before
        if uncovered == 0:
            break
        if (i == 0 and slab is not None) or 4 * uncovered <= active:
            keep = ~covered[:active]
            if uncovered == 1:
                keep[np.argmax(covered[:active])] = True
            kept = np.flatnonzero(keep)
            if keys is not None:
                keys = keys[kept]
            elif slab is not None:
                keys = slab.buckets(xi[kept, slab.axis])
                order = np.argsort(keys, kind="stable")
                kept, keys = kept[order], keys[order]
            active = kept.size
            xi[:active] = xi[kept]
            covered[:active] = covered[kept]
    return int(xi.shape[0] - uncovered)


def _prune_shifts(shifts: np.ndarray, inv: np.ndarray, metric: MetricSpace, r: float,
                  omega_lo: np.ndarray, omega_hi: np.ndarray) -> np.ndarray:
    """Drop shifts whose translated deformed ball provably misses the domain box.

    The relative margin on r absorbs the rounding of the batched interval
    bound, so it can only keep more shifts than exact arithmetic would.  An
    L2 test whose kept preimages would square past the float range is
    refused."""
    center = 0.5 * (omega_lo + omega_hi)
    pre_center, pre_half = linear_box(inv, center - shifts, 0.5 * (omega_hi - omega_lo))
    lower = np.maximum(np.abs(pre_center) - pre_half, 0.0)
    keep = metric.norm(lower) < r * (1.0 + 1e-12)
    if metric.kind == EUCLIDEAN_L2 and keep.any():
        # the test squares each preimage coordinate: python floats overflow
        # to inf here without a warning, and inf is refused
        reach = float(np.abs(pre_center[keep]).max()) + float(pre_half.max())
        if not metric.dim * reach * reach < sys.float_info.max:
            raise RejectedInputError(
                f"overlap measure: preimages up to {reach:.3g} have squares that "
                "overflow a float")
    return shifts[keep]
