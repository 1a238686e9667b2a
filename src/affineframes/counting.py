"""Exact lattice-point counts in deformed balls and the two-sided bounds.

Counts use open balls with strict membership; inputs within a 1e-12 band of
the boundary are excluded deterministically and counted in `boundary_hits`.
Counts run along lattice lines, each of which meets the convex deformed ball in
one interval: only a thin band at its ends takes the exact membership test.
The scanner checks whether counts stay dominated by 1 + C * jacobian across
the strongly distorting part of a family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automorphisms import EXPLOSION, Automorphism, AutomorphismFamily
from .errors import DegenerateDomainError, RejectedInputError, ResourceLimitError, check_bytes
from .metric_lattice import (DEFAULT_MC_SAMPLES, DEFAULT_MC_SEED, EUCLIDEAN_L2, GABOR_PRODUCT,
                             Lattice, MetricSpace, euclidean_linf, overlap_measure)

BOUNDARY_GUARD = 1e-12
LINE_BAND = 1e-10  # band half-width in y per unit of |A^-1| |B| |m|, against rounding
WHOLE_BOX = 2048  # below about this many box points the line step costs more than it saves
BAND_CHUNK = 1 << 16  # band points given the exact test at once
LINE_CHUNK = 1 << 14  # lattice lines whose intervals are built at once
_LINE_IDENTITY = Automorphism([[1.0]])  # the Gabor count's map on its k = 0 line


@dataclass(frozen=True)
class CountResult:
    count: int
    boundary_hits: int
    upper_bound: float | None = None
    upper_bound_stderr: float | None = None
    lower_bound_at_2r: float | None = None
    lower_bound_stderr: float | None = None


def _line_band(lattice: Lattice, auto: Automorphism, r: float, metric: MetricSpace,
               m_lo: np.ndarray, m_hi: np.ndarray):
    """(inner, band) pairs along the lines of the integer box's longest axis k:
    per chunk of LINE_CHUNK lines, built only when reached, the count of its
    points certified inside, then the integer coordinates of its band left
    over, BAND_CHUNK points at a time (with inner 0 after the first)."""
    reach = np.maximum(-m_lo, m_hi).astype(float)
    if reach.max() >= 2.0 ** 53:
        raise ResourceLimitError("lattice box passes 2**53, where float coordinates are inexact")
    extent = m_hi - m_lo + 1
    k = int(extent.argmax())
    extent[k] = 1
    lines = math.prod(extent.tolist())
    # counts every line up front, before the first chunk is built
    check_bytes(lines, 8 * (6 * lattice.dim + 16), "lattice lines")
    G = auto.inv_matrix @ lattice.basis
    q = G[:, k]
    scale = (np.abs(auto.inv_matrix) @ (np.abs(lattice.basis) @ reach)).max()
    delta = BOUNDARY_GUARD + LINE_BAND * scale
    rad = np.array([[r + delta], [max(r - delta, 0.0)]])  # outer and inner radius
    n_band = 0
    for l0 in range(0, lines, LINE_CHUNK):
        starts = np.array(np.unravel_index(np.arange(l0, min(l0 + LINE_CHUNK, lines)),
                                           extent), dtype=float).T + m_lo
        starts[:, k] = 0.0
        p = starts @ G.T
        with np.errstate(divide="ignore", invalid="ignore"):
            if metric.kind == EUCLIDEAN_L2:  # between the roots; none reads half = -inf
                t0 = (p @ q) / -(q @ q)
                perp = p + t0[:, None] * q
                half = np.fmax(np.sqrt((rad * rad - (perp * perp).sum(axis=1)) / (q @ q)),
                               -np.inf)
                lo, hi = t0 - half, t0 + half
            else:  # d slabs; one with q_i = 0 holds every t when |p_i| < rad, else none
                free, q1 = q == 0.0, np.where(q == 0.0, 1.0, q)
                t1, t2 = (-rad[..., None] - p) / q1, (rad[..., None] - p) / q1
                every = np.where(np.abs(p) < rad[..., None], np.inf, -np.inf)
                lo = np.where(free, -every, np.minimum(t1, t2)).max(axis=-1)
                hi = np.where(free, every, np.maximum(t1, t2)).min(axis=-1)
        # outer ends widen by one and clip to the box; inner ends shrink by one and
        # clip into the outer range, so every range reads [a, b] with b >= a - 1
        lo, hi = np.ceil(lo) - [[1.0], [-1.0]], np.floor(hi) + [[1.0], [-1.0]]
        o_lo = np.clip(lo[0], m_lo[k], m_hi[k] + 1)
        o_hi = np.clip(hi[0], o_lo - 1, m_hi[k])
        i_lo = np.clip(lo[1], o_lo, o_hi + 1)
        i_hi = np.clip(hi[1], i_lo - 1, o_hi)
        bounds = np.array([o_lo, o_hi, i_lo, i_hi])
        if np.isnan(bounds).any():  # the clips leave no other non-finite value
            line = starts[np.isnan(bounds).any(axis=0)][0].tolist()
            raise RejectedInputError(f"lattice line through {line} has no finite interval")
        o_lo, o_hi, i_lo, i_hi = bounds.astype(np.int64)
        # per line, the left band [o_lo, i_lo - 1], then the right band [i_hi + 1, o_hi];
        # band point n sits in the band `seg` with ends[seg - 1] <= n < ends[seg]
        ends = np.array([i_lo - o_lo, o_hi - i_hi]).T.ravel().cumsum()
        n_band += int(ends[-1])
        check_bytes(n_band, 8 * (3 * lattice.dim + 4), "band points")
        first = np.array([o_lo, i_hi + 1]).T.ravel() - np.concatenate([[0], ends[:-1]])
        inner = int((i_hi - i_lo).sum()) + starts.shape[0]
        # a chunk with no band still yields once, to hand over its inner count
        for n0 in range(0, max(int(ends[-1]), 1), BAND_CHUNK):
            n = np.arange(n0, min(n0 + BAND_CHUNK, int(ends[-1])))
            seg = np.searchsorted(ends, n, side="right")
            m = starts[seg // 2]
            m[:, k] = first[seg] + n
            yield (inner if n0 == 0 else 0), m


def enumerate_points(lattice: Lattice, auto: Automorphism, r: float,
                     metric: MetricSpace) -> CountResult:
    """Exact count of lattice points inside the deformed open ball.

    With y = G m, G = A^-1 B, each line m = (prefix, t) along the longest axis
    of the integer box meets the ball in one interval of t.  Its integers at
    r - delta, less one at each end, count by arithmetic; the band out to the
    interval at r + delta, plus one, takes the exact test in batches.  So
    counts and boundary hits are those of testing every point of the box,
    which a box of at most WHOLE_BOX points does."""
    if r <= 0:
        raise RejectedInputError("radius must be positive")
    if metric.kind == GABOR_PRODUCT:
        # dual shifts fix the k = 0 slice, where the annihilator lives and |(xi, 0)| = |xi|
        auto, metric = _LINE_IDENTITY, euclidean_linf(1)
    elif lattice.dim > 4:
        raise RejectedInputError("exact enumeration supports dim <= 4")
    m_lo, m_hi = lattice.integer_box(*auto.box_image(*metric.ball_box(r)))
    extent = np.maximum(m_hi - m_lo + 1, 0)
    box = math.prod(extent.tolist())
    if box <= WHOLE_BOX:
        band = [(0, np.indices(extent, dtype=float).reshape(lattice.dim, box).T + m_lo)]
    else:
        band = _line_band(lattice, auto, r, metric, m_lo, m_hi)
    # the exact test: dist < r, with |dist - r| <= BOUNDARY_GUARD a boundary hit
    inside = hits = 0
    for inner, m in band:
        gap = metric.norm(m @ lattice.basis.T @ auto.inv_matrix.T) - r
        inside += inner + int(np.count_nonzero(gap < -BOUNDARY_GUARD))
        hits += int(np.count_nonzero(np.abs(gap) <= BOUNDARY_GUARD))
    return CountResult(inside, hits)


def counting_bounds(lattice: Lattice, auto: Automorphism, r: float,
                    metric: MetricSpace, n_samples: int = DEFAULT_MC_SAMPLES,
                    seed: int = DEFAULT_MC_SEED) -> CountResult:
    """Count plus the deformed-ball measure bounds.

    upper_bound dominates the count at radius r; lower_bound_at_2r is
    dominated by the count at radius 2r.  Overlap measures carry Monte Carlo
    error bars, the deformed-ball measures are exact (jacobian times ball
    measure).
    """
    base = enumerate_points(lattice, auto, r, metric)
    delta = auto.jacobian
    vol_r = delta * metric.ball_measure(r)
    vol_2r = delta * metric.ball_measure(2.0 * r)
    omega_r = overlap_measure(lattice, metric, auto, r, n_samples=n_samples, seed=seed)
    if omega_r.value <= 0 or (omega_r.stderr > 0 and omega_r.value < 3.0 * omega_r.stderr):
        raise DegenerateDomainError(
            f"overlap measure at r={r} indistinguishable from zero "
            f"({omega_r.value} +/- {omega_r.stderr})")
    upper = vol_2r / omega_r.value
    upper_err = vol_2r * omega_r.stderr / omega_r.value ** 2
    lower = vol_r / omega_r.value
    lower_err = vol_r * omega_r.stderr / omega_r.value ** 2
    return CountResult(base.count, base.boundary_hits, upper, upper_err, lower, lower_err)


# ---------------------------------------------------------------------------
# Scan of the jacobian-domination bound over a family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyXReport:
    """Scan verdict and its columns: the scanned member rows in distortion
    order, their counts and their ratios (count - 1) / jacobian."""

    verdict: str  # "holds" | "violated"
    rows: np.ndarray
    counts: np.ndarray
    ratios: np.ndarray
    constant: float | None = None
    witness: object | None = None
    witness_count: int | None = None
    attempted_bound: float | None = None
    note: str = "scan verdict certifies the probed truncation only"


def property_x_scan(family: AutomorphismFamily, lattice: Lattice, r: float, M: float,
                    cap: float) -> PropertyXReport:
    """Scan counts over {h : M < L(h) <= cap} and test count <= 1 + C * jacobian.

    Members above `cap` stay out of the scan, which certifies that probed
    sub-truncation only.  C is estimated as the largest observed
    (count - 1) / jacobian.  The verdict flips to violated when the ratio
    trace keeps growing through the last quartile of the distortion-ordered
    scan and gains at least the `EXPLOSION` factor there; a finite scan can
    only report such evidence, never refute the bound.
    """
    t = family.members
    if not np.any(t.upper <= cap):
        raise RejectedInputError("restriction removed every parameter")
    if r <= 0 or M <= 0:
        raise RejectedInputError("radius and distortion cutoff must be positive")
    rows = family.above(M)
    rows = rows[t.upper[rows] <= cap]
    if not rows.size:
        raise RejectedInputError("no family parameters exceed the distortion cutoff")
    counts = np.array([enumerate_points(lattice, Automorphism(t.matrices[i], t.jacobians[i]),
                                        r, family.metric).count for i in rows.tolist()])
    ratios = (counts - 1) / t.jacobians[rows]
    constant = float(np.max(ratios))

    q_start = max(0, rows.size - max(2, rows.size // 4))
    quart = ratios[q_start:]
    growing = bool(np.all(np.diff(quart) >= 0)) and quart[-1] > quart[0]
    exploding = quart[-1] >= EXPLOSION * max(quart[0], 1e-300)
    if growing and exploding:
        attempted = 1.0 + float(quart[0]) * t.jacobians[rows[-1]]
        return PropertyXReport("violated", rows, counts, ratios,
                               witness=family.params[rows[-1]], witness_count=int(counts[-1]),
                               attempted_bound=attempted)
    return PropertyXReport("holds", rows, counts, ratios, constant=constant)
