"""Exact lattice-point counts in deformed balls and the two-sided bounds.

Counts use open balls with strict membership; inputs within a 1e-12 band of
the boundary are excluded deterministically and counted in `boundary_hits`.
The scanner checks whether counts stay dominated by 1 + C * jacobian across
the strongly distorting part of a family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automorphisms import EXPLOSION, Automorphism, AutomorphismFamily
from .errors import DegenerateDomainError, RejectedInputError
from .metric_lattice import (DEFAULT_MC_SAMPLES, DEFAULT_MC_SEED, GABOR_PRODUCT,
                             Lattice, MetricSpace, overlap_measure)

BOUNDARY_GUARD = 1e-12
POINT_CAP = 512


@dataclass(frozen=True)
class CountResult:
    count: int
    points: np.ndarray = field(repr=False)
    overflow: bool
    boundary_hits: int
    r: float
    upper_bound: float | None = None
    upper_bound_stderr: float | None = None
    lower_bound_at_2r: float | None = None
    lower_bound_stderr: float | None = None
    bound_inputs: dict = field(default_factory=dict)


def _candidate_points(lattice: Lattice, auto: Automorphism, r: float,
                      metric: MetricSpace) -> np.ndarray:
    ball_lo, ball_hi = metric.ball_box(r)
    if metric.kind == GABOR_PRODUCT:
        # the annihilator lives on the k = 0 slice, which dual shifts fix
        base = lattice.points_in_box(ball_lo[:1], ball_hi[:1])
        return np.concatenate([base, np.zeros((base.shape[0], 1))], axis=1)
    return lattice.points_in_box(*auto.box_image(ball_lo, ball_hi))


def enumerate_points(lattice: Lattice, auto: Automorphism, r: float,
                     metric: MetricSpace) -> CountResult:
    """Exact count of lattice points inside the deformed open ball."""
    if r <= 0:
        raise RejectedInputError("radius must be positive")
    if metric.kind != GABOR_PRODUCT and lattice.dim > 4:
        raise RejectedInputError("exact enumeration supports dim <= 4")
    candidates = _candidate_points(lattice, auto, r, metric)
    if candidates.shape[0] == 0:
        dims = 2 if metric.kind == GABOR_PRODUCT else lattice.dim
        return CountResult(0, np.empty((0, dims)), False, 0, r)
    dist = metric.norm(auto.inverse_apply(candidates))
    boundary = np.abs(dist - r) <= BOUNDARY_GUARD
    inside = (dist < r) & ~boundary
    pts = candidates[inside]
    count = int(inside.sum())
    overflow = count > POINT_CAP
    return CountResult(count, pts[:POINT_CAP].copy(), overflow, int(boundary.sum()), r)


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
    delta = auto.jacobian()
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
    inputs = {
        "deformed_ball_r": vol_r,
        "deformed_ball_2r": vol_2r,
        "omega_overlap_r": (omega_r.value, omega_r.stderr),
    }
    return CountResult(base.count, base.points, base.overflow, base.boundary_hits,
                       r, upper, upper_err, lower, lower_err, inputs)


# ---------------------------------------------------------------------------
# Scan of the jacobian-domination bound over a family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    param: object
    upper_constant: float
    jacobian: float
    count: int
    ratio: float


@dataclass(frozen=True)
class PropertyXReport:
    verdict: str  # "holds" | "violated"
    r: float
    M: float
    constant: float | None = None
    witness: object | None = None
    witness_count: int | None = None
    attempted_bound: float | None = None
    rows: tuple[ScanRow, ...] = ()
    note: str = "scan verdict certifies the probed truncation only"


def property_x_scan(family: AutomorphismFamily, lattice: Lattice,
                    metric: MetricSpace, r: float, M: float) -> PropertyXReport:
    """Scan counts over {h : L(h) > M} and test count <= 1 + C * jacobian.

    C is estimated as the largest observed (count - 1) / jacobian.  The
    verdict flips to violated when the ratio trace keeps growing through the
    last quartile of the distortion-ordered scan and gains at least the
    `EXPLOSION` factor there; a finite scan can only report such evidence,
    never refute the bound.
    """
    if r <= 0 or M <= 0:
        raise RejectedInputError("radius and distortion cutoff must be positive")
    rows: list[ScanRow] = []
    for m in family.above(M):
        count = enumerate_points(lattice, m.auto, r, metric).count
        rows.append(ScanRow(m.param, m.upper, m.jacobian, count,
                            (count - 1) / m.jacobian))
    if not rows:
        raise RejectedInputError("no family parameters exceed the distortion cutoff")

    ratios = np.array([row.ratio for row in rows])
    constant = float(np.max(ratios))

    q_start = max(0, len(rows) - max(2, len(rows) // 4))
    quart = ratios[q_start:]
    growing = bool(np.all(np.diff(quart) >= 0)) and quart[-1] > quart[0]
    exploding = quart[-1] >= EXPLOSION * max(quart[0], 1e-300)
    if growing and exploding:
        witness = rows[-1]
        attempted = 1.0 + float(quart[0]) * witness.jacobian
        return PropertyXReport("violated", r, M, constant=None,
                               witness=witness.param, witness_count=witness.count,
                               attempted_bound=attempted, rows=tuple(rows))
    return PropertyXReport("holds", r, M, constant=constant, rows=tuple(rows))


