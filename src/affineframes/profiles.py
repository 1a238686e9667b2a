"""Frequency-side profiles: the mother-wavelet |psi-hat| and Gabor-window data.

Two representations are supported: a finite list of disjoint half-open boxes
with constant values, and a uniformly sampled one-dimensional grid with linear
interpolation.  All supports are bounded by construction, and every box is
half-open ([lo, hi)) so membership at piece boundaries is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RejectedInputError, check_bytes


def _as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if dim == 1:
            pts = pts[:, None]
        elif pts.shape[0] == dim:
            pts = pts[None, :]
        else:
            raise RejectedInputError(f"points of dimension {pts.shape} vs profile dim {dim}")
    if pts.shape[-1] != dim:
        raise RejectedInputError(f"points of dimension {pts.shape[-1]} vs profile dim {dim}")
    return pts


class _PieceTable:
    """What follows from a profile's `pieces`, the (lo, hi) arrays of shape
    (k, dim) of its half-open pieces."""

    @property
    def support_lo(self) -> np.ndarray:
        return self.pieces[0].min(axis=0)

    @property
    def support_hi(self) -> np.ndarray:
        return self.pieces[1].max(axis=0)

    def breakpoints_1d(self) -> np.ndarray:
        if self.dim != 1:
            raise RejectedInputError("breakpoints_1d requires a 1-d profile")
        lo, hi = self.pieces
        return np.unique(np.concatenate([lo[:, 0], hi[:, 0]]))


@dataclass(frozen=True)
class PiecewiseConstantProfile(_PieceTable):
    """Constant value on each of finitely many disjoint half-open boxes."""

    boxes_lo: np.ndarray  # (k, dim)
    boxes_hi: np.ndarray  # (k, dim)
    values: np.ndarray    # (k,)

    def __post_init__(self):
        lo = np.atleast_2d(np.asarray(self.boxes_lo, dtype=float))
        hi = np.atleast_2d(np.asarray(self.boxes_hi, dtype=float))
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if lo.shape != hi.shape or lo.shape[0] != vals.shape[0]:
            raise RejectedInputError("box/value shapes disagree")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise RejectedInputError("unbounded declared support")
        if np.any(hi <= lo):
            raise RejectedInputError("empty or inverted box")
        check_bytes(lo.shape[0] ** 2, 17 * lo.shape[1], "box overlap pairs")
        overlap = np.all(np.maximum(lo[:, None], lo) < np.minimum(hi[:, None], hi), axis=2)
        i, j = np.nonzero(np.triu(overlap, 1))  # row-major, so (i[0], j[0]) is the first pair
        if i.size:
            raise RejectedInputError(f"boxes {i[0]} and {j[0]} overlap")
        object.__setattr__(self, "boxes_lo", lo)
        object.__setattr__(self, "boxes_hi", hi)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.boxes_lo.shape[1]

    @property
    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        return self.boxes_lo, self.boxes_hi

    def evaluate(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        out = np.zeros(pts.shape[0])
        for lo, hi, v in zip(self.boxes_lo, self.boxes_hi, self.values):
            inside = np.all((pts >= lo) & (pts < hi), axis=1)
            out[inside] = v
        return out


@dataclass(frozen=True)
class SampledGridProfile(_PieceTable):
    """Linear interpolation of samples on a uniform 1-d grid, zero outside."""

    lo: float
    hi: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.samples, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 2:
            raise RejectedInputError("need at least two samples on the grid")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
            raise RejectedInputError("unbounded or empty declared support")
        object.__setattr__(self, "samples", vals)
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    @property
    def dim(self) -> int:
        return 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.samples.shape[0])

    @property
    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        nodes = self.nodes
        return nodes[:-1, None], nodes[1:, None]

    def evaluate(self, points) -> np.ndarray:
        pts = _as_points(points, 1)[:, 0]
        out = np.interp(pts, self.nodes, self.samples, left=0.0, right=0.0)
        out[(pts < self.lo) | (pts >= self.hi)] = 0.0
        return out


FrequencyProfile = PiecewiseConstantProfile | SampledGridProfile


def support_radii(profile: FrequencyProfile, metric) -> tuple[float, float]:
    """(inradius, circumradius) of the support relative to the identity.

    inradius = distance from the identity to the nearest support point,
    circumradius = distance to the farthest one, both in the given metric.
    A piece's nearest point is the identity clipped into it, and its farthest
    point is the corner of largest coordinate magnitudes, which has the
    largest computed norm too, since rounding keeps a monotone norm's order.
    Used to certify truncation of orbit sums.
    """
    lo, hi = profile.pieces
    return (float(metric.norm(np.clip(0.0, lo, hi)).min()),
            float(metric.norm(np.maximum(-lo, hi)).max()))
