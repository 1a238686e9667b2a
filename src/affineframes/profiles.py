"""Frequency-side profiles: the mother-wavelet |psi-hat| and Gabor-window data.

Two representations are supported: a finite list of disjoint half-open boxes
with constant values, and a uniformly sampled one-dimensional grid with linear
interpolation.  All supports are bounded by construction, and every box is
half-open ([lo, hi)) so membership at piece boundaries is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RejectedInputError


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
    (k, dim) of its half-open pieces, and from its `squared_norm` and `scaled`."""

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

    def normalized(self):
        n2 = self.squared_norm()
        if n2 <= 0:
            raise RejectedInputError("cannot normalize a null profile")
        return self.scaled(1.0 / np.sqrt(n2))


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
        for i in range(lo.shape[0]):
            for j in range(i + 1, lo.shape[0]):
                if np.all(np.maximum(lo[i], lo[j]) < np.minimum(hi[i], hi[j])):
                    raise RejectedInputError(f"boxes {i} and {j} overlap")
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

    def squared_norm(self) -> float:
        vols = np.prod(self.boxes_hi - self.boxes_lo, axis=1)
        return float(np.dot(self.values ** 2, vols))

    def scaled(self, c: float) -> "PiecewiseConstantProfile":
        return PiecewiseConstantProfile(self.boxes_lo, self.boxes_hi, self.values * c)


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

    def squared_norm(self) -> float:
        # exact integral of the squared piecewise-linear interpolant
        a = self.samples[:-1]
        b = self.samples[1:]
        h = (self.hi - self.lo) / (self.samples.shape[0] - 1)
        return float(np.sum((a * a + a * b + b * b) / 3.0 * h))

    def scaled(self, c: float) -> "SampledGridProfile":
        return SampledGridProfile(self.lo, self.hi, self.samples * c)


FrequencyProfile = PiecewiseConstantProfile | SampledGridProfile


def indicator_interval(lo: float, hi: float, value: float = 1.0) -> PiecewiseConstantProfile:
    return PiecewiseConstantProfile(np.array([[lo]]), np.array([[hi]]), np.array([value]))


def triangle_bump(center: float, halfwidth: float, height: float = 1.0,
                  n_nodes: int = 3) -> SampledGridProfile:
    """Symmetric piecewise-linear hat supported on [center-hw, center+hw)."""
    nodes = np.linspace(center - halfwidth, center + halfwidth, max(3, n_nodes))
    vals = height * np.clip(1.0 - np.abs(nodes - center) / halfwidth, 0.0, None)
    return SampledGridProfile(center - halfwidth, center + halfwidth, vals)


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
