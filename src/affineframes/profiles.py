"""Frequency-side profiles: the mother-wavelet |psi-hat| and Gabor-window data.

Two representations are supported: a finite list of disjoint half-open boxes
[lo, hi) with constant values, read off the grid of their edges by
`grid_lookup`, which reads the frame functional's f-hat step rows too; and a
uniformly sampled one-dimensional grid with linear interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RejectedInputError, check_bytes


def _as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:  # a 1-d profile's points, or one point
        pts = pts[:, None] if dim == 1 else pts[None, :]
    if pts.shape[-1] != dim:
        raise RejectedInputError(f"points of dimension {pts.shape[-1]} vs profile dim {dim}")
    return pts


def grid_lookup(edges, table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """table[i] at each row of `points` (n, d), i[a] the cell [e[i[a]], e[i[a] + 1]) of
    edges[a] = e holding the a-th coordinate; off the edges (NaN too), the +0.0 padded on."""
    return table[tuple(np.searchsorted(e, x, "right") - 1 for e, x in zip(edges, points.T))]


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
        return self.edges[0]


@dataclass(frozen=True)
class PiecewiseConstantProfile(_PieceTable):
    """Constant value on each of finitely many disjoint half-open boxes."""

    boxes_lo: np.ndarray  # (k, dim)
    boxes_hi: np.ndarray  # (k, dim)
    values: np.ndarray    # (k,)
    edges: tuple[np.ndarray, ...] = field(init=False, repr=False)  # per axis, the sorted box ends
    table: np.ndarray = field(init=False, repr=False)  # a value per grid cell, +0.0 padded on

    def __post_init__(self):
        lo = np.atleast_2d(np.asarray(self.boxes_lo, dtype=float))
        hi = np.atleast_2d(np.asarray(self.boxes_hi, dtype=float))
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if lo.shape != hi.shape or lo.shape[0] != vals.shape[0] or not vals.size:
            raise RejectedInputError("box/value shapes disagree or hold no box")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise RejectedInputError("unbounded declared support")
        if np.any(hi <= lo):
            raise RejectedInputError("empty or inverted box")
        check_bytes(lo.shape[0] ** 2, 17 * lo.shape[1], "box overlap pairs")
        overlap = np.all(np.maximum(lo[:, None], lo) < np.minimum(hi[:, None], hi), axis=2)
        i, j = np.nonzero(np.triu(overlap, 1))  # row-major, so (i[0], j[0]) is the first pair
        if i.size:
            raise RejectedInputError(f"boxes {i[0]} and {j[0]} overlap")
        # per axis np.unique's sort and first of each run, without the numpy.ma import it makes
        ends = [np.sort(np.concatenate([a, b])) for a, b in zip(lo.T, hi.T)]
        edges = tuple(e[np.append(True, e[1:] != e[:-1])] for e in ends)
        check_bytes(math.prod(e.size for e in edges), 8, "profile grid cells")
        table = np.zeros([e.size for e in edges])
        cells = [np.searchsorted(e, (a, b)).T.tolist() for e, a, b in zip(edges, lo.T, hi.T)]
        for v, *block in zip(vals, *cells):  # each box fills its block of cells
            table[tuple(slice(*c) for c in block)] = v
        vars(self).update(boxes_lo=lo, boxes_hi=hi, values=vals, edges=edges, table=table)

    @property
    def dim(self) -> int:
        return self.boxes_lo.shape[1]

    @property
    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        return self.boxes_lo, self.boxes_hi

    def evaluate(self, points) -> np.ndarray:
        return grid_lookup(self.edges, self.table, _as_points(points, self.dim))


@dataclass(frozen=True)
class SampledGridProfile(_PieceTable):
    """Linear interpolation of samples on a uniform 1-d grid, zero outside."""

    lo: float
    hi: float
    samples: np.ndarray = field(repr=False)
    edges: tuple[np.ndarray] = field(init=False, repr=False)  # the distinct nodes

    def __post_init__(self):
        vals = np.asarray(self.samples, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 2:
            raise RejectedInputError("need at least two samples on the grid")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
            raise RejectedInputError("unbounded or empty declared support")
        vars(self).update(samples=vals, lo=float(self.lo), hi=float(self.hi))
        vars(self).update(edges=(np.unique(self.nodes),))

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
    Used to certify truncation of orbit sums; a circumradius past the float
    range is refused, and the inradius is no larger.
    """
    lo, hi = profile.pieces
    with np.errstate(over="ignore"):  # an overflowing circumradius is refused just below
        inner = metric.norm(np.clip(0.0, lo, hi)).min()
        outer = metric.norm(np.maximum(-lo, hi)).max()
    if not np.isfinite(outer):
        raise RejectedInputError("the norm of a farthest profile support corner overflows a float")
    return float(inner), float(outer)
