"""Composite Gauss-Legendre quadrature on intervals and boxes.

Order-16 nodes per cell throughout, on a fixed number of equal cells.
Integrands the toolkit produces are polynomial between known breakpoints, so
splitting at breakpoints makes the rules exact.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import check_bytes

GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)


def _cell_rule(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells, 16) nodes and weights of the order-16 rule on each [lo[i], hi[i]]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def gl_nodes_weights(lo: float, hi: float, cells: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite order-16 rule on [lo, hi]."""
    check_bytes(cells * GL_ORDER, 8, "quadrature nodes")
    edges = np.linspace(lo, hi, cells + 1)
    nodes, weights = _cell_rule(edges[:-1], edges[1:])
    return nodes.ravel(), weights.ravel()


def integrate_with_breakpoints(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                               intervals: Sequence[tuple[float, float, Sequence[float]]]
                               ) -> list[float]:
    """One integral per (lo, hi, breakpoints), 0.0 when hi <= lo, split at the
    interior breakpoints: exact for integrands polynomial (degree < 31) between
    them. f(nodes, owner) is called once, on every cell's nodes and the index of
    each node's interval, interval by interval (owner is nondecreasing); cell
    sums are ddots, added left to right by bincount."""
    n = len(intervals)
    lo, hi, cuts = zip(*intervals) if n else ((), (), ())
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    cut_owner = np.repeat(np.arange(n), np.fromiter(map(np.size, cuts), np.intp, n))
    b = np.concatenate([np.empty(0), *cuts], axis=None)
    live = np.flatnonzero(~(hi <= lo))
    inner = (lo[cut_owner] < b) & (b < hi[cut_owner])
    owner = np.concatenate([live, cut_owner[inner], live])
    value = np.concatenate([lo[live], b[inner], hi[live]])
    # tags keep lo, cuts, hi in that order past a NaN bound; cells skip hi rows and repeated cuts
    tag = np.repeat([0, 1, 2], [live.size, owner.size - 2 * live.size, live.size])
    order = np.lexsort((value, tag, owner))
    value, tag = value[order], tag[order]
    cell = np.flatnonzero((tag[:-1] != 2) & ((tag[1:] != 1) | (value[1:] != value[:-1])))
    owner = owner[order[cell]]
    check_bytes(owner.size * GL_ORDER, 8, "quadrature nodes")
    nodes, weights = _cell_rule(value[cell], value[cell + 1])
    values = np.reshape(f(nodes.ravel(), np.repeat(owner, GL_ORDER)), nodes.shape)
    return np.bincount(owner, weights=np.vecdot(weights, values), minlength=n).tolist()


def integrate_box(f: Callable[[np.ndarray], np.ndarray], lo: Sequence[float],
                  hi: Sequence[float], cells_per_axis: int = 1) -> float:
    """Tensor-product composite rule on an axis-aligned box (any dim).

    f receives an (n, dim) array of points and returns (n,) values.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        return 0.0
    points, weights = tensor_nodes_weights(lo, hi, cells_per_axis)
    return float(np.dot(weights, f(points)))


def tensor_nodes_weights(lo: Sequence[float], hi: Sequence[float],
                         cells_per_axis: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(n, dim) nodes and (n,) weights of the tensor-product composite rule."""
    check_bytes((cells_per_axis * GL_ORDER) ** len(lo), 8 * len(lo), "quadrature nodes")
    axes = [gl_nodes_weights(float(a), float(b), cells_per_axis) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*[nw[0] for nw in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[nw[1] for nw in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    return points, weights
