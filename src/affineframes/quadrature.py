"""Composite Gauss-Legendre quadrature on intervals and boxes.

Order-16 nodes per cell throughout, on a fixed number of equal cells.
Integrands the toolkit produces are polynomial between known breakpoints, so
splitting at breakpoints makes the rules exact.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError

GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)
MAX_GRID_BYTES = 2 ** 30  # float64 nodes a single rule may allocate


def _check_grid_size(nodes: int, dim: int = 1) -> None:
    if nodes * dim * 8 > MAX_GRID_BYTES:
        raise ResourceLimitError(f"quadrature grid of {nodes} nodes in dim {dim} exceeds "
                                 f"{MAX_GRID_BYTES} bytes", size=nodes)


def _cell_rule(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells, 16) nodes and weights of the order-16 rule on each [lo[i], hi[i]]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def gl_nodes_weights(lo: float, hi: float, cells: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite order-16 rule on [lo, hi]."""
    _check_grid_size(cells * GL_ORDER)
    edges = np.linspace(lo, hi, cells + 1)
    nodes, weights = _cell_rule(edges[:-1], edges[1:])
    return nodes.ravel(), weights.ravel()


def integrate_interval(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       cells: int = 1) -> float:
    if hi <= lo:
        return 0.0
    nodes, weights = gl_nodes_weights(lo, hi, cells)
    return float(np.dot(weights, f(nodes)))


def integrate_with_breakpoints(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                               intervals: Sequence[tuple[float, float, Sequence[float]]]
                               ) -> list[float]:
    """One integral per (lo, hi, breakpoints), 0.0 when hi <= lo, split at the
    interior breakpoints: exact for integrands polynomial (degree < 31) between
    them. f(nodes, owner) is called once, on every cell's nodes and the index
    of each node's interval; each interval's cells are summed left to right."""
    cell_lo, cell_hi, owner = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=np.intp)]
    for i, (lo, hi, breakpoints) in enumerate(intervals):
        if hi <= lo:
            continue
        b = np.asarray(breakpoints, dtype=float).ravel()
        edges = np.concatenate([[lo], np.unique(b[(lo < b) & (b < hi)]), [hi]])
        cell_lo.append(edges[:-1])
        cell_hi.append(edges[1:])
        owner.append(np.full(edges.size - 1, i))
    owner = np.concatenate(owner)
    _check_grid_size(owner.size * GL_ORDER)
    nodes, weights = _cell_rule(np.concatenate(cell_lo), np.concatenate(cell_hi))
    values = np.reshape(f(nodes.ravel(), np.repeat(owner, GL_ORDER)), nodes.shape)
    totals = [0.0] * len(intervals)
    for i, w_cell, f_cell in zip(owner, weights, values):
        totals[i] += float(np.dot(w_cell, f_cell))
    return totals


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
    _check_grid_size((cells_per_axis * GL_ORDER) ** len(lo), len(lo))
    axes = [gl_nodes_weights(float(a), float(b), cells_per_axis) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*[nw[0] for nw in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[nw[1] for nw in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    return points, weights
