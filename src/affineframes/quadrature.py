"""Composite Gauss-Legendre quadrature on intervals and boxes.

Order-16 nodes per cell throughout, on a fixed number of equal cells.
Integrands the toolkit produces are polynomial between known breakpoints, so
splitting at breakpoints makes the rules exact.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)


def gl_nodes_weights(lo: float, hi: float, cells: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite order-16 rule on [lo, hi]."""
    edges = np.linspace(lo, hi, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def integrate_interval(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       cells: int = 1) -> float:
    if hi <= lo:
        return 0.0
    nodes, weights = gl_nodes_weights(lo, hi, cells)
    return float(np.dot(weights, f(nodes)))


def integrate_with_breakpoints(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                               breakpoints: Iterable[float]) -> float:
    """Integrate f on [lo, hi], splitting at the interior breakpoints.

    Exact for integrands polynomial (degree < 31) between breakpoints.
    """
    if hi <= lo:
        return 0.0
    cuts = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = [lo, *cuts, hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            total += integrate_interval(f, a, b)
    return total


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
    axes = [gl_nodes_weights(float(a), float(b), cells_per_axis) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*[nw[0] for nw in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[nw[1] for nw in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    return points, weights
