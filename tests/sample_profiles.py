"""Profile helpers several suites share: the interval indicator and the
sampled hat they draw as test inputs, the squared norm and scalar multiple of
a piecewise-constant profile, which the package no longer computes, and the
step row `(edges, values)` of such a profile, which the frame functional reads."""

import numpy as np

from affineframes.profiles import PiecewiseConstantProfile, SampledGridProfile


def indicator_interval(lo: float, hi: float, value: float = 1.0) -> PiecewiseConstantProfile:
    return PiecewiseConstantProfile(np.array([[lo]]), np.array([[hi]]), np.array([value]))


def step_row(profile: PiecewiseConstantProfile) -> tuple[np.ndarray, np.ndarray]:
    """A 1-d profile as a step row: its breakpoints as edges, and the value of
    each cell read at its left edge, so a gap between pieces is a zero cell."""
    edges = profile.breakpoints_1d()
    return edges, profile.evaluate(edges[:-1, None])


def triangle_bump(center: float, halfwidth: float, height: float = 1.0,
                  n_nodes: int = 3) -> SampledGridProfile:
    """Symmetric piecewise-linear hat supported on [center-hw, center+hw)."""
    nodes = np.linspace(center - halfwidth, center + halfwidth, max(3, n_nodes))
    vals = height * np.clip(1.0 - np.abs(nodes - center) / halfwidth, 0.0, None)
    return SampledGridProfile(center - halfwidth, center + halfwidth, vals)


def squared_norm(profile: PiecewiseConstantProfile) -> float:
    """The exact squared L2 norm: each value squared times its box's volume."""
    vols = np.prod(profile.boxes_hi - profile.boxes_lo, axis=1)
    return float(np.dot(profile.values ** 2, vols))


def scaled(profile: PiecewiseConstantProfile, c: float) -> PiecewiseConstantProfile:
    """The profile times c, on the same boxes."""
    return PiecewiseConstantProfile(profile.boxes_lo, profile.boxes_hi, profile.values * c)
