"""Profile helpers several suites share: the sampled hat they draw as a test
input, and the squared norm and scalar multiple of a piecewise-constant
profile, which the package no longer computes."""

import numpy as np

from affineframes.profiles import PiecewiseConstantProfile, SampledGridProfile


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
