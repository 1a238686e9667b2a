"""The sampled hat profile several suites draw as a test input."""

import numpy as np

from affineframes.profiles import SampledGridProfile


def triangle_bump(center: float, halfwidth: float, height: float = 1.0,
                  n_nodes: int = 3) -> SampledGridProfile:
    """Symmetric piecewise-linear hat supported on [center-hw, center+hw)."""
    nodes = np.linspace(center - halfwidth, center + halfwidth, max(3, n_nodes))
    vals = height * np.clip(1.0 - np.abs(nodes - center) / halfwidth, 0.0, None)
    return SampledGridProfile(center - halfwidth, center + halfwidth, vals)
