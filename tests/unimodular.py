"""The random unit-determinant matrix the lattice tests draw."""

import math

import numpy as np


def random_unimodular(rng: np.random.Generator, dim: int,
                      max_cond: float = 50.0) -> np.ndarray:
    """Random rotation * diag * rotation with unit determinant, bounded condition."""
    cond = float(rng.uniform(1.0, max_cond))
    log_sigma = rng.uniform(-0.5, 0.5, size=dim) * math.log(cond)
    log_sigma -= log_sigma.mean()
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return u @ np.diag(np.exp(log_sigma)) @ v
