"""Calderon-type orbit sums, their strongly-distorting tails, and local
integrability evidence.

Atomic families sum weighted profile values along the orbit of a frequency;
continuous one-parameter dilation families integrate the weight density over
the active parameter window, split exactly at profile breakpoints.  Exactness
claims are backed by truncation certificates; divergence is only ever
reported as partial-sum evidence, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
# bench/tracer.py wraps lipschitz_constants in this namespace as well
from .automorphisms import AutomorphismFamily, line_action, lipschitz_constants  # noqa: F401
from .errors import RejectedInputError, SingularPointError
from .metric_lattice import GABOR_PRODUCT
from .profiles import FrequencyProfile, support_radii

DIVERGENCE_CAP = 1e12
DIVERGENCE_GROWTH = 1.5
_ORBIT_BLOCK = 1 << 14  # (member, frequency) orbit images built at once


@dataclass(frozen=True)
class IntegrabilityReport:
    verdict: str  # "finite" | "divergent"
    value: float
    partial_sums: tuple[float, ...]
    truncation_sizes: tuple[int, ...]


def _frequencies(psihat: FrequencyProfile, points) -> np.ndarray:
    """Frequencies as rows of an (n, dim) array: a scalar or a single point
    gives one row, a flat 1-d array gives one row per entry."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != psihat.dim:
        pts = pts.reshape(-1, psihat.dim)
    return pts


def _check_profile_dim(family: AutomorphismFamily, pts: np.ndarray) -> None:
    """Only Gabor families map points of another dimension: along the
    modulation line k = 1."""
    if pts.shape[1] != family.metric.dim and family.metric.kind != GABOR_PRODUCT:
        raise RejectedInputError("profile dimension does not match the automorphism")


def checked_squares(values: np.ndarray, what: str) -> np.ndarray:
    """values ** 2, refused where a square overflows a float."""
    with np.errstate(over="ignore"):  # an overflow is refused just below
        out = values ** 2
    if not np.isfinite(out).all():
        raise RejectedInputError(f"a square of {what} overflows a float")
    return out


def _orbit_squares(psihat, matrices: np.ndarray, pts: np.ndarray):
    """(rows, values) blocks of at most _ORBIT_BLOCK values (or one row), in
    member order: the squared profile values at the orbit images of `pts`
    under `matrices[rows]`, images which must stay within float range."""
    step = max(1, _ORBIT_BLOCK // max(pts.shape[0], 1))
    for i in range(0, matrices.shape[0], step):
        block = matrices[i:i + step]
        with np.errstate(over="ignore", invalid="ignore"):
            if pts.shape[1] < block.shape[-1]:
                scale, offset = line_action(block)
                mapped = pts * scale[:, None, None] + offset[:, None, None]
            else:
                mapped = np.matmul(pts, block.transpose(0, 2, 1))
        if not np.isfinite(mapped).all():
            raise RejectedInputError("orbit image of a frequency overflows a float")
        values = psihat.evaluate(mapped.reshape(-1, mapped.shape[-1]))
        yield slice(i, i + step), checked_squares(values.reshape(mapped.shape[:2]),
                                                  "a profile value")


def calderon_values(psihat: FrequencyProfile, family: AutomorphismFamily, points,
                    weighted: bool = False, lower_cutoff: float | None = None) -> np.ndarray:
    """Orbit sums at many frequencies for an atomic family.

    weighted=True multiplies each term by the jacobian (the tail integrand);
    lower_cutoff restricts to parameters with lower_cutoff < L(h).
    """
    if family.is_continuous:
        raise RejectedInputError("use calderon_sum for continuous families")
    pts = _frequencies(psihat, points)
    rows = (slice(None) if lower_cutoff is None
            else np.flatnonzero(family.members.upper > lower_cutoff))
    _check_profile_dim(family, pts)
    return _orbit_sum(psihat, family, rows, pts, weighted)


def _orbit_sum(psihat, family, rows, pts: np.ndarray, weighted: bool) -> np.ndarray:
    """Per frequency: the weighted squared profile values along the orbit of the
    member `rows`, added in row order, each times its jacobian when `weighted`."""
    t = family.members
    w = _jacobian_weights(t, rows) if weighted else t.weights[rows]
    out = np.zeros((1, pts.shape[0]))
    for block, squares in _orbit_squares(psihat, t.matrices[rows], pts):
        # a running sum down the rows from +0.0, term by term: never pairwise
        out = np.add.accumulate(np.concatenate([out, w[block, None] * squares]))[-1:]
    return out[0]


# ---------------------------------------------------------------------------
# Truncation certificates
# ---------------------------------------------------------------------------

def _integer_family_certificate(psihat, family, norms: np.ndarray) -> np.ndarray:
    """Per frequency norm: True when terms beyond both declared ends provably vanish.

    For a power range base ** j the one-step distortion constants bound how
    the orbit distance evolves past each end: once the orbit provably stays
    outside the support circumradius (or inside its inradius) forever, the
    remaining terms are zero.
    """
    t = family.members
    b_lower, b_upper = family.base_constants
    rho_min, rho_max = support_radii(psihat, family.metric)
    up_ok = (((b_lower > 1.0) & (t.lower[-1] * norms > rho_max))
             | ((b_upper < 1.0) & (t.upper[-1] * norms < rho_min)))
    down_ok = (((b_upper < 1.0) & (t.lower[0] * norms > rho_max))
               | ((b_lower > 1.0) & (t.upper[0] * norms < rho_min)))
    return up_ok & down_ok


def _gabor_window_covered(psihat, family, pts: np.ndarray) -> np.ndarray:
    """Per frequency: every shift p with xi - p in the profile support lies
    in the family's p-range."""
    return ((min(family.params) <= pts[:, 0] - float(psihat.support_hi[0]))
            & (max(family.params) >= pts[:, 0] - float(psihat.support_lo[0])))


# ---------------------------------------------------------------------------
# Evaluations with truncation certificates
# ---------------------------------------------------------------------------

def calderon_sum(psihat: FrequencyProfile, family: AutomorphismFamily, points
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """The orbit sum of squared profile values with the family weights at
    every frequency (a scalar, one point, or an (n, dim) array), as columns:
    (values, tail estimates, certified flags, truncation label).

    Atomic families take every value from one `calderon_values` call and
    their certificates and edge tails as arrays; continuous families
    integrate every frequency's parameter windows in one quadrature call.
    """
    pts = _frequencies(psihat, points)
    norms = None  # the Gabor line has no identity to avoid
    if family.metric.kind != GABOR_PRODUCT:
        with np.errstate(over="ignore"):
            norms = family.metric.norm(pts)
        if not np.isfinite(norms).all():
            raise RejectedInputError("metric norm of a frequency overflows a float")
        if np.any(norms == 0.0):
            raise SingularPointError("orbit sum requested at the identity frequency")
    if family.is_continuous:
        return _continuous_orbit_integrals(psihat, family, pts)
    values = calderon_values(psihat, family, pts)
    certified, truncation = _atomic_certificate(psihat, family, pts, norms)
    ends = np.array([0, -1])  # the end members' terms estimate the tail
    tails = np.where(certified, 0.0, _orbit_sum(psihat, family, ends, pts, False))
    return values, tails, certified, truncation


def _jacobian_weights(t, rows) -> np.ndarray:
    """w(h) * J(h) of the member `rows`, refused where the product overflows a float."""
    with np.errstate(over="ignore"):  # an overflow is refused just below
        w = t.weights[rows] * t.jacobians[rows]
    if not np.isfinite(w).all():
        raise RejectedInputError("a member's weight times its jacobian overflows a float")
    return w


def _distortion_tail(psihat, family, rows, pts: np.ndarray,
                     weights: np.ndarray) -> tuple[bool, tuple[float, ...], tuple[int, ...]]:
    """Divergence flag, partial sums and truncation sizes of the jacobian-
    weighted terms of the distortion-ordered `rows`, the last sum taking every
    term; a term is the quadrature with `weights` of its squared profile
    values at the nodes `pts`."""
    _check_profile_dim(family, pts)
    t = family.members
    dots = np.concatenate([np.vecdot(weights, squares)
                           for _, squares in _orbit_squares(psihat, t.matrices[rows], pts)])
    contributions = _jacobian_weights(t, rows) * dots
    n = len(rows)
    sizes = sorted({max(1, n // 4), max(1, n // 2), n})
    sums = tuple(float(np.sum(contributions[:k])) for k in sizes)
    divergent = sums[-1] > DIVERGENCE_CAP
    if len(sums) == 3 and sums[0] > 0:
        g = DIVERGENCE_GROWTH
        divergent = divergent or (sums[2] >= g * sums[1] >= g ** 2 * sums[0])
    return divergent, sums, tuple(sizes)


def _atomic_certificate(psihat, family, pts: np.ndarray,
                        norms: np.ndarray | None) -> tuple[np.ndarray, str]:
    """Per frequency, whether the truncation is certified exact; and its label."""
    if family.base is not None:
        ok = _integer_family_certificate(psihat, family, norms)
        return ok, f"integer_range[{family.params[0]},{family.params[-1]}]"
    terms = len(family.params)
    if family.metric.kind == GABOR_PRODUCT:
        return _gabor_window_covered(psihat, family, pts), f"shift_atoms[{terms}]"
    # an explicit atom list is its own complete truncation
    return np.ones(pts.shape[0], dtype=bool), f"atoms[{terms}]"


# ---------------------------------------------------------------------------
# Continuous one-parameter dilation families
# ---------------------------------------------------------------------------

def _continuous_orbit_integrals(psihat, family, pts: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Orbit integrals at every frequency from one quadrature call.

    The members are dilations [[a]] with L(a) = jacobian(a) = a.  A frequency
    xi integrates the weight density over the windows {a : a * xi in a live
    profile piece}, clipped to the domain; the same windows on the whole
    positive axis decide coverage and price the uncovered mass at the domain
    boundary.  Each frequency adds its window integrals left to right, in
    profile-piece order."""
    if family.members.matrices.shape[-1] != 1:
        raise RejectedInputError(
            "continuous orbit integrals support one-dimensional dilation families")
    if psihat.dim != 1:
        raise RejectedInputError("continuous families pair with 1-d profiles")
    xi = pts[:, 0]
    lo_d, hi_d = domain = family.continuous_domain()
    edges = psihat.breakpoints_1d()
    u0, u1 = edges[:-1], edges[1:]
    with np.errstate(over="ignore"):  # an overflow is refused just below
        probes = np.stack([u0, 0.5 * (u0 + u1), u1 - 1e-12 * (u1 - u0)], axis=1)
    if not np.isfinite(probes).all():
        raise RejectedInputError("a probe point of a profile piece overflows a float")
    live = np.any(psihat.evaluate(probes.reshape(-1, 1)).reshape(-1, 3) != 0.0, axis=1)
    # (n_xi, n_pieces) parameter windows; xi != 0 after calderon_sum's norm check
    with np.errstate(over="ignore"):  # an overflow is refused just below
        q0, q1 = u0[live] / xi[:, None], u1[live] / xi[:, None]
    if not (np.isfinite(q0).all() and np.isfinite(q1).all()):
        raise RejectedInputError("a parameter window of a profile piece overflows a float")
    a0, a1 = np.where(xi[:, None] > 0, q0, q1), np.where(xi[:, None] > 0, q1, q0)
    w0, w1 = np.maximum(a0, lo_d), np.minimum(a1, hi_d)
    windows = [list(zip(r0[k].tolist(), r1[k].tolist()))
               for r0, r1, k in zip(w0, w1, w1 > w0)]
    freq_of = np.repeat(np.arange(xi.shape[0]), [len(w) for w in windows])

    def density(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        w = np.array([family.weight_of(float(v)) for v in a])
        return w * checked_squares(psihat.evaluate((a * x)[:, None]), "a profile value")

    totals = quadrature.integrate_with_breakpoints(
        lambda a, owner: density(a, xi[freq_of[owner]]),
        [(b0, b1, ()) for w in windows for b0, b1 in w])
    values = np.bincount(freq_of, weights=totals, minlength=xi.shape[0])
    # exactness: every support window on the positive parameter axis must lie
    # inside the declared domain truncation
    f0 = np.maximum(a0, 0.0)
    covered = np.all((a1 <= f0) | ((lo_d <= f0) & (a1 <= hi_d)), axis=1)
    left = np.minimum(a1, lo_d) - f0
    right = a1 - np.maximum(f0, hi_d)
    tails = np.zeros(xi.shape[0])
    for i in np.flatnonzero(~covered).tolist():
        # uncovered window mass, priced at the boundary integrand value
        for gaps in zip(left[i].tolist(), right[i].tolist()):
            for gap, edge in zip(gaps, domain):
                if gap > 0:
                    tails[i] += gap * float(density(np.array([edge]), xi[i:i + 1])[0])
    return values, tails, covered, f"domain[{lo_d:g},{hi_d:g}]"


# ---------------------------------------------------------------------------
# Local integrability of the tail over a compact frequency box
# ---------------------------------------------------------------------------

def local_integrability_check(psihat: FrequencyProfile, family: AutomorphismFamily,
                              box_lo, box_hi, M: float,
                              level: int = 3) -> IntegrabilityReport:
    """Quadrature of the distortion tail over a compact box excluding the
    identity, with the partial-sum divergence monitor on the truncation."""
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    if np.any(hi <= lo):
        raise RejectedInputError("empty integration box")
    if np.all(lo <= 0.0) and np.all(hi >= 0.0):
        raise RejectedInputError("integration box must exclude the identity")
    if family.is_continuous:
        raise RejectedInputError("local integrability check runs on atomic families")

    rows = family.above(M)
    if not rows.size:
        return IntegrabilityReport("finite", 0.0, (0.0,), (0,))

    pts, weights = quadrature.tensor_nodes_weights(lo, hi, cells_per_axis=2 ** level)
    divergent, partial, sizes = _distortion_tail(psihat, family, rows, pts, weights)
    return IntegrabilityReport("divergent" if divergent else "finite", partial[-1], partial,
                               sizes)
