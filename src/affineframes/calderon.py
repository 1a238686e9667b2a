"""Calderon-type orbit sums, their strongly-distorting tails, and local
integrability evidence.

Atomic families sum weighted profile values along the orbit of a frequency;
continuous one-parameter dilation families integrate the weight density over
the active parameter window, split exactly at profile breakpoints.  Exactness
claims are backed by truncation certificates; divergence is only ever
reported as partial-sum evidence, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .automorphisms import (GABOR_SHIFT, MATRIX_POWER, AutomorphismFamily,
                            IntegerRange, lipschitz_constants, matrix_power)
from .errors import RejectedInputError, SingularPointError
from .profiles import FrequencyProfile, support_radii

DIVERGENCE_CAP = 1e12
DIVERGENCE_GROWTH = 1.5


@dataclass(frozen=True)
class CalderonEvaluation:
    xi: object
    value: float
    truncation: dict = field(default_factory=dict)
    tail_estimate: float = 0.0
    certified_exact: bool = False
    diverging: bool = False


@dataclass(frozen=True)
class IntegrabilityReport:
    verdict: str  # "finite" | "divergent"
    value: float
    partial_sums: tuple[float, ...]
    truncation_sizes: tuple[int, ...]
    M: float


def _family_is_gabor(family: AutomorphismFamily) -> bool:
    return family.members[0].auto.kind == GABOR_SHIFT


def _frequencies(psihat: FrequencyProfile, points) -> np.ndarray:
    """Frequencies as rows of an (n, dim) array: a scalar or a single point
    gives one row, a flat 1-d array gives one row per entry."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != psihat.dim:
        pts = pts.reshape(-1, psihat.dim)
    return pts


def _mapped_points(auto, pts: np.ndarray) -> np.ndarray:
    """Orbit image of profile-side points under one automorphism."""
    if auto.kind == GABOR_SHIFT:
        scale, offset = auto.line_action()
        return pts * scale + offset
    if pts.shape[1] == auto.dim:
        return auto.apply(pts)
    raise RejectedInputError("profile dimension does not match the automorphism")


def _check_not_identity(family: AutomorphismFamily, pts: np.ndarray) -> None:
    if _family_is_gabor(family):
        return
    if np.any(family.metric.norm(pts) == 0.0):
        raise SingularPointError("orbit sum requested at the identity frequency")


def calderon_values(psihat: FrequencyProfile, family: AutomorphismFamily, points,
                    weighted: bool = False, lower_cutoff: float | None = None) -> np.ndarray:
    """Orbit sums at many frequencies for an atomic family.

    weighted=True multiplies each term by the jacobian (the tail integrand);
    lower_cutoff restricts to parameters with lower_cutoff < L(h).
    """
    if family.is_continuous:
        raise RejectedInputError("use calderon_sum for continuous families")
    pts = _frequencies(psihat, points)
    out = np.zeros(pts.shape[0])
    for m in family.members:
        if lower_cutoff is not None and m.upper <= lower_cutoff:
            continue
        term = psihat.evaluate(_mapped_points(m.auto, pts)) ** 2
        w = m.weight * m.jacobian if weighted else m.weight
        out += w * term
    return out


# ---------------------------------------------------------------------------
# Truncation certificates
# ---------------------------------------------------------------------------

def _integer_family_certificate(psihat, family, pts: np.ndarray) -> np.ndarray:
    """Per frequency: True when terms beyond both declared ends provably vanish.

    For matrix-power families the one-step distortion constants bound how the
    orbit distance evolves past each end: once the orbit provably stays
    outside the support circumradius (or inside its inradius) forever, the
    remaining terms are zero.
    """
    first, last = family.members[0], family.members[-1]
    if first.auto.kind == GABOR_SHIFT:
        return _gabor_window_covered(psihat, family, pts)
    if first.auto.kind != MATRIX_POWER:
        return np.zeros(pts.shape[0], dtype=bool)
    cb = lipschitz_constants(matrix_power(first.auto.params["base"], 1), family.metric)
    rho_min, rho_max = support_radii(psihat, family.metric)
    d = family.metric.norm(pts)
    up_ok = (((cb.lower > 1.0) & (last.lower * d > rho_max))
             | ((cb.upper < 1.0) & (last.upper * d < rho_min)))
    down_ok = (((cb.upper < 1.0) & (first.lower * d > rho_max))
               | ((cb.lower > 1.0) & (first.upper * d < rho_min)))
    return up_ok & down_ok


def _gabor_window_covered(psihat, family, pts: np.ndarray) -> np.ndarray:
    """Per frequency: every shift p with xi - p in the profile support lies
    in the family's p-range."""
    ps = [p if not isinstance(p, tuple) else p[0] for p in family.parameters()]
    return ((min(ps) <= pts[:, 0] - float(psihat.support_hi[0]))
            & (max(ps) >= pts[:, 0] - float(psihat.support_lo[0])))


def _divergence_monitor(contributions: np.ndarray) -> tuple[bool, tuple[float, ...],
                                                            tuple[int, ...]]:
    """Partial sums at three dyadic truncations of the distortion-ordered terms."""
    n = contributions.shape[0]
    sizes = sorted({max(1, n // 4), max(1, n // 2), n})
    sums = tuple(float(np.sum(contributions[:k])) for k in sizes)
    diverging = sums[-1] > DIVERGENCE_CAP
    if len(sums) == 3 and sums[0] > 0:
        g = DIVERGENCE_GROWTH
        diverging = diverging or (sums[2] >= g * sums[1] >= g ** 2 * sums[0])
    return diverging, sums, tuple(sizes)


# ---------------------------------------------------------------------------
# Evaluations with truncation certificates
# ---------------------------------------------------------------------------

def calderon_sum(psihat: FrequencyProfile, family: AutomorphismFamily,
                 points) -> list[CalderonEvaluation]:
    """The orbit sum of squared profile values with the family weights, one
    evaluation per frequency (a scalar, one point, or an (n, dim) array).

    Atomic families take every value from one `calderon_values` call and
    their certificates and edge tails as arrays; continuous families
    integrate per frequency, since their parameter windows depend on it.
    """
    pts = _frequencies(psihat, points)
    _check_not_identity(family, pts)
    if family.is_continuous:
        return [_continuous_orbit_integral(psihat, family, x, weighted=False,
                                           lower_cutoff=None) for x in pts]
    values = calderon_values(psihat, family, pts)
    certified, truncation = _atomic_certificate(psihat, family, pts)
    tails = np.where(certified, 0.0, _edge_tail_estimate(psihat, family, pts))
    return [CalderonEvaluation(x, v, truncation, t, c) for x, v, t, c in
            zip(pts, values.tolist(), tails.tolist(), certified.tolist())]


def calderon_tail(psihat: FrequencyProfile, family: AutomorphismFamily, xi,
                  M: float) -> CalderonEvaluation:
    """Jacobian-weighted orbit sum at one frequency, restricted to parameters
    with L(h) > M.

    Unlike the plain orbit sum, each term carries the jacobian factor.  A
    partial-sum monitor reports divergence evidence when the distortion-
    ordered sums keep growing geometrically or exceed the cap.
    """
    if M <= 0:
        raise RejectedInputError("distortion cutoff must be positive")
    pts = _frequencies(psihat, xi)
    if pts.shape[0] != 1:
        raise RejectedInputError("calderon_tail evaluates one frequency")
    _check_not_identity(family, pts)
    if family.is_continuous:
        return _continuous_orbit_integral(psihat, family, pts[0], weighted=True,
                                          lower_cutoff=M)
    rows = sorted((m for m in family.members if m.upper > M),
                  key=lambda m: (m.upper, str(m.param)))
    if not rows:
        return CalderonEvaluation(xi, 0.0, {"kind": "atoms", "terms": 0},
                                  certified_exact=True)
    contributions = np.empty(len(rows))
    for i, m in enumerate(rows):
        term = float(psihat.evaluate(_mapped_points(m.auto, pts))[0]) ** 2
        contributions[i] = m.weight * m.jacobian * term
    diverging, partial, sizes = _divergence_monitor(contributions)
    certified, truncation = _atomic_certificate(psihat, family, pts)
    certified = bool(certified[0])
    truncation = dict(truncation)
    truncation.update({"partial_sums": partial, "truncation_sizes": sizes,
                       "distortion_cutoff": M})
    tail = 0.0 if certified else float(
        _edge_tail_estimate(psihat, family, pts, weighted=True)[0])
    return CalderonEvaluation(xi, float(np.sum(contributions)), truncation, tail,
                              certified and not diverging, diverging)


def _atomic_certificate(psihat, family, pts: np.ndarray) -> tuple[np.ndarray, dict]:
    if isinstance(family.index_set, IntegerRange):
        ok = _integer_family_certificate(psihat, family, pts)
        return ok, {"kind": "integer_range", "j_min": family.index_set.j_min,
                    "j_max": family.index_set.j_max}
    terms = len(family.members)
    if _family_is_gabor(family):
        return (_gabor_window_covered(psihat, family, pts),
                {"kind": "shift_atoms", "terms": terms})
    # an explicit atom list is its own complete truncation
    return np.ones(pts.shape[0], dtype=bool), {"kind": "atoms", "terms": terms}


def _edge_tail_estimate(psihat, family, pts: np.ndarray,
                        weighted: bool = False) -> np.ndarray:
    """Per frequency: the terms of the two end parameters of the truncation."""
    est = np.zeros(pts.shape[0])
    for m in (family.members[0], family.members[-1]):
        w = m.weight * m.jacobian if weighted else m.weight
        est += w * psihat.evaluate(_mapped_points(m.auto, pts)) ** 2
    return est


# ---------------------------------------------------------------------------
# Continuous one-parameter dilation families
# ---------------------------------------------------------------------------

def _scalar_dilation_or_reject(family: AutomorphismFamily) -> None:
    if family.members[0].auto.dim != 1:
        raise RejectedInputError(
            "continuous orbit integrals support one-dimensional dilation families")


def _active_windows(psihat, xi: float, domain: tuple[float, float]) -> list[tuple[float, float]]:
    """Parameter intervals whose dilated frequency lands where the profile is
    nonzero (support gaps between pieces are skipped)."""
    lo_d, hi_d = domain
    windows: list[tuple[float, float]] = []
    edges = psihat.breakpoints_1d()
    for u0, u1 in zip(edges[:-1], edges[1:]):
        probes = np.array([[u0], [0.5 * (u0 + u1)], [u1 - 1e-12 * (u1 - u0)]])
        if np.all(psihat.evaluate(probes) == 0.0):
            continue
        if xi > 0:
            a0, a1 = u0 / xi, u1 / xi
        elif xi < 0:
            a0, a1 = u1 / xi, u0 / xi
        else:
            continue
        a0, a1 = max(a0, lo_d), min(a1, hi_d)
        if a1 > a0:
            windows.append((a0, a1))
    return windows


def _continuous_orbit_integral(psihat, family, xi_arr: np.ndarray, weighted: bool,
                               lower_cutoff: float | None) -> CalderonEvaluation:
    _scalar_dilation_or_reject(family)
    if psihat.dim != 1:
        raise RejectedInputError("continuous families pair with 1-d profiles")
    xi = float(xi_arr.ravel()[0])
    domain = family.continuous_domain()
    windows = _active_windows(psihat, xi, domain)
    if lower_cutoff is not None:
        level = family.level_set_intervals(lower_cutoff, np.inf)
        windows = _intersect_interval_lists(windows, level)

    def integrand(a: np.ndarray, _owner=None) -> np.ndarray:
        vals = psihat.evaluate((a * xi)[:, None]) ** 2
        w = np.array([family.weight_of(float(v)) for v in a])
        if weighted:
            w = w * np.array([family.automorphism(float(v)).jacobian() for v in a])
        return w * vals

    total = 0.0
    for value in quadrature.integrate_with_breakpoints(
            integrand, [(a0, a1, ()) for a0, a1 in windows]):
        total += value
    # exactness: every support window on the positive parameter axis must lie
    # inside the declared domain truncation
    full = _active_windows(psihat, xi, (0.0, np.inf))
    covered = all(domain[0] <= f0 and f1 <= domain[1] for f0, f1 in full)
    tail = 0.0
    if not covered:
        # uncovered window mass, priced at the boundary integrand value
        for f0, f1 in full:
            left_gap = max(0.0, min(f1, domain[0]) - f0)
            right_gap = max(0.0, f1 - max(f0, domain[1]))
            for gap, edge in ((left_gap, domain[0]), (right_gap, domain[1])):
                if gap > 0:
                    tail += gap * float(integrand(np.array([edge]))[0])
    return CalderonEvaluation(xi, total, {"kind": "continuous", "domain": domain,
                                          "windows": windows}, tail, covered)


def _intersect_interval_lists(a: list[tuple[float, float]],
                              b: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    for a0, a1 in a:
        for b0, b1 in b:
            lo, hi = max(a0, b0), min(a1, b1)
            if hi > lo:
                out.append((lo, hi))
    return sorted(out)


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

    rows = sorted((m for m in family.members if m.upper > M),
                  key=lambda m: (m.upper, str(m.param)))
    if not rows:
        return IntegrabilityReport("finite", 0.0, (0.0,), (0,), M)

    pts, weights = quadrature.tensor_nodes_weights(lo, hi, cells_per_axis=2 ** level)

    contributions = np.empty(len(rows))
    for i, m in enumerate(rows):
        vals = psihat.evaluate(_mapped_points(m.auto, pts)) ** 2
        contributions[i] = m.weight * m.jacobian * float(np.dot(weights, vals))
    diverging, partial, sizes = _divergence_monitor(contributions)
    verdict = "divergent" if diverging else "finite"
    return IntegrabilityReport(verdict, float(np.sum(contributions)), partial, sizes, M)
