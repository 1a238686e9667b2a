"""Fourier-domain frame functional, ball-indicator test functions, and the
end-to-end bound report.

The functional is evaluated exactly on one-dimensional frequency lines (the
Euclidean line and the Gabor modulation line k = 1), where every integrand is
polynomial between computable breakpoints.  Values for unit-norm inputs of a
tight system come out at the frame constant to machine precision, which is
what the acceptance checks lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .automorphisms import AutomorphismFamily
from .calderon import calderon_sum, calderon_values
from .counting import property_x_scan
from .errors import RejectedInputError
from .metric_lattice import GABOR_PRODUCT, Lattice, MetricSpace
from .profiles import FrequencyProfile, PiecewiseConstantProfile

PROBE_COUNT = 50
PROBE_SEED = 424243
PROBE_MAX_PIECES = 8
REMAINDER_TOLERANCE = 5e-6


@dataclass(frozen=True)
class TestFunction:
    center: np.ndarray
    radius: float
    normalization: float
    profile: PiecewiseConstantProfile


def make_test_function(center, epsilon: float, metric: MetricSpace) -> TestFunction:
    """Unit-norm frequency indicator of the ball at `center` of radius epsilon.

    Gabor centers sit on the modulation line k = 1, and balls of radius below
    one meet that line only; euclidean centers sit on a line."""
    if epsilon <= 0:
        raise RejectedInputError("test-function radius must be positive")
    gabor = metric.kind == GABOR_PRODUCT
    if gabor and epsilon >= 1.0:
        raise RejectedInputError(f"radius {epsilon} reaches the admissible cap 1.0")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if gabor and (c.shape[0] != 2 or c[1] != 1.0):
        raise RejectedInputError("center must sit on the modulation line k = 1")
    if not gabor and metric.dim != 1:
        raise RejectedInputError("ball indicators are box profiles only on one-dimensional lines")
    base = float(c[0])
    measure = 2.0 * epsilon  # interval measure on the line (any line metric)
    normalization = 1.0 / math.sqrt(measure)
    profile = PiecewiseConstantProfile(np.array([[base - epsilon]]),
                                       np.array([[base + epsilon]]),
                                       np.array([normalization]))
    return TestFunction(c, epsilon, normalization, profile)


# ---------------------------------------------------------------------------
# The functional
# ---------------------------------------------------------------------------

def _omega_interval(lattice: Lattice) -> tuple[float, float]:
    b = float(lattice.basis[0, 0])
    return (0.0, b) if b > 0 else (b, 0.0)


def _line_profile(p: FrequencyProfile) -> tuple[float, float, np.ndarray]:
    return float(p.support_lo[0]), float(p.support_hi[0]), p.breakpoints_1d()


def frame_functional(psihat: FrequencyProfile, family: AutomorphismFamily,
                     lattice: Lattice, fhat: FrequencyProfile) -> float:
    """The weighted double integral of the squared periodized product
    f-hat(orbit-preimage) * psi-hat over the fundamental domain."""
    if family.is_continuous:
        raise RejectedInputError("the functional is evaluated on atomic families")
    if psihat.dim != 1 or fhat.dim != 1 or lattice.dim != 1:
        raise RejectedInputError("functional evaluation runs on 1-d frequency lines")

    omega_lo, omega_hi = _omega_interval(lattice)
    psi_lo, psi_hi, psi_breaks = _line_profile(psihat)
    f_lo, f_hi, f_breaks = _line_profile(fhat)

    total = 0.0
    for m in family.members:
        scale, offset = m.auto.line_action()
        if m.weight == 0.0:
            continue
        total += m.weight * _general_term(psihat, fhat, m.jacobian, scale, offset,
                                          omega_lo, omega_hi, psi_lo, psi_hi,
                                          psi_breaks, f_lo, f_hi, f_breaks, lattice)
    return total


def _general_term(psihat, fhat, jacobian, scale, offset, omega_lo, omega_hi,
                  psi_lo, psi_hi, psi_breaks, f_lo, f_hi, f_breaks,
                  lattice: Lattice) -> float:
    img = sorted((scale * f_lo + offset, scale * f_hi + offset))
    cap_lo = max(psi_lo, img[0])
    cap_hi = min(psi_hi, img[1])
    if cap_hi <= cap_lo:
        return 0.0
    shifts = lattice.points_in_box([cap_lo - omega_hi], [cap_hi - omega_lo])[:, 0]
    if shifts.shape[0] == 0:
        return 0.0
    cuts: list[float] = []
    for lam in shifts:
        cuts.extend(float(b) - lam for b in psi_breaks)
        cuts.extend(float(scale * b + offset) - lam for b in f_breaks)

    def integrand(xi: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(xi)
        for lam in shifts:
            shifted = xi + lam
            acc += (fhat.evaluate(((shifted - offset) / scale)[:, None])
                    * psihat.evaluate(shifted[:, None]))
        return acc ** 2

    integral = quadrature.integrate_with_breakpoints(integrand, omega_lo, omega_hi, cuts)
    return integral / jacobian


def single_term_threshold(family: AutomorphismFamily, lattice: Lattice, param,
                          xi0: float) -> float:
    """Largest test-function radius for which only one shift can contribute:
    boundary distance of the orbit point over its upper distortion constant."""
    m = family.member(param)
    scale, offset = m.auto.line_action()
    return lattice.boundary_distance_1d(scale * xi0 + offset) / m.upper


# ---------------------------------------------------------------------------
# Ball averages of the orbit sums (used by the remainder diagnostics)
# ---------------------------------------------------------------------------

def _orbit_breakpoints(psihat, family, lo: float, hi: float,
                       lower_cutoff: float | None = None) -> list[float]:
    cuts: list[float] = []
    breaks = psihat.breakpoints_1d()
    for m in family.members:
        if lower_cutoff is not None and m.upper <= lower_cutoff:
            continue
        scale, offset = m.auto.line_action()
        for b in breaks:
            x = (float(b) - offset) / scale
            if lo < x < hi:
                cuts.append(x)
    return cuts


def ball_average_calderon(psihat, family, xi0: float, epsilon: float) -> float:
    """Average of the orbit sum over the interval ball at xi0."""
    lo, hi = xi0 - epsilon, xi0 + epsilon
    cuts = _orbit_breakpoints(psihat, family, lo, hi)
    value = quadrature.integrate_with_breakpoints(
        lambda x: calderon_values(psihat, family, x[:, None]), lo, hi, cuts)
    return value / (2.0 * epsilon)


def ball_tail_integral(psihat, family, xi0: float, epsilon: float, M: float) -> float:
    """Integral over the interval ball of the jacobian-weighted tail."""
    lo, hi = xi0 - epsilon, xi0 + epsilon
    cuts = _orbit_breakpoints(psihat, family, lo, hi, lower_cutoff=M)
    return quadrature.integrate_with_breakpoints(
        lambda x: calderon_values(psihat, family, x[:, None], weighted=True,
                                  lower_cutoff=M), lo, hi, cuts)


# ---------------------------------------------------------------------------
# Reports and probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemainderDiagnostic:
    xi0: float
    epsilon: float
    ball_average: float
    remainder: float
    constant: float
    satisfied: bool


@dataclass(frozen=True)
class FrameReport:
    xi_grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    lower_declared: float
    upper_declared: float
    tolerance: float
    passes: np.ndarray = field(repr=False)
    n_failures: int
    min_value: float
    max_value: float
    counting_verdict: str | None = None
    counting_constant: float | None = None
    remainder: tuple[RemainderDiagnostic, ...] = ()
    note: str = "grid verdicts stand in for almost-everywhere claims"


def calderon_inequality_report(psihat: FrequencyProfile, family: AutomorphismFamily,
                               lattice: Lattice, xi_grid, lower: float, upper: float,
                               M: float, epsilon: float = 0.01,
                               scan_radius: float = 0.4,
                               exclusion_radius: float = 1e-3,
                               tolerance: float = 1e-9,
                               scan_distortion_cap: float = 4096.0) -> FrameReport:
    """Per-frequency bound verdicts plus the averaged remainder inequality at
    a few probe points, with the counting-scan constant feeding the remainder."""
    grid = np.asarray(xi_grid, dtype=float).ravel()
    gabor = family.metric.kind == GABOR_PRODUCT
    if not gabor and np.any(np.abs(grid) < exclusion_radius):
        raise RejectedInputError(
            f"grid touches the exclusion radius {exclusion_radius} around the identity")

    if family.is_continuous:
        values = np.array([ev.value for ev in calderon_sum(psihat, family, grid)])
    else:
        values = calderon_values(psihat, family, grid[:, None])
    passes = (values >= lower - tolerance) & (values <= upper + tolerance)

    counting_verdict = None
    constant = None
    remainder_rows: list[RemainderDiagnostic] = []
    if not family.is_continuous:
        # enumeration stays desk-scale below the distortion cap; the scan
        # certifies that probed sub-truncation
        scan_family = family.restrict(lambda _p, _lo, hi: hi <= scan_distortion_cap)
        scan = property_x_scan(scan_family, lattice, family.metric, scan_radius, M)
        counting_verdict = scan.verdict
        constant = scan.constant
        if scan.verdict == "holds":
            for i in sorted({0, grid.shape[0] // 2, grid.shape[0] - 1}):
                xi0 = float(grid[i])
                avg = ball_average_calderon(psihat, family, xi0, epsilon)
                tail = ball_tail_integral(psihat, family, xi0, epsilon, M)
                rem = constant * tail / (2.0 * epsilon)
                ok = lower <= avg + rem + REMAINDER_TOLERANCE
                remainder_rows.append(RemainderDiagnostic(xi0, epsilon, avg, rem,
                                                          constant, ok))
    return FrameReport(grid, values, lower, upper, tolerance, passes,
                       int(np.sum(~passes)), float(np.min(values)),
                       float(np.max(values)), counting_verdict, constant,
                       tuple(remainder_rows))


def frame_bound_probe(psihat: FrequencyProfile, family: AutomorphismFamily,
                      lattice: Lattice, ensemble) -> tuple[float, float]:
    """Empirical inner frame-bound estimates: extremes of the functional over
    a unit-norm ensemble.  The spread can only shrink the true interval."""
    if not ensemble:
        raise RejectedInputError("probe ensemble must be nonempty")
    values = []
    for fhat in ensemble:
        n2 = fhat.squared_norm()
        if abs(n2 - 1.0) > 1e-9:
            raise RejectedInputError("ensemble profiles must be unit-norm")
        values.append(frame_functional(psihat, family, lattice, fhat))
    return float(np.min(values)), float(np.max(values))


def random_probe_ensemble(band_lo: float, band_hi: float, count: int = PROBE_COUNT,
                          seed: int = PROBE_SEED) -> list[PiecewiseConstantProfile]:
    """Deterministic ensemble of unit-norm piecewise-constant band profiles."""
    if band_hi <= band_lo:
        raise RejectedInputError("empty probe band")
    rng = np.random.default_rng(seed)
    out: list[PiecewiseConstantProfile] = []
    span = band_hi - band_lo
    while len(out) < count:
        k = int(rng.integers(3, PROBE_MAX_PIECES + 1))
        edges = np.sort(rng.uniform(band_lo, band_hi, size=k + 1))
        if np.min(np.diff(edges)) < 1e-6 * span:
            continue
        vals = rng.normal(size=k)
        if np.max(np.abs(vals)) < 1e-12:
            continue
        profile = PiecewiseConstantProfile(edges[:-1, None], edges[1:, None], vals)
        out.append(profile.normalized())
    return out
