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
from .errors import RejectedInputError, check_bytes
from .metric_lattice import GABOR_PRODUCT, Lattice, MetricSpace
from .profiles import FrequencyProfile, PiecewiseConstantProfile, indicator_interval

PROBE_COUNT = 50
PROBE_SEED = 424243
PROBE_MAX_PIECES = 8
REMAINDER_TOLERANCE = 5e-6
BOUND_TOLERANCE = 1e-9       # slack of the per-frequency bound verdicts
SCAN_DISTORTION_CAP = 4096.0  # members above it stay out of the counting scan
EXCLUSION_RADIUS = 1e-3  # Euclidean scan grids keep this far from the identity


def make_test_function(center, epsilon: float,
                       metric: MetricSpace) -> PiecewiseConstantProfile:
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
    # the interval measure 2 epsilon on the line (any line metric)
    return indicator_interval(base - epsilon, base + epsilon, 1.0 / math.sqrt(2.0 * epsilon))


# ---------------------------------------------------------------------------
# The functional
# ---------------------------------------------------------------------------

def _line_profile(p: FrequencyProfile) -> tuple[float, float, np.ndarray]:
    return float(p.support_lo[0]), float(p.support_hi[0]), p.breakpoints_1d()


def frame_functional(psihat: FrequencyProfile, family: AutomorphismFamily,
                     lattice: Lattice, fhat: FrequencyProfile) -> float:
    """The weighted double integral of the squared periodized product
    f-hat(orbit-preimage) * psi-hat over the fundamental domain, with one
    quadrature interval per member and one quadrature call in all."""
    if family.is_continuous:
        raise RejectedInputError("the functional is evaluated on atomic families")
    if psihat.dim != 1 or fhat.dim != 1 or lattice.dim != 1:
        raise RejectedInputError("functional evaluation runs on 1-d frequency lines")

    omega_lo, omega_hi = (float(v[0]) for v in lattice.fundamental_box())
    psi_lo, psi_hi, psi_breaks = _line_profile(psihat)
    f_lo, f_hi, f_breaks = _line_profile(fhat)

    members = family.members
    scale, offset = np.array([m.auto.line_action() for m in members]).reshape(-1, 2).T
    img_a, img_b = scale * f_lo + offset, scale * f_hi + offset
    cap_lo = np.maximum(psi_lo, np.minimum(img_a, img_b))
    cap_hi = np.minimum(psi_hi, np.maximum(img_a, img_b))
    live = (cap_hi > cap_lo) & (np.array([m.weight for m in members]) != 0.0)
    k_lo, k_hi = lattice.integer_box(np.where(live, cap_lo - omega_hi, 0.0)[:, None],
                                     np.where(live, cap_hi - omega_lo, 0.0)[:, None])
    count = np.where(live, np.maximum(k_hi[:, 0] - k_lo[:, 0] + 1, 0), 0)
    width = int(count.max(initial=0))
    breaks = np.concatenate([np.broadcast_to(psi_breaks, (len(members), psi_breaks.size)),
                             scale[:, None] * f_breaks + offset[:, None]], axis=1)
    # the integer table, the shifts and the cuts of every shift
    check_bytes(len(members) * width, 8 * (2 + breaks.shape[1]),
                f"{len(members)} members' lattice shifts")
    shifts = (k_lo + np.arange(width)).astype(float) * lattice.basis[0, 0]
    cuts = breaks[:, None, :] - shifts[:, :, None]

    def integrand(xi: np.ndarray, owner: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(xi)
        for k in range(width):
            on = k < count[owner]
            i = owner[on]
            shifted = xi[on] + shifts[i, k]
            acc[on] += (fhat.evaluate(((shifted - offset[i]) / scale[i])[:, None])
                        * psihat.evaluate(shifted[:, None]))
        return acc ** 2

    intervals = [(omega_lo, omega_hi, cuts[i, :n]) if n else (omega_lo, omega_lo, ())
                 for i, n in enumerate(count)]
    integrals = quadrature.integrate_with_breakpoints(integrand, intervals)
    total = 0.0
    for m, integral in zip(members, integrals):
        if m.weight != 0.0:
            total += m.weight * (integral / m.jacobian)
    return total


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

def ball_integrals(psihat, family, xi0: float, epsilon: float,
                   M: float) -> tuple[float, float]:
    """Average of the orbit sum over the interval ball at xi0, and the integral
    over that ball of the jacobian-weighted tail above M, in one quadrature
    call cut where the members pull back the breakpoints of psi-hat."""
    lo, hi = xi0 - epsilon, xi0 + epsilon
    breaks = psihat.breakpoints_1d()
    scale, offset = np.array([m.auto.line_action() for m in family.members]).reshape(-1, 2).T
    cuts = (breaks[None, :] - offset[:, None]) / scale[:, None]
    tail = ~(np.array([m.upper for m in family.members]) <= M)

    def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[owner == 0] = calderon_values(psihat, family, x[owner == 0, None])
        out[owner == 1] = calderon_values(psihat, family, x[owner == 1, None],
                                          weighted=True, lower_cutoff=M)
        return out

    total, tail_total = quadrature.integrate_with_breakpoints(
        integrand, [(lo, hi, cuts), (lo, hi, cuts[tail])])
    return total / (2.0 * epsilon), tail_total


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
                               scan_radius: float = 0.4) -> FrameReport:
    """Per-frequency bound verdicts plus the averaged remainder inequality at
    a few probe points, with the counting-scan constant feeding the remainder."""
    grid = np.asarray(xi_grid, dtype=float).ravel()
    gabor = family.metric.kind == GABOR_PRODUCT
    if not gabor and np.any(np.abs(grid) < EXCLUSION_RADIUS):
        raise RejectedInputError(
            f"grid touches the exclusion radius {EXCLUSION_RADIUS} around the identity")

    if family.is_continuous:
        values = np.array([ev.value for ev in calderon_sum(psihat, family, grid)])
    else:
        values = calderon_values(psihat, family, grid[:, None])
    passes = (values >= lower - BOUND_TOLERANCE) & (values <= upper + BOUND_TOLERANCE)

    counting_verdict = None
    constant = None
    remainder_rows: list[RemainderDiagnostic] = []
    if not family.is_continuous:
        # enumeration stays desk-scale below the distortion cap; the scan
        # certifies that probed sub-truncation
        scan_family = family.restrict(lambda _p, _lo, hi: hi <= SCAN_DISTORTION_CAP)
        scan = property_x_scan(scan_family, lattice, family.metric, scan_radius, M)
        counting_verdict = scan.verdict
        constant = scan.constant
        if scan.verdict == "holds":
            for i in sorted({0, grid.shape[0] // 2, grid.shape[0] - 1}):
                xi0 = float(grid[i])
                avg, tail = ball_integrals(psihat, family, xi0, epsilon, M)
                rem = constant * tail / (2.0 * epsilon)
                ok = lower <= avg + rem + REMAINDER_TOLERANCE
                remainder_rows.append(RemainderDiagnostic(xi0, epsilon, avg, rem,
                                                          constant, ok))
    return FrameReport(grid, values, lower, upper, passes,
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
