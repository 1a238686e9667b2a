"""Fourier-domain frame functional, the ball-indicator test functions and
unit-norm probes it reads as step rows `(edges, values)`, and the ball
integrals of the orbit sums: the parts that `runner` composes into the frame report.

The functional is evaluated exactly on one-dimensional frequency lines (the
Euclidean line and the Gabor modulation line k = 1), where every integrand is
polynomial between computable breakpoints.  Values for unit-norm inputs of a
tight system come out at the frame constant to machine precision, which is
what the acceptance checks lean on.

Each (f-hat, member) pair integrates only over a hull that holds where its
integrand can be nonzero: the shifted meets of psi-hat's connected components
with the member's image of f-hat's support, its first to last edge.
Rounding can carry a node just outside that hull across a breakpoint, so the
hull is widened by 16 eps times the magnitudes that enter a shifted node and
its preimage (domain ends, shift, offset, breakpoints) and then snapped outward
to one of the member's cuts or a domain end.  Every cell kept is then a cell of
the whole-domain rule, and every cell left out integrates to +0.0 there, so the
values are those of the whole-domain rule bit for bit.  The intervals of every
pair come from one stacked pass over the whole f-hat ensemble, each with only
its own pair's cuts, and the integrand reads each f-hat's step row once per
call, through `profiles.grid_lookup` as a one-axis grid, as psi-hat is read.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .automorphisms import AutomorphismFamily, line_action
# bench/tracer.py wraps calderon_sum in this namespace as well
from .calderon import calderon_sum, calderon_values, checked_squares  # noqa: F401
from .errors import RejectedInputError, check_bytes
from .metric_lattice import GABOR_PRODUCT, Lattice, MetricSpace
from .profiles import FrequencyProfile, grid_lookup

PROBE_MAX_PIECES = 8
PROBE_MAX_REJECTIONS = 1000  # draws in a row a probe may reject before its band is refused


def make_test_function(center, epsilon: float,
                       metric: MetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm frequency indicator of the ball at `center` of radius epsilon, as a step row.

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
    lo, hi = float(c[0]) - epsilon, float(c[0]) + epsilon
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RejectedInputError("unbounded declared support")
    if hi <= lo:  # c - epsilon rounds to c + epsilon
        raise RejectedInputError("empty or inverted box")
    # the interval measure 2 epsilon on the line (any line metric)
    return np.array([lo, hi]), np.array([1.0 / math.sqrt(2.0 * epsilon)])


# ---------------------------------------------------------------------------
# The functional
# ---------------------------------------------------------------------------

def _components(p: FrequencyProfile) -> np.ndarray:
    """(lo, hi) rows of the connected components of a 1-d profile's pieces,
    which hold every point where the profile can be nonzero."""
    lo, hi = (a[:, 0] for a in p.pieces)
    order = np.argsort(lo, kind="stable")
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    start = np.concatenate([[True], lo[1:] > reach[:-1]])
    return np.array([lo[start], reach[np.append(np.flatnonzero(start)[1:] - 1, -1)]])


def frame_functional(psihat: FrequencyProfile, family: AutomorphismFamily,
                     lattice: Lattice, fhats) -> np.ndarray:
    """The weighted double integral of the squared periodized product
    f-hat(orbit-preimage) * psi-hat over the fundamental domain, one value per
    step row in `fhats`: one quadrature interval per (f-hat, member) whose
    integrand can be nonzero, trimmed to where it can and built in one stacked
    pass, and one quadrature call whose integrand looks each f-hat up once."""
    fhats = list(fhats)
    if family.is_continuous:
        raise RejectedInputError("the functional is evaluated on atomic families")
    if psihat.dim != 1 or lattice.dim != 1:
        raise RejectedInputError("functional evaluation runs on 1-d frequency lines")

    omega_lo, omega_hi = (float(v[0]) for v in lattice.fundamental_box())
    psi_parts, psi_breaks = _components(psihat), psihat.breakpoints_1d()
    # every f-hat's edges padded to one width with their last entry: a repeat moves
    # no max or min below, and each interval gets only its own f-hat's columns
    n_b = max((e.size for e, _ in fhats), default=1)
    n_f, n_m = len(fhats), len(family.params)
    f_breaks = np.reshape([e.take(range(n_b), mode="clip") for e, _ in fhats], (n_f, n_b))

    scale, offset = line_action(family.members.matrices)
    weight, jacobian = family.members.weights, family.members.jacobians
    with np.errstate(over="ignore", invalid="ignore"):
        img_a, img_b = scale * f_breaks[:, :1] + offset, scale * f_breaks[:, -1:] + offset
    if not (np.isfinite(img_a).all() and np.isfinite(img_b).all()):
        raise RejectedInputError("orbit image of a test function overflows a float")
    # each member's image of each f-hat's support, the first to last breakpoint
    img_lo, img_hi = np.minimum(img_a, img_b), np.maximum(img_a, img_b)
    cap_lo, cap_hi = np.maximum(psi_parts[0, 0], img_lo), np.minimum(psi_parts[1, -1], img_hi)
    live = (cap_hi > cap_lo) & (weight != 0.0)
    k_lo, k_hi = lattice.integer_box(np.where(live, cap_lo - omega_hi, 0.0).reshape(-1, 1),
                                     np.where(live, cap_hi - omega_lo, 0.0).reshape(-1, 1))
    count = np.where(live, np.maximum(k_hi - k_lo + 1, 0).reshape(n_f, n_m), 0)
    width = int(count.max(initial=0))
    # the integer table, the shifts and the cuts per shift, which outnumber the
    # meets of psi-hat's components with the image of f-hat's support
    check_bytes(n_f * n_m * width, 8 * (2 + psi_breaks.size + n_b),
                f"{n_f * n_m} members' lattice shifts")
    shifts = (k_lo.reshape(n_f, n_m, 1) + np.arange(width)).astype(float) * lattice.basis[0, 0]

    # one row per (f-hat, member) pair with a shift, f-hat-major and member-ascending
    g, m = np.nonzero(count)
    n, s = count[g, m], shifts[g, m, :, None]
    on = (np.arange(width) < n[:, None])[..., None]
    sc, off = scale[m, None, None], offset[m, None, None]
    # where psi-hat's components meet the member's image of f-hat's support, shifted
    # and widened past the rounding of the integrand's shifted nodes and preimages
    with np.errstate(over="ignore"):  # an overflowing margin is refused just below
        margin = 16.0 * np.finfo(float).eps * (
            abs(omega_lo) + abs(omega_hi)
            + np.abs(s).max(axis=1, where=on, initial=0.0, keepdims=True) + np.abs(off)
            + np.abs(psi_breaks).max() + np.abs(sc) * np.abs(f_breaks).max(axis=1)[g, None, None])
    if not np.isfinite(margin).all():
        raise RejectedInputError("the rounding margin of the functional's nodes overflows a float")
    lo = np.maximum(psi_parts[0], img_lo[g, m, None, None]) - s - margin
    hi = np.minimum(psi_parts[1], img_hi[g, m, None, None]) - s + margin
    meet = on & (hi > lo)
    hull_lo = np.maximum(omega_lo, lo.min(axis=(1, 2), where=meet, initial=np.inf))
    hull_hi = np.minimum(omega_hi, hi.max(axis=(1, 2), where=meet, initial=-np.inf))
    # the pairs with a nonempty hull, snapped outward to one of their cuts, so
    # every kept cell is one of the untrimmed cells
    keep = hull_hi > hull_lo
    g, m, n, s, on, sc, off = (a[keep] for a in (g, m, n, s, on, sc, off))
    hull_lo, hull_hi = hull_lo[keep, None, None], hull_hi[keep, None, None]
    cuts = np.concatenate([np.broadcast_to(psi_breaks, (g.size, 1, psi_breaks.size)),
                           sc * f_breaks[g, None] + off], axis=2) - s
    t_lo = cuts.max(axis=(1, 2), where=on & (cuts <= hull_lo), initial=omega_lo)
    t_hi = cuts.min(axis=(1, 2), where=on & (cuts >= hull_hi), initial=omega_hi)
    own = psi_breaks.size + np.array([e.size for e, _ in fhats], dtype=np.intp)[g]
    intervals = [(t_lo[j], t_hi[j], cuts[j, :n[j], :own[j]].ravel()) for j in range(g.size)]

    def integrand(xi: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # nodes come interval by interval, f-hat-major: each f-hat's are one slice,
        # whose (node, shift index) pairs go shift-ascending, added from 0.0 in that order
        acc, ends = [np.empty(0)], np.searchsorted(g[owner], np.arange(n_f + 1)).tolist()
        for (edges, values), a, b in zip(fhats, ends, ends[1:]):
            if a == b:
                continue
            rows = owner[a:b]
            k, j = np.nonzero(np.arange(n[rows].max())[:, None] < n[rows])
            i, shifted = m[rows[j]], xi[a + j] + s[rows[j], k, 0]
            with np.errstate(over="ignore"):  # an overflowing preimage is refused just below
                pre = (shifted - offset[i]) / scale[i]
            if not np.isfinite(pre).all():
                raise RejectedInputError("a preimage of a shifted node overflows a float")
            acc.append(np.bincount(j, grid_lookup((edges,), np.append(values, 0.0), pre[:, None])
                                   * psihat.evaluate(shifted[:, None]), b - a))
        return checked_squares(np.concatenate(acc), "the functional's integrand")

    # a member left out integrates to +0.0, which adds nothing to a sum of
    # nonnegative terms; the rest are added in member order
    integrals = quadrature.integrate_with_breakpoints(integrand, intervals)
    values = [0.0] * n_f
    for f, i, integral in zip(g.tolist(), m.tolist(), integrals):
        values[f] += weight[i] * (integral / jacobian[i])
    return np.array(values)


# ---------------------------------------------------------------------------
# Ball averages of the orbit sums (the frame report's remainder probes)
# ---------------------------------------------------------------------------

def ball_integrals(psihat, family, centers, epsilon: float,
                   M: float) -> tuple[np.ndarray, np.ndarray]:
    """Per center: the average of the orbit sum over the interval ball of
    radius epsilon there, and the integral over that ball of the jacobian-
    weighted tail above M.  One quadrature call takes every ball twice, cut
    where the members (those above M for the tail) pull back the breakpoints
    of psi-hat; even intervals are plain sums, odd ones tails."""
    breaks = psihat.breakpoints_1d()
    scale, offset = line_action(family.members.matrices)
    with np.errstate(over="ignore"):  # an overflowing preimage is refused just below
        cuts = (breaks[None, :] - offset[:, None]) / scale[:, None]
    if not np.isfinite(cuts).all():
        raise RejectedInputError("a member's preimage of a psi-hat breakpoint overflows a float")
    tail = ~(family.members.upper <= M)

    def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        plain = owner % 2 == 0
        out[plain] = calderon_values(psihat, family, x[plain, None])
        out[~plain] = calderon_values(psihat, family, x[~plain, None],
                                      weighted=True, lower_cutoff=M)
        return out

    totals, tails = np.reshape(quadrature.integrate_with_breakpoints(
        integrand, [(c - epsilon, c + epsilon, part) for c in np.asarray(centers).tolist()
                    for part in (cuts, cuts[tail])]), (-1, 2)).T
    return totals / (2.0 * epsilon), tails


# ---------------------------------------------------------------------------
# The probe ensemble
# ---------------------------------------------------------------------------

def random_probe_ensemble(band_lo: float, band_hi: float, count: int,
                          seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic ensemble of unit-norm step rows on the band."""
    span = band_hi - band_lo  # positive exactly when band_hi > band_lo
    if not 0.0 < span < math.inf:
        raise RejectedInputError("empty probe band" if span <= 0 else
                                 f"probe band [{band_lo}, {band_hi}] is wider than a float")
    if count < 1:
        raise RejectedInputError("probe ensemble must be nonempty")
    rng, out = np.random.default_rng(seed), []
    while len(out) < count:
        for _ in range(PROBE_MAX_REJECTIONS):
            k = int(rng.integers(3, PROBE_MAX_PIECES + 1))
            edges = np.sort(rng.uniform(band_lo, band_hi, size=k + 1))
            if np.min(np.diff(edges)) < 1e-6 * span:
                continue
            vals = rng.normal(size=k)
            if np.max(np.abs(vals)) >= 1e-12:
                break
        else:
            raise RejectedInputError(f"probe band [{band_lo}, {band_hi}] is too narrow: "
                                     f"{PROBE_MAX_REJECTIONS} draws in a row had edges too close")
        with np.errstate(over="ignore"):  # an overflowing norm is refused just below
            n2 = float(np.dot(vals ** 2, edges[1:] - edges[:-1]))
        if not 0.0 < n2 < math.inf:
            raise RejectedInputError("cannot normalize a null profile" if n2 <= 0 else
                                     f"a probe's squared norm on [{band_lo}, {band_hi}] overflows")
        out.append((edges, vals * (1.0 / np.sqrt(n2))))
    return out
