"""Dual-automorphism families: jacobians, metric distortion, expansiveness.

An automorphism is an invertible matrix acting on frequency coordinates and
its jacobian, fixed at construction (the Gabor shift is the matrix
[[1, -p], [0, 1]] acting on (xi, k)).  Distortion constants are the optimal
factors squeezing the invariant metric from below and above, in closed form
for every metric: singular values for L2, row sums for L-infinity, the shift
size for the Gabor product.  A seeded direction-sampling oracle checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import RejectedInputError
from .metric_lattice import (EUCLIDEAN_L2, EUCLIDEAN_LINF, GABOR_PRODUCT,
                             MetricSpace, gabor_product, linear_box)

ORACLE_DIRECTIONS = 100_000
ORACLE_SEED = 7151
BISECT_TOL = 1e-12     # relative width at which a level-set crossing is cut
SLOPE_THRESHOLD = -0.5  # log-log decay of the lower constant that flags non-expansion
TIE_RTOL = 0.05        # lower constants this close form one tie group
EXPLOSION = 10.0       # growth factor that counts as collapse or blow-up evidence


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values (ascending): |m| for 1x1 (m*m may overflow), else from the
    eigenvalues of the Gram matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape == (1, 1):
        return np.abs(M[0])
    return np.sqrt(np.clip(np.linalg.eigvalsh(M.T @ M), 0.0, None))


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Automorphism:
    """Invertible linear map on frequency coordinates and its jacobian; without
    a closed form the jacobian is |m| in 1-d and |det| otherwise."""

    matrix: np.ndarray
    jacobian: float | None = None
    inv_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise RejectedInputError("automorphism matrix must be square")
        det = float(np.linalg.det(m)) if np.all(np.isfinite(m)) else 0.0
        if det == 0.0:
            raise RejectedInputError("automorphism matrix is singular")
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise RejectedInputError("automorphism matrix is singular") from exc
        if not np.all(np.isfinite(inv)):
            raise RejectedInputError("automorphism matrix is numerically singular")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inv_matrix", inv)
        if self.jacobian is None:  # 1-d: det goes through exp(log|m|), which rounds
            object.__setattr__(self, "jacobian", abs(float(m[0, 0])) if m.shape == (1, 1)
                               else abs(det))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T

    def inverse_apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.inv_matrix.T

    def box_image(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Interval-arithmetic bounding box of the image of [lo, hi]."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        center, half = linear_box(self.matrix, 0.5 * (lo + hi), 0.5 * (hi - lo))
        return center - half, center + half

    def line_action(self) -> tuple[float, float]:
        """Action on a one-dimensional frequency line as x -> scale*x + offset.

        A Gabor shift [[1, x], [0, 1]] translates the modulation line k = 1
        by x; a 1-d matrix is plain scaling.
        """
        if self.dim == 1:
            return float(self.matrix[0, 0]), 0.0
        offset = _shift_offset(self.matrix)
        if offset is None:
            raise RejectedInputError("no one-dimensional line action for this automorphism")
        return 1.0, offset


def _shift_offset(m: np.ndarray) -> float | None:
    """x of a Gabor shift matrix [[1, x], [0, 1]]; None for any other matrix."""
    if m.shape == (2, 2) and m[0, 0] == 1.0 and m[1, 0] == 0.0 and m[1, 1] == 1.0:
        return float(m[0, 1])
    return None


def matrix_automorphism(M) -> Automorphism:
    return Automorphism(M)


def matrix_power(base, exponent: int) -> Automorphism:
    b = np.atleast_2d(np.asarray(base, dtype=float))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.linalg.matrix_power(b, int(exponent))
    except np.linalg.LinAlgError as exc:
        raise RejectedInputError("matrix power base is singular or not square") from exc
    finite = np.all(np.isfinite(m))
    if not finite or (np.linalg.det(m) == 0.0 and np.linalg.det(b) != 0.0):
        raise RejectedInputError(f"matrix power {b.tolist()} ** {int(exponent)} "
                                 f"{'underflows' if finite else 'overflows'} a float")
    return Automorphism(m)


def shearlet(a: float, s: float) -> Automorphism:
    """Frequency-side shearlet map (a*x1, s*sqrt(a)*x1 + sqrt(a)*x2), jacobian a ** 1.5."""
    if a <= 0:
        raise RejectedInputError("shearlet scale must be positive")
    try:
        jacobian = float(a) ** 1.5
    except OverflowError:
        raise RejectedInputError(f"shearlet scale {a} overflows its jacobian a ** 1.5") from None
    ra = math.sqrt(a)
    return Automorphism(np.array([[a, 0.0], [s * ra, ra]]), jacobian)


def gabor_shift(p: float) -> Automorphism:
    """Dual Gabor action (xi, k) -> (xi - k*p, k), jacobian 1."""
    return Automorphism(np.array([[1.0, -float(p)], [0.0, 1.0]]), 1.0)


# ---------------------------------------------------------------------------
# Metric distortion constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzConstants:
    lower: float
    upper: float


def lipschitz_constants(auto: Automorphism, metric: MetricSpace) -> LipschitzConstants:
    """Optimal (lower, upper) metric distortion of the automorphism."""
    if metric.kind == GABOR_PRODUCT:
        shift = _shift_offset(auto.matrix)
        if shift is None:
            raise RejectedInputError("gabor_product distorts Gabor shifts [[1, x], [0, 1]] only")
        p = abs(shift)
        return LipschitzConstants(1.0 / (1.0 + p), 1.0 + p)
    if auto.dim != metric.dim:
        raise RejectedInputError("automorphism and metric dimensions disagree")
    if metric.kind == EUCLIDEAN_L2:
        # the smallest Gram eigenvalue is noise once cond(M)**2 nears 1/eps, so in
        # dim >= 2 the lower constant is 1 / sigma_max of the inverse
        sv = singular_values(auto.matrix)
        lower = sv[0] if auto.dim == 1 else 1.0 / singular_values(auto.inv_matrix)[-1]
        upper = float(sv[-1])
    elif metric.kind == EUCLIDEAN_LINF:
        upper = float(np.max(np.sum(np.abs(auto.matrix), axis=1)))
        lower = 1.0 / float(np.max(np.sum(np.abs(auto.inv_matrix), axis=1)))
    else:
        raise RejectedInputError(f"unsupported metric kind {metric.kind!r}")
    # exactly lower <= upper; through the inverse, c * I can round one ulp above
    return LipschitzConstants(min(float(lower), upper), upper)


def lipschitz_oracle(autos: Sequence[Automorphism], metric: MetricSpace,
                     n_directions: int = ORACLE_DIRECTIONS) -> list[tuple[float, float]]:
    """Inner approximation of each member's distortion constants by direction sampling.

    Returns one (max of observed lower ratios, min of observed upper ratios)
    pair per automorphism, as (oracle_lower, oracle_upper); the true constants
    satisfy lower <= oracle_lower and upper >= oracle_upper."""
    if metric.kind == GABOR_PRODUCT:
        return [_lipschitz_oracle_gabor(auto, n_directions) for auto in autos]
    rng = np.random.default_rng(ORACLE_SEED)  # every member reads the same draws
    dim = autos[0].dim
    sampled = _unit_rows(rng.normal(size=(n_directions, dim)), metric)
    # deterministic extremal candidates: axes, sign corners, their preimages
    # (max-norm extremizers sit at such points), and power-iteration refiners
    # (Euclidean extremizers); every candidate still only contributes an
    # attained ratio, so the estimate stays an inner approximation
    corners = np.stack(np.meshgrid(*[(-1.0, 1.0)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)
    special = np.concatenate([np.eye(dim), corners])
    bounds = []
    for auto, refiners in zip(autos, _power_iteration_directions(autos, rng)):
        extra = np.concatenate([special, auto.inverse_apply(special), refiners])
        # one product per member: BLAS bits depend on the batch shape
        ratios = metric.norm(auto.apply(np.concatenate([sampled, _unit_rows(extra, metric)])))
        bounds.append((float(np.min(ratios)), float(np.max(ratios))))
    return bounds


def _unit_rows(dirs: np.ndarray, metric: MetricSpace) -> np.ndarray:
    norms = metric.norm(dirs)
    keep = norms > 1e-12
    return dirs[keep] / norms[keep][:, None]


def _power_iteration_directions(autos: Sequence[Automorphism],
                                rng: np.random.Generator) -> np.ndarray:
    """Unit (grow, shrink) directions of every member, shape (n, 2, dim); numpy hands
    each stacked item to the BLAS and LAPACK calls of a per-member loop, bit for bit."""
    grams = np.stack([auto.matrix.T @ auto.matrix for auto in autos])
    v = rng.normal(size=(2, grams.shape[-1]))  # the grow and shrink starts
    for _ in range(60):
        v = np.stack([np.matmul(grams, v[..., 0, :, None]),
                      np.linalg.solve(grams, v[..., 1, :, None])], axis=1)[..., 0]
        v /= np.sqrt(np.matmul(v[..., None, :], v[..., None]))[..., 0]
    return v


def _lipschitz_oracle_gabor(auto: Automorphism, n_points: int) -> tuple[float, float]:
    # Ratios on the k = 0 slice are 1; it suffices to scan the k = 1 slice
    # scaled by |k|, plus the slice anchors.
    p = -float(auto.matrix[0, 1])
    rng = np.random.default_rng(ORACLE_SEED)
    span = 2.0 * (1.0 + abs(p)) + 1.0
    xs = np.concatenate([rng.uniform(-span, span, n_points), [0.0, p, -p]])
    ratios = (np.abs(xs - p) + 1.0) / (np.abs(xs) + 1.0)
    return min(float(np.min(ratios)), 1.0), max(float(np.max(ratios)), 1.0)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyMember:
    """One parameter of a family with everything consumers read from it."""

    param: object
    auto: Automorphism
    lower: float
    upper: float
    jacobian: float
    weight: float


@dataclass(frozen=True)
class AutomorphismFamily:
    """Indexed family of dual automorphisms with weights and a metric.

    `params` lists the parameters in member order.  With cell `edges` the
    family is continuous and `weight` is a density on the parameter axis;
    otherwise `weight` is an atom mass.  `base` marks the power range
    base ** j of `matrix_power_family`, whose ends certify truncations.
    `members` materialises every parameter once, on first use; only
    `weight_of` serves parameters outside that table (the quadrature nodes of
    continuous families).
    """

    params: tuple
    generator: Callable
    weight: Callable[..., float]
    metric: MetricSpace
    edges: np.ndarray | None = None
    base: np.ndarray | None = None

    def __post_init__(self):
        if len(self.params) == 0:
            raise RejectedInputError("empty parameter set")

    @property
    def is_continuous(self) -> bool:
        return self.edges is not None

    def weight_of(self, param) -> float:
        w = self.weight(*param) if isinstance(param, tuple) else self.weight(param)
        if w < 0:
            raise RejectedInputError("weights must be nonnegative")
        return float(w)

    @cached_property
    def members(self) -> tuple[FamilyMember, ...]:
        """Automorphism, distortion constants, jacobian and checked weight of
        every parameter, in `params` order."""
        rows = []
        for param in self.params:
            auto = self.generator(*param) if isinstance(param, tuple) else self.generator(param)
            c = lipschitz_constants(auto, self.metric)
            rows.append(FamilyMember(param, auto, c.lower, c.upper,
                                     auto.jacobian, self.weight_of(param)))
        return tuple(rows)

    @cached_property
    def base_constants(self) -> LipschitzConstants:
        """Distortion constants of one power step `base` (power ranges only)."""
        return lipschitz_constants(matrix_automorphism(self.base), self.metric)

    def member(self, param) -> FamilyMember:
        for m in self.members:
            if m.param == param:
                return m
        raise RejectedInputError(f"parameter {param!r} is not in the family")

    def above(self, M: float) -> list[FamilyMember]:
        """Members with L(h) > M in distortion order: by upper constant, ties
        broken by the parameter's string form."""
        return sorted((m for m in self.members if m.upper > M),
                      key=lambda m: (m.upper, str(m.param)))

    def continuous_domain(self) -> tuple[float, float]:
        if not self.is_continuous:
            raise RejectedInputError("family has no continuous parameter domain")
        return float(self.edges[0]), float(self.edges[-1])

    def restrict(self, keep: Callable[..., bool]) -> "AutomorphismFamily":
        """Atomic subfamily of the parameters passing the predicate
        keep(param, lower, upper)."""
        if self.is_continuous:
            raise RejectedInputError("restrict applies to atomic families; "
                                     "continuous families split by level sets")
        kept = tuple(m for m in self.members if keep(m.param, m.lower, m.upper))
        if not kept:
            raise RejectedInputError("restriction removed every parameter")
        sub = AutomorphismFamily(tuple(m.param for m in kept), self.generator,
                                 self.weight, self.metric)
        sub.__dict__["members"] = kept  # the subfamily shares the built rows
        return sub

    def level_set_intervals(self, lower: float, upper: float) -> list[tuple[float, float]]:
        """Parameter intervals where lower <= L(a) <= upper (continuous families).

        Continuous families are dilations [[a]] with a > 0 (see
        `continuous_dilation_family`), so L(a) = a in both metrics.  Cells
        inside the band are kept whole; the others are bracketed on a 5-point
        grid with bisection at the crossings.
        """
        if not self.is_continuous:
            raise RejectedInputError("level sets need a continuous index set")

        def inside(a: float) -> bool:
            return lower <= a <= upper

        edges = self.edges
        out: list[tuple[float, float]] = []
        for a0, a1 in zip(edges[:-1], edges[1:]):
            if a1 < lower or a0 > upper:
                continue
            if lower <= a0 and a1 <= upper:
                out.append((float(a0), float(a1)))
                continue
            grid = np.linspace(a0, a1, 5)
            flags = [inside(float(g)) for g in grid]
            cursor = None
            for g0, g1, f0, f1 in zip(grid[:-1], grid[1:], flags[:-1], flags[1:]):
                if f0 and cursor is None:
                    cursor = float(g0)
                if f0 != f1:
                    cut = _bisect_flag(inside, float(g0), float(g1), f0)
                    if f0:
                        out.append((cursor if cursor is not None else float(g0), cut))
                        cursor = None
                    else:
                        cursor = cut
            if flags[-1] and cursor is not None:
                out.append((cursor, float(grid[-1])))
                cursor = None
        return _merge_intervals(out)


def _bisect_flag(flag: Callable[[float], bool], lo: float, hi: float,
                 lo_value: bool) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECT_TOL * max(1.0, abs(mid)):
            return mid
        if flag(mid) == lo_value:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        plo, phi = merged[-1]
        if lo <= phi + 1e-12:
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return [(lo, hi) for lo, hi in merged if hi > lo]


def matrix_power_family(base, j_min: int, j_max: int, metric: MetricSpace,
                        weight: Callable[[int], float] = lambda j: 1.0) -> AutomorphismFamily:
    b = np.atleast_2d(np.asarray(base, dtype=float))
    return AutomorphismFamily(tuple(range(j_min, j_max + 1)), lambda j: matrix_power(b, j),
                              weight, metric, base=b)


def shearlet_grid_family(a_values: Sequence[float], s_values: Sequence[float],
                         metric: MetricSpace,
                         weight: Callable[[float, float], float] = lambda a, s: 1.0
                         ) -> AutomorphismFamily:
    params = tuple((float(a), float(s)) for a in a_values for s in s_values)
    return AutomorphismFamily(params, lambda a, s: shearlet(a, s), weight, metric)


def gabor_shift_family(p_values: Sequence[float],
                       weight: Callable[[float], float] = lambda p: 1.0) -> AutomorphismFamily:
    return AutomorphismFamily(tuple(float(p) for p in p_values), lambda p: gabor_shift(p),
                              weight, gabor_product())


def continuous_dilation_family(lo: float, hi: float, n_cells: int,
                               metric: MetricSpace,
                               weight: Callable[[float], float] = lambda a: 1.0
                               ) -> AutomorphismFamily:
    """Dilations [[a]] over a in [lo, hi], with `weight` a density on n_cells
    geometric cells.  This is the only constructor that passes cell edges, so
    every continuous family has L(a) = jacobian(a) = a, which its level sets
    and orbit integrals read directly."""
    if not (0 < lo < hi):
        raise RejectedInputError("dilation domain must satisfy 0 < lo < hi")
    edges = np.geomspace(lo, hi, n_cells + 1)
    if np.any(np.diff(edges) <= 0):
        raise RejectedInputError("edges must be strictly increasing")
    points = np.sqrt(edges[:-1]) * np.sqrt(edges[1:])  # the product over/underflows first
    return AutomorphismFamily(tuple(float(p) for p in points),
                              lambda a: matrix_automorphism([[a]]), weight, metric, edges=edges)


# ---------------------------------------------------------------------------
# Expansiveness classification (finite truncations only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneEnvelope:
    """Monotone least-concave majorant of an (lower, upper)-constant cloud."""

    xs: np.ndarray
    ys: np.ndarray

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.xs, self.ys)


@dataclass(frozen=True)
class ExpansivenessVerdict:
    verdict: str  # "uniformly_expanding" | "expanding" | "non_expanding"
    probe_m: float
    witness: object | None = None
    witness_constants: tuple[float, float] | None = None
    envelope: MonotoneEnvelope | None = None
    note: str = "verdict certifies the probed truncation only"


def _monotone_concave_majorant(points: list[tuple[float, float]]) -> MonotoneEnvelope:
    pts = sorted(points)
    hull: list[tuple[float, float]] = []
    for x, y in pts:
        if hull and abs(hull[-1][0] - x) < 1e-15:
            hull[-1] = (x, max(hull[-1][1], y))
            continue
        hull.append((x, y))
        # keep the upper hull (concave majorant)
        while len(hull) >= 3:
            (x0, y0), (x1, y1), (x2, y2) = hull[-3:]
            if (y1 - y0) * (x2 - x1) <= (y2 - y1) * (x1 - x0):
                hull.pop(-2)
            else:
                break
    xs = np.array([p[0] for p in hull])
    ys = np.maximum.accumulate(np.array([p[1] for p in hull]))
    return MonotoneEnvelope(xs, ys)


def classify_expansiveness(family: AutomorphismFamily,
                           probe_m: float | None = None) -> ExpansivenessVerdict:
    """Classify a probed family by its distortion-constant cloud.

    Evidence rules on the truncation: the family is flagged non-expanding
    when the lower constant collapses (by `EXPLOSION`) somewhere at
    non-smaller upper constant, or when the lower constant decays against the
    upper one at log-log slope below `SLOPE_THRESHOLD` on the tail.  Without
    such evidence the tail cloud gets a monotone concave majorant; ties in
    the lower constant carrying an upper-constant spread above `EXPLOSION`
    demote the verdict from uniformly_expanding to expanding.
    """
    members = family.members
    for t in members:
        if not (0 < t.lower <= t.upper):
            raise RejectedInputError("invalid distortion constants in family")

    # default tail starts at the lower quartile: collapse evidence often sits
    # at moderate distortion, and verdicts are truncation-scoped anyway
    m = (float(np.quantile([t.upper for t in members], 0.25)) if probe_m is None
         else float(probe_m))
    tail = [t for t in members if t.upper > m] or list(members)
    lows = np.array([t.lower for t in tail])
    his = np.array([t.upper for t in tail])

    # (A) lower-constant collapse at non-decreasing upper constant: against the
    # largest lower constant up to it in distortion order (EXPLOSION > 1, so no
    # member collapses against its own)
    by_upper = lows[sorted(range(len(tail)), key=lambda i: (his[i], str(tail[i].param)))]
    collapsed = by_upper[by_upper * EXPLOSION <= np.maximum.accumulate(by_upper)]
    witness_lo = float(collapsed.min()) if collapsed.size else None
    if witness_lo is None and lows.size >= 4:
        # also catch collapse carried by the extreme tail against the bulk
        argmin = int(np.argmin(lows))
        if (lows[argmin] * EXPLOSION <= float(np.median(np.delete(lows, argmin)))
                and his[argmin] >= float(np.median(his))):
            witness_lo = float(lows[argmin])

    # (B) log-log decay of the lower constant along the tail
    if witness_lo is None and len(tail) >= 3:
        logs_u, logs_l = np.log(his), np.log(lows)
        if logs_u.max() - logs_u.min() > math.log(1.5):
            if float(np.polyfit(logs_u, logs_l, 1)[0]) <= SLOPE_THRESHOLD:
                witness_lo = float(lows[int(np.argmin(logs_l))])

    if witness_lo is not None:
        # deterministic tie-break: smallest lower constant, then last parameter
        chosen = max((t for t in tail if t.lower <= witness_lo * (1 + 1e-12)),
                     key=lambda t: str(t.param))
        return ExpansivenessVerdict("non_expanding", m, chosen.param,
                                    (chosen.lower, chosen.upper))

    # distinguish an envelope-compatible tail from one with lower-constant ties:
    # a group runs from its smallest lower constant lo to every one <= lo * (1 + TIE_RTOL)
    order = np.argsort(lows, kind="stable")
    lows, his = lows[order], his[order]
    i = 0
    while i < len(tail):
        end = int(np.searchsorted(lows, lows[i] * (1 + TIE_RTOL), side="right"))
        if his[i:end].max() >= EXPLOSION * his[i:end].min():
            return ExpansivenessVerdict("expanding", m)
        i = end
    envelope = _monotone_concave_majorant([(t.lower, t.upper) for t in tail])
    return ExpansivenessVerdict("uniformly_expanding", m, envelope=envelope)


# ---------------------------------------------------------------------------
# Mass of distortion level bands (local-integrability criterion input)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandMassProfile:
    t_grid: np.ndarray
    values: np.ndarray
    cap: float
    bounded: bool
    max_value: float
    note: str = "boundedness asserted on the sampled range only"


def band_mass_profile(family: AutomorphismFamily, envelope: Callable[[float], float],
                      c: float, t_grid: Sequence[float], M: float,
                      cap: float = 1e6) -> BandMassProfile:
    """Mass assigned to {h : t <= L(h) <= envelope(c*t)} for each probed t.

    Continuous index sets integrate the weight density over the level band;
    atomic index sets sum their masses.  The envelope must be monotone
    nondecreasing on the probed range.
    """
    if c <= 1.0:
        raise RejectedInputError("band factor c must exceed one")
    ts = np.asarray(t_grid, dtype=float)
    if ts.size == 0 or np.any(ts < M):
        raise RejectedInputError("t grid must lie in [M, infinity)")
    probes = np.sort(np.concatenate([ts, c * ts]))
    env_vals = np.array([envelope(float(t)) for t in probes])
    if np.any(np.diff(env_vals) < -1e-9 * np.maximum(1.0, np.abs(env_vals[:-1]))):
        raise RejectedInputError("envelope is not monotone on the probed range")

    values = np.empty(ts.shape)
    if family.is_continuous:
        for i, t in enumerate(ts):
            hi = float(envelope(float(c * t)))
            total = 0.0
            for a0, a1 in family.level_set_intervals(float(t), hi):
                total += quadrature.integrate_box(
                    lambda x: np.array([family.weight_of(float(v)) for v in x[:, 0]]),
                    [a0], [a1], cells_per_axis=4)
            values[i] = total
    else:
        uppers = np.array([m.upper for m in family.members])
        masses = np.array([m.weight for m in family.members])
        for i, t in enumerate(ts):
            hi = float(envelope(float(c * t)))
            mask = (uppers >= t) & (uppers <= hi)
            values[i] = float(np.sum(masses[mask]))

    max_value = float(np.max(values))
    return BandMassProfile(ts, values, cap, bool(max_value <= cap), max_value)
