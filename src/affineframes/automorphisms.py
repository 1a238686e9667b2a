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
from .metric_lattice import EUCLIDEAN_L2, GABOR_PRODUCT, MetricSpace, gabor_product, linear_box

ORACLE_DIRECTIONS = 100_000
ORACLE_SEED = 7151
ORACLE_BLOCK = 1 << 20  # floats in one block of the stacked Gabor oracle
BISECT_TOL = 1e-12     # relative width at which a level-set crossing is cut
SLOPE_THRESHOLD = -0.5  # log-log decay of the lower constant that flags non-expansion
TIE_RTOL = 0.05        # lower constants this close form one tie group
EXPLOSION = 10.0       # growth factor that counts as collapse or blow-up evidence


def _largest_singular_values(matrices: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        grams = np.matmul(matrices.transpose(0, 2, 1), matrices)
    if not np.all(np.isfinite(grams)):
        raise RejectedInputError("L2 distortion constants: a Gram matrix M^T M overflows a float")
    return np.sqrt(np.clip(np.linalg.eigvalsh(grams)[:, -1], 0.0, None))


def _all_shifts(matrices: np.ndarray) -> bool:
    """Whether every matrix of an (n, d, d) stack is a Gabor shift [[1, x], [0, 1]]."""
    return matrices.shape[1:] == (2, 2) and bool(
        np.all(matrices[:, [0, 1, 1], [0, 0, 1]] == [1.0, 0.0, 1.0]))


def _check_maps(matrices: np.ndarray, jacobians: Sequence[float | None],
                metric: MetricSpace | None = None) -> tuple:
    """(inverses, jacobians, lower, upper) of an (n, d, d) stack of maps, refused at any
    map's fault.  A jacobian None is |m| in 1-d and |det| otherwise; constants need a metric."""
    if matrices.shape[1] != matrices.shape[2]:
        raise RejectedInputError("automorphism matrix must be square")
    with np.errstate(over="ignore"):  # an overflowing det is refused as a jacobian below
        det = np.linalg.det(matrices) if np.all(np.isfinite(matrices)) else np.zeros(1)
    if np.any(det == 0.0):
        raise RejectedInputError("automorphism matrix is singular")
    inverses = np.linalg.inv(matrices)  # det and inv factor alike: no singular map gets here
    if not np.all(np.isfinite(inverses)):
        raise RejectedInputError("automorphism matrix is numerically singular")
    rule = np.abs(matrices[:, 0, 0] if matrices.shape[1] == 1 else det)  # 1-d: det rounds
    jacobians = np.array([r if j is None else j for r, j in zip(rule.tolist(), jacobians)])
    if not np.all(np.isfinite(jacobians)):
        jacobian = jacobians[~np.isfinite(jacobians)][0]
        raise RejectedInputError(f"automorphism jacobian {jacobian} overflows a float")
    constants = (None, None) if metric is None else lipschitz_constants(matrices, inverses, metric)
    return inverses, jacobians, *constants


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Automorphism:
    """Invertible linear map on frequency coordinates and its jacobian, via `_check_maps`."""

    matrix: np.ndarray
    jacobian: float | None = None
    inv_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        inverses, jacobians, _, _ = _check_maps(m[None], [self.jacobian])
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inv_matrix", inverses[0])
        object.__setattr__(self, "jacobian", float(jacobians[0]))

    def box_image(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Interval-arithmetic bounding box of the image of [lo, hi]."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        center, half = linear_box(self.matrix, 0.5 * (lo + hi), 0.5 * (hi - lo))
        return center - half, center + half


def line_action(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of an (n, d, d) stack, its action x -> scale*x + offset on a
    one-dimensional frequency line: a 1-d matrix is plain scaling, and a Gabor
    shift [[1, x], [0, 1]] translates the modulation line k = 1 by x."""
    if matrices.shape[1:] == (1, 1):
        return matrices[:, 0, 0], np.zeros(matrices.shape[0])
    if not _all_shifts(matrices):
        raise RejectedInputError("no one-dimensional line action for this automorphism")
    return np.ones(matrices.shape[0]), matrices[:, 0, 1]


def matrix_power(base, exponent: int) -> tuple[np.ndarray, None]:
    b = np.atleast_2d(np.asarray(base, dtype=float))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.linalg.matrix_power(b, int(exponent))
    except np.linalg.LinAlgError as exc:
        raise RejectedInputError("matrix power base is singular or not square") from exc
    finite = np.all(np.isfinite(m))
    with np.errstate(over="ignore"):
        vanishes = finite and np.linalg.det(m) == 0.0 and np.linalg.det(b) != 0.0
    if not finite or vanishes:
        raise RejectedInputError(f"matrix power {b.tolist()} ** {int(exponent)} "
                                 f"{'underflows' if finite else 'overflows'} a float")
    return m, None


def shearlet(a: float, s: float) -> tuple[np.ndarray, float]:
    """Frequency-side shearlet map (a*x1, s*sqrt(a)*x1 + sqrt(a)*x2), jacobian a ** 1.5."""
    if a <= 0:
        raise RejectedInputError("shearlet scale must be positive")
    try:
        jacobian = float(a) ** 1.5
    except OverflowError:
        raise RejectedInputError(f"shearlet scale {a} overflows its jacobian a ** 1.5") from None
    ra = math.sqrt(a)
    return np.array([[a, 0.0], [s * ra, ra]]), jacobian


def gabor_shift(p: float) -> tuple[np.ndarray, float]:
    """Dual Gabor action (xi, k) -> (xi - k*p, k), jacobian 1."""
    return np.array([[1.0, -float(p)], [0.0, 1.0]]), 1.0


# ---------------------------------------------------------------------------
# Metric distortion constants
# ---------------------------------------------------------------------------

def _check_closed_form(matrices: np.ndarray, metric: MetricSpace) -> None:
    """Refuse an (n, d, d) stack whose distortion has no closed form in `metric`."""
    if metric.kind == GABOR_PRODUCT and not _all_shifts(matrices):
        raise RejectedInputError("gabor_product distorts Gabor shifts [[1, x], [0, 1]] only")
    if matrices.shape[-1] != metric.dim:
        raise RejectedInputError("automorphism and metric dimensions disagree")


def lipschitz_constants(matrices: np.ndarray, inverses: np.ndarray,
                        metric: MetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (lower, upper) metric distortion of every map of the (n, d, d)
    stack `matrices`, whose inverses are `inverses`."""
    _check_closed_form(matrices, metric)
    if metric.kind == GABOR_PRODUCT:
        p = np.abs(matrices[:, 0, 1])
        return 1.0 / (1.0 + p), 1.0 + p
    if metric.kind == EUCLIDEAN_L2 and metric.dim == 1:
        lower = upper = np.abs(matrices[:, 0, 0])
    elif metric.kind == EUCLIDEAN_L2:
        # the smallest Gram eigenvalue is noise once cond(M)**2 nears 1/eps, so in
        # dim >= 2 the lower constant is 1 / sigma_max of the inverse
        upper = _largest_singular_values(matrices)
        lower = 1.0 / _largest_singular_values(inverses)
    else:  # L-infinity, as MetricSpace admits no other kind
        with np.errstate(over="ignore"):  # an overflow is refused just below
            sums = np.abs(np.stack([matrices, inverses])).sum(axis=3).max(axis=2)
        if not np.all(np.isfinite(sums)):
            raise RejectedInputError(
                "L-infinity distortion constants: a row sum of |M| or |M^-1| overflows a float")
        upper, lower = sums[0], 1.0 / sums[1]
    # exactly lower <= upper; through the inverse, c * I can round one ulp above
    return np.minimum(lower, upper), upper


def lipschitz_oracle(matrices: np.ndarray, inverses: np.ndarray, metric: MetricSpace,
                     n_directions: int = ORACLE_DIRECTIONS) -> tuple[np.ndarray, np.ndarray]:
    """Inner approximation of each map's distortion constants by direction sampling.

    Returns (max of observed lower ratios, min of observed upper ratios) as
    arrays (oracle_lower, oracle_upper) over the (n, d, d) stacks; the true
    constants satisfy lower <= oracle_lower and upper >= oracle_upper."""
    if metric.kind == GABOR_PRODUCT:
        # ratios on the k = 0 slice are 1; it suffices to scan the k = 1 slice
        # times |k|, plus the slice anchors 0, p and -p, in blocks of members
        u = np.random.default_rng(ORACLE_SEED).random(n_directions)
        p = -matrices[:, 0, 1, None]
        lower, upper = np.empty(len(p)), np.empty(len(p))
        rows = max(1, ORACLE_BLOCK // (n_directions + 3))
        for s in range(0, len(p), rows):
            q = p[s:s + rows]
            span = 2.0 * (1.0 + np.abs(q)) + 1.0
            xs = np.concatenate([-span + (span + span) * u, np.zeros_like(q), q, -q], axis=1)
            ratios = (np.abs(xs - q) + 1.0) / (np.abs(xs) + 1.0)
            lower[s:s + rows], upper[s:s + rows] = ratios.min(axis=1), ratios.max(axis=1)
        return np.minimum(lower, 1.0), np.maximum(upper, 1.0)
    rng = np.random.default_rng(ORACLE_SEED)  # every member reads the same draws
    dim = matrices.shape[-1]
    sampled = _unit_rows(rng.normal(size=(n_directions, dim)), metric)
    # deterministic extremal candidates: axes, sign corners, their preimages
    # (max-norm extremizers sit at such points), and power-iteration refiners
    # (Euclidean extremizers); every candidate still only contributes an
    # attained ratio, so the estimate stays an inner approximation
    corners = np.stack(np.meshgrid(*[(-1.0, 1.0)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)
    special = np.concatenate([np.eye(dim), corners])
    bounds = []
    for m, inv, refiners in zip(matrices, inverses, _power_iteration_directions(matrices, rng)):
        extra = np.concatenate([special, special @ inv.T, refiners])
        # one product per member: BLAS bits depend on the batch shape
        ratios = metric.norm(np.concatenate([sampled, _unit_rows(extra, metric)]) @ m.T)
        bounds.append((float(np.min(ratios)), float(np.max(ratios))))
    return tuple(np.array(bounds).T)


def _unit_rows(dirs: np.ndarray, metric: MetricSpace) -> np.ndarray:
    norms = metric.norm(dirs)
    keep = norms > 1e-12
    return dirs[keep] / norms[keep][:, None]


def _power_iteration_directions(matrices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit (grow, shrink) directions, shape (n, 2, d), of an (n, d, d) stack; numpy
    hands each item to the BLAS and LAPACK calls of a per-member loop, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        grams = np.matmul(matrices.transpose(0, 2, 1), matrices)
    if not np.all(np.isfinite(grams)):
        raise RejectedInputError("direction oracle: a Gram matrix M^T M overflows a float")
    v = rng.normal(size=(2, grams.shape[-1]))  # the grow and shrink starts
    try:
        for _ in range(60):
            v = np.stack([np.matmul(grams, v[..., 0, :, None]),
                          np.linalg.solve(grams, v[..., 1, :, None])], axis=1)[..., 0]
            v /= np.sqrt(np.matmul(v[..., None, :], v[..., None]))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise RejectedInputError("direction oracle: a member's Gram matrix is singular "
                                 "in floating point") from exc
    return v


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemberTable:
    """Every member of a family, one row per parameter in `params` order."""

    matrices: np.ndarray     # (n, d, d)
    inverses: np.ndarray     # (n, d, d)
    jacobians: np.ndarray
    lower: np.ndarray        # distortion constants
    upper: np.ndarray
    weights: np.ndarray      # checked weights


@dataclass(frozen=True)
class AutomorphismFamily:
    """Indexed family of dual automorphisms with weights and a metric.

    `params` lists the parameters in member order; `generator` makes one's
    matrix and closed-form jacobian (or None).  With cell `edges` the family
    is continuous and `weight` is a density on the parameter axis; otherwise
    `weight` is an atom mass.  `base` marks the power range base ** j of
    `matrix_power_family`, whose ends certify truncations.  `members`
    materialises every parameter once, on first use; only `weight_of` serves
    parameters outside that table (the quadrature nodes of continuous families).
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
    def members(self) -> MemberTable:
        """The member table, the maps of all parameters checked as one stack."""
        def make(param) -> tuple[np.ndarray, float | None]:
            matrix, jacobian = self.generator(*(param if isinstance(param, tuple) else (param,)))
            return np.atleast_2d(np.asarray(matrix, dtype=float)), jacobian
        try:
            matrices, jacobians = zip(*map(make, self.params))
            stack = np.stack(matrices)
            table = MemberTable(stack, *_check_maps(stack, jacobians, self.metric),
                                np.array([self.weight_of(param) for param in self.params]))
        except Exception:  # again one member at a time, so the first at fault raises
            for param in self.params:
                matrix, jacobian = make(param)
                _check_maps(matrix[None], [jacobian], self.metric)
                self.weight_of(param)
            raise
        return table

    @cached_property
    def base_constants(self) -> tuple[float, float]:
        """Distortion constants (lower, upper) of one power step `base`."""
        _, _, lower, upper = _check_maps(self.base[None], [None], self.metric)
        return float(lower[0]), float(upper[0])

    def member(self, param) -> Automorphism:
        """One parameter's map, built from its row of the member table."""
        if param not in self.params:
            raise RejectedInputError(f"parameter {param!r} is not in the family")
        i = self.params.index(param)
        return Automorphism(self.members.matrices[i], self.members.jacobians[i])

    def above(self, M: float) -> np.ndarray:
        """Rows with L(h) > M in distortion order: by upper constant, ties
        broken by the parameter's string form."""
        upper = self.members.upper
        return np.array(sorted(np.flatnonzero(upper > M).tolist(),
                               key=lambda i: (upper[i], str(self.params[i]))), dtype=np.intp)

    def continuous_domain(self) -> tuple[float, float]:
        if not self.is_continuous:
            raise RejectedInputError("family has no continuous parameter domain")
        return float(self.edges[0]), float(self.edges[-1])

    def level_set_intervals(self, lower: float, upper: float) -> list[tuple[float, float]]:
        """The parameter interval where lower <= L(a) <= upper, as a list of at
        most one (lo, hi) (continuous families).

        Continuous families are dilations [[a]] with a > 0 (see
        `continuous_dilation_family`), so L(a) = a in both metrics and the
        level set is one interval.  An end inside the domain is bisected within
        its step of a 5-point grid on its cell.  That grid, `BISECT_TOL` and
        `_bisect_flag` stay only to reproduce the pinned band masses of the
        cell walk this replaced; the exact ends are `lower` and `upper`.
        """
        if not self.is_continuous:
            raise RejectedInputError("level sets need a continuous index set")
        edges = self.edges
        if upper < edges[0] or lower > edges[-1]:
            return []
        lo = float(edges[0]) if lower <= edges[0] else _bisect_end(edges, lower, "left")
        hi = float(edges[-1]) if upper >= edges[-1] else _bisect_end(edges, upper, "right")
        return [(lo, hi)] if hi > lo else []


def _bisect_end(edges: np.ndarray, end: float, side: str) -> float:
    """Bisect a level-set end inside the domain: side "left" cuts lower <= a at
    `end` = lower, side "right" cuts a <= upper at `end` = upper.  searchsorted
    on `side` picks the cell and the step of its grid that hold the cut."""
    cell = int(np.searchsorted(edges, end, side=side))
    grid = np.linspace(edges[cell - 1], edges[cell], 5)
    step = int(np.searchsorted(grid, end, side=side))
    g0, g1 = float(grid[step - 1]), float(grid[step])
    if side == "left":
        return _bisect_flag(lambda a: end <= a, g0, g1, False)
    return _bisect_flag(lambda a: a <= end, g0, g1, True)


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
                              lambda a: ([[a]], None), weight, metric, edges=edges)


# ---------------------------------------------------------------------------
# Expansiveness classification (finite truncations only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneEnvelope:
    """Monotone least-concave majorant of an (lower, upper)-constant cloud."""

    xs: np.ndarray
    ys: np.ndarray


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
    t = family.members
    if not np.all((0 < t.lower) & (t.lower <= t.upper)):
        raise RejectedInputError("invalid distortion constants in family")

    # default tail starts at the lower quartile: collapse evidence often sits
    # at moderate distortion, and verdicts are truncation-scoped anyway
    m = float(np.quantile(t.upper, 0.25)) if probe_m is None else float(probe_m)
    ordered = family.above(m if np.any(t.upper > m) else -np.inf)
    tail = np.sort(ordered)  # member order
    lows, his = t.lower[tail], t.upper[tail]

    # (A) lower-constant collapse at non-decreasing upper constant: against the
    # largest lower constant up to it in distortion order (EXPLOSION > 1, so no
    # member collapses against its own)
    by_upper = t.lower[ordered]
    collapsed = by_upper[by_upper * EXPLOSION <= np.maximum.accumulate(by_upper)]
    witness_lo = float(collapsed.min()) if collapsed.size else None
    if witness_lo is None and lows.size >= 4:
        # also catch collapse carried by the extreme tail against the bulk
        argmin = int(np.argmin(lows))
        if (lows[argmin] * EXPLOSION <= float(np.median(np.delete(lows, argmin)))
                and his[argmin] >= float(np.median(his))):
            witness_lo = float(lows[argmin])

    # (B) log-log decay of the lower constant along the tail
    if witness_lo is None and tail.size >= 3:
        logs_u, logs_l = np.log(his), np.log(lows)
        if logs_u.max() - logs_u.min() > math.log(1.5):
            if float(np.polyfit(logs_u, logs_l, 1)[0]) <= SLOPE_THRESHOLD:
                witness_lo = float(lows[int(np.argmin(logs_l))])

    if witness_lo is not None:
        # deterministic tie-break: smallest lower constant, then last parameter
        chosen = max(tail[lows <= witness_lo * (1 + 1e-12)].tolist(),
                     key=lambda i: str(family.params[i]))
        return ExpansivenessVerdict("non_expanding", m, family.params[chosen],
                                    (float(t.lower[chosen]), float(t.upper[chosen])))

    # distinguish an envelope-compatible tail from one with lower-constant ties:
    # a group runs from its smallest lower constant lo to every one <= lo * (1 + TIE_RTOL)
    order = np.argsort(lows, kind="stable")
    lows, his = lows[order], his[order]
    i = 0
    while i < tail.size:
        end = int(np.searchsorted(lows, lows[i] * (1 + TIE_RTOL), side="right"))
        if his[i:end].max() >= EXPLOSION * his[i:end].min():
            return ExpansivenessVerdict("expanding", m)
        i = end
    envelope = _monotone_concave_majorant(list(zip(lows.tolist(), his.tolist())))
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
        uppers, masses = family.members.upper, family.members.weights
        for i, t in enumerate(ts):
            hi = float(envelope(float(c * t)))
            mask = (uppers >= t) & (uppers <= hi)
            values[i] = float(np.sum(masses[mask]))

    max_value = float(np.max(values))
    return BandMassProfile(ts, values, cap, bool(max_value <= cap), max_value)
