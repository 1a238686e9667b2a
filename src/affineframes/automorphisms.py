"""Dual-automorphism families: jacobians, metric distortion, expansiveness.

Every automorphism here acts linearly on frequency coordinates (the Gabor
shift is linear in (xi, k)).  Distortion constants are the optimal factors
squeezing the invariant metric from below and above; closed forms are used
where the metric/automorphism pair admits them, a seeded direction-sampling
oracle otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import RejectedInputError
from .metric_lattice import (EUCLIDEAN_L2, EUCLIDEAN_LINF, GABOR_PRODUCT,
                             MetricSpace, linear_box)

MATRIX = "matrix"
MATRIX_POWER = "matrix_power"
SHEARLET = "shearlet"
GABOR_SHIFT = "gabor_shift"

CLOSED_FORM = "closed_form"
NUMERICAL_ORACLE = "numerical_oracle"

ORACLE_DIRECTIONS = 100_000
ORACLE_SEED = 7151
BISECT_TOL = 1e-12     # relative width at which a level-set crossing is cut
SLOPE_THRESHOLD = -0.5  # log-log decay of the lower constant that flags non-expansion
TIE_RTOL = 0.05        # lower constants this close form one tie group


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
    """Invertible linear map on frequency coordinates with named structure."""

    kind: str
    matrix: np.ndarray
    params: dict = field(default_factory=dict)
    inv_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise RejectedInputError("automorphism matrix must be square")
        if not np.all(np.isfinite(m)) or float(np.linalg.det(m)) == 0.0:
            raise RejectedInputError("automorphism matrix is singular")
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise RejectedInputError("automorphism matrix is singular") from exc
        if not np.all(np.isfinite(inv)):
            raise RejectedInputError("automorphism matrix is numerically singular")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inv_matrix", inv)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T

    def inverse_apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.inv_matrix.T

    def jacobian(self) -> float:
        if self.kind == GABOR_SHIFT:
            return 1.0
        if self.kind == SHEARLET:
            return float(self.params["a"]) ** 1.5
        return abs(float(np.linalg.det(self.matrix)))

    def box_image(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Interval-arithmetic bounding box of the image of [lo, hi]."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        center, half = linear_box(self.matrix, 0.5 * (lo + hi), 0.5 * (hi - lo))
        return center - half, center + half

    def line_action(self) -> tuple[float, float]:
        """Action on a one-dimensional frequency line as x -> scale*x + offset.

        For the Gabor shift this is the restriction to the modulation line
        k = 1; for 1-d matrix kinds it is plain scaling.
        """
        if self.kind == GABOR_SHIFT:
            return 1.0, -float(self.params["p"])
        if self.dim == 1:
            return float(self.matrix[0, 0]), 0.0
        raise RejectedInputError("no one-dimensional line action for this automorphism")


def matrix_automorphism(M) -> Automorphism:
    return Automorphism(MATRIX, M)


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
    return Automorphism(MATRIX_POWER, m,
                        {"base": b, "exponent": int(exponent)})


def shearlet(a: float, s: float) -> Automorphism:
    """Frequency-side shearlet map (a*x1, s*sqrt(a)*x1 + sqrt(a)*x2)."""
    if a <= 0:
        raise RejectedInputError("shearlet scale must be positive")
    ra = math.sqrt(a)
    m = np.array([[a, 0.0], [s * ra, ra]])
    return Automorphism(SHEARLET, m, {"a": float(a), "s": float(s)})


def gabor_shift(p: float) -> Automorphism:
    """Dual Gabor action (xi, k) -> (xi - k*p, k)."""
    m = np.array([[1.0, -float(p)], [0.0, 1.0]])
    return Automorphism(GABOR_SHIFT, m, {"p": float(p)})


# ---------------------------------------------------------------------------
# Metric distortion constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzConstants:
    lower: float
    upper: float
    method: str


def shearlet_l2_constants(a: float, s: float) -> tuple[float, float]:
    """Optimal Euclidean distortion constants of the shearlet map.

    These are the square roots of the Gram-matrix eigenvalues
    (a/2) * ((a + s^2 + 1) -/+ sqrt((a + s^2 + 1)^2 - 4a)).
    """
    trace_term = a + s * s + 1.0
    disc = math.sqrt(max(trace_term * trace_term - 4.0 * a, 0.0))
    lam_minus = 0.5 * a * (trace_term - disc)
    lam_plus = 0.5 * a * (trace_term + disc)
    return math.sqrt(max(lam_minus, 0.0)), math.sqrt(lam_plus)


def lipschitz_constants(auto: Automorphism, metric: MetricSpace) -> LipschitzConstants:
    """Optimal (lower, upper) metric distortion of the automorphism."""
    if metric.kind == GABOR_PRODUCT:
        if auto.kind == GABOR_SHIFT:
            p = abs(auto.params["p"])
            return LipschitzConstants(1.0 / (1.0 + p), 1.0 + p, CLOSED_FORM)
        lo, hi = _lipschitz_oracle_gabor(auto)
        return LipschitzConstants(lo, hi, NUMERICAL_ORACLE)
    if auto.dim != metric.dim:
        raise RejectedInputError("automorphism and metric dimensions disagree")
    if metric.kind == EUCLIDEAN_L2:
        if auto.kind == SHEARLET:
            lo, hi = shearlet_l2_constants(auto.params["a"], auto.params["s"])
            return LipschitzConstants(lo, hi, CLOSED_FORM)
        sv = singular_values(auto.matrix)
        return LipschitzConstants(float(sv[0]), float(sv[-1]), CLOSED_FORM)
    if metric.kind == EUCLIDEAN_LINF:
        upper = float(np.max(np.sum(np.abs(auto.matrix), axis=1)))
        lower = 1.0 / float(np.max(np.sum(np.abs(auto.inv_matrix), axis=1)))
        return LipschitzConstants(lower, upper, CLOSED_FORM)
    raise RejectedInputError(f"unsupported metric kind {metric.kind!r}")


def lipschitz_oracle(auto: Automorphism, metric: MetricSpace,
                     n_directions: int = ORACLE_DIRECTIONS,
                     seed: int = ORACLE_SEED) -> tuple[float, float]:
    """Inner approximation of the distortion constants by direction sampling.

    Returns (max of observed lower ratios, min of observed upper ratios) as
    (oracle_lower, oracle_upper); the true constants satisfy
    lower <= oracle_lower and upper >= oracle_upper.
    """
    if metric.kind == GABOR_PRODUCT:
        return _lipschitz_oracle_gabor(auto, n_directions, seed)
    rng = np.random.default_rng(seed)
    dim = auto.dim
    dirs = rng.normal(size=(n_directions, dim))
    # deterministic extremal candidates: axes, sign corners, their preimages
    # (max-norm extremizers sit at such points), and power-iteration refiners
    # (Euclidean extremizers); every candidate still only contributes an
    # attained ratio, so the estimate stays an inner approximation
    corners = np.stack(np.meshgrid(*[(-1.0, 1.0)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)
    special = np.concatenate([np.eye(dim), corners])
    dirs = np.concatenate([dirs, special, auto.inverse_apply(special),
                           _power_iteration_directions(auto, rng)])
    norms = metric.norm(dirs)
    keep = norms > 1e-12
    dirs = dirs[keep] / norms[keep][:, None]
    ratios = metric.norm(auto.apply(dirs))
    return float(np.min(ratios)), float(np.max(ratios))


def _power_iteration_directions(auto: Automorphism, rng: np.random.Generator,
                                steps: int = 60) -> np.ndarray:
    gram = auto.matrix.T @ auto.matrix
    grow = rng.normal(size=auto.dim)
    shrink = rng.normal(size=auto.dim)
    for _ in range(steps):
        grow = gram @ grow
        grow /= np.linalg.norm(grow)
        shrink = np.linalg.solve(gram, shrink)
        shrink /= np.linalg.norm(shrink)
    return np.stack([grow, shrink])


def _lipschitz_oracle_gabor(auto: Automorphism, n_points: int = 4096,
                            seed: int = ORACLE_SEED) -> tuple[float, float]:
    # Ratios on the k = 0 slice are 1; it suffices to scan the k = 1 slice
    # scaled by |k|, plus the slice anchors.
    p = -float(auto.matrix[0, 1])
    rng = np.random.default_rng(seed)
    span = 2.0 * (1.0 + abs(p)) + 1.0
    xs = np.concatenate([rng.uniform(-span, span, n_points), [0.0, p, -p]])
    pts = np.stack([xs, np.ones_like(xs)], axis=-1)
    ratios = (np.abs(pts[:, 0] - p) + 1.0) / (np.abs(pts[:, 0]) + 1.0)
    lo = min(float(np.min(ratios)), 1.0)
    hi = max(float(np.max(ratios)), 1.0)
    return lo, hi


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerRange:
    j_min: int
    j_max: int

    def __post_init__(self):
        if self.j_max < self.j_min:
            raise RejectedInputError("empty integer range")

    def parameters(self) -> list[int]:
        return list(range(self.j_min, self.j_max + 1))


@dataclass(frozen=True)
class RealGrid:
    """Finite parameter grid; with `edges` it truncates a continuous density."""

    points: np.ndarray
    edges: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise RejectedInputError("empty parameter grid")
        object.__setattr__(self, "points", pts)
        if self.edges is not None:
            e = np.asarray(self.edges, dtype=float)
            if pts.ndim != 1 or e.ndim != 1 or e.shape[0] != pts.shape[0] + 1:
                raise RejectedInputError("edges must bracket a 1-d point grid")
            if np.any(np.diff(e) <= 0):
                raise RejectedInputError("edges must be strictly increasing")
            object.__setattr__(self, "edges", e)

    def parameters(self) -> list:
        if self.points.ndim == 1:
            return [float(p) for p in self.points]
        return [tuple(map(float, p)) for p in self.points]


@dataclass(frozen=True)
class ParameterList:
    """Explicit finite list of parameters (atomic masses only)."""

    params: tuple

    def __post_init__(self):
        if len(self.params) == 0:
            raise RejectedInputError("empty parameter list")
        object.__setattr__(self, "params", tuple(self.params))

    def parameters(self) -> list:
        return list(self.params)


@dataclass(frozen=True)
class FamilyMember:
    """One parameter of a family with everything consumers read from it."""

    param: object
    auto: Automorphism
    lower: float
    upper: float
    method: str
    jacobian: float
    weight: float


@dataclass(frozen=True)
class AutomorphismFamily:
    """Indexed family of dual automorphisms with weights and a metric.

    `weight` is a density on the parameter axis when the index set carries
    cell edges, and an atom mass otherwise.  `members` materialises every
    parameter once, on first use; `automorphism` and `weight_of` serve
    parameters outside that table (level-set bisection, quadrature nodes).
    """

    index_set: IntegerRange | RealGrid | ParameterList
    generator: Callable
    weight: Callable[..., float]
    metric: MetricSpace
    name: str = ""

    def parameters(self) -> list:
        return self.index_set.parameters()

    @property
    def is_continuous(self) -> bool:
        return isinstance(self.index_set, RealGrid) and self.index_set.edges is not None

    def automorphism(self, param) -> Automorphism:
        if isinstance(param, tuple):
            return self.generator(*param)
        return self.generator(param)

    def weight_of(self, param) -> float:
        w = self.weight(*param) if isinstance(param, tuple) else self.weight(param)
        if w < 0:
            raise RejectedInputError("weights must be nonnegative")
        return float(w)

    @cached_property
    def members(self) -> tuple[FamilyMember, ...]:
        """Automorphism, distortion constants, jacobian and checked weight of
        every parameter, in `parameters()` order."""
        rows = []
        for param in self.parameters():
            auto = self.automorphism(param)
            c = lipschitz_constants(auto, self.metric)
            rows.append(FamilyMember(param, auto, c.lower, c.upper, c.method,
                                     auto.jacobian(), self.weight_of(param)))
        return tuple(rows)

    def member(self, param) -> FamilyMember:
        for m in self.members:
            if m.param == param:
                return m
        raise RejectedInputError(f"parameter {param!r} is not in the family")

    def continuous_domain(self) -> tuple[float, float]:
        if not self.is_continuous:
            raise RejectedInputError("family has no continuous parameter domain")
        e = self.index_set.edges
        return float(e[0]), float(e[-1])

    def restrict(self, keep: Callable[..., bool]) -> "AutomorphismFamily":
        """Atomic subfamily of the parameters passing the predicate
        keep(param, lower, upper)."""
        if self.is_continuous:
            raise RejectedInputError("restrict applies to atomic families; "
                                     "continuous families split by level sets")
        kept = tuple(m for m in self.members if keep(m.param, m.lower, m.upper))
        if not kept:
            raise RejectedInputError("restriction removed every parameter")
        sub = AutomorphismFamily(ParameterList(tuple(m.param for m in kept)),
                                 self.generator, self.weight, self.metric, self.name)
        sub.__dict__["members"] = kept  # the subfamily shares the built rows
        return sub

    def level_set_intervals(self, lower: float, upper: float) -> list[tuple[float, float]]:
        """Parameter intervals where lower <= L(a) <= upper (continuous families).

        Cell-wise bracketing with bisection at the crossings; assumes L is
        continuous and changes monotonically within each cell, which holds for
        the shipped one-parameter dilation families.
        """
        if not self.is_continuous:
            raise RejectedInputError("level sets need a continuous index set")

        def L(a: float) -> float:
            return lipschitz_constants(self.automorphism(a), self.metric).upper

        def inside(a: float) -> bool:
            return lower <= L(a) <= upper

        edges = self.index_set.edges
        edge_vals = np.array([L(float(e)) for e in edges])
        out: list[tuple[float, float]] = []
        for a0, a1, v0, v1 in zip(edges[:-1], edges[1:], edge_vals[:-1], edge_vals[1:]):
            cell_lo, cell_hi = min(v0, v1), max(v0, v1)
            if cell_hi < lower or cell_lo > upper:
                continue
            if lower <= cell_lo and cell_hi <= upper:
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
                        weight: Callable[[int], float] = lambda j: 1.0,
                        name: str = "") -> AutomorphismFamily:
    b = np.atleast_2d(np.asarray(base, dtype=float))
    return AutomorphismFamily(IntegerRange(j_min, j_max),
                              lambda j: matrix_power(b, j), weight, metric, name)


def shearlet_grid_family(a_values: Sequence[float], s_values: Sequence[float],
                         metric: MetricSpace,
                         weight: Callable[[float, float], float] = lambda a, s: 1.0,
                         name: str = "") -> AutomorphismFamily:
    points = np.array([(a, s) for a in a_values for s in s_values])
    return AutomorphismFamily(RealGrid(points), lambda a, s: shearlet(a, s),
                              weight, metric, name)


def gabor_shift_family(p_values: Sequence[float],
                       weight: Callable[[float], float] = lambda p: 1.0,
                       name: str = "") -> AutomorphismFamily:
    from .metric_lattice import gabor_product
    return AutomorphismFamily(RealGrid(np.asarray(p_values, dtype=float)),
                              lambda p: gabor_shift(p), weight, gabor_product(), name)


def continuous_dilation_family(lo: float, hi: float, n_cells: int,
                               metric: MetricSpace,
                               weight: Callable[[float], float] = lambda a: 1.0,
                               name: str = "") -> AutomorphismFamily:
    if not (0 < lo < hi):
        raise RejectedInputError("dilation domain must satisfy 0 < lo < hi")
    edges = np.geomspace(lo, hi, n_cells + 1)
    points = np.sqrt(edges[:-1] * edges[1:])
    return AutomorphismFamily(RealGrid(points, edges=edges),
                              lambda a: matrix_automorphism([[a]]), weight, metric, name)


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


def classify_expansiveness(family: AutomorphismFamily, probe_m: float | None = None,
                           explosion: float = 10.0) -> ExpansivenessVerdict:
    """Classify a probed family by its distortion-constant cloud.

    Evidence rules on the truncation: the family is flagged non-expanding
    when the lower constant collapses (by `explosion`) somewhere at
    non-smaller upper constant, or when the lower constant decays against the
    upper one at log-log slope below `SLOPE_THRESHOLD` on the tail.  Without
    such evidence the tail cloud gets a monotone concave majorant; ties in
    the lower constant carrying an upper-constant spread above `explosion`
    demote the verdict from uniformly_expanding to expanding.
    """
    table = [(m.param, m.lower, m.upper) for m in family.members]
    if not table:
        raise RejectedInputError("empty truncation")
    for _param, lo, hi in table:
        if not (0 < lo <= hi):
            raise RejectedInputError("invalid distortion constants in family")

    uppers = np.array([hi for _p, _lo, hi in table])
    # default tail starts at the lower quartile: collapse evidence often sits
    # at moderate distortion, and verdicts are truncation-scoped anyway
    m = float(np.quantile(uppers, 0.25)) if probe_m is None else float(probe_m)
    tail = [(p, lo, hi) for p, lo, hi in table if hi > m]
    if not tail:
        tail = list(table)

    # (A) lower-constant collapse at non-decreasing upper constant
    witness = None
    by_upper = sorted(tail, key=lambda t: (t[2], str(t[0])))
    best_prev_lower = -np.inf
    for p, lo, hi in by_upper:
        if lo * explosion <= best_prev_lower:
            cand = (p, lo, hi)
            if witness is None or lo < witness[1] or (lo == witness[1] and str(p) > str(witness[0])):
                witness = cand
        best_prev_lower = max(best_prev_lower, lo)
    if witness is None:
        # also catch collapse carried by the extreme tail against the bulk
        lows = np.array([lo for _p, lo, _hi in tail])
        if lows.size >= 4:
            argmin = int(np.argmin(lows))
            others = np.delete(lows, argmin)
            if lows[argmin] * explosion <= float(np.median(others)):
                hi_at_min = tail[argmin][2]
                if hi_at_min >= float(np.median([hi for _p, _lo, hi in tail])):
                    witness = tail[argmin]

    # (B) log-log decay of the lower constant along the tail
    if witness is None and len(tail) >= 3:
        logs_u = np.log([hi for _p, _lo, hi in tail])
        logs_l = np.log([lo for _p, lo, _hi in tail])
        if logs_u.max() - logs_u.min() > math.log(1.5):
            slope = float(np.polyfit(logs_u, logs_l, 1)[0])
            if slope <= SLOPE_THRESHOLD:
                idx = int(np.argmin(logs_l))
                witness = tail[idx]

    if witness is not None:
        # deterministic tie-break: smallest lower constant, then last parameter
        candidates = [t for t in tail if t[1] <= witness[1] * (1 + 1e-12)]
        chosen = max(candidates, key=lambda t: (str(t[0])))
        return ExpansivenessVerdict("non_expanding", m, chosen[0],
                                    (chosen[1], chosen[2]))

    # distinguish an envelope-compatible tail from one with lower-constant ties
    tie_break = False
    by_lower = sorted(tail, key=lambda t: t[1])
    i = 0
    while i < len(by_lower):
        j = i
        hi_min = hi_max = by_lower[i][2]
        while (j + 1 < len(by_lower)
               and by_lower[j + 1][1] <= by_lower[i][1] * (1 + TIE_RTOL)):
            j += 1
            hi_min = min(hi_min, by_lower[j][2])
            hi_max = max(hi_max, by_lower[j][2])
        if hi_max >= explosion * hi_min:
            tie_break = True
            break
        i = j + 1
    if tie_break:
        return ExpansivenessVerdict("expanding", m)
    envelope = _monotone_concave_majorant([(lo, hi) for _p, lo, hi in tail])
    return ExpansivenessVerdict("uniformly_expanding", m, envelope=envelope)


# ---------------------------------------------------------------------------
# Subspace-expansion test for a single matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceExpansionVerdict:
    verdict: str  # "yes" | "no" | "indeterminate"
    expanding_basis: np.ndarray | None = None  # F: strictly expanded subspace
    neutral_basis: np.ndarray | None = None    # E: invariant, no contraction
    reason: str = ""


def _geometric_multiplicity(A: np.ndarray, lam: complex, rank_tol: float) -> int:
    n = A.shape[0]
    sv = np.linalg.svd(A.astype(complex) - lam * np.eye(n), compute_uv=False)
    return int(np.sum(sv <= rank_tol * max(sv[0], 1.0)))


def expanding_on_subspace(A, modulus_tol: float = 1e-9) -> SubspaceExpansionVerdict:
    """Spectral test: strictly expanding on an invariant subspace with no
    contraction on an invariant complement.

    yes iff no eigenvalue modulus < 1, at least one > 1, and every
    modulus-one eigenvalue is semisimple.  Near-defective borderlines are
    flagged indeterminate rather than decided.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or n > 8:
        raise RejectedInputError("matrix must be square of dim <= 8")
    if abs(np.linalg.det(A)) < 1e-14:
        raise RejectedInputError("matrix must be invertible")
    eigvals, eigvecs = np.linalg.eig(A)
    moduli = np.abs(eigvals)

    if np.any(moduli < 1.0 - modulus_tol):
        lam = eigvals[int(np.argmin(moduli))]
        return SubspaceExpansionVerdict(
            "no", reason=f"eigenvalue {lam:.6g} has modulus below one")
    unit = np.abs(moduli - 1.0) <= modulus_tol
    growing = moduli > 1.0 + modulus_tol
    if not np.any(growing):
        return SubspaceExpansionVerdict(
            "no", reason="no eigenvalue modulus exceeds one, expanded subspace is trivial")

    # semisimplicity of each unit-modulus eigenvalue cluster
    unit_vals = eigvals[unit]
    visited: list[complex] = []
    for lam in unit_vals:
        if any(abs(lam - v) <= 1e-8 for v in visited):
            continue
        visited.append(lam)
        algebraic = int(np.sum(np.abs(eigvals - lam) <= 1e-8))
        geo_lo = _geometric_multiplicity(A, lam, 1e-10)
        geo_hi = _geometric_multiplicity(A, lam, 1e-6)
        if geo_lo != geo_hi:
            return SubspaceExpansionVerdict(
                "indeterminate",
                reason=f"rank of (A - {lam:.6g} I) is threshold-sensitive")
        if geo_lo < algebraic:
            return SubspaceExpansionVerdict(
                "no", reason=f"unit-modulus eigenvalue {lam:.6g} is defective")

    def real_basis(mask: np.ndarray) -> np.ndarray:
        cols = []
        used: set[int] = set()
        for idx in np.flatnonzero(mask):
            if idx in used:
                continue
            lam, vec = eigvals[idx], eigvecs[:, idx]
            if abs(lam.imag) <= 1e-12:
                cols.append(np.real(vec))
            else:
                cols.append(np.real(vec))
                cols.append(np.imag(vec))
                conj = np.flatnonzero(mask & (np.abs(eigvals - lam.conjugate()) <= 1e-10))
                used.update(int(c) for c in conj)
            used.add(int(idx))
        basis = np.stack(cols, axis=1)
        q, _ = np.linalg.qr(basis)
        return q[:, :np.linalg.matrix_rank(basis, tol=1e-10)]

    expanding_basis = real_basis(growing)
    neutral_basis = real_basis(unit) if np.any(unit) else np.zeros((n, 0))
    return SubspaceExpansionVerdict("yes", expanding_basis, neutral_basis)


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
        from . import quadrature
        for i, t in enumerate(ts):
            hi = float(envelope(float(c * t)))
            total = 0.0
            for a0, a1 in family.level_set_intervals(float(t), hi):
                total += quadrature.integrate_interval(
                    lambda x: np.array([family.weight_of(float(v)) for v in x]),
                    a0, a1, cells=4)
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
