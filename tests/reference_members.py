"""Per-member references for the stacked member table and its columns.

A family used to be a tuple of member records, each built from its own
automorphism and its own distortion constants; `_ref_members` rebuilds that
tuple, and `_ref_above` the distortion order read from it.  Each member's map
goes through `_ref_automorphism`, the checks of one map alone as they stood
before the family checked its maps as one stack.  `constants` and
`oracle_pairs` read the package's stacked constants and oracle on single maps,
and `_ref_lipschitz_oracle_gabor` keeps the Gabor oracle's per-member body.

Orbit sums and the jacobian-domination scan used to return one record per
frequency and per scanned member, and the scan ran on a subfamily re-wrapped
around a slice of the member table: `_ref_calderon_sum`,
`_ref_property_x_scan` and `_ref_restrict` keep those bodies, and
`_ref_truncation_label` the CSV label read from a truncation record.

The frame report's probe ensemble used to build each probe, then measure its
squared norm and build it again scaled to unit norm; `_ref_random_probe_ensemble`
keeps that body, with the norm and the scaling written out.

A piecewise-constant profile used to be read with one mask per piece, before
it was looked up on the grid of its edges: `masked` rebuilds a profile as a
`MaskLoopProfile`, whose `evaluate` keeps that loop, so the references that
read profile values through it pit the grid lookup against the loop.
"""

import math
from collections import namedtuple

import numpy as np

from affineframes import automorphisms as am
from affineframes import calderon as cd
from affineframes import counting as ct
from affineframes import metric_lattice as ml
from affineframes import quadrature
from affineframes.errors import RejectedInputError, SingularPointError
from affineframes.profiles import PiecewiseConstantProfile, _as_points

Member = namedtuple("Member", "param auto lower upper jacobian weight")
RefAutomorphism = namedtuple("RefAutomorphism", "matrix inv_matrix jacobian")
Constants = namedtuple("Constants", "lower upper")
Evaluation = namedtuple("Evaluation", "xi value truncation tail_estimate certified_exact")
ScanRow = namedtuple("ScanRow", "param upper_constant jacobian count ratio")
ScanReport = namedtuple("ScanReport",
                        "verdict r M constant witness witness_count attempted_bound rows")


class MaskLoopProfile(PiecewiseConstantProfile):
    """A piecewise-constant profile read with one mask per piece: each point
    takes the value of the box holding it, copied, and +0.0 outside them all."""

    def evaluate(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        out = np.zeros(pts.shape[0])
        for lo, hi, v in zip(self.boxes_lo, self.boxes_hi, self.values):
            inside = np.all((pts >= lo) & (pts < hi), axis=1)
            out[inside] = v
        return out


def masked(profile):
    """A piecewise-constant profile as a `MaskLoopProfile`; a sampled grid as it is."""
    if isinstance(profile, PiecewiseConstantProfile):
        return MaskLoopProfile(profile.boxes_lo, profile.boxes_hi, profile.values)
    return profile


def raised(call):
    """What a call returns, or the type and message of the input error it raises."""
    try:
        return call()
    except (RejectedInputError, SingularPointError) as exc:
        return type(exc), str(exc)


def constants(auto, metric):
    """(lower, upper) of one map, through the stacked closed forms."""
    lower, upper = am.lipschitz_constants(auto.matrix[None], auto.inv_matrix[None], metric)
    return Constants(float(lower[0]), float(upper[0]))


def oracle_pairs(autos, metric, n_directions=am.ORACLE_DIRECTIONS):
    """The stacked direction oracle on a list of maps, one (lower, upper) pair each."""
    lower, upper = am.lipschitz_oracle(np.stack([a.matrix for a in autos]),
                                       np.stack([a.inv_matrix for a in autos]), metric,
                                       n_directions=n_directions)
    return list(zip(lower.tolist(), upper.tolist()))


def _ref_automorphism(matrix, jacobian=None):
    """One map and its jacobian, checked alone: |m| in 1-d and |det| otherwise
    without a closed form."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise RejectedInputError("automorphism matrix must be square")
    with np.errstate(over="ignore"):  # an overflowing det is refused as a jacobian below
        det = float(np.linalg.det(m)) if np.all(np.isfinite(m)) else 0.0
    if det == 0.0:
        raise RejectedInputError("automorphism matrix is singular")
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise RejectedInputError("automorphism matrix is singular") from exc
    if not np.all(np.isfinite(inv)):
        raise RejectedInputError("automorphism matrix is numerically singular")
    if jacobian is None:  # 1-d: det goes through exp(log|m|), which rounds
        jacobian = abs(float(m[0, 0])) if m.shape == (1, 1) else abs(det)
    if not math.isfinite(jacobian):
        raise RejectedInputError(f"automorphism jacobian {jacobian} overflows a float")
    return RefAutomorphism(m, inv, jacobian)


def _ref_lipschitz_oracle_gabor(p, n_points):
    """The direction oracle of one Gabor shift by p, redrawing its points."""
    # Ratios on the k = 0 slice are 1; it suffices to scan the k = 1 slice
    # scaled by |k|, plus the slice anchors.
    rng = np.random.default_rng(am.ORACLE_SEED)
    span = 2.0 * (1.0 + abs(p)) + 1.0
    xs = np.concatenate([rng.uniform(-span, span, n_points), [0.0, p, -p]])
    ratios = (np.abs(xs - p) + 1.0) / (np.abs(xs) + 1.0)
    return min(float(np.min(ratios)), 1.0), max(float(np.max(ratios)), 1.0)


def _ref_singular_values(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape == (1, 1):
        return np.abs(M[0])
    with np.errstate(over="ignore", invalid="ignore"):
        gram = M.T @ M
    if not np.all(np.isfinite(gram)):
        raise RejectedInputError("L2 distortion constants: a Gram matrix M^T M overflows a float")
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))


def _ref_shift_offset(m):
    if m.shape == (2, 2) and m[0, 0] == 1.0 and m[1, 0] == 0.0 and m[1, 1] == 1.0:
        return float(m[0, 1])
    return None


def _ref_lipschitz_constants(auto, metric):
    """The closed forms one map at a time, as they stood."""
    if metric.kind == ml.GABOR_PRODUCT:
        shift = _ref_shift_offset(auto.matrix)
        if shift is None:
            raise RejectedInputError("gabor_product distorts Gabor shifts [[1, x], [0, 1]] only")
        p = abs(shift)
        return 1.0 / (1.0 + p), 1.0 + p
    dim = auto.matrix.shape[0]
    if dim != metric.dim:
        raise RejectedInputError("automorphism and metric dimensions disagree")
    if metric.kind == ml.EUCLIDEAN_L2:
        sv = _ref_singular_values(auto.matrix)
        lower = sv[0] if dim == 1 else 1.0 / _ref_singular_values(auto.inv_matrix)[-1]
        upper = float(sv[-1])
    elif metric.kind == ml.EUCLIDEAN_LINF:
        upper = float(np.max(np.sum(np.abs(auto.matrix), axis=1)))
        lower = 1.0 / float(np.max(np.sum(np.abs(auto.inv_matrix), axis=1)))
    else:
        raise RejectedInputError(f"unsupported metric kind {metric.kind!r}")
    return min(float(lower), upper), upper


def _ref_line_action(auto):
    if auto.matrix.shape == (1, 1):
        return float(auto.matrix[0, 0]), 0.0
    offset = _ref_shift_offset(auto.matrix)
    if offset is None:
        raise RejectedInputError("no one-dimensional line action for this automorphism")
    return 1.0, offset


def _ref_members(family):
    """The member records of every parameter, built one at a time."""
    rows = []
    for param in family.params:
        auto = _ref_automorphism(*(family.generator(*param) if isinstance(param, tuple)
                                   else family.generator(param)))
        lower, upper = _ref_lipschitz_constants(auto, family.metric)
        rows.append(Member(param, auto, lower, upper, auto.jacobian, family.weight_of(param)))
    return rows


def _ref_above(family, M):
    """Members with L(h) > M, sorted by upper constant, then by the
    parameter's string form."""
    return sorted((m for m in _ref_members(family) if m.upper > M),
                  key=lambda m: (m.upper, str(m.param)))


def _ref_restrict(family, keep):
    """Atomic subfamily of the rows where the boolean mask `keep` holds, built
    from the same generator and weight (without `base`); it shares the sliced
    member table."""
    if family.is_continuous:
        raise RejectedInputError("restrict applies to atomic families; "
                                 "continuous families split by level sets")
    rows = np.flatnonzero(keep)
    if not rows.size:
        raise RejectedInputError("restriction removed every parameter")
    t = family.members
    sub = am.AutomorphismFamily(tuple(family.params[i] for i in rows), family.generator,
                                family.weight, family.metric)
    sub.__dict__["members"] = am.MemberTable(t.matrices[rows], t.inverses[rows],
                                             t.jacobians[rows], t.lower[rows], t.upper[rows],
                                             t.weights[rows])
    return sub


def _ref_property_x_scan(family, lattice, metric, r, M):
    """The scan over {h : L(h) > M}, one ScanRow per member."""
    if r <= 0 or M <= 0:
        raise RejectedInputError("radius and distortion cutoff must be positive")
    t, rows = family.members, []
    for i in family.above(M).tolist():
        count = ct.enumerate_points(lattice, family.member(family.params[i]), r, metric).count
        rows.append(ScanRow(family.params[i], t.upper[i], t.jacobians[i], count,
                            (count - 1) / t.jacobians[i]))
    if not rows:
        raise RejectedInputError("no family parameters exceed the distortion cutoff")
    ratios = np.array([row.ratio for row in rows])
    constant = float(np.max(ratios))
    q_start = max(0, len(rows) - max(2, len(rows) // 4))
    quart = ratios[q_start:]
    growing = bool(np.all(np.diff(quart) >= 0)) and quart[-1] > quart[0]
    exploding = quart[-1] >= am.EXPLOSION * max(quart[0], 1e-300)
    if growing and exploding:
        witness = rows[-1]
        attempted = 1.0 + float(quart[0]) * witness.jacobian
        return ScanReport("violated", r, M, None, witness.param, witness.count, attempted,
                          tuple(rows))
    return ScanReport("holds", r, M, constant, None, None, None, tuple(rows))


def _ref_truncation_label(truncation):
    kind = truncation.get("kind", "")
    if kind == "integer_range":
        return f"integer_range[{truncation['j_min']},{truncation['j_max']}]"
    if kind == "continuous":
        lo, hi = truncation["domain"]
        return f"domain[{lo:g},{hi:g}]"
    if "terms" in truncation:
        return f"{kind}[{truncation['terms']}]"
    return kind


def _ref_calderon_sum(psihat, family, points):
    """One Evaluation per frequency, with profile values read by the mask loop."""
    psihat = masked(psihat)
    pts = cd._frequencies(psihat, points)
    norms = None  # the Gabor line has no identity to avoid
    if family.metric.kind != ml.GABOR_PRODUCT:
        with np.errstate(over="ignore"):
            norms = family.metric.norm(pts)
        if not np.isfinite(norms).all():
            raise RejectedInputError("metric norm of a frequency overflows a float")
        if np.any(norms == 0.0):
            raise SingularPointError("orbit sum requested at the identity frequency")
    if family.is_continuous:
        return _ref_continuous_orbit_integrals(psihat, family, pts)
    values = cd.calderon_values(psihat, family, pts)
    certified, truncation = _ref_atomic_certificate(psihat, family, pts, norms)
    ends = np.array([0, -1])  # the end members' terms estimate the tail
    tails = np.where(certified, 0.0, cd._orbit_sum(psihat, family, ends, pts, False))
    return [Evaluation(x, v, truncation, t, c) for x, v, t, c in
            zip(pts, values.tolist(), tails.tolist(), certified.tolist())]


def _ref_atomic_certificate(psihat, family, pts, norms):
    if family.base is not None:
        ok = cd._integer_family_certificate(psihat, family, norms)
        return ok, {"kind": "integer_range", "j_min": family.params[0],
                    "j_max": family.params[-1]}
    terms = len(family.params)
    if family.metric.kind == ml.GABOR_PRODUCT:
        return (cd._gabor_window_covered(psihat, family, pts),
                {"kind": "shift_atoms", "terms": terms})
    return np.ones(pts.shape[0], dtype=bool), {"kind": "atoms", "terms": terms}


def _ref_continuous_orbit_integrals(psihat, family, pts):
    if family.members.matrices.shape[-1] != 1:
        raise RejectedInputError(
            "continuous orbit integrals support one-dimensional dilation families")
    if psihat.dim != 1:
        raise RejectedInputError("continuous families pair with 1-d profiles")
    xi = pts[:, 0]
    lo_d, hi_d = domain = family.continuous_domain()
    edges = psihat.breakpoints_1d()
    u0, u1 = edges[:-1], edges[1:]
    probes = np.stack([u0, 0.5 * (u0 + u1), u1 - 1e-12 * (u1 - u0)], axis=1)
    live = np.any(psihat.evaluate(probes.reshape(-1, 1)).reshape(-1, 3) != 0.0, axis=1)
    q0, q1 = u0[live] / xi[:, None], u1[live] / xi[:, None]
    a0, a1 = np.where(xi[:, None] > 0, q0, q1), np.where(xi[:, None] > 0, q1, q0)
    w0, w1 = np.maximum(a0, lo_d), np.minimum(a1, hi_d)
    windows = [list(zip(r0[k].tolist(), r1[k].tolist()))
               for r0, r1, k in zip(w0, w1, w1 > w0)]
    freq_of = np.repeat(np.arange(xi.shape[0]), [len(w) for w in windows])

    def density(a, x):
        w = np.array([family.weight_of(float(v)) for v in a])
        return w * psihat.evaluate((a * x)[:, None]) ** 2

    totals = quadrature.integrate_with_breakpoints(
        lambda a, owner: density(a, xi[freq_of[owner]]),
        [(b0, b1, ()) for w in windows for b0, b1 in w])
    values = [0.0] * xi.shape[0]
    for i, value in zip(freq_of.tolist(), totals):
        values[i] += value
    f0 = np.maximum(a0, 0.0)
    covered = np.all((a1 <= f0) | ((lo_d <= f0) & (a1 <= hi_d)), axis=1)
    left = np.minimum(a1, lo_d) - f0
    right = a1 - np.maximum(f0, hi_d)
    out = []
    for i, x in enumerate(xi.tolist()):
        tail = 0.0
        if not covered[i]:
            for gaps in zip(left[i].tolist(), right[i].tolist()):
                for gap, edge in zip(gaps, domain):
                    if gap > 0:
                        tail += gap * float(density(np.array([edge]), xi[i:i + 1])[0])
        out.append(Evaluation(x, values[i], {"kind": "continuous", "domain": domain},
                              tail, bool(covered[i])))
    return out


def _ref_random_probe_ensemble(band_lo, band_hi, count, seed, max_pieces=8):
    """The probe ensemble as it was drawn, as (lo, hi, values) arrays per probe:
    each probe's squared norm from its boxes' volumes, then its values times
    1 / sqrt of that norm."""
    rng = np.random.default_rng(seed)
    out = []
    span = band_hi - band_lo
    while len(out) < count:
        k = int(rng.integers(3, max_pieces + 1))
        edges = np.sort(rng.uniform(band_lo, band_hi, size=k + 1))
        if np.min(np.diff(edges)) < 1e-6 * span:
            continue
        vals = rng.normal(size=k)
        if np.max(np.abs(vals)) < 1e-12:
            continue
        lo, hi = edges[:-1, None], edges[1:, None]
        n2 = float(np.dot(vals ** 2, np.prod(hi - lo, axis=1)))
        if n2 <= 0:
            raise RejectedInputError("cannot normalize a null profile")
        out.append((lo, hi, vals * (1.0 / np.sqrt(n2))))
    return out
