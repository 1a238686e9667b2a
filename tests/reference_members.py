"""Per-member references for the stacked member table.

A family used to be a tuple of member records, each built from its own
automorphism and its own distortion constants; `_ref_members` rebuilds that
tuple, and `_ref_above` the distortion order read from it.  `constants` and
`oracle_pairs` read the package's stacked constants and oracle on single maps.
"""

from collections import namedtuple

import numpy as np

from affineframes import automorphisms as am
from affineframes import metric_lattice as ml
from affineframes.errors import RejectedInputError

Member = namedtuple("Member", "param auto lower upper jacobian weight")
Constants = namedtuple("Constants", "lower upper")


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


def _ref_singular_values(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape == (1, 1):
        return np.abs(M[0])
    return np.sqrt(np.clip(np.linalg.eigvalsh(M.T @ M), 0.0, None))


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
        auto = (family.generator(*param) if isinstance(param, tuple)
                else family.generator(param))
        lower, upper = _ref_lipschitz_constants(auto, family.metric)
        rows.append(Member(param, auto, lower, upper, auto.jacobian, family.weight_of(param)))
    return rows


def _ref_above(family, M):
    """Members with L(h) > M, sorted by upper constant, then by the
    parameter's string form."""
    return sorted((m for m in _ref_members(family) if m.upper > M),
                  key=lambda m: (m.upper, str(m.param)))
