import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affineframes import quadrature
from affineframes.profiles import PiecewiseConstantProfile


def _per_cell(f, lo, hi, breakpoints):
    """Oracle: one single-cell integrate_box call per breakpoint cell, summed in order."""
    if hi <= lo:
        return 0.0
    cuts = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = [lo, *cuts, hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            total += quadrature.integrate_box(lambda x: f(x[:, 0]), [a], [b])
    return total


_reals = st.floats(-8.0, 8.0, allow_nan=False)
_polys = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8)


@st.composite
def _profiles(draw):
    """A 1-d piecewise-constant profile of disjoint pieces, left to right."""
    cursor, lo, hi = draw(st.floats(-6.0, 0.0)), [], []
    for _ in range(draw(st.integers(1, 4))):
        cursor += draw(st.floats(0.0, 1.0))
        width = draw(st.floats(0.05, 2.0))
        lo.append([cursor])
        hi.append([cursor + width])
        cursor += width
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(lo), max_size=len(lo)))
    return PiecewiseConstantProfile(np.array(lo), np.array(hi), np.array(values))


@st.composite
def _integrands(draw):
    """An elementwise integrand: a polynomial, a profile, or one composed with the other."""
    poly = np.array(draw(_polys))
    prof = draw(_profiles())
    scale, shift = draw(st.floats(0.25, 4.0)), draw(_reals)
    return draw(st.sampled_from([
        lambda x: np.polyval(poly, x),
        lambda x: prof.evaluate(x),
        lambda x: prof.evaluate(scale * x + shift) * np.polyval(poly, x),
        lambda x: np.polyval(poly, prof.evaluate(x)),
    ])), prof


_widths = st.one_of(st.floats(1e-3, 10.0), st.just(0.0), st.floats(-2.0, -1e-3))


@settings(max_examples=200, deadline=None)
@given(integrand=_integrands(),
       intervals=st.lists(st.tuples(_reals, _widths, st.lists(_reals, max_size=12),
                                    st.integers(0, 4)), max_size=6))
def test_breakpoint_integral_matches_per_cell_rule(integrand, intervals):
    """Batched rule on 0-6 intervals, empty or inverted ones included, each
    with unsorted duplicate cuts, some outside it, plus the profile's own."""
    f, prof = integrand
    specs = [(lo, lo + width, [*extra, *prof.breakpoints_1d(), *extra[:dup]])
             for lo, width, extra, dup in intervals]
    calls = []

    def counted(x, owner):
        calls.append((x, owner))
        return f(x)

    totals = quadrature.integrate_with_breakpoints(counted, specs)
    assert len(calls) == 1
    assert totals == [_per_cell(f, lo, hi, cuts) for lo, hi, cuts in specs]
    nodes, owner = calls[0]
    cells = [len({c for c in cuts if lo < c < hi}) + 1 if hi > lo else 0
             for lo, hi, cuts in specs]
    assert np.array_equal(owner, np.repeat(np.arange(len(specs)),
                                           quadrature.GL_ORDER * np.array(cells, dtype=int)))
    bounds = np.array([spec[:2] for spec in specs]).reshape(-1, 2)
    assert np.all((bounds[owner, 0] <= nodes) & (nodes <= bounds[owner, 1]))


def _loop_rule(f, intervals):
    """Reference: the kernel as one np.unique per interval and one np.dot per
    cell, added left to right into Python floats."""
    cell_lo, cell_hi, owner = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=np.intp)]
    for i, (lo, hi, breakpoints) in enumerate(intervals):
        if hi <= lo:
            continue
        b = np.asarray(breakpoints, dtype=float).ravel()
        edges = np.concatenate([[lo], np.unique(b[(lo < b) & (b < hi)]), [hi]])
        cell_lo.append(edges[:-1])
        cell_hi.append(edges[1:])
        owner.append(np.full(edges.size - 1, i))
    owner = np.concatenate(owner)
    nodes, weights = quadrature._cell_rule(np.concatenate(cell_lo), np.concatenate(cell_hi))
    values = np.reshape(f(nodes.ravel(), np.repeat(owner, quadrature.GL_ORDER)), nodes.shape)
    totals = [0.0] * len(intervals)
    for i, w_cell, f_cell in zip(owner, weights, values):
        totals[i] += float(np.dot(w_cell, f_cell))
    return totals


def _shaped(cuts, form):
    """The cuts as a list, a 1-d array, a 2-d array, or a non-contiguous
    column slice of a 2-d table, as the frame functional passes cuts[i, :n]."""
    if form == 0:
        return cuts.tolist()
    if form == 1:
        return cuts
    if form == 2:
        return cuts.reshape(-1, 1)
    return np.stack([cuts, -cuts], axis=1)[:, :1]


_fractions = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, 0.5]))
_specials = st.sampled_from([0.0, -0.0, np.nan])


@st.composite
def _interval_lists(draw):
    """Up to 300 intervals (the orbit scan passes 121 per call), live ones
    between empty and inverted ones, each cut where a drawn fraction of its
    width lands, at lo or hi, or at 0.0, -0.0 or NaN, duplicates included."""
    n = draw(st.integers(0, 300))
    lo = draw(hnp.arrays(float, n, elements=_reals))
    width = draw(hnp.arrays(float, n, elements=_widths))
    fractions = draw(hnp.arrays(float, draw(st.integers(1, 6)), elements=_fractions))
    specials = draw(hnp.arrays(float, 3, elements=_specials))
    picks = draw(hnp.arrays(np.intp, (n, 12), elements=st.integers(0, fractions.size + 2)))
    counts = draw(hnp.arrays(np.intp, n, elements=st.integers(0, 12)))
    forms = draw(hnp.arrays(np.intp, n, elements=st.integers(0, 3)))
    hi = lo + width
    specs = []
    for i in range(n):
        table = np.concatenate([lo[i] + fractions * width[i], specials])
        specs.append((float(lo[i]), float(hi[i]), _shaped(table[picks[i, :counts[i]]], forms[i])))
    return specs


def _recording(calls):
    """An integrand of node and owner that records every call it gets."""
    def f(x, owner):
        calls.append((x, owner))
        return np.cos(3.0 * x) * (1 + owner % 5) + x ** 3
    return f


@settings(max_examples=150, deadline=None)
@given(intervals=_interval_lists())
def test_array_kernel_matches_loop_rule_bit_for_bit(intervals):
    """The sorted, bincounted kernel returns the reference loop's totals under
    ==, from one integrand call on the same nodes, owners in interval order."""
    calls, reference_calls = [], []
    totals = quadrature.integrate_with_breakpoints(_recording(calls), intervals)
    assert totals == _loop_rule(_recording(reference_calls), intervals)
    assert len(calls) == 1
    (nodes, owner), (ref_nodes, ref_owner) = calls[0], reference_calls[0]
    assert np.array_equal(owner, ref_owner) and np.all(np.diff(owner) >= 0)
    assert np.array_equal(nodes, ref_nodes)


def test_nan_bounds_keep_their_cell():
    """A NaN bound is not 'hi <= lo', so its interval keeps one cell of NaN
    nodes between the live ones, as in the reference loop."""
    nan = float("nan")
    intervals = [(0.0, 1.0, [0.5]), (nan, 2.0, [1.0]), (1.0, nan, ()), (2.0, 1.0, [1.5]),
                 (-1.0, 3.0, [0.0, -0.0, nan, 3.0])]
    calls, reference_calls = [], []
    totals = quadrature.integrate_with_breakpoints(_recording(calls), intervals)
    reference = _loop_rule(_recording(reference_calls), intervals)
    assert np.array_equal(totals, reference, equal_nan=True)
    assert np.array_equal(calls[0][0], reference_calls[0][0], equal_nan=True)
    assert np.array_equal(calls[0][1], reference_calls[0][1])


def test_benchmark_tracer_wraps_every_integrator():
    """The tracer counts integrand calls and nodes only for the integrators it
    names; a new or renamed one would leave those per-layer metrics at zero."""
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    [names] = [ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "_INTEGRATORS" for t in node.targets)]
    public = {name for name in vars(quadrature) if name.startswith("integrate_")}
    assert public and public <= names
