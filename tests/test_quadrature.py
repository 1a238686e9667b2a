import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_benchmark_tracer_wraps_every_integrator():
    """The tracer counts integrand calls and nodes only for the integrators it
    names; a new or renamed one would leave those per-layer metrics at zero."""
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    [names] = [ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "_INTEGRATORS" for t in node.targets)]
    public = {name for name in vars(quadrature) if name.startswith("integrate_")}
    assert public and public <= names
