import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affineframes import quadrature
from affineframes.profiles import PiecewiseConstantProfile


def _per_cell(f, lo, hi, breakpoints):
    """Oracle: one integrate_interval call per breakpoint cell, summed in order."""
    if hi <= lo:
        return 0.0
    cuts = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = [lo, *cuts, hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            total += quadrature.integrate_interval(f, a, b)
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


@settings(max_examples=200, deadline=None)
@given(lo=_reals, width=st.floats(1e-3, 10.0), integrand=_integrands(),
       extra=st.lists(_reals, max_size=12), dup=st.integers(0, 4))
def test_breakpoint_integral_matches_per_cell_rule(lo, width, integrand, extra, dup):
    f, prof = integrand
    hi = lo + width
    # unsorted cuts with duplicates, some outside [lo, hi], plus the profile's own
    breakpoints = [*extra, *prof.breakpoints_1d(), *extra[:dup]]
    calls = []

    def counted(x):
        calls.append(x.shape)
        return f(x)

    value = quadrature.integrate_with_breakpoints(counted, lo, hi, breakpoints)
    assert len(calls) == 1
    assert value == _per_cell(f, lo, hi, breakpoints)
