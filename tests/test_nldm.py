"""Tests for NLDM lookup tables (interpolation, extrapolation, flags)."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.library.cmos130 import cmos130
from repro.library.nldm import LookupResult, NLDMTable


def reference_lookup(table, slew_ps, load_ff):
    """The numpy lookup the Python-float tables replaced, kept as the
    reference: indices and values as float64 arrays, brackets by
    ``np.searchsorted``, numpy-scalar arithmetic."""
    slews = np.asarray(table.slews, dtype=float)
    loads = np.asarray(table.loads, dtype=float)
    v = np.asarray(table.values, dtype=float)

    def bracket(index, x):
        i = int(np.searchsorted(index, x) - 1)
        i = max(0, min(i, len(index) - 2))
        frac = (x - index[i]) / (index[i + 1] - index[i])
        return i, float(frac)

    extrapolated = (
        slew_ps < slews[0]
        or slew_ps > slews[-1]
        or load_ff < loads[0]
        or load_ff > loads[-1]
    )
    i, ws = bracket(slews, slew_ps)
    j, wl = bracket(loads, load_ff)
    value = (
        v[i, j] * (1 - ws) * (1 - wl)
        + v[i + 1, j] * ws * (1 - wl)
        + v[i, j + 1] * (1 - ws) * wl
        + v[i + 1, j + 1] * ws * wl
    )
    return LookupResult(value=float(value), extrapolated=bool(extrapolated))


def assert_matches_reference(table, points):
    for slew, load in points:
        got = table.lookup(slew, load)
        want = reference_lookup(table, slew, load)
        assert got.value == want.value, (slew, load)
        assert got.extrapolated == want.extrapolated, (slew, load)
    assert table.intrinsic_ps() == reference_lookup(table, 0.0, 0.0).value


@pytest.fixture()
def table():
    return NLDMTable(
        slews=[10.0, 100.0],
        loads=[1.0, 11.0],
        values=[[5.0, 15.0], [25.0, 35.0]],
    )


def test_exact_at_grid_points(table):
    assert table.lookup(10.0, 1.0).value == pytest.approx(5.0)
    assert table.lookup(100.0, 11.0).value == pytest.approx(35.0)


def test_bilinear_midpoint(table):
    mid = table.lookup(55.0, 6.0)
    assert mid.value == pytest.approx(20.0)
    assert not mid.extrapolated


def test_extrapolation_flagged_and_linear(table):
    high = table.lookup(10.0, 21.0)  # one grid step beyond the corner
    assert high.extrapolated
    assert high.value == pytest.approx(25.0)  # 5 + 2 * (15-5)
    low = table.lookup(0.0, 1.0)
    assert low.extrapolated


def test_intrinsic_is_zero_slew_zero_load(table):
    # Row slope: (25-5)/90 per ps slew; col slope: (15-5)/10 per fF.
    expected = 5.0 - 10.0 * (20.0 / 90.0) - 1.0 * (10.0 / 10.0)
    assert table.intrinsic_ps() == pytest.approx(expected)


def test_index_validation():
    with pytest.raises(ValueError):
        NLDMTable([1.0, 1.0], [1.0, 2.0], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        NLDMTable([1.0, 2.0], [1.0, 2.0], [[0, 0]])
    # One point cannot bracket a lookup.
    with pytest.raises(ValueError, match="at least two points"):
        NLDMTable([1.0], [1.0, 2.0], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="does not match indices"):
        NLDMTable([1.0, 2.0], [1.0, 2.0], [[0.0, 1.0], [2.0]])


def test_cmos130_lookups_match_numpy_reference():
    rng = random.Random(2004)
    tables = [table for cell in cmos130().cells.values()
              for arc in cell.arcs for table in (arc.delay, arc.slew)]
    assert tables
    for table in tables:
        points = [(0.0, 0.0)]
        points += [(s, c) for s in table.slews for c in table.loads]
        # Inside the grid, and out past every edge.
        points += [(rng.uniform(-0.5 * table.max_slew, 2 * table.max_slew),
                    rng.uniform(-0.5 * table.max_load, 2 * table.max_load))
                   for _ in range(60)]
        assert_matches_reference(table, points)


@given(st.floats(min_value=1.0, max_value=200.0),
       st.floats(min_value=0.1, max_value=30.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-500.0, max_value=3000.0),
       st.floats(min_value=-100.0, max_value=500.0))
def test_linear_lookup_matches_numpy_reference(intrinsic, ps_per_ff,
                                               slew_sens, slew, load):
    table = NLDMTable.linear(intrinsic, ps_per_ff, slew_sens)
    assert_matches_reference(table, [(slew, load)])


@given(st.floats(min_value=0.0, max_value=2000.0),
       st.floats(min_value=0.0, max_value=400.0))
def test_linear_table_monotone_in_load_and_slew(slew, load):
    table = NLDMTable.linear(40.0, 10.0, 0.2)
    base = table.lookup(slew, load).value
    assert table.lookup(slew, load + 5.0).value >= base - 1e-9
    assert table.lookup(slew + 5.0, load).value >= base - 1e-9


def test_linear_table_flags_out_of_range():
    table = NLDMTable.linear(40.0, 10.0, 0.2)
    assert not table.lookup(60.0, 20.0).extrapolated
    assert table.lookup(table.max_slew * 2, 20.0).extrapolated
    assert table.lookup(60.0, table.max_load * 2).extrapolated
