"""Sampled functions, window oscillation, and the two energies."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oschet.errors import DomainError
from oschet.potential import quartic
from oschet.sampled import (
    SampledFunction,
    energy_E,
    energy_F,
    snap_count,
    truncate,
    window_oscillation,
)


# ---------------------------------------------------------------------------
# oracle: direct max-minus-min over every window, no block scans
# ---------------------------------------------------------------------------


def brute_oscillation(values: np.ndarray, n_r: int) -> np.ndarray:
    out = []
    for j in range(n_r, len(values) - n_r):
        win = values[j - n_r : j + n_r + 1]
        out.append(np.max(win) - np.min(win))
    return np.array(out)


finite_vals = st.floats(min_value=-10, max_value=10, allow_nan=False)


def zigzag(n: int) -> list:
    return [float((7 * i) % 11 - 5) for i in range(n)]


@given(vals=st.lists(finite_vals, min_size=5, max_size=200), n_r=st.integers(1, 30))
@example(vals=zigzag(6), n_r=1)  # two blocks of the window width
@example(vals=zigzag(21), n_r=3)  # an exact multiple of the window width
@example(vals=zigzag(200), n_r=30)  # a padded last block
@settings(max_examples=200)
def test_window_oscillation_matches_brute_force(vals, n_r):
    values = np.array(vals)
    if len(values) - 2 * n_r < 2:
        return
    u = SampledFunction(0.0, 0.1, values)
    osc = window_oscillation(u, n_r * 0.1)
    expected = brute_oscillation(values, n_r)
    assert osc.values.shape == expected.shape
    # max and min pick actual samples, so equality is exact
    assert np.all(osc.values == expected)
    assert osc.x0 == pytest.approx(u.x0 + n_r * u.h)


def step_function(h: float = 1e-3, half: float = 2.0) -> SampledFunction:
    n = int(round(2 * half / h))
    xs = -half + h * np.arange(n)
    return SampledFunction(-half, h, np.where(xs < 0, -1.0, 1.0))


def test_step_energy_is_exactly_eight():
    u0 = step_function()
    e = energy_E(u0, -1.0, 1.0, 0.5, quartic())
    assert e.total == 8.0
    assert e.osc_term == 8.0
    assert e.potential_term == 0.0


def test_step_comparison_energy_equals_e():
    u0 = step_function()
    W = quartic()
    assert energy_F(u0, -1.0, 1.0, 0.5, W).total == energy_E(u0, -1.0, 1.0, 0.5, W).total


@given(
    vals=st.lists(finite_vals, min_size=24, max_size=80),
    n_r=st.integers(2, 4),
)
@settings(max_examples=60)
def test_comparison_energy_never_exceeds_oscillation_energy(vals, n_r):
    """The window oscillation dominates the two-point increment samplewise."""
    values = np.array(vals)
    h = 0.05
    r = n_r * h
    u = SampledFunction(0.0, h, values)
    a = r + 2 * h
    b = h * len(values) - r - 2 * h
    if b - a <= 2 * r + 4 * h:
        return
    W = quartic()
    ef = energy_F(u, a, b, r, W)
    ee = energy_E(u, a, b, r, W)
    assert ef.osc_term <= ee.osc_term + 1e-12 * max(1.0, ee.osc_term)
    assert ef.potential_term == ee.potential_term


@given(
    vals=st.lists(finite_vals, min_size=24, max_size=80),
    n_r=st.integers(2, 4),
)
@settings(max_examples=60)
def test_energies_agree_on_monotone_data(vals, n_r):
    values = np.sort(np.array(vals))
    h = 0.05
    r = n_r * h
    u = SampledFunction(0.0, h, values)
    a = r + 2 * h
    b = h * len(values) - r - 2 * h
    if b - a <= 2 * r + 4 * h:
        return
    W = quartic()
    ef = energy_F(u, a, b, r, W)
    ee = energy_E(u, a, b, r, W)
    # for monotone samples max - min IS the endpoint difference, bitwise
    assert ef.total == ee.total


# ---------------------------------------------------------------------------
# the cut identity: osc u = osc min(u, c) + osc max(u, c), exactly
# ---------------------------------------------------------------------------

dyadic = st.integers(-(2**20), 2**20).map(lambda k: k / 2.0**20)


@given(
    vals=st.lists(dyadic, min_size=8, max_size=50),
    cut=dyadic,
    n_r=st.integers(1, 4),
)
def test_oscillation_splits_exactly_at_any_cut(vals, cut, n_r):
    values = np.array(vals)
    if len(values) - 2 * n_r < 2:
        return
    u = SampledFunction(0.0, 0.25, values)
    r = n_r * 0.25
    lo = truncate(u, cut, "min")
    hi = truncate(u, cut, "max")
    osc = window_oscillation(u, r).values
    osc_lo = window_oscillation(lo, r).values
    osc_hi = window_oscillation(hi, r).values
    # dyadic inputs make min/max/subtraction exact, so the identity is bitwise
    assert np.all(osc == osc_lo + osc_hi)


def test_truncate_rejects_bad_mode_and_level():
    u = SampledFunction(0.0, 0.1, np.arange(5.0))
    with pytest.raises(DomainError):
        truncate(u, 0.5, "median")
    with pytest.raises(DomainError):
        truncate(u, float("nan"), "min")


# ---------------------------------------------------------------------------
# plumbing: construction, evaluation, serialization
# ---------------------------------------------------------------------------


def test_rejects_bad_construction():
    with pytest.raises(DomainError):
        SampledFunction(0.0, 0.0, np.arange(4.0))
    with pytest.raises(DomainError):
        SampledFunction(0.0, 0.1, np.array([1.0]))
    with pytest.raises(DomainError):
        SampledFunction(0.0, 0.1, np.array([1.0, float("nan"), 2.0]))


def test_values_are_frozen():
    u = SampledFunction(0.0, 0.1, np.arange(4.0))
    with pytest.raises(ValueError):
        u.values[0] = 7.0


def test_eval_picks_the_cell_value():
    u = SampledFunction(0.0, 0.5, np.array([10.0, 20.0, 30.0, 40.0]))
    assert u.eval(0.0) == 10.0
    assert u.eval(0.49) == 10.0
    assert u.eval(0.5) == 20.0
    assert u.eval(1.999) == 40.0
    with pytest.raises(DomainError):
        u.eval(2.5)
    assert u.eval(2.5, extend=True) == 40.0
    assert u.eval(-3.0, extend=True) == 10.0


def test_eval_snaps_roundoff_near_cell_edges():
    u = SampledFunction(0.0, 0.1, np.arange(10.0))
    # 0.3 is not exact in binary; 3 * 0.1 lands a hair above it
    assert u.eval(3 * 0.1) == 3.0
    assert u.eval(0.7000000000000001) == 7.0


def test_eval_array_matches_scalar_eval():
    rng = np.random.default_rng(5)
    u = SampledFunction(-1.0, 0.05, rng.uniform(-1, 1, 60))
    # random points and the cell edges as computed, some a hair off the grid
    xs = np.concatenate((rng.uniform(-1.0, -1.0 + 0.05 * 59, 40), -1.0 + 0.05 * np.arange(60)))
    arr = u.eval_array(xs)
    for x, v in zip(xs, arr):
        assert v == u.eval(float(x))
        # the cell index written out for one scalar: snap, then floor
        t = (float(x) - u.x0) / u.h
        k = round(t)
        i = k if abs(t - k) <= 1e-9 * max(1.0, abs(t)) else math.floor(t)
        assert v == u.values[i]


def test_eval_rejects_nonfinite_points():
    u = SampledFunction(0.0, 0.5, np.array([10.0, 20.0, 30.0]))
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            u.eval(x, extend=True)
        with pytest.raises(DomainError):
            u.eval_array(np.array([0.25, x]), extend=True)
    # far but finite points clamp to the end cells
    assert u.eval(1e300, extend=True) == 30.0
    assert u.eval(-1e300, extend=True) == 10.0
    with pytest.raises(DomainError):
        u.eval(1e300)


def test_eval_far_beyond_float_range_of_the_grid():
    # (x - x0) / h overflows for these points, yet they are finite
    u = SampledFunction(0.0, 0.5, np.array([10.0, 20.0, 30.0]))
    big = float(np.finfo(float).max)
    for x, end in ((1e308, 30.0), (big, 30.0), (-1e308, 10.0), (-big, 10.0)):
        assert u.eval(x, extend=True) == end
        with pytest.raises(DomainError, match="outside the sampled domain"):
            u.eval(x)
    far = np.array([0.25, big, -big, 1.25, 1e308])
    assert list(u.eval_array(far, extend=True)) == [10.0, 30.0, 10.0, 30.0, 30.0]


def test_from_callable_vectorizes_or_loops():
    fv = SampledFunction.from_callable(lambda x: np.sin(x), 0.0, 0.1, 30)
    fs = SampledFunction.from_callable(lambda x: math.sin(x), 0.0, 0.1, 30)
    assert np.allclose(fv.values, fs.values, atol=0, rtol=0)


def test_csv_round_trip():
    u = SampledFunction(0.25, 0.125, np.array([1.5, -2.25, 0.0]))
    buf = io.StringIO()
    u.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,value"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    vs = [float(line.split(",")[1]) for line in lines[1:]]
    assert xs == [0.25, 0.375, 0.5]
    assert vs == [1.5, -2.25, 0.0]


def test_snap_count_accepts_near_multiples():
    assert snap_count(0.5, 1e-3) == 500
    assert snap_count(0.1 * 3, 0.1) == 3
    with pytest.raises(DomainError):
        snap_count(0.5001, 1e-3 * 7)


def test_non_finite_ratios_raise_domain_error():
    u = SampledFunction(0.0, 0.1, np.linspace(-1.0, 1.0, 100))
    W = quartic()
    calls = [
        lambda: window_oscillation(u, math.inf),
        lambda: window_oscillation(u, math.nan),
        lambda: energy_E(u, 0.5, 4.0, math.nan, W),
        lambda: energy_F(u, 0.5, 4.0, math.inf, W),
        lambda: energy_E(u, 0.5, math.inf, 0.2, W),
        lambda: energy_F(u, -math.inf, 4.0, 0.2, W),
        lambda: snap_count(1.0, 0.0),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_energy_needs_room_around_the_interval():
    u0 = step_function(h=1e-2, half=0.6)
    with pytest.raises(DomainError):
        energy_E(u0, -0.5, 0.5, 0.5, quartic())  # interval shorter than 2r
    with pytest.raises(DomainError):
        # samples do not reach b + r
        energy_E(u0, -0.1, 0.55, 0.5, quartic())


def test_window_oscillation_needs_interior():
    u = SampledFunction(0.0, 0.1, np.arange(5.0))
    with pytest.raises(DomainError):
        window_oscillation(u, 0.2)  # 5 - 2*2 < 2 interior samples
