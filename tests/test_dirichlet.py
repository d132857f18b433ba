"""Explicit nonlocal Dirichlet solutions and their structure checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    aligned_problem,
    closed_form_value,
    dense_lattice_solve,
    detect_jumps_loop,
    explicit_lattice_values,
    forbid_large_arange,
    left_dominant_problem,
    random_problem,
    residual_check_sweep,
    residual_points_sweep,
    sign_constrained_problem,
    trig,
    zero,
)
from oschet.dirichlet import (
    MAX_CHAIN,
    DrProblem,
    _detect_jumps,
    _residual_points,
    _solve_points,
    dr_apply,
    kbar,
    kunder,
    max_principle_check,
    regularity_bounds,
    residual_check,
    solve_dr_explicit,
    solve_dr_on_grid,
)
from oschet.errors import DomainError, PreconditionError
from oschet.sampled import SampledFunction


def staircase_problem() -> DrProblem:
    return DrProblem(
        a=0.0,
        b=1.0,
        r=0.25,
        alpha=zero,
        beta=lambda x: 1.0 + 0.0 * np.asarray(x),
        f=zero,
    )


# ---------------------------------------------------------------------------
# lattice counters
# ---------------------------------------------------------------------------


def test_counter_values_on_the_half_interval():
    assert kunder(0.5, 0.0, 1.0, 0.25) == 2
    assert kbar(0.5, 0.0, 1.0, 0.25) == 2
    assert kunder(0.3, 0.0, 1.0, 0.25) == 2
    assert kbar(0.3, 0.0, 1.0, 0.25) == 3
    # lattice points snap to the exact count instead of the next one
    assert kunder(0.25, 0.0, 1.0, 0.25) == 1
    assert kbar(0.75, 0.0, 1.0, 0.25) == 1


def test_counters_snap_roundoff_ratios():
    # (b - x) / r lands at 2.9999999999999996 in floats
    assert kbar(0.1, 0.0, 1.0, 0.3) == 3
    assert kunder(0.9, 0.0, 1.0, 0.3) == 3


def test_counters_require_interior_point():
    with pytest.raises(DomainError):
        kunder(0.0, 0.0, 1.0, 0.25)
    with pytest.raises(DomainError):
        kbar(1.0, 0.0, 1.0, 0.25)
    with pytest.raises(DomainError):
        kunder(0.5, 0.0, 1.0, -0.1)


@given(
    a=st.floats(-3, 3),
    span=st.floats(0.5, 4),
    rfrac=st.floats(0.05, 0.8),
    t=st.floats(1e-6, 1 - 1e-6),
)
@settings(max_examples=80)
def test_counters_step_into_the_collars(a, span, rfrac, t):
    """x - kunder r lands in [a - r, a); x + kbar r lands in (b, b + r]."""
    b = a + span
    r = rfrac * span
    x = a + t * span
    ku = kunder(x, a, b, r)
    kb = kbar(x, a, b, r)
    assert ku >= 1 and kb >= 1
    assert a - r - 1e-9 <= x - ku * r < a + 1e-9 * max(1, abs(a))
    assert b - 1e-9 * max(1, abs(b)) < x + kb * r <= b + r + 1e-9


def test_dr_apply_on_the_step():
    u0 = SampledFunction.from_callable(
        lambda x: np.where(np.asarray(x) < 0, -1.0, 1.0), -2.0, 1e-3, 4000
    )
    assert dr_apply(u0, 0.25, 0.5) == -8.0
    assert dr_apply(u0, 1.2, 0.5) == 0.0
    with pytest.raises(PreconditionError):
        dr_apply(3.0, 0.25, 0.5)


def test_dr_apply_on_a_solution_returns_the_source():
    rng = np.random.default_rng(7)
    p = random_problem(rng)
    sol = solve_dr_on_grid(p, 1e-3)
    for t in (0.2, 0.45, 0.8):
        x = p.a + t * (p.b - p.a)
        assert abs(dr_apply(sol, x, p.r) - p.f(x)) < 1e-9
    with pytest.raises(DomainError):
        dr_apply(sol, p.b - 0.1 * p.r, 2.0 * p.r)  # x + 2r leaves the right collar


# ---------------------------------------------------------------------------
# the staircase: f = 0, alpha = 0, beta = 1, r = 1/4
# ---------------------------------------------------------------------------


def test_staircase_interior_plateaus():
    p = staircase_problem()
    # off-lattice probes: u = k / 5 on the k-th band
    assert abs(solve_dr_explicit(p, 0.1) - 0.2) < 1e-12
    assert abs(solve_dr_explicit(p, 0.3) - 0.4) < 1e-12
    assert abs(solve_dr_explicit(p, 0.6) - 0.6) < 1e-12
    assert abs(solve_dr_explicit(p, 0.85) - 0.8) < 1e-12


def test_staircase_collar_branches():
    p = staircase_problem()
    assert solve_dr_explicit(p, -0.1) == 0.0
    assert solve_dr_explicit(p, 1.1) == 1.0
    with pytest.raises(DomainError):
        solve_dr_explicit(p, -0.3)  # beyond the collar
    with pytest.raises(DomainError):
        solve_dr_explicit(p, 1.3)
    with pytest.raises(DomainError):
        solve_dr_explicit(p, math.nan)


def test_staircase_jumps_on_the_lattice():
    p = staircase_problem()
    h = 1e-3
    sol = solve_dr_on_grid(p, h)
    assert len(sol.jump_points) == 3
    for found, true in zip(sorted(sol.jump_points), (0.25, 0.5, 0.75)):
        assert abs(found - true) <= h


@st.composite
def step_profiles(draw):
    """Samples built from flat, smooth and jump increments, with a and b on,
    or half a cell off, the cell boundaries so runs land on both sides of
    the 1.5 h margins."""
    n = draw(st.integers(2, 40))
    rises = {"flat": 0.0, "smooth": 1e-4, "up": 1.0, "down": -0.5}
    kinds = draw(st.lists(st.sampled_from(sorted(rises)), min_size=n - 1, max_size=n - 1))
    noise = draw(st.floats(0.0, 1e-6))
    values = np.concatenate(([0.0], np.cumsum([rises[k] for k in kinds])))
    values = values + noise * np.sin(np.arange(n))
    h = draw(st.sampled_from([1e-4, 1e-3, 0.1, 0.25]))
    x0 = draw(st.floats(-2.0, 2.0))
    a = x0 + h * (draw(st.integers(-2, n)) + draw(st.sampled_from([-0.5, 0.0, 0.5])))
    b = x0 + h * (draw(st.integers(0, n + 2)) + draw(st.sampled_from([-0.5, 0.0, 0.5])))
    return values.tolist(), x0, h, a, b


@given(case=step_profiles())
@example(case=([0, 1, 2, 2, 2, 2, 2, 2], 0.0, 0.1, -1.0, 2.0))  # run at the left end
@example(case=([0, 0, 0, 0, 0, 0, 1, 2], 0.0, 0.1, -1.0, 2.0))  # run at the right end
@example(case=([0, 0, 0, 1, 2, 3, 3, 3, 3], 0.0, 0.1, -1.0, 2.0))  # merged increments
@example(case=([0, 0, 1, 1, 1, 1, 1, 1, 1, 1], 0.0, 0.1, 0.1, 2.0))  # within 1.5 h of a
@example(case=([0, 0, 1, 1, 1, 1, 1, 1, 1, 1], 0.0, 0.1, 0.0, 2.0))  # just clear of a
@example(case=([0, 0, 0, 0, 0, 0, 0, 0, 1, 1], 0.0, 0.1, -1.0, 0.9))  # within 1.5 h of b
@settings(max_examples=300)
def test_jump_scan_matches_the_run_loop(case):
    values, x0, h, a, b = case
    samples = SampledFunction(x0, h, values)
    assert _detect_jumps(samples, a, b) == detect_jumps_loop(samples, a, b)


def test_grid_solution_eval_and_step_validation():
    p = staircase_problem()
    sol = solve_dr_on_grid(p, 1e-2)
    assert abs(sol.eval(0.3) - 0.4) < 1e-12
    with pytest.raises(DomainError):
        solve_dr_on_grid(p, 0.0)


# ---------------------------------------------------------------------------
# oracle: dense solve of the difference chain on aligned instances
# ---------------------------------------------------------------------------


def test_explicit_formula_matches_dense_lattice_solve():
    rng = np.random.default_rng(42)
    for _ in range(6):
        p, N = aligned_problem(rng)
        dense = dense_lattice_solve(p, N)
        explicit = explicit_lattice_values(p, N)
        assert np.max(np.abs(dense - explicit)) < 1e-10


@st.composite
def chain_problems(draw):
    """A problem with r/span in [1e-3, 0.8] and interior probe points:
    random ones, lattice points a + k r and b - k r, and points 1e-13 off
    those.  The source is a SampledFunction or a scalar-only callable."""
    a = draw(st.floats(-2.0, 2.0))
    span = draw(st.floats(0.5, 3.0))
    b = a + span
    r = draw(st.floats(1e-3, 0.8)) * span
    coef = [draw(st.floats(-1.0, 1.0)) for _ in range(8)]
    alpha = trig(coef[0], coef[1], coef[2], 1.3)
    beta = trig(coef[3], coef[4], coef[5], 0.7)
    if draw(st.booleans()):
        f = SampledFunction.from_callable(
            lambda x: coef[6] * np.cos(5.0 * np.asarray(x)), a - 0.01, 1e-3 * span, 1030
        )
    else:
        f = lambda x: coef[6] + coef[7] * math.sin(3.0 * x)  # rejects arrays
    steps = max(1, int(span / r))
    xs = []
    for _ in range(6):
        kind = draw(st.sampled_from(["random", "left", "right"]))
        if kind == "random":
            x = a + draw(st.floats(1e-9, 1.0 - 1e-9)) * span
        else:
            k = draw(st.integers(1, steps))
            x = a + k * r if kind == "left" else b - k * r
            x += draw(st.sampled_from([0.0, 1e-13, -1e-13]))
        if a < x < b:
            xs.append(x)
    # sup|alpha| + sup|beta| + span^2 sup|f|, with |alpha|, |beta| <= 3 and |f| <= 2
    scale = 6.0 + 2.0 * span * span
    return DrProblem(a=a, b=b, r=r, alpha=alpha, beta=beta, f=f), np.array(xs), scale


@given(case=chain_problems())
@settings(max_examples=100, deadline=None)
def test_evaluator_matches_the_scalar_closed_form(case):
    p, xs, scale = case
    expected = [closed_form_value(p, float(x)) for x in xs]
    assert np.all(np.abs(_solve_points(p, xs) - expected) <= 1e-12 * scale)


def test_one_point_at_small_r_calls_the_source_a_few_times():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.zeros_like(np.asarray(x, dtype=float))

    one = lambda x: 1.0 + 0.0 * np.asarray(x)
    p = DrProblem(a=0.0, b=1.0, r=1e-5, alpha=zero, beta=one, f=f)
    assert solve_dr_explicit(p, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert len(calls) <= 3


def test_chain_length_is_bounded():
    one = lambda x: 1.0 + 0.0 * np.asarray(x)
    with pytest.raises(PreconditionError):
        DrProblem(a=0.0, b=1.0, r=1e-7, alpha=zero, beta=one, f=zero)
    p = DrProblem(a=0.0, b=1.0, r=1e-6, alpha=zero, beta=one, f=zero)
    assert solve_dr_explicit(p, 0.5) == pytest.approx(0.5, rel=1e-12)


def test_grid_sample_count_is_bounded(monkeypatch):
    forbid_large_arange(monkeypatch)
    p = DrProblem(a=0.0, b=1.0, r=0.25, alpha=zero, beta=zero, f=zero)
    with pytest.raises(PreconditionError, match="samples"):
        solve_dr_on_grid(p, 1e-9)
    # span / h overflows to inf: still the typed error, not OverflowError
    with pytest.raises(PreconditionError, match="samples"):
        solve_dr_on_grid(p, 5e-324)


def test_staircase_against_dense_solve():
    p = staircase_problem()
    dense = dense_lattice_solve(p, 4)
    assert np.allclose(dense, [0.25, 0.5, 0.75], atol=1e-14)
    explicit = explicit_lattice_values(p, 4)
    assert np.max(np.abs(dense - explicit)) < 1e-14


# ---------------------------------------------------------------------------
# residual, maximum principle, regularity
# ---------------------------------------------------------------------------


def test_residual_vanishes_off_the_null_set():
    rng = np.random.default_rng(3)
    for _ in range(3):
        p = random_problem(rng)
        report = residual_check(p, n_samples=400)
        assert report.passed, report.detail
        assert report.n_checked == 400
        assert report.worst < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-10.0, 10.0),
    span=st.floats(1e-6, 10.0),
    links=st.floats(1.0, 0.99 * MAX_CHAIN),
    n=st.integers(1, 3000),
)
@example(a=0.0, span=1.0, links=MAX_CHAIN, n=3000)  # the null set drops candidates
@example(a=0.0, span=1e-6, links=1e3, n=10)  # the null set drops every candidate
def test_residual_points_match_the_one_sweep(a, span, links, n):
    p = DrProblem(a=a, b=a + span, r=span / links, alpha=zero, beta=zero, f=zero)
    want = residual_points_sweep(p, n)
    if want.size == 0:
        with pytest.raises(PreconditionError, match="null set"):
            _residual_points(p, n)
        with pytest.raises(PreconditionError, match="null set"):
            residual_check(p, n)
        return
    got = _residual_points(p, n)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_residual_check_evaluates_the_source_once_per_row_block():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return 0.5 + 0.0 * np.asarray(x, dtype=float)

    links = 4
    p = DrProblem(a=0.0, b=1.0, r=1.0 / links, alpha=zero, beta=zero, f=f)
    report = residual_check(p, n_samples=1000)
    assert report.passed, report.detail
    # one stacked solve of x + r, x - r and x takes at most links + 1 row
    # blocks (the last one a remainder), then f runs once at the checked points
    stacked = len(calls)
    assert stacked <= links + 2, calls
    calls.clear()
    residual_check_sweep(p, 1000)
    # three separate solves take at least links blocks each
    assert len(calls) >= 3 * links + 1 > stacked, calls


def test_residual_check_matches_the_three_solve_oracle():
    p = DrProblem(
        a=-0.5,
        b=0.5,
        r=0.01,
        alpha=trig(0.3, 0.2, -0.1, 1.3),
        beta=trig(-0.4, 0.1, 0.25, 0.7),
        f=lambda x: 1.0 - 0.8 * np.asarray(x, dtype=float) ** 2,
    )
    assert residual_check(p, n_samples=1000) == residual_check_sweep(p, 1000)


def test_check_sample_counts_are_bounded(monkeypatch):
    forbid_large_arange(monkeypatch)
    p = DrProblem(a=0.0, b=1.0, r=0.25, alpha=zero, beta=zero, f=zero)
    for check, too_few in ((residual_check, 0), (max_principle_check, 1), (regularity_bounds, 2)):
        with pytest.raises(PreconditionError, match="limit"):
            check(p, 10**8)
        # fewer would leave a sample grid empty
        with pytest.raises(PreconditionError, match="at least"):
            check(p, too_few)


def test_residual_check_with_sampled_data():
    # collar data handed over as samples instead of callables
    grid = lambda f, x0, n: SampledFunction.from_callable(f, x0, 1e-3, n)
    p = DrProblem(
        a=0.0,
        b=1.0,
        r=0.25,
        alpha=grid(lambda x: np.sin(np.asarray(x)), -0.25, 260),
        beta=grid(lambda x: np.cos(np.asarray(x)), 1.0, 260),
        f=lambda x: 0.3 * np.asarray(x),
    )
    report = residual_check(p, n_samples=300)
    # sampled collars quantize the data at h, so the defect is O(h), not 0
    assert report.worst < 5e-3


def test_max_principle_holds_on_sign_constrained_data():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = sign_constrained_problem(rng)
        report = max_principle_check(p, n_samples=500)
        assert report.passed
        assert report.worst <= 1e-12


def test_max_principle_rejects_wrong_sign_data():
    p = DrProblem(
        a=0.0,
        b=1.0,
        r=0.25,
        alpha=lambda x: 0.2 + 0.0 * np.asarray(x),
        beta=zero,
        f=zero,
    )
    with pytest.raises(PreconditionError):
        max_principle_check(p)


def test_comparison_with_ordered_data():
    """Raising the boundary data and lowering the source raises the solution."""
    rng = np.random.default_rng(29)
    p1 = random_problem(rng)
    bump_a = float(rng.uniform(0.0, 0.5))
    bump_b = float(rng.uniform(0.0, 0.5))
    drop_f = float(rng.uniform(0.0, 0.5))
    p2 = DrProblem(
        a=p1.a,
        b=p1.b,
        r=p1.r,
        alpha=lambda x: np.asarray(p1.alpha(x)) + bump_a,
        beta=lambda x: np.asarray(p1.beta(x)) + bump_b,
        f=lambda x: np.asarray(p1.f(x)) - drop_f,
    )
    xs = np.linspace(p1.a + 1e-3, p1.b - 1e-3, 257)
    u1 = np.array([solve_dr_explicit(p1, float(x)) for x in xs])
    u2 = np.array([solve_dr_explicit(p2, float(x)) for x in xs])
    assert np.all(u1 <= u2 + 1e-12)


def test_regularity_bounds_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = random_problem(rng)
        rep = regularity_bounds(p)
        assert rep.linf_ok
        assert rep.linf_measured <= rep.linf_bound + 1e-9
        assert rep.jump_bound is None  # f is not identically zero here


def test_jump_bound_for_sourceless_instances():
    rng = np.random.default_rng(23)
    for _ in range(6):
        p = left_dominant_problem(rng)
        rep = regularity_bounds(p)
        assert rep.jump_ok
        assert rep.jump_measured <= rep.jump_bound + 1e-9


def test_jump_bound_is_one_sided():
    """The reported jump bound carries the left collar's oscillation only.

    A steep right collar produces jumps on b - r N far above it; reflecting
    the problem through (a+b)/2 swaps the collars and restores the bound.
    """
    a, b, r, s = 0.0, 2.0, 0.3, 2.0
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    steep = lambda x: s * (np.asarray(x, dtype=float) - b)
    p = DrProblem(a=a, b=b, r=r, alpha=flat, beta=steep, f=zero)
    rep = regularity_bounds(p)
    assert not rep.jump_ok
    refl = DrProblem(
        a=a,
        b=b,
        r=r,
        alpha=lambda x: steep(a + b - np.asarray(x, dtype=float)),
        beta=lambda x: flat(a + b - np.asarray(x, dtype=float)),
        f=zero,
    )
    rep_refl = regularity_bounds(refl)
    assert rep_refl.jump_ok


def test_problem_validation():
    with pytest.raises(PreconditionError):
        DrProblem(a=1.0, b=0.0, r=0.25, alpha=zero, beta=zero, f=zero)
    with pytest.raises(PreconditionError):
        DrProblem(a=0.0, b=1.0, r=-0.25, alpha=zero, beta=zero, f=zero)
    with pytest.raises(PreconditionError):
        DrProblem(a=0.0, b=1.0, r=0.25, alpha=3.0, beta=zero, f=zero)


def test_step_count_pairs_do_not_collide_at_large_kbar():
    # kunder = 1 and kbar = 100000: a packed key ku * 100000 + kb would
    # decode this pair as (2, 0) and return beta alone
    p = DrProblem(a=0.0, b=1.0, r=1e-5, alpha=zero, beta=lambda x: 1.0 + 0.0 * np.asarray(x), f=zero)
    x = 0.5e-5
    assert (kunder(x, 0.0, 1.0, 1e-5), kbar(x, 0.0, 1.0, 1e-5)) == (1, 100000)
    assert solve_dr_explicit(p, x) == pytest.approx(1.0 / (1.0 + 100000.0), rel=1e-12)
