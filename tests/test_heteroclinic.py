"""Windowed lattice connections: minimizers, shooting, bounds, witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    best_descent,
    forbid_large_arange,
    off_centre_steps,
    ramp_and_centred_step,
    sorted_uniform_starts,
    time_limit,
)
from oschet import heteroclinic
from oschet.errors import (
    ConvergenceError,
    DomainError,
    NoBracketError,
    PreconditionError,
    UnsupportedOperationError,
)
from oschet.heteroclinic import (
    LatticeProfile,
    SolverOptions,
    discrete_energy,
    el_residual,
    energy_upper_bounds,
    lift_profile,
    recurrence_step,
    shoot_heteroclinic,
    solve_discrete_dirichlet,
    solve_symmetric_bond,
    solve_symmetric_node,
    step_is_not_minimal,
)
from oschet.potential import custom, eval_w, eval_w_array, pendulum, quartic
from oschet.sampled import SampledFunction, energy_E, energy_F

WELLS = {"quartic": quartic(), "pendulum": pendulum()}
# a strongly inward derivative: W''(1) < 0, so no tail decays into the well
INWARD_WELL = custom(lambda t: 5.0 - 5.0 * t * t, dw=lambda t: -10.0 * t)
SOLVERS = {
    "none": solve_discrete_dirichlet,
    "node_odd": solve_symmetric_node,
    "bond_odd": solve_symmetric_bond,
}
# each well times 4: (r / 2, 4 W) scales every term of the lattice energy by 4
FOUR_WELLS = {
    name: custom(lambda t, W=W: 4.0 * W.w(t), lambda t, W=W: 4.0 * W.dw(t))
    for name, W in WELLS.items()
}


def window_energy(values, r, W):
    """Reference energy sum written out longhand: the tested code's formula,
    recomputed without LatticeProfile in the loop."""
    values = np.asarray(values, dtype=float)
    diffs = np.diff(values)
    return float(np.sum(diffs * diffs)) / (2 * r * r) + float(
        np.sum(eval_w_array(W, values[:-1]))
    )


# ---------------------------------------------------------------------------
# oracle 1: exhaustive search for the single-free-site problem
# ---------------------------------------------------------------------------


def test_single_site_matches_grid_search():
    W = quartic()
    r = 1.0
    ws = np.linspace(-1.0, 1.0, 2_000_001)
    energies = ((ws + 1.0) ** 2 + (1.0 - ws) ** 2) / (2 * r * r) + eval_w_array(W, ws)
    best = int(np.argmin(energies))
    report = solve_discrete_dirichlet(1, r, W)
    assert report.converged
    assert abs(report.minimizer.values[1] - ws[best]) < 1e-6
    assert abs(report.value - energies[best]) < 1e-8
    # the symmetric problem has its minimum at the midpoint
    assert abs(report.minimizer.values[1]) < 1e-6
    assert abs(report.value - 1.25) < 1e-8


# ---------------------------------------------------------------------------
# oracle 2: dynamic programming over a value grid for K = 3
# ---------------------------------------------------------------------------


def chain_dp_value(K: int, r: float, W, m: int = 2001) -> float:
    grid = np.linspace(-1.0, 1.0, m)
    wgrid = eval_w_array(W, grid)
    inv = 1.0 / (2 * r * r)
    cost = (grid + 1.0) ** 2 * inv + eval_w(W, -1.0)
    for _ in range(K - 1):
        pair = cost[:, None] + (grid[None, :] - grid[:, None]) ** 2 * inv + wgrid[:, None]
        cost = np.min(pair, axis=0)
    return float(np.min(cost + (1.0 - grid) ** 2 * inv + wgrid))


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_three_site_matches_dynamic_programming(r):
    W = quartic()
    dp = chain_dp_value(3, r, W)
    report = solve_discrete_dirichlet(3, r, W)
    assert report.converged
    # the DP grid quantizes at 1e-3, so its value sits within O(grid^2)
    assert report.value <= dp + 1e-12
    assert dp - report.value < 2e-5


# ---------------------------------------------------------------------------
# oracle 3: a much fatter multistart should find nothing better
# ---------------------------------------------------------------------------


def test_default_multistart_is_globally_stable():
    # (well, symmetry, K, r, rng seed): the first two are the original
    # 100-start pools; the last two are plain windows where the ramp, a
    # default start before the kink, alone lost.  The oracle descends from the
    # two off-centre steps and 96 sorted random rows.
    cases = [
        ("quartic", "none", 8, 0.5, 321),
        ("quartic", "bond_odd", 6, 0.5, 77),
        ("quartic", "node_odd", 8, 0.5, 5),
        ("pendulum", "none", 8, 0.5, 6),
        ("pendulum", "node_odd", 8, 0.5, 7),
        ("pendulum", "bond_odd", 6, 0.5, 8),
        ("quartic", "none", 5, 2.0, 9),
        ("pendulum", "none", 3, 3.0, 10),
    ]
    for name, symmetry, K, r, seed in cases:
        W = WELLS[name]
        d = K - (symmetry != "none")
        fat_pool = sorted_uniform_starts(np.random.default_rng(seed), 96, d)
        base = SOLVERS[symmetry](K, r, W)
        fat = best_descent(K, r, W, symmetry, off_centre_steps(d) + fat_pool, 100_000)
        assert base.converged
        assert base.value <= fat + 1e-12 * abs(fat), (name, K, r)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_off_centre_steps_never_find_a_lower_value(data):
    # in a plain window the steps at a quarter and three quarters are
    # translates of the kink; the default starts must reach their value.
    # The budget caps a draw where a start creeps along the kink's lattice
    # barrier.
    W = WELLS[data.draw(st.sampled_from(sorted(WELLS)))]
    K = data.draw(st.integers(1, 48))
    r = data.draw(st.floats(0.05, 5.0))
    base = solve_discrete_dirichlet(K, r, W, SolverOptions(max_iters=1000))
    oracle = best_descent(K, r, W, "none", off_centre_steps(K), 1000)
    assert base.value <= oracle + 1e-12 * abs(oracle)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_ramp_and_centred_step_never_find_a_lower_value(data):
    # the kink replaced the ramp and the centred step as default starts;
    # they stay as an oracle, each with the same capped budget
    W = WELLS[data.draw(st.sampled_from(sorted(WELLS)))]
    symmetry = data.draw(st.sampled_from(sorted(SOLVERS)))
    K = data.draw(st.integers(1 + (symmetry != "none"), 48))
    r = data.draw(st.floats(0.05, 5.0))
    base = SOLVERS[symmetry](K, r, W, SolverOptions(max_iters=1000))
    oracle = best_descent(K, r, W, symmetry, ramp_and_centred_step(K, symmetry), 1000)
    assert base.value <= oracle + 1e-12 * abs(oracle)


# ---------------------------------------------------------------------------
# solver behaviour
# ---------------------------------------------------------------------------


def test_reported_value_is_recomputed_window_energy():
    W = quartic()
    report = solve_discrete_dirichlet(5, 0.5, W)
    assert report.value == window_energy(report.minimizer.values, 0.5, W)


def test_plain_minimizer_is_monotone_and_symmetric():
    W = quartic()
    report = solve_discrete_dirichlet(9, 0.5, W)
    v = report.minimizer.values
    assert np.all(np.diff(v) >= -1e-12)
    # the quartic well is even, so the minimizer is odd about the midpoint
    assert np.max(np.abs(v + v[::-1])) < 1e-7


def test_node_profile_is_exactly_odd():
    report = solve_symmetric_node(8, 0.5, quartic())
    v = report.minimizer.values
    assert report.minimizer.symmetry == "node_odd"
    assert np.all(v == -v[::-1])
    assert v[len(v) // 2] == 0.0


def test_bond_profile_is_exactly_odd_about_the_bond():
    report = solve_symmetric_bond(8, 0.5, quartic())
    v = report.minimizer.values
    assert report.minimizer.symmetry == "bond_odd"
    assert np.all(v == -v[::-1])
    assert len(v) % 2 == 0


def test_symmetric_values_respect_explicit_bounds():
    W = quartic()
    for r in (0.25, 0.5, 1.0):
        node = solve_symmetric_node(6, r, W)
        bond = solve_symmetric_bond(6, r, W)
        assert node.value <= 1.0 / (r * r) + eval_w(W, 0.0) + 1e-12
        assert bond.value <= 2.0 / (r * r) + 1e-12


def test_node_value_decreases_with_window_size():
    W = pendulum()
    prev = math.inf
    for K in (2, 4, 8, 16):
        val = solve_symmetric_node(K, 0.5, W).value
        assert val <= prev + 1e-10
        prev = val


def test_residuals_scale_like_the_recurrence():
    W = quartic()
    report = solve_discrete_dirichlet(6, 0.5, W)
    assert report.el_residual <= 1e-8
    assert el_residual(report.minimizer, W) == report.el_residual


def test_plain_window_converges_in_few_newton_iterations():
    # two starts share the count, each converging in tens of Newton steps
    report = solve_discrete_dirichlet(16, 0.5, quartic())
    assert report.converged
    assert report.iterations <= 500
    # large windows: a step off the centre would creep back along the kink's
    # lattice barrier for over 13,000 iterations
    for K, r, W, most in ((96, 0.25, quartic(), 100), (200, 0.1, pendulum(), 300)):
        report = solve_discrete_dirichlet(K, r, W)
        assert report.converged and report.iterations <= most, (K, r, report.iterations)


@pytest.mark.parametrize(
    "symmetry, K, r, name, most",
    [
        # the ramp crept along the kink's lattice barrier for over 12,000 iterations
        ("none", 19, 1.1275717139185464, "quartic", 100),
        ("none", 37, 1.1469200642252402, "quartic", 100),
        # W'(1) rounding to -1.2e-16 freed one site per iteration: 776 iterations
        ("node_odd", 488, 0.02, "pendulum", 20),
        # the kink creeps here unless W' is exactly 0 at the wells
        ("none", 55, 0.7328400813020374, "pendulum", 200),
    ],
)
def test_kink_starts_converge_without_creeping(symmetry, K, r, name, most):
    report = SOLVERS[symmetry](K, r, WELLS[name], SolverOptions(max_iters=1000))
    assert report.converged and report.iterations <= most, report.iterations


def test_start_with_indefinite_hessian_reaches_the_minimum():
    W = quartic()
    r = 2.0
    # at z = 0 the Hessian (1/r^2) tridiag(-1, 2, -1) + W''(0) I is
    # negative definite, so the first Newton solve needs the Levenberg shift
    lap = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    assert np.max(np.linalg.eigvalsh(lap / r**2 - np.eye(4))) < 0.0
    base = solve_discrete_dirichlet(4, r, W)
    from_zero = best_descent(4, r, W, "none", (np.zeros(4),), 100_000)
    assert base.converged
    assert abs(from_zero - base.value) < 1e-12


def test_large_window_still_converges():
    W = quartic()
    report = solve_symmetric_node(128, 0.25, W)
    assert report.converged
    assert report.el_residual <= 1e-10
    # the connection fits well inside the window: doubling it changes nothing
    assert abs(report.value - solve_symmetric_node(64, 0.25, W).value) < 1e-10
    # the kink starts at the node and at the bond do not creep
    assert report.iterations <= 200
    bond = solve_symmetric_bond(96, 0.25, W)
    assert bond.converged
    assert bond.iterations <= 200


def test_large_windows_converge_on_the_pendulum():
    # near the well the objective moves only at roundoff while the EL residual
    # keeps shrinking, so a start must not stop on a roundoff-sized decrease
    W = pendulum()
    report = solve_symmetric_bond(128, 0.1, W)
    assert report.converged and report.el_residual <= 1e-10
    report = solve_symmetric_node(128, 0.1, W)
    assert report.converged and report.el_residual <= 1e-10


def test_iteration_budget_bounds_the_summed_iterations():
    W = quartic()
    for solve in (solve_discrete_dirichlet, solve_symmetric_node):
        for budget in (0, -3):
            with pytest.raises(ConvergenceError):
                solve(12, 0.5, W, SolverOptions(max_iters=budget))
        for budget in range(1, 21):
            report = solve(12, 0.5, W, SolverOptions(max_iters=budget))
            assert report.iterations <= budget
    # the starts run one after another, so the first kink alone may spend the budget
    assert solve_discrete_dirichlet(12, 0.5, W, SolverOptions(max_iters=5)).converged


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_descent_scales_exactly_with_r_and_the_well(data):
    # (r / 2, 4 W) multiplies every term of the box objective by 4, a power
    # of two, so every step of a descent from the same start scales exactly;
    # the budget caps a draw where a start creeps, and a cut descent scales too
    name = data.draw(st.sampled_from(sorted(WELLS)))
    symmetry = data.draw(st.sampled_from(["none", "node_odd", "bond_odd"]))
    K = data.draw(st.integers(2, 40))
    r = data.draw(st.floats(0.05, 2.0))
    problem = heteroclinic._BoxProblem(K, r, WELLS[name], symmetry)
    scaled = heteroclinic._BoxProblem(K, r / 2, FOUR_WELLS[name], symmetry)
    tol = SolverOptions().tol
    starts = problem.starts()
    assert [z.tobytes() for z in scaled.starts()] == [z.tobytes() for z in starts]
    for start in starts:
        z, used = heteroclinic._descend(problem, start, tol, 500)
        z4, used4 = heteroclinic._descend(scaled, start, tol, 500)
        assert z4.tobytes() == z.tobytes() and used4 == used
        assert scaled.objective(z4) == 4.0 * problem.objective(z)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_solvers_scale_exactly_with_r_and_the_well(data):
    # the public solvers on (K, r / 2, 4 W): the same descents, and a choice of
    # start that compares values relatively, so the same winner
    name = data.draw(st.sampled_from(sorted(WELLS)))
    solve = SOLVERS[data.draw(st.sampled_from(sorted(SOLVERS)))]
    K = data.draw(st.integers(2, 40))
    r = data.draw(st.floats(0.05, 2.0))
    opts = SolverOptions(max_iters=1000)
    base = solve(K, r, WELLS[name], opts)
    scaled = solve(K, r / 2, FOUR_WELLS[name], opts)
    assert scaled.minimizer.values.tobytes() == base.minimizer.values.tobytes()
    assert scaled.iterations == base.iterations
    assert scaled.value == 4.0 * base.value


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_rearrangement_never_raises_the_objective(data):
    W = WELLS[data.draw(st.sampled_from(sorted(WELLS)))]
    symmetry = data.draw(st.sampled_from(["none", "node_odd", "bond_odd"]))
    K = data.draw(st.integers(2, 40))
    problem = heteroclinic._BoxProblem(K, data.draw(st.floats(0.05, 2.0)), W, symmetry)
    z = np.array(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=problem.dim, max_size=problem.dim))
    )
    f = problem.objective(z)
    assert problem.objective(problem.rearrange(z)) <= f + 1e-14 * abs(f)


def test_solver_rejects_bad_arguments():
    W = quartic()
    with pytest.raises(PreconditionError):
        solve_discrete_dirichlet(0, 0.5, W)
    with pytest.raises(PreconditionError):
        solve_discrete_dirichlet(4, -1.0, W)
    with pytest.raises(PreconditionError):
        solve_symmetric_node(1, 0.5, W)
    with pytest.raises(PreconditionError):
        solve_symmetric_bond(1, 0.5, W)
    with pytest.raises(UnsupportedOperationError):
        solve_discrete_dirichlet(4, 0.5, custom(lambda t: (1 - t * t) ** 2 / 4))
    for solve in (solve_discrete_dirichlet, solve_symmetric_node, solve_symmetric_bond):
        # an infinite tol would pass the untouched kink start as converged
        for tol in (math.inf, math.nan, 0.0, -1e-10):
            with pytest.raises(PreconditionError, match="tol must be"):
                solve(4, 0.5, W, SolverOptions(tol=tol))
        for budget in (math.nan, math.inf, 2.5):
            with pytest.raises(PreconditionError, match="max_iters must be"):
                solve(4, 0.5, W, SolverOptions(max_iters=budget))
        with pytest.raises(ConvergenceError):
            solve(4, 0.5, W, SolverOptions(max_iters=0))
    assert solve_discrete_dirichlet(4, 0.5, W, SolverOptions(max_iters=np.int64(100))).converged


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_starts_are_distinct_monotone_points_of_the_box(data):
    # the descent takes the starts as they are: no clip, no move into the
    # monotone cone and no dedup stands between them; a well whose W''(1) is
    # not positive has a flat kink, so a plain window gets it once
    name = data.draw(st.sampled_from(sorted(WELLS) + ["inward"]))
    W = WELLS.get(name, INWARD_WELL)
    symmetry = data.draw(st.sampled_from(sorted(SOLVERS)))
    K = data.draw(st.integers(1 + (symmetry != "none"), 200))
    problem = heteroclinic._BoxProblem(K, data.draw(st.floats(0.05, 5.0)), W, symmetry)
    starts = problem.starts()
    assert len(starts) == 1 + (symmetry == "none" and name != "inward")
    for z in starts:
        assert z.shape == (problem.dim,)
        assert np.array_equal(np.clip(z, -1.0, 1.0), z)
        assert np.array_equal(problem.rearrange(z), z)
    assert len({z.tobytes() for z in starts}) == len(starts)


def test_window_size_is_capped_before_allocating(monkeypatch):
    forbid_large_arange(monkeypatch)
    W = quartic()
    for solve in (solve_discrete_dirichlet, solve_symmetric_node, solve_symmetric_bond):
        for K in (10**9, math.inf, math.nan):
            with pytest.raises(PreconditionError, match="K must be"):
                solve(K, 0.5, W)
        with pytest.raises(PreconditionError, match="K must be"):
            solve(heteroclinic.MAX_K + 1, 0.5, W)


def test_a_range_whose_square_overflows_is_refused_without_hanging():
    # s / r^2 underflows to 0 there, and a Levenberg shift of 0 never grows
    with time_limit(10):
        for solve in (solve_discrete_dirichlet, solve_symmetric_node):
            with pytest.raises(PreconditionError, match="finite square"):
                solve(3, 1e160, pendulum())


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_tiny_range_is_solved_or_refused_with_a_typed_error(data):
    # r^2 underflows below about 1.5e-154, and below about 6.7e-152 the
    # descent's sums of up to MAX_K terms of 8 / r^2 could overflow
    W = WELLS[data.draw(st.sampled_from(sorted(WELLS)))]
    symmetry = data.draw(st.sampled_from(sorted(SOLVERS)))
    K = data.draw(st.integers(1 + (symmetry != "none"), 60))
    r = 10.0 ** data.draw(st.floats(-320.0, -100.0))
    with time_limit(10):
        try:
            report = SOLVERS[symmetry](K, r, W)
        except PreconditionError as exc:
            assert "finite square" in str(exc) and r < 1e-150
        else:
            assert report.converged
        if symmetry != "none":
            with pytest.raises((PreconditionError, ConvergenceError)):
                shoot_heteroclinic(r, W, symmetry)


# ---------------------------------------------------------------------------
# lattice profiles
# ---------------------------------------------------------------------------


def test_profile_extends_by_the_well_values():
    p = LatticeProfile(0.5, 0, 3, np.array([-1.0, -0.2, 0.2, 1.0]))
    assert p.value(0) == -1.0
    assert p.value(-5) == -1.0
    assert p.value(99) == 1.0
    # inclusive on both ends
    assert np.all(p.values_range(-2, 6) == [-1, -1, -1, -0.2, 0.2, 1, 1, 1, 1])


def test_profile_rejects_escaping_values():
    with pytest.raises(DomainError):
        LatticeProfile(0.5, 0, 2, np.array([-1.0, 1.5, 1.0]))


def test_profile_rejects_broken_symmetry():
    cases = [
        (-1, 1, [-0.5, 0.1, 0.5], "node_odd"),  # values not odd about 0
        (0, 2, [-0.5, 0.0, 0.5], "node_odd"),  # window not centred on the node
        (-2, 1, [-0.5, -0.1, 0.2, 0.5], "bond_odd"),  # values not odd about -1/2
        (-1, 1, [-0.5, 0.0, 0.5], "bond_odd"),  # window not centred on the bond
        (-1, 1, [-0.5, 0.0, 0.5], "odd"),  # not a symmetry at all
    ]
    for n_min, n_max, values, symmetry in cases:
        with pytest.raises(DomainError):
            LatticeProfile(0.5, n_min, n_max, np.array(values), symmetry)
    # and accepts exact ones
    LatticeProfile(0.5, -1, 1, np.array([-0.5, 0.0, 0.5]), "node_odd")
    LatticeProfile(0.5, -2, 1, np.array([-0.5, -0.2, 0.2, 0.5]), "bond_odd")


def test_recurrence_step_reproduces_stationarity():
    W = quartic()
    r = 0.5
    report = solve_discrete_dirichlet(6, r, W)
    v = report.minimizer.values
    for j in range(1, len(v) - 1):
        # the stationarity defect at j is exactly the el_residual's summand
        nxt = recurrence_step(v[j - 1], v[j], r, W)
        assert abs(nxt - v[j + 1]) <= report.el_residual + 1e-15


@pytest.mark.parametrize("r", [0.0, -0.5, math.inf, math.nan])
def test_recurrence_step_rejects_a_bad_range(r):
    with pytest.raises(DomainError):
        recurrence_step(0.1, 0.2, r, quartic())


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------


def test_shot_node_profile_has_machine_residual():
    W = quartic()
    prof = shoot_heteroclinic(0.5, W, "node_odd")
    assert prof.symmetry == "node_odd"
    assert el_residual(prof, W) < 1e-13
    assert np.all(np.diff(prof.values) >= 0.0)
    assert abs(prof.values[-1] - 1.0) < 1e-7


def test_shot_bond_profile_has_machine_residual():
    W = quartic()
    prof = shoot_heteroclinic(0.5, W, "bond_odd")
    assert prof.symmetry == "bond_odd"
    assert el_residual(prof, W) < 1e-13
    assert np.all(prof.values == -prof.values[::-1])


def test_shooting_agrees_with_variational_minimum():
    W = quartic()
    prof = shoot_heteroclinic(0.5, W, "node_odd")
    K = prof.n_max
    var = solve_symmetric_node(K, 0.5, W)
    shot_val = discrete_energy(prof, W, -K, K)
    assert abs(shot_val - var.value) < 1e-5


def test_shooting_rejects_bad_arguments():
    W = quartic()
    with pytest.raises(PreconditionError):
        shoot_heteroclinic(-0.5, W)
    with pytest.raises(PreconditionError):
        shoot_heteroclinic(0.5, W, "diagonal")
    with pytest.raises(PreconditionError):
        shoot_heteroclinic(0.5, W, tol=0.5)
    # range() would raise a bare TypeError on these
    for horizon in (20.5, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="horizon"):
            shoot_heteroclinic(0.5, W, horizon=horizon)
    with pytest.raises(UnsupportedOperationError):
        shoot_heteroclinic(0.5, custom(lambda t: (1 - t * t) ** 2 / 4))


def test_shooting_without_overshoot_reports_no_bracket():
    # a strongly inward derivative turns every orbit back before 1
    with pytest.raises(NoBracketError):
        shoot_heteroclinic(0.5, INWARD_WELL)


# W''(1) of each built-in well, for the oracle's start
WELL_CURVATURE = {"quartic": 2.0, "pendulum": math.pi}


@pytest.mark.parametrize("name", WELLS)
@pytest.mark.parametrize("symmetry", ["node_odd", "bond_odd"])
@pytest.mark.parametrize("r", [0.5, 0.1, 0.02, 0.005])
def test_shot_agrees_with_a_long_pinned_window(name, symmetry, r):
    # the oracle pins w = 1 half again as far out as the shot reaches, so its
    # end perturbs the core by far less than 1e-11
    W = WELLS[name]
    shot = shoot_heteroclinic(r, W, symmetry)
    problem = heteroclinic._BoxProblem(math.ceil(1.5 * shot.n_max) + 2, r, W, symmetry)
    theta = 2.0 * math.asinh(0.5 * r * math.sqrt(WELL_CURVATURE[name]))
    lead = 1.0 if symmetry == "node_odd" else 0.5
    start = np.tanh(0.5 * theta * (np.arange(problem.dim) + lead))
    z, _ = heteroclinic._descend(problem, start, 1e-15, 2000)
    pinned = problem.profile(z)
    core = np.abs(shot.values) < 0.99
    ns = np.arange(shot.n_min, shot.n_max + 1)[core]
    gap = np.abs(shot.values[core] - pinned.values_range(ns[0], ns[-1]))
    assert np.max(gap) <= 1e-11


def test_shot_refuses_an_unreachable_window_before_building_it(monkeypatch):
    def built(*args):
        raise AssertionError("the window was built")

    monkeypatch.setattr(heteroclinic, "_BoxProblem", built)
    # r = 1e-4 needs more than MAX_K sites for either well
    for W in WELLS.values():
        with pytest.raises(ConvergenceError, match="MAX_K"):
            shoot_heteroclinic(1e-4, W)
    # W''(1) = 0: the tail decays like 1 / n, not geometrically, and no
    # window the solver accepts reaches the well
    W = custom(lambda t: (1 - t * t) ** 4 / 4, lambda t: -2.0 * t * (1 - t * t) ** 3)
    with pytest.raises((ConvergenceError, NoBracketError)):
        shoot_heteroclinic(0.5, W)


def test_shot_with_an_infinite_window_estimate_raises_convergence_error():
    # W''(1) = 2e-313 puts theta near 3e-308, so ln(8 / tol) / theta is inf
    c = 1e-313
    W = custom(lambda t: c * (1 - t * t) ** 2 / 4, lambda t: c * (t**3 - t))
    with pytest.raises(ConvergenceError, match="MAX_K"):
        shoot_heteroclinic(7e-152, W)


def test_shot_at_a_coarse_range_reaches_a_target_scaled_by_r_squared():
    # near the well r^2 W'(w) rounds at about r^2 W''(1) ulp(1), so a fixed
    # EL target of 1e-13 is out of reach from about r = 20 on
    for r in (20.0, 50.0, 100.0, 1e100):
        for name, W in WELLS.items():
            for symmetry in ("node_odd", "bond_odd"):
                prof = shoot_heteroclinic(r, W, symmetry)
                assert el_residual(prof, W) <= 1e-13 * r * r * WELL_CURVATURE[name]
                assert prof.values[-1] > 1.0 - 1e-7
    # a range whose square overflows has no lattice energy to minimize
    with pytest.raises(PreconditionError):
        shoot_heteroclinic(1e300, quartic())


@pytest.mark.parametrize("name", WELLS)
@pytest.mark.parametrize("symmetry", ["node_odd", "bond_odd"])
def test_shot_scales_exactly_with_r_and_the_well(name, symmetry):
    # (r / 2, 4 W) has the same recurrence, window, start and EL target
    for r in (40.0, 2.0, 0.5, 0.1, 0.02):
        shot = shoot_heteroclinic(r, WELLS[name], symmetry)
        scaled = shoot_heteroclinic(r / 2, FOUR_WELLS[name], symmetry)
        assert scaled.n_max == shot.n_max
        assert np.array_equal(scaled.values, shot.values)


def test_shot_window_is_capped_by_horizon():
    W = quartic()
    K = shoot_heteroclinic(0.1, W).n_max
    with pytest.raises(ConvergenceError, match="horizon"):
        shoot_heteroclinic(0.1, W, horizon=K // 2)


def test_shot_that_misses_the_el_target_raises(monkeypatch):
    # a W' that is not the slope of W leaves the descent no stationary minimum
    W = custom(lambda t: (1 - t * t) ** 2 / 4, lambda t: 1.05 * (t**3 - t))
    with pytest.raises(ConvergenceError, match="EL residual"):
        shoot_heteroclinic(0.5, W)
    monkeypatch.setattr(heteroclinic, "SHOOT_ITERS", 1)
    for symmetry in ("node_odd", "bond_odd"):
        with pytest.raises(ConvergenceError, match="EL residual"):
            shoot_heteroclinic(0.5, pendulum(), symmetry)


# ---------------------------------------------------------------------------
# lifting and the energy identity
# ---------------------------------------------------------------------------


def test_lifted_window_minimum_matches_comparison_energy():
    W = quartic()
    r = 0.5
    K = 4
    report = solve_discrete_dirichlet(K, r, W)
    h = 1e-3
    lifted = lift_profile(report.minimizer, 0.0, h)
    a = r
    b = 2 * r * (K + 1) + r
    f_val = energy_F(lifted, a, b, r, W).total
    assert abs(f_val - 2 * r * report.value) < 1e-10


def test_lift_places_plateau_n_on_its_cell():
    p = LatticeProfile(0.25, -3, 2, np.array([-1.0, -0.6, -0.2, 0.1, 0.5, 1.0]))
    x0 = 0.7
    lifted = lift_profile(p, x0, 0.05)
    assert lifted.x0 == pytest.approx(x0 + 2 * 0.25 * -3, abs=1e-15)
    for n in range(-3, 3):
        # the cell [x0 + 2nr, x0 + 2(n+1)r) has midpoint x0 + 2nr + r
        assert lifted.eval(x0 + 2 * n * 0.25 + 0.25) == p.value(n)


def test_lift_requires_commensurate_step():
    W = quartic()
    report = solve_discrete_dirichlet(2, 0.5, W)
    with pytest.raises(DomainError):
        lift_profile(report.minimizer, 0.0, 0.3)
    # 2r / h overflows at a subnormal h, and h = 0 gives no ratio at all
    for h in (1e-320, 0.0):
        with pytest.raises(DomainError):
            lift_profile(report.minimizer, 0.0, h)


# ---------------------------------------------------------------------------
# explicit bounds and the non-minimality witness
# ---------------------------------------------------------------------------


def test_upper_bounds_at_half():
    W = quartic()
    bounds = energy_upper_bounds(0.5, W)
    assert bounds.four_over_r == 8.0
    assert abs(bounds.four_plus_cw - (4.0 + 4.0 / 15.0)) < 1e-12
    assert abs(bounds.ramp - 3.6) < 1e-12
    assert bounds.binding == "ramp"


def test_witness_reports_the_exact_well_bound():
    for W in WELLS.values():
        for r in (0.2, 0.5, 1.0, 3.0):
            report = step_is_not_minimal(r, W)
            assert report.four_plus_cw == 4.0 + W.c_w == energy_upper_bounds(r, W).four_plus_cw
            assert report.cw_bound_beats_step == (4.0 + W.c_w < 4.0 / r)


def test_witness_and_bounds_refuse_a_range_whose_step_energy_overflows():
    for r in (1e-320, 2e-308):
        with pytest.raises(DomainError, match="4/r"):
            step_is_not_minimal(r, quartic())
        with pytest.raises(DomainError, match="4/r"):
            energy_upper_bounds(r, quartic())
    # just above the limit every energy of the scan stays finite
    rep = step_is_not_minimal(2.3e-308, quartic())
    assert math.isfinite(rep.step_energy) and math.isfinite(rep.best_energy)
    assert rep.improves and rep.best_eps == 1.0
    assert math.isfinite(energy_upper_bounds(2.3e-308, quartic()).four_over_r)


def test_ramp_bound_disappears_for_large_r():
    bounds = energy_upper_bounds(2.0, quartic())
    assert bounds.ramp is None
    assert bounds.binding == "four_over_r"


def test_ramp_bound_is_attained_by_the_unit_ramp():
    """The bound's competitor really has that energy: sample the clamped
    identity and integrate."""
    W = quartic()
    r = 0.5
    h = 1e-4
    u = SampledFunction.from_callable(
        lambda x: np.clip(x, -1.0, 1.0), -3.0, h, 60_000
    )
    e = energy_E(u, -2.0, 2.0, r, W).total
    bounds = energy_upper_bounds(r, W)
    assert abs(e - bounds.ramp) < 2e-3


def test_witness_improves_on_the_step_at_half():
    rep = step_is_not_minimal(0.5, quartic())
    assert rep.improves
    assert rep.best_energy < rep.step_energy
    # at r = 1/2 easing all the way to the middle (eps = 1, a staircase
    # through 0) is optimal: E = 4/r - 2/r + 2 r W(0)
    assert rep.best_eps == 1.0
    assert abs(rep.best_energy - 4.25) < 1e-12
    assert rep.cw_bound_beats_step


def test_witness_formula_matches_sampled_energy():
    W = quartic()
    r = 0.5
    h = 1e-4
    for eps in (0.1, 0.4):
        bands = lambda x: np.where(
            x < -r, -1.0, np.where(x < 0.0, eps - 1.0, np.where(x < r, 1.0 - eps, 1.0))
        )
        v = SampledFunction.from_callable(bands, -2.0, h, 40_000)
        sampled = energy_E(v, -1.5, 1.5, r, W).total
        formula = 4.0 / r + (2 * eps * eps - 4 * eps) / r + 2 * r * eval_w(W, 1 - eps)
        assert abs(sampled - formula) < 5e-3


@given(r=st.floats(0.05, 1.5), s=st.floats(-0.999, 0.999))
@settings(max_examples=40)
def test_recurrence_step_is_the_stationarity_condition(r, s):
    """u_{n+2} from the step makes the centered defect at u_{n+1} vanish."""
    u2 = recurrence_step(0.0, s, r, quartic())
    defect = u2 - 2 * s + 0.0 - r * r * (s**3 - s)
    assert abs(defect) < 1e-12 * max(1.0, abs(u2))
