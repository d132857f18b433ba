"""Windowed lattice connections: minimizers, shooting, bounds, witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import forbid_large_arange
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
    W = quartic()
    base = solve_discrete_dirichlet(8, 0.5, W)
    fat = solve_discrete_dirichlet(
        8, 0.5, W, SolverOptions(multistart=100, seed=321)
    )
    assert abs(base.value - fat.value) < 1e-9
    bond_base = solve_symmetric_bond(6, 0.5, W)
    bond_fat = solve_symmetric_bond(6, 0.5, W, SolverOptions(multistart=100, seed=77))
    assert abs(bond_base.value - bond_fat.value) < 1e-9


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


def test_warm_start_is_accepted_and_used():
    W = quartic()
    base = solve_discrete_dirichlet(7, 0.5, W)
    warm = solve_discrete_dirichlet(
        7,
        0.5,
        W,
        SolverOptions(multistart=1, extra_starts=(base.minimizer.values[1:-1],)),
    )
    assert abs(warm.value - base.value) < 1e-10


def test_plain_window_converges_in_few_newton_iterations():
    # eight starts share the count, each converging in tens of Newton steps
    report = solve_discrete_dirichlet(16, 0.5, quartic())
    assert report.converged
    assert report.iterations <= 500


def test_start_with_indefinite_hessian_reaches_the_minimum():
    W = quartic()
    r = 2.0
    # at z = 0 the Hessian (1/r^2) tridiag(-1, 2, -1) + W''(0) I is
    # negative definite, so the first Newton solve needs the Levenberg shift
    lap = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    assert np.max(np.linalg.eigvalsh(lap / r**2 - np.eye(4))) < 0.0
    base = solve_discrete_dirichlet(4, r, W)
    from_zero = solve_discrete_dirichlet(
        4, r, W, SolverOptions(multistart=1, extra_starts=(np.zeros(4),))
    )
    assert base.converged and from_zero.converged
    assert abs(from_zero.value - base.value) < 1e-12


def test_large_window_still_converges():
    W = quartic()
    report = solve_symmetric_node(128, 0.25, W)
    assert report.converged
    assert report.el_residual <= 1e-10
    # the connection fits well inside the window: doubling it changes nothing
    assert abs(report.value - solve_symmetric_node(64, 0.25, W).value) < 1e-10
    # multi-kink starts rearranged into the monotone cone do not creep
    assert report.iterations <= 200
    bond = solve_symmetric_bond(96, 0.25, W)
    assert bond.converged
    assert bond.iterations <= 200


def test_iteration_budget_bounds_the_summed_iterations():
    W = quartic()
    for solve in (solve_discrete_dirichlet, solve_symmetric_node):
        for budget in (0, -3):
            with pytest.raises(ConvergenceError):
                solve(12, 0.5, W, SolverOptions(max_iters=budget))
        for budget in range(1, 21):
            report = solve(12, 0.5, W, SolverOptions(max_iters=budget))
            assert report.iterations <= budget


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


def test_window_size_is_capped_before_allocating(monkeypatch):
    forbid_large_arange(monkeypatch)
    W = quartic()
    for solve in (solve_discrete_dirichlet, solve_symmetric_node, solve_symmetric_bond):
        for K in (10**9, math.inf, math.nan):
            with pytest.raises(PreconditionError, match="K must be"):
                solve(K, 0.5, W)
        with pytest.raises(PreconditionError, match="K must be"):
            solve(heteroclinic.MAX_K + 1, 0.5, W)


def test_extra_start_shape_is_checked():
    with pytest.raises(PreconditionError):
        solve_discrete_dirichlet(
            4, 0.5, quartic(), SolverOptions(extra_starts=(np.zeros(3),))
        )


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
    with pytest.raises(UnsupportedOperationError):
        shoot_heteroclinic(0.5, custom(lambda t: (1 - t * t) ** 2 / 4))


def test_shooting_without_overshoot_reports_no_bracket():
    # a strongly inward derivative turns every orbit back before 1
    W = custom(lambda t: 5.0 - 5.0 * t * t, dw=lambda t: -10.0 * t)
    with pytest.raises(NoBracketError):
        shoot_heteroclinic(0.5, W)


def test_shooting_with_unreachable_tol_terminates():
    # no orbit passes within 1e-30 of the well, so the seed bracket
    # collapses to adjacent doubles; the bisection must stop there and
    # report the closest approach instead of spinning on a midpoint
    # that rounds back onto an endpoint
    W = quartic()
    for symmetry in ("node_odd", "bond_odd"):
        with pytest.raises(ConvergenceError, match="closest"):
            shoot_heteroclinic(0.5, W, symmetry, tol=1e-30)


def test_shooting_classifies_each_seed_once(monkeypatch):
    # the bisection keeps the orbit of its inside seed; integrating a seed
    # twice, as a final pass over the bracket's inside end would, is waste
    real = heteroclinic._orbit_classify
    seeds = []

    def counted(s, *args):
        seeds.append(s)
        return real(s, *args)

    monkeypatch.setattr(heteroclinic, "_orbit_classify", counted)
    W = quartic()
    for symmetry in ("node_odd", "bond_odd"):
        seeds.clear()
        shoot_heteroclinic(0.5, W, symmetry)
        assert len(seeds) == len(set(seeds)) > 2
        seeds.clear()
        # no orbit comes within 1e-30, so the bisection runs down to roundoff
        with pytest.raises(ConvergenceError, match="closest"):
            shoot_heteroclinic(0.5, W, symmetry, tol=1e-30)
        assert len(seeds) == len(set(seeds)) > 2


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


def test_lift_requires_commensurate_step():
    W = quartic()
    report = solve_discrete_dirichlet(2, 0.5, W)
    with pytest.raises(DomainError):
        lift_profile(report.minimizer, 0.0, 0.3)


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


def test_witness_rejects_bad_grid():
    with pytest.raises(PreconditionError):
        step_is_not_minimal(0.5, quartic(), eps_grid=[0.5, 1.5])


@given(r=st.floats(0.05, 1.5), s=st.floats(-0.999, 0.999))
@settings(max_examples=40)
def test_recurrence_step_is_the_stationarity_condition(r, s):
    """u_{n+2} from the step makes the centered defect at u_{n+1} vanish."""
    u2 = recurrence_step(0.0, s, r, quartic())
    defect = u2 - 2 * s + 0.0 - r * r * (s**3 - s)
    assert abs(defect) < 1e-12 * max(1.0, abs(u2))
