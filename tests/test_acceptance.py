"""Acceptance suite: one test per numbered criterion, pinned tolerances.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts it. Expensive sweeps are shared through module-scoped fixtures:
the node/bond minimizer sweep feeds criteria 3, 6, 7 and the random
Dirichlet instance batches feed criteria 8, 11, 12.
"""

import numpy as np
import pytest

from helpers import (
    aligned_problem,
    dense_lattice_solve,
    explicit_lattice_values,
    left_dominant_problem,
    poly,
    sign_constrained_problem,
    zero,
)
from oschet import (
    ClassicalHeteroclinic,
    DrProblem,
    SampledFunction,
    convergence_study,
    energy_E,
    energy_F,
    energy_upper_bounds,
    el_residual,
    lift_profile,
    max_principle_check,
    quartic,
    regularity_bounds,
    residual_check,
    shoot_heteroclinic,
    solve_discrete_dirichlet,
    solve_dr_explicit,
    solve_dr_on_grid,
    solve_symmetric_bond,
    solve_symmetric_node,
    step_is_not_minimal,
    truncate,
    window_oscillation,
)
from oschet.potential import eval_w, eval_w_array

R_SWEEP = (0.25, 0.5, 1.0)
K_SWEEP = range(2, 33)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """(flavor, r, K) -> SolveReport over both symmetric families."""
    W = quartic()
    return {
        (flavor, r, K): solver(K, r, W)
        for r in R_SWEEP
        for flavor, solver in (("node", solve_symmetric_node), ("bond", solve_symmetric_bond))
        for K in K_SWEEP
    }


@pytest.fixture(scope="module")
def plain_solves():
    """K -> SolveReport for the plain boxes used by the lifting identity."""
    W = quartic()
    return {K: solve_discrete_dirichlet(K, 0.5, W) for K in (4, 8, 16)}


@pytest.fixture(scope="module")
def shots():
    """(symmetry, r) -> shot profile for both families at the sweep radii."""
    W = quartic()
    return {
        (sym, r): shoot_heteroclinic(r, W, symmetry=sym)
        for sym in ("node_odd", "bond_odd")
        for r in R_SWEEP
    }


def _affine_instance(rng, f_zero=False):
    """Random geometry, affine collars, polynomial source up to degree 3."""
    a = float(rng.uniform(-2.0, 1.0))
    span = float(rng.uniform(0.8, 3.0))
    b = a + span
    r = float(rng.uniform(0.12, 0.45)) * span
    alpha = poly(rng.uniform(-1.0, 1.0, 2))
    beta = poly(rng.uniform(-1.0, 1.0, 2))
    f = zero if f_zero else poly(rng.uniform(-1.0, 1.0, 4))
    return DrProblem(a=a, b=b, r=r, alpha=alpha, beta=beta, f=f)


@pytest.fixture(scope="module")
def dirichlet_instances():
    rng = np.random.default_rng(90210)
    return [_affine_instance(rng) for _ in range(20)]


@pytest.fixture(scope="module")
def sourceless_instances():
    rng = np.random.default_rng(90211)
    return [left_dominant_problem(rng) for _ in range(20)]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_step_function_energy():
    h = 1e-3
    n = int(round(8.0 / h))
    xs = -4.0 + h * np.arange(n)
    u0 = SampledFunction(-4.0, h, np.where(xs < 0, -1.0, 1.0))
    total = energy_E(u0, -3.0, 3.0, 0.5, quartic()).total
    _verdict(
        "criterion 01 step-function energy",
        abs(total - 8.0) <= 1e-2,
        f"E = {total:.6f}, target 8.0 +- 1e-2",
    )


def test_criterion_02_ramp_competitor_energy():
    W = quartic()
    r = 0.5
    # independent midpoint Riemann oracle for the well constant
    n = 2_000_000
    edges = np.linspace(-1.0, 1.0, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    cw_oracle = float(np.sum(eval_w_array(W, mids))) * (2.0 / n)
    cw_gap = abs(W.c_w - cw_oracle)
    bound = 8.0 * r / 3.0 + 4.0 * (1.0 - r) + W.c_w
    h = 1e-4
    u = SampledFunction.from_callable(lambda x: np.clip(x, -1.0, 1.0), -3.0, h, 60_000)
    total = energy_E(u, -2.0, 2.0, r, W).total
    ok = cw_gap <= 1e-8 and abs(bound - 3.6) <= 1e-12 and abs(total - bound) <= 2e-3
    _verdict(
        "criterion 02 ramp competitor energy",
        ok,
        f"sampled {total:.6f} vs 8r/3+4(1-r)+c_W = {bound:.6f}, |c_W oracle gap| = {cw_gap:.2e}",
    )


def test_criterion_03_discrete_bounds(sweep):
    W = quartic()
    worst_bound = -np.inf
    worst_mono = -np.inf
    for r in R_SWEEP:
        caps = {"node": 1.0 / r**2 + eval_w(W, 0.0), "bond": 2.0 / r**2}
        for flavor in ("node", "bond"):
            values = [sweep[(flavor, r, K)].value for K in K_SWEEP]
            worst_bound = max(worst_bound, max(v - caps[flavor] for v in values))
            worst_mono = max(worst_mono, max(np.diff(values)))
    ok = worst_bound <= 1e-10 and worst_mono <= 1e-10
    _verdict(
        "criterion 03 discrete bounds",
        ok,
        f"max bound excess {worst_bound:.2e}, max monotonicity defect {worst_mono:.2e} "
        f"over {len(sweep)} solves",
    )


def test_criterion_04_k1_oracle():
    W = quartic()
    rep = solve_discrete_dirichlet(1, 1.0, W)
    w1 = float(rep.minimizer.values[1])
    # grid search at 1e-6 resolution: window energy of (-1, w, 1) at r = 1
    w = np.linspace(-1.0, 1.0, 2_000_001)
    en = 0.5 * ((w + 1.0) ** 2 + (1.0 - w) ** 2) + eval_w(W, -1.0) + eval_w_array(W, w)
    i = int(np.argmin(en))
    ok = (
        abs(w1 - w[i]) <= 1e-6
        and abs(w1) <= 1e-6
        and abs(rep.value - 1.25) <= 1e-8
        and abs(rep.value - en[i]) <= 1e-8
    )
    _verdict(
        "criterion 04 K=1 oracle",
        ok,
        f"w1 = {w1:.2e} (oracle {w[i]:.2e}), value = {rep.value:.10f} (oracle {en[i]:.10f})",
    )


def test_criterion_05_energy_lifting_identity(plain_solves):
    W = quartic()
    r = 0.5
    worst = 0.0
    for K, rep in plain_solves.items():
        lifted = lift_profile(rep.minimizer, 0.0, 1e-3)
        fv = energy_F(lifted, r, 2.0 * r * (K + 1) + r, r, W).total
        worst = max(worst, abs(fv - 2.0 * r * rep.value))
    _verdict(
        "criterion 05 energy lifting identity",
        worst <= 1e-6,
        f"max |F(lift) - 2 r m| = {worst:.2e} over K in {sorted(plain_solves)}",
    )


def test_criterion_06_el_residual_and_monotonicity(sweep, plain_solves, shots):
    W = quartic()
    profiles = [(rep.minimizer, rep.el_residual) for rep in sweep.values()]
    profiles += [(rep.minimizer, rep.el_residual) for rep in plain_solves.values()]
    profiles += [(p, el_residual(p, W)) for p in shots.values()]
    assert all(rep.converged for rep in sweep.values())
    assert all(rep.converged for rep in plain_solves.values())
    worst_res = max(res for _, res in profiles)
    worst_dip = min(float(np.min(np.diff(p.values))) for p, _ in profiles)
    ok = worst_res <= 1e-8 and worst_dip >= -1e-12
    _verdict(
        "criterion 06 EL residual and monotonicity",
        ok,
        f"max residual {worst_res:.2e}, min increment {worst_dip:.2e} "
        f"over {len(profiles)} profiles",
    )


def test_criterion_07_nonuniqueness(shots):
    W = quartic()
    node = shots[("node_odd", 0.5)]
    bond = shots[("bond_odd", 0.5)]
    res_ok = el_residual(node, W) <= 1e-8 and el_residual(bond, W) <= 1e-8
    nv = np.asarray(node.values)
    bv = np.asarray(bond.values)
    # odd symmetry holds exactly: about the node 0 and about the bond (-1, 0)
    sym_ok = (
        np.array_equal(nv, -nv[::-1])
        and nv[-node.n_min] == 0.0
        and np.array_equal(bv, -bv[::-1])
    )
    ends_ok = (
        abs(nv[-1] - 1.0) <= 1e-6
        and abs(nv[0] + 1.0) <= 1e-6
        and abs(bv[-1] - 1.0) <= 1e-6
        and abs(bv[0] + 1.0) <= 1e-6
    )
    span = 80
    gap = min(
        float(
            np.max(
                np.abs(
                    np.asarray(node.values_range(-span, span))
                    - np.asarray(bond.values_range(-span - s, span - s))
                )
            )
        )
        for s in range(-10, 11)
    )
    ok = res_ok and sym_ok and ends_ok and gap > 1e-3
    _verdict(
        "criterion 07 nonuniqueness",
        ok,
        f"residuals ok {res_ok}, odd symmetry exact {sym_ok}, ends ok {ends_ok}, "
        f"shift-minimized sup gap {gap:.4f} > 1e-3",
    )


def test_criterion_08_explicit_dirichlet_residual(dirichlet_instances):
    worst = 0.0
    for p in dirichlet_instances:
        rep = residual_check(p, n_samples=1000)
        worst = max(worst, rep.worst)
    _verdict(
        "criterion 08 explicit Dirichlet residual",
        worst <= 1e-9,
        f"max residual {worst:.2e} over {len(dirichlet_instances)} instances x 1e3 points",
    )


def test_criterion_09_linear_system_oracle():
    rng = np.random.default_rng(90212)
    worst = 0.0
    for _ in range(10):
        p, N = aligned_problem(rng)
        gap = float(np.max(np.abs(dense_lattice_solve(p, N) - explicit_lattice_values(p, N))))
        worst = max(worst, gap)
    _verdict(
        "criterion 09 linear-system oracle",
        worst <= 1e-10,
        f"max |explicit - dense solve| = {worst:.2e} over 10 aligned instances",
    )


def test_criterion_10_staircase_example():
    p = DrProblem(
        a=0.0,
        b=1.0,
        r=0.25,
        alpha=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        beta=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        f=zero,
    )
    h = 1e-3
    sol = solve_dr_on_grid(p, h)
    jumps = sorted(sol.jump_points)
    jumps_ok = len(jumps) == 3 and all(
        abs(found - true) <= h for found, true in zip(jumps, (0.25, 0.5, 0.75))
    )
    probes = ((0.1, 0.2), (0.3, 0.4), (0.6, 0.6), (0.85, 0.8))
    plateau_gap = max(abs(solve_dr_explicit(p, x) - v) for x, v in probes)
    rc = residual_check(p)
    ok = jumps_ok and plateau_gap <= 1e-12 and rc.passed
    _verdict(
        "criterion 10 staircase example",
        ok,
        f"jumps {['%.4f' % j for j in jumps]}, plateau gap {plateau_gap:.2e}, "
        f"u(0.3) = {solve_dr_explicit(p, 0.3):.12f}, residual {rc.worst:.2e}",
    )


def test_criterion_11_maximum_principle():
    rng = np.random.default_rng(90213)
    worst_sup = -np.inf
    for _ in range(200):
        rep = max_principle_check(sign_constrained_problem(rng))
        worst_sup = max(worst_sup, rep.worst)
        assert rep.passed
    worst_pair = -np.inf
    for _ in range(100):
        p1 = _affine_instance(rng)
        da, db, df = rng.uniform(0.0, 0.5, 3)
        p2 = DrProblem(
            a=p1.a,
            b=p1.b,
            r=p1.r,
            alpha=lambda x, q=p1, d=da: np.asarray(q.alpha(x)) + d,
            beta=lambda x, q=p1, d=db: np.asarray(q.beta(x)) + d,
            f=lambda x, q=p1, d=df: np.asarray(q.f(x)) - d,
        )
        xs = np.linspace(p1.a + 1e-3, p1.b - 1e-3, 41)
        u1 = np.array([solve_dr_explicit(p1, float(x)) for x in xs])
        u2 = np.array([solve_dr_explicit(p2, float(x)) for x in xs])
        worst_pair = max(worst_pair, float(np.max(u1 - u2)))
    ok = worst_sup <= 1e-12 and worst_pair <= 1e-12
    _verdict(
        "criterion 11 maximum principle",
        ok,
        f"max sup u = {worst_sup:.2e} over 200 instances; "
        f"max comparison defect {worst_pair:.2e} over 100 pairs",
    )


def test_criterion_12_regularity_bounds(dirichlet_instances, sourceless_instances):
    linf_margin = min(
        (rep.linf_bound - rep.linf_measured)
        for rep in map(regularity_bounds, dirichlet_instances)
    )
    jump_margin = np.inf
    for p in sourceless_instances:
        rep = regularity_bounds(p)
        assert rep.jump_bound is not None
        jump_margin = min(jump_margin, rep.jump_bound - rep.jump_measured)
    ok = linf_margin >= -1e-12 and jump_margin >= -1e-12
    _verdict(
        "criterion 12 regularity bounds",
        ok,
        f"tightest L-inf margin {linf_margin:.3f}, tightest jump margin {jump_margin:.3f}",
    )


def test_criterion_13_oscillation_split():
    rng = np.random.default_rng(90214)
    scale = 2.0**20
    h = 0.1
    checked = 0
    for _ in range(500):
        m = int(rng.integers(12, 61))
        vals = rng.integers(-2 * 2**20, 2 * 2**20 + 1, m) / scale
        u = SampledFunction(0.0, h, vals.astype(float))
        c = float(rng.integers(-2 * 2**20, 2 * 2**20 + 1)) / scale
        r = float(rng.integers(2, 5)) * h
        osc = window_oscillation(u, r)
        low = window_oscillation(truncate(u, c, "min"), r)
        high = window_oscillation(truncate(u, c, "max"), r)
        assert np.array_equal(osc.values, low.values + high.values)
        checked += 1
    _verdict(
        "criterion 13 oscillation split",
        checked == 500,
        f"exact split on {checked} random step functions and cut levels",
    )


def test_criterion_14_small_r_convergence():
    W = quartic()
    table = convergence_study(W, [0.4, 0.2, 0.1, 0.05])
    ea = table.column("err_aligned")
    decreasing = all(ea[i + 1] < ea[i] for i in range(len(ea) - 1))
    prof = ClassicalHeteroclinic(W)
    d = 1e-5
    fi_worst = 0.0
    for x in np.linspace(-3.0, 3.0, 13):
        up = (prof.quadrature_eval(x + d) - prof.quadrature_eval(x - d)) / (2.0 * d)
        fi_worst = max(fi_worst, abs(2.0 * up * up - eval_w(W, prof.quadrature_eval(x))))
    ok = decreasing and ea[-1] < 0.05 and fi_worst <= 1e-6
    _verdict(
        "criterion 14 small-r convergence",
        ok,
        f"aligned errors {np.array2string(ea, precision=2)}, "
        f"first-integral defect {fi_worst:.2e}",
    )


def test_criterion_15_step_non_minimality():
    W = quartic()
    rep = step_is_not_minimal(0.5, W)
    bounds = energy_upper_bounds(0.2, W)
    ok = (
        rep.improves
        and rep.best_energy < 4.0 / 0.5
        and bounds.four_plus_cw < bounds.four_over_r
    )
    _verdict(
        "criterion 15 step non-minimality",
        ok,
        f"E(v_eps) = {rep.best_energy:.4f} < 8 at eps = {rep.best_eps:.2f}; "
        f"r=0.2: 4+c_W = {bounds.four_plus_cw:.4f} < 4/r = {bounds.four_over_r:.1f}",
    )
