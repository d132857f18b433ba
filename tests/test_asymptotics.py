"""Classical two-well profile and small-r convergence of lattice connections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from helpers import aligned_error_sweep
from oschet import asymptotics
from oschet.asymptotics import (
    ClassicalHeteroclinic,
    ConvergenceTable,
    classical_heteroclinic,
    convergence_study,
)
from oschet.errors import DomainError, PreconditionError
from oschet.potential import custom, eval_w, pendulum, quartic


# ---------------------------------------------------------------------------
# oracle: integrate du/dx = sqrt(W(u)/2) with an off-the-shelf RK solver
# ---------------------------------------------------------------------------


def ivp_profile(W, x_eval):
    """First-integral dynamics from u(0) = 0, clipped short of the well."""

    def rhs(x, y):
        u = min(max(y[0], -1.0), 1.0)
        return [math.sqrt(max(eval_w(W, u), 0.0) / 2.0)]

    sol = solve_ivp(
        rhs,
        (0.0, float(np.max(x_eval))),
        [0.0],
        t_eval=np.asarray(x_eval, dtype=float),
        rtol=1e-10,
        atol=1e-12,
        method="RK45",
    )
    return sol.y[0]


@pytest.mark.parametrize("factory", [quartic, pendulum])
def test_profile_matches_rk_integration(factory):
    W = factory()
    prof = ClassicalHeteroclinic(W)
    xs = np.linspace(0.0, 6.0, 25)
    reference = ivp_profile(W, xs)
    mine = np.array([prof.quadrature_eval(float(x)) for x in xs])
    assert np.max(np.abs(mine - reference)) < 1e-7


def test_quartic_profile_is_the_tanh():
    W = quartic()
    prof = ClassicalHeteroclinic(W)
    for x in (-5.0, -1.0, 0.0, 0.3, 2.0, 8.0):
        assert prof.eval(x) == pytest.approx(math.tanh(x / (2 * math.sqrt(2))), abs=1e-15)
    # the tabulated quadrature agrees with the closed form independently
    for x in (0.5, 1.5, 4.0):
        gap = abs(prof.quadrature_eval(x) - math.tanh(x / (2 * math.sqrt(2))))
        assert gap < 1e-10


def test_profile_is_odd_and_monotone():
    prof = ClassicalHeteroclinic(pendulum())
    xs = np.linspace(-6, 6, 121)
    vals = prof.eval_array(xs)
    assert np.max(np.abs(vals + vals[::-1])) < 1e-14
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.abs(vals) <= 1.0)


def test_first_integral_along_the_profile():
    # 2 (u')^2 = W(u), differentiating the tabulated map numerically
    for W in (quartic(), pendulum()):
        prof = ClassicalHeteroclinic(W)
        for x in np.linspace(-3.0, 3.0, 13):
            d = 1e-5
            up = (prof.quadrature_eval(x + d) - prof.quadrature_eval(x - d)) / (2 * d)
            u = prof.quadrature_eval(x)
            assert abs(2 * up * up - eval_w(W, u)) < 1e-6


def test_x_at_inverts_the_profile():
    prof = ClassicalHeteroclinic(pendulum())
    for u in (0.05, 0.3, 0.77, 0.995):
        assert abs(prof.quadrature_eval(prof.x_at(u)) - u) < 1e-12
    # every tabulated value, read through the array path, inverts x_at to 1e-12
    us = np.linspace(0.0, 0.999, 200)
    xs = np.array([prof.x_at(u) for u in us])
    assert np.max(np.abs(prof.eval_array(xs) - us)) <= 1e-12
    with pytest.raises(DomainError):
        prof.x_at(1.5)


def test_point_evaluator_caches_tables():
    W = quartic()
    v1 = classical_heteroclinic(W, 1.0)
    v2 = classical_heteroclinic(W, 1.0)
    assert v1 == v2 == pytest.approx(math.tanh(1.0 / (2 * math.sqrt(2))), abs=1e-15)


def test_point_evaluator_shares_tables_between_equal_wells(monkeypatch):
    built = []

    class Counted(asymptotics.ClassicalHeteroclinic):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "ClassicalHeteroclinic", Counted)
    monkeypatch.setattr(asymptotics, "_PROFILE_CACHE", {})  # no table cached yet
    for x in (0.5, 1.0, 1.5, 2.0, 2.5):
        classical_heteroclinic(quartic(), x)
    assert len(built) == 1


def test_profile_cache_is_bounded():
    for i in range(3 * asymptotics.PROFILE_CACHE_SIZE):
        height = 1.0 + 0.01 * i
        W = custom(lambda t, c=height: c * (1.0 - t * t) ** 2 / 4.0)
        classical_heteroclinic(W, 0.5)
    assert len(asymptotics._PROFILE_CACHE) <= asymptotics.PROFILE_CACHE_SIZE


def test_profile_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        # W(0) = 0 is a degenerate middle: no crossing profile
        ClassicalHeteroclinic(custom(lambda t: t * t * (1 - t * t) ** 2))


# ---------------------------------------------------------------------------
# convergence of the lattice connections toward the profile
# ---------------------------------------------------------------------------


def test_convergence_study_columns_shrink():
    tab = convergence_study(quartic(), [0.4, 0.2, 0.1])
    assert isinstance(tab, ConvergenceTable)
    assert tab.kind == "quartic"
    err = tab.column("err")
    aligned = tab.column("err_aligned")
    assert np.all(np.diff(err) < 0)
    assert np.all(np.diff(aligned) < 0)
    # the aligned error is the one the profile comparison is about
    assert np.all(aligned <= err)
    # plateau errors scale roughly linearly in r before alignment
    assert err[1] < 0.7 * err[0]


@pytest.mark.parametrize("factory", [quartic, pendulum])
def test_profile_is_exactly_odd_on_the_probe_points(factory):
    # err_aligned's single row rests on u(-x) = -u(x) holding bit for bit
    prof = asymptotics._cached_profile(factory())
    for r in (0.5, 0.137, 0.01):
        ns = np.arange(-int(16.0 / r), int(16.0 / r) + 1)
        mids = (2.0 * ns + 1.0) * r
        # the sweep's probes; its last row is the single row's mids - r
        probes = (mids[None, :] - np.linspace(-r, r, 65)[:, None]).ravel()
        assert np.array_equal(prof.eval_array(-probes), -prof.eval_array(probes))


@given(kind=st.sampled_from(["quartic", "pendulum"]), r=st.floats(0.01, 0.5))
@settings(max_examples=10, deadline=None)
def test_single_row_alignment_equals_the_65_shift_sweep(kind, r):
    W = quartic() if kind == "quartic" else pendulum()
    (row,) = convergence_study(W, [r]).rows
    assert row.err_aligned == aligned_error_sweep(W, r)


@pytest.mark.parametrize("W, C", [(quartic(), 0.0282), (pendulum(), 0.0744)])
def test_aligned_error_follows_its_r_squared_trend(W, C):
    # a connection that stops short of the well, or overshoots it, shows as
    # a spike above C r^2 at scattered radii
    tab = convergence_study(W, np.geomspace(0.05, 0.005, 41))
    ratio = tab.column("err_aligned") / tab.column("r") ** 2
    assert np.all(np.abs(ratio / C - 1.0) <= 0.01)


def test_convergence_energy_approaches_the_line_integral():
    # 2 r x (window sum) tends to 2 sqrt(2) int_{-1}^{1} sqrt(W)
    tab = convergence_study(quartic(), [0.2, 0.1, 0.05])
    limit = math.sqrt(2.0) * 4.0 / 3.0
    energies = tab.column("energy")
    gaps = np.abs(energies - limit)
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 1e-3


def test_convergence_study_validates_input(monkeypatch):
    W = quartic()
    # every check runs before the classical profile's table is built
    monkeypatch.setattr(asymptotics, "_cached_profile", None)
    with pytest.raises(PreconditionError):
        convergence_study(W, [])
    with pytest.raises(PreconditionError):
        convergence_study(W, [0.1, 0.2])  # must decrease


def test_table_column_names_are_checked():
    tab = convergence_study(quartic(), [0.3])
    with pytest.raises(DomainError):
        tab.column("typo")
