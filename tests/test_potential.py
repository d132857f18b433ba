"""Double-well potentials: values, derivatives, c_w, and shape validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oschet import potential
from oschet.errors import ConvergenceError, DomainError, UnsupportedOperationError
from oschet.potential import (
    DoubleWell,
    compute_cw,
    custom,
    eval_dw,
    eval_dw_array,
    eval_w,
    eval_w_array,
    pendulum,
    quartic,
    validate_double_well,
)


# ---------------------------------------------------------------------------
# oracle: midpoint Riemann sum for c_w, independent of the adaptive rule
# ---------------------------------------------------------------------------


def riemann_cw(W: DoubleWell, n: int = 2_000_000) -> float:
    edges = np.linspace(-1.0, 1.0, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(eval_w_array(W, mids))) * (2.0 / n)


def test_quartic_cw_closed_form():
    # int_{-1}^{1} (1 - t^2)^2 / 4 dt = 4/15
    assert abs(quartic().c_w - 4.0 / 15.0) < 1e-12


def test_pendulum_cw_closed_form():
    # int_{-1}^{1} (1 + cos(pi q)) / pi dq = 2/pi
    assert abs(pendulum().c_w - 2.0 / math.pi) < 1e-12


@pytest.mark.parametrize("factory", [quartic, pendulum])
def test_cw_matches_riemann_oracle(factory):
    W = factory()
    assert abs(W.c_w - riemann_cw(W)) < 1e-8


def test_builtin_cw_is_integrated_once_per_process(monkeypatch):
    calls = []
    real = potential.adaptive_simpson

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(potential, "adaptive_simpson", counted)
    for factory in (quartic, pendulum):
        first = factory()
        assert all(factory().c_w == first.c_w for _ in range(5))
        # bit for bit the quadrature value, not a closed form
        assert first.c_w == compute_cw(first)
    built_in = len(calls) - 2  # the two compute_cw calls above
    assert built_in <= 2, built_in
    # custom wells integrate their own c_w at every construction
    w = lambda t: (1 - t * t) ** 2
    calls.clear()
    custom(w), custom(w)
    assert len(calls) == 2


def test_compute_cw_on_custom_potential():
    W = custom(lambda t: (1 - t * t) ** 2)
    assert abs(compute_cw(W) - 4.0 * (4.0 / 15.0)) < 1e-10


def test_quartic_values():
    W = quartic()
    assert eval_w(W, 1.0) == 0.0
    assert eval_w(W, -1.0) == 0.0
    assert eval_w(W, 0.0) == 0.25
    assert abs(eval_dw(W, 0.5) - (0.5**3 - 0.5)) < 1e-15


def test_pendulum_values():
    W = pendulum()
    assert abs(eval_w(W, 0.0) - 2.0 / math.pi) < 1e-15
    assert abs(eval_w(W, 1.0)) < 1e-12
    assert abs(eval_w(W, -1.0)) < 1e-12
    # quadratic growth outside the wells keeps the tails honest
    assert abs(eval_w(W, 2.0) - 0.5 * math.pi) < 1e-12
    assert abs(eval_dw(W, -2.0) + math.pi) < 1e-12


def test_pendulum_no_cancellation_near_wells():
    # (1 + cos(pi q)) underflows to exact zero within ~1e-8 of the wells;
    # the evaluation must stay positive there so 1/sqrt(W) is usable.
    W = pendulum()
    for q in (1 - 1e-9, 1 - 1e-10, -(1 - 1e-9)):
        assert eval_w(W, q) > 0.0


def test_derivative_matches_finite_differences():
    for W in (quartic(), pendulum()):
        for t in np.linspace(-2.5, 2.5, 41):
            d = 1e-6
            fd = (eval_w(W, t + d) - eval_w(W, t - d)) / (2 * d)
            assert abs(eval_dw(W, t) - fd) < 5e-9


@given(t=st.floats(-3, 3))
def test_quartic_even_and_nonnegative(t):
    W = quartic()
    assert eval_w(W, t) >= 0.0
    assert eval_w(W, t) == eval_w(W, -t)


@given(t=st.floats(-3, 3))
def test_pendulum_even_and_nonnegative(t):
    W = pendulum()
    assert eval_w(W, t) >= 0.0
    assert abs(eval_w(W, t) - eval_w(W, -t)) < 1e-16


# Points where the pendulum's two branches meet or switch, plus one where
# the squared tail distance is an exact rounding tie: there libm's pow
# (``d ** 2`` on a float or a 0-d array) and a multiply (``** 2`` on an
# array) round apart.
BRANCH_EDGES = [
    0.0, -0.0, 1.0, -1.0, 1 - 1e-9, -(1 - 1e-9), 1 + 1e-9, -(1 + 1e-9),
    2.5, -2.5, 1.7742889150977135,
]


@pytest.mark.parametrize("factory", [quartic, pendulum])
@given(ts=st.lists(st.floats(-3, 3), min_size=1, max_size=30))
@example(ts=BRANCH_EDGES)
def test_array_evaluation_matches_scalar(factory, ts):
    # exact equality on purpose: a float takes the math branch of the
    # built-ins and an array the numpy branch, and the two must agree bit
    # for bit on this platform's libm
    W = factory()
    arr = eval_w_array(W, np.array(ts))
    darr = eval_dw_array(W, np.array(ts))
    for i, t in enumerate(ts):
        for x in (t, np.float64(t), np.array(t)):
            assert W.w(x) == arr[i]
            assert W.dw(x) == darr[i]
        assert eval_w(W, t) == arr[i]
        assert eval_dw(W, t) == darr[i]
        assert type(W.w(t)) is float
        assert type(W.dw(t)) is float
        if W.kind == "pendulum":
            # the quartic polynomial keeps numpy's scalar type, as before
            assert type(W.w(np.float64(t))) is float
            assert type(W.dw(np.float64(t))) is float


def test_rejects_nonfinite_argument():
    W = quartic()
    with pytest.raises(DomainError):
        eval_w(W, float("nan"))
    with pytest.raises(DomainError):
        eval_dw(W, float("inf"))


def test_custom_without_derivative_raises_on_dw():
    W = custom(lambda t: (1 - t * t) ** 2 / 4)
    assert eval_w(W, 0.0) == 0.25
    with pytest.raises(UnsupportedOperationError):
        eval_dw(W, 0.0)


def test_custom_well_too_rough_to_integrate_fails_typed():
    # c_w is integrated at construction; the quadrature's evaluation cap
    # turns an unresolvable integrand into a ConvergenceError (CLI exit 3)
    with pytest.raises(ConvergenceError):
        custom(lambda t: (1 - t * t) ** 2 / 4 + 0.1 * math.sin(1e6 * t))


def test_validation_passes_builtins():
    for factory in (quartic, pendulum):
        report = validate_double_well(factory())
        assert report.all_passed, [c.name for c in report.failures()]
        assert len(report.checks) == 6


def test_validation_flags_single_well():
    W = custom(lambda t: (t - 1.0) ** 2, dw=lambda t: 2 * (t - 1.0))
    report = validate_double_well(W)
    assert not report.all_passed
    names = [c.name for c in report.failures()]
    assert "wells_at_unit_points" in names


def test_validation_flags_negative_potential():
    W = custom(lambda t: (1 - t * t) ** 2 / 4 - 0.1)
    report = validate_double_well(W)
    assert not report.all_passed


def test_validation_flags_asymmetric_potential():
    W = custom(lambda t: (1 - t * t) ** 2 / 4 + 0.05 * (t + 1.0) ** 2)
    report = validate_double_well(W)
    names = [c.name for c in report.failures()]
    assert "even_between_wells" in names or "wells_at_unit_points" in names


def test_double_well_usable_as_dict_key():
    W = quartic()
    cache = {W: 1}
    assert cache[W] == 1
