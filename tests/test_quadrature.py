"""Adaptive Simpson quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oschet import quadrature
from oschet.errors import ConvergenceError, DomainError
from oschet.quadrature import adaptive_simpson


def test_cubic_is_exact():
    # Simpson integrates cubics exactly, so no refinement is needed.
    val = adaptive_simpson(lambda t: t**3 - 2 * t + 1, -1.0, 3.0)
    exact = (3.0**4 / 4 - 3.0**2 + 3.0) - (1.0 / 4 - 1.0 - 1.0)
    assert abs(val - exact) < 1e-13


def test_transcendental_integrand():
    val = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12)
    assert abs(val - 2.0) < 1e-11


def test_rapidly_varying_integrand():
    val = adaptive_simpson(lambda t: math.exp(-50.0 * t * t), -1.0, 1.0, tol=1e-12)
    exact = math.sqrt(math.pi / 50.0) * math.erf(math.sqrt(50.0))
    assert abs(val - exact) < 1e-11


def test_unresolvable_integrand_stops_at_the_evaluation_cap():
    calls = 0

    def f(t):
        nonlocal calls
        calls += 1
        if calls > 10_000_000:
            raise RuntimeError("quadrature kept refining past ten million calls")
        return math.sin(1e6 * t)

    with pytest.raises(ConvergenceError):
        adaptive_simpson(f, 0.0, 1.0)
    assert calls <= quadrature.MAX_EVALS


def test_zero_width_interval():
    assert adaptive_simpson(lambda t: t * t, 2.0, 2.0) == 0.0


def test_rejects_reversed_interval():
    with pytest.raises(DomainError):
        adaptive_simpson(lambda t: t, 1.0, 0.0)


def test_rejects_nonpositive_tolerance():
    with pytest.raises(DomainError):
        adaptive_simpson(lambda t: t, 0.0, 1.0, tol=0.0)


@given(
    a=st.floats(-5, 5),
    width=st.floats(0.01, 10),
    c2=st.floats(-3, 3),
    c1=st.floats(-3, 3),
    c0=st.floats(-3, 3),
)
def test_quadratics_match_antiderivative(a, width, c2, c1, c0):
    b = a + width
    val = adaptive_simpson(lambda t: c2 * t * t + c1 * t + c0, a, b, tol=1e-12)
    antider = lambda t: c2 * t**3 / 3 + c1 * t**2 / 2 + c0 * t
    assert abs(val - (antider(b) - antider(a))) < 1e-10 * (1 + abs(val))
