"""Adaptive Simpson quadrature for scalar integrands.

Small and dependency free; both the potential constant c_W and the
classical profile tables integrate through this routine.  Every call
stops after MAX_EVALS integrand evaluations: an integrand the rule
cannot resolve (say sin(1e6 t) over [0, 1]) raises ConvergenceError
instead of refining for minutes.
"""

from __future__ import annotations

from typing import Callable

from .errors import ConvergenceError, DomainError

MAX_EVALS = 200_000  # integrand evaluations allowed per call
MAX_DEPTH = 48  # recursion cap; hitting it returns the best local estimate


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _adapt(f, a, fa, m, fm, b, fb, whole, tol, depth, budget):
    budget[0] -= 2
    if budget[0] < 0:
        raise ConvergenceError(
            f"adaptive Simpson stopped after {MAX_EVALS} integrand evaluations "
            "without meeting its tolerance"
        )
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _adapt(f, a, fa, lm, flm, m, fm, left, half, depth - 1, budget) + _adapt(
        f, m, fm, rm, frm, b, fb, right, half, depth - 1, budget
    )


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] with adaptive interval splitting.

    Args:
        f: scalar integrand, finite on [a, b].
        a, b: integration limits, a <= b.
        tol: absolute tolerance target for the whole interval.

    Raises:
        ConvergenceError: the refinement needed more than MAX_EVALS
            evaluations of f.
    """
    if not (tol > 0.0):
        raise DomainError(f"quadrature tolerance must be positive, got {tol}")
    if b < a:
        raise DomainError(f"integration limits out of order: a={a}, b={b}")
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _adapt(f, a, fa, m, fm, b, fb, whole, tol, MAX_DEPTH, [MAX_EVALS - 3])
