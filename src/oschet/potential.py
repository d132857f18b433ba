"""Double-well potentials and their basic calculus.

A double well W is continuous on R, vanishes exactly at -1 and +1, is
positive elsewhere, strictly decreasing on (-inf, -1), strictly increasing
on (1, inf), even between the wells, and has a single interior peak at 0.
The constant c_w is the integral of W over [-1, 1]; it enters the energy
upper bounds and is cached on the potential at construction (for the
built-ins, computed once per process).

Built-in potentials:
  * quartic:  W(t) = (1 - t^2)^2 / 4
  * pendulum: W(q) = (1 + cos(pi q)) / pi between the wells.  Outside
    [-1, 1] the cosine would oscillate back down, so the tails are
    replaced by the quadratic (pi/2)(|q| - 1)^2, which matches value,
    slope, and curvature at the wells and keeps the tails monotone.

Both built-ins accept scalars or numpy arrays.  A float (numpy float64
included) takes a `math` branch that matches the numpy branch on arrays
bit for bit: the same formulas in the same order, with the square written
as d * d because numpy computes an array's `** 2` as a multiply.  The
shooting loop calls W' on a float once per plateau, and there the numpy
branch costs about 7.5 us a call against 0.26 us for the math branch
(pendulum W', Python 3.11, numpy 2.4, one core of a 2-CPU VM).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedOperationError
from .quadrature import adaptive_simpson

__all__ = [
    "DoubleWell",
    "ValidationCheck",
    "ValidationReport",
    "quartic",
    "pendulum",
    "custom",
    "eval_w",
    "eval_dw",
    "eval_w_array",
    "eval_dw_array",
    "validate_double_well",
    "compute_cw",
]


@dataclass(frozen=True, eq=False)
class DoubleWell:
    """A double-well potential with optional derivative and cached c_w.

    Immutable after construction; instances hash by identity and are safe
    to share between solvers.
    """

    kind: str
    w: Callable
    dw: Optional[Callable]
    c_w: float


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    grid_step: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _quartic_w(t):
    s = 1.0 - t * t
    return 0.25 * s * s


def _quartic_dw(t):
    return t * t * t - t


def _pendulum_w(q):
    if isinstance(q, float):  # scalar fast path, bit-identical to the numpy branch
        q = float(q)  # a numpy float64 returns a Python float too
        if abs(q) <= 1.0:
            h = math.cos(0.5 * math.pi * q)
            return (2.0 / math.pi) * h * h
        d = abs(q) - 1.0
        return 0.5 * math.pi * (d * d)
    q = np.asarray(q, dtype=float)
    aq = np.abs(q)
    # Half-angle form of (1 + cos(pi q)) / pi: near q = +-1 the direct
    # sum cancels catastrophically (cos rounds to -1 within ~1e-8 of the
    # wells and the value underflows to exact zero), while cos(pi q / 2)
    # stays fully accurate there.
    half = np.cos(0.5 * np.pi * q)
    inside = (2.0 / np.pi) * half * half
    d = aq - 1.0
    outside = 0.5 * np.pi * (d * d)
    out = np.where(aq <= 1.0, inside, outside)
    return out if out.ndim else float(out)


def _pendulum_dw(q):
    if isinstance(q, float):  # scalar fast path, bit-identical to the numpy branch
        q = float(q)  # a numpy float64 returns a Python float too
        if abs(q) <= 1.0:
            return -math.sin(math.pi * q)
        return math.pi * math.copysign(1.0, q) * (abs(q) - 1.0)
    q = np.asarray(q, dtype=float)
    aq = np.abs(q)
    inside = -np.sin(np.pi * q)
    outside = np.pi * np.sign(q) * (aq - 1.0)
    out = np.where(aq <= 1.0, inside, outside)
    return out if out.ndim else float(out)


def _integral_w(w: Callable, tol: float = 1e-10) -> float:
    """Integral of w over [-1, 1] by adaptive Simpson quadrature."""
    return adaptive_simpson(lambda t: float(w(t)), -1.0, 1.0, tol=tol)


@functools.cache
def _builtin_cw(w: Callable) -> float:
    """c_w of a built-in well: the quadrature runs once per process."""
    return _integral_w(w)


def quartic() -> DoubleWell:
    """The quartic well W(t) = (1 - t^2)^2 / 4."""
    return DoubleWell("quartic", _quartic_w, _quartic_dw, _builtin_cw(_quartic_w))


def pendulum() -> DoubleWell:
    """The pendulum well W(q) = (1 + cos(pi q)) / pi with quadratic tails."""
    return DoubleWell("pendulum", _pendulum_w, _pendulum_dw, _builtin_cw(_pendulum_w))


def custom(w: Callable, dw: Optional[Callable] = None) -> DoubleWell:
    """Wrap user callables as a potential; c_w is computed by quadrature.

    The callables are trusted as given; run validate_double_well to test
    the double-well hypotheses on a grid.
    """
    return DoubleWell("custom", w, dw, _integral_w(w))


def eval_w(W: DoubleWell, t: float) -> float:
    """Evaluate the potential at a finite scalar t."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"potential argument must be finite, got {t}")
    return float(W.w(t))


def eval_dw(W: DoubleWell, t: float) -> float:
    """Evaluate dW/dt at a finite scalar t; requires a derivative callback."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"potential argument must be finite, got {t}")
    if W.dw is None:
        raise UnsupportedOperationError(
            f"potential kind={W.kind!r} was built without a derivative"
        )
    return float(W.dw(t))


def _vectorized(f: Callable, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    try:
        out = np.asarray(f(values), dtype=float)
        if out.shape == values.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(t))) for t in values.ravel()]).reshape(values.shape)


def eval_w_array(W: DoubleWell, values: np.ndarray) -> np.ndarray:
    """Evaluate W on an array, falling back to a scalar loop if needed."""
    return _vectorized(W.w, values)


def eval_dw_array(W: DoubleWell, values: np.ndarray) -> np.ndarray:
    """Evaluate dW/dt on an array; requires a derivative callback."""
    if W.dw is None:
        raise UnsupportedOperationError(
            f"potential kind={W.kind!r} was built without a derivative"
        )
    return _vectorized(W.dw, values)


def _monotone_violation(ts, ws, direction):
    """First grid index where consecutive values fail strict monotonicity."""
    diffs = np.diff(ws) * direction
    bad = np.nonzero(diffs <= 0.0)[0]
    if bad.size == 0:
        return None
    i = int(bad[0])
    return float(ts[i]), float(ts[i + 1])


def validate_double_well(W: DoubleWell, grid_step: float = 1e-3) -> ValidationReport:
    """Check the double-well hypotheses on a uniform grid over [-3, 3].

    Failures are recorded as report entries, never raised; a check passing
    here is sample-based evidence, not a proof.
    """
    if not (grid_step > 0.0):
        raise DomainError(f"grid_step must be positive, got {grid_step}")
    n = int(round(6.0 / grid_step)) + 1
    ts = np.linspace(-3.0, 3.0, n)
    ws = eval_w_array(W, ts)
    checks = []

    w_minus = eval_w(W, -1.0)
    w_plus = eval_w(W, 1.0)
    ok = abs(w_minus) <= 1e-12 and abs(w_plus) <= 1e-12
    checks.append(
        ValidationCheck(
            "wells_at_unit_points",
            ok,
            f"W(-1)={w_minus:.3e}, W(1)={w_plus:.3e}",
        )
    )

    away = np.abs(np.abs(ts) - 1.0) > 0.5 * grid_step
    if np.any(away):
        mn = float(np.min(ws[away]))
        arg = float(ts[away][int(np.argmin(ws[away]))])
        ok = mn > 0.0
        checks.append(
            ValidationCheck(
                "positive_away_from_wells", ok, f"min W(t)={mn:.3e} at t={arg:.4f}"
            )
        )
    else:
        checks.append(ValidationCheck("positive_away_from_wells", False, "empty grid"))

    left = ts <= -1.0
    viol = _monotone_violation(ts[left], ws[left], -1.0)
    checks.append(
        ValidationCheck(
            "decreasing_left_tail",
            viol is None,
            "strict on grid" if viol is None else f"fails between t={viol[0]:.4f} and t={viol[1]:.4f}",
        )
    )

    right = ts >= 1.0
    viol = _monotone_violation(ts[right], ws[right], 1.0)
    checks.append(
        ValidationCheck(
            "increasing_right_tail",
            viol is None,
            "strict on grid" if viol is None else f"fails between t={viol[0]:.4f} and t={viol[1]:.4f}",
        )
    )

    mid = (ts >= 0.0) & (ts <= 1.0)
    tm = ts[mid]
    gap = np.abs(eval_w_array(W, tm) - eval_w_array(W, -tm))
    worst = float(np.max(gap)) if gap.size else 0.0
    ok = worst <= 1e-12
    checks.append(
        ValidationCheck("even_between_wells", ok, f"max |W(t)-W(-t)| = {worst:.3e}")
    )

    rising = (ts >= -1.0) & (ts <= 0.0)
    falling = (ts >= 0.0) & (ts <= 1.0)
    v1 = _monotone_violation(ts[rising], ws[rising], 1.0)
    v2 = _monotone_violation(ts[falling], ws[falling], -1.0)
    ok = v1 is None and v2 is None
    detail = "unimodal with peak at 0"
    if v1 is not None:
        detail = f"not increasing on (-1,0): t={v1[0]:.4f}"
    elif v2 is not None:
        detail = f"not decreasing on (0,1): t={v2[0]:.4f}"
    checks.append(ValidationCheck("single_interior_peak", ok, detail))

    return ValidationReport(W.kind, grid_step, tuple(checks))


def compute_cw(W: DoubleWell, tol: float = 1e-10) -> float:
    """Integrate W over [-1, 1] by adaptive Simpson quadrature."""
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    return _integral_w(W.w, tol)
