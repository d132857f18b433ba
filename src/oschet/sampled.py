"""Step functions on a uniform grid and the nonlocal oscillation energies.

A SampledFunction holds samples v_0..v_{n-1} on cells [x_i, x_i + h) with
x_i = x0 + i*h, evaluated right-continuously.  All quadrature is midpoint
quadrature over whole cells, which is exact for grid-aligned step data.

Window convention.  For the oscillation with range r = n_r * h, the output
sample at cell j is max - min over the samples with index in
[j - n_r, j + n_r].  For any point x in the open interior of cell j, the
cells meeting the open window (x - r, x + r) on a set of positive measure
are exactly those 2*n_r + 1 cells, so this reproduces the essential
sup/inf oscillation almost everywhere and keeps the cellwise quadrature
of step data exact.

The two energies over an interval (a, b) with b - a > 2r:

  E = (1/(2 r^2)) * integral of (window oscillation)^2  +  integral of W(u)
  F = (1/(2 r^2)) * integral of (u(x + r) - u(x - r))^2  +  integral of W(u)

F never exceeds E samplewise and matches it exactly for monotone data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError
from .potential import DoubleWell, _vectorized, eval_w_array

__all__ = [
    "SampledFunction",
    "EnergyBreakdown",
    "window_oscillation",
    "energy_E",
    "energy_F",
    "truncate",
]

GRID_SNAP = 1e-9


def snap_count(r: float, h: float, what: str = "r") -> int:
    """Express r as a positive integer count of steps h, or fail loudly."""
    t = r / h
    k = int(round(t))
    if k < 1 or abs(t - k) > GRID_SNAP * max(1.0, abs(t)):
        raise DomainError(
            f"{what}={r} is not a positive integer multiple of the sample step h={h}"
        )
    return k


@dataclass(eq=False)
class SampledFunction:
    """Right-continuous step function sampled on a uniform grid.

    values[i] is the value on [x0 + i*h, x0 + (i+1)*h).  The array is
    frozen after construction; treat instances as immutable.
    """

    x0: float
    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.x0 = float(self.x0)
        self.h = float(self.h)
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise DomainError(f"sample step must be positive and finite, got {self.h}")
        if not math.isfinite(self.x0):
            raise DomainError(f"grid origin must be finite, got {self.x0}")
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("need a one dimensional array of at least 2 samples")
        if not np.all(np.isfinite(vals)):
            raise DomainError("samples must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def domain(self) -> Tuple[float, float]:
        return (self.x0, self.x0 + self.n * self.h)

    def xs(self) -> np.ndarray:
        """Left endpoints of the cells."""
        return self.x0 + self.h * np.arange(self.n)

    def eval(self, x: float, extend: bool = False) -> float:
        """Right-continuous evaluation; extend=True clamps to the end cells."""
        return float(self.eval_array(np.array([float(x)]), extend)[0])

    def eval_array(self, xs: np.ndarray, extend: bool = False) -> np.ndarray:
        """Vectorized right-continuous evaluation, snapping near-boundary points."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(xs)):
            raise DomainError("evaluation points must be finite")
        # clipped one cell beyond each end, so (x - x0) / h cannot overflow
        t = (np.clip(xs, self.x0 - self.h, self.x0 + (self.n + 1) * self.h) - self.x0) / self.h
        k = np.round(t)
        t = np.where(np.abs(t - k) <= GRID_SNAP * np.maximum(1.0, np.abs(t)), k, t)
        # cells -1 and n stand for every point beyond the ends; the cast stays in range
        idx = np.floor(np.clip(t, -1.0, self.n)).astype(int)
        if extend:
            idx = np.clip(idx, 0, self.n - 1)
        else:
            bad = (idx < 0) | (idx >= self.n)
            if np.any(bad):
                lo, hi = self.domain
                raise DomainError(
                    f"x={float(xs[bad][0])} outside the sampled domain [{lo}, {hi})"
                )
        return self.values[idx]

    @classmethod
    def from_callable(cls, f: Callable, x0: float, h: float, n: int) -> "SampledFunction":
        """Sample f at the cell left endpoints x0 + i*h, i = 0..n-1."""
        xs = float(x0) + float(h) * np.arange(int(n))
        return cls(x0, h, _vectorized(f, xs))

    def to_csv(self, target) -> None:
        """Write 'x,value' rows with shortest round-trip float formatting."""
        own = not hasattr(target, "write")
        stream = open(target, "w", newline="") if own else target
        try:
            stream.write("x,value\n")
            for i in range(self.n):
                x = self.x0 + i * self.h
                stream.write(f"{x!r},{float(self.values[i])!r}\n")
        finally:
            if own:
                stream.close()


@dataclass(frozen=True)
class EnergyBreakdown:
    """One energy evaluation: the two integral terms and their sum."""

    osc_term: float
    potential_term: float
    total: float
    interval: Tuple[float, float]
    r: float


def _window_min_max(vals: np.ndarray, n_r: int):
    """Sliding min and max over windows of 2*n_r + 1 consecutive samples.

    van Herk / Gil-Werman: cut the samples into blocks of one window
    width w (padded with the neutral +-inf), scan each block forwards
    and backwards, and combine the backward scan at i with the forward
    scan at i + w - 1.  O(n) for any window width.
    """
    w = 2 * n_r + 1
    out = vals.size - 2 * n_r

    def scan(op, fill):
        blocks = np.concatenate([vals, np.full(-vals.size % w, fill)]).reshape(-1, w)
        prefix = op.accumulate(blocks, axis=1).ravel()
        suffix = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        return op(suffix[:out], prefix[w - 1 : w - 1 + out])

    return scan(np.minimum, np.inf), scan(np.maximum, -np.inf)


def window_oscillation(u: SampledFunction, r: float) -> SampledFunction:
    """Samplewise oscillation of u over windows of half-width r.

    The result lives on the inner grid shifted by n_r cells; it needs at
    least two interior samples.
    """
    n_r = snap_count(r, u.h)
    if u.n - 2 * n_r < 2:
        raise DomainError(
            f"window of half-width r={r} leaves fewer than 2 samples of {u.n}"
        )
    mins, maxs = _window_min_max(u.values, n_r)
    return SampledFunction(u.x0 + n_r * u.h, u.h, maxs - mins)


def _integration_cells(u: SampledFunction, a: float, b: float, r: float, n_r: int):
    """Index range of cells inside [a, b], with coverage of [a-r, b+r]."""
    if not (b - a > 2.0 * r):
        raise DomainError(f"interval ({a}, {b}) must be longer than 2r = {2 * r}")
    ta = (a - u.x0) / u.h
    tb = (b - u.x0) / u.h
    i_lo = int(math.ceil(ta - GRID_SNAP * max(1.0, abs(ta))))
    i_hi = int(math.floor(tb + GRID_SNAP * max(1.0, abs(tb)))) - 1
    if i_lo > i_hi:
        raise DomainError(f"no whole sample cell fits inside ({a}, {b})")
    if i_lo - n_r < 0 or i_hi + n_r > u.n - 1:
        lo, hi = u.domain
        raise DomainError(
            f"energy over ({a}, {b}) with r={r} needs samples on "
            f"[{a - r}, {b + r}] but u covers [{lo}, {hi})"
        )
    return i_lo, i_hi


def energy_E(
    u: SampledFunction, a: float, b: float, r: float, W: DoubleWell
) -> EnergyBreakdown:
    """Oscillation energy of u over (a, b): squared window oscillation plus W."""
    n_r = snap_count(r, u.h)
    i_lo, i_hi = _integration_cells(u, a, b, r, n_r)
    block = u.values[i_lo - n_r : i_hi + 1 + n_r]
    mins, maxs = _window_min_max(block, n_r)
    osc = maxs - mins
    osc_term = u.h * float(np.sum(osc * osc)) / (2.0 * r * r)
    pot_term = u.h * float(np.sum(eval_w_array(W, u.values[i_lo : i_hi + 1])))
    return EnergyBreakdown(osc_term, pot_term, osc_term + pot_term, (a, b), r)


def energy_F(
    u: SampledFunction, a: float, b: float, r: float, W: DoubleWell
) -> EnergyBreakdown:
    """Two-point comparison energy: squared increment u(x+r) - u(x-r) plus W.

    Never exceeds energy_E on the same data; equals it when u is monotone.
    """
    n_r = snap_count(r, u.h)
    i_lo, i_hi = _integration_cells(u, a, b, r, n_r)
    fwd = u.values[i_lo + n_r : i_hi + 1 + n_r]
    bwd = u.values[i_lo - n_r : i_hi + 1 - n_r]
    diff = fwd - bwd
    osc_term = u.h * float(np.sum(diff * diff)) / (2.0 * r * r)
    pot_term = u.h * float(np.sum(eval_w_array(W, u.values[i_lo : i_hi + 1])))
    return EnergyBreakdown(osc_term, pot_term, osc_term + pot_term, (a, b), r)


def truncate(u: SampledFunction, c: float, mode: str) -> SampledFunction:
    """Pointwise min (mode='min') or max (mode='max') of u with the level c.

    The oscillation of u splits exactly across any cut level:
    osc u = osc min(u, c) + osc max(u, c) on every window.
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"cut level must be finite, got {c}")
    if mode == "min":
        vals = np.minimum(u.values, c)
    elif mode == "max":
        vals = np.maximum(u.values, c)
    else:
        raise DomainError(f"mode must be 'min' or 'max', got {mode!r}")
    return SampledFunction(u.x0, u.h, vals)
