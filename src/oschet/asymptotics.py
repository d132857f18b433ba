"""Continuum limit of the plateau recurrence and convergence measurements.

As r -> 0 the minimal discrete profiles approach the increasing odd
solution of the classical two-well equation

    4 u'' = W'(u),   u(0) = 0,   u(+-inf) = +-1,

whose first integral 2 (u')^2 = W(u) gives the quadrature representation

    x(u) = integral_0^u sqrt(2 / W(s)) ds.

ClassicalHeteroclinic tabulates that map on a u-grid refined toward the
well (where x diverges logarithmically), interpolates with cubic Hermite
pieces whose slopes come from the first integral, and polishes scalar
evaluations with Newton steps on the quadrature.  For the quartic well
the closed form u(x) = tanh(x / (2 sqrt(2))) is used directly and the
quadrature path is kept for cross-checks.

convergence_study shoots the node-symmetric lattice connection for each
r and compares plateau values against the classical profile at plateau
midpoints, with and without optimizing a sub-plateau translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, PreconditionError
from .heteroclinic import discrete_energy, shoot_heteroclinic
from .potential import DoubleWell, eval_w, eval_w_array
from .quadrature import adaptive_simpson

__all__ = [
    "ClassicalHeteroclinic",
    "ConvergenceRow",
    "ConvergenceTable",
    "classical_heteroclinic",
    "convergence_study",
]

PROFILE_CACHE_SIZE = 8  # tables kept for reuse, least recently used dropped first
BULK_POINTS = 1400  # table segments on [0, 0.99]; the tail toward the well adds 599
NEWTON_STEPS = 3  # refinements of the Hermite guess in quadrature_eval
_PROFILE_CACHE: dict = {}


class ClassicalHeteroclinic:
    """The increasing odd solution of 4 u'' = W'(u) joining the wells.

    Evaluations clamp to +-(1 - tol): beyond the tabulated range the
    profile is within tol of the wells anyway.
    """

    def __init__(self, W: DoubleWell, tol: float = 1e-9):
        if not (0.0 < tol < 1e-2):
            raise DomainError(f"tol must be in (0, 1e-2), got {tol}")
        if eval_w(W, 0.0) <= 0.0:
            raise PreconditionError("W(0) must be positive for a double well")
        self.W = W
        self.tol = float(tol)
        gap = max(tol, 1e-12)
        bulk = np.linspace(0.0, 0.99, BULK_POINTS + 1)
        tail = 1.0 - np.geomspace(0.01, gap, 600)[1:]
        self._us = np.concatenate((bulk, tail))
        integrand = lambda s: math.sqrt(2.0 / float(W.w(s)))
        # Fixed-order Gauss-Legendre per segment.  The grid is already
        # refined geometrically toward the well, so each segment has
        # small relative width and a 15-point rule is exact to machine
        # precision there; an adaptive rule would instead chase the
        # rounding jitter of W near the well (where W underflows through
        # many orders of magnitude) and subdivide without ever meeting
        # an absolute tolerance.
        nodes, weights = np.polynomial.legendre.leggauss(15)
        lo = self._us[:-1]
        hi = self._us[1:]
        half = 0.5 * (hi - lo)
        pts = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes[None, :]
        vals = np.sqrt(2.0 / eval_w_array(W, pts.ravel())).reshape(pts.shape)
        segs = half * (vals @ weights)
        xs = np.empty(self._us.size)
        xs[0] = 0.0
        np.cumsum(segs, out=xs[1:])
        self._xs = xs
        self._slopes = np.sqrt(eval_w_array(W, self._us) / 2.0)  # du/dx at nodes
        self._integrand = integrand

    @property
    def u_max(self) -> float:
        return float(self._us[-1])

    def x_at(self, u: float) -> float:
        """Inverse map: the x with profile value u, for u in [0, u_max]."""
        u = float(u)
        if not (0.0 <= u <= self.u_max):
            raise DomainError(f"u={u} outside the tabulated range [0, {self.u_max}]")
        i = int(np.searchsorted(self._us, u, side="right")) - 1
        i = min(max(i, 0), self._us.size - 2)
        return float(self._xs[i]) + adaptive_simpson(
            self._integrand, float(self._us[i]), u, tol=1e-12
        )

    def _hermite(self, ax: np.ndarray) -> np.ndarray:
        xs, us, ms = self._xs, self._us, self._slopes
        idx = np.searchsorted(xs, ax, side="right") - 1
        idx = np.clip(idx, 0, xs.size - 2)
        x0 = xs[idx]
        dx = xs[idx + 1] - x0
        t = (ax - x0) / dx
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        out = (
            h00 * us[idx]
            + h10 * dx * ms[idx]
            + h01 * us[idx + 1]
            + h11 * dx * ms[idx + 1]
        )
        return np.where(ax >= xs[-1], self.u_max, out)

    def quadrature_eval(self, x: float) -> float:
        """Profile value through the tabulated quadrature, ignoring any closed form."""
        x = float(x)
        if x == 0.0:
            return 0.0
        sign = 1.0 if x > 0.0 else -1.0
        ax = abs(x)
        if ax >= self._xs[-1]:
            return sign * self.u_max
        u = float(self._hermite(np.array([ax]))[0])
        u = min(max(u, 0.0), self.u_max)
        for _ in range(NEWTON_STEPS):
            gap = self.x_at(u) - ax
            u = min(max(u - gap * math.sqrt(eval_w(self.W, u) / 2.0), 0.0), self.u_max)
        return sign * u

    def eval(self, x: float) -> float:
        """Profile value at x, exact tanh form for the quartic well."""
        if self.W.kind == "quartic":
            u = math.tanh(float(x) / (2.0 * math.sqrt(2.0)))
            return max(min(u, self.u_max), -self.u_max)
        return self.quadrature_eval(x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (Hermite-only accuracy on the generic path)."""
        xs = np.asarray(xs, dtype=float)
        if self.W.kind == "quartic":
            u = np.tanh(xs / (2.0 * math.sqrt(2.0)))
            return np.clip(u, -self.u_max, self.u_max)
        out = np.sign(xs) * self._hermite(np.abs(xs))
        return np.clip(out, -self.u_max, self.u_max)


def _cached_profile(W: DoubleWell, tol: float) -> ClassicalHeteroclinic:
    """The table for (W, tol), built on first use.

    A built-in well is fixed by its kind, so every quartic() or
    pendulum() instance shares one table; a custom well is keyed by
    identity.  At most PROFILE_CACHE_SIZE tables are kept.
    """
    key = (W.kind if W.kind in ("quartic", "pendulum") else W, float(tol))
    prof = _PROFILE_CACHE.pop(key, None)
    if prof is None:
        prof = ClassicalHeteroclinic(W, tol=tol)
        if len(_PROFILE_CACHE) >= PROFILE_CACHE_SIZE:
            del _PROFILE_CACHE[next(iter(_PROFILE_CACHE))]
    _PROFILE_CACHE[key] = prof  # most recently used last
    return prof


def classical_heteroclinic(W: DoubleWell, x: float, tol: float = 1e-9) -> float:
    """Classical profile value at x, from a cached table."""
    return _cached_profile(W, tol).eval(x)


@dataclass(frozen=True)
class ConvergenceRow:
    r: float
    err: float
    err_aligned: float
    energy: float


@dataclass(frozen=True)
class ConvergenceTable:
    kind: str
    horizon: int
    rows: Tuple[ConvergenceRow, ...]

    def column(self, name: str) -> np.ndarray:
        if name not in ("r", "err", "err_aligned", "energy"):
            raise DomainError(f"no column named {name!r}")
        return np.array([getattr(row, name) for row in self.rows])


def convergence_study(
    W: DoubleWell, r_list: Sequence[float], horizon: int = 2000
) -> ConvergenceTable:
    """Compare shot lattice connections against the classical profile.

    For each r the node-odd connection is shot, its plateau n is placed
    on [2nr, 2(n+1)r), and the profile is probed at plateau midpoints
    (2n + 1) r.  err is the sup difference as-is; err_aligned minimizes
    over a sub-plateau translation in [-r, r], which removes the free
    horizontal shift the lattice problem does not pin down.  energy is
    the lifted-step energy 2 r times the windowed discrete sum.

    A single-element r_list yields a single row; no decrease is implied.
    """
    rs = [float(r) for r in r_list]
    if not rs:
        raise PreconditionError("r_list must be nonempty")
    if any(not (r > 0.0 and math.isfinite(r)) for r in rs):
        raise PreconditionError(f"r_list entries must be positive, got {rs}")
    if any(rs[i + 1] >= rs[i] for i in range(len(rs) - 1)):
        raise PreconditionError(f"r_list must be strictly decreasing, got {rs}")
    if horizon < 10:
        raise PreconditionError(f"horizon must be at least 10, got {horizon}")

    classical = _cached_profile(W, 1e-9)
    rows = []
    for r in rs:
        prof = shoot_heteroclinic(r, W, symmetry="node_odd", tol=1e-7, horizon=horizon)
        ns = np.arange(prof.n_min, prof.n_max + 1)
        mids = (2.0 * ns + 1.0) * r
        w = prof.values
        err = float(np.max(np.abs(w - classical.eval_array(mids))))
        taus = np.linspace(-r, r, 65)
        probe = mids[None, :] - taus[:, None]
        diffs = np.abs(w[None, :] - classical.eval_array(probe))
        err_aligned = float(np.min(np.max(diffs, axis=1)))
        energy = 2.0 * r * discrete_energy(prof, W, prof.n_min - 1, prof.n_max)
        rows.append(ConvergenceRow(r=r, err=err, err_aligned=err_aligned, energy=energy))
    return ConvergenceTable(kind=W.kind, horizon=int(horizon), rows=tuple(rows))
