"""Continuum limit of the plateau recurrence and convergence measurements.

As r -> 0 the minimal discrete profiles approach the increasing odd
solution of the classical two-well equation

    4 u'' = W'(u),   u(0) = 0,   u(+-inf) = +-1,

whose first integral 2 (u')^2 = W(u) gives the quadrature representation

    x(u) = integral_0^u sqrt(2 / W(s)) ds.

ClassicalHeteroclinic tabulates that map on a u-grid refined toward the
well (where x diverges logarithmically) and interpolates with cubic
Hermite pieces whose slopes come from the first integral; the table is
dense enough that the interpolant is the profile to about 1e-13.  For
the quartic well the closed form u(x) = tanh(x / (2 sqrt(2))) is used
directly and the tabulated path is kept for cross-checks.  eval_array is
the one evaluator for scalars and arrays alike; eval reads through it.

convergence_study takes the node-symmetric lattice connection for each
r from shoot_heteroclinic, whose window follows from r and W, and
compares plateau values against the classical profile at plateau
midpoints, as they are and after the best sub-plateau translation, which
for these odd monotone profiles is always a shift by r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DomainError, PreconditionError
from .heteroclinic import discrete_energy, shoot_heteroclinic
from .potential import BUILTINS, DoubleWell, eval_w, eval_w_array
from .quadrature import adaptive_simpson

__all__ = [
    "ClassicalHeteroclinic",
    "ConvergenceRow",
    "ConvergenceTable",
    "classical_heteroclinic",
    "convergence_study",
]

PROFILE_CACHE_SIZE = 8  # tables kept for reuse, least recently used dropped first
PROFILE_TOL = 1e-9  # the table ends at u = 1 - PROFILE_TOL; evaluations clamp there
BULK_POINTS = 14000  # table segments on [0, 0.99]; the tail toward the well adds 5999
_PROFILE_CACHE: dict = {}


class ClassicalHeteroclinic:
    """The increasing odd solution of 4 u'' = W'(u) joining the wells.

    Evaluations clamp to +-(1 - PROFILE_TOL): beyond the tabulated range
    the profile is within PROFILE_TOL of the wells anyway.
    """

    def __init__(self, W: DoubleWell):
        if eval_w(W, 0.0) <= 0.0:
            raise PreconditionError("W(0) must be positive for a double well")
        self.W = W
        bulk = np.linspace(0.0, 0.99, BULK_POINTS + 1)
        tail = 1.0 - np.geomspace(0.01, PROFILE_TOL, 6000)[1:]
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

    def _hermite(self, xs: np.ndarray) -> np.ndarray:
        """sign(x) times the Hermite interpolant at |x|, clamped to +-u_max."""
        knots, us, ms = self._xs, self._us, self._slopes
        ax = np.abs(xs)
        idx = np.searchsorted(knots, ax, side="right") - 1
        idx = np.clip(idx, 0, knots.size - 2)
        x0 = knots[idx]
        dx = knots[idx + 1] - x0
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
        out = np.where(ax >= knots[-1], self.u_max, out)
        return np.clip(np.sign(xs) * out, -self.u_max, self.u_max)

    def quadrature_eval(self, x: float) -> float:
        """Profile value through the tabulated quadrature, ignoring any closed form."""
        return float(self._hermite(np.array([float(x)]))[0])

    def eval(self, x: float) -> float:
        """Profile value at x, through eval_array."""
        return float(self.eval_array(np.array([float(x)]))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation, exact tanh form for the quartic well."""
        xs = np.asarray(xs, dtype=float)
        if self.W.kind == "quartic":
            u = np.tanh(xs / (2.0 * math.sqrt(2.0)))
            return np.clip(u, -self.u_max, self.u_max)
        return self._hermite(xs)


def _cached_profile(W: DoubleWell) -> ClassicalHeteroclinic:
    """The table for W, built on first use.

    A built-in well is fixed by its kind, so every quartic() or
    pendulum() instance shares one table; a custom well is keyed by
    identity.  At most PROFILE_CACHE_SIZE tables are kept.
    """
    key = W.kind if W.kind in BUILTINS else W
    prof = _PROFILE_CACHE.pop(key, None)
    if prof is None:
        prof = ClassicalHeteroclinic(W)
        if len(_PROFILE_CACHE) >= PROFILE_CACHE_SIZE:
            del _PROFILE_CACHE[next(iter(_PROFILE_CACHE))]
    _PROFILE_CACHE[key] = prof  # most recently used last
    return prof


def classical_heteroclinic(W: DoubleWell, x: float) -> float:
    """Classical profile value at x, from a cached table."""
    return _cached_profile(W).eval(x)


@dataclass(frozen=True)
class ConvergenceRow:
    r: float
    err: float
    err_aligned: float
    energy: float


@dataclass(frozen=True)
class ConvergenceTable:
    kind: str
    rows: Tuple[ConvergenceRow, ...]

    def column(self, name: str) -> np.ndarray:
        if name not in ("r", "err", "err_aligned", "energy"):
            raise DomainError(f"no column named {name!r}")
        return np.array([getattr(row, name) for row in self.rows])


def convergence_study(W: DoubleWell, r_list: Sequence[float]) -> ConvergenceTable:
    """Compare lattice connections against the classical profile.

    For each r the node-odd connection is shot to tol = 1e-7, its plateau
    n is placed on [2nr, 2(n+1)r), and the profile is probed at plateau
    midpoints (2n + 1) r.  err is the sup difference as-is; err_aligned is
    the least sup difference over a sub-plateau shift tau in [-r, r] of the
    probes, which removes the free horizontal shift the lattice problem
    does not pin down.  tau = r always attains it, so

        err_aligned = max_n |w_n - u(mids_n - r)|.

    Both profiles are odd and nondecreasing: w_{-n} = -w_n exactly for
    the node-odd shot, and eval_array is odd as computed.  With
    d = r - tau, plateaus n and -n have errors |w_n - u(2nr +- d)|, and
    u(2nr) lies between u(2nr - d) and u(2nr + d), so the pair's larger
    error is at least its error at d = 0, where plateau 0's is 0.  The
    probe is mids - r, not 2 n r, so that it is bit for bit the last row
    of the sweep over linspace(-r, r, 65), which ends exactly at r.
    energy is the lifted-step energy 2 r times the windowed discrete sum.

    A single-element r_list yields a single row; no decrease is implied.
    """
    rs = [float(r) for r in r_list]
    if not rs:
        raise PreconditionError("r_list must be nonempty")
    if any(not (r > 0.0 and math.isfinite(r)) for r in rs):
        raise PreconditionError(f"r_list entries must be positive, got {rs}")
    if any(rs[i + 1] >= rs[i] for i in range(len(rs) - 1)):
        raise PreconditionError(f"r_list must be strictly decreasing, got {rs}")

    classical = _cached_profile(W)
    rows = []
    for r in rs:
        prof = shoot_heteroclinic(r, W, symmetry="node_odd", tol=1e-7)
        ns = np.arange(prof.n_min, prof.n_max + 1)
        mids = (2.0 * ns + 1.0) * r
        w = prof.values
        err = float(np.max(np.abs(w - classical.eval_array(mids))))
        err_aligned = float(np.max(np.abs(w - classical.eval_array(mids - r))))
        energy = 2.0 * r * discrete_energy(prof, W, prof.n_min - 1, prof.n_max)
        rows.append(ConvergenceRow(r=r, err=err, err_aligned=err_aligned, energy=energy))
    return ConvergenceTable(kind=W.kind, rows=tuple(rows))
