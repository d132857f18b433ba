"""Discrete heteroclinic connections between the wells on a plateau lattice.

A lattice profile assigns plateau values w_n in [-1, 1] to integer
indices n, with the implicit extension w_n = -1 below the stored window
and w_n = +1 above it.  The discrete energy over indices [j_lo, j_hi] is

    sum_j  (1/(2 r^2)) (w_{j+1} - w_j)^2 + W(w_j),

whose stationarity condition is the three-term recurrence

    w_{j+1} - 2 w_j + w_{j-1} = r^2 W'(w_j).

Three constrained minimizations over the box [-1, 1], one for each
LatticeProfile symmetry:

  * none (solve_discrete_dirichlet): pinned w_0 = -1 and w_{K+1} = +1,
    free w_1..w_K, objective summed over j = 0..K.
  * node_odd (solve_symmetric_node): odd about the lattice node 0 (w_0 = 0
    and w_{-n} = -w_n), pinned w_j = 1 for j >= K, free w_1..w_{K-1},
    objective summed over j = -K..K.
  * bond_odd (solve_symmetric_bond): odd about the bond between -1 and 0
    (w_{-n-1} = -w_n), pinned w_j = 1 for j >= K-1, free w_0..w_{K-2},
    objective summed over j = -K..K.

The table _FLAVORS holds what each symmetry means for the free sites,
the left anchor and the stored window; _assemble builds every profile,
minimized or shot, from its values at the first free site onward.
Both symmetric problems are reduced to their free coordinates; reported
values are always recomputed from the full windowed sum on the assembled
profile.  All three are one box problem whose Hessian is tridiagonal,
(s/r^2) tridiag(-1, 2, -1) + s diag(W''), and they share one projected
Newton method (Bertsekas 1982): a Thomas solve on the free sites, a
Levenberg shift where W'' < 0 makes that block indefinite, and an Armijo
search along the projection arc.  It descends from the kink of the
recurrence linearized at the well (_BoxProblem.kink), for a plain window
also from the kink half a site on, so that one sits on a site and one on
a bond, one start after another.  A start stops when its EL residual
reaches tol, when no step is acceptable, or when the budget runs out.  A
kink started off its place only creeps back along its lattice barrier
(Peyrard & Kruskal, Physica D 1984).
The search stays in the monotone cone, where the minimizers lie: the
kinks are monotone, and sorting the free values (for the odd symmetries,
sorting their odd extension) never raises the energy, so each iterate
that leaves the cone is replaced by its rearrangement when that does not
raise its objective.

shoot_heteroclinic takes the infinite-lattice connection from the same
box problem, odd about a node or a bond, with its pinned end replaced by
the exact energy of the linearized tail beyond it (Beyn's projection
boundary condition, IMA J. Numer. Anal. 1990): past the last free site
the gap to the well decays geometrically, so the window needed follows
from r and W''(1) alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NoBracketError,
    PreconditionError,
    UnsupportedOperationError,
)
from .potential import DoubleWell, eval_dw, eval_dw_array, eval_w_array
from .sampled import SampledFunction, snap_count

__all__ = [
    "LatticeProfile",
    "SolveReport",
    "SolverOptions",
    "EnergyUpperBounds",
    "WitnessReport",
    "discrete_energy",
    "el_residual",
    "recurrence_step",
    "solve_discrete_dirichlet",
    "solve_symmetric_node",
    "solve_symmetric_bond",
    "shoot_heteroclinic",
    "lift_profile",
    "energy_upper_bounds",
    "step_is_not_minimal",
]

# symmetry -> (free sites K - pinned, objective scale s, left anchor a, anchor weight lam,
#              mirror n_min + n_max with w_{mirror - n} = -w_n, None when not odd)
_FLAVORS = {
    "none": (0, 1.0, -1.0, 1.0, None),
    "node_odd": (1, 2.0, 0.0, 1.0, 0),
    "bond_odd": (1, 2.0, 0.0, 2.0, -1),
}


@dataclass(eq=False)
class LatticeProfile:
    """Plateau values on an integer window, -1 to the left, +1 to the right.

    If a symmetry is declared it must hold exactly on the stored values:
    w_{c - n} = -w_n with c = n_min + n_max, which is 0 for node_odd and
    -1 for bond_odd.
    """

    r: float
    n_min: int
    n_max: int
    values: np.ndarray = field(repr=False)
    symmetry: str = "none"

    def __post_init__(self):
        self.r = float(self.r)
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise DomainError(f"range r must be positive and finite, got {self.r}")
        self.n_min = int(self.n_min)
        self.n_max = int(self.n_max)
        if self.n_max < self.n_min:
            raise DomainError(f"empty window [{self.n_min}, {self.n_max}]")
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1 or vals.size != self.n_max - self.n_min + 1:
            raise DomainError(
                f"expected {self.n_max - self.n_min + 1} values for the window "
                f"[{self.n_min}, {self.n_max}], got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("profile values must be finite")
        if np.any(np.abs(vals) > 1.0 + 1e-9):
            worst = float(np.max(np.abs(vals)))
            raise DomainError(f"profile values must lie in [-1, 1], worst |w| = {worst}")
        vals = np.clip(vals, -1.0, 1.0)
        if self.symmetry not in _FLAVORS:
            raise DomainError(f"unknown symmetry {self.symmetry!r}")
        c = _FLAVORS[self.symmetry][4]
        if c is not None and (self.n_min + self.n_max != c or np.any(vals != -vals[::-1])):
            raise DomainError(
                f"{self.symmetry} needs w_{{{c} - n}} = -w_n on a window with "
                f"n_min + n_max = {c}, got [{self.n_min}, {self.n_max}]"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value(self, n: int) -> float:
        """Plateau value at index n, using the implicit -1 / +1 extension."""
        return float(self.values_range(n, n)[0])

    def values_range(self, j_lo: int, j_hi: int) -> np.ndarray:
        """Values at indices j_lo..j_hi inclusive, extension included."""
        idx = np.arange(j_lo, j_hi + 1)
        out = np.empty(idx.size)
        below = idx < self.n_min
        above = idx > self.n_max
        inside = ~(below | above)
        out[below] = -1.0
        out[above] = 1.0
        out[inside] = self.values[idx[inside] - self.n_min]
        return out


def _assemble(r: float, pos: np.ndarray, symmetry: str) -> LatticeProfile:
    """The profile whose values from the first free site on are pos.

    none stores the pinned w_0 = -1 in front of them; the odd symmetries
    store the mirrored values, with node_odd's w_0 = 0 between the halves.
    """
    pos = np.asarray(pos, dtype=float)
    m = pos.size
    mirror = _FLAVORS[symmetry][4]
    if mirror is None:
        return LatticeProfile(r, 0, m, np.concatenate(([-1.0], pos)), symmetry)
    vals = np.concatenate((-pos[::-1], np.zeros(1 + mirror), pos))
    return LatticeProfile(r, -m, m + mirror, vals, symmetry)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the projected Newton minimizer.

    tol bounds the EL residual of a converged start and max_iters the Newton
    iterations summed over all starts.  The starts are the linearized kinks
    of _BoxProblem.starts; they descend one after another, each with the
    budget that the earlier ones left.  A start stops at tol, when no step
    is acceptable, or when the budget runs out.  A tol that is not positive
    and finite or a max_iters that is not an integer raises
    PreconditionError; a max_iters below 1 raises ConvergenceError.
    """

    tol: float = 1e-10
    max_iters: int = 100_000


@dataclass(eq=False)
class SolveReport:
    minimizer: LatticeProfile
    value: float
    el_residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class EnergyUpperBounds:
    """The three explicit competitor bounds and which one binds."""

    r: float
    four_over_r: float
    four_plus_cw: float
    ramp: Optional[float]
    binding: str


@dataclass(frozen=True)
class WitnessReport:
    """Grid search showing the plain step is not an energy minimizer."""

    r: float
    step_energy: float
    best_eps: float
    best_energy: float
    improves: bool
    four_plus_cw: float
    cw_bound_beats_step: bool


def discrete_energy(p: LatticeProfile, W: DoubleWell, j_lo: int, j_hi: int) -> float:
    """Windowed discrete energy sum over indices j_lo..j_hi inclusive."""
    j_lo = int(j_lo)
    j_hi = int(j_hi)
    if j_hi < j_lo:
        raise DomainError(f"empty index window [{j_lo}, {j_hi}]")
    vals = p.values_range(j_lo, j_hi + 1)
    diffs = np.diff(vals)
    kin = float(np.sum(diffs * diffs)) / (2.0 * p.r * p.r)
    pot = float(np.sum(eval_w_array(W, vals[:-1])))
    return kin + pot


def el_residual(p: LatticeProfile, W: DoubleWell) -> float:
    """Max stationarity defect over the interior of the stored window."""
    if p.n_max - p.n_min < 2:
        return 0.0
    v = p.values
    inner = v[1:-1]
    defect = v[2:] - 2.0 * inner + v[:-2] - p.r * p.r * eval_dw_array(W, inner)
    return float(np.max(np.abs(defect)))


def recurrence_step(u_n: float, u_np1: float, r: float, W: DoubleWell) -> float:
    """Next plateau value from the stationarity recurrence."""
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"range r must be positive and finite, got {r}")
    return 2.0 * float(u_np1) - float(u_n) + r * r * eval_dw(W, float(u_np1))


# ---------------------------------------------------------------------------
# constrained minimization
# ---------------------------------------------------------------------------


ARMIJO_C = 1e-4  # sufficient-decrease fraction along the projection arc
BACKTRACK = 0.5  # step shrink factor per failed Armijo trial
MIN_STEP = 1e-12  # smallest arc step tried before a start stops
ACTIVE_EPS = 1e-6  # cap on the Bertsekas epsilon band next to the bounds
PIVOT_FLOOR = 1e-8  # Thomas pivots below this times s/r^2 call for a shift
LEVENBERG_START = 1e-6  # first Levenberg shift, in units of s/r^2
ROUNDOFF = 1e-14  # relative objective change that rounding alone can produce
FD_STEP = 1e-6  # central-difference step for W'' from W'
MAX_K = 10**5  # largest window a solver accepts; each start stores K free sites


class _BoxProblem:
    """All three symmetries as one problem on the free sites z in [-1, 1]^d.

    Up to a constant each minimizes, with w = (z, 1) pinned at +1 on the right,
    s [(lam (z_0 - a)^2 + sum_i (w_{i+1} - w_i)^2) / (2 r^2) + sum_i W(z_i)].
    node_odd doubles the mirrored half; bond_odd's reflection w_{-1} = -z_0
    counts its central square once, hence lam = 2.  The Hessian is
    tridiagonal: -s / r^2 off the diagonal, s (2 / r^2 + W'') on it, plus
    s (lam - 1) / r^2 at z_0.  Every method takes one start's point z.

    A tail ratio mu in (0, 1) makes the right end transparent: the sites
    beyond z_{d-1} follow the geometric tail 1 - mu^j (1 - z_{d-1}) of the
    recurrence linearized at the well, whose kinetic and potential energy
    together are (1 - mu) (1 - z_{d-1})^2 / (2 r^2) when mu is the decaying
    root of mu^2 - (2 + r^2 W''(1)) mu + 1 = 0.  So the last square gets the
    factor 1 - mu, the last site's right neighbour is 1 - mu (1 - z_{d-1}),
    and the last Hessian diagonal entry loses mu s / r^2.  mu = 0 is the
    pinned end.
    """

    def __init__(self, K: int, r: float, W: DoubleWell, symmetry: str, mu: float = 0.0):
        pinned, self.s, self.a, self.lam, self.mirror = _FLAVORS[symmetry]
        self.K = K
        self.r = r
        self.W = W
        self.symmetry = symmetry
        self.mu = mu
        self.dim = K - pinned
        self.inv_r2 = 1.0 / (r * r)
        # EL residual on the profile equals res_scale * |reduced gradient|
        self.res_scale = r * r / self.s

    def objective(self, z: np.ndarray) -> float:
        d = z[1:] - z[:-1]
        ends = self.lam * (z[0] - self.a) ** 2 + (1.0 - self.mu) * (1.0 - z[-1]) ** 2
        kin = ends + np.einsum("i,i->", d, d)
        return self.s * (0.5 * self.inv_r2 * kin + np.sum(eval_w_array(self.W, z)))

    def grad_curv(self, z: np.ndarray):
        """Gradient and s * W''(z), the potential's part of the Hessian diagonal."""
        n = z.size
        # z_0's left neighbour: -1 (none), 0 (node_odd) or the reflection -z_0 (bond_odd)
        anchor = (1.0 - self.lam) * z[:1] + self.lam * self.a
        left = np.concatenate((anchor, z[:-1]))
        right = np.append(z[1:], 1.0 - self.mu * (1.0 - z[-1]))
        dw = eval_dw_array(self.W, np.concatenate((z, z + FD_STEP, z - FD_STEP)))
        grad = self.s * (self.inv_r2 * (2.0 * z - left - right) + dw[:n])
        return grad, self.s * (dw[n : 2 * n] - dw[2 * n :]) / (2.0 * FD_STEP)

    def rearrange(self, z: np.ndarray) -> np.ndarray:
        """The monotone rearrangement of z: the sorted values for none, and
        for the odd symmetries the upper half of the sorted odd extension.

        Sorting values between ends pinned at -1 and +1 never raises their
        kinetic sum (the rearrangement inequality, Hardy, Littlewood & Polya
        ch. X) and leaves their potential sum as it is.  For the odd
        symmetries this applies to the odd extension, and taking |z| keeps
        the potential sum only when W is even.
        """
        return np.sort(z if self.mirror is None else np.abs(z))

    def into_cone(self, z: np.ndarray, f: float):
        """The rearrangement of z and its objective, or None when z is already
        monotone or its rearrangement would raise its objective f.

        The check keeps each replacement a descent step for a W that is not even.
        """
        R = self.rearrange(z)
        if np.array_equal(R, z):
            return None
        f_sorted = self.objective(R)
        return (R, f_sorted) if f_sorted <= f else None

    def profile(self, z: np.ndarray) -> LatticeProfile:
        return _assemble(self.r, np.append(z, 1.0), self.symmetry)

    def kink(self, theta: float, shift: float) -> np.ndarray:
        """tanh(theta (x - shift) / 2) at each free site's distance x from the
        node (1 for z_0) or the bond (1/2) of an odd symmetry, or from the
        middle of a plain window."""
        x = np.arange(self.dim) + (1.0 - 0.5 * (self.lam - 1.0))
        if self.mirror is None:
            x -= 0.5 * (self.dim + 1)
        return np.tanh(0.5 * theta * (x - shift))

    def starts(self) -> list:
        """The kink at the rate of _kink_rate, for a plain window also half a
        site on; one kink when that rate is 0, since both would be all zeros."""
        theta = _kink_rate(self.r, self.W)[1]
        shifts = (0.0, 0.5) if self.mirror is None and theta > 0.0 else (0.0,)
        return [self.kink(theta, q) for q in shifts]


def _kink_rate(r: float, W: DoubleWell):
    """W''(1) by a central difference of W', and the decay rate theta of the
    recurrence linearized at the well, cosh(theta) = 1 + r^2 W''(1) / 2, in a
    form that stays accurate as r -> 0; theta is 0 when W''(1) <= 0."""
    curv = (eval_dw(W, 1.0 + FD_STEP) - eval_dw(W, 1.0 - FD_STEP)) / (2.0 * FD_STEP)
    return curv, (2.0 * math.asinh(0.5 * r * math.sqrt(curv)) if curv > 0.0 else 0.0)


def _projected_residual(g: np.ndarray, z: np.ndarray) -> float:
    """Largest gradient entry that the bounds do not block."""
    blocked = ((z <= -1.0) & (g > 0.0)) | ((z >= 1.0) & (g < 0.0))
    return np.max(np.abs(np.where(blocked, 0.0, g)))


def _thomas(diag: list, off: list, rhs: list, floor: float):
    """LDL^T solve of a symmetric tridiagonal system; off[i] couples i and i+1.

    Returns None once a pivot falls to floor: the matrix is not safely definite.
    """
    piv, x = diag[:], rhs[:]
    for i in range(len(piv)):
        if i:
            m = off[i - 1] / piv[i - 1]
            piv[i] -= m * off[i - 1]
            x[i] -= m * x[i - 1]
        if piv[i] <= floor:
            return None
    x[-1] /= piv[-1]
    for i in range(len(piv) - 2, -1, -1):
        x[i] = (x[i] - off[i] * x[i + 1]) / piv[i]
    return x


def _newton_direction(problem: _BoxProblem, g, c, active) -> np.ndarray:
    """Newton step on the free sites, scaled gradient step on the active ones.

    Active rows of the Hessian are decoupled, so one Thomas solve serves
    both.  An indefinite free block is retried with a Levenberg shift
    growing tenfold from LEVENBERG_START s / r^2; once it covers max(-s W'')
    every pivot is >= s / r^2.
    """
    unit = problem.s * problem.inv_r2
    diag = np.where(active, 0.0, c) + 2.0 * unit
    diag[0] += (problem.lam - 1.0) * unit
    diag[-1] -= problem.mu * unit
    off = np.where(active[:-1] | active[1:], 0.0, -unit).tolist()
    diag, rhs = diag.tolist(), (-g).tolist()
    shift = 0.0
    while (d := _thomas([x + shift for x in diag], off, rhs, PIVOT_FLOOR * unit)) is None:
        shift = max(10.0 * shift, LEVENBERG_START * unit)
    return np.array(d)


def _descend(problem: _BoxProblem, z: np.ndarray, tol: float, budget: int):
    """Projected Newton from one start z (Bertsekas, SIAM J. Control Optim. 1982).

    Each iteration takes the epsilon-active set, eps = min(ACTIVE_EPS,
    |z - P(z - r^2 g / s)|), and backtracks along the projection arc
    P(z + t d) until the Armijo decrease over the free sites holds, or, once
    the objective moves only at roundoff (as near a well), until the
    projected gradient shrinks.  An accepted step that leaves the monotone
    cone is replaced by its rearrangement when that does not raise the
    objective.  The start stops in one of three ways: its EL residual
    reaches tol, no step down to MIN_STEP is acceptable, or the budget of
    iterations runs out.  Returns the final point and the iterations used.
    """
    f = problem.objective(z)
    g, c = problem.grad_curv(z)
    res = _projected_residual(g, z)
    stop = tol / problem.res_scale
    used = 0
    while used < budget and res >= stop:
        used += 1
        pg = z - np.clip(z - problem.res_scale * g, -1.0, 1.0)
        eps = min(ACTIVE_EPS, np.sqrt(np.einsum("i,i->", pg, pg)))
        active = ((z <= -1.0 + eps) & (g > 0.0)) | ((z >= 1.0 - eps) & (g < 0.0))
        d = _newton_direction(problem, g, c, active)
        free_slope = np.einsum("i,i->", np.where(active, 0.0, g), d)
        t = 1.0
        while True:
            trial = np.clip(z + t * d, -1.0, 1.0)
            f_trial = problem.objective(trial)
            ok = f - f_trial >= -ARMIJO_C * t * free_slope
            if ok or abs(f - f_trial) <= ROUNDOFF * abs(f):
                g_trial, c_trial = problem.grad_curv(trial)
                if ok or _projected_residual(g_trial, trial) < res:
                    break
            t *= BACKTRACK
            if t < MIN_STEP:
                return z, used  # no acceptable step
        z, f, g, c = trial, f_trial, g_trial, c_trial
        moved = problem.into_cone(z, f)
        if moved is not None:
            z, f = moved
            g, c = problem.grad_curv(z)
        res = _projected_residual(g, z)
    return z, used


def _minimize(problem: _BoxProblem, opts: SolverOptions) -> SolveReport:
    if opts.max_iters <= 0:
        raise ConvergenceError("iteration budget exhausted before any start ran")
    used = 0
    candidates = []
    for start in problem.starts():
        z, n = _descend(problem, start, opts.tol, opts.max_iters - used)
        used += n
        prof = problem.profile(z)
        val = discrete_energy(prof, problem.W, prof.n_min, problem.K)
        candidates.append((val, el_residual(prof, problem.W), prof))
    # a relative band around the lowest value, so that (r / 2, 4 W) picks the same start
    low = min(candidates, key=lambda c: c[0])
    near = [c for c in candidates if c[0] - low[0] <= 1e-12 * abs(low[0]) and c[1] <= opts.tol]
    val, res, prof = near[0] if near else low
    return SolveReport(prof, val, res, used, converged=res <= opts.tol)


def _check_range(r: float) -> None:
    """PreconditionError unless r is positive with a finite square of at
    least 8 MAX_K / DBL_MAX, about 4.4e-303: the box problem divides by r^2,
    and its objective, gradient and Thomas sweeps sum up to MAX_K terms of at
    most 8 / r^2 each, which must stay finite."""
    least = 8.0 * MAX_K / sys.float_info.max
    if not (r > 0.0 and least <= float(r) * float(r) < math.inf):
        raise PreconditionError(
            f"range r must be positive with a finite square of at least {least:.3g}, got {r}"
        )


def _solve(K: int, r: float, W: DoubleWell, opts: Optional[SolverOptions], symmetry: str):
    k_min = 1 + _FLAVORS[symmetry][0]
    # the comparisons come first, so inf and NaN fail them before int() sees them
    if not (k_min <= K <= MAX_K and int(K) == K):
        raise PreconditionError(f"K must be an integer in [{k_min}, {MAX_K}], got {K}")
    _check_range(r)
    opts = opts or SolverOptions()
    if not (opts.tol > 0.0 and math.isfinite(opts.tol)):
        raise PreconditionError(f"tol must be positive and finite, got {opts.tol}")
    if not isinstance(opts.max_iters, (int, np.integer)):
        raise PreconditionError(f"max_iters must be an integer, got {opts.max_iters!r}")
    if W.dw is None:
        raise UnsupportedOperationError("solvers need a potential with a derivative")
    return _minimize(_BoxProblem(int(K), float(r), W, symmetry), opts)


def solve_discrete_dirichlet(
    K: int, r: float, W: DoubleWell, opts: Optional[SolverOptions] = None
) -> SolveReport:
    """Minimize the window sum with pinned ends w_0 = -1, w_{K+1} = +1.

    The minimum is nonincreasing in K: a competitor for window K extends
    to window K+1 by repeating a well value, without changing its sum.
    """
    return _solve(K, r, W, opts, "none")


def solve_symmetric_node(
    K: int, r: float, W: DoubleWell, opts: Optional[SolverOptions] = None
) -> SolveReport:
    """Minimize over profiles odd about the lattice node 0, pinned at j >= K."""
    return _solve(K, r, W, opts, "node_odd")


def solve_symmetric_bond(
    K: int, r: float, W: DoubleWell, opts: Optional[SolverOptions] = None
) -> SolveReport:
    """Minimize over profiles odd about the bond (-1, 0), pinned at j >= K-1."""
    return _solve(K, r, W, opts, "bond_odd")


# ---------------------------------------------------------------------------
# the infinite-lattice connection
# ---------------------------------------------------------------------------


SHOOT_EL = 1e-13  # EL residual a connection solve must reach
SHOOT_ITERS = 100  # Newton iterations a connection solve may take


def shoot_heteroclinic(
    r: float,
    W: DoubleWell,
    symmetry: str = "node_odd",
    tol: float = 1e-7,
    horizon: int = MAX_K,
) -> LatticeProfile:
    """The infinite-lattice connection, odd about a node or a bond.

    It is the odd box problem of solve_symmetric_node or _bond with a
    transparent right end (see _BoxProblem): mu is the decaying root of
    mu^2 - (2 + r^2 W''(1)) mu + 1 = 0, with W''(1) by a central difference
    of W', and the window K = ceil(ln(8 / tol) / ln(1 / mu)) lets the tail
    fall to about tol / 8.  One projected Newton descent from the kink at
    rate ln(1 / mu) (_BoxProblem.kink) must reach an EL residual of
    SHOOT_EL max(1, r^2 W''(1)) within SHOOT_ITERS iterations; the second
    term allows for r^2 W'(w), which rounds at about r^2 W''(1) ulp(1) near
    the well.  K is doubled once if the last site is not within tol of 1.
    The returned profile ends at the first value within tol of 1, is odd by
    construction, and satisfies the recurrence to roundoff on the interior
    of its window.

    A range whose square is not finite or is below about 4.4e-303, as for
    the solvers, raises PreconditionError.  A W''(1) that is not positive
    leaves no decaying tail and raises NoBracketError.
    A K above horizon or MAX_K raises ConvergenceError before the window is
    built, and so does, after it, a descent that misses its EL target or a
    doubled window whose end is still not within tol.
    """
    _check_range(r)
    if symmetry not in ("node_odd", "bond_odd"):
        raise PreconditionError(f"symmetry must be node_odd or bond_odd, got {symmetry!r}")
    if not (0.0 < tol < 0.1):
        raise PreconditionError(f"tol must be in (0, 0.1), got {tol}")
    if not (isinstance(horizon, (int, np.integer)) and horizon >= 10):
        raise PreconditionError(f"horizon must be an integer of at least 10, got {horizon!r}")
    if W.dw is None:
        raise UnsupportedOperationError("shooting needs a potential with a derivative")

    curv, theta = _kink_rate(r, W)
    if not curv > 0.0:
        raise NoBracketError(f"W''(1) = {curv:.3e} is not positive; no tail decays into +1")
    target = SHOOT_EL * max(1.0, r * r * curv)
    # the estimate is infinite when theta underflows; no window can be long enough
    span = math.log(8.0 / tol) / theta if theta > 0.0 else math.inf
    K = max(2, math.ceil(span)) if span < math.inf else span
    for K in (K, 2 * K):
        if K > min(horizon, MAX_K):
            raise ConvergenceError(
                f"the tail needs a window of K = {K:.6g} sites, above horizon = {horizon} "
                f"or MAX_K = {MAX_K}; raise r, tol or horizon"
            )
        problem = _BoxProblem(K, r, W, symmetry, math.exp(-theta))
        z, used = _descend(problem, problem.kink(theta, 0.0), target, SHOOT_ITERS)
        res = problem.res_scale * _projected_residual(problem.grad_curv(z)[0], z)
        if not res <= target:
            raise ConvergenceError(
                f"the connection solve stopped at EL residual {res:.3e} > {target:.3e} "
                f"after {used} iterations"
            )
        near = 1.0 - z < tol
        if near[-1]:
            return _assemble(r, z[: int(np.argmax(near)) + 1], symmetry)
    raise ConvergenceError(
        f"the connection ends {1.0 - z[-1]:.3e} from +1 at K = {K}, not within tol = {tol}"
    )


def lift_profile(p: LatticeProfile, x_offset: float, h: float) -> SampledFunction:
    """Step function taking value w_n on [x_offset + 2nr, x_offset + 2(n+1)r).

    The sample step h must divide the plateau width 2r.
    """
    per = snap_count(2.0 * p.r, h, what="2r")
    vals = np.repeat(p.values, per)
    return SampledFunction(float(x_offset) + 2.0 * p.r * p.n_min, h, vals)


# ---------------------------------------------------------------------------
# explicit competitor bounds
# ---------------------------------------------------------------------------


def _check_bound_range(r: float) -> None:
    """DomainError unless r is positive and finite and 4 / r is finite."""
    if not (0.0 < r < math.inf and 4.0 / float(r) < math.inf):
        raise DomainError(f"range r must be positive and finite with a finite 4/r, got {r}")


def energy_upper_bounds(r: float, W: DoubleWell) -> EnergyUpperBounds:
    """The step bound 4/r, the well bound 4 + c_w, and the ramp bound.

    The ramp competitor (linear crossover of slope 1) needs r <= 1; for
    larger r that entry is None.  binding names the smallest bound.  A
    range r whose 4/r is not finite raises DomainError.
    """
    _check_bound_range(r)
    four_over_r = 4.0 / r
    four_plus_cw = 4.0 + W.c_w
    ramp = 8.0 * r / 3.0 + 4.0 * (1.0 - r) + W.c_w if r <= 1.0 else None
    table = {"four_over_r": four_over_r, "four_plus_cw": four_plus_cw}
    if ramp is not None:
        table["ramp"] = ramp
    binding = min(table, key=table.get)
    return EnergyUpperBounds(r, four_over_r, four_plus_cw, ramp, binding)


def step_is_not_minimal(r: float, W: DoubleWell) -> WitnessReport:
    """Scan eased steps v_eps on the grid eps = 0, 1/400, ..., 1 and report
    the best improvement over the step.

    v_eps takes the values -1, -(1-eps), 1-eps, 1 on the four bands
    split at -r, 0, r.  Its energy over any interval containing (-2r, 2r)
    is exactly

        E(v_eps) = 4/r + (2 eps^2 - 4 eps)/r + 2 r W(1 - eps),

    which dips below the step energy 4/r for small eps > 0 because W
    vanishes at the wells.  A range r whose step energy 4/r is not finite
    raises DomainError.
    """
    _check_bound_range(r)
    eps = np.linspace(0.0, 1.0, 401)
    base = 4.0 / r
    energies = base + (2.0 * eps * eps - 4.0 * eps) / r + 2.0 * r * eval_w_array(W, 1.0 - eps)
    best = int(np.argmin(energies))
    best_eps = float(eps[best])
    best_energy = float(energies[best])
    four_plus_cw = 4.0 + W.c_w
    return WitnessReport(
        r=r,
        step_energy=base,
        best_eps=best_eps,
        best_energy=best_energy,
        improves=best_energy < base - 1e-12,
        four_plus_cw=four_plus_cw,
        cw_bound_beats_step=four_plus_cw < base,
    )
