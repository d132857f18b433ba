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
search along the projection arc.  It descends from several deterministic
starts at once, one row of a (starts x sites) array each, so that one
numpy call serves every live start.  The search stays in the monotone
cone, where the minimizers lie: sorting the free values (for the odd
symmetries, sorting their odd extension) never raises the energy, so each
start, and each iterate that leaves the cone, is replaced by its
rearrangement when that does not raise its objective.

shoot_heteroclinic integrates the recurrence directly and bisects on the
first free value until the orbit lands on the well at +1, which produces
the infinite-lattice connection without choosing a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

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

ESCAPE_PAD = 1e-9  # orbit above 1 + pad has left the box for good
TURNBACK_PAD = 1e-12  # decrease below this is a genuine turn, not roundoff

# symmetry -> (free sites K - drop, objective scale s, left anchor a, anchor weight lam,
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
    iterations summed over all starts: multistart of ramp, steps and seeded
    random profiles, then extra_starts, each rearranged into the monotone
    cone, duplicates dropped.  The starts descend in lockstep, one iteration
    each per round; when less budget is left than there are live starts, the
    earlier ones take it.
    """

    tol: float = 1e-10
    max_iters: int = 100_000
    multistart: int = 8
    seed: int = 0
    extra_starts: Tuple = ()


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
    if not (r > 0.0):
        raise DomainError(f"range r must be positive, got {r}")
    return 2.0 * float(u_np1) - float(u_n) + r * r * eval_dw(W, float(u_np1))


# ---------------------------------------------------------------------------
# constrained minimization
# ---------------------------------------------------------------------------


ARMIJO_C = 1e-4  # sufficient-decrease fraction along the projection arc
BACKTRACK = 0.5  # step shrink factor per failed Armijo trial
MIN_STEP = 1e-12  # smallest arc step tried before a start counts as stalled
ACTIVE_EPS = 1e-6  # cap on the Bertsekas epsilon band next to the bounds
PIVOT_FLOOR = 1e-8  # Thomas pivots below this times s/r^2 call for a shift
LEVENBERG_START = 1e-6  # first Levenberg shift, in units of s/r^2
ROUNDOFF = 1e-14  # relative objective change that rounding alone can produce
STALL_ITERS = 25  # a start whose decrease stays at roundoff this long has stalled
FD_STEP = 1e-6  # central-difference step for W'' from W'
MAX_K = 10**5  # largest window a solver accepts; each start stores K free sites


class _BoxProblem:
    """All three symmetries as one problem on the free sites z in [-1, 1]^d.

    Up to a constant each minimizes, with w = (z, 1) pinned at +1 on the right,
    s [(lam (z_0 - a)^2 + sum_i (w_{i+1} - w_i)^2) / (2 r^2) + sum_i W(z_i)].
    node_odd doubles the mirrored half; bond_odd's reflection w_{-1} = -z_0
    counts its central square once, hence lam = 2.  The Hessian is
    tridiagonal: -s / r^2 off the diagonal, s (2 / r^2 + W'') on it, plus
    s (lam - 1) / r^2 at z_0.  objective, grad_curv and rearrange work
    row-wise on a (starts x d) array, one row per start.
    """

    def __init__(self, K: int, r: float, W: DoubleWell, symmetry: str):
        drop, self.s, self.a, self.lam, self.mirror = _FLAVORS[symmetry]
        self.K = K
        self.r = r
        self.W = W
        self.symmetry = symmetry
        self.dim = K - drop
        self.inv_r2 = 1.0 / (r * r)
        # EL residual on the profile equals res_scale * |reduced gradient|
        self.res_scale = r * r / self.s

    def objective(self, Z: np.ndarray) -> np.ndarray:
        d = Z[..., 1:] - Z[..., :-1]
        ends = self.lam * (Z[..., 0] - self.a) ** 2 + (1.0 - Z[..., -1]) ** 2
        kin = ends + np.einsum("...i,...i->...", d, d)
        return self.s * (0.5 * self.inv_r2 * kin + np.sum(eval_w_array(self.W, Z), axis=-1))

    def grad_curv(self, Z: np.ndarray):
        """Gradient and s * W''(z), the potential's part of the Hessian diagonal."""
        n = Z.shape[-1]
        # z_0's left neighbour: -1 (none), 0 (node_odd) or the reflection -z_0 (bond_odd)
        anchor = (1.0 - self.lam) * Z[..., :1] + self.lam * self.a
        left = np.concatenate((anchor, Z[..., :-1]), axis=-1)
        right = np.concatenate((Z[..., 1:], np.ones_like(Z[..., :1])), axis=-1)
        dw = eval_dw_array(self.W, np.concatenate((Z, Z + FD_STEP, Z - FD_STEP), axis=-1))
        grad = self.s * (self.inv_r2 * (2.0 * Z - left - right) + dw[..., :n])
        return grad, self.s * (dw[..., n : 2 * n] - dw[..., 2 * n :]) / (2.0 * FD_STEP)

    def rearrange(self, Z: np.ndarray) -> np.ndarray:
        """The monotone rearrangement of each row: the sorted values for none,
        and for the odd symmetries the upper half of the sorted odd extension.

        Sorting values between ends pinned at -1 and +1 never raises their
        kinetic sum (the rearrangement inequality, Hardy, Littlewood & Polya
        ch. X) and leaves their potential sum as it is.  For the odd
        symmetries this applies to the odd extension, and taking |z| keeps
        the potential sum only when W is even.
        """
        return np.sort(Z if self.mirror is None else np.abs(Z), axis=-1)

    def into_cone(self, Z: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Replace rows of Z by their rearrangement where that does not raise
        their objective F, in place; returns the indices of the replaced rows.

        The check keeps each replacement a descent step for a W that is not even.
        """
        R = self.rearrange(Z)
        rows = np.flatnonzero(np.any(R != Z, axis=-1))
        if rows.size:
            f_sorted = self.objective(R[rows])
            keep = f_sorted <= F[rows]
            rows = rows[keep]
            Z[rows], F[rows] = R[rows], f_sorted[keep]
        return rows

    def profile(self, z: np.ndarray) -> LatticeProfile:
        return _assemble(self.r, np.append(z, 1.0), self.symmetry)

    def ramp_start(self) -> np.ndarray:
        """Linear from the left anchor (half a site left of z_0 for bond_odd) to +1."""
        lead = 1.0 - 0.5 * (self.lam - 1.0)
        return self.a + (1.0 - self.a) * (np.arange(self.dim) + lead) / (self.dim + lead)

    def starts(self, opts: SolverOptions) -> np.ndarray:
        """Ramp, steps, seeded random profiles, then extra_starts, one per row.

        Each is moved into the monotone cone and exact duplicates are dropped:
        the odd symmetries' step starts all become the centred step.
        """
        d = self.dim
        rng = np.random.default_rng(opts.seed)
        pool = [self.ramp_start()]
        for q in (0.5, 0.25, 0.75):
            pool.append(np.where((np.arange(d) + 0.5) / d <= q, -1.0, 1.0))
        while len(pool) < max(1, opts.multistart):
            pool.append(np.sort(rng.uniform(-1.0, 1.0, d)))
        pool = pool[: max(1, opts.multistart)]
        for extra in opts.extra_starts:
            arr = np.asarray(extra, dtype=float)
            if arr.shape != (d,):
                raise PreconditionError(
                    f"extra start has shape {arr.shape}, expected ({d},)"
                )
            pool.append(arr)
        Z = np.clip(np.array(pool), -1.0, 1.0)
        self.into_cone(Z, self.objective(Z))
        return np.array(list(dict.fromkeys(map(tuple, Z.tolist()))))


def _projected_residual(G: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Largest gradient entry per row that the bounds do not block."""
    blocked = ((Z <= -1.0) & (G > 0.0)) | ((Z >= 1.0) & (G < 0.0))
    return np.max(np.abs(np.where(blocked, 0.0, G)), axis=-1)


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


def _newton_direction(problem: _BoxProblem, G, C, active) -> np.ndarray:
    """Newton step on the free sites, scaled gradient step on the active ones.

    Active rows of the Hessian are decoupled, so one Thomas solve per start
    serves both.  An indefinite free block is retried with a Levenberg shift
    growing tenfold from LEVENBERG_START s / r^2; once it covers max(-s W'')
    every pivot is >= s / r^2.
    """
    unit = problem.s * problem.inv_r2
    diag = np.where(active, 0.0, C) + 2.0 * unit
    diag[:, 0] += (problem.lam - 1.0) * unit
    off = np.where(active[:, :-1] | active[:, 1:], 0.0, -unit)
    steps = []
    for dg, of, rhs in zip(diag.tolist(), off.tolist(), (-G).tolist()):
        shift = 0.0
        while (d := _thomas([x + shift for x in dg], of, rhs, PIVOT_FLOOR * unit)) is None:
            shift = max(10.0 * shift, LEVENBERG_START * unit)
        steps.append(d)
    return np.array(steps)


def _descend(problem: _BoxProblem, Z: np.ndarray, tol: float, budget: int):
    """Projected Newton from every start at once (Bertsekas, SIAM J. Control
    Optim. 1982), one row of Z per start.

    Each iteration takes, per row, the epsilon-active set, eps = min(ACTIVE_EPS,
    |z - P(z - r^2 g / s)|), and backtracks along the projection arc
    P(z + t d) until the Armijo decrease holds, or, once the objective moves
    only at roundoff (as near a well), until the projected gradient shrinks.
    The live rows step in lockstep, so each numpy call serves all of them; only
    the rows still pending take another backtracking trial.  A row whose
    accepted step leaves the monotone cone is replaced by its rearrangement
    when that does not raise its objective.  A row drops out at tol, after
    STALL_ITERS steps of roundoff-sized decrease, or when no step down to
    MIN_STEP is acceptable.  budget bounds the iterations summed over the rows;
    when less is left than there are live rows, the earlier rows step first.
    Returns the final points and the iterations used.
    """
    F = problem.objective(Z)
    G, C = problem.grad_curv(Z)
    res = _projected_residual(G, Z)
    stop = tol / problem.res_scale
    quiet = np.zeros(len(Z), dtype=int)  # consecutive iterations whose decrease was at roundoff
    live = res >= stop
    used = 0
    while used < budget and live.any():
        rows = np.flatnonzero(live)[: budget - used]
        used += rows.size
        z, g, f = Z[rows], G[rows], F[rows]
        pg = z - np.clip(z - problem.res_scale * g, -1.0, 1.0)
        eps = np.minimum(ACTIVE_EPS, np.sqrt(np.einsum("ij,ij->i", pg, pg)))[:, None]
        active = ((z <= -1.0 + eps) & (g > 0.0)) | ((z >= 1.0 - eps) & (g < 0.0))
        d = _newton_direction(problem, g, C[rows], active)
        g_active = np.where(active, g, 0.0)
        free_slope = np.einsum("ij,ij->i", g - g_active, d)
        t = np.ones(rows.size)
        pending = np.arange(rows.size)
        accepted = np.zeros(rows.size, dtype=bool)
        while pending.size:
            zp, fp = z[pending], f[pending]
            trial = np.clip(zp + t[pending, None] * d[pending], -1.0, 1.0)
            f_trial = problem.objective(trial)
            drop = np.einsum("ij,ij->i", g_active[pending], zp - trial)
            ok = fp - f_trial >= ARMIJO_C * (drop - t[pending] * free_slope[pending])
            look = np.flatnonzero(ok | (np.abs(fp - f_trial) <= ROUNDOFF * np.abs(fp)))
            if look.size:
                g_trial, c_trial = problem.grad_curv(trial[look])
                ok[look] |= _projected_residual(g_trial, trial[look]) < res[rows[pending[look]]]
                won = ok[look]
                i = rows[pending[look[won]]]
                Z[i], F[i] = trial[look[won]], f_trial[look[won]]
                G[i], C[i] = g_trial[won], c_trial[won]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            t[pending] *= BACKTRACK
            live[rows[pending[t[pending] < MIN_STEP]]] = False  # stalled at roundoff
            pending = pending[t[pending] >= MIN_STEP]
        i = rows[accepted]
        if i.size:
            zi, fi = Z[i], F[i]
            moved = problem.into_cone(zi, fi)
            if moved.size:
                Z[i], F[i] = zi, fi
                G[i[moved]], C[i[moved]] = problem.grad_curv(zi[moved])
            f0 = f[accepted]
            quiet[i] = np.where(f0 - fi <= ROUNDOFF * np.abs(f0), quiet[i] + 1, 0)
            res[i] = _projected_residual(G[i], Z[i])
            live[i] = (res[i] >= stop) & (quiet[i] < STALL_ITERS)
    return Z, used


def _minimize(problem: _BoxProblem, opts: SolverOptions) -> SolveReport:
    if opts.max_iters <= 0:
        raise ConvergenceError("iteration budget exhausted before any start ran")
    Z, used = _descend(problem, problem.starts(opts), opts.tol, opts.max_iters)
    candidates = []
    for z in Z:
        prof = problem.profile(z)
        res = el_residual(prof, problem.W)
        val = discrete_energy(prof, problem.W, prof.n_min, problem.K)
        candidates.append((round(val * 1e12), res > opts.tol, tuple(z), val, res, prof))
    _, _, _, val, res, prof = min(candidates, key=lambda c: c[:3])
    return SolveReport(
        minimizer=prof,
        value=val,
        el_residual=res,
        iterations=used,
        converged=res <= opts.tol,
    )


def _solve(K: int, r: float, W: DoubleWell, opts: Optional[SolverOptions], symmetry: str):
    k_min = 1 + _FLAVORS[symmetry][0]
    # the comparisons come first, so inf and NaN fail them before int() sees them
    if not (k_min <= K <= MAX_K and int(K) == K):
        raise PreconditionError(f"K must be an integer in [{k_min}, {MAX_K}], got {K}")
    if not (r > 0.0 and math.isfinite(r)):
        raise PreconditionError(f"range r must be positive and finite, got {r}")
    if W.dw is None:
        raise UnsupportedOperationError("solvers need a potential with a derivative")
    return _minimize(_BoxProblem(int(K), float(r), W, symmetry), opts or SolverOptions())


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
# shooting
# ---------------------------------------------------------------------------


def _orbit_classify(s: float, r: float, W: DoubleWell, symmetry: str, tol: float, horizon: int):
    """Integrate the recurrence from the symmetric seed and classify.

    The orbit starts at the seed's left neighbour, the left anchor of the
    symmetry (w_0 = 0 for node_odd, the reflection -s for bond_odd).
    Returns (kind, orbit) with kind 'high' (escaped above 1), 'low'
    (turned back or stalled), or 'hit' (landed within tol of 1 from below).
    """
    _, _, a, lam, _ = _FLAVORS[symmetry]
    orbit = [(1.0 - lam) * s + lam * a, s]
    r2 = r * r
    dw = W.dw
    prev, cur = orbit[-2], orbit[-1]
    for _ in range(horizon):
        nxt = 2.0 * cur - prev + r2 * float(dw(cur))
        if nxt <= 1.0 and abs(nxt - 1.0) < tol:
            orbit.append(nxt)
            return "hit", orbit
        if nxt > 1.0 + ESCAPE_PAD:
            return "high", orbit
        if nxt < cur - TURNBACK_PAD:
            return "low", orbit
        orbit.append(nxt)
        prev, cur = cur, nxt
    return "low", orbit


def shoot_heteroclinic(
    r: float,
    W: DoubleWell,
    symmetry: str = "node_odd",
    tol: float = 1e-7,
    horizon: int = 1000,
) -> LatticeProfile:
    """Bisect the seed value until the recurrence orbit lands on the well.

    The seed s is w_1 for node_odd (with w_0 = 0) and z_0 for bond_odd
    (with z_{-1} = -z_0).  Orbits that exceed 1 + 1e-9 overshoot; orbits
    that decrease by more than 1e-12 have turned back.  The returned
    profile stores the orbit truncated at the first value within tol of
    1, is odd by construction, and satisfies the recurrence to roundoff
    on the interior of its window.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise PreconditionError(f"range r must be positive and finite, got {r}")
    if symmetry not in ("node_odd", "bond_odd"):
        raise PreconditionError(f"symmetry must be node_odd or bond_odd, got {symmetry!r}")
    if not (0.0 < tol < 0.1):
        raise PreconditionError(f"tol must be in (0, 0.1), got {tol}")
    if horizon < 10:
        raise PreconditionError(f"horizon must be at least 10, got {horizon}")
    if W.dw is None:
        raise UnsupportedOperationError("shooting needs a potential with a derivative")

    kind, orbit = _orbit_classify(1.0, r, W, symmetry, tol, horizon)
    if kind == "low":
        raise NoBracketError("seed s = 1 does not overshoot; no bracket in (0, 1]")
    hi = 1.0
    lo = 1e-8
    if kind == "high":
        kind, orbit = _orbit_classify(lo, r, W, symmetry, tol, horizon)
    while kind == "high":
        lo *= 1e-2
        if lo < 1e-300:
            raise NoBracketError("every seed in (0, 1] overshoots; no bracket")
        kind, orbit = _orbit_classify(lo, r, W, symmetry, tol, horizon)

    # orbit is the inside seed lo's until a seed hits
    while kind != "hit" and hi - lo > 1e-17:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # adjacent doubles: no representable midpoint left
        kind, trial = _orbit_classify(mid, r, W, symmetry, tol, horizon)
        if kind == "high":
            hi = mid
        else:
            lo, orbit = mid, trial

    if kind != "hit":
        # the bracket is at roundoff width; take the inside orbit's closest pass
        arr = np.asarray(orbit)
        cut = int(np.argmin(np.abs(arr - 1.0)))
        if abs(arr[cut] - 1.0) >= tol:
            raise ConvergenceError(
                f"orbit never came within tol={tol} of the well at +1 "
                f"(closest {abs(arr[cut] - 1.0):.3e}); raise tol or horizon"
            )
        orbit = orbit[: cut + 1]
    return _assemble(r, orbit[1:], symmetry)


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


def energy_upper_bounds(r: float, W: DoubleWell) -> EnergyUpperBounds:
    """The step bound 4/r, the well bound 4 + c_w, and the ramp bound.

    The ramp competitor (linear crossover of slope 1) needs r <= 1; for
    larger r that entry is None.  binding names the smallest bound.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"range r must be positive and finite, got {r}")
    four_over_r = 4.0 / r
    four_plus_cw = 4.0 + W.c_w
    ramp = 8.0 * r / 3.0 + 4.0 * (1.0 - r) + W.c_w if r <= 1.0 else None
    table = {"four_over_r": four_over_r, "four_plus_cw": four_plus_cw}
    if ramp is not None:
        table["ramp"] = ramp
    binding = min(table, key=table.get)
    return EnergyUpperBounds(r, four_over_r, four_plus_cw, ramp, binding)


def step_is_not_minimal(
    r: float, W: DoubleWell, eps_grid: Optional[Sequence[float]] = None
) -> WitnessReport:
    """Scan eased steps v_eps and report the best improvement over the step.

    v_eps takes the values -1, -(1-eps), 1-eps, 1 on the four bands
    split at -r, 0, r.  Its energy over any interval containing (-2r, 2r)
    is exactly

        E(v_eps) = 4/r + (2 eps^2 - 4 eps)/r + 2 r W(1 - eps),

    which dips below the step energy 4/r for small eps > 0 because W
    vanishes at the wells.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"range r must be positive and finite, got {r}")
    if eps_grid is None:
        eps_grid = np.linspace(0.0, 1.0, 401)
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.size == 0 or np.any(eps < 0.0) or np.any(eps > 1.0):
        raise PreconditionError("eps_grid must be a nonempty 1-d array inside [0, 1]")
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
