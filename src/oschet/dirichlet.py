"""Closed-form Dirichlet solver for the nonlocal second difference D_r.

D_r u (x) = (u(x + r) + u(x - r) - 2 u(x)) / r^2.

Given data alpha on the left collar [a - r, a], beta on the right collar
[b, b + r], and a source f on (a, b), the unique solution of
D_r u = f on (a, b) with those collar values is explicit.  With the step
counts

    kunder(x) = ceil((x - a) / r),    kbar(x) = ceil((b - x) / r),

N = kunder + kbar and c = x - kunder*r the left-collar point of the
chain through x, the solution at an interior x is

    u(x) = (kbar * alpha(c) + kunder * beta(x + kbar*r)) / N
         - (r^2 / N) * sum_{q=1}^{N-1} min(q, kunder) * min(N - q, kbar)
                                        * f(c + q r),

the two-sided discrete Green's function along the arithmetic chain
x + r Z clipped to (a, b): the collar values are interpolated linearly
in the chain index and the source enters with the Green's weights.  The
chain through x only notices the data at the two clipped ends, so u is
in general discontinuous across the null set (a + r N) union (b - r N);
ceilings are snapped to the nearest integer at absolute tolerance 1e-12
so near-lattice arguments evaluate on their lattice chain.

Every evaluation, collars included, goes through one array evaluator
that sums the formula along each point's chain in row blocks of about
max(points, N) entries, so memory stays linear in the number of points
plus the chain length; DrProblem rejects chains of more than MAX_CHAIN
links, and solve_dr_on_grid and the three checks reject more than
MAX_GRID_SAMPLES samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from .errors import DomainError, PreconditionError
from .potential import _vectorized
from .sampled import SampledFunction

__all__ = [
    "DrProblem",
    "DrSolution",
    "CheckReport",
    "RegularityReport",
    "kbar",
    "kunder",
    "dr_apply",
    "solve_dr_explicit",
    "solve_dr_on_grid",
    "residual_check",
    "max_principle_check",
    "regularity_bounds",
]

CEIL_SNAP = 1e-12
GOLDEN_FRAC = 0.6180339887498949
# The evaluator holds a whole chain of (b - a)/r links in each row of its
# work arrays: at a million links one point takes about 60 ms and 40 MB, and
# both grow linearly below that r, so finer r is rejected as input.
MAX_CHAIN = 1e6
# A grid solve holds about 80 bytes a sample in its arrays and takes about
# 0.4 us a sample at r = 0.25: 10^7 samples (about 0.8 GB and 4 s) is far
# above the 1.5e4-sample grids of h = 1e-4, so a finer h is rejected as input.
MAX_GRID_SAMPLES = 10**7
EXCLUSION_TOL = 1e-9  # residual_check skips points this close to the lattice null set
RESIDUAL_TOL = 1e-9  # largest |D_r u - f| that residual_check passes

Data = Union[Callable, SampledFunction]


def _values(data, xs: np.ndarray) -> np.ndarray:
    """Evaluate Dirichlet data or a solution at a 1-D array of points."""
    if isinstance(data, SampledFunction):
        return data.eval_array(xs, extend=True)
    if isinstance(data, DrSolution):
        return _solve_points(data.problem, xs)
    if callable(data):
        return _vectorized(data, xs)
    raise PreconditionError(f"expected a callable or SampledFunction, got {type(data)!r}")


def _steps(t):
    """ceil(t), at least 1, with t within CEIL_SNAP of an integer snapped to it."""
    return np.maximum(np.ceil(t - CEIL_SNAP), 1).astype(np.int64)


def kunder(x: float, a: float, b: float, r: float) -> int:
    """Number of r-steps from x down to the left collar, at least 1."""
    _check_interior(x, a, b, r)
    return int(_steps((x - a) / r))


def kbar(x: float, a: float, b: float, r: float) -> int:
    """Number of r-steps from x up to the right collar, at least 1."""
    _check_interior(x, a, b, r)
    return int(_steps((b - x) / r))


def _check_interior(x: float, a: float, b: float, r: float) -> None:
    if not (a < b):
        raise DomainError(f"need a < b, got a={a}, b={b}")
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"step r must be positive and finite, got {r}")
    if not (a < x < b):
        raise DomainError(f"x={x} is not interior to ({a}, {b})")


def dr_apply(u: Data, x: float, r: float) -> float:
    """Evaluate (u(x+r) + u(x-r) - 2 u(x)) / r^2."""
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"step r must be positive and finite, got {r}")
    up, down, mid = _values(u, np.array([x + r, x - r, x], dtype=float))
    return float((up + down - 2.0 * mid) / (r * r))


@dataclass(eq=False)
class DrProblem:
    """Dirichlet data for D_r u = f on (a, b).

    alpha lives on the left collar [a - r, a], beta on the right collar
    [b, b + r], f on (a, b); each may be a callable or a SampledFunction
    covering its band.  The chain length (b - a)/r may not exceed
    MAX_CHAIN.
    """

    a: float
    b: float
    r: float
    alpha: Data
    beta: Data
    f: Data

    def __post_init__(self):
        self.a = float(self.a)
        self.b = float(self.b)
        self.r = float(self.r)
        if not (self.a < self.b):
            raise PreconditionError(f"need a < b, got a={self.a}, b={self.b}")
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise PreconditionError(f"step r must be positive, got {self.r}")
        if (self.b - self.a) / self.r > MAX_CHAIN:
            raise PreconditionError(
                f"(b - a)/r = {(self.b - self.a) / self.r:.3g} chain links exceed "
                f"the limit of {MAX_CHAIN:.0e}; use a larger r"
            )
        for name in ("alpha", "beta", "f"):
            data = getattr(self, name)
            if not (callable(data) or isinstance(data, SampledFunction)):
                raise PreconditionError(
                    f"{name} must be a callable or SampledFunction, got {type(data)!r}"
                )


def _interior_values(p: DrProblem, xs: np.ndarray) -> np.ndarray:
    """The Green's-function formula at interior points xs.

    Row i of a (points x q) array holds the chain of xs[i]: the source
    term q = 1..N-1 sits at xs[i] + (q - kunder)*r, and the sum runs
    along q.  Rows come in at most N - 1 blocks of under xs.size + N
    entries, so memory stays linear in the number of points plus the
    chain length, and f is called once per block.  N takes at most two
    neighbouring values over (a, b); entries past a row's own N - 1 get
    weight 0 and evaluate f at x itself, so f only sees chain points.
    """
    r = p.r
    ku = _steps((xs - p.a) / r)
    kb = _steps((p.b - xs) / r)
    n = ku + kb
    total = kb * _values(p.alpha, xs - ku * r) + ku * _values(p.beta, xs + kb * r)
    width = int(n.max()) - 1
    rows = -(-xs.size // width)
    q = np.arange(1, width + 1)
    for s in range(0, xs.size, rows):
        x, m, k, tot = (v[s : s + rows, None] for v in (xs, ku, kb, n))
        weight = np.minimum(q, m) * np.maximum(np.minimum(tot - q, k), 0)
        at = np.where(weight > 0, x + (q - m) * r, x)
        fv = _values(p.f, at.ravel()).reshape(at.shape)
        total[s : s + rows] -= r * r * np.sum(weight * fv, axis=1)
    return total / n


def _solve_points(p: DrProblem, xs: np.ndarray) -> np.ndarray:
    """Solution values at points of [a - r, b + r]: collar data or the formula."""
    xs = np.asarray(xs, dtype=float)
    pad = CEIL_SNAP * max(1.0, abs(p.a), abs(p.b))
    outside = ~((xs >= p.a - p.r - pad) & (xs <= p.b + p.r + pad))
    if outside.any():
        raise DomainError(
            f"x={float(xs[outside][0])} outside the solution domain "
            f"[{p.a - p.r}, {p.b + p.r}]"
        )
    vals = np.empty(xs.size)
    left = xs <= p.a
    right = xs >= p.b
    inner = ~(left | right)
    if left.any():
        vals[left] = _values(p.alpha, xs[left])
    if right.any():
        vals[right] = _values(p.beta, xs[right])
    if inner.any():
        vals[inner] = _interior_values(p, xs[inner])
    return vals


def solve_dr_explicit(p: DrProblem, x: float) -> float:
    """Solution value at one point of [a - r, b + r].

    Collar points return their own data; interior points use the
    closed-form chain formula.
    """
    return float(_solve_points(p, np.array([float(x)]))[0])


@dataclass(eq=False)
class DrSolution:
    """A solved Dirichlet problem: pointwise evaluator plus grid artifacts."""

    problem: DrProblem
    samples: SampledFunction
    jump_points: List[float]

    def eval(self, x: float) -> float:
        return solve_dr_explicit(self.problem, x)


def _detect_jumps(samples: SampledFunction, a: float, b: float):
    """Cluster consecutive above-threshold increments into jump points.

    An increment counts as part of a jump when it exceeds ten times the
    median increment (a robust proxy for smooth variation at step h)
    plus a small absolute floor.  The median is immune to the jumps
    themselves, and consecutive flagged increments are merged into one
    jump so a discontinuity that lands exactly on a sample (splitting
    its rise over two cells) is still reported once.  Junction
    discontinuities within 1.5 h of a or b are structural (collar data
    versus interior solution) and are not reported.  Returns
    (locations, sizes).
    """
    v = samples.values
    h = samples.h
    deltas = np.abs(np.diff(v))
    above = deltas > 10.0 * float(np.median(deltas)) + 1e-9
    # runs of flagged increments i..j; increment i sits at the cell boundary x_{i+1}
    edges = np.flatnonzero(np.diff(above, prepend=False, append=False))
    i, j = edges[0::2], edges[1::2] - 1
    loc = 0.5 * ((samples.x0 + (i + 1) * h) + (samples.x0 + (j + 1) * h))
    keep = (a + 1.5 * h < loc) & (loc < b - 1.5 * h)
    return loc[keep].tolist(), np.abs(v[j + 1] - v[i])[keep].tolist()


def solve_dr_on_grid(p: DrProblem, h: float) -> DrSolution:
    """Sample the explicit solution on [a - r, b + r) and locate its jumps."""
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError(f"sample step must be positive and finite, got {h}")
    span = (p.b + p.r) - (p.a - p.r)
    count = span / h - 1e-9  # inf when h is subnormal
    if count > MAX_GRID_SAMPLES:
        raise PreconditionError(
            f"step h={h} asks for {count:.3g} samples, above the limit of "
            f"{MAX_GRID_SAMPLES:.0e}; use a larger h"
        )
    n = int(math.ceil(count))
    if n < 2:
        raise DomainError(f"step h={h} leaves fewer than 2 samples on the domain")
    xs = (p.a - p.r) + h * np.arange(n)
    samples = SampledFunction(p.a - p.r, h, _solve_points(p, xs))
    locations, _ = _detect_jumps(samples, p.a, p.b)
    return DrSolution(problem=p, samples=samples, jump_points=locations)


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    worst: float
    worst_x: Optional[float]
    n_checked: int
    detail: str


def _null_set_distance(xs: np.ndarray, p: DrProblem) -> np.ndarray:
    ta = (xs - p.a) / p.r
    tb = (p.b - xs) / p.r
    da = np.abs(ta - np.round(ta))
    db = np.abs(tb - np.round(tb))
    return p.r * np.minimum(da, db)


def _check_sample_count(n_samples: int, least: int) -> None:
    """Reject a sample count below least or above MAX_GRID_SAMPLES."""
    if n_samples < least:
        raise PreconditionError(f"n_samples must be at least {least}, got {n_samples}")
    if n_samples > MAX_GRID_SAMPLES:
        raise PreconditionError(
            f"n_samples={n_samples} is above the limit of {MAX_GRID_SAMPLES:.0e}"
        )


def _residual_points(p: DrProblem, n_samples: int) -> np.ndarray:
    """The first n_samples golden-ratio points of (a, b) off the null set.

    Candidate k = 1, 2, ... sits at a + frac(k * GOLDEN_FRAC) * (b - a);
    candidates within EXCLUSION_TOL of the lattice null set are dropped.
    The walk takes 2 * n_samples candidates at a time, stops once
    n_samples have survived and gives up after 50 * n_samples.
    """
    chunk, limit = 2 * n_samples, 50 * n_samples
    kept, found = [], 0
    for start in range(1, limit + 1, chunk):
        k = np.arange(start, min(start + chunk, limit + 1))
        cand = p.a + ((k * GOLDEN_FRAC) % 1.0) * (p.b - p.a)
        cand = cand[_null_set_distance(cand, p) >= EXCLUSION_TOL]
        kept.append(cand)
        found += cand.size
        if found >= n_samples:
            break
    if found == 0:
        raise PreconditionError(
            "every candidate point fell inside the excluded lattice null set"
        )
    return np.concatenate(kept)[:n_samples]


def residual_check(p: DrProblem, n_samples: int = 1000) -> CheckReport:
    """Verify D_r u = f to RESIDUAL_TOL at quasi-random interior points.

    The points are the first n_samples golden-ratio candidates that lie
    at least EXCLUSION_TOL from the lattice null set, where the solution
    may genuinely jump and the three chain points of the operator would
    straddle different chains.  Candidates are walked in chunks of
    2 * n_samples, up to 50 * n_samples in all, so a typical call builds
    only about twice the points it checks.  u is evaluated at x + r,
    x - r and x in one pass of the evaluator.  n_samples may not exceed
    MAX_GRID_SAMPLES.
    """
    _check_sample_count(n_samples, 1)
    xs = _residual_points(p, n_samples)
    r = p.r
    up, down, mid = _solve_points(p, np.concatenate((xs + r, xs - r, xs))).reshape(3, -1)
    residual = np.abs((up + down - 2.0 * mid) / (r * r) - _values(p.f, xs))
    i = int(np.argmax(residual))
    worst = float(residual[i])
    return CheckReport(
        passed=worst <= RESIDUAL_TOL,
        worst=worst,
        worst_x=float(xs[i]),
        n_checked=int(xs.size),
        detail=f"max |D_r u - f| = {worst:.3e} over {int(xs.size)} points",
    )


def max_principle_check(p: DrProblem, n_samples: int = 1000) -> CheckReport:
    """With alpha <= 0, beta <= 0, f >= 0, the solution stays <= 0.

    The sign hypotheses are verified on sample grids first; a violation
    raises PreconditionError naming the offending point.  The conclusion
    is then checked as sup u <= 1e-12 over the whole band [a - r, b + r].
    n_samples runs from 2 to MAX_GRID_SAMPLES.
    """
    _check_sample_count(n_samples, 2)
    for name, data, lo, hi, sign in (
        ("alpha", p.alpha, p.a - p.r, p.a, -1.0),
        ("beta", p.beta, p.b, p.b + p.r, -1.0),
        ("f", p.f, p.a, p.b, 1.0),
    ):
        xs = np.linspace(lo, hi, n_samples)
        if name == "f":
            xs = xs[1:-1]  # f is only constrained on the open interval
        vals = _values(data, xs)
        bad = sign * vals < -1e-14
        if np.any(bad):
            x_bad = float(xs[bad][0])
            v_bad = float(vals[bad][0])
            want = "<= 0" if sign < 0 else ">= 0"
            raise PreconditionError(
                f"{name}({x_bad}) = {v_bad} violates the hypothesis {name} {want}"
            )
    xs = np.linspace(p.a - p.r, p.b + p.r, n_samples)
    vals = _solve_points(p, xs)
    i = int(np.argmax(vals))
    sup = float(vals[i])
    return CheckReport(
        passed=sup <= 1e-12,
        worst=sup,
        worst_x=float(xs[i]),
        n_checked=int(xs.size),
        detail=f"sup u = {sup:.3e}",
    )


@dataclass(frozen=True)
class RegularityReport:
    """Sample-based a priori bounds against the measured solution."""

    sup_alpha: float
    osc_alpha: float
    cross_gap: float
    sup_f: float
    linf_bound: float
    linf_measured: float
    linf_ok: bool
    jump_bound: Optional[float]
    jump_measured: Optional[float]
    jump_ok: Optional[bool]


def regularity_bounds(p: DrProblem, n_samples: int = 2048) -> RegularityReport:
    """Check the L-infinity bound, and the jump bound when f vanishes.

        sup |u|  <=  sup|alpha| + sup|alpha - beta| + ((b-a)^2 + r^2) sup|f|
        jumps    <=  osc alpha + (r/(b-a)) sup|alpha - beta|   (f == 0 only)

    All sups are sample-based on n_samples point grids per band;
    n_samples runs from 3 to MAX_GRID_SAMPLES.
    """
    _check_sample_count(n_samples, 3)
    av = _values(p.alpha, np.linspace(p.a - p.r, p.a, n_samples))
    bv = _values(p.beta, np.linspace(p.b, p.b + p.r, n_samples))
    fv = _values(p.f, np.linspace(p.a, p.b, n_samples)[1:-1])
    sup_alpha = float(np.max(np.abs(av)))
    osc_alpha = float(np.max(av) - np.min(av))
    cross_gap = float(max(np.max(av) - np.min(bv), np.max(bv) - np.min(av), 0.0))
    sup_f = float(np.max(np.abs(fv)))
    span = p.b - p.a
    linf_bound = sup_alpha + cross_gap + (span * span + p.r * p.r) * sup_f

    h = span / float(n_samples)
    sol = solve_dr_on_grid(p, h)
    linf_measured = float(np.max(np.abs(sol.samples.values)))

    if sup_f <= 1e-14:
        jump_bound = osc_alpha + (p.r / span) * cross_gap
        _, sizes = _detect_jumps(sol.samples, p.a, p.b)
        jump_measured = max(sizes) if sizes else 0.0
        jump_ok = jump_measured <= jump_bound + 1e-12
    else:
        jump_bound = None
        jump_measured = None
        jump_ok = None

    return RegularityReport(
        sup_alpha=sup_alpha,
        osc_alpha=osc_alpha,
        cross_gap=cross_gap,
        sup_f=sup_f,
        linf_bound=linf_bound,
        linf_measured=linf_measured,
        linf_ok=linf_measured <= linf_bound + 1e-12,
        jump_bound=jump_bound,
        jump_measured=jump_measured,
        jump_ok=jump_ok,
    )
