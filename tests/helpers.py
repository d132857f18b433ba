"""Shared generators and independent oracles for the nonlocal Dirichlet tests."""

import numpy as np

from oschet.dirichlet import (
    EXCLUSION_TOL,
    GOLDEN_FRAC,
    RESIDUAL_TOL,
    CheckReport,
    DrProblem,
    _null_set_distance,
    _solve_points,
    _values,
    kbar,
    kunder,
    solve_dr_explicit,
)
from oschet.sampled import SampledFunction


def poly(coeffs):
    """Horner-evaluated polynomial accepting scalars and arrays."""
    coeffs = list(coeffs)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in reversed(coeffs):
            out = out * x + c
        return out if out.ndim else float(out)

    return f


def trig(a0, a_cos, a_sin, freq):
    def f(x):
        x = np.asarray(x, dtype=float)
        out = a0 + a_cos * np.cos(freq * x) + a_sin * np.sin(freq * x)
        return out if out.ndim else float(out)

    return f


def zero(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    return out if out.ndim else 0.0


def random_problem(rng: np.random.Generator, f_zero: bool = False) -> DrProblem:
    """A random smooth instance with at least two lattice cells in (a, b)."""
    a = float(rng.uniform(-2.0, 1.0))
    span = float(rng.uniform(0.8, 3.0))
    b = a + span
    r = float(rng.uniform(0.12, 0.45)) * span
    alpha = trig(
        float(rng.uniform(-1, 1)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(0.5, 2.0)),
    )
    beta = trig(
        float(rng.uniform(-1, 1)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(0.5, 2.0)),
    )
    f = zero if f_zero else poly(rng.uniform(-1.0, 1.0, 3))
    return DrProblem(a=a, b=b, r=r, alpha=alpha, beta=beta, f=f)


def sign_constrained_problem(rng: np.random.Generator) -> DrProblem:
    """alpha, beta <= 0 and f >= 0: the data regime of the maximum principle."""
    a = float(rng.uniform(-1.5, 0.5))
    span = float(rng.uniform(0.9, 2.5))
    b = a + span
    r = float(rng.uniform(0.15, 0.4)) * span
    s1, s2 = float(rng.uniform(0, 0.8)), float(rng.uniform(0, 0.8))
    alpha = lambda x: -s1 * (1.2 + np.sin(np.asarray(x)))  # <= 0 everywhere
    beta = lambda x: -s2 * (1.2 + np.cos(np.asarray(x)))
    c0, c2 = float(rng.uniform(0, 1.0)), float(rng.uniform(0, 0.5))
    f = lambda x: c0 + c2 * np.asarray(x) ** 2  # >= 0 everywhere
    return DrProblem(a=a, b=b, r=r, alpha=alpha, beta=beta, f=f)


def aligned_problem(rng: np.random.Generator):
    """An instance whose span is an exact lattice multiple of r.

    Returns (problem, N) with b = a + N r, so the points a + k r for
    k = 1..N-1 form a closed difference chain.
    """
    N = int(rng.integers(3, 13))
    r = float(rng.uniform(0.15, 0.6))
    a = float(rng.uniform(-1.5, 1.5))
    b = a + N * r
    alpha = trig(
        float(rng.uniform(-1, 1)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(0.5, 2.0)),
    )
    beta = trig(
        float(rng.uniform(-1, 1)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(0.5, 2.0)),
    )
    f = poly(rng.uniform(-1.0, 1.0, 3))
    return DrProblem(a=a, b=b, r=r, alpha=alpha, beta=beta, f=f), N


def dense_lattice_solve(p: DrProblem, N: int) -> np.ndarray:
    """Oracle for aligned instances: assemble the difference chain at the
    interior lattice points a + k r (k = 1..N-1) as a dense linear system
    u(x-r) - 2 u(x) + u(x+r) = r^2 f(x) and solve it directly."""
    r = p.r
    xs = p.a + r * np.arange(1, N)
    rhs = r * r * np.array([float(np.asarray(p.f(x))) for x in xs])
    rhs[0] -= float(np.asarray(p.alpha(p.a)))
    rhs[-1] -= float(np.asarray(p.beta(p.b)))
    A = np.zeros((N - 1, N - 1))
    np.fill_diagonal(A, -2.0)
    idx = np.arange(N - 2)
    A[idx, idx + 1] = 1.0
    A[idx + 1, idx] = 1.0
    return np.linalg.solve(A, rhs)


def closed_form_value(p: DrProblem, x: float) -> float:
    """Oracle: the interior closed form term by term, one scalar call a point.

    With m = kunder, n = kbar and N = m + n,

        u(x) = n/N * [alpha(x - m r) - r^2 sum_{j=1}^{m-1} j f(x - (m - j) r)]
             + m/N * [beta(x + n r) - r^2 sum_{j=1}^{n-1} j f(x + (n - j) r)]
             - r^2 (m n / N) f(x),

    the left and right walks along the chain written out separately.
    """

    def at(data, t):
        if isinstance(data, SampledFunction):
            return data.eval(t, extend=True)
        return float(data(t))

    r, r2 = p.r, p.r * p.r
    m, n = kunder(x, p.a, p.b, r), kbar(x, p.a, p.b, r)
    left = at(p.alpha, x - m * r)
    for j in range(1, m):
        left -= r2 * j * at(p.f, x - (m - j) * r)
    right = at(p.beta, x + n * r)
    for j in range(1, n):
        right -= r2 * j * at(p.f, x + (n - j) * r)
    N = m + n
    return (n * left + m * right) / N - r2 * (m * n / N) * at(p.f, x)


def explicit_lattice_values(p: DrProblem, N: int) -> np.ndarray:
    xs = p.a + p.r * np.arange(1, N)
    return np.array([solve_dr_explicit(p, float(x)) for x in xs])


def left_dominant_problem(rng: np.random.Generator) -> DrProblem:
    """A sourceless instance whose left collar oscillates at least as much
    as the right one.

    The jump bound checked by regularity_bounds tracks the left collar;
    jumps on the right lattice b - r N obey the mirrored inequality with
    the collars swapped (reflect through (a+b)/2), so the literal formula
    is only binding when the left collar dominates.
    """
    a = float(rng.uniform(-2.0, 1.0))
    span = float(rng.uniform(0.8, 3.0))
    b = a + span
    r = float(rng.uniform(0.12, 0.45)) * span
    s1, s2 = rng.uniform(-1.5, 1.5, 2)
    if abs(s2) > abs(s1):
        s1, s2 = s2, s1
    c1, c2 = rng.uniform(-1.0, 1.0, 2)
    alpha = lambda x, s=s1, c=c1: c + s * (np.asarray(x, dtype=float) - a)
    beta = lambda x, s=s2, c=c2: c + s * (np.asarray(x, dtype=float) - b)
    return DrProblem(a=a, b=b, r=r, alpha=alpha, beta=beta, f=zero)


def forbid_large_arange(monkeypatch):
    """Make np.arange and np.linspace fail on more than 10^8 entries
    instead of allocating.

    A grid that a size cap should refuse would otherwise be allocated for
    real (about 12 GB at h = 1e-9 on a unit span) before the test fails.
    """
    real_arange, real_linspace = np.arange, np.linspace

    def guarded_arange(*args, **kwargs):
        ints = all(isinstance(v, (int, np.integer)) for v in args)
        if ints and len(args) == 1 and args[0] > 10**8:
            raise AssertionError(f"np.arange({args[0]}) allocates the grid")
        if ints and len(args) in (2, 3) and len(range(*args)) > 10**8:
            raise AssertionError(f"np.arange{args} allocates the grid")
        return real_arange(*args, **kwargs)

    def guarded_linspace(start, stop, num=50, *args, **kwargs):
        if num > 10**8:
            raise AssertionError(f"np.linspace(..., {num}) allocates the grid")
        return real_linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded_arange)
    monkeypatch.setattr(np, "linspace", guarded_linspace)


def residual_points_sweep(p: DrProblem, n_samples: int) -> np.ndarray:
    """Oracle for dirichlet._residual_points: all 50 * n_samples
    golden-ratio candidates in one sweep, filtered off the null set and
    cut to the first n_samples (possibly none)."""
    k = np.arange(1, 50 * n_samples + 1)
    cand = p.a + ((k * GOLDEN_FRAC) % 1.0) * (p.b - p.a)
    cand = cand[_null_set_distance(cand, p) >= EXCLUSION_TOL]
    return cand[:n_samples]


def residual_check_sweep(p: DrProblem, n_samples: int) -> CheckReport:
    """Oracle for dirichlet.residual_check: the one-sweep points and one
    evaluator call each at x + r, x - r and x."""
    xs = residual_points_sweep(p, n_samples)
    r = p.r
    residual = np.abs(
        (_solve_points(p, xs + r) + _solve_points(p, xs - r) - 2.0 * _solve_points(p, xs))
        / (r * r)
        - _values(p.f, xs)
    )
    i = int(np.argmax(residual))
    worst = float(residual[i])
    return CheckReport(
        passed=worst <= RESIDUAL_TOL,
        worst=worst,
        worst_x=float(xs[i]),
        n_checked=int(xs.size),
        detail=f"max |D_r u - f| = {worst:.3e} over {int(xs.size)} points",
    )


def detect_jumps_loop(samples: SampledFunction, a: float, b: float):
    """Oracle for dirichlet._detect_jumps: its flagged increments walked
    one run at a time, each run reported at the midpoint of its cell
    boundaries unless it lies within 1.5 h of a or b."""
    v = samples.values
    h = samples.h
    deltas = np.abs(np.diff(v))
    n = deltas.size
    above = deltas > 10.0 * float(np.median(deltas)) + 1e-9
    locations = []
    sizes = []
    i = 0
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        # increment i sits at the cell boundary x_{i+1}
        x_lo = samples.x0 + (i + 1) * h
        x_hi = samples.x0 + (j + 1) * h
        loc = 0.5 * (x_lo + x_hi)
        if a + 1.5 * h < loc < b - 1.5 * h:
            locations.append(float(loc))
            sizes.append(float(abs(v[j + 1] - v[i])))
        i = j + 1
    return locations, sizes
