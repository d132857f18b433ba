"""Independent checks of the outputs the benchmark's requests produce.

Each checker recomputes what it needs from the values a request emitted,
with numpy and closed forms of its own, and never trusts a report field
of the package (``value``, ``el_residual``, ``converged``, ``jumps``) as
evidence.  A checker returns a list of problems; an empty list means the
output passed.  The benchmark counts a request with any problem as
failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

EL_TOL_MIN = 1e-9  # recomputed stationarity defect of a minimizer
EL_TOL_SHOT = 1e-8  # same for a shot orbit (acceptance criterion 6)
MONO_TOL = 1e-12
VALUE_RTOL = 1e-9  # reported energy against the recomputed window sum
LIFT_TOL = 1e-9  # |F(lift) - 2 r m| and |E(lift) - 2 r m|
CLASSICAL_TOL = 2e-9  # the classical profile clamps at 1 - 1e-9
EXPLICIT_RTOL = 1e-9  # scalar D_r solution against a dense chain solve
COMPARE_TOL = 1e-12  # comparison principle slack
# convergence_study shoots at a fixed tol of 1e-7 and the shooting accepts
# an overshooting orbit that lands within tol of 1.  That makes err_aligned
# spike above its C r^2 trend at scattered radii, more often as r falls:
# 5-fold near r = 0.055, and on 30 of 41 radii near r = 0.01 for the
# quartic well, up to 600-fold.  Strict decrease is checked from r = 0.1
# up; inversions below are counted instead.
STUDY_STRICT_R = 0.1


# ---------------------------------------------------------------------------
# double wells, written out independently of oschet.potential
# ---------------------------------------------------------------------------


def well(kind: str, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if kind == "quartic":
        return 0.25 * (1.0 - t * t) ** 2
    if kind == "pendulum":
        inside = (1.0 + np.cos(np.pi * t)) / np.pi
        outside = 0.5 * np.pi * (np.abs(t) - 1.0) ** 2
        return np.where(np.abs(t) <= 1.0, inside, outside)
    raise ValueError(f"unknown potential {kind!r}")


def well_slope(kind: str, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if kind == "quartic":
        return t**3 - t
    if kind == "pendulum":
        inside = -np.sin(np.pi * t)
        outside = np.pi * np.sign(t) * (np.abs(t) - 1.0)
        return np.where(np.abs(t) <= 1.0, inside, outside)
    raise ValueError(f"unknown potential {kind!r}")


def classical_profile(kind: str, x) -> np.ndarray:
    """Closed forms of the increasing odd solution of 4 u'' = W'(u)."""
    x = np.asarray(x, dtype=float)
    if kind == "quartic":
        return np.tanh(x / (2.0 * math.sqrt(2.0)))
    if kind == "pendulum":
        # 2 u'^2 = W(u) with W = (2/pi) cos^2(pi u / 2) integrates to a
        # Gudermannian: pi u / 2 = asin(tanh(sqrt(pi) x / 2)).
        return (2.0 / np.pi) * np.arcsin(np.tanh(0.5 * math.sqrt(math.pi) * x))
    raise ValueError(f"unknown potential {kind!r}")


# ---------------------------------------------------------------------------
# lattice profiles
# ---------------------------------------------------------------------------


def window_energy(kind: str, r: float, w: np.ndarray, n_min: int, j_lo: int, j_hi: int) -> float:
    """sum_{j=j_lo}^{j_hi} (w_{j+1} - w_j)^2 / (2 r^2) + W(w_j), extended by -1 / +1."""
    idx = np.arange(j_lo, j_hi + 2) - n_min
    vals = np.where(idx < 0, -1.0, 1.0)
    inside = (idx >= 0) & (idx < w.size)
    vals[inside] = w[idx[inside]]
    d = np.diff(vals)
    return float(np.sum(d * d) / (2.0 * r * r) + np.sum(well(kind, vals[:-1])))


def el_defect(kind: str, r: float, w: np.ndarray) -> float:
    """Largest defect of w_{j+1} - 2 w_j + w_{j-1} = r^2 W'(w_j) inside the window."""
    if w.size < 3:
        return 0.0
    inner = w[1:-1]
    d = w[2:] - 2.0 * inner + w[:-2] - r * r * well_slope(kind, inner)
    return float(np.max(np.abs(d)))


def _values(obj, problems):
    w = np.asarray(obj.get("values", []), dtype=float)
    if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
        problems.append("values missing or not finite")
        return None
    return w


def check_minimizer(req: dict, obj: dict) -> list:
    """solve-heteroclinic output: EL residual, monotonicity, window energy, caps."""
    problems = []
    kind, r, K, sym = req["potential"], req["r"], req["K"], req["symmetry"]
    w = _values(obj, problems)
    if w is None:
        return problems
    layout = {"none": (K + 2, 0, 0, K), "node": (2 * K + 1, -K, -K, K), "bond": (2 * K, -K, -K, K)}
    size, n_min, j_lo, j_hi = layout[sym]
    if w.size != size:
        return problems + [f"expected {size} values, got {w.size}"]
    if sym != "none" and not np.array_equal(w, -w[::-1]):
        problems.append("symmetric minimizer is not odd")
    el = el_defect(kind, r, w)
    if el > EL_TOL_MIN:
        problems.append(f"EL residual {el:.3e} > {EL_TOL_MIN}")
    dip = float(np.min(np.diff(w)))
    if dip < -MONO_TOL:
        problems.append(f"not monotone: increment {dip:.3e}")
    m = window_energy(kind, r, w, n_min, j_lo, j_hi)
    if abs(m - float(obj.get("value", math.nan))) > VALUE_RTOL * max(1.0, abs(m)):
        problems.append(f"reported value {obj.get('value')} != window sum {m!r}")
    # criterion 3 caps: the node/bond competitors, and the plain one-jump step
    cap = 1.0 / r**2 + float(well(kind, 0.0)) if sym == "node" else 2.0 / r**2
    if m > cap + 1e-10:
        problems.append(f"window sum {m:.12g} above the cap {cap:.12g}")
    return problems


def check_shot(req: dict, obj: dict, energy_F: float, energy_E: float) -> list:
    """shoot output plus its lift: exact oddness, ends, EL, F = E = 2 r m."""
    problems = []
    kind, r, tol = req["potential"], req["r"], req["tol"]
    w = _values(obj, problems)
    if w is None:
        return problems
    if not np.array_equal(w, -w[::-1]):
        problems.append("shot profile is not exactly odd")
    if req["symmetry"] == "node" and (w.size % 2 != 1 or w[w.size // 2] != 0.0):
        problems.append("node-odd profile does not pass through 0 at the centre")
    if req["symmetry"] == "bond" and w.size % 2 != 0:
        problems.append("bond-odd profile has an odd number of plateaus")
    if not abs(w[-1] - 1.0) < tol or not abs(w[0] + 1.0) < tol:
        problems.append(f"ends {w[0]!r}, {w[-1]!r} not within {tol} of -1, +1")
    el = el_defect(kind, r, w)
    if el > EL_TOL_SHOT:
        problems.append(f"EL residual {el:.3e} > {EL_TOL_SHOT}")
    if w.size > 1 and float(np.min(np.diff(w))) < -MONO_TOL:
        problems.append("shot profile is not monotone")
    n_max = int(obj["K"])
    n_min = n_max - w.size + 1
    m = window_energy(kind, r, w, n_min, n_min - 1, n_max)
    if abs(m - float(obj.get("value", math.nan))) > VALUE_RTOL * max(1.0, abs(m)):
        problems.append(f"reported value {obj.get('value')} != window sum {m!r}")
    for name, got in (("F", energy_F), ("E", energy_E)):
        if not abs(got - 2.0 * r * m) <= LIFT_TOL:
            problems.append(f"{name}(lift) = {got!r} differs from 2 r m = {2.0 * r * m!r}")
    return problems


def check_study(req: dict, obj: dict, probes: list) -> list:
    """converge-study rows and classical_heteroclinic probes."""
    problems = []
    rows = obj.get("rows", [])
    if [row.get("r") for row in rows] != list(req["r_list"]):
        return [f"rows {[row.get('r') for row in rows]} do not match {req['r_list']}"]
    ea = [float(row["err_aligned"]) for row in rows]
    for row in rows:
        if not (0.0 <= row["err_aligned"] <= row["err"]) or not row["energy"] > 0.0:
            problems.append(f"row {row} is inconsistent")
    rs = req["r_list"]
    if any(e1 >= e0 for e0, e1, r1 in zip(ea, ea[1:], rs[1:]) if r1 >= STUDY_STRICT_R):
        problems.append(f"err_aligned {ea} is not decreasing along r >= {STUDY_STRICT_R}")
    ref = classical_profile(req["potential"], [x for x, _ in probes])
    for (x, u), u_ref in zip(probes, ref):
        if not abs(u - u_ref) <= CLASSICAL_TOL:
            problems.append(f"classical profile at x={x!r}: {u!r} vs closed form {u_ref!r}")
    return problems


def study_inversions(obj: dict) -> int:
    """Rows below STUDY_STRICT_R whose err_aligned does not drop."""
    rows = obj["rows"]
    return sum(
        1 for r0, r1 in zip(rows, rows[1:]) if r1["r"] < STUDY_STRICT_R and r1["err_aligned"] >= r0["err_aligned"]
    )


# ---------------------------------------------------------------------------
# Dirichlet problems
# ---------------------------------------------------------------------------


def polyval(coeffs, x) -> np.ndarray:
    """c0 + c1 x + ... by Horner's rule."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for c in reversed(list(coeffs)):
        out = out * x + c
    return out


def parse_grid(text: str, fmt: str):
    """(x, u) arrays from solve-dirichlet CSV or JSON output."""
    if fmt == "json":
        obj = json.loads(text)
        return np.asarray(obj["x"], dtype=float), np.asarray(obj["value"], dtype=float)
    lines = text.splitlines()
    if not lines or lines[0] != "x,value":
        raise ValueError("CSV header missing")
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return data[:, 0], data[:, 1]


def _chain_counts(t: np.ndarray) -> np.ndarray:
    return np.ceil(t - 1e-9).astype(int)


def check_grid(req: dict, x: np.ndarray, u: np.ndarray) -> list:
    """solve-dirichlet on (a, b) = (0, 1): grid, collars, D_r u - f, staircase.

    r = k h, so x +- r are grid samples.  Samples within 1e-6 r of the
    null set (a + r N) u (b - r N) are skipped: the solution may jump there.
    """
    problems = []
    a, b, r, h, k = 0.0, 1.0, req["r"], req["h"], req["k"]
    n = int(math.ceil(((b + r) - (a - r)) / h - 1e-9))
    if x.size != n or u.size != n:
        return [f"expected {n} samples, got {x.size}"]
    if not np.all(np.isfinite(u)):
        return ["non-finite samples"]
    if np.max(np.abs(x - ((a - r) + h * np.arange(n)))) > 1e-12:
        problems.append("sample abscissae are off the grid")
    left, right = x <= a, x >= b
    if np.any(u[left] != req["alpha"]) or np.any(u[right] != req["beta"]):
        problems.append("collar samples differ from the collar data")
    f = polyval(req["f_coeffs"], x)
    i = np.arange(k, n - k)
    ta, tb = (x[i] - a) / r, (b - x[i]) / r
    keep = (x[i] > a) & (x[i] < b)
    keep &= (np.abs(ta - np.round(ta)) > 1e-6) & (np.abs(tb - np.round(tb)) > 1e-6)
    i = i[keep]
    res = np.abs((u[i + k] + u[i - k] - 2.0 * u[i]) / (r * r) - f[i])
    scale = max(1.0, float(np.max(np.abs(u)))) + r * r * float(np.max(np.abs(f)))
    tol = 1e-9 + 1e-12 * scale / (r * r)
    if res.size == 0:
        problems.append("no sample away from the null set")
    elif float(np.max(res)) > tol:
        j = int(i[int(np.argmax(res))])
        problems.append(f"|D_r u - f| = {float(np.max(res)):.3e} > {tol:.1e} at x={x[j]!r}")
    if req["source"] == "staircase":
        problems += _check_staircase(req, x, u)
    return problems


def _check_staircase(req: dict, x: np.ndarray, u: np.ndarray) -> list:
    """f = 0 with constant collars: u = (kbar alpha + kunder beta) / (kunder + kbar).

    The jumps sit on the null set; with r = 1/4 on (0, 1) they are at
    1/4, 1/2 and 3/4 and must be found from the samples alone.
    """
    problems = []
    a, b, r, h = 0.0, 1.0, req["r"], req["h"]
    alpha, beta = req["alpha"], req["beta"]
    xi, ui = x[(x > a + h) & (x < b - h)], u[(x > a + h) & (x < b - h)]
    ta, tb = (xi - a) / r, (b - xi) / r
    ku, kb = _chain_counts(ta), _chain_counts(tb)
    exact = (kb * alpha + ku * beta) / (ku + kb)
    off = r * np.minimum(np.abs(ta - np.round(ta)), np.abs(tb - np.round(tb))) > 1.5 * h
    if np.max(np.abs(ui - exact)[off]) > 1e-12:
        problems.append("staircase plateaus differ from (kbar alpha + kunder beta)/(kunder + kbar)")
    # A jump landing on a sample splits over two increments; merge runs.
    step = abs(beta - alpha) / (round((b - a) / r) + 1)
    runs = []
    for j in np.nonzero(np.abs(np.diff(u)) > 0.2 * step)[0]:
        if runs and runs[-1][1] == j - 1:
            runs[-1][1] = j
        else:
            runs.append([j, j])
    found = [
        0.5 * (x[lo] + x[hi + 1]) for lo, hi in runs if a + 1.5 * h < x[lo] and x[hi] < b - 1.5 * h
    ]
    want = [a + r * j for j in range(1, int(round((b - a) / r)))]
    if len(found) != len(want) or any(abs(p - q) > h for p, q in zip(found, want)):
        problems.append(f"staircase jumps at {found}, expected {want}")
    return problems


def chain_solution(a: float, b: float, r: float, alpha, beta, f, x: float) -> float:
    """u(x) from a dense solve of the difference chain x + r Z clipped to (a, b)."""
    m = max(1, math.ceil((x - a) / r))
    n = max(1, math.ceil((b - x) / r))
    size = m + n - 1
    pts = x + r * np.arange(-(m - 1), n)
    A = -2.0 * np.eye(size) + np.eye(size, k=1) + np.eye(size, k=-1)
    rhs = r * r * np.asarray(f(pts), dtype=float)
    rhs[0] -= float(alpha(x - m * r))
    rhs[-1] -= float(beta(x + n * r))
    return float(np.linalg.solve(A, rhs)[m - 1])


def check_probes(inst: dict, xs, us) -> list:
    """Scalar solve_dr_explicit values against a dense chain solve."""
    problems = []
    for x, u in zip(xs, us):
        ref = chain_solution(inst["a"], inst["b"], inst["r"], inst["alpha"], inst["beta"], inst["f"], x)
        if not abs(u - ref) <= EXPLICIT_RTOL * max(1.0, abs(ref)):
            problems.append(f"u({x!r}) = {u!r}, dense chain solve gives {ref!r}")
    return problems


def check_comparison(lower, upper) -> list:
    """Comparison principle: larger collars and smaller source give a larger u."""
    gap = max(float(lo - hi) for lo, hi in zip(lower, upper))
    return [] if gap <= COMPARE_TOL else [f"comparison principle fails by {gap:.3e}"]


def check_report(report) -> list:
    """A CheckReport or RegularityReport of the package must pass."""
    if hasattr(report, "passed"):
        return [] if report.passed else [f"check report failed: {report.detail}"]
    problems = []
    if not report.linf_ok:
        problems.append(f"L-inf bound {report.linf_bound} < measured {report.linf_measured}")
    if report.jump_ok is False:
        problems.append(f"jump bound {report.jump_bound} < measured {report.jump_measured}")
    return problems
