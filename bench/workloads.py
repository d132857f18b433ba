"""The benchmark's workloads: seeded inputs, the calls into oschet, their checks.

A workload turns a seed into a fixed list of requests.  Each request is
a dict of plain parameters; ``call`` runs it through ``oschet.cli.run``
where a subcommand exists and through the public library functions where
none does, and ``check`` verifies the output with the independent
references in ``checks``.  Only ``call`` is timed.

Lists are drawn by stratified sampling: every series of a workload (a
potential, symmetry or output format) covers the workload's parameter
range once per stratum, with one seeded draw inside each stratum, so
two seeds give lists of the same mix and their figures can be compared.

Every name the package might rebind is looked up on its module at call
time (``cli.run``, ``potential.quartic``, ``dirichlet.DrProblem``, ...),
so the traced run's wrappers see the same calls as the timed run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

import checks
from oschet import asymptotics, cli, dirichlet, heteroclinic, potential, sampled

POTENTIALS = ("quartic", "pendulum")


class RequestFailed(Exception):
    """A request ended with a non-zero exit code."""


def _vdc(n: int) -> float:
    """Base-2 van der Corput radical inverse of n."""
    v, denom = 0.0, 1.0
    while n:
        n, bit = divmod(n, 2)
        denom *= 2.0
        v += bit / denom
    return v


def stratified(rng: np.random.Generator, series: list, strata: int) -> Iterator:
    """Yield (series item, u) for every item and stratum, u in [0, 1).

    Strata come in van der Corput order, so any prefix spreads over the range.
    """
    for j in sorted(range(strata), key=_vdc):
        for item in series:
            yield item, (j + rng.random()) / strata


def log_between(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def call_cli(argv: list, note: Callable) -> str:
    """Run one CLI invocation in process and return what it wrote to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    text = out.getvalue()
    note("cli.bytes_out", len(text))
    if rc != 0:
        raise RequestFailed(f"oschet {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return text


def make_potential(kind: str):
    return getattr(potential, kind)()


# ---------------------------------------------------------------------------
# lattice-min
# ---------------------------------------------------------------------------

LATTICE_SERIES = [
    (pot, r, sym) for pot in POTENTIALS for r in (0.25, 0.5, 1.0) for sym in ("none", "node", "bond")
]
K_RANGE = {"none": (2, 12), "node": (4, 32), "bond": (4, 32)}


def lattice_requests(rng: np.random.Generator) -> list:
    # Solve time is irregular in K (neighbours differ up to 5-fold) and in
    # the multistart's random starts, so random draws of either change the
    # mix from seed to seed: over five seeds the median latency spread by
    # 30% of itself.  The list is therefore fixed: series s solves at the
    # K range positions (s + 1/2)/36 and (s + 18 1/2)/36, which spreads the
    # 36 solves evenly over K, and the seed only orders them.
    reqs = []
    for s, (pot, r, sym) in enumerate(LATTICE_SERIES):
        lo, hi = K_RANGE[sym]
        for u in ((s + 0.5) / 36, (s + 18.5) / 36):
            reqs.append({"kind": "solve", "potential": pot, "r": r, "symmetry": sym, "K": lo + int(u * (hi - lo + 1))})
    return [reqs[i] for i in rng.permutation(len(reqs))]


def lattice_call(req: dict, note: Callable):
    argv = ["solve-heteroclinic", "--K", str(req["K"]), "--r", repr(req["r"])]
    argv += ["--potential", req["potential"], "--symmetry", req["symmetry"]]
    return call_cli(argv, note)


def lattice_check(req: dict, out) -> list:
    return checks.check_minimizer(req, json.loads(out))


# ---------------------------------------------------------------------------
# continuum
# ---------------------------------------------------------------------------

SHOOT_SERIES = [(pot, sym) for pot in POTENTIALS for sym in ("node", "bond")]
SHOOT_TOL = 1e-7


def continuum_requests(rng: np.random.Generator) -> list:
    # 32 shoots over r from 0.005 to 0.5 in narrow strata shared by the four
    # well and symmetry pairs, each followed by a converge-study.  The 16
    # pendulum studies are the slowest requests, so the tail latency (ten
    # requests beyond it) falls inside that group rather than at its edge.
    reqs = []
    tops = stratified(rng, POTENTIALS, 16)
    for i, (_, u) in enumerate(stratified(rng, [None], 32)):
        pot, sym = SHOOT_SERIES[i % 4]
        r = log_between(u, 0.005, 0.5)
        reqs.append(
            {
                "kind": "shoot",
                "potential": pot,
                "symmetry": sym,
                "r": r,
                "tol": SHOOT_TOL,
                # the connection reaches 1 - 1e-7 within |x| < 16 for both wells
                "horizon": int(16.0 / r) + 100,
                "samples": int(rng.uniform(7e4, 8e4)),
            }
        )
        pot, v = next(tops)
        reqs.append(
            {
                "kind": "study",
                "potential": pot,
                "r_list": [log_between(v, 0.4, 0.48) / 2**k for k in range(7)],
                "probes": [float(x) for x in np.sort(rng.uniform(-6.0, 6.0, 8))],
            }
        )
    return reqs


def continuum_call(req: dict, note: Callable):
    pot = req["potential"]
    if req["kind"] == "study":
        argv = ["converge-study", "--r-list", ",".join(map(repr, req["r_list"])), "--potential", pot]
        obj = json.loads(call_cli(argv, note))
        W = make_potential(pot)
        return obj, [(x, asymptotics.classical_heteroclinic(W, x)) for x in req["probes"]]
    r = req["r"]
    argv = ["shoot", "--r", repr(r), "--potential", pot, "--symmetry", req["symmetry"]]
    argv += ["--tol", repr(req["tol"]), "--horizon", str(req["horizon"])]
    obj = json.loads(call_cli(argv, note))
    w = obj["values"]
    n_max = obj["K"]
    n_min = n_max - len(w) + 1
    # pad one well plateau on each side so the lift covers [a - r, b + r]
    prof = heteroclinic.LatticeProfile(r, n_min - 1, n_max + 1, [-1.0] + w + [1.0])
    n_r = max(1, round(req["samples"] / (2 * (len(w) + 2))))
    u = heteroclinic.lift_profile(prof, 0.0, r / n_r)
    a, b = 2.0 * r * (n_min - 1) + r, 2.0 * r * (n_max + 1) + r
    W = make_potential(pot)
    return obj, sampled.energy_F(u, a, b, r, W).total, sampled.energy_E(u, a, b, r, W).total


def continuum_check(req: dict, out) -> list:
    if req["kind"] == "study":
        return checks.check_study(req, *out)
    return checks.check_shot(req, *out)


def continuum_observe(req: dict, out, note: Callable) -> None:
    if req["kind"] == "study":
        note("asymptotics.err_inversions", checks.study_inversions(out[0]))


# ---------------------------------------------------------------------------
# dirichlet-grid
# ---------------------------------------------------------------------------

GRID_CHAINS = [("const", "csv"), ("poly", "json"), ("const", "json"), ("poly", "csv")]
GRID_H = 1e-4


def grid_requests(rng: np.random.Generator) -> list:
    # r = k h from 0.005 to 0.25 in 40 strata shared by the four source and
    # format pairs; the chain sums cost O((1/r)^2), so each stratum is kept
    # narrow (10% in r).  Every fourth request is followed by a staircase.
    reqs = []
    staircase_format = itertools.cycle(("csv", "json"))
    for i, (_, u) in enumerate(stratified(rng, [None], 40)):
        source, fmt = GRID_CHAINS[i % 4]
        alpha, beta = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, 1 if source == "const" else 3)]
        reqs.append(_grid_request(source, fmt, int(round(log_between(u, 50, 2500))), alpha, beta, coeffs))
        if i % 4 == 3:
            lo, hi = float(rng.uniform(-1.0, -0.25)), float(rng.uniform(0.25, 1.0))
            reqs.append(_grid_request("staircase", next(staircase_format), 2500, lo, hi, [0.0]))
    return reqs


def _grid_request(source: str, fmt: str, k: int, alpha: float, beta: float, coeffs: list) -> dict:
    return {
        "kind": "grid",
        "source": source,
        "format": fmt,
        "k": k,
        "r_text": f"{k * GRID_H:.4f}",
        "r": float(f"{k * GRID_H:.4f}"),
        "h": GRID_H,
        "alpha": alpha,
        "beta": beta,
        "f_coeffs": coeffs,
    }


def grid_call(req: dict, note: Callable):
    argv = ["solve-dirichlet", "--a", "0", "--b", "1", "--r", req["r_text"], "--h", repr(req["h"])]
    argv += ["--alpha-const=" + repr(req["alpha"]), "--beta-const=" + repr(req["beta"])]
    if req["source"] == "poly":  # '=' keeps a leading minus sign from reading as a flag
        argv.append("--f-poly=" + ",".join(map(repr, req["f_coeffs"])))
    else:
        argv.append("--f-const=" + repr(req["f_coeffs"][0]))
    return call_cli(argv + ["--format", req["format"]], note)


def grid_check(req: dict, out) -> list:
    x, u = checks.parse_grid(out, req["format"])
    return checks.check_grid(req, x, u)


# ---------------------------------------------------------------------------
# dirichlet-points
# ---------------------------------------------------------------------------

POINT_KINDS = ("residual", "staircase", "maxp", "linf", "jump", "probes")


def _poly(coeffs):
    coeffs = [float(c) for c in coeffs]
    return lambda x: checks.polyval(coeffs, x)


def _affine_instance(rng, frac: float) -> dict:
    """Criterion 8 pattern: affine collars, cubic source."""
    a = float(rng.uniform(-2.0, 1.0))
    span = float(rng.uniform(0.8, 3.0))
    return {
        "a": a,
        "b": a + span,
        "r": frac * span,
        "alpha": _poly(rng.uniform(-1.0, 1.0, 2)),
        "beta": _poly(rng.uniform(-1.0, 1.0, 2)),
        "f": _poly(rng.uniform(-1.0, 1.0, 4)),
    }


def _point_request(rng, kind: str, frac: float) -> dict:
    if kind == "staircase":  # criterion 10 with seeded collar levels
        lo, hi = float(rng.uniform(-1.0, 0.0)), float(rng.uniform(0.0, 1.0))
        inst = {"a": 0.0, "b": 1.0, "r": 0.25, "alpha": _poly([lo]), "beta": _poly([hi]), "f": _poly([0.0])}
    elif kind == "maxp":  # criterion 11: alpha, beta <= 0 and f >= 0
        a = float(rng.uniform(-1.5, 0.5))
        span = float(rng.uniform(0.9, 2.5))
        s1, s2, c0, c2 = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8), rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
        inst = {
            "a": a,
            "b": a + span,
            "r": frac * span,
            "alpha": lambda x, s=float(s1): -s * (1.2 + np.sin(np.asarray(x, dtype=float))),
            "beta": lambda x, s=float(s2): -s * (1.2 + np.cos(np.asarray(x, dtype=float))),
            "f": _poly([c0, 0.0, c2]),
        }
    elif kind == "jump":  # criterion 12: sourceless, left collar dominant
        inst = _affine_instance(rng, frac)
        s1, s2 = rng.uniform(-1.5, 1.5, 2)
        if abs(s2) > abs(s1):
            s1, s2 = s2, s1
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        inst["alpha"] = _poly([c1 - s1 * inst["a"], s1])
        inst["beta"] = _poly([c2 - s2 * inst["b"], s2])
        inst["f"] = _poly([0.0])
    else:
        inst = _affine_instance(rng, frac)
    req = {"kind": kind, "inst": inst}
    if kind == "probes":  # criterion 11: comparison pair at scalar points
        da, db, df = (float(v) for v in rng.uniform(0.0, 0.5, 3))
        upper = dict(inst)
        upper["alpha"] = lambda x, g=inst["alpha"], d=da: g(x) + d
        upper["beta"] = lambda x, g=inst["beta"], d=db: g(x) + d
        upper["f"] = lambda x, g=inst["f"], d=df: g(x) - d
        req["upper"] = upper
        span = inst["b"] - inst["a"]
        req["xs"] = [float(x) for x in inst["a"] + span * rng.uniform(0.001, 0.999, 8)]
    return req


def points_requests(rng: np.random.Generator) -> list:
    # Every 25th request has r/span near 0.01, where one point's chain
    # has ~100 links; the rest follow the acceptance criteria's ranges.
    regular = stratified(rng, POINT_KINDS, 84)
    reqs = []
    for kind, u in stratified(rng, ["residual", "linf", "probes"], 7):
        reqs += [_point_request(rng, k, 0.12 + 0.33 * v) for k, v in itertools.islice(regular, 24)]
        reqs.append(_point_request(rng, kind, 0.01 + 0.0002 * u))
    return reqs


def _problem(inst: dict):
    return dirichlet.DrProblem(
        a=inst["a"], b=inst["b"], r=inst["r"], alpha=inst["alpha"], beta=inst["beta"], f=inst["f"]
    )


def points_call(req: dict, note: Callable):
    kind = req["kind"]
    p = _problem(req["inst"])
    if kind in ("residual", "staircase"):
        return dirichlet.residual_check(p, n_samples=1000)
    if kind == "maxp":
        return dirichlet.max_principle_check(p)
    if kind in ("linf", "jump"):
        return dirichlet.regularity_bounds(p)
    upper = _problem(req["upper"])
    return (
        [dirichlet.solve_dr_explicit(p, x) for x in req["xs"]],
        [dirichlet.solve_dr_explicit(upper, x) for x in req["xs"]],
    )


def points_check(req: dict, out) -> list:
    kind = req["kind"]
    if kind != "probes":
        problems = checks.check_report(out)
        if kind == "jump" and out.jump_ok is None:
            problems.append("sourceless instance reported no jump bound")
        return problems
    lower, upper = out
    return (
        checks.check_probes(req["inst"], req["xs"], lower)
        + checks.check_probes(req["upper"], req["xs"], upper)
        + checks.check_comparison(lower, upper)
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable[[np.random.Generator], list]
    call: Callable[[dict, Callable], object]
    check: Callable[[dict, object], list]
    observe: Optional[Callable[[dict, object, Callable], None]] = None  # counts kept outside the checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lattice-min", lattice_requests, lattice_call, lattice_check),
        Workload("continuum", continuum_requests, continuum_call, continuum_check, continuum_observe),
        Workload("dirichlet-grid", grid_requests, grid_call, grid_check),
        Workload("dirichlet-points", points_requests, points_call, points_check),
    )
}
