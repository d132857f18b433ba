"""Self-tests of the benchmark: corrupted outputs must fail, every workload must run.

Run from the root of a checkout (the tier-1 suite collects tests/ only):

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout_source()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def noop(*args):
    pass


# ---------------------------------------------------------------------------
# lattice-min
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("symmetry, K", [("none", 5), ("node", 6), ("bond", 6)])
def test_minimizer_checker_flags_corruption(symmetry, K):
    req = {"kind": "solve", "potential": "pendulum", "r": 0.5, "symmetry": symmetry, "K": K}
    obj = json.loads(workloads.lattice_call(req, noop))
    assert checks.check_minimizer(req, obj) == []

    moved = dict(obj, values=list(obj["values"]))
    moved["values"][len(obj["values"]) // 2 + 1] += 1e-3
    assert checks.check_minimizer(req, moved)

    assert checks.check_minimizer(req, dict(obj, value=obj["value"] + 1e-6))


# ---------------------------------------------------------------------------
# continuum
# ---------------------------------------------------------------------------


def _shot(symmetry="node", r=0.1):
    req = {
        "kind": "shoot",
        "potential": "quartic",
        "symmetry": symmetry,
        "r": r,
        "tol": workloads.SHOOT_TOL,
        "horizon": int(16.0 / r) + 100,
        "samples": 20000,
    }
    return req, workloads.continuum_call(req, noop)


@pytest.mark.parametrize("symmetry", ["node", "bond"])
def test_shot_checker_flags_corruption(symmetry):
    req, (obj, F, E) = _shot(symmetry)
    assert checks.check_shot(req, obj, F, E) == []
    assert checks.check_shot(req, obj, F + 1e-6, E)
    assert checks.check_shot(req, obj, F, E - 1e-6)

    skew = dict(obj, values=list(obj["values"]))
    skew["values"][1] += 1e-12
    assert checks.check_shot(req, skew, F, E)

    short = dict(obj, values=obj["values"][3:-3], K=obj["K"] - 3)
    assert checks.check_shot(req, short, F, E)


def test_study_checker_flags_corruption():
    req = {"kind": "study", "potential": "pendulum", "r_list": [0.4 / 2**k for k in range(4)], "probes": [-2.0, 0.5, 3.0]}
    obj, probes = workloads.continuum_call(req, noop)
    assert checks.check_study(req, obj, probes) == []

    rows = [dict(row) for row in obj["rows"]]
    rows[1]["err_aligned"], rows[2]["err_aligned"] = rows[2]["err_aligned"], rows[1]["err_aligned"]
    assert checks.check_study(req, dict(obj, rows=rows), probes)

    off = [(x, u + 1e-6) if i == 1 else (x, u) for i, (x, u) in enumerate(probes)]
    assert checks.check_study(req, obj, off)


def test_study_inversions_count_only_small_radii():
    rows = [{"r": r, "err_aligned": e} for r, e in ((0.2, 1e-3), (0.1, 2e-4), (0.04, 3e-4), (0.02, 1e-4), (0.01, 2e-4))]
    assert checks.study_inversions({"rows": rows}) == 2


# ---------------------------------------------------------------------------
# dirichlet-grid
# ---------------------------------------------------------------------------


def _grid_request(source, fmt, k):
    alpha, beta = (-0.5, 0.75) if source == "staircase" else (0.3, -0.2)
    coeffs = {"const": [0.7], "poly": [0.5, -1.0, 0.25], "staircase": [0.0]}[source]
    return workloads._grid_request(source, fmt, k, alpha, beta, coeffs)


@pytest.mark.parametrize("source, fmt", [("poly", "csv"), ("const", "json")])
def test_grid_checker_flags_a_shifted_sample(source, fmt):
    req = _grid_request(source, fmt, 500)
    x, u = checks.parse_grid(workloads.grid_call(req, noop), fmt)
    assert checks.check_grid(req, x, u) == []
    i = int(np.searchsorted(x, 0.4321))
    shifted = u.copy()
    shifted[i] += 1e-6
    assert checks.check_grid(req, x, shifted)


def test_staircase_checker_flags_a_moved_jump():
    req = _grid_request("staircase", "csv", 2500)
    x, u = checks.parse_grid(workloads.grid_call(req, noop), "csv")
    assert checks.check_grid(req, x, u) == []
    moved = u.copy()
    j = int(np.searchsorted(x, 0.5))
    moved[j : j + 20] = moved[j - 1]  # the jump at 1/2 now sits 20 h to the right
    assert checks.check_grid(req, x, moved)


# ---------------------------------------------------------------------------
# dirichlet-points
# ---------------------------------------------------------------------------


def _points(kind):
    for req in workloads.points_requests(np.random.default_rng(3)):
        if req["kind"] == kind:
            return req


@pytest.mark.parametrize("kind", ["residual", "staircase", "maxp", "linf", "jump"])
def test_report_checker_flags_failed_reports(kind):
    req = _points(kind)
    report = workloads.points_call(req, noop)
    assert workloads.points_check(req, report) == []
    if hasattr(report, "passed"):
        bad = dataclasses.replace(report, passed=False)
    else:
        bad = dataclasses.replace(report, linf_ok=False)
    assert workloads.points_check(req, bad)


def test_probe_checker_flags_corruption():
    req = _points("probes")
    lower, upper = workloads.points_call(req, noop)
    assert workloads.points_check(req, (lower, upper)) == []
    assert workloads.points_check(req, ([lower[0] + 1e-6] + lower[1:], upper))
    assert workloads.points_check(req, (upper, lower))  # comparison reversed


# ---------------------------------------------------------------------------
# smoke runs and the metric contract
# ---------------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_smoke_run(name):
    result = run.timed_run(workloads.WORKLOADS[name], seed=5, seconds=0.3, probes=1, n_requests=4)
    assert result["attempted"] >= 1 and result["failed"] == 0, result["problems"]
    assert list(result["metrics"]) == list(run.UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_run_repeats_exact_counts(name):
    first = run.traced_run(workloads.WORKLOADS[name], seed=5, n_requests=3)
    second = run.traced_run(workloads.WORKLOADS[name], seed=5, n_requests=3)
    assert first["failed"] == second["failed"] == 0, first["problems"] + second["problems"]
    assert list(first["metrics"]) == list(tracing.METRICS)
    for count in tracing.EXACT_COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count


def test_missing_source_tree_is_an_error(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.BENCH / "no-such-directory" / "src")
    with pytest.raises(SystemExit) as exc:
        run.use_checkout_source()
    assert exc.value.code != 0
