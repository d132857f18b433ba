"""Command line interface: JSON reports, exit codes, config files."""

import argparse
import json

import numpy as np
import pytest

from helpers import forbid_large_arange, time_limit
from oschet.cli import run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_help_exits_zero(capsys):
    assert run(["-h"]) == 0
    assert run(["solve-heteroclinic", "--help"]) == 0


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    assert "unknown subcommand" in capsys.readouterr().err


def test_missing_required_flag_exits_two(capsys):
    assert run(["solve-heteroclinic", "--K", "4"]) == 2


def test_bounds_report(capsys):
    code, doc = run_json(capsys, ["bounds", "--r", "0.5"])
    assert code == 0
    assert set(doc) == {"four_over_r", "four_plus_cw", "ramp"}
    assert doc["four_over_r"] == 8.0
    assert abs(doc["ramp"] - 3.6) < 1e-12


def test_bounds_ramp_is_null_for_large_r(capsys):
    code, doc = run_json(capsys, ["bounds", "--r", "2.0"])
    assert code == 0
    assert doc["ramp"] is None


def test_bounds_rejects_bad_r(capsys):
    assert run(["bounds", "--r", "-1"]) == 2
    # 4/r overflows: the report would carry the non-standard JSON token Infinity
    assert run(["bounds", "--r", "1e-320"]) == 2
    assert capsys.readouterr().out == ""


def test_solve_report_shape(capsys):
    code, doc = run_json(
        capsys,
        ["solve-heteroclinic", "--K", "4", "--r", "0.5", "--potential", "quartic"],
    )
    assert code == 0
    assert doc["converged"] is True
    assert doc["K"] == 4
    assert doc["symmetry"] == "none"
    assert len(doc["values"]) == 6
    assert doc["values"][0] == -1.0 and doc["values"][-1] == 1.0
    assert doc["el_residual"] < 1e-8


def test_solve_symmetric_flavours(capsys):
    code, node = run_json(
        capsys, ["solve-heteroclinic", "--K", "6", "--r", "0.5", "--symmetry", "node"]
    )
    assert code == 0 and node["symmetry"] == "node_odd"
    code, bond = run_json(
        capsys, ["solve-heteroclinic", "--K", "6", "--r", "0.5", "--symmetry", "bond"]
    )
    assert code == 0 and bond["symmetry"] == "bond_odd"
    assert abs(node["value"] - bond["value"]) > 1e-5  # different connections


def test_unconverged_solve_exits_three_but_reports(capsys):
    code, doc = run_json(
        capsys,
        [
            "solve-heteroclinic",
            "--K", "8", "--r", "0.5",
            "--max-iters", "1",
        ],
    )
    assert code == 3
    assert doc["converged"] is False


@pytest.mark.parametrize("flags", [["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"], ["--tol", "-0.5"]])
def test_solve_rejects_bad_solver_options(capsys, flags):
    assert run(["solve-heteroclinic", "--K", "4", "--r", "0.5"] + flags) == 2
    assert "must be" in capsys.readouterr().err


def test_solve_refuses_a_range_whose_square_overflows(capsys):
    with time_limit(10):
        assert run(["solve-heteroclinic", "--K", "3", "--r", "1e160"]) == 2
    assert "finite square" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-heteroclinic", "--K", "3", "--r", "1e-170"],
        ["solve-heteroclinic", "--K", "3", "--r", "1e-160"],
        ["shoot", "--r", "1e-320"],
        ["shoot", "--r", "1e-300"],
    ],
)
def test_a_range_whose_square_underflows_is_refused(capsys, argv):
    # r^2 is 0 or subnormal: 1 / r^2 divides by zero or overflows
    with time_limit(10):
        assert run(argv) == 2
    assert "finite square" in capsys.readouterr().err


def test_large_pendulum_window_converges(capsys):
    argv = ["solve-heteroclinic", "--K", "488", "--r", "0.02", "--symmetry", "node",
            "--potential", "pendulum"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["converged"] is True
    assert doc["el_residual"] <= 1e-10


def test_shoot_needs_no_horizon_for_a_fine_range(capsys):
    # the quartic connection at r = 0.01 spans about 12.9 / r plateaus a side
    code, doc = run_json(capsys, ["shoot", "--r", "0.01"])
    assert code == 0
    assert doc["K"] > 1000


def test_shoot_report(capsys):
    code, doc = run_json(capsys, ["shoot", "--r", "0.5", "--symmetry", "node"])
    assert code == 0
    assert doc["converged"] is True
    assert doc["el_residual"] < 1e-12
    vals = np.array(doc["values"])
    assert np.all(np.diff(vals) >= 0)


def test_dirichlet_json_report(capsys):
    code, doc = run_json(
        capsys,
        [
            "solve-dirichlet",
            "--a", "0", "--b", "1", "--r", "0.25", "--h", "0.001",
            "--format", "json",
        ],
    )
    assert code == 0
    assert len(doc["jumps"]) == 3
    assert len(doc["x"]) == len(doc["value"])
    staircase = dict(zip(doc["x"], doc["value"]))
    x_near = min(staircase, key=lambda x: abs(x - 0.3))
    assert abs(staircase[x_near] - 0.4) < 1e-12


def test_dirichlet_csv_output(capsys):
    code = run(
        [
            "solve-dirichlet",
            "--a", "0", "--b", "1", "--r", "0.25", "--h", "0.01",
            "--format", "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("x,value")


def test_dirichlet_csv_to_file_prints_jumps(tmp_path, capsys):
    target = tmp_path / "sol.csv"
    code = run(
        [
            "solve-dirichlet",
            "--a", "0", "--b", "1", "--r", "0.25", "--h", "0.001",
            "--format", "csv", "--out", str(target),
        ]
    )
    assert code == 0
    assert target.read_text().startswith("x,value")
    jumps = json.loads(capsys.readouterr().out)
    assert len(jumps) == 3


def test_dirichlet_polynomial_source(capsys):
    code, doc = run_json(
        capsys,
        [
            "solve-dirichlet",
            "--a", "0", "--b", "1.2", "--r", "0.3", "--h", "0.005",
            "--f-poly", "0.5,-1.0", "--format", "json",
        ],
    )
    assert code == 0
    assert len(doc["value"]) == len(doc["x"])


def test_dirichlet_rejects_overlong_chains(capsys):
    code = run(["solve-dirichlet", "--a", "0", "--b", "1", "--r", "1e-7", "--h", "0.5"])
    assert code == 2
    assert "chain" in capsys.readouterr().err


def test_dirichlet_rejects_overfine_grids(capsys, monkeypatch):
    forbid_large_arange(monkeypatch)
    code = run(["solve-dirichlet", "--a", "0", "--b", "1", "--r", "0.25", "--h", "1e-9"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_huge_window_is_refused_before_allocating(monkeypatch, capsys):
    forbid_large_arange(monkeypatch)
    for symmetry in ("none", "node", "bond"):
        code = run(["solve-heteroclinic", "--K", str(10**9), "--r", "0.5", "--symmetry", symmetry])
        assert code == 2
        assert "K must be" in capsys.readouterr().err


def test_converge_study_rows(capsys):
    code, doc = run_json(
        capsys, ["converge-study", "--r-list", "0.4,0.2", "--potential", "quartic"]
    )
    assert code == 0
    rows = doc["rows"]
    assert [row["r"] for row in rows] == [0.4, 0.2]
    assert rows[1]["err_aligned"] < rows[0]["err_aligned"]


def test_validate_potential_report(capsys):
    code, doc = run_json(capsys, ["validate-potential", "--potential", "pendulum"])
    assert code == 0
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 6
    assert all(set(c) == {"name", "passed", "detail"} for c in doc["checks"])


@pytest.mark.parametrize("step", ["1e-300", "5e-324", "inf", "nan"])
def test_validate_potential_rejects_bad_grid_steps(capsys, monkeypatch, step):
    forbid_large_arange(monkeypatch)
    assert run(["validate-potential", "--grid-step", step]) == 2
    assert "grid_step" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.5\nK = 6\n# comment line\npotential = quartic\n")
    code, doc = run_json(capsys, ["solve-heteroclinic", "--config", str(cfg)])
    assert code == 0
    assert doc["K"] == 6 and doc["r"] == 0.5


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.5\nK = 6\n")
    code, doc = run_json(
        capsys, ["solve-heteroclinic", "--config", str(cfg), "--K", "3"]
    )
    assert code == 0
    assert doc["K"] == 3


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ["solve-heteroclinic", "--K", "2", "--r", "1"]
    # the solver takes no random starts, so multistart and seed are unknown too
    for key in ("frobnication_level", "multistart", "seed"):
        cfg.write_text(f"{key} = 9\n")
        assert run(argv + ["--config", str(cfg)]) == 2
        assert run(argv + [f"--{key}", "9"]) == 2
    # the study's window follows from r and W, so it takes no horizon
    cfg.write_text("horizon = 100\n")
    assert run(["converge-study", "--r-list", "0.4,0.2", "--config", str(cfg)]) == 2


def test_config_rejects_bad_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = banana\n")
    assert run(["solve-heteroclinic", "--config", str(cfg), "--K", "2"]) == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "sub" / "bounds.json"
    code = run(["bounds", "--r", "0.5", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["four_over_r"] == 8.0


def test_out_dir_environment_prefixes_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OSCHET_OUT_DIR", str(tmp_path))
    code = run(["bounds", "--r", "0.5", "--out", "b.json"])
    assert code == 0
    assert (tmp_path / "b.json").exists()


def test_out_dir_environment_ignores_absolute_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OSCHET_OUT_DIR", str(tmp_path / "ignored"))
    target = tmp_path / "direct.json"
    code = run(["bounds", "--r", "0.5", "--out", str(target)])
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("form", [["--config={}"], ["--conf", "{}"], ["--config", "{}"]])
def test_config_is_read_in_every_argparse_spelling(tmp_path, capsys, form):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.5\nK = 3\npotential = pendulum\n")
    argv = ["solve-heteroclinic"] + [a.format(cfg) for a in form]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert (doc["K"], doc["r"], doc["potential"]) == (3, 0.5, "pendulum")


def test_config_key_underscores_read_as_dashes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iters = 1\n")
    code, doc = run_json(capsys, ["solve-heteroclinic", "--config", str(cfg), "--K", "8", "--r", "0.5"])
    assert code == 3
    assert doc["converged"] is False


def test_config_value_starting_with_a_dash_is_a_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 0\nb = 1\nr = 0.25\nh = 0.01\nformat = json\nf-poly = -1,0.5\n")
    code, from_config = run_json(capsys, ["solve-dirichlet", "--config", str(cfg)])
    assert code == 0
    argv = ["solve-dirichlet", "--a", "0", "--b", "1", "--r", "0.25", "--h", "0.01"]
    code, from_flags = run_json(capsys, argv + ["--format", "json", "--f-poly=-1,0.5"])
    assert code == 0
    assert from_config == from_flags


@pytest.mark.parametrize("key", ["config", "help", "conf", "max"])
def test_config_keys_are_whole_flag_names_but_not_config_or_help(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = x\n")
    assert run(["solve-heteroclinic", "--config", str(cfg), "--K", "2", "--r", "1"]) == 2
    assert "not an option" in capsys.readouterr().err


def test_config_values_do_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.5\nK = 3\npotential = pendulum\n")
    code, doc = run_json(capsys, ["solve-heteroclinic", "--config", str(cfg)])
    assert code == 0 and doc["potential"] == "pendulum"
    code, doc = run_json(capsys, ["solve-heteroclinic", "--K", "3", "--r", "0.5"])
    assert code == 0 and doc["potential"] == "quartic"
    # the config's K and r no longer satisfy the required flags
    assert run(["solve-heteroclinic"]) == 2


@pytest.mark.parametrize(
    "cmd",
    ["solve-heteroclinic", "shoot", "solve-dirichlet", "converge-study", "bounds", "validate-potential"],
)
def test_every_subcommand_help_exits_zero(capsys, cmd):
    assert run([cmd, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: oschet {cmd}")


def test_a_repeated_call_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["bounds", "--r", "0.5", "--potential", "pendulum"]
    assert run(argv) == 0
    built.clear()
    assert run(argv) == 0
    assert built == []
