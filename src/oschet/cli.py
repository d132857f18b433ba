"""Command line driver: 'oschet SUBCOMMAND [options]'.

Each subcommand is registered once below, with its description, output
format and options; USAGE lists them.

Exit codes: 0 success, 1 unknown subcommand, 2 precondition or domain
error (including bad flag values), 3 non-convergence.

A config file of key=value lines, named by --config FILE or
--config=FILE (or an abbreviation such as --conf), supplies values for
the long flags of the chosen subcommand.  A key is a whole flag name
other than config, with '_' read as '-' (max_iters sets --max-iters);
each line is read as --key=value by the same parser as the command
line, and explicit flags win.  Relative --out paths are resolved against
$OSCHET_OUT_DIR when that variable is set.  Output is deterministic:
the same invocation writes identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, dirichlet, heteroclinic, potential
from .errors import (
    ConvergenceError,
    DomainError,
    NoBracketError,
    PreconditionError,
    UnsupportedOperationError,
)

__all__ = ["run", "main"]

# Finds the config file exactly as a subcommand's parser reads --config.
_CONFIG = argparse.ArgumentParser(prog="oschet", add_help=False)
_CONFIG.add_argument("--config")

# Subcommand name -> (description, output format, long options, handler).
_COMMANDS = {}


def _command(name: str, description: str, output: str, *options):
    """Register a handler with the (flag, add_argument keywords) of its options."""

    def register(handler):
        _COMMANDS[name] = (description, output, options, handler)
        return handler

    return register


_POTENTIAL = ("--potential", dict(default="quartic", choices=potential.BUILTINS))

# --symmetry of solve-heteroclinic -> the solver's name, looked up when called
_SOLVERS = dict(none="solve_discrete_dirichlet", node="solve_symmetric_node",
                bond="solve_symmetric_bond")


@functools.cache
def _parser(cmd: str) -> argparse.ArgumentParser:
    description, _, options, _ = _COMMANDS[cmd]
    p = argparse.ArgumentParser(prog=f"oschet {cmd}", description=description)
    p.add_argument("--config", help="key=value defaults file")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    for flag, kwargs in options:
        p.add_argument(flag, **kwargs)
    return p


def _config_tokens(cmd: str, argv: list) -> list:
    """The --key=value tokens of the config file that argv names, in file order."""
    path = _CONFIG.parse_known_args(argv)[0].config
    if path is None:
        return []
    # whole flag names only: an abbreviation could name --config or --help
    known = {"--out", *(flag for flag, _ in _COMMANDS[cmd][2])}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise PreconditionError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        if flag not in known:
            raise PreconditionError(f"config key {key.strip()!r} is not an option here")
        tokens.append(f"{flag}={value.strip()}")
    return tokens


def _emit(text: str, out: str) -> None:
    """Write text to stdout for '-', else to the file out under $OSCHET_OUT_DIR."""
    if out == "-":
        sys.stdout.write(text)
        return
    path = Path(os.environ.get("OSCHET_OUT_DIR", ""), out)  # an absolute out ignores the directory
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_line(obj) -> str:
    return json.dumps(obj) + "\n"


def _float_list(text: str) -> list:
    try:
        return [float(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None


def _constant(c: float):
    return lambda x: c + 0.0 * np.asarray(x, dtype=float)


def _profile_report(K: int, r: float, kind: str, prof, value, res, converged) -> dict:
    return {
        "K": int(K),
        "r": float(r),
        "potential": kind,
        "value": float(value),
        "el_residual": float(res),
        "values": prof.values.tolist(),
        "symmetry": prof.symmetry,
        "converged": bool(converged),
    }


@_command(
    "solve-heteroclinic", "minimize a windowed discrete connection", "JSON report",
    ("--K", dict(type=int, required=True, help="number of free plateaus")),
    ("--r", dict(type=float, required=True, help="interaction range")),
    _POTENTIAL,
    ("--symmetry", dict(default="none", choices=_SOLVERS,
                        help="none: pinned ends; node/bond: odd symmetric problems")),
    ("--tol", dict(type=float, default=1e-10)),
    ("--max-iters", dict(type=int, default=100_000)),
)
def _cmd_solve_heteroclinic(args) -> tuple:
    W = getattr(potential, args.potential)()
    opts = heteroclinic.SolverOptions(tol=args.tol, max_iters=args.max_iters)
    report = getattr(heteroclinic, _SOLVERS[args.symmetry])(args.K, args.r, W, opts)
    obj = _profile_report(args.K, args.r, args.potential, report.minimizer,
                          report.value, report.el_residual, report.converged)
    return _json_line(obj), 0 if report.converged else 3


@_command(
    "shoot", "infinite-lattice connection from a transparent-end box", "JSON report",
    ("--r", dict(type=float, required=True)),
    _POTENTIAL,
    ("--symmetry", dict(default="node", choices=["node", "bond"])),
    ("--tol", dict(type=float, default=1e-7)),
    ("--horizon", dict(type=int, default=heteroclinic.MAX_K, help="largest window K")),
)
def _cmd_shoot(args) -> tuple:
    W = getattr(potential, args.potential)()
    prof = heteroclinic.shoot_heteroclinic(
        args.r, W, symmetry=args.symmetry + "_odd", tol=args.tol, horizon=args.horizon
    )
    value = heteroclinic.discrete_energy(prof, W, prof.n_min - 1, prof.n_max)
    res = heteroclinic.el_residual(prof, W)
    obj = _profile_report(prof.n_max, args.r, args.potential, prof, value, res, True)
    return _json_line(obj), 0


@_command(
    "solve-dirichlet", "explicit nonlocal Dirichlet solution", "CSV or JSON",
    ("--a", dict(type=float, required=True)),
    ("--b", dict(type=float, required=True)),
    ("--r", dict(type=float, required=True)),
    ("--h", dict(type=float, required=True, help="sample step")),
    ("--alpha-const", dict(type=float, default=0.0, help="left collar value")),
    ("--beta-const", dict(type=float, default=1.0, help="right collar value")),
    ("--f-const", dict(type=float, default=0.0, help="constant source")),
    ("--f-poly", dict(type=_float_list, help="comma separated c0,c1,... for "
                      "f(x) = c0 + c1 x + ...; overrides --f-const; write "
                      "--f-poly=-1,0.5 when c0 is negative")),
    ("--format", dict(default="csv", choices=["csv", "json"])),
)
def _cmd_solve_dirichlet(args) -> tuple:
    if args.f_poly is not None:
        f = lambda x: np.polynomial.polynomial.polyval(x, args.f_poly)
    else:
        f = _constant(args.f_const)
    problem = dirichlet.DrProblem(
        a=args.a, b=args.b, r=args.r,
        alpha=_constant(args.alpha_const), beta=_constant(args.beta_const), f=f,
    )
    sol = dirichlet.solve_dr_on_grid(problem, args.h)
    jumps = [float(j) for j in sol.jump_points]
    if args.format == "json":
        obj = {
            "a": args.a,
            "b": args.b,
            "r": args.r,
            "h": args.h,
            "x": sol.samples.xs().tolist(),
            "value": sol.samples.values.tolist(),
            "jumps": jumps,
        }
        return _json_line(obj), 0
    buf = io.StringIO()
    sol.samples.to_csv(buf)
    if args.out != "-":
        # the samples go to the file first; run then prints the jump list to stdout
        _emit(buf.getvalue(), args.out)
        args.out = "-"
        return _json_line(jumps), 0
    return buf.getvalue(), 0


@_command(
    "converge-study", "error table against the classical profile", "JSON",
    ("--r-list", dict(type=_float_list, required=True, help="comma separated, decreasing")),
    _POTENTIAL,
)
def _cmd_converge_study(args) -> tuple:
    W = getattr(potential, args.potential)()
    table = asymptotics.convergence_study(W, args.r_list)
    obj = {
        "potential": args.potential,
        "rows": [dataclasses.asdict(row) for row in table.rows],
    }
    return _json_line(obj), 0


@_command(
    "bounds", "explicit energy upper bounds", "JSON",
    ("--r", dict(type=float, required=True)),
    _POTENTIAL,
)
def _cmd_bounds(args) -> tuple:
    W = getattr(potential, args.potential)()
    rep = heteroclinic.energy_upper_bounds(args.r, W)
    obj = {
        "four_over_r": rep.four_over_r,
        "four_plus_cw": rep.four_plus_cw,
        "ramp": rep.ramp,
    }
    return _json_line(obj), 0


@_command(
    "validate-potential", "double-well hypothesis checks", "JSON",
    _POTENTIAL,
    ("--grid-step", dict(type=float, default=1e-3)),
)
def _cmd_validate_potential(args) -> tuple:
    W = getattr(potential, args.potential)()
    report = potential.validate_double_well(W, grid_step=args.grid_step)
    obj = {
        "potential": args.potential,
        "all_passed": report.all_passed,
        "checks": [dataclasses.asdict(c) for c in report.checks],
    }
    return _json_line(obj), 0


USAGE = (
    "usage: oschet SUBCOMMAND [options]\n\nsubcommands:\n"
    + "".join(f"  {name:<21}{desc} ({out})\n" for name, (desc, out, _, _) in _COMMANDS.items())
    + "\nrun 'oschet SUBCOMMAND --help' for the options of one subcommand.\n"
)


def run(argv) -> int:
    """Entry point used by tests and by main(); returns the exit code."""
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 1
    cmd, argv = argv[0], argv[1:]
    if cmd not in _COMMANDS:
        sys.stderr.write(f"error: unknown subcommand {cmd!r}\n")
        sys.stderr.write(USAGE)
        return 1
    try:
        # config tokens go first, so that explicit flags win
        args = _parser(cmd).parse_args(_config_tokens(cmd, argv) + argv)
        text, code = _COMMANDS[cmd][3](args)
        _emit(text, args.out)
        return code
    except SystemExit as exc:
        # argparse already printed its message; --help exits with 0
        return 0 if exc.code in (0, None) else 2
    except (PreconditionError, DomainError, UnsupportedOperationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NoBracketError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
