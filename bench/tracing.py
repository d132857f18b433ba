"""Spans and counters around the calls into each oschet module.

The tracer wraps public functions and classes where the package looks
them up: a module attribute such as ``heteroclinic.eval_w_array`` (the
heteroclinic module's own binding of the potential helper) or
``dirichlet.DrProblem`` (which ``cli`` calls through the module).  It
changes no file of the package and is removed again by ``uninstall``.

Two kinds of wrapper:

* span wrappers record (id, parent, request, name, start, end) for every
  call; they sit on entry points called at most a few thousand times a
  run;
* hot wrappers on the potential callables and their eval helpers keep
  only a time sum, so that millions of scalar W'(t) calls in the
  shooting recurrence stay affordable.

Both push a frame, so every call's duration is charged to the caller's
child time and a layer's self time is its own duration minus its
children's.  Counting wrappers on the potential callables (keeping the
potential's ``kind``) and on the Dirichlet data callables count points.
Span times are wall-clock ``perf_counter`` readings, the cheapest clock
to read a million times; spans stay in memory until the run writes them
out.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from oschet import asymptotics, cli, dirichlet, heteroclinic, potential, quadrature, sampled

# Per-layer metrics reported by a traced run, with their units.
METRICS = {
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "heteroclinic.self_s": "s",
    "heteroclinic.minimize_s": "s",
    "heteroclinic.iterations": "count",
    "heteroclinic.nonconverged": "count",
    "heteroclinic.shoot_s": "s",
    "heteroclinic.lift_s": "s",
    "potential.self_s": "s",
    "potential.array_calls": "count",
    "potential.scalar_calls": "count",
    "potential.points": "count",
    "quadrature.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.evals": "count",
    "sampled.self_s": "s",
    "sampled.window_s": "s",
    "sampled.energy_F_s": "s",
    "sampled.to_csv_s": "s",
    "sampled.samples": "count",
    "sampled.bytes_computed": "B",
    "dirichlet.self_s": "s",
    "dirichlet.grid_s": "s",
    "dirichlet.grid_points": "count",
    "dirichlet.data_points": "count",
    "dirichlet.check_s": "s",
    "dirichlet.explicit_s": "s",
    "dirichlet.explicit_calls": "count",
    "dirichlet.checks_failed": "count",
    "asymptotics.self_s": "s",
    "asymptotics.tables_built": "count",
    "asymptotics.table_build_s": "s",
    "asymptotics.study_s": "s",
    "asymptotics.eval_s": "s",
    "asymptotics.err_inversions": "count",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = tuple(name for name, unit in METRICS.items() if unit != "s")

# Span name -> busy metric; names not listed only add to their layer's self_s.
BUSY = {
    "heteroclinic.minimize": "heteroclinic.minimize_s",
    "heteroclinic.shoot": "heteroclinic.shoot_s",
    "heteroclinic.lift": "heteroclinic.lift_s",
    "sampled.window": "sampled.window_s",
    "sampled.energy_F": "sampled.energy_F_s",
    "sampled.to_csv": "sampled.to_csv_s",
    "dirichlet.grid": "dirichlet.grid_s",
    "dirichlet.check": "dirichlet.check_s",
    "dirichlet.explicit": "dirichlet.explicit_s",
    "asymptotics.table_build": "asymptotics.table_build_s",
    "asymptotics.study": "asymptotics.study_s",
    "asymptotics.eval": "asymptotics.eval_s",
}


class Tracer:
    """Collects spans, self times and counts while installed."""

    def __init__(self):
        self.spans = []
        self.self_time = defaultdict(float)  # span name -> seconds
        self.counts = defaultdict(int)
        self._stack = [[0, 0.0]]  # open frames: [nearest span id, child seconds]
        self._ids = iter(range(1, 1 << 62))
        self._request = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def note(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def _wrap(self, fn, name: str, record: bool = True, after=None):
        stack, self_time, spans = self._stack, self.self_time, self.spans
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0]
            frame = [next(self._ids) if record else parent, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                stack[-1][1] += end - start
                self_time[name] += end - start - frame[1]
                if record:
                    spans.append((frame[0], parent, self._request, name, start, end))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def request(self, index: int, kind: str, fn, *args):
        """Run fn(*args) as the root span of request ``index``."""
        self._request = index
        return self._wrap(fn, "bench.request." + kind)(*args)

    # -- counting wrappers -------------------------------------------------

    def _potential_callable(self, fn):
        counts = self.counts

        def counted(t):
            if isinstance(t, np.ndarray) and t.ndim:
                counts["potential.array_calls"] += 1
                counts["potential.points"] += t.size
            else:
                counts["potential.scalar_calls"] += 1
                counts["potential.points"] += 1
            return fn(t)

        return self._wrap(counted, "potential.eval", record=False)

    def _data_callable(self, fn):
        counts = self.counts

        def counted(x):
            counts["dirichlet.data_points"] += np.size(x)
            return fn(x)

        return counted

    def _constructor(self, make):
        """A potential constructor whose result counts its W and W' calls."""

        def build(*args, **kwargs):
            W = make(*args, **kwargs)
            dw = None if W.dw is None else self._potential_callable(W.dw)
            return potential.DoubleWell(W.kind, self._potential_callable(W.w), dw, W.c_w)

        return build

    def _integrand_counter(self, fn):
        counts = self.counts

        def simpson(f, *args, **kwargs):
            counts["quadrature.calls"] += 1

            def g(t):
                counts["quadrature.evals"] += 1
                return f(t)

            return fn(g, *args, **kwargs)

        return simpson

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrap, note = self._wrap, self.note
        self._patch(cli, "run", wrap(cli.run, "cli"))

        def solved(report, *args, **kwargs):
            note("heteroclinic.iterations", report.iterations)
            note("heteroclinic.nonconverged", int(not report.converged))

        for attr in ("solve_discrete_dirichlet", "solve_symmetric_node", "solve_symmetric_bond"):
            self._patch(heteroclinic, attr, wrap(getattr(heteroclinic, attr), "heteroclinic.minimize", after=solved))
        shoot = wrap(heteroclinic.shoot_heteroclinic, "heteroclinic.shoot")
        self._patch(heteroclinic, "shoot_heteroclinic", shoot)
        self._patch(asymptotics, "shoot_heteroclinic", shoot)
        self._patch(heteroclinic, "lift_profile", wrap(heteroclinic.lift_profile, "heteroclinic.lift"))
        for attr in ("discrete_energy", "el_residual"):
            traced = wrap(getattr(heteroclinic, attr), "heteroclinic.energy")
            self._patch(heteroclinic, attr, traced)
            if attr in asymptotics.__dict__:
                self._patch(asymptotics, attr, traced)

        for module in (heteroclinic, sampled, asymptotics):
            for attr in ("eval_w", "eval_dw", "eval_w_array", "eval_dw_array"):
                if attr in module.__dict__:
                    self._patch(module, attr, wrap(getattr(module, attr), "potential.eval", record=False))
        for attr in ("quartic", "pendulum"):
            make = self._constructor(getattr(potential, attr))
            self._patch(potential, attr, wrap(make, "potential.construct"))

        simpson = wrap(self._integrand_counter(quadrature.adaptive_simpson), "quadrature")
        self._patch(potential, "adaptive_simpson", simpson)
        self._patch(asymptotics, "adaptive_simpson", simpson)

        def window_bytes(out, u, a, b, r, W):
            n_r, n_int = round(r / u.h), round((b - a) / u.h)
            note("sampled.samples", u.n)
            # reads the block and W's samples, writes the min and max arrays
            note("sampled.bytes_computed", 8 * ((n_int + 2 * n_r) + n_int + 2 * n_int))

        def increment_bytes(out, u, a, b, r, W):
            n_int = round((b - a) / u.h)
            note("sampled.samples", u.n)
            # reads the forward and backward samples and W's, writes the difference
            note("sampled.bytes_computed", 8 * (2 * n_int + n_int + n_int))

        self._patch(sampled, "energy_E", wrap(sampled.energy_E, "sampled.window", after=window_bytes))
        self._patch(sampled, "energy_F", wrap(sampled.energy_F, "sampled.energy_F", after=increment_bytes))
        self._patch(
            sampled.SampledFunction,
            "to_csv",
            wrap(sampled.SampledFunction.to_csv, "sampled.to_csv", after=lambda out, u, target: note("sampled.samples", u.n)),
        )

        self._patch(
            dirichlet,
            "solve_dr_on_grid",
            wrap(dirichlet.solve_dr_on_grid, "dirichlet.grid", after=lambda sol, p, h: note("dirichlet.grid_points", sol.samples.n)),
        )

        def checked(report, *args, **kwargs):
            if hasattr(report, "passed"):
                failed = not report.passed
            else:
                failed = not report.linf_ok or report.jump_ok is False
            note("dirichlet.checks_failed", int(failed))

        for attr in ("residual_check", "max_principle_check", "regularity_bounds"):
            self._patch(dirichlet, attr, wrap(getattr(dirichlet, attr), "dirichlet.check", after=checked))
        self._patch(
            dirichlet,
            "solve_dr_explicit",
            wrap(dirichlet.solve_dr_explicit, "dirichlet.explicit", after=lambda *a: note("dirichlet.explicit_calls")),
        )
        self._patch(dirichlet, "DrProblem", self._counted_problem(dirichlet.DrProblem))

        self._patch(asymptotics, "ClassicalHeteroclinic", self._traced_profile(asymptotics.ClassicalHeteroclinic))
        self._patch(asymptotics, "classical_heteroclinic", wrap(asymptotics.classical_heteroclinic, "asymptotics.eval"))
        self._patch(asymptotics, "convergence_study", wrap(asymptotics.convergence_study, "asymptotics.study"))

    def _counted_problem(self, base):
        tracer = self

        class CountedDrProblem(base):
            def __post_init__(self):
                super().__post_init__()
                for name in ("alpha", "beta", "f"):
                    data = getattr(self, name)
                    if callable(data):
                        setattr(self, name, tracer._data_callable(data))

        return CountedDrProblem

    def _traced_profile(self, base):
        wrap, note = self._wrap, self.note

        class TracedProfile(base):
            __init__ = wrap(base.__init__, "asymptotics.table_build", after=lambda *a, **k: note("asymptotics.tables_built"))
            eval = wrap(base.eval, "asymptotics.eval")
            eval_array = wrap(base.eval_array, "asymptotics.eval")
            quadrature_eval = wrap(base.quadrature_eval, "asymptotics.eval")
            x_at = wrap(base.x_at, "asymptotics.eval")

        return TracedProfile

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, in METRICS order."""
        values = {name: 0 for name in METRICS}
        values.update(self.counts)
        for name, seconds in self.self_time.items():
            layer = name.split(".")[0]
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + seconds
            if name in BUSY:
                values[BUSY[name]] += seconds
        values["trace.spans"] = len(self.spans)
        values["trace.overhead_s"] = overhead_s
        return {name: values[name] for name in METRICS}
