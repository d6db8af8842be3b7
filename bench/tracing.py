"""Span tracing of the confgames layers, installed from outside the library.

``install`` wraps the public functions of each ``confgames`` module in
every namespace they are looked up from (module globals, the package, the
CLI's command table, and the class attributes of ``StageTables`` and
``MatrixFn``).  A wrapper records one span: name, start, end, parent span
and a few attributes, kept in memory until ``Tracer.dump``.  The hottest
call, ``MatrixFn.__call__``, is only counted.

``layer_metrics`` turns a span list into the per-layer metrics.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import json
import time

import numpy as np

# original function attribute -> span name
SPANNED = {
    "riccati": {
        "solve_stage_two": "riccati.solve_stage_two",
        "solve_coupled_riccati": "riccati.coupled",
        "solve_zerosum_riccati": "riccati.zerosum",
        "solve_zeta": "riccati.zeta",
        "solve_eta": "riccati.eta",
        "rollout": "riccati.rollout",
    },
    "sensitivity": {"value_gradient": "sensitivity.value_gradient"},
    "odekit": {"integrate_backward": "odekit.backward",
               "integrate_forward": "odekit.forward"},
    "solver": {"ibr_solve": "solver.ibr_solve",
               "certify_first_order": "solver.certify"},
    "scenarios": {"build_pursuit_evasion": "scenarios.build",
                  "build_general_sum": "scenarios.build",
                  "random_aq_game": "scenarios.build"},
    "cli": {"write_csv": "cli.write", "write_json": "cli.write"},
}

# backward passes under value_gradient, told apart by the rhs's __qualname__
SENSITIVITY_PASSES = {
    "_solve_p_pass.": "sensitivity.p_pass_s",
    "_solve_zeta_pass.": "sensitivity.zeta_pass_s",
    "_solve_eta_pass.": "sensitivity.eta_pass_s",
    "_zerosum_sensitivity.": "sensitivity.zerosum_pass_s",
}


class Tracer:
    """In-memory span store.  A span is [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    def call(self, name, fn, args, kwargs, attrs, post=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            attrs["error"] = type(exc).__name__
            if post is not None:
                post(attrs, args, kwargs, None, exc)
            raise
        finally:
            self._stack.pop()
        span[2] = time.perf_counter()
        if post is not None:
            post(attrs, args, kwargs, result, None)
        return result

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _post_theta(attrs, args, kwargs, result, exc):
    attrs["theta"] = [float(x) for x in _arg(args, kwargs, 1, "theta")]


def _post_pass(attrs, args, kwargs, result, exc):
    grid = _arg(args, kwargs, 2, "grid")
    start = _arg(args, kwargs, 1, "terminal_value" if attrs["backward"] else "initial_value")
    attrs["rhs"] = _arg(args, kwargs, 0, "rhs").__qualname__
    attrs["elems"] = int(np.size(start))
    steps = grid.steps
    if exc is not None and hasattr(exc, "time"):
        # blow-up: only the steps up to the divergence time were taken
        done = (grid.horizon - exc.time if attrs["backward"] else exc.time) / grid.dt
        steps = min(steps, int(round(done)))
    attrs["steps"] = steps


def _post_ibr(attrs, args, kwargs, result, exc):
    trace = result if result is not None else getattr(exc, "trace", None)
    if trace is not None:
        attrs["inner_iters"] = len(trace.records)
        attrs["ascent_warnings"] = sum(1 for r in trace.records if r.warning)


POST = {"riccati.solve_stage_two": _post_theta, "odekit.backward": _post_pass,
        "odekit.forward": _post_pass, "solver.ibr_solve": _post_ibr}


def _wrap(tracer, name, fn, caller):
    post = POST.get(name)
    backward = name == "odekit.backward"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {"caller": caller}
        if post is _post_pass:
            attrs["backward"] = backward
        return tracer.call(name, fn, args, kwargs, attrs, post)

    return wrapper


def install(tracer: Tracer):
    """Wrap every traced function in every namespace it is looked up from."""
    import confgames
    from confgames import _stage, cli, model, odekit, riccati, scenarios, sensitivity, solver

    modules = {"confgames": confgames, "_stage": _stage, "cli": cli, "model": model,
               "odekit": odekit, "riccati": riccati, "scenarios": scenarios,
               "sensitivity": sensitivity, "solver": solver}
    for home, table in SPANNED.items():
        for attr, name in table.items():
            original = getattr(modules[home], attr)
            for caller, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, _wrap(tracer, name, original, caller))

    for command, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = _wrap(tracer, "cli.command", fn, "cli")

    tables = _stage.StageTables
    tables.__init__ = _wrap(tracer, "_stage.tables", tables.__init__, "_stage")
    tables.ensure_derivs = _wrap(tracer, "_stage.derivs", tables.ensure_derivs, "_stage")

    coef_call = model.MatrixFn.__call__
    counts = tracer.counts

    def counted_call(self, t, theta):
        counts["model.coef_calls"] += 1
        return coef_call(self, t, theta)

    model.MatrixFn.__call__ = counted_call


# -- metrics -----------------------------------------------------------------

PER_LAYER = (
    ("odekit.backward_passes", "count"), ("odekit.forward_passes", "count"),
    ("odekit.rk4_steps", "count"), ("odekit.elems_per_step", "elems"),
    ("odekit.backward_s", "s"), ("odekit.forward_s", "s"), ("odekit.us_per_step", "us"),
    ("stage.tables_built", "count"), ("stage.tables_s", "s"), ("stage.derivs_s", "s"),
    ("model.coef_calls", "count"),
    ("riccati.stage_two_calls", "count"), ("riccati.stage_two_s", "s"),
    ("riccati.coupled_s", "s"), ("riccati.zerosum_s", "s"), ("riccati.zeta_s", "s"),
    ("riccati.eta_s", "s"), ("riccati.rollout_s", "s"),
    ("sensitivity.gradient_calls", "count"), ("sensitivity.gradient_s", "s"),
    ("sensitivity.p_pass_s", "s"), ("sensitivity.zeta_pass_s", "s"),
    ("sensitivity.eta_pass_s", "s"), ("sensitivity.zerosum_pass_s", "s"),
    ("solver.evals", "count"), ("solver.distinct_theta", "count"),
    ("solver.useful_frac", "1"), ("solver.inner_iters", "count"),
    ("solver.ascent_warnings", "count"), ("solver.infeasible_rejections", "count"),
    ("scenarios.build_s", "s"), ("scenarios.probe_solves", "count"),
    ("cli.command_s", "s"), ("cli.write_s", "s"),
)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics (name -> value) from a dumped span list."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur[i] for i in named(name))

    def self_time(name):
        return sum(dur[i] - child[i] for i in named(name))

    def under(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    m = {}
    passes = named("odekit.backward") + named("odekit.forward")
    steps = sum(spans[i][4]["steps"] for i in passes)
    elem_steps = sum(spans[i][4]["steps"] * spans[i][4]["elems"] for i in passes)
    m["odekit.backward_passes"] = len(named("odekit.backward"))
    m["odekit.forward_passes"] = len(named("odekit.forward"))
    m["odekit.rk4_steps"] = steps
    m["odekit.elems_per_step"] = elem_steps / steps if steps else 0.0
    m["odekit.backward_s"] = total("odekit.backward")
    m["odekit.forward_s"] = total("odekit.forward")
    busy = m["odekit.backward_s"] + m["odekit.forward_s"]
    m["odekit.us_per_step"] = 1e6 * busy / steps if steps else 0.0

    m["stage.tables_built"] = len(named("_stage.tables"))
    m["stage.tables_s"] = total("_stage.tables")
    m["stage.derivs_s"] = total("_stage.derivs")
    m["model.coef_calls"] = counts.get("model.coef_calls", 0)

    m["riccati.stage_two_calls"] = len(named("riccati.solve_stage_two"))
    m["riccati.stage_two_s"] = self_time("riccati.solve_stage_two")
    for key, name in (("coupled_s", "riccati.coupled"), ("zerosum_s", "riccati.zerosum"),
                      ("zeta_s", "riccati.zeta"), ("eta_s", "riccati.eta"),
                      ("rollout_s", "riccati.rollout")):
        m[f"riccati.{key}"] = total(name)

    m["sensitivity.gradient_calls"] = len(named("sensitivity.value_gradient"))
    m["sensitivity.gradient_s"] = self_time("sensitivity.value_gradient")
    for metric in SENSITIVITY_PASSES.values():
        m[metric] = 0.0
    for i in named("odekit.backward"):
        for prefix, metric in SENSITIVITY_PASSES.items():
            if (spans[i][4]["rhs"].startswith(prefix)
                    and under(i, "sensitivity.value_gradient")):
                m[metric] += dur[i]

    evals = [spans[i][4] for i in named("riccati.solve_stage_two")
             if spans[i][4]["caller"] in ("solver", "cli")]
    distinct = {tuple(a["theta"]) for a in evals}
    m["solver.evals"] = len(evals)
    m["solver.distinct_theta"] = len(distinct)
    m["solver.useful_frac"] = len(distinct) / len(evals) if evals else 1.0
    ibr = [spans[i][4] for i in named("solver.ibr_solve")]
    m["solver.inner_iters"] = sum(a.get("inner_iters", 0) for a in ibr)
    m["solver.ascent_warnings"] = sum(a.get("ascent_warnings", 0) for a in ibr)
    m["solver.infeasible_rejections"] = sum(
        1 for a in evals if a["caller"] == "solver" and a.get("error") == "BlowUpDetected")

    m["scenarios.build_s"] = total("scenarios.build")
    m["scenarios.probe_solves"] = sum(
        1 for s in spans if s[4].get("caller") == "scenarios"
        and s[0] in ("riccati.solve_stage_two", "riccati.zerosum"))
    m["cli.command_s"] = total("cli.command")
    m["cli.write_s"] = total("cli.write")
    return m
