"""Command-line front end.

Subcommands: solve (first-stage search), sweep (landscape lattice),
grad-check (path-derivative gradients vs central differences), baseline
(naive-pursuer comparison).  Configuration is a flat key=value file with
dotted section names, overridable with repeated --set flags; every
resolved value (defaults included) is echoed into the output metadata so
any run is reproducible from its own artifacts.

Exit codes: 0 ok, 1 usage/config error, 2 non-convergence, 3 infeasible
parameters, 4 gradient-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (BestResponseStalled, BlowUpDetected, ConfGamesError,
                     ConfigError, InfeasibleTheta)
from .model import ConfigGame
from .riccati import DEFAULT_STEPS, default_grid
from .scenarios import (GeneralSumSpec, PursuitEvasionSpec, build_general_sum,
                        build_pursuit_evasion, random_aq_game,
                        recommended_settings)
from .solver import SolverSettings, _evaluate_batch, ibr_solve, naive_baseline

PER_SCENARIO = object()


def _spec_keys(prefix, spec, skip=()):
    """A key per dataclass field, tagged by the type of its default."""
    tags = {tuple: "floats", int: "int", float: "float"}
    return {f"{prefix}.{f.name}": (tags[type(f.default)], f.default)
            for f in dataclasses.fields(spec) if f.name not in skip}


# key -> (type tag, default); type tags: int, float, str, bool, floats
KNOWN_KEYS = {
    "scenario": ("str", "pursuit_evasion"),
    "grid_steps": ("int", DEFAULT_STEPS),
    "theta0": ("floats", PER_SCENARIO),
    **_spec_keys("solver", SolverSettings, skip=("grid_steps",)),
    "solver.alpha": ("float", PER_SCENARIO),
    "sweep.grid": ("int", 21),
    "sweep.workers": ("int", 0),
    "gradcheck.samples": ("int", 10),
    "gradcheck.seed": ("int", 0),
    "gradcheck.step": ("float", 1e-5),
    "gradcheck.tolerance": ("float", 1e-4),
    "gradcheck.corrupt": ("float", 0.0),
    **_spec_keys("pe", PursuitEvasionSpec),
    **_spec_keys("gs", GeneralSumSpec),
    "random.seed": ("int", 0),
    "random.players": ("int", 2),
    "random.state_dim": ("int", 3),
    "random.control_dim": ("int", 1),
    "random.affine": ("bool", True),
}

SCENARIOS = ("pursuit_evasion", "general_sum", "random")

DEFAULT_THETA0 = {
    "pursuit_evasion": (0.2, 1.2),
    "general_sum": (0.6, 1.2),
}


def _coerce(key, kind, raw):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = str(raw).strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "floats":
            return tuple(float(p) for p in str(raw).replace(",", " ").split())
        return str(raw).strip()
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r} as {kind}") from None


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def metadata(self) -> dict:
        out = {"tool_version": __version__}
        for k, v in self.values.items():
            if isinstance(v, tuple):
                out[k] = " ".join(_fmt(x) for x in v)
            else:
                out[k] = _fmt(v)
        return out

    def build_game(self) -> ConfigGame:
        scenario = self["scenario"]
        if scenario == "pursuit_evasion":
            return build_pursuit_evasion(self._spec("pe", PursuitEvasionSpec))
        if scenario == "general_sum":
            return build_general_sum(self._spec("gs", GeneralSumSpec))
        return random_aq_game(self["random.seed"], self["random.players"],
                              self["random.state_dim"], self["random.control_dim"],
                              affine=self["random.affine"])

    def _spec(self, prefix, spec, **extra):
        return spec(**{key[len(prefix) + 1:]: value for key, value in self.values.items()
                       if key.startswith(prefix + ".")}, **extra)

    def solver_settings(self) -> SolverSettings:
        return self._spec("solver", SolverSettings, grid_steps=self["grid_steps"])


def load_config(path=None, overrides=()) -> RunConfig:
    """Parse the config file and --set overrides against the key registry.

    Unknown keys are rejected by name.  Scenario-dependent defaults
    (theta0, solver.alpha) are resolved after all inputs are applied.
    """
    raw = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for lineno, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in stripped.split("=", 1))
            raw[key] = val
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        raw[key] = val

    values = {}
    for key, val in raw.items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        values[key] = _coerce(key, KNOWN_KEYS[key][0], val)
    for key, (kind, default) in KNOWN_KEYS.items():
        values.setdefault(key, default)

    scenario = values["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    players = values["random.players"] if scenario == "random" else 2
    if values["theta0"] is PER_SCENARIO:
        values["theta0"] = DEFAULT_THETA0.get(scenario, (1.0,) * players)
    if values["solver.alpha"] is PER_SCENARIO:
        values["solver.alpha"] = recommended_settings(scenario).alpha
    if len(values["theta0"]) != players:
        raise ConfigError("theta0 length does not match the number of players")
    return RunConfig(values)


# -- output helpers -----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, metadata: dict, header, rows):
    lines = [f"# {k} = {metadata[k]}" for k in sorted(metadata)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record_row(r, *prefix):
    """A CSV row for one search iterate, players numbered from 1."""
    return (*prefix, r.sweep, r.player + 1, r.inner_iter, *r.theta, *r.values, r.grad_own)


# -- subcommands --------------------------------------------------------------


def cmd_solve(cfg: RunConfig, outdir) -> int:
    game = cfg.build_game()
    theta0 = cfg["theta0"]
    settings = cfg.solver_settings()
    meta = cfg.metadata()
    meta["command"] = "solve"
    N = game.num_players

    header = (["sweep", "player", "inner_iter"]
              + [f"theta_{i+1}" for i in range(N)]
              + [f"J_{i+1}" for i in range(N)] + ["grad_own"])
    exit_code = 0
    try:
        trace = ibr_solve(game, theta0, settings)
    except BestResponseStalled as exc:
        trace = exc.trace
        exit_code = 3
    rows = [(0, 0, 0, *theta0, *trace.values0, float("nan"))]
    rows.extend(_record_row(r) for r in trace.records)
    write_csv(os.path.join(outdir, "trace.csv"), meta, header, rows)

    result = {"config": meta, "theta0": list(map(float, theta0))}
    if exit_code == 0:
        result.update({
            "converged": bool(trace.converged),
            "sweeps": trace.sweeps,
            "theta": list(map(float, trace.theta)),
            "values": [float(v) for v in trace.values],
            "own_gradients": [float(g) for g in trace.gradients],
            "certification": [v.value for v in trace.certification],
            "inner_iterations": len(trace.records),
            "ascent_warnings": len(trace.warnings),
        })
        if not trace.converged:
            exit_code = 2
    else:
        result["converged"] = False
        result["stalled"] = True
    result["exit_code"] = exit_code
    write_json(os.path.join(outdir, "result.json"), result)
    return exit_code


def cmd_sweep(cfg: RunConfig, outdir) -> int:
    game = cfg.build_game()
    if game.num_players != 2:
        raise ConfigError("sweep requires a two-player scenario")
    per_axis = cfg["sweep.grid"]
    if per_axis < 1:
        raise ConfigError("sweep.grid must be at least 1")
    if cfg["sweep.workers"] < 0:
        raise ConfigError("sweep.workers must be nonnegative")
    meta = cfg.metadata()
    meta["command"] = "sweep"
    grid = default_grid(game, cfg["grid_steps"])

    axes = []
    for lo, hi in game.theta_box:
        axes.append(np.linspace(lo, hi, per_axis) if per_axis > 1
                    else np.array([0.5 * (lo + hi)]))
    points = np.array([(t1, t2) for t1 in axes[0] for t2 in axes[1]])

    rows = []
    for theta, result in zip(points, _evaluate_batch(game, points, grid)):
        if isinstance(result, InfeasibleTheta):
            nan = float("nan")
            rows.append((theta[0], theta[1], nan, nan, nan, nan, 0))
        else:
            costs, G = result
            rows.append((theta[0], theta[1], costs[0], costs[1], G[0, 0], G[1, 1], 1))

    header = ["theta1", "theta2", "J1", "J2", "dJ1_dtheta1", "dJ2_dtheta2", "feasible"]
    write_csv(os.path.join(outdir, "landscape.csv"), meta, header, rows)
    return 0


def gradcheck_rel_err(ode_value: float, fd_value: float,
                      floor: float = 1e-10) -> float:
    """Relative disagreement with a dead-zone for vanishing gradients.

    Components whose difference quotient is below the floor are compared
    absolutely (0/0 counts as exact agreement); anything else is relative
    to the difference quotient.  A NaN on either side is an infinite error.
    """
    diff = abs(ode_value - fd_value)
    if abs(fd_value) > floor and not np.isnan(diff):
        return diff / abs(fd_value)
    return 0.0 if diff <= floor else float("inf")


def cmd_grad_check(cfg: RunConfig, outdir) -> int:
    if cfg["gradcheck.samples"] < 1:
        raise ConfigError("gradcheck.samples must be at least 1")
    if not cfg["gradcheck.tolerance"] >= 0:
        raise ConfigError("gradcheck.tolerance must be nonnegative")
    game = cfg.build_game()
    N = game.num_players
    lo = np.array([b[0] for b in game.theta_box])
    hi = np.array([b[1] for b in game.theta_box])
    span = hi - lo
    # the samples sit a tenth of each interval inside the box, so their
    # probes theta_s +- h e_k stay in it
    h = cfg["gradcheck.step"]
    if not 0 < h <= 0.1 * span.min():
        raise ConfigError(f"gradcheck.step must be positive and at most {0.1 * span.min():.6g}, "
                          "a tenth of the narrowest parameter interval")
    meta = cfg.metadata()
    meta["command"] = "grad-check"
    grid = default_grid(game, cfg["grid_steps"])
    rng = np.random.default_rng(cfg["gradcheck.seed"])
    tol = cfg["gradcheck.tolerance"]
    corrupt = cfg["gradcheck.corrupt"]
    inner_lo = lo + 0.1 * span
    inner_hi = hi - 0.1 * span

    # sample s is point s (2N + 1), followed by its probes theta_s +- h e_k;
    # the gradients are taken at the samples only
    width = 2 * N + 1
    thetas = [inner_lo + rng.random(N) * (inner_hi - inner_lo)
              for _ in range(cfg["gradcheck.samples"])]
    points = []
    for theta in thetas:
        points.append(theta)
        for e in h * np.eye(N):
            points += [theta + e, theta - e]
    results = _evaluate_batch(game, points, grid, gradients=np.arange(len(points)) % width == 0)
    for result in results:
        if isinstance(result, InfeasibleTheta):
            raise result

    rows = []
    worst = 0.0
    for s, theta in enumerate(thetas):
        Gs = results[s * width][1] + corrupt
        Js = [costs for costs, _ in results[s * width + 1:(s + 1) * width]]
        for k in range(N):
            fd = (Js[2 * k] - Js[2 * k + 1]) / (2 * h)
            for i in range(N):
                rel = gradcheck_rel_err(Gs[i, k], fd[i])
                worst = max(worst, rel)
                rows.append((*theta, f"J{i+1}_theta{k+1}", Gs[i, k], fd[i], rel))

    header = [f"theta_{i+1}" for i in range(N)] + ["component", "ode_grad", "fd_grad", "rel_err"]
    meta["max_rel_err"] = _fmt(worst)
    write_csv(os.path.join(outdir, "gradcheck.csv"), meta, header, rows)
    return 0 if worst <= tol else 4


def cmd_baseline(cfg: RunConfig, outdir) -> int:
    game = cfg.build_game()
    settings = cfg.solver_settings()
    meta = cfg.metadata()
    meta["command"] = "baseline"

    result = naive_baseline(game, cfg["theta0"], settings)
    meta["theta1_naive"] = _fmt(result.theta1_naive)
    meta["theta_star_1"] = _fmt(result.theta_star[0])
    meta["theta_star_2"] = _fmt(result.theta_star[1])
    meta["realized_value"] = _fmt(result.realized_value)
    meta["equilibrium_value"] = _fmt(result.equilibrium_value)
    meta["gap"] = _fmt(result.gap)

    header = ["path", "sweep", "player", "inner_iter", "theta_1", "theta_2",
              "J_1", "J_2", "grad_own"]
    rows = [_record_row(r, "naive") for r in result.naive_records]
    rows.extend(_record_row(r, "ibr") for r in result.ibr_trace.records)
    write_csv(os.path.join(outdir, "baseline.csv"), meta, header, rows)
    return 0


# -- entry point --------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="confgames",
        description="Solve and analyze two-stage configuration games over "
                    "finite-horizon affine-quadratic differential games.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("solve", "run the first-stage search"),
                            ("sweep", "evaluate the value landscape on a lattice"),
                            ("grad-check", "compare gradients against central differences"),
                            ("baseline", "compare the naive pursuer against equilibrium")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration key (repeatable)")
        p.add_argument("--out", required=True, help="output directory")
    return parser


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "grad-check": cmd_grad_check,
    "baseline": cmd_baseline,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out)
    except (InfeasibleTheta, BestResponseStalled, BlowUpDetected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfGamesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
