"""One benchmark process: set up a game, then run one CLI command on it.

    python bench/worker.py run --workload W --seed S --out DIR --report FILE
                               [--trace SPANS] [--setup-only] [--set KEY=VALUE ...]
    python bench/worker.py probe --report FILE

``run`` imports confgames, builds the workload's game through the CLI's
own configuration (set-up), then calls ``confgames.cli.main`` with the
workload's arguments; the CLI reuses the built game, so the timed call
excludes set-up.  With ``--trace`` the layers are wrapped before set-up
and the spans are written to SPANS when the process ends.

``probe`` times single-theta layer calls (tables, stage-two passes, value
gradient, rollout) for the two built-in games and one random game, best
of ``PROBE_REPEATS``.

The report file is a JSON object; ``t_built`` is wall-clock time
(``time.time``) so the parent can measure from before it spawned us.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads

ROOT = os.path.dirname(workloads.HERE)
PROBE_REPEATS = 3


def _import_checkout_confgames():
    import confgames

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(confgames.__file__).startswith(src):
        sys.exit(f"confgames imported from {confgames.__file__}, not from {src}")


def _versions():
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    _import_checkout_confgames()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from confgames import cli

    argv = workloads.argv(args.workload, args.seed, args.out, args.set)
    overrides = workloads.overrides(args.workload, args.seed) + list(args.set)
    game = cli.load_config(None, overrides).build_game()
    report = {"t_built": time.time()}
    if not args.setup_only:
        # the game is already built, so the timed call does no set-up work
        cli.RunConfig.build_game = lambda self: game
        start = time.perf_counter()
        report["exit_code"] = cli.main(argv)
        report["wall_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = _peak_rss_mb()
    report["versions"] = _versions()
    if tracer is not None:
        tracer.dump(args.trace)
    return report


def probe(args) -> dict:
    _import_checkout_confgames()
    import numpy as np

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from confgames import riccati, scenarios, sensitivity
    from confgames.odekit import TimeGrid

    games = {
        "pe": (scenarios.build_pursuit_evasion(), (0.2, 1.2)),
        "gs": (scenarios.build_general_sum(), (0.6, 1.2)),
        "rand": (scenarios.random_aq_game(0, 3, 6, 2), (1.0, 1.0, 1.0)),
    }
    parts = {"tables_ms": ("_stage.tables",),
             "stage_two_ms": ("riccati.solve_stage_two",),
             "riccati_ms": ("riccati.coupled", "riccati.zerosum"),
             "zeta_ms": ("riccati.zeta",), "eta_ms": ("riccati.eta",),
             "gradient_ms": ("sensitivity.value_gradient",),
             "rollout_ms": ("riccati.rollout",)}
    metrics = {}
    for label, (game, theta) in games.items():
        theta = np.array(theta)
        grid = TimeGrid(game.horizon, 1000)
        best = {}
        for _ in range(PROBE_REPEATS):
            tracer.spans.clear()
            stage2 = riccati.solve_stage_two(game, theta, grid)
            sensitivity.value_gradient(game, theta, grid=grid, stage2=stage2)
            riccati.rollout(game, theta, stage2)
            for part, names in parts.items():
                ms = 1e3 * sum(s[2] - s[1] for s in tracer.spans if s[0] in names)
                best[part] = min(best.get(part, ms), ms)
        for part, ms in best.items():
            metrics[f"probe.{label}.{part}"] = ms
    return {"metrics": metrics, "versions": _versions()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", default=None, help="write spans to this file")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--set", action="append", default=[], help="extra CLI override")
    q = sub.add_parser("probe")
    q.add_argument("--report", required=True)
    args = parser.parse_args()
    report = run(args) if args.mode == "run" else probe(args)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
