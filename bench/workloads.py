"""The benchmark's workloads: CLI arguments, artifacts, seeds and references.

Each workload is one ``confgames`` CLI command.  ``pe_ibr`` and
``gs_sweep`` are the paper's fixed canonical inputs and ignore the seed;
``rand_gradcheck`` draws its random game and its sample points from it.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("pe_ibr", "gs_sweep", "rand_gradcheck")

# rand_gradcheck maps the benchmark seed onto this many random games, each
# with a stored reference; every one of them is accepted by the generator
# on its first draw, so set-up work is the same for every seed.
RANDOM_POOL = 32

GS_LATTICE = 3
GRADCHECK_SAMPLES = 2


def random_seed(seed: int) -> int:
    return int(seed) % RANDOM_POOL


def overrides(workload: str, seed: int) -> list:
    """The --set overrides of a workload (every value the CLI resolves)."""
    if workload == "pe_ibr":
        return ["scenario=pursuit_evasion", "theta0=0.2 1.2"]
    if workload == "gs_sweep":
        return ["scenario=general_sum", f"sweep.grid={GS_LATTICE}", "sweep.workers=1"]
    if workload == "rand_gradcheck":
        s = random_seed(seed)
        return ["scenario=random", "random.players=3", "random.state_dim=6",
                "random.control_dim=2", f"random.seed={s}", f"gradcheck.seed={s}",
                f"gradcheck.samples={GRADCHECK_SAMPLES}"]
    raise ValueError(f"unknown workload {workload!r}")


COMMAND = {"pe_ibr": "solve", "gs_sweep": "sweep", "rand_gradcheck": "grad-check"}

ARTIFACT = {"pe_ibr": "result.json", "gs_sweep": "landscape.csv",
            "rand_gradcheck": "gradcheck.csv"}


def argv(workload: str, seed: int, outdir: str, extra=()) -> list:
    """Arguments for ``confgames.cli.main``."""
    args = [COMMAND[workload], "--out", outdir]
    for item in [*overrides(workload, seed), *extra]:
        args += ["--set", item]
    return args


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)
