"""Regenerate the gate's references from the library as it stands.

    python3 bench/make_reference.py [pe_ibr|gs_sweep|rand_gradcheck ...]

Writes bench/reference/<workload>.json.  rand_gradcheck gets one entry per
random game in the seed pool (workloads.RANDOM_POOL).  Run it only on a
library whose outputs are known to be right: the gate trusts these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gate
import workloads
from run_bench import run_call


def reference_entry(workload, seed) -> dict:
    report = run_call(workload, seed)
    if report["exit_code"] != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {report['exit_code']}")
    entry = gate.extract(workload, report["outdir"], seed)
    entry["sha256"] = gate.sha256(os.path.join(report["outdir"],
                                               workloads.ARTIFACT[workload]))
    shutil.rmtree(report["outdir"])
    print(f"{workload} seed {seed}: {report['wall_s']:.2f} s", file=sys.stderr)
    return entry


def main(names):
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        if workload == "rand_gradcheck":
            ref = {"seeds": {str(s): reference_entry(workload, s)
                             for s in range(workloads.RANDOM_POOL)}}
        else:
            ref = reference_entry(workload, 0)
        path = os.path.join(workloads.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
