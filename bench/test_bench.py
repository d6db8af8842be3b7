"""Negative controls: the correctness gate must catch wrong outputs.

    python3 -m pytest bench/test_bench.py

Not part of the library's test suite (its testpaths is tests/).  The two
rand_gradcheck runs take about half a minute together.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import workloads  # noqa: E402
import tracing  # noqa: E402
from run_bench import END_TO_END, ROOT, run_call  # noqa: E402

SEED = 3


def fail_frac(result):
    return result["failed"] / result["attempted"]


@pytest.fixture(scope="module")
def rand_reference():
    return workloads.load_reference("rand_gradcheck")


def gated_run(reference, extra=()):
    report = run_call("rand_gradcheck", SEED, extra=extra)
    try:
        return report, [gate.check("rand_gradcheck", report["outdir"], report["exit_code"],
                                   SEED, ref) for ref in reference]
    finally:
        shutil.rmtree(report["outdir"])


def test_clean_run_passes_and_perturbed_reference_fails(rand_reference):
    perturbed = copy.deepcopy(rand_reference)
    rows = perturbed["seeds"][str(workloads.random_seed(SEED))]["rows"]
    rows[10][2] *= 1 + 1e-6  # one ode_grad entry of the second sample
    report, (clean, against_perturbed) = gated_run([rand_reference, perturbed])
    assert report["exit_code"] == 0
    assert clean["attempted"] == workloads.GRADCHECK_SAMPLES
    assert clean["failed"] == 0, clean["mismatches"]
    assert clean["sha256_matches_reference"]
    assert against_perturbed["failed"] == 1
    assert fail_frac(against_perturbed) > 0


def test_corrupted_gradients_fail(rand_reference):
    report, (result,) = gated_run([rand_reference], extra=["gradcheck.corrupt=1e-3"])
    assert report["exit_code"] == 4
    assert result["failed"] == result["attempted"] > 0
    assert fail_frac(result) > 0


def _write_pe(outdir, ref):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh)


def test_pe_gate_rejects_moved_equilibrium(tmp_path):
    ref = workloads.load_reference("pe_ibr")
    _write_pe(tmp_path, ref)
    assert gate.check("pe_ibr", str(tmp_path), 0, 0, ref)["failed"] == 0
    moved = dict(ref, theta=[ref["theta"][0] + 1e-4, ref["theta"][1]])
    _write_pe(tmp_path, moved)
    result = gate.check("pe_ibr", str(tmp_path), 0, 0, ref)
    assert result["failed"] == result["attempted"] == ref["inner_iterations"]
    assert fail_frac(result) > 0


def test_gs_gate_rejects_one_wrong_point(tmp_path):
    ref = workloads.load_reference("gs_sweep")
    header = "theta1,theta2,J1,J2,dJ1_dtheta1,dJ2_dtheta2,feasible"

    def write(rows):
        lines = ["# command = sweep", header] + [",".join(repr(x) for x in r) for r in rows]
        (tmp_path / "landscape.csv").write_text("\n".join(lines) + "\n")

    write(ref["rows"])
    assert gate.check("gs_sweep", str(tmp_path), 0, 0, ref)["failed"] == 0
    rows = copy.deepcopy(ref["rows"])
    rows[7][4] += 1e-6
    write(rows)
    result = gate.check("gs_sweep", str(tmp_path), 0, 0, ref)
    assert result["failed"] == 1
    assert fail_frac(result) > 0


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    probe = [(f"probe.{g}.{part}_ms", "ms") for g in ("pe", "gs", "rand")
             for part in ("tables", "stage_two", "riccati", "zeta", "eta", "gradient",
                          "rollout")]
    expected = list(tracing.PER_LAYER) + probe + [("trace.overhead_frac", "1")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == expected
