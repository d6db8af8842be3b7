"""Correctness gate: compare a workload's CLI artifact with its reference.

References were taken from the unmodified library (see make_reference.py).
Tolerances allow a correct change that reorders floating-point sums:

- pe_ibr: every theta* component within THETA_ATOL (ten times the
  solver's 1e-6 movement tolerance), values within VALUE_RTOL relative,
  both certification verdicts equal, converged, exit code 0.  The run is
  one answer, so a mismatch fails all of its inner iterates.
- gs_sweep: per lattice point, the point itself, its feasibility flag, J
  and the own-gradients within LATTICE_RTOL relative (LATTICE_ATOL
  absolute floor).  A mismatch fails that point.
- rand_gradcheck: exit code 0, and per sample every ode_grad entry within
  GRAD_RTOL relative (GRAD_ATOL floor) at the same theta.  A mismatch
  fails that sample.

A nonzero exit code fails every operation.  The artifact's SHA-256 is
compared with the reference's for information only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import workloads

THETA_ATOL = 1e-5
VALUE_RTOL = 1e-6
LATTICE_RTOL, LATTICE_ATOL = 1e-8, 1e-12
GRAD_RTOL, GRAD_ATOL = 1e-8, 1e-12


def read_csv(path):
    """(header, rows of strings) of a CLI CSV artifact; metadata lines skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(value, ref, rtol, atol) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= atol + rtol * abs(ref)


def extract(workload: str, outdir: str, seed: int) -> dict:
    """The gated quantities of an artifact, in the reference's layout."""
    path = os.path.join(outdir, workloads.ARTIFACT[workload])
    if workload == "pe_ibr":
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        keys = ("converged", "theta", "values", "certification", "inner_iterations")
        return {k: result.get(k) for k in keys}
    header, rows = read_csv(path)
    if workload == "gs_sweep":
        return {"rows": [[float(x) for x in row] for row in rows]}
    theta_cols = [i for i, name in enumerate(header) if name.startswith("theta_")]
    comp, grad = header.index("component"), header.index("ode_grad")
    return {"random_seed": workloads.random_seed(seed),
            "rows": [[[float(row[i]) for i in theta_cols], row[comp], float(row[grad])]
                     for row in rows]}


def _check_pe(got, ref):
    bad = []
    if got.get("converged") is not True:
        bad.append("not converged")
    theta, values = got.get("theta") or [], got.get("values") or []
    if len(theta) != len(ref["theta"]) or any(
            abs(a - b) > THETA_ATOL for a, b in zip(theta, ref["theta"])):
        bad.append(f"theta {theta} != {ref['theta']}")
    if len(values) != len(ref["values"]) or any(
            not _close(a, b, VALUE_RTOL, 0.0) for a, b in zip(values, ref["values"])):
        bad.append(f"values {values} != {ref['values']}")
    if got.get("certification") != ref["certification"]:
        bad.append(f"certification {got.get('certification')} != {ref['certification']}")
    attempted = got.get("inner_iterations") or ref["inner_iterations"]
    return attempted, (attempted if bad else 0), bad


def _check_gs(got, ref):
    rows, bad = got.get("rows", []), []
    for i, want in enumerate(ref["rows"]):
        have = rows[i] if i < len(rows) else None
        ok = (have is not None and have[:2] == want[:2] and have[6] == want[6]
              and all(_close(a, b, LATTICE_RTOL, LATTICE_ATOL)
                      for a, b in zip(have[2:6], want[2:6])))
        if not ok:
            bad.append(f"lattice point {i}: {have} != {want}")
    return len(ref["rows"]), len(bad), bad


def _check_rand(got, ref):
    rows, want_rows = got.get("rows", []), ref["rows"]
    per_sample = len(want_rows[0][0]) ** 2  # N x N gradient entries per sample
    samples = len(want_rows) // per_sample
    bad = []
    for s in range(samples):
        for i in range(s * per_sample, (s + 1) * per_sample):
            have, want = (rows[i] if i < len(rows) else None), want_rows[i]
            if (have is None or have[1] != want[1] or have[0] != want[0]
                    or not _close(have[2], want[2], GRAD_RTOL, GRAD_ATOL)):
                bad.append(f"sample {s} row {i}: {have} != {want}")
                break
    return samples, len(bad), bad


def check(workload: str, outdir: str, exit_code, seed: int, reference: dict) -> dict:
    """Gate one CLI call: attempted and failed operations, and why."""
    if workload == "rand_gradcheck":
        reference = reference["seeds"][str(workloads.random_seed(seed))]
    path = os.path.join(outdir, workloads.ARTIFACT[workload])
    try:
        got = extract(workload, outdir, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        got, reason = None, f"unreadable artifact: {exc!r}"
    checker = {"pe_ibr": _check_pe, "gs_sweep": _check_gs,
               "rand_gradcheck": _check_rand}[workload]
    if got is None:
        attempted, _, _ = checker({}, reference)
        return {"attempted": attempted, "failed": attempted, "mismatches": [reason]}
    attempted, failed, bad = checker(got, reference)
    if exit_code != 0:
        failed, bad = attempted, [f"exit code {exit_code}"] + bad
    digest = sha256(path)
    return {"attempted": attempted, "failed": failed, "mismatches": bad[:10],
            "sha256": digest, "sha256_matches_reference": digest == reference.get("sha256")}
