"""confgames benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run_bench.py --workload W --seed N --seconds S --trace 0|1

Every CLI call runs in a fresh worker process (bench/worker.py) with the
BLAS thread count pinned.  ``--trace 0`` repeats the workload until the
calls have measured ``--seconds`` seconds in total (at least MIN_CALLS
calls), adds set-up-only processes until there are SETUP_SAMPLES set-up
times, and reports the end-to-end metrics.  ``--trace 1`` runs the workload once
untraced and once traced, plus the single-theta layer probe, and reports
the per-layer metrics.  Every call's artifact is checked against the
reference (bench/gate.py).

The last line of standard output is the JSON result; the full record,
with an environment stamp, goes to bench/out/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gate
import workloads

ROOT = os.path.dirname(workloads.HERE)
OUT = os.path.join(workloads.HERE, "out")
WORKER = os.path.join(workloads.HERE, "worker.py")

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
# a pe_ibr call outlasts --seconds; a second call averages out more of the
# shared host's slow phases, which last from seconds to about a minute
MIN_CALLS = 2
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, deadline=None) -> tuple:
    """Run one worker process to completion; returns (report, spawn time)."""
    os.makedirs(OUT, exist_ok=True)
    report_path = os.path.join(OUT, f"report-{os.getpid()}.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    timeout = None if deadline is None else deadline - time.monotonic()
    if timeout is not None and timeout <= 0:
        raise BenchError("run budget exhausted")
    t_spawn = time.time()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args, "--report", report_path],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:3]} exceeded the run budget") from None
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited with code {proc.returncode}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(report_path)
    return report, t_spawn


def run_call(workload, seed, *, trace=False, setup_only=False, extra=(), deadline=None):
    """One worker process: set-up, then (unless setup_only) the CLI call.

    The report carries setup_s (spawn to built game), wall_s, exit_code,
    peak_rss_mb, the artifact directory and, when traced, the layer metrics.
    """
    outdir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    shutil.rmtree(outdir, ignore_errors=True)
    args = ["run", "--workload", workload, "--seed", str(seed), "--out", outdir]
    for item in extra:
        args += ["--set", item]
    if setup_only:
        args.append("--setup-only")
    spans_path = os.path.join(OUT, f"spans-{os.getpid()}.json")
    if trace:
        args += ["--trace", spans_path]
    report, t_spawn = spawn(args, deadline)
    report["setup_s"] = report.pop("t_built") - t_spawn
    report["outdir"] = outdir
    if trace:
        import tracing

        with open(spans_path, encoding="utf-8") as fh:
            dumped = json.load(fh)
        os.remove(spans_path)
        report["layers"] = tracing.layer_metrics(dumped["spans"], dumped["counts"])
    return report


def gated_call(workload, seed, reference, **kwargs) -> dict:
    report = run_call(workload, seed, **kwargs)
    report["gate"] = gate.check(workload, report["outdir"], report["exit_code"],
                                seed, reference)
    shutil.rmtree(report["outdir"])
    return report


def measure(workload, seed, seconds, reference, deadline) -> tuple:
    """End-to-end metrics from untraced calls; returns (metrics, calls, setups)."""
    calls = []
    while len(calls) < MIN_CALLS or sum(c["wall_s"] for c in calls) < seconds:
        calls.append(gated_call(workload, seed, reference, deadline=deadline))
    setups = [c["setup_s"] for c in calls]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_call(workload, seed, setup_only=True, deadline=deadline)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "ops_per_s": statistics.median(c["gate"]["attempted"] / c["wall_s"] for c in calls),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
    }
    return metrics, calls, setups


def trace_layers(workload, seed, reference, deadline) -> tuple:
    """Per-layer metrics from one traced call, the probe, and the overhead."""
    import tracing

    plain = gated_call(workload, seed, reference, deadline=deadline)
    traced = gated_call(workload, seed, reference, trace=True, deadline=deadline)
    probe, _ = spawn(["probe"], deadline)
    metrics = dict(traced.pop("layers"))
    units = dict(tracing.PER_LAYER)
    metrics.update(probe["metrics"])
    units.update((name, "ms") for name in probe["metrics"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    units["trace.overhead_frac"] = "1"
    return metrics, units, [plain, traced]


# -- environment stamp -------------------------------------------------------


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "confgames")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed, versions) -> dict:
    return {"commit": _git_commit(), "src_sha256": _src_sha256(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), **versions,
            "seed": seed, "random_game_seed": workloads.random_seed(seed),
            "blas_threads": BLAS_THREADS}


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="confgames benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "confgames", "__init__.py")):
        print(f"error: no confgames sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        reference = workloads.load_reference(args.workload)
        if args.trace:
            values, units, calls = trace_layers(args.workload, args.seed, reference,
                                                deadline)
            setups = []
        else:
            values, calls, setups = measure(args.workload, args.seed, args.seconds,
                                            reference, deadline)
            units = dict(END_TO_END)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["gate"]["attempted"] for c in calls)
    failed = sum(c["gate"]["failed"] for c in calls)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed, calls[0]["versions"]),
              "fail_frac": failed / attempted, "setup_samples": setups,
              "calls": [{k: c[k] for k in ("setup_s", "wall_s", "exit_code",
                                           "peak_rss_mb", "gate")} for c in calls],
              "result": result}
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for name in units:
        print(f"{args.workload} {name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ({failed}/{attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
