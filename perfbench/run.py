"""Benchmark of the ``ulmc`` CLI: end-to-end metrics, or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload converge-logistic --seed 1 --seconds 40 --trace 0

Each workload (see ``workloads.py``) is one CLI experiment.  The benchmark
writes its inputs from ``--seed`` into a temporary directory inside the
repository, then runs the CLI as a closed loop of child processes, one at a
time, until ``--seconds`` have passed.  Every run's outputs are checked: the
workload's tolerance checks, and byte-identical CSVs across all runs of the
invocation.  A run that exits nonzero or fails a check counts in ``failed``.

``--trace 0`` runs the CLI at ``--threads 2`` and reports end-to-end metrics:
wall time per run (median and 60th percentile), set-up time (launch to the
first call into ``harness``), per-chain gradient evaluations per second after
set-up, CPU seconds and peak resident memory of the run's own process.

``--trace 1`` runs once at ``--threads 2`` for the CSV reference, then
alternates untraced and traced runs at ``--threads 1`` and reports per-layer
metrics from the traced runs (medians).  Their call counts must equal the
closed-form counts of the workload, and the layer self times must add up to
the CLI's own span.  ``trace.overhead_s`` is the traced median wall minus the
untraced median wall at the same thread count.

Human-readable lines (environment, every metric with its unit) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "shim.py"

# Two harness threads on at most two cores, so BLAS must not add its own.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

THREADS = 2  # end-to-end runs; traced runs use one thread
RUN_TIMEOUT_S = 90.0
TAIL_PERCENTILE = 60
END_TO_END_UNITS = {
    "wall_s": "s",
    f"wall_p{TAIL_PERCENTILE}_s": "s",
    "setup_s": "s",
    "chain_grads_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
COUNTED_LAYERS = ("potentials.grad", "brownian.split", "brownian.increment")


@dataclass
class Run:
    """One CLI process: its cost, its problems and what it wrote."""

    threads: int
    traced: bool
    wall_s: float = 0.0
    setup_s: float | None = None
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    csv_sha256: str | None = None
    report_bytes: int = 0
    probe: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_cli(workload, cli_args: list[str], tmp: Path, index: int, threads: int, traced: bool) -> Run:
    """Launch one CLI process, wait for it, and check what it wrote."""
    run = Run(threads, traced)
    out = tmp / f"run{index}"
    probe_path = tmp / f"run{index}.probe.json"
    stderr_path = tmp / f"run{index}.stderr"
    cmd = [
        sys.executable, str(SHIM), str(probe_path), "1" if traced else "0",
        *cli_args, "--threads", str(threads), "--out", str(out),
    ]
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(stderr_path, "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        run.wall_s = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.peak_rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux

    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        run.problems.append(f"exit code {code}: {' '.join(tail)}")
        return run
    run.probe = json.loads(probe_path.read_text())
    stamp = run.probe.get("first_harness_call")
    if stamp is None:
        run.problems.append("the CLI never called into harness")
    else:
        run.setup_s = stamp - start
    csv_path, json_path = out.with_suffix(".csv"), out.with_suffix(".json")
    run.csv_sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    run.report_bytes = csv_path.stat().st_size + json_path.stat().st_size
    run.problems += workload.check(workload.settings, json.loads(json_path.read_text()))
    for path in (csv_path, json_path, probe_path, stderr_path):
        path.unlink()
    return run


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_metrics(workload, runs: list[Run]) -> dict[str, float]:
    walls = [r.wall_s for r in runs]
    chain_grads = workload.chain_grads(workload.settings)
    return {
        "wall_s": statistics.median(walls),
        f"wall_p{TAIL_PERCENTILE}_s": percentile(walls, TAIL_PERCENTILE),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "chain_grads_per_s": statistics.median(chain_grads / (r.wall_s - r.setup_s) for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }


def layer_values(run: Run) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    self_s, calls = run.probe["self_s"], run.probe["calls"]

    def per_call_us(layer: str, n: int) -> float:
        return 1e6 * self_s.get(layer, 0.0) / n if n else 0.0

    values: dict[str, float] = {}
    for layer in COUNTED_LAYERS:
        n = calls.get(layer, 0)
        values[f"{layer}_calls"] = n
        values[f"{layer}_self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}_us_per_call"] = per_call_us(layer, n)
    steps = 0
    for m in ("quicsort", "ubu", "euler"):
        n = calls.get(f"integrators.step_calls.{m}", 0)
        values[f"integrators.step_calls.{m}"] = n
        steps += n
    values["integrators.step_self_s"] = self_s.get("integrators.step", 0.0)
    values["integrators.step_self_us_per_call"] = per_call_us("integrators.step", steps)
    for short, layer in (("w2", "metrics.w2"), ("energy", "metrics.energy")):
        values[f"metrics.{short}_calls"] = calls.get(layer, 0)
        values[f"metrics.{short}_s"] = self_s.get(layer, 0.0)
    values["harness.self_s"] = self_s.get("harness.study", 0.0)
    values["harness.ground_truth_s"] = self_s.get("harness.ground_truth", 0.0)
    values["harness.chunks"] = calls.get("harness.chunks", 0)
    values["cli.self_s"] = self_s.get("cli", 0.0)
    values["cli.report_write_s"] = self_s.get("cli.report_write", 0.0)
    values["cli.report_bytes"] = run.report_bytes
    return values


def trace_problems(workload, run: Run) -> list[str]:
    """Counts must equal the closed forms; self times must add up to the CLI span."""
    calls = run.probe["calls"]
    problems = [
        f"{key}: counted {calls.get(key, 0)}, closed form {want}"
        for key, want in workload.counts(workload.settings).items()
        if calls.get(key, 0) != want
    ]
    spanned = sum(run.probe["self_s"].values())
    root = run.probe["total_s"].get("cli", 0.0)
    if abs(spanned - root) > 1e-6 * max(root, 1.0):
        problems.append(f"layer self times sum to {spanned:.6f} s, the CLI span is {root:.6f} s")
    return problems


def run_loop(workload, cli_args, tmp, seconds, trace) -> tuple[list[Run], list[Run]]:
    """Closed loop of CLI runs for ``seconds``; returns (measured, traced)."""
    measured: list[Run] = []
    traced: list[Run] = []
    deadline = time.monotonic() + seconds
    index = 0

    def launch(threads: int, with_trace: bool) -> Run:
        nonlocal index
        index += 1
        return run_cli(workload, cli_args, tmp, index, threads, with_trace)

    if not trace:
        while not measured or time.monotonic() < deadline:
            measured.append(launch(THREADS, False))
        return measured, traced
    reference = launch(THREADS, False)
    while not traced or time.monotonic() < deadline:
        measured.append(launch(1, False))
        run = launch(1, True)
        if not run.problems:
            run.problems += trace_problems(workload, run)
        traced.append(run)
    return [reference, *measured], traced


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {"end_to_end": THREADS, "traced": 1},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": git_commit(),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload in one mode, print its metrics, and return the result object."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cli_args = workload.write_inputs(seed, tmp)
        runs, traced = run_loop(workload, cli_args, tmp, seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    every = runs + traced
    failed = [r for r in every if r.problems]
    digests = {r.csv_sha256 for r in every if r.csv_sha256}
    if len(digests) > 1:
        failed = every
        print(f"CSV differs between runs: {len(digests)} distinct digests")
    for r in failed:
        print(f"failed run ({r.threads} threads{', traced' if r.traced else ''}): {'; '.join(r.problems) or 'CSV differs'}")
    print(f"{workload.name}: {len(every)} runs, {len(failed)} failed, fail_ratio {len(failed) / len(every):.4f}")

    # metrics come from every run that completed, even if its output failed a check
    done = [r for r in runs if r.setup_s is not None]
    done_traced = [r for r in traced if r.setup_s is not None]
    if not done or (trace and not done_traced):
        print(f"perfbench: no run of {workload.name} completed, nothing to report", file=sys.stderr)
        return None
    if trace:
        per_run = [layer_values(r) for r in done_traced]
        values = {key: statistics.median(v[key] for v in per_run) for key in per_run[0]}
        traced_wall = statistics.median(r.wall_s for r in done_traced)
        values["trace.overhead_s"] = traced_wall - statistics.median(r.wall_s for r in done if r.threads == 1)
        units = {key: _layer_unit(key) for key in values}
        print(f"per-layer metrics: median of {len(done_traced)} traced runs at 1 thread")
    else:
        values = end_to_end_metrics(workload, done)
        units = END_TO_END_UNITS
        print(f"end-to-end metrics: {len(done)} runs at {THREADS} threads, wall tail = p{TAIL_PERCENTILE}")
    for key, value in values.items():
        print(f"  {key:<40} {value:>16.6f} {units[key]}")
    return {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or 'all' for every workload in both modes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ulmc" / "cli.py").is_file():
        print(f"perfbench: no ulmc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment(args), sort_keys=True))

    if args.workload != "all":
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    # every workload, untraced then traced; metric names are prefixed "workload/"
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = measure(workload, args.seed, args.seconds, trace)
            if result is None:
                return 1
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{workload.name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_us_per_call"):
        return "us"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
