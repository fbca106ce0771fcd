"""Benchmark entry point: one seeded workload, end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload desk_sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it measures set-up time over several fresh worker
processes, then runs the workload's tasks in a closed loop in one more worker
and prints the end-to-end metrics.  With ``--trace 1`` one worker runs half the
time untraced and half traced, then probes each layer, and the per-layer
metrics are printed.  Every task is checked against an independent reference
in the same pass.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report goes to
``bench/out/``.  BLAS is pinned to one thread in every process started here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from layers import SHOULD_MOVE

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("desk_sweep", "large_state", "oracle_grid", "cli_process")
SETUP_SAMPLES = 5  # the timed worker's own set-up counts as one of them
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Order in which the report prints end-to-end metrics.  BENCHMARK.json gates
# setup_s, task_ms_best, task_ms_best_p50 and peak_rss_mb; the others are
# printed where defined (see README.md for why they are not gated).
E2E_ORDER = ("setup_s", "task_ms_best", "task_ms_best_p50", "task_ms_p50", "task_ms_p90",
             "tasks_per_s", "iters_per_s", "failed_share", "peak_rss_mb")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env[name] = BLAS_THREADS
    return env


def _worker(args, mode: str, timeout: float) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start to READY, RESULT payload)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--out", str(OUT_DIR / args.workload),
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready, result = None, None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise BenchError(f"worker ({mode}) exited with code {code}")
    return ready, result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "prmi" / "__init__.py").is_file():
        print(f"error: no prmi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    budget = 150.0  # per worker; the whole run must end within 180 s
    try:
        if args.trace:
            _, result = _worker(args, "trace", budget)
        else:
            setups = [_worker(args, "setup", 30.0)[0] for _ in range(SETUP_SAMPLES - 1)]
            ready, result = _worker(args, "run", budget)
            setups.append(ready)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            result["setup_samples_s"] = setups
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"tasks: {result['attempted']} attempted, {result['failed']} failed; "
          f"solve statuses: {result['statuses']}")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    if args.trace:
        n = result["traced_tasks"]
        print(f"self time per traced task ({n} tasks):")
        total = sum(result["self_ms_per_task"].values())
        for layer, ms in sorted(result["self_ms_per_task"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<15} {ms:10.4f} ms  {100 * ms / total:5.1f}%")
        for name, moves in SHOULD_MOVE.items():
            value, unit = _fmt(metrics[name]["value"]), metrics[name]["unit"]
            print(f"{name:<36} {value:>14} {unit:<6} moves {moves}")
    else:
        for name in (m for m in E2E_ORDER if m in metrics):
            print(f"{name:<36} {_fmt(metrics[name]['value']):>14} {metrics[name]['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, **result}, indent=1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in gated},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
