"""Benchmark worker: one process that sets up, runs tasks in a closed loop and checks them.

Started by ``run.py``; prints ``READY`` once set-up is done (imports, input
generation, one untimed warm-up task) and, unless ``--mode setup``, a final
``RESULT <json>`` line.  Nothing else goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class Raised(str):
    """A task that raised instead of returning; holds the exception text."""


def _call(fn):
    try:
        return fn(), None
    except Exception as exc:  # the gate counts it as a failed task
        return None, Raised(f"{type(exc).__name__}: {exc}")


def run_loop(tasks, seconds: float, tracer=None) -> dict:
    """Closed loop over the task cycle for ``seconds``; the last task may run over."""
    latencies, records = [], []
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while perf_counter_ns() < deadline:
        k = i % len(tasks)
        task = tasks[k]
        if tracer is None:
            t0 = perf_counter_ns()
            out, error = _call(task.run)
            t1 = perf_counter_ns()
        else:
            tracer.task = i
            with tracer.span("bench", "task"):
                t0 = perf_counter_ns()
                if task.span_file is None:
                    out, error = _call(task.run)
                    t1 = perf_counter_ns()
                else:
                    with tracer.span("cli", "process") as proc:
                        out, error = _call(task.traced_run)
                    t1 = perf_counter_ns()
                    if task.span_file.exists():
                        tracer.merge(json.loads(task.span_file.read_text()), proc)
                        task.span_file.unlink()
        latencies.append(t1 - t0)
        if error is None:
            out, error = _call(lambda: task.collect(out))
        records.append((k, error or out))
        i += 1
    return {"latencies_ns": latencies, "records": records, "wall_ns": perf_counter_ns() - start}


def gate(workload, loop: dict) -> dict:
    """Check every task; a task fails if it raised, lacks a certificate or misses a reference."""
    failed = 0
    statuses: Counter = Counter()
    problems: Counter = Counter()
    iterations = 0
    for k, rec in loop["records"]:
        task = workload.tasks[k]
        if isinstance(rec, Raised):
            failed += 1
            statuses[rec.split(":")[0]] += 1
            problems[f"{task.kind}: {rec}"] += 1
            continue
        found_statuses, found = task.check(rec)
        statuses.update(found_statuses)
        iterations += task.iterations(rec)
        if found:
            failed += 1
            problems.update(found)
    return {
        "attempted": len(loop["records"]),
        "failed": failed,
        "statuses": dict(statuses),
        "problems": [f"{p} (x{n})" for p, n in problems.most_common(20)],
        "iterations": iterations,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def best_per_task_ms(loop: dict) -> list[float]:
    """Fastest run of each catalog task that ran, in ms.

    A task's fastest run is the one least slowed by other load on the host,
    so these stay put while the machine's speed drifts under the medians.
    """
    best: dict[int, int] = {}
    for (k, _), t in zip(loop["records"], loop["latencies_ns"]):
        best[k] = min(t, best.get(k, t))
    return [t / 1e6 for t in best.values()]


def loop_metrics(workload, loop: dict, checked: dict) -> dict:
    lat_ms = [t / 1e6 for t in loop["latencies_ns"]]
    wall_s = loop["wall_ns"] / 1e9
    best_ms = best_per_task_ms(loop)
    out = {
        "task_ms_best": (statistics.fmean(best_ms), "ms"),
        "task_ms_best_p50": (statistics.median(best_ms), "ms"),
        "task_ms_p50": (statistics.median(lat_ms), "ms"),
        "tasks_per_s": (len(lat_ms) / wall_s, "1/s"),
    }
    if len(lat_ms) >= 100:
        out["task_ms_p90"] = (statistics.quantiles(lat_ms, n=10)[8], "ms")
    if workload.engine:
        out["iters_per_s"] = (checked["iterations"] / wall_s, "1/s")
    out["failed_share"] = (checked["failed"] / max(checked["attempted"], 1), "share")
    return out


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "numba": have_numba,
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import prmi

    if not Path(prmi.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: prmi imported from {prmi.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import layers
    import workloads

    args.out.mkdir(parents=True, exist_ok=True)
    wl = workloads.BUILDERS[args.workload](args.seed, args.out, BENCH_DIR)
    warm = wl.tasks[0]
    warm.collect(warm.run())
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"env": environment()}
    if args.mode == "run":
        loop = run_loop(wl.tasks, args.seconds)
        rss = peak_rss_mb(children=wl.in_subprocess)
        checked = gate(wl, loop)
        metrics = loop_metrics(wl, loop, checked)
        metrics["peak_rss_mb"] = (rss, "MB")
    else:
        half = args.seconds / 2
        plain = run_loop(wl.tasks, half)
        tracer = layers.Tracer()
        tracer.install([workloads])
        try:
            traced = run_loop(wl.tasks, half, tracer)
        finally:
            tracer.uninstall()
        checked = gate(wl, {"records": plain["records"] + traced["records"]})
        p50_plain = statistics.median(plain["latencies_ns"]) / 1e6
        p50_traced = statistics.median(traced["latencies_ns"]) / 1e6
        metrics = layers.probe(wl, args.out)
        metrics["trace.task_ms_p50_untraced"] = (p50_plain, "ms")
        metrics["trace.task_ms_p50_traced"] = (p50_traced, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (p50_traced - p50_plain) / p50_plain, "%")
        per_layer, calls = layers.self_times(tracer.spans)
        n_traced = len(traced["latencies_ns"])
        result["self_ms_per_task"] = {
            layer: per_layer.get(layer, 0.0) / 1e6 / n_traced for layer in layers.LAYERS
        }
        result["traced_tasks"] = n_traced
        result["calls"] = dict(calls.most_common())
        spans_path = args.out / f"spans-{wl.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result.update(
        attempted=checked["attempted"],
        failed=checked["failed"],
        statuses=checked["statuses"],
        problems=checked["problems"],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
