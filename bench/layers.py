"""Per-layer measurement: spans around calls into ``prmi`` modules, and probes.

The tracer replaces the public functions of each ``prmi`` module (and every
reference to them, including re-exports) by wrappers that record a span:
layer, function, start, end, parent span and task id.  Spans are kept in a
list and written out when the run ends.  Internal helpers such as ``_AmRun``
are not wrapped, so the per-iteration path carries no instrumentation and its
time counts as self time of the module that owns it.

The probes time single layers on the workload's own inputs and report the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import math
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

# Public functions wrapped per layer.  petz_divergence and hilbert_metric are
# left out: no timed path calls them (the correctness gate does, untimed).
TRACED = {
    "operator_core": [
        "eig_hermitian",
        "power_on_support",
        "min_nonzero_eig",
        "partial_trace",
        "schatten_norm",
        "support_relation",
        "support_projector",
        "random_density",
        "HermitianOperator.from_entries",
        "BipartiteState.from_operator",
        "BipartiteState.from_matrix",
        "BipartiteState.marginal_a",
        "BipartiteState.marginal_b",
    ],
    "am_engine": [
        "algorithm1",
        "algorithm2",
        "run_uncertified",
        "linear_constants",
        "sublinear_constants",
        "restrict_initializer",
        "spectrum_floors",
    ],
    "classical_rmi": [
        "algorithm_classical",
        "run_uncertified_classical",
        "cc_embed",
        "classical_linear_constants",
        "JointPmf.from_weights",
        "Pmf.from_weights",
        "n_x_to_y",
        "n_y_to_x",
    ],
    "oracle": ["grid_min_classical", "grid_min_quantum_qubit", "simplex_grid"],
    "_scan": ["pair_scan", "pruned_pair_scan", "row_extremes"],
    "cli": ["main", "run", "load_state", "load_pmf", "load_operator", "load_init_pmf"],
}

LAYERS = list(TRACED) + ["bench"]

# The end-to-end metric and workload each per-layer metric should move.
SHOULD_MOVE = {
    "operator_core.from_matrix_us": "task_ms_best_p50 on large_state, little on desk_sweep",
    "operator_core.eigh_state_us": "task_ms_best_p50 on large_state",
    "operator_core.power_on_support_us": "task_ms_best_p50 on large_state",
    "operator_core.min_nonzero_eig_us": "task_ms_best_p50 on desk_sweep",
    "am_engine.setup_us": "task_ms_best_p50 on large_state",
    "am_engine.step_us": "task_ms_best_p50 on desk_sweep, little on large_state; not oracle_grid",
    "am_engine.record_states_us": "none (no workload records states)",
    "am_engine.linear_constants_us": "task_ms_best_p50 on desk_sweep",
    "am_engine.sublinear_constants_us": "task_ms_best_p50 on desk_sweep",
    "am_engine.iterations": "task_ms_best_p50 on desk_sweep (count)",
    "am_engine.iterations_predicted": "task_ms_best_p50 on desk_sweep (count)",
    "am_engine.iterations_sublinear": "task_ms_best_p50 on desk_sweep (count)",
    "classical_rmi.step_us": "task_ms_best_p50 on desk_sweep",
    "classical_rmi.linear_constants_us": "task_ms_best_p50 on desk_sweep",
    "classical_rmi.embed_us": "task_ms_best_p50 on desk_sweep",
    "oracle.evaluations": "task_ms_best_p50 on oracle_grid only (count)",
    "oracle.pruned_share": "task_ms_best_p50 on oracle_grid only",
    "oracle.evals_per_s": "task_ms_best_p50 on oracle_grid only",
    "scan.row_extremes_evals_per_s": "task_ms_best on oracle_grid only",
    "scan.computed_bytes_per_eval": "oracle_grid only (computed)",
    "cli.interpreter_ms": "setup_s and task_ms_best_p50 on cli_process",
    "cli.import_ms": "setup_s and task_ms_best_p50 on cli_process",
    "cli.main_ms": "task_ms_best_p50 on cli_process",
    "cli.load_state_ms": "task_ms_best_p50 on cli_process",
    "trace.task_ms_p50_untraced": "none (tracing overhead)",
    "trace.task_ms_p50_traced": "none (tracing overhead)",
    "trace.overhead_pct": "none (tracing overhead)",
}


class Tracer:
    """In-memory span recorder; one span is [layer, name, t0_ns, t1_ns, parent, task]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = -1
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, 0, 0, parent, self.task])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int) -> None:
        t1 = perf_counter_ns()
        self.stack.pop()
        self.spans[idx][2] = t0
        self.spans[idx][3] = t1

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        idx = self._open(layer, name)
        t0 = perf_counter_ns()
        try:
            yield idx
        finally:
            self._close(idx, t0)

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer, name)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0)

        return traced

    def merge(self, spans: list[list], parent: int) -> None:
        """Adopt spans recorded by a child process (same monotonic clock)."""
        base = len(self.spans)
        for layer, name, t0, t1, up, _ in spans:
            self.spans.append([layer, name, t0, t1, parent if up < 0 else base + up, self.task])

    def install(self, extra_modules=()) -> None:
        """Wrap every function in TRACED wherever a module refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "prmi" or n.startswith("prmi.")]
        modules += list(extra_modules)
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"prmi.{layer}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(layer, name, raw.__func__))
                    else:
                        new = self.wrap(layer, name, raw)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                orig = getattr(mod, name)
                new = self.wrap(layer, name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter]:
    """Self time per layer in ns (span time minus its direct children) and call counts."""
    child = [0] * len(spans)
    for layer, name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    per_layer: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (layer, name, t0, t1, _, _) in enumerate(spans):
        per_layer[layer] += t1 - t0 - child[i]
        calls[f"{layer}.{name}"] += 1
    return dict(per_layer), calls


# ---------------------------------------------------------------- probes


def median_us(fn, budget_s: float = 0.05, min_reps: int = 5, max_reps: int = 200) -> float:
    """Median wall time of one call in microseconds."""
    times = []
    deadline = perf_counter() + budget_s
    while len(times) < min_reps or (len(times) < max_reps and perf_counter() < deadline):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def _mean_over(inputs, fn) -> float:
    return statistics.fmean(fn(i) for i in inputs)


def _simplex_points(k: int, step: float) -> int:
    m = round(1.0 / step)
    return {1: 1, 2: m + 1, 3: (m + 1) * (m + 2) // 2}[k]


def scan_bytes_per_eval(n: int, m: int, have_numba: bool) -> float:
    """Computed bytes moved per pair evaluation by ``row_extremes`` on float32 (n,4) x (m,4).

    The numpy path multiplies row blocks of (1 << 24) // m rows into a float32
    block (written, then read by the reduction); the compiled path streams C
    once per row and keeps the running extreme in a register.
    """
    if have_numba:
        total = n * (16 + 16 * m + 4)
    else:
        rows = max(1, (1 << 24) // max(m, 1))
        total = 0
        for lo in range(0, n, rows):
            r = min(rows, n - lo)
            total += 16 * r + 16 * m + 4 * r * m * 2 + 4 * r
    return total / (n * m)


def probe(workload, out_dir: Path) -> dict[str, tuple[float, str]]:
    """Every per-layer probe metric, timed on the workload's own inputs."""
    import numpy as np

    from prmi import (
        AmConfig,
        BipartiteState,
        algorithm1,
        algorithm2,
        cc_embed,
        eig_hermitian,
        grid_min_classical,
        linear_constants,
        min_nonzero_eig,
        power_on_support,
        run_uncertified,
        run_uncertified_classical,
        sublinear_constants,
    )
    from prmi import _scan, cli
    from prmi.classical_rmi import classical_linear_constants

    from workloads import ORACLE_ALPHAS, STEP_2X2, STEP_3X3, eps0, write_state_json

    out: dict[str, tuple[float, str]] = {}
    raws = workload.states
    states = [s.state() for s in raws]
    pmfs = [p.raw for p in workload.pmfs]

    out["operator_core.from_matrix_us"] = (
        _mean_over(raws, lambda s: median_us(lambda: BipartiteState.from_matrix(s.raw, s.d_a, s.d_b))),
        "us",
    )
    out["operator_core.eigh_state_us"] = (
        _mean_over(states, lambda s: median_us(lambda: eig_hermitian(s.op))),
        "us",
    )
    out["operator_core.power_on_support_us"] = (
        _mean_over(states, lambda s: median_us(lambda: power_on_support(s.op, 1.5))),
        "us",
    )
    marginals = [s.marginal_a() for s in states]
    out["operator_core.min_nonzero_eig_us"] = (
        _mean_over(marginals, lambda m: median_us(lambda: min_nonzero_eig(m))),
        "us",
    )

    k = 50
    cfg = {a: AmConfig(alpha=a) for a in (0.75, 1.5)}
    cfg_rec = {a: AmConfig(alpha=a, record_states=True) for a in (0.75, 1.5)}

    def runs(s, config, n):
        return median_us(lambda: run_uncertified(s, config, n), budget_s=0.1, min_reps=3)

    setup = [runs(s, cfg[a], 0) for s in states for a in cfg]
    plain = [runs(s, cfg[a], k) for s in states for a in cfg]
    record = [runs(s, cfg_rec[a], k) for s in states for a in cfg]
    out["am_engine.setup_us"] = (statistics.fmean(setup), "us")
    out["am_engine.step_us"] = (statistics.fmean((p - s) / k for p, s in zip(plain, setup)), "us")
    out["am_engine.record_states_us"] = (
        statistics.fmean((r - p) / k for r, p in zip(record, plain)),
        "us",
    )
    out["am_engine.linear_constants_us"] = (
        _mean_over(states, lambda s: median_us(lambda: linear_constants(s, s.marginal_a(), 1.5))),
        "us",
    )
    out["am_engine.sublinear_constants_us"] = (
        _mean_over(states, lambda s: median_us(lambda: sublinear_constants(s, s.marginal_a(), 0.75))),
        "us",
    )

    actual = predicted = sublinear = 0
    for s in states:
        for a in (1.5, 2.0):
            actual += algorithm1(s, AmConfig(alpha=a, eps0=eps0(a))).iterations
            predicted += predicted_iterations(linear_constants(s, s.marginal_a(), a), a, eps0(a))
        sublinear += algorithm2(s, AmConfig(alpha=0.75, eps0=eps0(0.75))).iterations
    out["am_engine.iterations"] = (actual, "count")
    out["am_engine.iterations_predicted"] = (predicted, "count")
    out["am_engine.iterations_sublinear"] = (sublinear, "count")

    ccfg = AmConfig(alpha=1.5)
    c_setup = [median_us(lambda: run_uncertified_classical(p, ccfg, 0)) for p in pmfs]
    c_run = [
        median_us(lambda: run_uncertified_classical(p, ccfg, 10 * k), budget_s=0.1, min_reps=3)
        for p in pmfs
    ]
    out["classical_rmi.step_us"] = (
        statistics.fmean((r - s) / (10 * k) for r, s in zip(c_run, c_setup)),
        "us",
    )
    out["classical_rmi.linear_constants_us"] = (
        _mean_over(pmfs, lambda p: median_us(lambda: classical_linear_constants(p, p.sum(axis=1), 1.5))),
        "us",
    )
    out["classical_rmi.embed_us"] = (_mean_over(pmfs, lambda p: median_us(lambda: cc_embed(p))), "us")

    evaluations = full = 0
    elapsed = 0.0
    for p in pmfs:
        step = STEP_3X3 if p.shape == (3, 3) else STEP_2X2
        for a in ORACLE_ALPHAS:
            t0 = perf_counter()
            result = grid_min_classical(p, a, step)
            elapsed += perf_counter() - t0
            evaluations += result.evaluations
            full += _simplex_points(p.shape[0], step) * _simplex_points(p.shape[1], step)
    out["oracle.evaluations"] = (evaluations, "count")
    out["oracle.pruned_share"] = (1.0 - evaluations / full, "share")
    out["oracle.evals_per_s"] = (evaluations / elapsed, "1/s")

    block = np.random.default_rng(0).random((2, 4096, 4)).astype(np.float32)
    kernel_us = median_us(lambda: _scan.row_extremes(block[0], block[1], False), budget_s=0.3)
    out["scan.row_extremes_evals_per_s"] = (4096 * 4096 / (kernel_us / 1e6), "1/s")
    out["scan.computed_bytes_per_eval"] = (scan_bytes_per_eval(4096, 4096, _scan._HAVE_NUMBA), "B")

    out.update(_cli_probes(raws[0], out_dir, cli, write_state_json))
    return out


def predicted_iterations(consts, alpha: float, eps: float) -> int:
    """A priori n*: first n with (exp((a-1)(1+g) g^(2n) c0) - 1)/(a-1) < eps0 (capped at 10^5)."""
    for n in range(100_000):
        arg = (alpha - 1.0) * (1.0 + consts.gamma) * consts.gamma ** (2 * n) * consts.c0
        if arg <= 700.0 and math.expm1(arg) / (alpha - 1.0) < eps:
            return n
    return 100_000


def _cli_probes(state_input, out_dir: Path, cli, write_state_json) -> dict:
    out = {}
    python = sys.executable

    def wall_ms(cmd) -> float:
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.PIPE, timeout=60)
        return (perf_counter() - t0) * 1e3

    out["cli.interpreter_ms"] = (statistics.median(wall_ms([python, "-c", "pass"]) for _ in range(5)), "ms")
    code = "import time; t = time.perf_counter(); import prmi.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(5):
        done = subprocess.run([python, "-c", code], check=True, stdout=subprocess.PIPE, timeout=60)
        imports.append(float(done.stdout) * 1e3)
    out["cli.import_ms"] = (statistics.median(imports), "ms")

    path = out_dir / "probe-state.json"
    write_state_json(state_input, path)
    argv = [str(path), "--alpha", "1.5", "--alpha", "0.75", "--eps", "1e-4"]
    argv += ["--trace-out", str(out_dir / "probe-trace-{alpha}.json")]

    def main():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"prmi.cli.main exited non-zero on {path}")

    out["cli.main_ms"] = (median_us(main, budget_s=0.2) / 1e3, "ms")
    out["cli.load_state_ms"] = (median_us(lambda: cli.load_state(path)) / 1e3, "ms")
    return out
