"""Seeded workloads: raw inputs, timed tasks and the correctness gate.

Inputs come from ``numpy.random.default_rng(seed)`` and the public ``prmi``
API only (``random_density``, ``BipartiteState``, ``JointPmf``), so the same
seed always gives the same inputs.  Each task is one call a user would make
and wait for; the loop in ``worker.py`` sends the next task only after the
previous one returned (closed loop, one caller, one process).

The gate checks every task against references that do not run the
alternating iteration: zero from below, the divergence at a seeded random
product state from above, exact values for maximally correlated and product
states, and the grid oracles for ``oracle_grid``.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from prmi import (
    AmConfig,
    BipartiteState,
    HermitianOperator,
    JointPmf,
    algorithm1,
    algorithm2,
    algorithm_classical,
    d_alpha,
    grid_min_classical,
    grid_min_quantum_qubit,
    random_density,
)

CERTIFICATE = "certificate"
QUANTUM_ALPHAS = (0.6, 0.75, 0.9, 1.25, 1.5, 2.0)
CLASSICAL_ALPHAS = QUANTUM_ALPHAS + (4.0,)
LARGE_ALPHAS = (0.75, 1.5, 2.0)
ORACLE_ALPHAS = (0.75, 1.5, 2.0, 4.0)
QUBIT_ALPHAS = (0.75, 1.5)
STEP_3X3 = 1e-2
STEP_2X2 = 1e-3
STEP_QUBIT = 0.05
CLI_ALPHAS = (0.75, 1.5, 2.0)
CLI_CLASSICAL_ALPHAS = (0.75, 1.5, 4.0)
CLI_EPS = 1e-4
NEAR_SINGULAR_ETAS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def eps0(alpha: float) -> float:
    """Target accuracy per order, as in the acceptance suite."""
    return 1e-6 if alpha > 1 else 1e-4


@dataclass
class Input:
    """One raw input: a density matrix on A⊗B or a joint PMF."""

    label: str
    raw: np.ndarray
    d_a: int
    d_b: int
    classical: bool = False
    exact: float | None = None  # known value of the information, if any

    def operator(self) -> HermitianOperator:
        if self.classical:
            return HermitianOperator.diagonal(self.raw.ravel())
        return HermitianOperator.from_entries(self.raw)

    def state(self) -> BipartiteState:
        if self.classical:
            return BipartiteState.from_operator(self.operator(), self.d_a, self.d_b)
        return BipartiteState.from_matrix(self.raw, self.d_a, self.d_b)


@dataclass
class Task:
    """A timed call plus the untimed steps around it.

    ``run`` is the only timed part.  ``collect`` turns its output into a small
    record right after the call (it may read files the call wrote);
    ``check`` runs after the timed phase and returns the solve statuses and
    any problems found.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[str]]]
    collect: Callable[[object], object] = lambda out: out
    traced_run: Callable[[], object] | None = None
    span_file: Path | None = None  # spans a traced subprocess leaves behind
    iterations: Callable[[object], int] = lambda rec: 0


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    engine: bool  # whether tasks run alternating-minimization iterations
    states: list[Input] = field(default_factory=list)  # probe inputs
    pmfs: list[Input] = field(default_factory=list)
    in_subprocess: bool = False  # tasks run as child processes


# ---------------------------------------------------------------- inputs


def _normalized(mat: np.ndarray) -> np.ndarray:
    return mat / np.trace(mat).real


def full_rank(d_a: int, d_b: int, rng: np.random.Generator) -> Input:
    raw = np.array(random_density(d_a * d_b, rng).entries)
    return Input(f"full {d_a}x{d_b}", raw, d_a, d_b)


def rank_deficient(d_a: int, d_b: int, rank: int, rng: np.random.Generator) -> Input:
    raw = np.array(random_density(d_a * d_b, rng, rank=rank).entries)
    return Input(f"rank{rank} {d_a}x{d_b}", raw, d_a, d_b)


def _max_correlated(d: int) -> np.ndarray:
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for x in range(d):
        mat[x * d + x, x * d + x] = 1.0 / d
    return mat


def near_singular(d: int, eta: float, rng: np.random.Generator) -> Input:
    """Maximally correlated state plus eta times a Ginibre density matrix."""
    noise = np.array(random_density(d * d, rng).entries)
    raw = _normalized(_max_correlated(d) + eta * noise)
    return Input(f"mc+{eta:.0e} {d}x{d}", raw, d, d)


def max_correlated(d: int) -> Input:
    return Input(f"mc {d}x{d}", _max_correlated(d), d, d, exact=math.log(d))


def product(d_a: int, d_b: int, rng: np.random.Generator) -> Input:
    a = random_density(d_a, rng).entries
    b = random_density(d_b, rng).entries
    return Input(f"product {d_a}x{d_b}", np.kron(a, b), d_a, d_b, exact=0.0)


def pmf(nx: int, ny: int, rng: np.random.Generator) -> Input:
    p = rng.random((nx, ny)) + 0.05
    return Input(f"pmf {nx}x{ny}", p / p.sum(), nx, ny, classical=True)


# ---------------------------------------------------------------- gate


class References:
    """Upper bounds d_alpha(rho || sigma ⊗ tau) at a seeded random product state.

    Computed lazily and cached per (input, alpha), outside every timed call.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 0x5EF])
        self._products: dict[int, HermitianOperator] = {}
        self._values: dict[tuple[int, float], float] = {}

    def upper(self, inp: Input, alpha: float) -> float:
        key = (id(inp), alpha)
        if key not in self._values:
            if id(inp) not in self._products:
                s = random_density(inp.d_a, self._rng).entries
                t = random_density(inp.d_b, self._rng).entries
                self._products[id(inp)] = HermitianOperator.from_entries(np.kron(s, t))
            self._values[key] = d_alpha(inp.operator(), self._products[id(inp)], alpha)
        return self._values[key]

    def problems(self, inp: Input, alpha: float, x: float, eps: float | None = None) -> list[str]:
        """Bounds every certified value must meet, within eps (default eps0(alpha))."""
        eps = eps0(alpha) if eps is None else eps
        out = []
        if not x >= -eps:
            out.append(f"{inp.label} alpha={alpha}: x={x:.3e} below -eps")
        upper = self.upper(inp, alpha)
        if not x - eps <= upper:
            out.append(f"{inp.label} alpha={alpha}: x={x:.9g} above product bound {upper:.9g}")
        if inp.exact is not None and not abs(x - inp.exact) <= eps:
            out.append(f"{inp.label} alpha={alpha}: x={x:.9g} != exact {inp.exact:.9g}")
        return out


def _solve(state: BipartiteState, alpha: float):
    config = AmConfig(alpha=alpha, eps0=eps0(alpha))
    return (algorithm1 if alpha > 1 else algorithm2)(state, config)


def _sweep(solve: Callable[[float], object], alphas) -> list[tuple]:
    """Run one solve per alpha; a solve that raises is recorded, not fatal."""
    out = []
    for alpha in alphas:
        try:
            trace = solve(alpha)
        except Exception as exc:  # counted as a failed solve by the gate
            out.append((alpha, math.nan, type(exc).__name__, 0))
            continue
        out.append((alpha, trace.final_x, trace.terminated_by, trace.iterations))
    return out


def _check_sweep(inp: Input, refs: References):
    def check(rec):
        statuses, problems = [], []
        for alpha, x, status, _ in rec:
            statuses.append(status)
            if status != CERTIFICATE:
                problems.append(f"{inp.label} alpha={alpha}: ended with {status}")
            else:
                problems += refs.problems(inp, alpha, x)
        return statuses, problems

    return check


def sweep_task(inp: Input, alphas, refs: References) -> Task:
    """Validate the raw input, then run a certified alpha sweep."""
    if inp.classical:

        def run():
            p = JointPmf.from_weights(inp.raw)
            return _sweep(
                lambda a: algorithm_classical(p, AmConfig(alpha=a, eps0=eps0(a))), alphas
            )

    else:

        def run():
            rho = BipartiteState.from_matrix(inp.raw, inp.d_a, inp.d_b)
            return _sweep(lambda a: _solve(rho, a), alphas)

    return Task(
        inp.label,
        run,
        _check_sweep(inp, refs),
        iterations=lambda rec: sum(r[3] for r in rec),
    )


def oracle_task(inp: Input, alpha: float, step: float) -> Task:
    """One grid-oracle call; the engine solve it is checked against is untimed."""
    if inp.classical:
        weights = inp.raw

        def run():
            return grid_min_classical(weights, alpha, step)

        @functools.cache
        def engine():
            return algorithm_classical(
                JointPmf.from_weights(inp.raw), AmConfig(alpha=alpha, eps0=eps0(alpha))
            )

    else:
        state = inp.state()

        def run():
            return grid_min_quantum_qubit(state, alpha, step)

        @functools.cache
        def engine():
            return _solve(state, alpha)

    def check(rec):
        solved = engine()
        problems = []
        if solved.terminated_by != CERTIFICATE:
            problems.append(f"{inp.label} alpha={alpha}: engine ended with {solved.terminated_by}")
        gap = abs(solved.final_x - rec.min_value)
        if not gap <= eps0(alpha) + 10 * step:
            problems.append(f"{inp.label} alpha={alpha}: |engine - oracle| = {gap:.3e}")
        return [CERTIFICATE], problems

    return Task(f"oracle {inp.label} alpha={alpha}", run, check)


# ---------------------------------------------------------------- CLI files


def write_state_json(inp: Input, path: Path) -> None:
    """State file in the schema documented by ``prmi.cli``."""
    rows = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in inp.raw]
    path.write_text(json.dumps({"d_a": inp.d_a, "d_b": inp.d_b, "matrix": rows}))


def write_pmf_csv(inp: Input, path: Path) -> None:
    np.savetxt(path, inp.raw, delimiter=",", fmt="%.17g")


def cli_task(
    inp: Input, path: Path, alphas, out_dir: Path, refs: References, bench_dir: Path
) -> Task:
    """One ``python -m prmi.cli`` process sweeping the given orders."""
    pattern = out_dir / f"trace-{path.stem}-{{alpha}}.json"
    args = [str(path)]
    for alpha in alphas:
        args += ["--alpha", repr(alpha)]
    args += ["--eps", repr(CLI_EPS), "--trace-out", str(pattern)]
    if inp.classical:
        args += ["--mode", "classical"]
    outputs = [Path(str(pattern).replace("{alpha}", f"{a:g}")) for a in alphas]
    span_file = out_dir / f"spans-{path.stem}.json"

    def call(cmd):
        def run():
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
            return done.returncode, done.stderr.decode(errors="replace")[-300:]

        return run

    def collect(out):
        code, err = out
        docs = []
        for p in outputs:
            try:
                docs.append(json.loads(p.read_text()))
                p.unlink()
            except (OSError, ValueError) as exc:
                docs.append(f"{p.name}: {type(exc).__name__}")
        return code, err, docs

    def check(rec):
        code, err, docs = rec
        problems = [] if code == 0 else [f"{path.name}: exit {code}: {err.strip()}"]
        statuses = []
        for alpha, doc in zip(alphas, docs):
            if isinstance(doc, str):
                statuses.append("unparsed")
                problems.append(doc)
                continue
            statuses.append(doc.get("terminated_by"))
            if doc.get("terminated_by") != CERTIFICATE:
                problems.append(f"{path.name} alpha={alpha}: {doc.get('terminated_by')}")
            else:
                problems += refs.problems(inp, alpha, doc["final_x"], CLI_EPS)
        return statuses, problems

    def iterations(rec):
        return sum(doc["records"][-1]["n"] for doc in rec[2] if isinstance(doc, dict))

    python = sys.executable
    return Task(
        f"cli {path.name}",
        call([python, "-m", "prmi.cli", *args]),
        check,
        collect,
        traced_run=call([python, str(bench_dir / "traced_cli.py"), str(span_file), *args]),
        span_file=span_file,
        iterations=iterations,
    )


# ---------------------------------------------------------------- workloads


def _interleave(groups: list[list[Task]]) -> list[Task]:
    """Round-robin over groups so a run cut mid-cycle keeps the mix."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def desk_sweep(seed: int, out_dir: Path, bench_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    refs = References(seed)
    full = [full_rank(a, b, rng) for a, b in [(2, 2), (2, 3), (3, 3), (4, 4)] for _ in range(3)]
    deficient = [
        rank_deficient(a, b, r, rng) for a, b, r in [(2, 2, 2), (2, 3, 3), (3, 3, 5), (4, 4, 8)]
    ]
    singular = [near_singular(d, eta, rng) for d in (2, 3, 4) for eta in NEAR_SINGULAR_ETAS]
    exact = [max_correlated(d) for d in (2, 3, 4)]
    exact += [product(a, b, rng) for a, b in [(2, 2), (2, 3), (3, 3)]]
    pmfs = [pmf(n, n, rng) for n in (2, 3) for _ in range(3)]
    groups = [
        [sweep_task(i, QUANTUM_ALPHAS, refs) for i in full],
        [sweep_task(i, QUANTUM_ALPHAS, refs) for i in singular],
        [sweep_task(i, QUANTUM_ALPHAS, refs) for i in deficient + exact],
        [sweep_task(i, CLASSICAL_ALPHAS, refs) for i in pmfs],
    ]
    return Workload("desk_sweep", _interleave(groups), True, full[::3], pmfs[::3])


def large_state(seed: int, out_dir: Path, bench_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    refs = References(seed)
    states = [full_rank(d, d, rng) for _ in range(2) for d in (8, 12, 16)]
    tasks = [sweep_task(i, LARGE_ALPHAS, refs) for i in states]
    return Workload("large_state", tasks, True, states[:3], [pmf(3, 3, rng)])


def oracle_grid(seed: int, out_dir: Path, bench_dir: Path) -> Workload:
    """Per cycle: 2 qubit calls, 8 calls on two 2x2 PMFs and 32 on eight 3x3 PMFs.

    Every PMF is scanned at every order.  The median task is a pruned 3x3
    scan drawn from many PMFs, while the two unpruned qubit scans take about
    half the time.
    """
    rng = np.random.default_rng(seed)
    qubit = full_rank(2, 2, rng)
    pmfs3 = [pmf(3, 3, rng) for _ in range(8)]
    pmfs2 = [pmf(2, 2, rng) for _ in range(2)]
    qubit_calls = [oracle_task(qubit, a, STEP_QUBIT) for a in QUBIT_ALPHAS]
    calls_2x2 = [oracle_task(p, a, STEP_2X2) for p in pmfs2 for a in ORACLE_ALPHAS]
    calls_3x3 = [oracle_task(p, a, STEP_3X3) for p in pmfs3 for a in ORACLE_ALPHAS]
    tasks = _interleave([qubit_calls, calls_3x3[:16], calls_2x2, calls_3x3[16:]])
    return Workload("oracle_grid", tasks, False, [qubit], pmfs3[:2])


def cli_process(seed: int, out_dir: Path, bench_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    refs = References(seed)
    small, large, weights = full_rank(2, 2, rng), full_rank(8, 8, rng), pmf(3, 3, rng)
    paths = [out_dir / "state-2x2.json", out_dir / "state-8x8.json", out_dir / "pmf-3x3.csv"]
    write_state_json(small, paths[0])
    write_state_json(large, paths[1])
    write_pmf_csv(weights, paths[2])
    tasks = [
        cli_task(small, paths[0], CLI_ALPHAS, out_dir, refs, bench_dir),
        cli_task(large, paths[1], CLI_ALPHAS, out_dir, refs, bench_dir),
        cli_task(weights, paths[2], CLI_CLASSICAL_ALPHAS, out_dir, refs, bench_dir),
    ]
    return Workload("cli_process", tasks, True, [small, large], [weights], in_subprocess=True)


BUILDERS = {
    "desk_sweep": desk_sweep,
    "large_state": large_state,
    "oracle_grid": oracle_grid,
    "cli_process": cli_process,
}
