"""Command-line front end: load states or PMFs, run certified minimization, emit traces.

State files are JSON objects ``{"d_a": int, "d_b": int, "matrix": [[{"re": x,
"im": y}, ...], ...]}`` row-major in the product basis with the B index
fastest, the dimensions JSON integers and each x, y a JSON number; PMFs are
CSV matrices of nonnegative floats.  One JSON trace document is written per
alpha.

Each order runs ``algorithm_classical`` in classical mode, else ``algorithm1``
above order one and ``algorithm2`` below it; which orders have a certificate
is the engine's rule (``am_engine._certificate``).  An order without one is an
error unless ``--uncertified`` is given, which runs the plain iteration for
``--max-iter`` steps instead.

Exit codes: 0 when every run terminated on its certificate, 2 on validation
or range errors, on two orders whose trace paths coincide (checked before
any solve), when an iterate leaves its support above order one
(``DomainViolation``) and when an order's powers leave the float64 range
(``FloatingPointError``, which names where it shows), 3 when an iteration
cap was hit without a certificate, 4 when a trace document could not be
written.  Each solve runs with numpy's floating-point warnings off, so such
an order reports one error line, not a warning per operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .am_engine import (
    AmConfig,
    ConvergenceTrace,
    MonotonicityViolation,
    NoCertificate,
    OrthogonalInitializer,
    TERMINATED_CERTIFICATE,
    algorithm1,
    algorithm2,
    run_uncertified,
)
from .classical_rmi import (
    JointPmf,
    Pmf,
    algorithm_classical,
    run_uncertified_classical,
)
from .operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    DimMismatch,
    HermitianOperator,
    InvalidOperator,
    SupportCutoff,
)
from .petz_divergence import DomainViolation

SUPPORT_TOL_ENV = "PRMI_SUPPORT_TOL"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CERTIFICATE = 3
EXIT_IO = 4


class ParseError(Exception):
    """Input file could not be parsed into the expected structure."""


class ValidationError(Exception):
    """Input parsed but violates a named invariant."""

    def __init__(self, invariant: str, detail: str = "") -> None:
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}" if detail else invariant)


def _number(value) -> int | float:
    """A real or imaginary part as the file gives it: a JSON number, not a bool or a string."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _matrix_from_json(obj) -> np.ndarray:
    try:
        rows = [
            [complex(_number(cell["re"]), _number(cell.get("im", 0.0))) for cell in row]
            for row in obj
        ]
    except (TypeError, KeyError, OverflowError) as exc:
        raise ParseError(f"matrix entries must be objects with 're'/'im': {exc}")
    try:
        return np.array(rows, dtype=np.complex128)
    except ValueError as exc:
        raise ParseError(f"matrix rows must have equal lengths: {exc}")


def _operator(mat: np.ndarray) -> HermitianOperator:
    """A parsed matrix as a Hermitian operator, naming the invariant it breaks."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParseError(f"matrix must be square, got shape {mat.shape}")
    try:
        return HermitianOperator.from_entries(mat)
    except InvalidOperator as exc:
        raise ValidationError("finiteness" if "non-finite" in str(exc) else "hermiticity", str(exc))


def _dimension(data: dict, key: str) -> int:
    """A subsystem dimension as the state file gives it: a JSON integer, not a float or bool."""
    value = data[key]
    if type(value) is not int:
        raise ParseError(f"{key} must be an integer, got {value!r}")
    return value


def _read_matrix_file(
    path: str | Path, kind: str, dims: tuple[str, ...] = ()
) -> tuple[list[int], HermitianOperator]:
    """The integer ``dims`` of a JSON ``kind`` file, then its matrix as an operator."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}")
    if not isinstance(data, dict) or not {*dims, "matrix"} <= set(data):
        needed = f"{', '.join(dims)} and matrix" if dims else "a matrix"
        raise ParseError(f"{kind} file must contain {needed}")
    return [_dimension(data, key) for key in dims], _operator(_matrix_from_json(data["matrix"]))


def load_state(path: str | Path) -> BipartiteState:
    """Read and validate a bipartite state file."""
    (d_a, d_b), op = _read_matrix_file(path, "state", ("d_a", "d_b"))
    try:
        return BipartiteState.from_operator(op, d_a, d_b)
    except DimMismatch as exc:
        raise ValidationError("dim", str(exc))
    except InvalidOperator as exc:
        invariant = "trace" if "trace" in str(exc) else "psd"
        raise ValidationError(invariant, str(exc))


def save_state(state: BipartiteState, path: str | Path) -> None:
    """Write a state in the same JSON schema that :func:`load_state` reads."""
    mat = state.op.entries
    doc = {
        "d_a": state.d_a,
        "d_b": state.d_b,
        "matrix": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in mat
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_operator(path: str | Path) -> HermitianOperator:
    """Read a Hermitian operator (initializer) from the state JSON schema."""
    return _read_matrix_file(path, "operator")[1]


def _pmf_invalid(exc: ValueError) -> ValidationError:
    """The invariant a rejected PMF breaks: its sum, else its signs."""
    return ValidationError("normalization" if "sum" in str(exc) else "nonnegativity", str(exc))


def _read_csv(path: str | Path) -> np.ndarray:
    """The rows of a CSV matrix of floats; a single line is one row."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as a parse error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read PMF file {path}: {exc}")
    if raw.size == 0:
        raise ParseError(f"PMF file {path} holds no data")
    return raw


def load_pmf(path: str | Path) -> JointPmf:
    """Read a joint PMF from a CSV matrix of nonnegative floats."""
    raw = _read_csv(path)
    try:
        return JointPmf.from_weights(raw)
    except ValueError as exc:
        raise _pmf_invalid(exc)


def load_init_pmf(path: str | Path) -> HermitianOperator:
    """Read a classical initializer (one CSV row) as the diagonal operator ``AmConfig`` takes."""
    raw = _read_csv(path)
    if raw.shape[0] != 1:
        raise ParseError(f"initializer file {path} must hold one CSV row, got {raw.shape[0]}")
    try:
        return HermitianOperator.diagonal(Pmf.from_weights(raw[0]).weights)
    except ValueError as exc:
        raise _pmf_invalid(exc)


def _trace_document(trace: ConvergenceTrace) -> dict:
    def clean(eps: float | None) -> float | None:
        if eps is None or not math.isfinite(eps):
            return None
        return eps

    return {
        "alpha": trace.alpha,
        "final_x": trace.final_x,
        "terminated_by": trace.terminated_by,
        "records": [
            {
                "n": r.n,
                "x_n": r.x_n,
                "eps_n": clean(r.eps_n),
                "q_n": r.q_n,
                "wall_ms": r.wall_time * 1000.0,
            }
            for r in trace.records
        ],
    }


def _trace_path_for(base: str, alpha: float, multiple: bool) -> Path:
    path = Path(base)
    if "{alpha}" in base:
        return Path(base.replace("{alpha}", f"{alpha:g}"))
    if not multiple:
        return path
    return path.with_name(f"{path.stem}-alpha-{alpha:g}{path.suffix or '.json'}")


def _solve(
    data: BipartiteState | JointPmf, config: AmConfig, uncertified: bool
) -> ConvergenceTrace:
    """The certified run of one order, or the plain one if it has none and ``uncertified``."""
    classical = isinstance(data, JointPmf)
    try:
        if classical:
            return algorithm_classical(data, config)
        return (algorithm1 if config.alpha > 1.0 else algorithm2)(data, config)
    except NoCertificate as exc:
        if not uncertified:
            raise ValidationError("alpha_range", f"{exc}; pass --uncertified to iterate anyway")
    plain = run_uncertified_classical if classical else run_uncertified
    return plain(data, config, config.max_iter)


def _support_cutoff() -> SupportCutoff:
    raw = os.environ.get(SUPPORT_TOL_ENV)
    if raw is None:
        return DEFAULT_CUT
    try:
        return SupportCutoff(float(raw))
    except ValueError as exc:
        raise ValidationError("support_tol", f"{SUPPORT_TOL_ENV}={raw!r}: {exc}")


def run(args: argparse.Namespace) -> int:
    """Execute each requested alpha of parsed arguments; returns the process exit code."""
    multiple = len(args.alpha) > 1
    outs = [_trace_path_for(args.trace_out, alpha, multiple) for alpha in args.alpha]
    first = {}
    for alpha, out in zip(args.alpha, outs):
        if out in first:
            print(
                f"error: --alpha {first[out]!r} and --alpha {alpha!r} both write trace {out}",
                file=sys.stderr,
            )
            return EXIT_INVALID
        first[out] = alpha
    classical = args.mode == "classical"
    init = args.init
    try:
        cut = _support_cutoff()
        if init.startswith("file:"):
            init = (load_init_pmf if classical else load_operator)(init[len("file:") :])
        data = load_pmf(args.input) if classical else load_state(args.input)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    all_certified = True
    for alpha, out in zip(args.alpha, outs):
        try:
            config = AmConfig(
                alpha=alpha, eps0=args.eps, init=init, max_iter=args.max_iter, cut=cut
            )
            with np.errstate(all="ignore"):
                trace = _solve(data, config, args.uncertified)
        except (
            ValidationError,
            ValueError,
            FloatingPointError,
            InvalidOperator,
            DomainViolation,
            OrthogonalInitializer,
            MonotonicityViolation,
        ) as exc:
            print(f"error: alpha={alpha:g}: {exc}", file=sys.stderr)
            return EXIT_INVALID

        try:
            out.write_text(json.dumps(_trace_document(trace), indent=1))
        except OSError as exc:
            print(f"error: alpha={alpha:g}: cannot write trace {out}: {exc}", file=sys.stderr)
            return EXIT_IO
        last = trace.records[-1]
        eps_str = "n/a" if last.eps_n is None else f"{last.eps_n:.3e}"
        print(
            f"alpha={alpha:g} final_x={trace.final_x:.9g} eps={eps_str} "
            f"iterations={last.n} terminated_by={trace.terminated_by}"
        )
        all_certified &= trace.terminated_by == TERMINATED_CERTIFICATE
    return EXIT_OK if all_certified else EXIT_NO_CERTIFICATE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="prmi",
        description=(
            "Compute the doubly minimized Petz-Renyi mutual information of a "
            "bipartite state (or joint PMF) by alternating minimization with "
            "certified stopping rules."
        ),
    )
    p.add_argument("input", help="state JSON (quantum mode) or PMF CSV (classical mode)")
    p.add_argument("--mode", choices=("quantum", "classical"), default="quantum")
    p.add_argument(
        "--alpha",
        type=float,
        action="append",
        required=True,
        help="Renyi order; repeat the flag for a sweep",
    )
    p.add_argument("--eps", type=float, default=1e-6, help="target accuracy eps0")
    p.add_argument(
        "--init",
        default="marginal",
        help="initializer: marginal | uniform | file:PATH",
    )
    p.add_argument("--trace-out", default="trace.json", help="trace output path")
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument(
        "--uncertified",
        action="store_true",
        help="allow plain iteration for orders without a certificate",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
