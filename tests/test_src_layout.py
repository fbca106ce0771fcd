"""``src/prmi`` holds what a solve, the CLI, the oracles or the bench runs.

Every public top-level function or class of a ``prmi`` module must be
referenced outside its own definition and outside ``__init__``: from another
part of ``src/prmi`` or from a file under ``bench/``.  A reference is a name,
an attribute, an imported name, or a word in a string that is not a
docstring (``bench/layers.py`` lists the functions it traces as strings; the
alpha = 1 error names ``oracle.kl_reference``).  Helpers that only tests use
belong in ``tests/references.py``.

Every eigendecomposition in ``src/prmi`` goes through the kernel pair
``operator_core._eigh``/``_eigvalsh``, the one place that calls LAPACK.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prmi"
BENCH = SRC.parents[1] / "bench"

# The public names no other code calls, each kept as a library primitive.
LIBRARY = {
    "hilbert_metric.d_h": "Hilbert's projective metric on operators, the certificate's distance",
    "classical_rmi.d_alpha_classical": "the Renyi divergence of PMFs, the classical d_alpha",
    "classical_rmi.birkhoff_kappa_classical": "the exact classical Birkhoff rate (ROADMAP item 8)",
    "cli.save_state": "writes the state file format that cli.load_state reads",
}


def _docstrings(tree: ast.AST) -> set[int]:
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _references(nodes, docstrings: set[int]) -> set[str]:
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(re.findall(r"\w+", node.value))
    return names


def _all_references(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return _references(ast.walk(tree), _docstrings(tree))


def _unreferenced() -> set[str]:
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    elsewhere = {p: _all_references(p) for p in modules + sorted(BENCH.rglob("*.py"))}
    found = set()
    for path in modules:
        tree = ast.parse(path.read_text())
        others = set().union(*(refs for p, refs in elsewhere.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            here = _references((n for n in ast.walk(tree) if id(n) not in inside), _docstrings(tree))
            if node.name not in others | here:
                found.add(f"{path.stem}.{node.name}")
    return found


def test_every_public_name_in_src_has_a_caller():
    unreferenced = _unreferenced()
    assert unreferenced - set(LIBRARY) == set(), "test-only code belongs in tests/references.py"
    assert set(LIBRARY) - unreferenced == set(), "a library primitive gained a caller; drop it here"


def _kernel_bypasses(path: Path) -> list[str]:
    """Eigen routines ``path`` reaches other than through the kernel pair.

    That is any ``*.linalg.eig*`` attribute, any ``eig*`` name imported from a
    ``linalg`` module, and, in ``operator_core``, a LAPACK gufunc used outside
    ``_eigh``/``_eigvalsh``.
    """
    tree = ast.parse(path.read_text())
    kernel = {
        id(n)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_eigh", "_eigvalsh")
        for n in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("eig"):
            if "linalg" in ast.unparse(node.value):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            for alias in node.names:
                if alias.name.startswith("eig") and not (
                    path.name == "operator_core.py" and node.module == "numpy.linalg._umath_linalg"
                ):
                    found.append(f"line {node.lineno}: {node.module}.{alias.name}")
        elif isinstance(node, ast.Name) and node.id in ("_eigh_lo", "_eigvalsh_lo"):
            if id(node) not in kernel:
                found.append(f"line {node.lineno}: {node.id} outside the kernel")
    return found


def test_every_eigendecomposition_goes_through_the_kernel():
    bypasses = {p.name: _kernel_bypasses(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in bypasses.items() if found} == {}
