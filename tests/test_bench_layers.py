"""``bench/layers.py`` names ``prmi`` functions by string; keep those names resolvable.

A rename or deletion in ``src`` would otherwise break only ``--trace 1``
bench runs, and only when someone makes one.  The module imports nothing but
the standard library at load time, so it is loaded here by path.  Besides the
``TRACED`` strings, its probes import ``prmi`` names inside functions and read
attributes off imported ``prmi`` modules; those are found in its syntax tree.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import prmi
import prmi._scan
import prmi.cli
import prmi.oracle  # loaded on first use; Tracer.install imports it
from conftest import random_state

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layers) -> dict:
    """Every name bound in a loaded ``prmi`` module or in a traced class."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "prmi" or mod_name.startswith("prmi."):
            out.update({(mod_name, key): value for key, value in vars(mod).items()})
    for layer, names in layers.TRACED.items():
        for name in names:
            if "." in name:
                cls = getattr(importlib.import_module(f"prmi.{layer}"), name.split(".")[0])
                out.update({(cls, key): value for key, value in vars(cls).items()})
    return out


def test_traced_names_resolve(layers):
    missing = []
    for layer, names in layers.TRACED.items():
        mod = importlib.import_module(f"prmi.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            if owner:
                found = attr in vars(getattr(mod, owner, object))
            else:
                found = callable(getattr(mod, attr, None))
            if not found:
                missing.append(f"prmi.{layer}.{name}")
    assert not missing


def test_tracer_install_round_trips(layers, rng):
    before = _bindings(layers)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert prmi.run_uncertified is not before[("prmi", "run_uncertified")]
        prmi.run_uncertified(random_state(2, 2, rng), prmi.AmConfig(alpha=1.5), 2)
    finally:
        tracer.uninstall()
    assert ("am_engine", "run_uncertified") in {(s[0], s[1]) for s in tracer.spans}
    after = _bindings(layers)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def _prmi_reads(tree: ast.AST) -> set[str]:
    """Dotted ``prmi`` names imported, or read as attributes of an imported ``prmi`` name."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "prmi":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "prmi":
                    bound[alias.asname or alias.name] = alias.name
    reads = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                reads.add(f"{bound[node.value.id]}.{node.attr}")
    return reads


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_untraced_prmi_reads_resolve():
    reads = _prmi_reads(ast.parse(LAYERS_PATH.read_text()))
    # The walk must see the reads that no TRACED string names.
    assert {"prmi.classical_rmi.classical_linear_constants", "prmi._scan._HAVE_NUMBA"} <= reads
    assert sorted(name for name in reads if not _resolves(name)) == []
