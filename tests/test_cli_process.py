"""The ``prmi`` CLI as a process: ``python -m prmi.cli`` and the package import.

``tests/test_cli.py`` calls ``main`` in-process; these tests start fresh
interpreters, so they cover the process entry (``cli.process_main``, which
freezes the import heap before ``main``) and what ``import prmi.cli`` loads.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import random_state
from prmi import cli
from prmi.cli import EXIT_INVALID, EXIT_OK, main, save_state

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, which must exit 0."""
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _sweep_argv(state: Path, trace_out: Path) -> list[str]:
    return [str(state), "--alpha", "1.5", "--alpha", "0.75", "--eps", "1e-4", "--trace-out", str(trace_out)]


def _without_wall_ms(doc: dict) -> dict:
    return {**doc, "records": [{k: v for k, v in r.items() if k != "wall_ms"} for r in doc["records"]]}


def test_sweep_process_matches_main(tmp_path, capsys):
    state = tmp_path / "state.json"
    save_state(random_state(2, 2, np.random.default_rng(3)), state)
    assert main(_sweep_argv(state, tmp_path / "inproc-{alpha}.json")) == EXIT_OK
    expected = capsys.readouterr().out.splitlines()

    done = _python("-m", "prmi.cli", *_sweep_argv(state, tmp_path / "proc-{alpha}.json"))
    assert done.returncode == EXIT_OK
    assert done.stderr == ""
    assert done.stdout.splitlines() == expected and len(expected) == 2
    for alpha in ("1.5", "0.75"):
        doc = json.loads((tmp_path / f"proc-{alpha}.json").read_text())
        inproc = json.loads((tmp_path / f"inproc-{alpha}.json").read_text())
        assert doc["terminated_by"] == "certificate"
        assert _without_wall_ms(doc) == _without_wall_ms(inproc)


def test_invalid_state_process_exits_two_with_one_line(tmp_path):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps({"d_a": 2, "d_b": 2, "matrix": [[{"re": 1.0, "im": 0.0}]]}))
    trace = tmp_path / "trace.json"
    done = _python("-m", "prmi.cli", str(state), "--alpha", "1.5", "--trace-out", str(trace))
    assert done.returncode == EXIT_INVALID
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert not trace.exists()


def test_process_main_freezes_then_runs_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 7)
    assert cli.process_main() == 7
    assert calls == ["freeze", "main"]


def test_console_script_is_the_process_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^prmi = "(.+)"$', scripts, re.MULTILINE).group(1)
    assert target == "prmi.cli:process_main"


def test_cli_import_leaves_the_oracle_unloaded():
    code = "import sys, prmi.cli; print('prmi.cli' in sys.modules, 'prmi.oracle' in sys.modules)"
    assert _fresh(code) == "True False\n"


def test_oracle_names_resolve_on_first_use():
    code = """
import sys
import prmi
assert "prmi.oracle" not in sys.modules
assert prmi.grid_min_classical.__module__ == "prmi.oracle"
from prmi import OracleResult, TooLarge, grid_min_quantum_qubit, kl_reference
import prmi.oracle as oracle
assert prmi.oracle is oracle and OracleResult is oracle.OracleResult
names = {"oracle", "OracleResult", "TooLarge", "grid_min_classical", "grid_min_quantum_qubit", "kl_reference"}
assert names <= set(dir(prmi)) and names <= set(prmi.__all__)
print("ok")
"""
    assert _fresh(code) == "ok\n"


def test_oracle_module_attribute_loads_it():
    code = "import sys, prmi; m = prmi.oracle; print(m.__name__, m is sys.modules['prmi.oracle'])"
    assert _fresh(code) == "prmi.oracle True\n"


def test_package_namespace_before_the_oracle_loads():
    code = """
import sys
import prmi
from prmi import _scan
assert _scan is sys.modules["prmi._scan"]
try:
    prmi.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
assert "grid_min_classical" in dir(prmi) and "prmi.oracle" not in sys.modules
assert all(hasattr(prmi, name) for name in prmi.__all__)
print("ok")
"""
    assert _fresh(code) == "ok\n"
