"""Every ``desk_sweep`` task of the benchmark passes its own correctness gate.

A benchmark run is refused when its gate finds one problem on any task, and
the run's seed is chosen per run, so a catalog input that a change no longer
certifies surfaces there first.  This runs each ``desk_sweep`` task of seeds
1-20 once through its ``check``.  ``bench/workloads.py`` is loaded by path, as
``test_bench_layers.py`` loads ``layers.py``; it is not edited here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", range(1, 21))
def test_desk_sweep_catalog_passes_its_gate(workloads, seed, tmp_path):
    workload = workloads.desk_sweep(seed, tmp_path, tmp_path)
    problems = []
    for task in workload.tasks:
        problems += task.check(task.collect(task.run()))[1]
    assert problems == []
