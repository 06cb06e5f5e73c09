"""The benchmark's own random-suite check, run in-process at its reference seed.

``benchmark/workloads.py`` runs 1000 small coherent quenches and compares
every report field with the stored reference to 1e-9 relative. Running
that check here holds every change of the program to it.
"""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    name = "benchmark_workloads"
    if name not in sys.modules:
        path = os.path.join(ROOT, "benchmark", "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # the dataclasses in it look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_random_suite_passes_the_benchmark_check_at_the_reference_seed(tmp_path):
    workloads = _workloads()
    workload = workloads.WORKLOADS["random_suite"]
    seed = workloads.DEFAULT_SEED
    raw = workload.prepare(seed, str(tmp_path))
    table, messages = workload.extract(raw, workload.execute(raw, None))
    failed, messages = workloads.check(workload, seed, table, messages)
    assert failed == 0, messages[:5]
    assert len(table["rows"]) == workload.quenches
