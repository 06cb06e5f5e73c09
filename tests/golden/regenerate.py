"""Record the golden outputs that ``tests/test_golden.py`` compares with.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each configuration in ``CONFIGURATIONS`` runs through the command line. Its
CSV and JSON files, but not its ``manifest.json`` (wall time, paths), are
kept in ``tests/golden/<name>/``. ``tests/golden/manifest.json`` records the
configurations and the environment that wrote the files, since only that
environment promises the same bytes.

Regenerating moves golden files, and that is an output change: name each
file and column that moved, and the bugfix or physics decision behind it.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile

import numpy as np

from qworkstats import cli

HERE = os.path.dirname(os.path.abspath(__file__))

# Every subcommand at fib_index <= 10, each state kind, both directions and
# both single-quench models; and the two sweeps at fib_index 14 (N = 377),
# whose N^2 pairs fill more than two blocks of ``tpm.BLOCK_PAIRS``.
CONFIGURATIONS = {
    "lz_sweep": ["lz-sweep", "--grid-points", "41"],
    "aah_hist_zero_to_delta": ["aah-hist", "--fib-index", "9"],
    "aah_hist_delta_to_zero": ["aah-hist", "--fib-index", "9", "--direction", "delta-to-zero"],
    "aah_hist_thermal": ["aah-hist", "--fib-index", "9", "--state", "thermal", "--beta", "1.0"],
    "aah_sweep_ground": ["aah-sweep", "--fib-index", "10", "--grid-points", "6"],
    "aah_sweep_eigenstate": ["aah-sweep", "--fib-index", "10", "--grid-points", "6",
                             "--state", "eigenstate", "--level", "3",
                             "--direction", "delta-to-zero"],
    "aah_sweep_thermal": ["aah-sweep", "--fib-index", "10", "--grid-points", "6",
                          "--state", "thermal", "--beta", "1.0"],
    "aah_sweep_default_grid": ["aah-sweep", "--fib-index", "8"],
    "thermal_sweep": ["thermal-sweep", "--fib-index", "9", "--grid-values", "0.5,1.5,2.5,3.5"],
    "coherence_map": ["coherence-map", "--fib-index", "9", "--grid-points", "4"],
    "aah_scaling": ["aah-scaling", "--fib-min", "6", "--fib-max", "8", "--eta-samples", "3"],
    "aah_scaling_cluster_tol": ["aah-scaling", "--fib-min", "6", "--fib-max", "8",
                                "--eta-samples", "3", "--cluster-tol", "0.05"],
    "bandwidth_fit": ["bandwidth-fit", "--fib-index", "9", "--grid-points", "4",
                      "--eta-samples", "3"],
    "single_quench_two_level": ["single-quench", "--omega-i=-4", "--omega-f", "4",
                                "--state", "thermal", "--beta", "0.5"],
    "single_quench_chain": ["single-quench", "--fib-index", "9", "--delta", "2.5",
                            "--eta", "0.7"],
    "aah_sweep_ground_377": ["aah-sweep", "--fib-index", "14", "--grid-values", "1.5,2.5"],
    "aah_sweep_ground_377_delta_to_zero": ["aah-sweep", "--fib-index", "14",
                                           "--grid-values", "1.5,2.5",
                                           "--direction", "delta-to-zero"],
    "thermal_sweep_377": ["thermal-sweep", "--fib-index", "14", "--grid-values", "1.5,2.5"],
}


def _blas_core() -> str | None:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return None


def environment() -> dict:
    """What the bytes of a run depend on besides its configuration."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": cli._blas_record(),
        "blas_core": _blas_core(),
    }


def outputs(argv: list[str], out: str) -> dict[str, bytes]:
    """Run one configuration into ``out``: its files other than the manifest."""
    status = cli.main([*argv, "--out", out])
    if status != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with status {status}")
    files = {}
    for name in sorted(os.listdir(out)):
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as stream:
                files[name] = stream.read()
    return files


def main() -> int:
    for name, argv in CONFIGURATIONS.items():
        with tempfile.TemporaryDirectory() as scratch:
            files = outputs(argv, scratch)
        target = os.path.join(HERE, name)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        for file, data in files.items():
            with open(os.path.join(target, file), "wb") as stream:
                stream.write(data)
    manifest = {"environment": environment(), "configurations": CONFIGURATIONS}
    with open(os.path.join(HERE, "manifest.json"), "w") as stream:
        stream.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
