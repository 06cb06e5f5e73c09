"""The benchmark workloads: inputs from a seed, the timed call, the output check.

A workload turns ``(seed, out dir)`` into inputs before timing, runs one
timed call, and extracts its outputs as a table with one row per quench.
The check compares that table with the identities every seed must satisfy
and, at ``DEFAULT_SEED``, with the reference values in ``reference/``.

``qworkstats`` is imported inside the functions: ``run.py`` imports this
module for names and sizes only, and never loads the program itself.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
FIB_INDEX = 16  # N = 987, the production lattice size
AAH_POINTS = 8
THERMAL_DELTAS = (1.5, 2.5)  # either side of the transition at two hoppings
THERMAL_BETAS = 4  # the CLI's default inverse temperatures
RANDOM_SETUPS = 1000

# Reference comparison: relative, with an absolute floor for values near 0.
REL_TOL = 1e-9
ABS_FLOOR = 1e-10
# The program's own slack on its unconditional inequalities.
SLACK = 1e-10
NORMALIZATION_TOL = 1e-12

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def phase_from_seed(seed: int) -> float:
    """AAH potential phase eta, uniform in [0, 2 pi), shared by both sweeps."""
    return float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))


@dataclass(frozen=True)
class Workload:
    """One workload: how to make its inputs, run it, and check what it wrote."""

    name: str
    quenches: int
    prepare: Callable  # (seed, out dir) -> inputs; untimed
    execute: Callable  # (inputs, tracer or None) -> outcome; the timed call
    extract: Callable  # (inputs, outcome) -> (table, messages)
    identities: Callable  # (row dict) -> failure messages
    compared: tuple[str, ...]  # columns checked against the reference
    expected_spans: tuple[str, ...]


# -- output checks ---------------------------------------------------------


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= max(REL_TOL * abs(reference), ABS_FLOOR)


def _bound_chain(row: dict) -> list[str]:
    """Sandwich h_u - ln gamma_max <= h_w <= h_u and h_u = s_diag + avg_coherence."""
    messages = []
    if row["h_w"] > row["h_u"] + SLACK:
        messages.append(f"h_w {row['h_w']!r} above h_u {row['h_u']!r}")
    if row["h_u"] - row["ln_gamma_max"] > row["h_w"] + SLACK:
        messages.append(f"h_w {row['h_w']!r} below h_u - ln gamma_max")
    if abs(row["h_u"] - (row["s_diag"] + row["avg_coherence"])) > SLACK:
        messages.append(f"h_u {row['h_u']!r} != s_diag + avg_coherence")
    return messages


def _ground_switch_on(row: dict) -> list[str]:
    messages = _bound_chain(row)
    if abs(row["m1"]) > ABS_FLOOR:
        messages.append(f"switch-on ground mean work m1 = {row['m1']!r} is not 0")
    if abs(row["m1"] - row["mean_direct"]) > ABS_FLOOR:
        messages.append(f"m1 {row['m1']!r} differs from mean_direct {row['mean_direct']!r}")
    return messages


def _random_identities(row: dict) -> list[str]:
    messages = _bound_chain(row)
    if abs(row["p_total"] - 1.0) > NORMALIZATION_TOL:
        messages.append(f"work probabilities sum to {row['p_total']!r}")
    return messages


def reference_path(workload: Workload) -> str:
    suffix = ".json.gz" if workload.name == "random_suite" else ".json"
    return os.path.join(REFERENCE_DIR, workload.name + suffix)


def load_reference(workload: Workload) -> dict:
    path = reference_path(workload)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as stream:
        return json.load(stream)


def write_reference(workload: Workload, seed: int, table: dict) -> str:
    """Store the compared columns of ``table`` as the reference for ``seed``."""
    index = [table["columns"].index(name) for name in workload.compared]
    record = {
        "seed": seed,
        "columns": list(workload.compared),
        "rows": [[row[i] for i in index] for row in table["rows"]],
    }
    text = json.dumps(record, separators=(",", ":")) + "\n"
    path = reference_path(workload)
    if path.endswith(".gz"):
        with gzip.GzipFile(path, "wb", mtime=0) as stream:  # mtime=0: same bytes each time
            stream.write(text.encode())
    else:
        with open(path, "w") as stream:
            stream.write(text)
    return path


def _matches(value, reference) -> bool:
    if isinstance(reference, list):
        return len(value) == len(reference) and all(map(_close, value, reference))
    return _close(value, reference)


def check(workload: Workload, seed: int, table: dict, messages: list[str]) -> tuple[int, list[str]]:
    """Failed quench count and failure messages for one call's outputs.

    Rows that are missing or None (the quench raised) count as failed, as
    do rows that break an identity or, at the default seed, differ from
    the reference.
    """
    columns = table["columns"]
    rows = table["rows"]
    failed = max(0, workload.quenches - len(rows))
    messages = list(messages)
    if len(rows) != workload.quenches:
        messages.append(f"{len(rows)} output rows for {workload.quenches} quenches")
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    if reference is not None and len(reference["rows"]) != len(rows):
        messages.append(f"{len(rows)} rows, reference has {len(reference['rows'])}")
    for i, values in enumerate(rows):
        if values is None:  # the quench raised; its message is already in
            failed += 1
            continue
        row = dict(zip(columns, values))
        row_messages = workload.identities(row)
        if reference is not None and i < len(reference["rows"]):
            for name, expected in zip(reference["columns"], reference["rows"][i]):
                if not _matches(row[name], expected):
                    row_messages.append(f"{name} = {row[name]!r}, reference {expected!r}")
        if row_messages:
            failed += 1
            messages.extend(f"row {i}: {m}" for m in row_messages)
    return failed, messages


# -- CLI sweeps ------------------------------------------------------------


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        header = next(reader)
        return header, [[float(cell) for cell in line] for line in reader]


def _cli_execute(argv: list[str], tracer) -> int:
    from qworkstats import cli

    return cli.main(argv)


def _aah_prepare(seed: int, out: str) -> list[str]:
    return [
        "aah-sweep", "--out", out, "--fib-index", str(FIB_INDEX),
        "--grid-points", str(AAH_POINTS), "--eta", repr(phase_from_seed(seed)),
    ]


def _aah_extract(argv: list[str], status: int) -> tuple[dict, list[str]]:
    if status != 0:
        return {"columns": [], "rows": []}, [f"aah-sweep exited with status {status}"]
    out = argv[argv.index("--out") + 1]
    moments_header, moments = _read_csv(os.path.join(out, "aah_sweep_moments.csv"))
    entropy_header, entropy = _read_csv(os.path.join(out, "aah_sweep_entropy.csv"))
    if len(moments) != len(entropy):
        return {"columns": [], "rows": []}, ["moments and entropy files differ in length"]
    columns = moments_header + entropy_header[1:]
    rows = [m + e[1:] for m, e in zip(moments, entropy)]
    return {"columns": columns, "rows": rows}, []


def _thermal_prepare(seed: int, out: str) -> list[str]:
    return [
        "thermal-sweep", "--out", out, "--fib-index", str(FIB_INDEX),
        "--grid-values", ",".join(repr(d) for d in THERMAL_DELTAS),
        "--eta", repr(phase_from_seed(seed)),
    ]


def _thermal_extract(argv: list[str], status: int) -> tuple[dict, list[str]]:
    if status != 0:
        return {"columns": [], "rows": []}, [f"thermal-sweep exited with status {status}"]
    out = argv[argv.index("--out") + 1]
    header, rows = _read_csv(os.path.join(out, "thermal_sweep_entropy.csv"))
    return {"columns": header, "rows": rows}, []


# -- random suite ----------------------------------------------------------


def _random_prepare(seed: int, out: str) -> list[tuple]:
    """Raw arrays for the setups, in the mix of acceptance criterion 1.

    Two of every five setups are qubits; the rest cycle through dimensions
    2..13, and every other setup carries a Haar unitary protocol. The mix
    is fixed so that every seed asks for the same amount of work; the seed
    draws the matrices and the rank of each coherent state.
    """
    rng = np.random.default_rng(seed)
    raw = []
    for index in range(RANDOM_SETUPS):
        dim = 2 if index % 5 < 2 else 2 + index % 12
        u = None
        if index % 2:
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))[np.newaxis, :]
        hermitians = []
        for _ in range(2):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            hermitians.append(0.5 * (a + a.conj().T))
        rank = int(rng.integers(1, dim + 1))
        a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        raw.append((hermitians[0], hermitians[1], 0.5 * (rho + rho.conj().T), u))
    return raw


def _random_execute(raw: list[tuple], tracer) -> list:
    """Build the objects and run the pipeline for every setup.

    Calls go through module attributes so that the tracer's rebinding
    applies; a setup that raises is recorded, and the suite goes on.
    """
    from qworkstats import infotheory, spectral, tpm

    results = []
    for hi, hf, rho, u in raw:
        try:
            record = tracer.begin("spectral.construct") if tracer else None
            try:
                setup = tpm.QuenchSetup(
                    hi=spectral.HermitianOperator(entries=hi),
                    hf=spectral.HermitianOperator(entries=hf),
                    rho=spectral.DensityMatrix(entries=rho),
                    u=spectral.UnitaryMatrix(entries=u) if u is not None else None,
                )
            finally:
                if tracer:
                    tracer.end(record)
            uncollected = tpm.uncollected_distribution(setup)
            work = tpm.collect_work_distribution(uncollected)
            results.append((infotheory.bounds_report(setup, work, uncollected), work))
        except Exception as exc:  # a failing setup is counted, not fatal
            results.append(f"{type(exc).__name__}: {exc}")
    return results


def _random_extract(raw: list[tuple], results: list) -> tuple[dict, list[str]]:
    from qworkstats.infotheory import BoundsReport

    columns = list(BoundsReport.CSV_FIELDS) + ["per_level_coherence", "p_total"]
    rows, messages = [], []
    for i, result in enumerate(results):
        if isinstance(result, str):
            messages.append(f"setup {i}: {result}")
            rows.append(None)
            continue
        report, work = result
        row = [float(getattr(report, name)) for name in BoundsReport.CSV_FIELDS]
        row.append([float(c) for c in report.per_level_coherence])
        row.append(float(np.sum(work.probs)))
        rows.append(row)
    return {"columns": columns, "rows": rows}, messages


_SWEEP_SPANS = (
    "cli.run", "experiments.sweep", "experiments.fan_out", "experiments.point",
    "models.aah_hamiltonian", "spectral.diagonalize", "spectral.state_build",
    "spectral.basis_populations", "spectral.dephase", "tpm.uncollected",
    "tpm.initial_populations", "tpm.transition_probabilities", "tpm.collect",
    "tpm.check_first_moment", "tpm.work_moments", "tpm.mean_work_direct",
    "infotheory.bounds_report",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="aah_sweep_ground",
            quenches=AAH_POINTS,
            prepare=_aah_prepare,
            execute=_cli_execute,
            extract=_aah_extract,
            identities=_ground_switch_on,
            compared=("delta", "m1", "m2", "m3", "m4", "variance", "mean_direct",
                      "h_w", "s_diag", "avg_coherence", "gamma_max"),
            expected_spans=_SWEEP_SPANS,
        ),
        Workload(
            name="thermal_sweep",
            quenches=len(THERMAL_DELTAS) * THERMAL_BETAS,
            prepare=_thermal_prepare,
            execute=_cli_execute,
            extract=_thermal_extract,
            identities=_bound_chain,
            # The entropy file carries ln_gamma_max in place of gamma_max.
            compared=("beta", "delta", "h_w", "s_diag", "avg_coherence", "ln_gamma_max"),
            expected_spans=_SWEEP_SPANS,
        ),
        Workload(
            name="random_suite",
            quenches=RANDOM_SETUPS,
            prepare=_random_prepare,
            execute=_random_execute,
            extract=_random_extract,
            identities=_random_identities,
            compared=("h_w", "h_u", "ln_gamma_max", "s_diag", "avg_coherence", "rec_rho_bar",
                      "c_max", "eff_dim", "neg_log_eff_dim", "initial_is_ground",
                      "per_level_coherence"),
            expected_spans=(
                "spectral.construct", "spectral.diagonalize", "spectral.basis_populations",
                "tpm.uncollected", "tpm.initial_populations", "tpm.transition_probabilities",
                "tpm.collect", "infotheory.bounds_report",
            ),
        ),
    )
}
