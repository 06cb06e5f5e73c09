"""Every output of 18 CLI runs against the files in ``tests/golden/``.

In the environment that recorded them (``tests/golden/manifest.json``) each
CSV and JSON file must be equal byte for byte. Elsewhere LAPACK may pick
another basis inside degenerate levels and BLAS may round otherwise, so
only the basis-free columns are compared, to 1e-10 relative (absolute
below 1), and the test says so. ``tests/golden/regenerate.py`` writes the
files.
"""

import csv
import importlib.util
import io
import json
import math
import os
import sys
import warnings

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TOLERANCE = 1e-10
# The columns that depend on the basis LAPACK picks inside degenerate levels
# (README, "Columns that depend on the basis choice"); every column of the
# per-level coherence map is such a coherence.
BASIS_DEPENDENT = {"h_u", "avg_coherence", "rec_rho_bar", "c_max", "eff_dim", "neg_log_eff_dim"}


def _regenerate():
    name = "golden_regenerate"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, os.path.join(GOLDEN, "regenerate.py"))
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[key], b[key]) for key in a)
    if isinstance(a, str) and isinstance(b, str):
        try:
            a, b = float(a), float(b)
        except ValueError:
            return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= TOLERANCE * max(abs(a), abs(b), 1.0)
    return a == b


def _basis_free(argv: list[str], file: str, data: bytes):
    """The parts of an output file that no basis choice can move."""
    if file.endswith(".json"):
        return json.loads(data)
    header, *rows = csv.reader(io.StringIO(data.decode()))
    eigenstate = "eigenstate" in argv  # its level may lie in a degenerate block
    keep = [
        index for index, name in enumerate(header)
        if name not in BASIS_DEPENDENT and not (eigenstate and name == "h_w")
        and (file != "coherence_map_levels.csv" or name == "level")
    ]
    return [[header[i] for i in keep]] + [[row[i] for i in keep] for row in rows]


def _relative_change(a: str, b: str) -> float:
    try:
        a, b = float(a), float(b)
    except ValueError:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf


def _moved_cells(file: str, got: bytes, expected: bytes) -> str:
    """The columns of a CSV file whose cells moved, each with its largest relative change."""
    if not file.endswith(".csv"):
        return file
    got_rows, expected_rows = (list(csv.reader(io.StringIO(data.decode())))
                               for data in (got, expected))
    if len(got_rows) != len(expected_rows) or got_rows[0] != expected_rows[0]:
        return f"{file} (rows or header)"
    worst = {}
    for got_row, expected_row in zip(got_rows[1:], expected_rows[1:]):
        for name, a, b in zip(got_rows[0], got_row, expected_row):
            if a != b:
                worst[name] = max(worst.get(name, 0.0), _relative_change(a, b))
    return f"{file} ({', '.join(f'{name} {change:.2g}' for name, change in worst.items())})"


def test_outputs_match_the_golden_files(tmp_path, capsys):
    regenerate = _regenerate()
    with open(os.path.join(GOLDEN, "manifest.json")) as stream:
        manifest = json.load(stream)
    recorded, here = manifest["environment"], regenerate.environment()
    bytewise = recorded == here
    moved = []
    for name, argv in manifest["configurations"].items():
        files = regenerate.outputs(argv, str(tmp_path / name))
        golden = sorted(os.listdir(os.path.join(GOLDEN, name)))
        assert sorted(files) == golden, name
        for file in golden:
            with open(os.path.join(GOLDEN, name, file), "rb") as stream:
                expected = stream.read()
            if bytewise:
                same = files[file] == expected
            else:
                same = _close(_basis_free(argv, file, files[file]),
                              _basis_free(argv, file, expected))
            if not same:
                moved.append(f"{name}/{_moved_cells(file, files[file], expected)}")
    capsys.readouterr()  # the runs' own progress lines and summaries
    if bytewise:
        note = f"golden: {len(manifest['configurations'])} runs compared byte for byte"
    else:
        note = (f"golden: not the recording environment ({recorded} here {here}), so only "
                f"basis-free columns were compared, to {TOLERANCE:g} relative")
        warnings.warn(note)
    with capsys.disabled():
        print(f"\n{note}")
    assert not moved, f"outputs moved: {moved}"


def test_a_moved_file_names_its_moved_columns_and_their_largest_relative_change():
    file = "aah_sweep_entropy.csv"
    with open(os.path.join(GOLDEN, "aah_sweep_ground", file), "rb") as stream:
        data = stream.read()
    header, *rows = csv.reader(io.StringIO(data.decode()))
    index = header.index("h_u")
    rows[1][index] = repr(float(rows[1][index]) * (1 + 1e-15))
    rows[2][index] = repr(float(rows[2][index]) * (1 + 1e-12))
    moved = "\n".join(",".join(row) for row in [header, *rows]).encode() + b"\n"
    assert _moved_cells(file, moved, data) == f"{file} (h_u 1e-12)"
    assert _moved_cells(file, data, data) == f"{file} ()"
    assert _moved_cells("fit.json", b"{}", b"[]") == "fit.json"


def test_the_tolerant_comparison_reads_only_basis_free_columns():
    argv = ["aah-sweep"]
    file = "aah_sweep_entropy.csv"
    with open(os.path.join(GOLDEN, "aah_sweep_ground", file), "rb") as stream:
        data = stream.read()
    header, *rows = csv.reader(io.StringIO(data.decode()))

    def moved(column: str, factor: float) -> bytes:
        index = header.index(column)
        changed = [row[:index] + [repr(float(row[index]) * factor)] + row[index + 1:]
                   for row in rows]
        return "\n".join(",".join(row) for row in [header, *changed]).encode() + b"\n"

    same = _basis_free(argv, file, data)
    assert _close(_basis_free(argv, file, moved("h_w", 1 + 2**-52)), same)
    assert not _close(_basis_free(argv, file, moved("h_w", 1 + 1e-8)), same)
    assert _close(_basis_free(argv, file, moved("h_u", 1.5)), same)
    eigenstate = ["aah-sweep", "--state", "eigenstate"]  # h_w may depend on the basis too
    assert _close(_basis_free(eigenstate, file, moved("h_w", 1.5)),
                  _basis_free(eigenstate, file, data))
    assert not _close(_basis_free(eigenstate, file, moved("ln_gamma_max", 1.5)),
                      _basis_free(eigenstate, file, data))
