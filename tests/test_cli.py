import argparse
import csv
import dataclasses
import errno
import glob
import json
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qworkstats import cli, experiments, infotheory, tpm
from qworkstats.cli import RunConfig, main, parse_config, run
from qworkstats.errors import BoundViolationError, ConfigError, ValidationError
from qworkstats.models import AahParams, lz_hamiltonian
from qworkstats.spectral import diagonalize


def write_config(path, text):
    path.write_text(text)
    return str(path)


def test_parse_config_defaults_for_aah_sweep(tmp_path):
    path = write_config(tmp_path / "run.ini", "[run]\nsubcommand = aah-sweep\n")
    config = parse_config(path)
    assert config.fib_index == 16
    assert config.eta == 1.2
    grid = config.grid(experiments.default_aah_grid())
    assert grid.size == 80
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(4.0)


def test_parse_config_missing_subcommand(tmp_path):
    path = write_config(tmp_path / "run.ini", "[model]\ndelta = 1.0\n")
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config(path)


def test_parse_config_unknown_key_lists_valid_ones(tmp_path):
    path = write_config(
        tmp_path / "run.ini", "[run]\nsubcommand = aah-sweep\n[model]\nvolts = 3\n"
    )
    with pytest.raises(ConfigError, match="valid keys"):
        parse_config(path)


def test_parse_config_unknown_section(tmp_path):
    path = write_config(tmp_path / "run.ini", "[run]\nsubcommand = aah-sweep\n[lattice]\nn = 3\n")
    with pytest.raises(ConfigError, match="valid sections"):
        parse_config(path)


def test_parse_config_out_of_range_value(tmp_path):
    path = write_config(
        tmp_path / "run.ini",
        "[run]\nsubcommand = aah-sweep\ncluster_tol = -1e-9\n",
    )
    with pytest.raises(ConfigError, match="cluster_tol"):
        parse_config(path)


def test_infinite_cluster_tol_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(subcommand="aah-hist", cluster_tol=float("inf"))
    out = tmp_path / "hist"
    argv = ["aah-hist", "--out", str(out), "--fib-index", "7", "--cluster-tol", "inf"]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "config-error" and "finite" in record["message"]
    assert not out.exists()


def test_flag_overrides_file_seed(tmp_path):
    path = write_config(
        tmp_path / "run.ini", "[run]\nsubcommand = aah-sweep\nseed = 1\n"
    )
    config = parse_config(path, overrides={"seed": 7})
    assert config.seed == 7


def test_parse_config_bad_number(tmp_path):
    path = write_config(
        tmp_path / "run.ini", "[run]\nsubcommand = aah-sweep\n[model]\ndelta = much\n"
    )
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(path)


def test_single_quench_identity_two_level(tmp_path):
    out = tmp_path / "out"
    config = RunConfig(
        subcommand="single-quench",
        out=str(out),
        omega_i=-20.0,
        omega_f=-20.0,
        state_kind="thermal",
        state_beta=0.1,
    )
    status = run(config)
    assert status == 0
    lines = (out / "single_quench_work.csv").read_text().strip().split("\n")
    assert lines[0] == "W,P,multiplicity"
    assert len(lines) == 2
    w, p, m = lines[1].split(",")
    assert float(w) == 0.0
    assert float(p) == pytest.approx(1.0, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] is None
    assert "single_quench_work.csv" in manifest["outputs"]


def test_single_quench_work_csv_bytes(tmp_path):
    # W and P at 17 significant digits, the multiplicity as an integer
    out = tmp_path / "out"
    config = RunConfig(
        subcommand="single-quench", out=str(out), omega_i=-4.0, omega_f=4.0,
        state_kind="thermal", state_beta=0.1,
    )
    assert run(config) == 0
    hi = lz_hamiltonian(-4.0)
    hf = lz_hamiltonian(4.0)
    rho = experiments.StateSpec.thermal(0.1).build(diagonalize(hi))
    work = tpm.collect_work_distribution(
        tpm.uncollected_distribution(tpm.QuenchSetup(hi=hi, hf=hf, rho=rho))
    )
    assert work.multiplicity.tolist() == [1, 2, 1]  # the two W = 0 pairs share a row
    expected = "W,P,multiplicity\n" + "".join(
        f"{w:.17g},{p:.17g},{m}\n"
        for w, p, m in zip(work.support, work.probs, work.multiplicity)
    )
    assert (out / "single_quench_work.csv").read_bytes() == expected.encode()


def test_aah_scaling_cli_writes_fit(tmp_path):
    out = tmp_path / "scaling"
    config = RunConfig(
        subcommand="aah-scaling",
        out=str(out),
        fib_min=6,
        fib_max=8,
        eta_samples=2,
        seed=5,
    )
    assert run(config) == 0
    fit = json.loads((out / "aah_scaling_fit.json").read_text())
    assert "fit_exponent" in fit
    assert fit["sizes"] == [8, 13, 21]
    slopes_lines = (out / "aah_scaling_slopes.csv").read_text().strip().split("\n")
    assert slopes_lines[0] == "size,slope,fit_residual"
    assert len(slopes_lines) == 4


def test_aah_scaling_collects_at_the_cluster_tol_it_records(tmp_path):
    argv = ["aah-scaling", "--fib-min", "6", "--fib-max", "8", "--eta-samples", "3",
            "--threads", "1"]
    slopes = {}
    for width in (None, 0.05):
        out = tmp_path / f"width-{width}"
        flags = [] if width is None else ["--cluster-tol", repr(width)]
        assert main([*argv, "--out", str(out), *flags]) == 0
        lines = (out / "aah_scaling_slopes.csv").read_text().splitlines()[1:]
        slopes[width] = [float(line.split(",")[1]) for line in lines]
        assert json.loads((out / "manifest.json").read_text())["config"]["cluster_tol"] == width
        expected = experiments.scaling_derivative(range(6, 9), eta_samples=3, cluster_tol=width)
        assert slopes[width] == expected.slopes.tolist()
    assert slopes[None] != slopes[0.05]


def test_aah_hist_builds_the_configured_state(tmp_path):
    argv = ["aah-hist", "--fib-index", "9", "--grid-values", "2", "--threads", "1"]
    written = {}
    for name, extra in (("ground", []), ("thermal", ["--state", "thermal", "--beta", "1.0"])):
        out = tmp_path / name
        assert main([*argv, "--out", str(out), *extra]) == 0
        written[name] = (out / "aah_hist_delta_2.csv").read_bytes()
    assert written["ground"] != written["thermal"]
    work = experiments.aah_work_histogram(
        AahParams(fib_index=9, delta=2.0), experiments.ZERO_TO_DELTA,
        experiments.StateSpec.thermal(1.0),
    )
    expected = "W,P,multiplicity\n" + "".join(
        f"{w:.17g},{p:.17g},{m}\n"
        for w, p, m in zip(work.support, work.probs, work.multiplicity)
    )
    assert written["thermal"] == expected.encode()


def test_cli_main_end_to_end_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = [
        "aah-sweep",
        "--fib-index", "8",
        "--grid-values", "1.0,2.0",
        "--seed", "42",
        "--threads", "1",
    ]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("aah_sweep_moments.csv", "aah_sweep_entropy.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_main_config_error_exit_code(tmp_path):
    status = main(["aah-sweep", "--out", str(tmp_path), "--grid-values", "9.0"])
    assert status == 2


def test_cli_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    status = main(["aah-sweep", "--out", str(taken), "--fib-index", "8", "--grid-values", "1.0"])
    assert status == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "config-error"
    assert str(taken) in record["message"]
    assert taken.read_text() == "not a directory\n"


def test_lz_sweep_echoes_the_beta_it_runs(tmp_path):
    # the default beta is filled in where the config echo reads it
    assert RunConfig("lz-sweep").state_beta == experiments.DEFAULT_LZ_BETA == 0.1
    written = []
    for flags in ([], ["--beta", "0.1"]):
        out = tmp_path / str(len(written))
        assert main(["lz-sweep", "--out", str(out), "--grid-points", "11", *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["state_beta"] == 0.1
        written.append({f: (out / f).read_bytes() for f in manifest["outputs"]})
    assert written[0] == written[1]


def test_cli_manifest_written_on_failure(tmp_path):
    out = tmp_path / "failing"
    config = RunConfig(
        subcommand="aah-sweep",
        out=str(out),
        fib_index=8,
        grid_values=(5.0,),  # outside the validity window
    )
    status = run(config)
    assert status == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["type"] == "validation"


def test_cli_lz_sweep_files(tmp_path):
    out = tmp_path / "lz"
    config = RunConfig(
        subcommand="lz-sweep",
        out=str(out),
        grid_points=21,
        state_beta=0.1,
    )
    assert run(config) == 0
    header = (out / "lz_sweep_moments.csv").read_text().split("\n")[0]
    assert header.startswith("omega_f,m1,m2,m3,m4,variance")
    entropy_header = (out / "lz_sweep_entropy.csv").read_text().split("\n")[0]
    assert "h_w" in entropy_header and "flags" in entropy_header


def test_cli_bandwidth_fit_files(tmp_path):
    out = tmp_path / "bw"
    config = RunConfig(
        subcommand="bandwidth-fit",
        out=str(out),
        fib_index=9,
        eta_samples=2,
        grid_values=(1.0, 2.0, 3.0),
    )
    assert run(config) == 0
    fit = json.loads((out / "bandwidth_fit_result.json").read_text())
    assert 0.05 < fit["coefficient"] < 0.3


@pytest.mark.parametrize("warning_filter", ["error", "ignore"])
def test_bandwidth_fit_at_a_vanishing_potential_exits_2(tmp_path, warning_filter):
    # it wrote a NaN coefficient, or a negative one from rounding noise, with exit 0
    for delta in ("1e-300", "1e-9"):
        out = tmp_path / delta
        with warnings.catch_warnings():
            warnings.simplefilter(warning_filter, RuntimeWarning)
            assert main(["bandwidth-fit", "--fib-index", "8", "--eta-samples", "1",
                         "--grid-values", delta, "--out", str(out)]) == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error["type"] == "validation" and error["axis_point"] == {"delta": float(delta)}
        assert not (out / "bandwidth_fit_result.json").exists()


def test_cli_aah_hist_files(tmp_path):
    out = tmp_path / "hist"
    config = RunConfig(
        subcommand="aah-hist",
        out=str(out),
        fib_index=8,
        grid_values=(1.5, 2.5),
        direction="delta-to-zero",
    )
    assert run(config) == 0
    names = sorted(os.listdir(out))
    assert "aah_hist_delta_1p5.csv" in names
    assert "aah_hist_delta_2p5.csv" in names


def test_cli_coherence_map_files(tmp_path):
    out = tmp_path / "cmap"
    config = RunConfig(
        subcommand="coherence-map",
        out=str(out),
        fib_index=7,
        grid_values=(1.0, 3.0),
    )
    assert run(config) == 0
    lines = (out / "coherence_map_levels.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 13  # header plus one row per level


def test_cli_thermal_sweep_files(tmp_path):
    out = tmp_path / "thermal"
    config = RunConfig(
        subcommand="thermal-sweep",
        out=str(out),
        fib_index=7,
        grid_values=(1.5, 2.5),
        state_betas=(0.01, 100.0),
    )
    assert run(config) == 0
    lines = (out / "thermal_sweep_entropy.csv").read_text().strip().split("\n")
    assert lines[0].startswith("beta,delta,h_w")
    assert len(lines) == 1 + 4


def test_cli_thermal_sweep_rows_are_beta_major(tmp_path):
    out = tmp_path / "thermal"
    config = RunConfig(
        subcommand="thermal-sweep",
        out=str(out),
        fib_index=7,
        grid_values=(1.5, 2.5, 3.5),
        state_betas=(100.0, 0.01),
        threads=2,
    )
    assert run(config) == 0
    lines = (out / "thermal_sweep_entropy.csv").read_text().strip().split("\n")[1:]
    keys = [tuple(float(cell) for cell in line.split(",")[:2]) for line in lines]
    assert keys == [(beta, delta) for beta in (100.0, 0.01) for delta in (1.5, 2.5, 3.5)]


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(subcommand="fly")
    with pytest.raises(ConfigError):
        RunConfig(subcommand="aah-sweep", direction="sideways")
    with pytest.raises(ConfigError):
        RunConfig(subcommand="aah-sweep", threads=-1)
    with pytest.raises(ConfigError):
        RunConfig(subcommand="aah-scaling", fib_min=9, fib_max=8)
    with pytest.raises(ConfigError):
        RunConfig(subcommand="aah-sweep", state_kind="thermal")


@pytest.mark.parametrize(
    "argv",
    [
        # a level outside an eigenstate and a beta outside a thermal state
        ["aah-sweep", "--fib-index", "8", "--grid-points", "3", "--level", "3", "--beta", "0.5"],
        ["aah-hist", "--fib-index", "8", "--state", "thermal", "--beta", "0.5", "--level", "2"],
        ["single-quench", "--state", "eigenstate", "--level", "1", "--beta", "0.5"],
        # the chain settings beside a two-level quench, omega_i beside a chain
        ["single-quench", "--omega-f", "3", "--fib-index", "5", "--direction", "delta-to-zero",
         "--eta", "0.3"],
        ["single-quench", "--omega-i=-3", "--fib-index", "5"],
        # delta is the chain's potential; the two-level gap is the unit of energy
        ["single-quench", "--omega-f", "3", "--delta", "2"],
        # grid bounds beside the grid's values
        ["aah-hist", "--fib-index", "8", "--grid-values", "1.5", "--grid-points", "3"],
        # an unread setting given at its default value
        ["single-quench", "--omega-f", "3", "--delta", "1.0"],
        ["single-quench", "--omega-f", "3", "--eta", "1.2"],
        ["aah-sweep", "--fib-index", "8", "--grid-points", "3", "--level", "0"],
    ],
)
def test_a_setting_the_run_does_not_read_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out), "--threads", "1"]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "config-error" and "does not read" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["lz-sweep", "--state", "ground"],  # its state is always thermal, at --beta
        ["lz-sweep", "--level", "1"],
        ["thermal-sweep", "--state", "thermal", "--beta", "0.5"],
        ["aah-scaling", "--beta", "0.5"],
        ["coherence-map", "--state", "thermal", "--beta", "0.5"],
        ["coherence-map", "--cluster-tol", "0.1"],
        ["bandwidth-fit", "--direction", "delta-to-zero"],
        ["aah-sweep", "--omega-f", "3"],
        ["lz-sweep", "--delta", "2"],
    ],
)
def test_a_flag_the_subcommand_does_not_take_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--out", str(out)])
    assert caught.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


def test_an_ini_setting_the_subcommand_does_not_take_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    for subcommand, section, key in (("aah-scaling", "state", "level = 2"),
                                     ("lz-sweep", "state", "kind = eigenstate"),
                                     ("coherence-map", "run", "cluster_tol = 0.1"),
                                     ("aah-sweep", "state", "betas = 0.5"),
                                     ("lz-sweep", "model", "delta = 2"),
                                     ("single-quench", "model", "omega_f = 3\ndelta = 2"),
                                     ("single-quench", "model", "omega_f = 3\ndelta = 1.0")):
        text = f"[run]\nsubcommand = {subcommand}\n"
        text += f"{key}\n" if section == "run" else f"[{section}]\n{key}\n"
        path = write_config(tmp_path / "run.ini", text)
        assert main([subcommand, "--config", path, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["type"] == "config-error" and "does not read" in record["message"]
    assert not out.exists()


def test_manifest_records_environment_and_tolerances(tmp_path):
    out = tmp_path / "run"
    assert main(["aah-sweep", "--out", str(out), "--fib-index", "7",
                 "--grid-values", "1.5", "--threads", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    environment = manifest["environment"]
    assert environment["pool_workers"] == 2
    assert environment["cpu_count"] == os.cpu_count()
    assert {"python", "numpy"} <= set(environment)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment["blas"] == {"name": blas.get("name"), "version": blas.get("version"),
                                   "threads": cli.blas_threads()}
    glibc = platform.libc_ver()[0] == "glibc"
    assert environment["malloc"] == ({"mmap_threshold": 64 << 20, "trim_threshold": 128 << 20,
                                      "arena_max": 1} if glibc else None)
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0
    tolerances = manifest["tolerances"]
    # the seed and the width are written once, in the config echo
    assert "seed" not in manifest and "cluster_tol" not in manifest
    assert manifest["config"]["seed"] == 12345 and manifest["config"]["cluster_tol"] is None
    assert tolerances["tpm.DEFAULT_CLUSTER_SCALE"] == 1e-12
    assert tolerances["tpm.DROP_THRESHOLD"] == 1e-15
    assert tolerances["infotheory.BOUND_SLACK"] == 1e-10
    assert tolerances["experiments.GROUND_MEAN_TOL"] == 1e-10
    # every tolerance a run checks against, and none that only the test oracles use
    assert sorted(tolerances) == [
        "experiments.GROUND_MEAN_TOL", "infotheory.BOUND_SLACK",
        "infotheory.GROUND_PROJECTOR_TOL", "spectral.GROUND_DEGENERACY_RTOL",
        "spectral.HERMITICITY_RTOL", "spectral.ORTHONORMALITY_TOL", "spectral.TRACE_TOL",
        "tpm.DEFAULT_CLUSTER_SCALE", "tpm.DROP_THRESHOLD", "tpm.NORMALIZATION_TOL",
        "tpm.PROXIMITY_WARNING_FACTOR", "tpm.RELATIVE_MEAN_TOL", "tpm.STOCHASTICITY_TOL",
    ]


@pytest.mark.parametrize(
    "cores,blas,workers", [(2, 2, 1), (8, 2, 4), (3, 2, 1), (2, 8, 1), (2, None, 2), (1, 1, 1)]
)
def test_default_pool_divides_cores_by_blas_threads(monkeypatch, cores, blas, workers):
    # the usable cores are the affinity mask; cpu_count only stands in without one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2 * cores)
    monkeypatch.setattr(cli, "blas_threads", lambda: blas)
    assert RunConfig(subcommand="aah-sweep").workers == workers
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert RunConfig(subcommand="aah-sweep").workers == workers
    assert RunConfig(subcommand="aah-sweep", threads=3).workers == 3


def test_a_fibonacci_index_past_the_cap_exits_2_with_a_manifest(tmp_path):
    # refused within the Fibonacci loop's first steps, so the run ends at once
    env = {**os.environ,
           "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")}
    argv = ["aah-sweep", "--out", str(tmp_path), "--fib-index", "1000000", "--threads", "1"]
    done = subprocess.run([sys.executable, "-m", "qworkstats.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error["type"] == "validation" and "Fibonacci index" in error["message"]


def test_aah_scaling_past_the_cap_exits_2_before_it_builds_a_ring(monkeypatch, tmp_path):
    # every index is checked before the first ring, not only when the ascending
    # loop reaches it: a ring built here would be a chain of 55 to 28,657 levels
    def no_ring(fib_index):
        raise AssertionError(f"ring {fib_index} built before the refusal")

    monkeypatch.setattr(experiments, "_flat_chain", no_ring)
    assert main(["aah-scaling", "--out", str(tmp_path), "--fib-max", "24", "--threads", "1"]) == 2
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error["type"] == "validation" and "Fibonacci index 24" in error["message"]


def test_an_lz_spectrum_whose_spread_overflows_exits_2_with_a_validation_record(
    tmp_path, capsys
):
    # the levels -+sqrt(omega^2 + 1) lie 2e308 apart: the thermal state refuses them
    # instead of overflowing in its shift by the ground energy
    argv = ["lz-sweep", "--omega-i", "1e308", "--grid-values", "1e308", "--out", str(tmp_path)]
    assert main(argv) == 2
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error["type"] == "validation" and "finite spread" in error["message"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("omega_i", ["0", "1e77", "1e100", "1e300"])
@pytest.mark.parametrize("beta", ["0", "1e-300", "1", "1e308", "inf"])
def test_extreme_lz_sweeps_end_in_a_result_or_a_refusal(tmp_path, capsys, beta, omega_i):
    # beta * spread past the largest float puts all weight on the ground level; a
    # work value whose 4th power overflows is refused with exit 2 at its point
    out = tmp_path / "run"
    status = main(["lz-sweep", "--beta", beta, "--omega-i", omega_i, "--grid-points", "3",
                   "--out", str(out)])
    error = json.loads((out / "manifest.json").read_text()).get("error")
    if float(omega_i) < 1e78:  # |W| ~ omega_i, and (1e77)^4 is still a float
        assert status == 0 and error is None
    else:
        assert status == 2 and error["type"] == "validation"
        assert "overflow power 4" in error["message"] and error["axis_point"] == {"omega_f": 1.0}
    assert "Traceback" not in capsys.readouterr().err


def test_the_two_lz_overflow_cases_exit_0_and_2(tmp_path):
    assert main(["lz-sweep", "--beta", "1e308", "--grid-values", "1",
                 "--out", str(tmp_path / "beta")]) == 0
    argv = ["lz-sweep", "--omega-i", "1e100", "--grid-values", "1e100", "--out", str(tmp_path)]
    assert main(argv) == 2
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error["message"] == "work values up to |W| = 1e+100 overflow power 4"


BLAS_THREADS_CHILD = r"""
import json
import sys

from qworkstats import cli

status = cli.main(["aah-sweep", "--out", sys.argv[1], "--fib-index", "7", "--grid-values", "1.5"])
print(json.dumps({"status": status, "threads": cli.blas_threads()}))
"""


def test_blas_reader_sees_the_environment_and_sizes_the_pool(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")}
    done = subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.splitlines()[-1])
    assert child["status"] == 0
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    bundled = glob.glob(os.path.join(libs, "*openblas*"))
    assert child["threads"] == (1 if bundled else None)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["environment"]["blas"]["threads"] == child["threads"]
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    assert manifest["environment"]["pool_workers"] == (len(usable) if usable else os.cpu_count())


def test_a_refused_mmap_threshold_leaves_the_trim_threshold_alone(tmp_path, monkeypatch):
    calls = []

    def mallopt(parameter, value):
        calls.append((parameter, value))
        return 0 if parameter == -3 else 1  # glibc's M_MMAP_THRESHOLD refused

    real = cli.ctypes.CDLL
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name, *args, **kwargs: (
        argparse.Namespace(mallopt=mallopt) if name is None else real(name, *args, **kwargs)))
    monkeypatch.setattr(cli.platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.36"))
    out = tmp_path / "run"
    assert main(["lz-sweep", "--grid-points", "3", "--out", str(out)]) == 0
    assert calls == [(-3, 64 << 20)]
    assert json.loads((out / "manifest.json").read_text())["environment"]["malloc"] is None
    monkeypatch.setattr(cli.platform, "libc_ver", lambda *args, **kwargs: ("", ""))
    assert cli._raise_malloc_thresholds() is None and calls == [(-3, 64 << 20)]


def test_the_policy_sets_one_arena_and_is_recorded_only_if_every_setting_took(monkeypatch):
    calls, refused = [], set()

    def mallopt(parameter, value):
        calls.append((parameter, value))
        return 0 if parameter in refused else 1

    real = cli.ctypes.CDLL
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name, *args, **kwargs: (
        argparse.Namespace(mallopt=mallopt) if name is None else real(name, *args, **kwargs)))
    monkeypatch.setattr(cli.platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.36"))
    policy = cli._raise_malloc_thresholds()
    assert calls == [(-3, 64 << 20), (-1, 128 << 20), (-8, 1)]  # M_ARENA_MAX is -8
    assert policy == {"mmap_threshold": 64 << 20, "trim_threshold": 128 << 20, "arena_max": 1}
    for parameter in (-1, -8):
        refused = {parameter}
        assert cli._raise_malloc_thresholds() is None


REPEATED_EIGH_CHILD = r"""
import json
import resource
import sys

import numpy as np

from qworkstats import cli

if sys.argv[1] == "policy":
    assert cli._raise_malloc_thresholds() is not None
n = 377
entries = np.random.default_rng(0).normal(size=(n, n))
entries += entries.T
np.linalg.eigh(entries)  # the first call faults its workspace in, with or without the policy
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
np.linalg.eigh(entries)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator policy")
def test_a_repeated_eigh_reuses_its_workspace_pages_under_the_policy():
    # eigh's workspace: a copy of the matrix (8 N^2 bytes) and dsyevd's work block (16 N^2)
    pages = 24 * 377**2 / os.sysconf("SC_PAGE_SIZE")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**{k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")},
           "PYTHONPATH": src}  # glibc reads MALLOC_*_THRESHOLD_ at startup
    faults = {}
    for mode in ("policy", "default"):  # a fresh process each: pytest's heap is not measured
        done = subprocess.run([sys.executable, "-c", REPEATED_EIGH_CHILD, mode],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        faults[mode] = json.loads(done.stdout.splitlines()[-1])
    assert faults["policy"] < 0.05 * pages, faults
    assert faults["default"] >= 0.5 * pages, faults


@pytest.mark.parametrize(
    "argv",
    [
        ["aah-sweep", "--fib-index", "14", "--grid-values", "0.5,1.5,2.5,3.5"],
        ["thermal-sweep", "--fib-index", "14", "--grid-values", "1.5,2.5"],
        ["lz-sweep", "--grid-points", "41"],
        ["coherence-map", "--fib-index", "14", "--grid-points", "4"],
        ["bandwidth-fit", "--fib-index", "14", "--grid-points", "4", "--eta-samples", "3"],
        ["aah-scaling", "--fib-min", "6", "--fib-max", "8", "--eta-samples", "3"],
        ["aah-hist", "--fib-index", "14", "--state", "thermal", "--beta", "1.0"],
        ["aah-scaling", "--fib-min", "6", "--fib-max", "8", "--eta-samples", "3",
         "--cluster-tol", "0.05"],
    ],
)
def test_pool_size_changes_no_byte_where_blas_threads_its_calls(tmp_path, argv):
    # at N = 377, unlike N = 21, OpenBLAS splits eigh over its threads, so its
    # bits move with the BLAS thread count: the pool size must still move none
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main([*argv, "--out", str(out), "--threads", threads]) == 0
        written[threads] = {
            name: (out / name).read_bytes() for name in os.listdir(out) if name.endswith(".csv")
        }
    assert written["1"] and written["1"] == written["2"]


def test_equal_rotated_populations_write_zero_rec_rho_bar(tmp_path):
    # omega_f = omega_i: the quench changes nothing, and C(rho_bar) cancels to
    # -9.7e-17 before it is floored at 0
    out = tmp_path / "lz"
    assert main(["lz-sweep", "--out", str(out), "--grid-values=-20,3", "--threads", "1"]) == 0
    lines = (out / "lz_sweep_entropy.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = {row[0]: dict(zip(header, row)) for row in (line.split(",") for line in lines[1:])}
    assert rows["-20"]["rec_rho_bar"] == "0"
    assert float(rows["3"]["rec_rho_bar"]) > 0.0


@pytest.mark.parametrize(
    "argv,point",
    [
        (["aah-sweep", "--grid-values", "1.5,2.5,3.5"], {"delta": 2.5}),
        (["thermal-sweep", "--grid-values", "1.5,2.5"], {"delta": 1.5, "beta": 1.0}),
    ],
)
def test_bound_violation_names_its_axis_point(tmp_path, capsys, monkeypatch, argv, point):
    # one worker, so the second bound check belongs to the second state
    # evaluated: the second potential of a one-state sweep, or the second
    # inverse temperature (1.0 by default) at the first potential
    calls = []

    def failing_second(report):
        calls.append(report)
        if len(calls) == 2:
            raise BoundViolationError("temperature_bound", 1.0, 0.0, 1e-10)

    monkeypatch.setattr(infotheory, "check_bounds", failing_second)
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out), "--fib-index", "7", "--threads", "1"]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["type"] == "bound-violation"
    assert manifest["error"]["axis_point"] == point
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["axis_point"] == point


@pytest.mark.parametrize(
    "argv,point",
    [
        (["aah-hist", "--grid-values", "1.5,2.5,3.5"], {"delta": 2.5, "eta": 1.2}),
        (["coherence-map", "--grid-values", "1.5,2.5,3.5"], {"delta": 2.5}),
    ],
)
def test_validation_error_names_its_axis_point(tmp_path, capsys, monkeypatch, argv, point):
    # one worker, so the second transition matrix belongs to the second potential
    calls = []

    def failing_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValidationError("transition matrix deviates from doubly stochastic")
        return transition_probabilities(*args)

    transition_probabilities = tpm.transition_probabilities
    monkeypatch.setattr(tpm, "transition_probabilities", failing_second)  # both build a PairTable
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out), "--fib-index", "7", "--threads", "1"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["type"] == "validation"
    assert manifest["error"]["axis_point"] == point
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["axis_point"] == point


@pytest.mark.parametrize("name", ["lz_sweep_entropy.csv", "manifest.json"])
def test_a_file_that_cannot_be_written_exits_4_with_an_io_record(tmp_path, capsys, monkeypatch,
                                                                 name):
    write_atomic = cli._write_atomic

    def full_disk(path, text):
        if os.path.basename(path) == name:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_atomic(path, text)

    monkeypatch.setattr(cli, "_write_atomic", full_disk)
    out = tmp_path / "run"
    assert main(["lz-sweep", "--grid-points", "3", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["type"] == "io" and os.strerror(errno.ENOSPC) in record["message"]
    assert captured.out == ""
    written = sorted(os.listdir(out))
    if name == "manifest.json":
        assert "manifest.json" in record["message"] and "manifest.json" not in written
    else:  # the manifest holds the record, and names the file written before the failure
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == record
        assert manifest["outputs"] == ["lz_sweep_moments.csv"]
        assert written == ["lz_sweep_moments.csv", "manifest.json"]


def test_aah_hist_threads_write_the_same_files(tmp_path):
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["aah-hist", "--out", str(out), "--fib-index", "8", "--threads", threads,
                     "--grid-values", "0.5,1.5,2.5,3.5", "--direction", "delta-to-zero"]) == 0
        written[threads] = {
            name: (out / name).read_bytes() for name in os.listdir(out) if name != "manifest.json"
        }
    assert len(written["1"]) == 4
    assert written["1"] == written["2"]


def test_aah_hist_gives_values_equal_at_g_precision_their_own_files(tmp_path, capsys):
    out = tmp_path / "hist"
    argv = ["aah-hist", "--out", str(out), "--fib-index", "7", "--threads", "1"]
    assert main([*argv, "--grid-values", "1.0000001,1.0000002"]) == 0
    names = ["aah_hist_delta_1p0000001.csv", "aah_hist_delta_1p0000002.csv"]
    assert sorted(os.listdir(out)) == [*names, "manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == names
    summary = json.loads(capsys.readouterr().out)
    assert {key for key in summary if key.startswith("h_w_delta_")} == {
        "h_w_delta_1.0000001", "h_w_delta_1.0000002"
    }


def test_aah_hist_takes_the_grid_flags(tmp_path, monkeypatch):
    out = tmp_path / "hist"
    argv = ["aah-hist", "--out", str(out), "--fib-index", "7", "--threads", "1"]
    assert main([*argv, "--grid-start", "1", "--grid-stop", "2", "--grid-points", "3"]) == 0
    names = ["aah_hist_delta_1.csv", "aah_hist_delta_1p5.csv", "aah_hist_delta_2.csv"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == names
    # without grid settings the four default potentials stay as they were
    deltas = []
    histogram = cli.aah_work_histogram

    def recording(params, *args, **kwargs):
        deltas.append(params.delta)
        return histogram(params, *args, **kwargs)

    monkeypatch.setattr(cli, "aah_work_histogram", recording)
    assert main(argv) == 0
    assert deltas == [1.5, 2.0, 2.5, 3.0]


def test_aah_hist_refuses_repeated_grid_values_before_diagonalizing(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_flat_chain", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "aah_work_histogram", lambda *args: calls.append(args))
    out = tmp_path / "hist"
    argv = ["aah-hist", "--out", str(out), "--fib-index", "7", "--threads", "1"]
    assert main([*argv, "--grid-values", "1.5,2,1.5"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["type"] == "validation"
    assert "distinct" in manifest["error"]["message"]
    assert manifest["outputs"] == [] and os.listdir(out) == ["manifest.json"]
    assert calls == []


@pytest.mark.parametrize("source", ["flag", "ini"])
def test_empty_grid_values_are_a_validation_error(tmp_path, source):
    out = tmp_path / "hist"
    argv = ["aah-hist", "--out", str(out), "--fib-index", "7", "--threads", "1"]
    if source == "flag":
        argv += ["--grid-values", ","]
    else:
        argv += ["--config", write_config(tmp_path / "run.ini", "[grid]\nvalues =\n")]
    assert main(argv) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["type"] == "validation"
    assert "at least one point" in manifest["error"]["message"]
    assert manifest["outputs"] == []


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    texts = {
        "repeated.ini": b"[run]\nsubcommand = aah-sweep\n[run]\nseed = 1\n",
        "percent.ini": b"[run]\nsubcommand = aah-sweep\nout = x%y\n",
        # not UTF-8, whatever the locale's encoding
        "bytes.ini": b"[run]\nsubcommand = aah-sweep\nout = \xff\xfe\n",
    }
    argv = ["aah-sweep", "--out", str(tmp_path / "out"), "--fib-index", "8", "--grid-values", "1"]
    for name, text in texts.items():
        path = tmp_path / name
        path.write_bytes(text)
        path = str(path)
        assert main([*argv, "--config", path]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["type"] == "config-error"
        assert path in record["message"]


# The command-line schema as first released: every setting with its INI
# section and key, its flag (None: file only), a non-default value as text,
# and that value as a RunConfig field.
SCHEMA = [
    ("run", "subcommand", None, "lz-sweep", "subcommand", "lz-sweep"),
    ("run", "out", "--out", "elsewhere", "out", "elsewhere"),
    ("run", "seed", "--seed", "7", "seed", 7),
    ("run", "threads", "--threads", "3", "threads", 3),
    ("run", "cluster_tol", "--cluster-tol", "1e-9", "cluster_tol", 1e-9),
    ("run", "bits", "--bits", "yes", "bits", True),
    ("model", "delta", "--delta", "2.5", "delta", 2.5),
    ("model", "omega_i", "--omega-i", "-3", "omega_i", -3.0),
    ("model", "omega_f", "--omega-f", "4", "omega_f", 4.0),
    ("model", "eta", "--eta", "0.3", "eta", 0.3),
    ("model", "fib_index", "--fib-index", "9", "fib_index", 9),
    ("model", "direction", "--direction", "delta-to-zero", "direction", "delta-to-zero"),
    ("model", "fib_min", "--fib-min", "5", "fib_min", 5),
    ("model", "fib_max", "--fib-max", "12", "fib_max", 12),
    ("model", "eta_samples", "--eta-samples", "3", "eta_samples", 3),
    ("model", "deriv_step", "--deriv-step", "0.1", "deriv_step", 0.1),
    ("state", "kind", "--state", "eigenstate", "state_kind", "eigenstate"),
    ("state", "level", "--level", "2", "state_level", 2),
    ("state", "beta", "--beta", "0.5", "state_beta", 0.5),
    ("state", "betas", None, "0.5,2", "state_betas", (0.5, 2.0)),
    ("grid", "start", "--grid-start", "0.5", "grid_start", 0.5),
    ("grid", "stop", "--grid-stop", "3", "grid_stop", 3.0),
    ("grid", "points", "--grid-points", "7", "grid_points", 7),
    ("grid", "values", "--grid-values", "1.5,2.5", "grid_values", (1.5, 2.5)),
]
SUBCOMMANDS = ["lz-sweep", "aah-hist", "aah-sweep", "aah-scaling", "thermal-sweep",
               "coherence-map", "bandwidth-fit", "single-quench"]
DEFAULTS = {
    "out": "results", "seed": 12345, "threads": 0, "cluster_tol": None, "bits": False,
    "delta": 1.0, "omega_i": -20.0, "omega_f": None, "eta": 1.2, "fib_index": 16,
    "direction": "zero-to-delta", "fib_min": 10, "fib_max": 16, "eta_samples": 50,
    "deriv_step": 0.15, "state_kind": "ground", "state_level": 0, "state_beta": None,
    "state_betas": (1e-2, 1.0, 1e2, 1e4), "grid_start": None, "grid_stop": None,
    "grid_points": None, "grid_values": None,
}
# The settings each subcommand takes besides COMMON, by RunConfig field.
COMMON = ["out", "seed", "threads", "bits"]
GRID = ["grid_start", "grid_stop", "grid_points", "grid_values"]
STATE = ["state_kind", "state_level", "state_beta"]
CHAIN = ["fib_index", "eta", "direction", "cluster_tol"]
TAKES = {
    "lz-sweep": ["omega_i", "state_beta", "cluster_tol", *GRID],
    "aah-hist": [*CHAIN, *STATE, *GRID],
    "aah-sweep": [*CHAIN, *STATE, *GRID],
    "aah-scaling": ["fib_min", "fib_max", "eta_samples", "deriv_step", "direction", "cluster_tol"],
    "thermal-sweep": [*CHAIN, "state_betas", *GRID],
    "coherence-map": ["fib_index", "eta", *GRID],
    "bandwidth-fit": ["fib_index", "eta_samples", *GRID],
    "single-quench": [*CHAIN, *STATE, "omega_i", "omega_f", "delta"],
}
# What a setting is read with: a level in an eigenstate, a beta in a
# thermal state (where the subcommand takes a state kind), omega_i in a
# two-level quench (where the subcommand takes omega_f).
COMPANIONS = {
    "state_level": ("state", "kind", "--state", "eigenstate", "state_kind", "eigenstate"),
    "state_beta": ("state", "kind", "--state", "thermal", "state_kind", "thermal"),
    "omega_i": ("model", "omega_f", "--omega-f", "4", "omega_f", 4.0),
}


def _valid_names(tmp_path, section, label):
    """The names an error for an unknown ``bogus`` key in ``[section]`` lists as valid."""
    text = "[run]\nsubcommand = aah-sweep\n"
    text += "bogus = 1\n" if section == "run" else f"[{section}]\nbogus = 1\n"
    path = write_config(tmp_path / "probe.ini", text)
    with pytest.raises(ConfigError) as caught:
        parse_config(path)
    return set(str(caught.value).split(f"valid {label}: ")[1].split(", "))


def test_command_line_schema_is_unchanged(tmp_path, monkeypatch):
    keys = {}
    for section, key, *_ in SCHEMA:
        keys.setdefault(section, set()).add(key)
    assert _valid_names(tmp_path, "lattice", "sections") == set(keys)
    for section in keys:
        assert _valid_names(tmp_path, section, "keys") == keys[section]

    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == SUBCOMMANDS
    flags = {row[4]: row[2] for row in SCHEMA}
    # 98 of the 8 x 23 (subcommand, setting) pairs
    assert sum(len(COMMON + TAKES[name]) for name in SUBCOMMANDS) == 98
    for name, command in commands.choices.items():
        actions = {flag: action for action in command._actions for flag in action.option_strings}
        taken = {flags[setting] for setting in COMMON + TAKES[name]} - {None}
        assert set(actions) == taken | {"--config", "-h", "--help"}, name
        if "--direction" in actions:
            assert actions["--direction"].choices == ("delta-to-zero", "zero-to-delta")
        if "--state" in actions:
            assert actions["--state"].choices == ("ground", "eigenstate", "thermal")
        with pytest.raises(SystemExit) as caught:
            main([name, "--help"])
        assert caught.value.code == 0

    assert {name: value for name, value in vars(RunConfig("aah-sweep")).items()
            if name != "subcommand"} == DEFAULTS

    captured = []
    monkeypatch.setattr(cli, "run", lambda config: captured.append(config) or 0)
    for section, key, flag, text, name, value in SCHEMA:
        if key == "subcommand":
            assert main([text]) == 0
            assert captured.pop() == RunConfig(text)
            continue
        for subcommand in SUBCOMMANDS:
            rows = [(section, key, flag, text, name, value)]
            takes = COMMON + TAKES[subcommand]
            companion = COMPANIONS.get(name)
            if companion is not None and companion[4] in takes:
                rows.append(companion)
            sections = {"run": {"subcommand": subcommand}}
            for row in rows:
                sections.setdefault(row[0], {})[row[1]] = row[3]
            path = write_config(tmp_path / "setting.ini", "".join(
                f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                for s, entries in sections.items()
            ))
            argv = [subcommand]
            for row in rows:
                argv += [row[2]] if row[2] == "--bits" else [row[2], row[3]]
            if name not in takes:
                with pytest.raises(ConfigError, match=f"{subcommand} does not read {name}"):
                    parse_config(path)
                if flag is not None:
                    with pytest.raises(SystemExit) as caught:
                        main(argv)
                    assert caught.value.code == 2
                continue
            expected = RunConfig(subcommand, **{row[4]: row[5] for row in rows})
            assert expected != RunConfig(subcommand)
            assert parse_config(path) == expected, (subcommand, key)
            if flag is not None:
                assert main(argv) == 0
                assert captured.pop() == expected, (subcommand, flag)

    # the hopping is the unit of energy, not a setting
    with pytest.raises(SystemExit) as caught:
        main(["aah-sweep", "--j", "0.5"])
    assert caught.value.code == 2
    path = write_config(tmp_path / "hopping.ini", "[run]\nsubcommand = aah-sweep\n[model]\nj = 1\n")
    assert main(["aah-sweep", "--config", path]) == 2
    assert captured == []


def test_a_two_level_quench_is_one_lz_sweep_row(tmp_path, capsys):
    summaries = []
    for argv in (["single-quench", "--omega-i=-4", "--omega-f", "4", "--state", "thermal",
                  "--beta", "0.5"],
                 ["lz-sweep", "--omega-i=-4", "--grid-values", "4", "--beta", "0.5"]):
        assert main([*argv, "--out", str(tmp_path / argv[0]), "--threads", "1"]) == 0
        summaries.append(json.loads(capsys.readouterr().out))
    single, sweep = summaries
    with open(tmp_path / "lz-sweep" / "lz_sweep_entropy.csv") as stream:
        (row,) = csv.DictReader(stream)
    assert single["h_w"] == sweep["h_w_peak"] == float(row["h_w"])


# Small runs of each subcommand, one per model it builds.
SMALL = {
    "lz-sweep": [{"grid_points": 11}],
    "aah-hist": [{"fib_index": 8, "grid_values": (1.5, 2.5)}],
    "aah-sweep": [{"fib_index": 8, "grid_points": 3}],
    "aah-scaling": [{"fib_min": 5, "fib_max": 7, "eta_samples": 2}],
    "thermal-sweep": [{"fib_index": 8, "grid_points": 3, "state_betas": (0.5, 2.0)}],
    "coherence-map": [{"fib_index": 8, "grid_points": 3}],
    "bandwidth-fit": [{"fib_index": 8, "grid_points": 3, "eta_samples": 2}],
    "single-quench": [{"fib_index": 8, "delta": 2.5}, {"omega_f": 3.0}],
}
STATES = [{}, {"state_kind": "eigenstate", "state_level": 1},
          {"state_kind": "thermal", "state_beta": 0.5}]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_setting_a_run_reads_is_in_force(tmp_path, monkeypatch, subcommand):
    # a read spy on RunConfig, active only while the subcommand's handler runs
    names = {setting.name for setting in dataclasses.fields(RunConfig)}
    reads, active = set(), []
    attribute = RunConfig.__getattribute__

    def spying(config, name):
        if active and name in names:
            reads.add(name)
        return attribute(config, name)

    handler, takes = cli._HANDLERS[subcommand]

    def spied(config, out):
        active.append(True)
        try:
            return handler(config, out)
        finally:
            active.pop()

    monkeypatch.setattr(RunConfig, "__getattribute__", spying)
    monkeypatch.setitem(cli._HANDLERS, subcommand, (spied, takes))
    states = STATES if "state_kind" in TAKES[subcommand] else [{}]
    for index, (small, state) in enumerate(
        (small, state) for small in SMALL[subcommand] for state in states
    ):
        config = RunConfig(subcommand, out=str(tmp_path / str(index)), threads=1,
                           **small, **state)
        reads.clear()
        assert run(config) == 0
        assert reads and reads <= set(config.in_force()), (small, state, reads)


# For each setting, out, seed, threads and bits aside: the settings of a
# reference run and of a run that changes only that one, on top of the
# subcommand's first small run. A None leaves a setting of the small run at
# its default. Each value matters at that size.
EFFECTIVE = {
    "fib_index": ({}, {"fib_index": 7}),
    "eta": ({}, {"eta": 0.3}),
    "direction": ({}, {"direction": "delta-to-zero"}),
    "cluster_tol": ({}, {"cluster_tol": 0.05}),
    "delta": ({}, {"delta": 1.5}),
    "omega_i": ({}, {"omega_i": -5.0}),
    "fib_min": ({}, {"fib_min": 4}),
    "fib_max": ({}, {"fib_max": 8}),
    "eta_samples": ({}, {"eta_samples": 1}),  # a third phase raises no band edge at fib 8
    "deriv_step": ({}, {"deriv_step": 0.1}),
    "state_betas": ({}, {"state_betas": (0.5, 3.0)}),
    "state_kind": ({}, {"state_kind": "thermal", "state_beta": 1.0}),
    "state_level": ({"state_kind": "eigenstate"}, {"state_kind": "eigenstate", "state_level": 1}),
    "state_beta": ({"state_kind": "thermal", "state_beta": 1.0},
                   {"state_kind": "thermal", "state_beta": 0.3}),
    "grid_start": ({"grid_values": None}, {"grid_values": None, "grid_start": 1.0}),
    "grid_stop": ({"grid_values": None}, {"grid_values": None, "grid_stop": 3.5}),
    "grid_points": ({"grid_values": None}, {"grid_values": None, "grid_points": 5}),
    "grid_values": ({"grid_points": None}, {"grid_points": None, "grid_values": (1.0, 3.0)}),
}
EFFECTIVE_IN = {
    ("lz-sweep", "state_beta"): ({}, {"state_beta": 0.05}),  # always thermal, at 0.1 by default
    ("lz-sweep", "cluster_tol"): ({}, {"cluster_tol": 5.0}),  # 0.05 merges no two-level pair
    ("single-quench", "omega_i"): ({"fib_index": None, "delta": None, "omega_f": 3.0},
                                   {"fib_index": None, "delta": None, "omega_f": 3.0,
                                    "omega_i": -5.0}),
    ("single-quench", "omega_f"): ({}, {"fib_index": None, "delta": None, "omega_f": 3.0}),
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_setting_in_force_changes_an_output(tmp_path, capsys, subcommand):
    runs = {}

    def written(settings: dict):
        settings = {**SMALL[subcommand][0], "threads": 1, **settings}
        settings = {name: value for name, value in settings.items() if value is not None}
        key = repr(sorted(settings.items()))
        if key not in runs:
            out = tmp_path / str(len(runs))
            capsys.readouterr()
            assert run(RunConfig(subcommand, out=str(out), **settings)) == 0
            files = {f: (out / f).read_bytes() for f in os.listdir(out) if f != "manifest.json"}
            runs[key] = files, capsys.readouterr().out
        return runs[key]

    for name in cli._HANDLERS[subcommand][1]:
        reference, changed = EFFECTIVE_IN.get((subcommand, name)) or EFFECTIVE[name]
        assert written(reference) != written(changed), name
