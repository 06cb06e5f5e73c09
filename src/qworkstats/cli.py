"""Command-line front end.

Subcommands cover the full set of drivers; every run writes one CSV per
output panel plus a JSON manifest echoing the complete configuration, the
seed, and the tolerances, which is enough to reproduce any output file
byte for byte. Output files are written atomically (temp file + rename),
progress goes to stderr, and stdout carries an optional machine-readable
summary.

Configuration can come from an INI-style file with sections [run],
[model], [state], and [grid]; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, experiments, infotheory, spectral, tpm
from .errors import BoundViolationError, ConfigError, ValidationError
from .experiments import (
    DEFAULT_DERIV_STEP,
    DEFAULT_SEED,
    DIRECTIONS,
    ZERO_TO_DELTA,
    StateSpec,
    _aah_sweeps,
    aah_transition_sweep,
    aah_work_histogram,
    bandwidth_fit,
    eigenstate_coherence_map,
    lz_sweep,
    scaling_derivative,
)
from .infotheory import BoundsReport, entropy_of_work
from .models import AahParams, LzParams, lz_hamiltonian
from .spectral import diagonalize
from .tpm import (
    QuenchSetup,
    collect_work_distribution,
    uncollected_distribution,
)

SUBCOMMANDS = (
    "lz-sweep",
    "aah-hist",
    "aah-sweep",
    "aah-scaling",
    "thermal-sweep",
    "coherence-map",
    "bandwidth-fit",
    "single-quench",
)

LN2 = math.log(2.0)

# Tolerances the manifest records, by module.
_TOLERANCES = (
    (spectral, ("HERMITICITY_RTOL", "ORTHONORMALITY_TOL", "RECONSTRUCTION_RTOL", "TRACE_TOL",
                "PSD_TOL", "ENTROPY_EIGENVALUE_FLOOR", "GROUND_DEGENERACY_RTOL")),
    (tpm, ("PROBABILITY_TOL", "STOCHASTICITY_TOL", "NORMALIZATION_TOL", "DEFAULT_CLUSTER_SCALE",
           "DROP_THRESHOLD", "PROXIMITY_WARNING_FACTOR", "RELATIVE_MEAN_TOL")),
    (infotheory, ("NEGATIVE_PROB_TOL", "NORMALIZATION_ERROR", "BOUND_SLACK",
                  "GROUND_PROJECTOR_TOL")),
    (experiments, ("GROUND_MEAN_TOL",)),
)

_RUN_KEYS = {"subcommand", "seed", "threads", "cluster_tol", "bits", "out"}
_MODEL_KEYS = {
    "delta", "omega_i", "omega_f", "j", "eta", "fib_index", "direction",
    "fib_min", "fib_max", "eta_samples", "deriv_step",
}
_STATE_KEYS = {"kind", "level", "beta", "betas"}
_GRID_KEYS = {"start", "stop", "points", "values"}


@dataclass
class RunConfig:
    """Fully validated description of one CLI run."""

    subcommand: str
    out: str = "results"
    seed: int = DEFAULT_SEED
    threads: int = 0  # 0 means all logical cores
    cluster_tol: float | None = None
    bits: bool = False
    # model
    delta: float = 1.0
    omega_i: float = -20.0
    omega_f: float | None = None
    j: float = 1.0
    eta: float = 1.2
    fib_index: int = 16
    direction: str = ZERO_TO_DELTA
    fib_min: int = 10
    fib_max: int = 16
    eta_samples: int = 50
    deriv_step: float = DEFAULT_DERIV_STEP
    # state
    state_kind: str = "ground"
    state_level: int = 0
    state_beta: float | None = None
    state_betas: tuple[float, ...] = (1e-2, 1.0, 1e2, 1e4)
    # grid
    grid_start: float | None = None
    grid_stop: float | None = None
    grid_points: int | None = None
    grid_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(
                f"unknown subcommand {self.subcommand!r}; valid: {', '.join(SUBCOMMANDS)}"
            )
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.cluster_tol is not None and not self.cluster_tol > 0:
            raise ConfigError(f"cluster_tol must be positive, got {self.cluster_tol!r}")
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {self.threads}")
        if not 3 <= self.fib_min <= self.fib_max:
            raise ConfigError(
                f"need 3 <= fib_min <= fib_max, got {self.fib_min}..{self.fib_max}"
            )
        if self.state_kind not in ("ground", "eigenstate", "thermal"):
            raise ConfigError(f"unknown state kind {self.state_kind!r}")
        if self.state_kind == "thermal" and self.state_beta is None:
            raise ConfigError("state kind 'thermal' requires beta")

    @property
    def workers(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)

    def state_spec(self) -> StateSpec:
        if self.state_kind == "ground":
            return StateSpec.ground()
        if self.state_kind == "eigenstate":
            return StateSpec.eigenstate(self.state_level)
        return StateSpec.thermal(self.state_beta)

    def grid(self) -> np.ndarray:
        """Resolve the sweep grid: explicit values win over start/stop/points."""
        if self.grid_values is not None:
            return np.array(self.grid_values, dtype=float)
        if self.subcommand == "lz-sweep":
            start = self.grid_start if self.grid_start is not None else -25.0 * self.delta
            stop = self.grid_stop if self.grid_stop is not None else 25.0 * self.delta
            points = self.grid_points if self.grid_points is not None else 501
        elif self.subcommand == "aah-hist":
            return np.array([1.5, 2.0, 2.5, 3.0]) * self.j
        else:
            start = self.grid_start if self.grid_start is not None else 0.05 * self.j
            stop = self.grid_stop if self.grid_stop is not None else 4.0 * self.j
            points = self.grid_points if self.grid_points is not None else 80
        if points < 1:
            raise ConfigError(f"grid needs at least one point, got {points}")
        if stop < start:
            raise ConfigError(f"grid stop {stop} below start {start}")
        return np.linspace(start, stop, points)

    def echo(self) -> dict:
        record = {}
        for field_info in fields(self):
            value = getattr(self, field_info.name)
            if isinstance(value, tuple):
                value = list(value)
            record[field_info.name] = value
        return record


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str, key: str) -> bool:
    try:
        return _BOOL_STRINGS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key} must be a boolean, got {text!r}") from None


def _parse_values_list(text: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(item) for item in text.replace(";", ",").split(",") if item.strip())
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers, got {text!r}") from None


def _read_config_file(path: str) -> dict:
    """Parse the INI file into RunConfig keyword arguments."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    known = {"run": _RUN_KEYS, "model": _MODEL_KEYS, "state": _STATE_KEYS, "grid": _GRID_KEYS}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(
                f"unknown config section [{section}]; valid sections: {', '.join(known)}"
            )
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; valid keys: "
                    f"{', '.join(sorted(known[section]))}"
                )
    kwargs: dict = {}

    def grab(section, key, cast, target=None):
        if parser.has_option(section, key):
            text = parser.get(section, key)
            try:
                kwargs[target or key] = cast(text)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(f"bad value for {section}.{key}: {text!r}") from None

    grab("run", "subcommand", str)
    grab("run", "out", str)
    grab("run", "seed", int)
    grab("run", "threads", int)
    grab("run", "cluster_tol", float)
    grab("run", "bits", lambda t: _parse_bool(t, "run.bits"))
    for key, cast in (
        ("delta", float), ("omega_i", float), ("omega_f", float), ("j", float),
        ("eta", float), ("fib_index", int), ("direction", str), ("fib_min", int),
        ("fib_max", int), ("eta_samples", int), ("deriv_step", float),
    ):
        grab("model", key, cast)
    grab("state", "kind", str, "state_kind")
    grab("state", "level", int, "state_level")
    grab("state", "beta", float, "state_beta")
    grab("state", "betas", lambda t: _parse_values_list(t, "state.betas"), "state_betas")
    grab("grid", "start", float, "grid_start")
    grab("grid", "stop", float, "grid_stop")
    grab("grid", "points", int, "grid_points")
    grab("grid", "values", lambda t: _parse_values_list(t, "grid.values"), "grid_values")
    return kwargs


def parse_config(
    path: str | None = None,
    overrides: dict | None = None,
    subcommand: str | None = None,
) -> RunConfig:
    """Build a RunConfig from an optional file plus flag overrides."""
    kwargs: dict = {}
    if path is not None:
        kwargs.update(_read_config_file(path))
    if subcommand is not None:
        kwargs["subcommand"] = subcommand
    for key, value in (overrides or {}).items():
        if value is not None:
            kwargs[key] = value
    if "subcommand" not in kwargs:
        raise ConfigError("no subcommand given (flag or [run] subcommand in the config file)")
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    handle, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(handle, "w", newline="\n") as stream:
            stream.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _progress(message: str) -> None:
    print(f"[qworkstats] {message}", file=sys.stderr, flush=True)


_ENTROPY_HEADER = list(BoundsReport.CSV_FIELDS)


def _run_lz_sweep(config: RunConfig, out: str):
    beta = config.state_beta if config.state_beta is not None else 0.1
    result = lz_sweep(
        omega_i=config.omega_i,
        omega_f_grid=config.grid(),
        delta=config.delta,
        beta=beta,
        cluster_tol=config.cluster_tol,
        workers=config.workers,
    )
    moments_path = os.path.join(out, "lz_sweep_moments.csv")
    header = ["omega_f"] + [f"m{k}" for k in range(1, 5)] + ["variance"] + [
        f"m{k}_normalized" for k in range(1, 5)
    ]
    _write_csv(
        moments_path,
        header,
        (
            [row.axis_value, *row.moments, row.variance, *row.normalized_moments]
            for row in result.rows
        ),
    )
    entropy_path = os.path.join(out, "lz_sweep_entropy.csv")
    _write_csv(
        entropy_path,
        ["omega_f"] + _ENTROPY_HEADER + ["flags"],
        (
            [row.axis_value, *row.report.csv_row(), ";".join(row.flags)]
            for row in result.rows
        ),
    )
    peak = float(np.max(result.column("h_w")))
    return [moments_path, entropy_path], {"h_w_peak": peak}


def _run_aah_hist(config: RunConfig, out: str):
    paths = []
    entropies: dict = {}
    for delta in config.grid():
        params = AahParams(
            fib_index=config.fib_index, delta=float(delta), j=config.j, eta=config.eta
        )
        work = aah_work_histogram(
            params, config.direction, cluster_tol=config.cluster_tol
        )
        tag = f"{delta:g}".replace(".", "p")
        path = os.path.join(out, f"aah_hist_delta_{tag}.csv")
        _write_atomic(path, work.to_csv())
        paths.append(path)
        entropies[f"h_w_delta_{delta:g}"] = entropy_of_work(work)
    return paths, entropies


def _sweep_csvs(result, out: str, prefix: str, axis_name: str) -> list[str]:
    moments_path = os.path.join(out, f"{prefix}_moments.csv")
    _write_csv(
        moments_path,
        [axis_name] + [f"m{k}" for k in range(1, 5)] + ["variance", "mean_direct"],
        (
            [row.axis_value, *row.moments, row.variance, row.mean_direct]
            for row in result.rows
        ),
    )
    entropy_path = os.path.join(out, f"{prefix}_entropy.csv")
    _write_csv(
        entropy_path,
        [axis_name] + _ENTROPY_HEADER + ["gamma_max"],
        (
            [row.axis_value, *row.report.csv_row(), row.gamma_max]
            for row in result.rows
        ),
    )
    return [moments_path, entropy_path]


def _run_aah_sweep(config: RunConfig, out: str):
    result = aah_transition_sweep(
        fib_index=config.fib_index,
        delta_grid=config.grid(),
        direction=config.direction,
        state=config.state_spec(),
        j=config.j,
        eta=config.eta,
        cluster_tol=config.cluster_tol,
        workers=config.workers,
    )
    paths = _sweep_csvs(result, out, "aah_sweep", "delta")
    return paths, {"h_w_max": float(np.max(result.column("h_w")))}


def _run_thermal_sweep(config: RunConfig, out: str):
    states = tuple(StateSpec.thermal(beta) for beta in config.state_betas)
    results = _aah_sweeps(
        config.fib_index,
        config.grid(),
        config.direction,
        states,
        config.j,
        config.eta,
        config.cluster_tol,
        config.workers,
    )
    path = os.path.join(out, "thermal_sweep_entropy.csv")
    rows = [
        [beta, row.axis_value, *row.report.csv_row()]
        for beta, result in zip(config.state_betas, results)
        for row in result.rows
    ]
    _write_csv(path, ["beta", "delta"] + _ENTROPY_HEADER, rows)
    return [path], {"h_w_max": max(float(r[2]) for r in rows)}


def _run_aah_scaling(config: RunConfig, out: str):
    result = scaling_derivative(
        fib_indices=range(config.fib_min, config.fib_max + 1),
        eta_samples=config.eta_samples,
        seed=config.seed,
        deriv_step=config.deriv_step,
        direction=config.direction,
        j=config.j,
        workers=config.workers,
    )
    slopes_path = os.path.join(out, "aah_scaling_slopes.csv")
    _write_csv(
        slopes_path,
        ["size", "slope", "fit_residual"],
        (
            [int(n), s, r]
            for n, s, r in zip(result.sizes, result.slopes, result.residuals)
        ),
    )
    fit_path = os.path.join(out, "aah_scaling_fit.json")
    _write_atomic(
        fit_path,
        json.dumps(
            {
                "fit_exponent": result.fit_exponent,
                "fit_prefactor": result.fit_prefactor,
                "eta_samples": result.eta_samples,
                "seed": result.seed,
                "deriv_step": result.deriv_step,
                "direction": result.direction,
                "sizes": [int(n) for n in result.sizes],
                "slopes": [float(s) for s in result.slopes],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    return [slopes_path, fit_path], {"fit_exponent": result.fit_exponent}


def _run_coherence_map(config: RunConfig, out: str):
    result = eigenstate_coherence_map(
        fib_index=config.fib_index,
        delta_grid=config.grid(),
        j=config.j,
        eta=config.eta,
        workers=config.workers,
    )
    path = os.path.join(out, "coherence_map_levels.csv")
    header = ["level"] + [f"{d:.17g}" for d in result.delta_grid]
    _write_csv(
        path,
        header,
        ([level, *result.coherences[level]] for level in range(result.coherences.shape[0])),
    )
    return [path], {"c_max": float(result.coherences.max())}


def _run_bandwidth_fit(config: RunConfig, out: str):
    result = bandwidth_fit(
        fib_index=config.fib_index,
        delta_grid=config.grid(),
        eta_samples=config.eta_samples,
        seed=config.seed,
        j=config.j,
        workers=config.workers,
    )
    edges_path = os.path.join(out, "bandwidth_fit_edges.csv")
    _write_csv(
        edges_path,
        ["delta", "edge_excess", "fitted"],
        (
            [d, e, result.coefficient * d * d * config.j]
            for d, e in zip(result.delta_grid, result.band_edges)
        ),
    )
    fit_path = os.path.join(out, "bandwidth_fit_result.json")
    _write_atomic(
        fit_path,
        json.dumps(
            {
                "coefficient": result.coefficient,
                "residual_max": result.residual_max,
                "delta_grid": [float(d) for d in result.delta_grid],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    return [edges_path, fit_path], {"coefficient": result.coefficient}


def _run_single_quench(config: RunConfig, out: str):
    """Two-level quench when omega_f is given, chain quench otherwise."""
    if config.omega_f is not None:
        hi = lz_hamiltonian(LzParams(delta=config.delta, omega=config.omega_i))
        hf = lz_hamiltonian(LzParams(delta=config.delta, omega=config.omega_f))
        initial = diagonalize(hi)
        setup = QuenchSetup(hi=hi, hf=hf, rho=config.state_spec().build(initial))
        uncollected = uncollected_distribution(setup, initial)
        work = collect_work_distribution(uncollected, config.cluster_tol)
    else:
        params = AahParams(
            fib_index=config.fib_index, delta=config.delta, j=config.j, eta=config.eta
        )
        work = aah_work_histogram(
            params, config.direction, config.state_spec(), config.cluster_tol
        )
    csv_path = os.path.join(out, "single_quench_work.csv")
    _write_atomic(csv_path, work.to_csv())
    json_path = os.path.join(out, "single_quench_work.json")
    _write_atomic(json_path, json.dumps(work.to_json_record(), indent=2, sort_keys=True) + "\n")
    return [csv_path, json_path], {"h_w": entropy_of_work(work)}


_HANDLERS = {
    "lz-sweep": _run_lz_sweep,
    "aah-hist": _run_aah_hist,
    "aah-sweep": _run_aah_sweep,
    "aah-scaling": _run_aah_scaling,
    "thermal-sweep": _run_thermal_sweep,
    "coherence-map": _run_coherence_map,
    "bandwidth-fit": _run_bandwidth_fit,
    "single-quench": _run_single_quench,
}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit status.

    The manifest is written even when the computation fails, with an error
    record, so a partial run is always auditable. An output directory that
    cannot be created raises ``ConfigError`` first, as there is then no
    place for a manifest.
    """
    started = time.time()
    out = config.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from None
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out!r} is not writable")
    outputs: list[str] = []
    extras: dict = {}
    error_record = None
    status = 0
    try:
        _progress(f"running {config.subcommand} (seed={config.seed})")
        outputs, extras = _HANDLERS[config.subcommand](config, out)
        _progress(f"wrote {len(outputs)} file(s) in {time.time() - started:.1f}s")
    except BoundViolationError as exc:
        error_record = {"type": "bound-violation", "message": str(exc),
                        "axis_point": getattr(exc, "axis_point", None)}
        status = 3
    except (ValidationError, ConfigError) as exc:
        error_record = {"type": "validation", "message": str(exc),
                        "axis_point": getattr(exc, "axis_point", None)}
        status = 2
    except Exception as exc:  # manifest must record even unexpected failures
        error_record = {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}
        status = 1
    manifest = {
        "version": __version__,
        "config": config.echo(),
        "seed": config.seed,
        "cluster_tol": config.cluster_tol,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "pool_workers": config.workers,
        },
        "tolerances": {
            f"{module.__name__.rsplit('.', 1)[1]}.{name}": getattr(module, name)
            for module, names in _TOLERANCES
            for name in names
        },
        "outputs": [os.path.basename(path) for path in outputs],
        "wall_time_s": time.time() - started,
        "error": error_record,
    }
    _write_atomic(
        os.path.join(out, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    if error_record is not None:
        print(json.dumps(error_record), file=sys.stderr)
    else:
        summary = {"subcommand": config.subcommand, "outputs": manifest["outputs"]}
        # entropies are stored in nats everywhere; conversion is display-only
        unit = "bits" if config.bits else "nats"
        summary["entropy_unit"] = unit
        for key, value in extras.items():
            if key.startswith(("h_w", "c_max")) and config.bits:
                summary[key] = value / LN2
            else:
                summary[key] = value
        print(json.dumps(summary, sort_keys=True))
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qworkstats",
        description="Work distributions, work entropy, and coherence bounds for quenches.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="INI config file; flags override file values")
        cmd.add_argument("--out", help="output directory (default: results)")
        cmd.add_argument("--seed", type=int, help="seed for phase sampling")
        cmd.add_argument("--threads", type=int, help="worker threads (0 = logical cores)")
        cmd.add_argument("--cluster-tol", dest="cluster_tol", type=float,
                         help="override the degeneracy clustering width")
        cmd.add_argument("--bits", action="store_const", const=True,
                         help="display entropies in bits (files stay in nats)")
        cmd.add_argument("--delta", type=float)
        cmd.add_argument("--omega-i", dest="omega_i", type=float)
        cmd.add_argument("--omega-f", dest="omega_f", type=float)
        cmd.add_argument("--j", type=float)
        cmd.add_argument("--eta", type=float)
        cmd.add_argument("--fib-index", dest="fib_index", type=int)
        cmd.add_argument("--direction", choices=DIRECTIONS)
        cmd.add_argument("--fib-min", dest="fib_min", type=int)
        cmd.add_argument("--fib-max", dest="fib_max", type=int)
        cmd.add_argument("--eta-samples", dest="eta_samples", type=int)
        cmd.add_argument("--deriv-step", dest="deriv_step", type=float)
        cmd.add_argument("--state", dest="state_kind", choices=("ground", "eigenstate", "thermal"))
        cmd.add_argument("--level", dest="state_level", type=int)
        cmd.add_argument("--beta", dest="state_beta", type=float)
        cmd.add_argument("--grid-start", dest="grid_start", type=float)
        cmd.add_argument("--grid-stop", dest="grid_stop", type=float)
        cmd.add_argument("--grid-points", dest="grid_points", type=int)
        cmd.add_argument("--grid-values", dest="grid_values",
                         type=lambda t: _parse_values_list(t, "--grid-values"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("config",)}
    subcommand = overrides.pop("subcommand")
    try:
        config = parse_config(args.config, overrides, subcommand=subcommand)
        return run(config)
    except (ConfigError, ValidationError) as exc:
        print(json.dumps({"type": "config-error", "message": str(exc)}), file=sys.stderr)
        return 2
    except BoundViolationError as exc:
        print(json.dumps({"type": "bound-violation", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
