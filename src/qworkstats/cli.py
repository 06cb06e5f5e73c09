"""Command-line front end.

Subcommands cover the full set of drivers; every run writes one CSV per
output panel plus a JSON manifest echoing the settings in force (among
them the seed of a run that samples phases) and the tolerances, which is
enough to reproduce any output file byte for byte. Output files are
written atomically (temp file + rename), progress goes to stderr, and
stdout carries an optional machine-readable summary.

Configuration can come from an INI-style file with sections [run],
[model], [state], and [grid]; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

try:
    import resource
except ImportError:  # as on Windows: the manifest's peak_rss_mb is then null
    resource = None

from . import __version__, experiments, infotheory, spectral, tpm
from .errors import BoundViolationError, ConfigError, ValidationError
from .experiments import (
    DEFAULT_DERIV_STEP,
    DEFAULT_ETA_SAMPLES,
    DEFAULT_LZ_BETA,
    DEFAULT_SEED,
    DIRECTIONS,
    STATE_KINDS,
    ZERO_TO_DELTA,
    StateSpec,
    aah_transition_sweep,
    aah_work_histogram,
    bandwidth_fit,
    default_aah_grid,
    default_lz_grid,
    eigenstate_coherence_map,
    lz_sweep,
    scaling_derivative,
)
from .infotheory import BoundsReport, entropy_of_work
from .models import AahParams, lz_hamiltonian
from .spectral import diagonalize
from .tpm import PairTable, UncollectedDistribution, collect_work_distribution

LN2 = math.log(2.0)

# Tolerances the manifest records, by module.
_TOLERANCES = (
    (spectral, ("HERMITICITY_RTOL", "ORTHONORMALITY_TOL", "TRACE_TOL", "GROUND_DEGENERACY_RTOL")),
    (tpm, ("STOCHASTICITY_TOL", "NORMALIZATION_TOL", "DEFAULT_CLUSTER_SCALE", "DROP_THRESHOLD",
           "PROXIMITY_WARNING_FACTOR", "RELATIVE_MEAN_TOL")),
    (infotheory, ("BOUND_SLACK", "GROUND_PROJECTOR_TOL")),
    (experiments, ("GROUND_MEAN_TOL",)),
)


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS; ``None`` when numpy bundles none with a
    thread-count getter, and the pool then sizes itself by cores alone."""
    library = spectral.openblas()
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(library, symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def _blas_record() -> dict:
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        build = {}
    return {"name": build.get("name"), "version": build.get("version"),
            "threads": blas_threads()}


# glibc's thresholds and arena count as main sets them, and the record of what it set here.
_MALLOC_POLICY = {"mmap_threshold": 64 << 20, "trim_threshold": 128 << 20, "arena_max": 1}
_malloc_in_force: dict | None = None


def _raise_malloc_thresholds() -> dict | None:
    """Set glibc's mmap threshold and, if it took, its trim threshold: either alone is slower.
    ``eigh``'s workspace (N <= 2048) then reuses faulted-in heap pages. One arena, so that
    pool threads reuse the holes of one heap, not keep their own. The policy, if all took."""
    mallopt = platform.libc_ver()[0] == "glibc" and getattr(ctypes.CDLL(None), "mallopt", None)
    # glibc's M_MMAP_THRESHOLD is -3, its M_TRIM_THRESHOLD -1 and its M_ARENA_MAX -8
    if not mallopt or mallopt(-3, _MALLOC_POLICY["mmap_threshold"]) != 1:
        return None
    trim = mallopt(-1, _MALLOC_POLICY["trim_threshold"])
    arenas = mallopt(-8, _MALLOC_POLICY["arena_max"])
    return _MALLOC_POLICY if trim == arenas == 1 else None


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


def _json_text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


class _Outputs:
    """A run's output directory and the names of the files written to it, each
    listed once it is on disk, so that a run failing part-way names them too."""

    def __init__(self, directory: str):
        self.directory, self.names = directory, []

    def write(self, name: str, text: str) -> None:
        _write_atomic(os.path.join(self.directory, name), text)
        self.names.append(name)

    def csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        self.write(name, "\n".join(lines) + "\n")

    def json(self, name: str, record: dict) -> None:
        self.write(name, _json_text(record))


def _progress(message: str) -> None:
    print(f"[qworkstats] {message}", file=sys.stderr, flush=True)


_ENTROPY_HEADER = list(BoundsReport.CSV_FIELDS)
_WORK_HEADER = ["W", "P", "multiplicity"]
_MOMENT_HEADER = [f"m{k}" for k in range(1, tpm.MOMENT_ORDERS + 1)]


def _run_lz_sweep(config: RunConfig, out: _Outputs):
    result = lz_sweep(
        omega_i=config.omega_i,
        omega_f_grid=config.grid(default_lz_grid()),
        beta=config.state_beta,
        cluster_tol=config.cluster_tol,
        workers=config.workers,
    )
    normalized = [f"{name}_normalized" for name in _MOMENT_HEADER]
    rows = tuple(zip(result.axis, result.rows))
    out.csv("lz_sweep_moments.csv", ["omega_f", *_MOMENT_HEADER, "variance", *normalized],
            ([omega, *row.moments, row.variance, *row.normalized_moments] for omega, row in rows))
    out.csv("lz_sweep_entropy.csv", ["omega_f", *_ENTROPY_HEADER, "flags"],
            ([omega, *row.report.csv_row(), ";".join(row.flags)] for omega, row in rows))
    return {"h_w_peak": float(np.max(result.column("h_w")))}


def _run_aah_hist(config: RunConfig, out: _Outputs):
    entropies: dict = {}
    grid = config.grid(np.array([1.5, 2.0, 2.5, 3.0]))
    if len(set(grid.tolist())) < grid.size:  # a repeated value would write its file twice
        raise ConfigError(f"aah-hist grid values must be distinct, got {grid.tolist()}")
    labels = [f"{delta:g}" for delta in grid]
    if len(set(labels)) < grid.size:  # %g would merge distinct values
        labels = [repr(float(delta)) for delta in grid]

    works = aah_work_histogram(config.fib_index, grid, config.direction, config.state_spec(),
                               config.eta, config.cluster_tol, config.workers)
    for work, label in zip(works, labels):
        out.csv(f"aah_hist_delta_{label.replace('.', 'p')}.csv", _WORK_HEADER,
                zip(work.support, work.probs, work.multiplicity))
        entropies[f"h_w_delta_{label}"] = entropy_of_work(work)
    return entropies


def _run_aah_sweep(config: RunConfig, out: _Outputs):
    (result,) = aah_transition_sweep(config.fib_index, config.grid(default_aah_grid()),
                                     config.direction, (config.state_spec(),), config.eta,
                                     config.cluster_tol, config.workers)
    rows = tuple(zip(result.axis, result.rows))
    out.csv("aah_sweep_moments.csv", ["delta", *_MOMENT_HEADER, "variance", "mean_direct"],
            ([delta, *row.moments, row.variance, row.mean_direct] for delta, row in rows))
    out.csv("aah_sweep_entropy.csv", ["delta", *_ENTROPY_HEADER, "gamma_max"],
            ([delta, *row.report.csv_row(), row.gamma_max] for delta, row in rows))
    return {"h_w_max": float(np.max(result.column("h_w")))}


def _run_thermal_sweep(config: RunConfig, out: _Outputs):
    states = tuple(StateSpec.thermal(beta) for beta in config.state_betas)
    results = aah_transition_sweep(
        config.fib_index,
        config.grid(default_aah_grid()),
        config.direction,
        states,
        config.eta,
        config.cluster_tol,
        config.workers,
        moments=False,  # the entropy file is all this subcommand writes
    )
    rows = [
        [beta, delta, *row.report.csv_row()]
        for beta, result in zip(config.state_betas, results)
        for delta, row in zip(result.axis, result.rows)
    ]
    out.csv("thermal_sweep_entropy.csv", ["beta", "delta"] + _ENTROPY_HEADER, rows)
    return {"h_w_max": max(row.report.h_w for result in results for row in result.rows)}


def _run_aah_scaling(config: RunConfig, out: _Outputs):
    result = scaling_derivative(
        fib_indices=range(config.fib_min, config.fib_max + 1),
        eta_samples=config.eta_samples,
        seed=config.seed,
        deriv_step=config.deriv_step,
        direction=config.direction,
        cluster_tol=config.cluster_tol,
        workers=config.workers,
    )
    out.csv(
        "aah_scaling_slopes.csv",
        ["size", "slope", "fit_residual"],
        (
            [int(n), s, r]
            for n, s, r in zip(result.sizes, result.slopes, result.residuals)
        ),
    )
    out.json(
        "aah_scaling_fit.json",
        {
            "fit_exponent": result.fit_exponent,
            "fit_prefactor": result.fit_prefactor,
            "eta_samples": config.eta_samples,
            "seed": config.seed,
            "deriv_step": config.deriv_step,
            "direction": config.direction,
            "sizes": [int(n) for n in result.sizes],
            "slopes": [float(s) for s in result.slopes],
        },
    )
    return {"fit_exponent": result.fit_exponent}


def _run_coherence_map(config: RunConfig, out: _Outputs):
    grid = config.grid(default_aah_grid())
    coherences = eigenstate_coherence_map(
        fib_index=config.fib_index,
        delta_grid=grid,
        eta=config.eta,
        workers=config.workers,
    )
    header = ["level"] + [f"{d:.17g}" for d in grid]
    out.csv(
        "coherence_map_levels.csv",
        header,
        ([level, *row] for level, row in enumerate(coherences)),
    )
    return {"c_max": float(coherences.max())}


def _run_bandwidth_fit(config: RunConfig, out: _Outputs):
    grid = config.grid(default_aah_grid())
    result = bandwidth_fit(
        fib_index=config.fib_index,
        delta_grid=grid,
        eta_samples=config.eta_samples,
        seed=config.seed,
        workers=config.workers,
    )
    out.csv(
        "bandwidth_fit_edges.csv",
        ["delta", "edge_excess", "fitted"],
        (
            [d, e, result.coefficient * d * d]
            for d, e in zip(grid, result.band_edges)
        ),
    )
    out.json(
        "bandwidth_fit_result.json",
        {
            "coefficient": result.coefficient,
            "residual_max": result.residual_max,
            "delta_grid": [float(d) for d in grid],
        },
    )
    return {"coefficient": result.coefficient}


def _run_single_quench(config: RunConfig, out: _Outputs):
    """Two-level quench when omega_f is given, chain quench otherwise."""
    if config.omega_f is not None:
        hi, hf = lz_hamiltonian(config.omega_i), lz_hamiltonian(config.omega_f)
        initial = diagonalize(hi)
        table = PairTable(hi, hf, initial, diagonalize(hf))
        uncollected = UncollectedDistribution(config.state_spec().build(initial), table)
        work = collect_work_distribution(uncollected, config.cluster_tol)
    else:
        (work,) = aah_work_histogram(config.fib_index, [config.delta], config.direction,
                                     config.state_spec(), config.eta, config.cluster_tol)
    out.csv("single_quench_work.csv", _WORK_HEADER,
            zip(work.support, work.probs, work.multiplicity))
    out.json("single_quench_work.json", work.to_json_record())
    return {"h_w": entropy_of_work(work)}


_COMMON = ("subcommand", "out", "threads")
_CHAIN = ("fib_index", "eta", "direction", "cluster_tol")
_STATE = ("state_kind", "state_level", "state_beta")
_GRID = ("grid_start", "grid_stop", "grid_points", "grid_values")

# Each subcommand's handler and the settings it reads besides _COMMON: its
# flags, the settings it refuses and its manifest's config echo follow. A
# handler writes its files through an _Outputs and returns the summary's extras.
_HANDLERS = {
    "lz-sweep": (_run_lz_sweep, ("omega_i", "state_beta", "cluster_tol", *_GRID, "bits")),
    "aah-hist": (_run_aah_hist, (*_CHAIN, *_STATE, *_GRID, "bits")),
    "aah-sweep": (_run_aah_sweep, (*_CHAIN, *_STATE, *_GRID, "bits")),
    "aah-scaling": (_run_aah_scaling, ("fib_min", "fib_max", "eta_samples", "deriv_step",
                                       "direction", "cluster_tol", "seed")),
    "thermal-sweep": (_run_thermal_sweep, (*_CHAIN, "state_betas", *_GRID, "bits")),
    "coherence-map": (_run_coherence_map, ("fib_index", "eta", *_GRID, "bits")),
    "bandwidth-fit": (_run_bandwidth_fit, ("fib_index", "eta_samples", *_GRID, "seed")),
    "single-quench": (_run_single_quench, (*_CHAIN, *_STATE, "omega_i", "omega_f", "delta",
                                           "bits")),
}


SUBCOMMANDS = tuple(_HANDLERS)


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_STRINGS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_values_list(text: str) -> tuple[float, ...]:
    return tuple(float(item) for item in text.replace(";", ",").split(",") if item.strip())


def _setting(section: str, parse, default=MISSING, *, flag: str | None = "", choices=None,
             help=None):
    """A ``RunConfig`` field that reads its value from ``[section]`` with ``parse``.

    Its INI key is the field name without a ``<section>_`` prefix. Its flag
    is ``--<field-name>`` (underscores as dashes) unless ``flag`` spells it,
    and ``flag=None`` leaves it file-only. A value outside ``choices`` is
    rejected.
    """
    metadata = {"section": section, "parse": parse, "flag": flag, "choices": choices,
                "help": help}
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Fully validated description of one CLI run.

    Each field declares one setting once, and ``_HANDLERS`` the subcommands
    that read it: the INI keys, the flags and the config echo follow.
    """

    subcommand: str = _setting("run", str, flag=None, choices=SUBCOMMANDS)
    out: str = _setting("run", str, "results", help="output directory (default: results)")
    seed: int = _setting("run", int, DEFAULT_SEED, help="seed for phase sampling")
    threads: int = _setting("run", int, 0,
                            help="worker threads (0 = usable cores divided by BLAS threads)")
    cluster_tol: float | None = _setting("run", float, None,
                                         help="override the degeneracy clustering width")
    bits: bool = _setting("run", _parse_bool, False,
                          help="display entropies in bits (files stay in nats)")
    delta: float = _setting("model", float, 1.0)
    omega_i: float = _setting("model", float, -20.0)
    omega_f: float | None = _setting("model", float, None)
    eta: float = _setting("model", float, AahParams.eta)
    fib_index: int = _setting("model", int, 16)
    direction: str = _setting("model", str, ZERO_TO_DELTA, choices=DIRECTIONS)
    fib_min: int = _setting("model", int, 10)
    fib_max: int = _setting("model", int, 16)
    eta_samples: int = _setting("model", int, DEFAULT_ETA_SAMPLES)
    deriv_step: float = _setting("model", float, DEFAULT_DERIV_STEP)
    state_kind: str = _setting("state", str, "ground", flag="--state", choices=STATE_KINDS)
    state_level: int = _setting("state", int, 0, flag="--level")
    state_beta: float | None = _setting("state", float, None, flag="--beta")
    state_betas: tuple[float, ...] = _setting("state", _parse_values_list,
                                              (1e-2, 1.0, 1e2, 1e4), flag=None)
    grid_start: float | None = _setting("grid", float, None)
    grid_stop: float | None = _setting("grid", float, None)
    grid_points: int | None = _setting("grid", int, None)
    grid_values: tuple[float, ...] | None = _setting("grid", _parse_values_list, None)

    def __post_init__(self):
        for setting in fields(self):
            choices, value = setting.metadata["choices"], getattr(self, setting.name)
            if choices is not None and value not in choices:
                raise ConfigError(
                    f"{setting.name} must be one of {', '.join(choices)}; got {value!r}"
                )
        if self.cluster_tol is not None and not 0 < self.cluster_tol < math.inf:
            raise ConfigError(f"cluster_tol must be positive and finite, got {self.cluster_tol!r}")
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {self.threads}")
        if not 3 <= self.fib_min <= self.fib_max:
            raise ConfigError(
                f"need 3 <= fib_min <= fib_max, got {self.fib_min}..{self.fib_max}"
            )
        if self.subcommand == "lz-sweep" and self.state_beta is None:
            self.state_beta = DEFAULT_LZ_BETA  # its state is always thermal
        if self.state_kind == "thermal" and self.state_beta is None:
            raise ConfigError("state kind 'thermal' requires beta")

    def in_force(self) -> tuple[str, ...]:
        """The settings this run reads: its subcommand's, less a level outside
        an eigenstate, a beta outside a thermal state, the grid's bounds beside
        its values and the model a single quench does not build."""
        takes = _COMMON + _HANDLERS[self.subcommand][1]
        unread = set() if self.state_kind == "eigenstate" else {"state_level"}
        if self.grid_values is not None:
            unread |= {"grid_start", "grid_stop", "grid_points"}
        if self.state_kind != "thermal" and "state_kind" in takes:
            unread.add("state_beta")  # lz-sweep's state is always thermal
        if self.subcommand == "single-quench":
            chain = {"fib_index", "eta", "direction", "delta"}
            unread |= {"omega_i"} if self.omega_f is None else chain
        return tuple(name for name in takes if name not in unread)

    @property
    def workers(self) -> int:
        """``threads``, or for 0 the usable cores (the affinity mask, by which
        OpenBLAS sizes itself) left after each ``eigh`` takes its BLAS threads:
        more workers only make the BLAS threads share cores."""
        if self.threads > 0:
            return self.threads
        affinity = getattr(os, "sched_getaffinity", None)
        cores = len(affinity(0)) if affinity else os.cpu_count() or 1
        return max(1, cores // (blas_threads() or 1))

    def state_spec(self) -> StateSpec:
        kind = self.state_kind  # a level or beta outside its kind is not read
        return StateSpec(kind, self.state_level if kind == "eigenstate" else 0,
                         self.state_beta if kind == "thermal" else None)

    def grid(self, default: np.ndarray) -> np.ndarray:
        """The sweep grid: ``grid_values`` if set, else the subcommand's
        ``default`` with its start, stop and point count taken from any grid
        keys that are set."""
        if self.grid_values is not None:
            grid = np.array(self.grid_values, dtype=float)
        elif self.grid_start is None and self.grid_stop is None and self.grid_points is None:
            grid = default
        else:
            start = float(default[0]) if self.grid_start is None else self.grid_start
            stop = float(default[-1]) if self.grid_stop is None else self.grid_stop
            if stop < start:
                raise ConfigError(f"grid stop {stop} below start {start}")
            points = default.size if self.grid_points is None else self.grid_points
            grid = np.linspace(start, stop, max(points, 0))
        if grid.size < 1:
            raise ConfigError("grid needs at least one point")
        return grid


def _read_config_file(path: str) -> dict:
    """Parse the INI file into RunConfig keyword arguments."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path, encoding="utf-8")
        sections = {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
    if not found:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    known: dict = {}
    for setting in fields(RunConfig):
        section = setting.metadata["section"]
        known.setdefault(section, {})[setting.name.removeprefix(f"{section}_")] = setting
    kwargs: dict = {}
    for section, items in sections.items():
        if section not in known:
            raise ConfigError(
                f"unknown config section [{section}]; valid sections: {', '.join(known)}"
            )
        for key, text in items.items():
            if key not in known[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; valid keys: "
                    f"{', '.join(sorted(known[section]))}"
                )
            setting = known[section][key]
            try:
                kwargs[setting.name] = setting.metadata["parse"](text)
            except ValueError:
                raise ConfigError(f"bad value for {section}.{key}: {text!r}") from None
    return kwargs


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """A RunConfig from an optional file plus flag overrides, each one read by the run."""
    kwargs: dict = {}
    if path is not None:
        kwargs.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            kwargs[key] = value
    if "subcommand" not in kwargs:
        raise ConfigError("no subcommand given (flag or [run] subcommand in the config file)")
    try:
        config = RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    unread = [name for name in kwargs if name not in config.in_force()]
    if unread:
        raise ConfigError(f"{config.subcommand} does not read {unread[0]} in this run")
    return config


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit status.

    The manifest is written even when the computation fails, with an error
    record and the files written before it, so a partial run is always
    auditable. An output directory that
    cannot be created raises ``ConfigError`` first, as there is then no
    place for a manifest. An unwritable output or manifest is an ``io`` error, status 4.
    """
    started = time.time()
    out = config.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from None
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out!r} is not writable")
    outputs = _Outputs(out)
    extras: dict = {}
    error_record = None
    status = 0
    try:
        _progress(f"running {config.subcommand}")
        extras = _HANDLERS[config.subcommand][0](config, outputs)
        _progress(f"wrote {len(outputs.names)} file(s) in {time.time() - started:.1f}s")
    except BoundViolationError as exc:
        error_record = {"type": "bound-violation", "message": str(exc),
                        "axis_point": getattr(exc, "axis_point", None)}
        status = 3
    except (ValidationError, ConfigError) as exc:
        error_record = {"type": "validation", "message": str(exc),
                        "axis_point": getattr(exc, "axis_point", None)}
        status = 2
    except OSError as exc:
        error_record, status = {"type": "io", "message": f"{type(exc).__name__}: {exc}"}, 4
    except Exception as exc:  # manifest must record even unexpected failures
        error_record = {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}
        status = 1
    manifest = {
        "version": __version__,
        "config": {name: getattr(config, name) for name in config.in_force()},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "blas": _blas_record(),
            "pool_workers": config.workers,
            "malloc": _malloc_in_force,
        },
        "tolerances": {
            f"{module.__name__.rsplit('.', 1)[1]}.{name}": getattr(module, name)
            for module, names in _TOLERANCES
            for name in names
        },
        "outputs": outputs.names,
        "wall_time_s": time.time() - started,
        "peak_rss_mb": resource and resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / (1024.0**2 if sys.platform == "darwin" else 1024.0),  # bytes on macOS, KiB elsewhere
        "error": error_record,
    }
    if error_record is not None:
        print(json.dumps(error_record), file=sys.stderr)
    try:
        _write_atomic(os.path.join(out, "manifest.json"), _json_text(manifest))
    except OSError as exc:
        error_record = {"type": "io", "message": f"manifest.json: {type(exc).__name__}: {exc}"}
        print(json.dumps(error_record), file=sys.stderr)
        status = 4
    if error_record is None:
        # entropies are stored in nats everywhere; conversion is display-only
        summary = {"subcommand": config.subcommand, "outputs": manifest["outputs"]}
        if "bits" in config.in_force():  # a summary that holds an entropy
            summary["entropy_unit"] = "bits" if config.bits else "nats"
        for key, value in extras.items():
            bits = config.bits and key.startswith(("h_w", "c_max"))
            summary[key] = value / LN2 if bits else value
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
        for setting in fields(RunConfig):
            meta = setting.metadata
            if meta["flag"] is None or setting.name not in _COMMON + _HANDLERS[name][1]:
                continue
            if meta["parse"] is _parse_bool:
                kind = {"action": "store_const", "const": True}
            else:
                kind = {"type": meta["parse"], "choices": meta["choices"]}
            cmd.add_argument(meta["flag"] or "--" + setting.name.replace("_", "-"),
                             dest=setting.name, help=meta["help"], **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    global _malloc_in_force
    overrides = vars(_build_parser().parse_args(argv))
    _malloc_in_force = _raise_malloc_thresholds()  # before anything is diagonalized
    path = overrides.pop("config")
    try:
        config = parse_config(path, overrides)
        return run(config)
    except (ConfigError, ValidationError) as exc:
        print(json.dumps({"type": "config-error", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
