"""Parameter sweeps, finite-size scaling, and curve fits.

Drivers that walk the two-level crossing through its detuning and the AAH
chain through its localization transition, collecting moments, work
entropy, and the full bound report at every point. Sweep points and phase
samples are embarrassingly parallel; fan-out preserves axis order, so a
fixed (config, seed) pair always reproduces files byte for byte.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import BoundViolationError, ValidationError
from .infotheory import BoundsReport, _table_coherences, bounds_report, entropy_of_work
from .models import (AahParams, _onsite_energies, _ring, aah_hamiltonian, fibonacci_pair,
                     lz_hamiltonian)
from .spectral import SpectralDecomposition, diagonalize, level_populations, thermal_populations
from .tpm import (
    MOMENT_ORDERS,
    PairTable,
    UncollectedDistribution,
    WorkDistribution,
    check_first_moment,
    collect_work_distribution,
    max_degeneracy,
    work_moments,
)

DELTA_TO_ZERO = "delta-to-zero"
ZERO_TO_DELTA = "zero-to-delta"
DIRECTIONS = (DELTA_TO_ZERO, ZERO_TO_DELTA)
STATE_KINDS = ("ground", "eigenstate", "thermal")

DEFAULT_SEED = 12345
DEFAULT_ETA_SAMPLES = 50
# Width of the centred difference used for the transition slope, in units
# of the hopping. This is a figure-resolution window: the step in the work
# entropy keeps sharpening with lattice size, so the pointwise derivative
# has no size-stable estimator and the slope is defined at this scale.
DEFAULT_DERIV_STEP = 0.15
GROUND_MEAN_TOL = 1e-10
# Inverse temperature of the two-level sweep's initial thermal state.
DEFAULT_LZ_BETA = 0.1


def default_lz_grid() -> np.ndarray:
    """Final-detuning grid spanning [-25, 25] gaps."""
    return np.linspace(-25.0, 25.0, 501)


def default_aah_grid() -> np.ndarray:
    """Potential grid spanning (0, 4] hoppings."""
    return np.linspace(0.05, 4.0, 80)


@dataclass(frozen=True)
class StateSpec:
    """Initial-state choice: ground projector, eigenstate k, or thermal."""

    kind: str
    level: int = 0
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValidationError(f"unknown state kind {self.kind!r}")
        if self.kind == "eigenstate" and self.level < 0:
            raise ValidationError(f"eigenstate level must be >= 0, got {self.level}")
        if self.kind == "thermal" and (self.beta is None or not self.beta >= 0):
            raise ValidationError("thermal state requires beta >= 0")

    @classmethod
    def ground(cls) -> "StateSpec":
        return cls(kind="ground")

    @classmethod
    def eigenstate(cls, level: int) -> "StateSpec":
        return cls(kind="eigenstate", level=level)

    @classmethod
    def thermal(cls, beta: float) -> "StateSpec":
        return cls(kind="thermal", beta=beta)

    def build(self, initial: SpectralDecomposition) -> np.ndarray:
        """Populations over the levels of ``initial``, in which the state is diagonal."""
        if self.kind == "thermal":
            return thermal_populations(initial, self.beta)
        return level_populations(initial, self.level if self.kind == "eigenstate" else 0)


@dataclass(frozen=True, eq=False)
class SweepRow:
    """One sweep point: moments, variance, measured mean, full report (with H_W).

    ``moments`` and ``variance`` are None in a row computed without them.
    """

    moments: np.ndarray | None
    variance: float | None
    mean_direct: float
    report: BoundsReport
    gamma_max: int
    normalized_moments: np.ndarray | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class SweepResult:
    axis: np.ndarray
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        if len(self.rows) != np.asarray(self.axis).size:
            raise ValidationError("one row per axis point required")

    def column(self, name: str) -> np.ndarray:
        """Vector of one scalar across rows, e.g. 'h_w' or 's_diag'."""
        if hasattr(self.rows[0], name):
            return np.array([getattr(row, name) for row in self.rows], dtype=float)
        return np.array([getattr(row.report, name) for row in self.rows], dtype=float)


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Transition slopes per lattice size with their power-law fit."""

    sizes: np.ndarray
    slopes: np.ndarray
    fit_exponent: float
    fit_prefactor: float
    residuals: np.ndarray


@dataclass(frozen=True, eq=False)
class FitResult:
    """Through-origin quadratic fit of the spectrum-edge excess."""

    coefficient: float
    residual_max: float
    band_edges: np.ndarray


def _fan_out(fn, items, workers: int):
    """Apply fn over items, fanning out across threads; results in item order."""
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValidationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


@contextmanager
def _at_point(**point):
    """Name the sweep point on a validation or bound failure raised inside.

    The coordinates that are not None are set as ``axis_point`` on the
    exception (those of an inner point win), and the run manifest writes
    them out.
    """
    try:
        yield
    except (ValidationError, BoundViolationError) as exc:
        known = {name: value for name, value in point.items() if value is not None}
        exc.axis_point = {**known, **getattr(exc, "axis_point", {})}
        raise


@lru_cache(maxsize=8)
def _flat_chain(fib_index: int) -> SpectralDecomposition:
    """The zero-potential chain's decomposition, which no phase changes; not its Hamiltonian."""
    return diagonalize(_ring(AahParams(fib_index=fib_index, delta=0.0)).T)


def _evaluate(
    pn: np.ndarray, table: PairTable, cluster_tol: float | None, moments: bool = True
) -> SweepRow:
    """One sweep row of the populations ``pn`` on ``table``.

    With ``moments`` false the row skips the work moments and leaves them None.
    """
    uncollected = UncollectedDistribution(pn, table)
    # The table's two memoized N-vectors come before its first collection: the N^2
    # temporaries that build them then land in the heap hole the cluster sort leaves.
    # Taken after it, they raised thermal_sweep's peak RSS from 88.0 to 91.6 MB.
    table.mean_work(uncollected.pn)
    _table_coherences(table)
    work = collect_work_distribution(uncollected, cluster_tol)
    # Sweep states carry no coherence in the initial basis, so the measured
    # mean checked here is also the trace-formula mean.
    mean_direct = check_first_moment(work, uncollected)
    moments, variance = work_moments(work) if moments else (None, None)
    report = bounds_report(table, work, uncollected)
    return SweepRow(
        moments=moments,
        variance=variance,
        mean_direct=mean_direct,
        report=report,
        gamma_max=max_degeneracy(work),
    )


def lz_sweep(
    omega_i: float,
    omega_f_grid: np.ndarray,
    beta: float = DEFAULT_LZ_BETA,
    cluster_tol: float | None = None,
    workers: int = 1,
) -> SweepResult:
    """Sudden quench of a thermal two-level system across its crossing.

    The initial state is thermal at inverse temperature ``beta`` in the
    Hamiltonian at detuning ``omega_i``; each grid point quenches to the
    final detuning and records the full report. Moments are additionally
    emitted normalized by their value at final detuning 1.
    Rows whose final detuning equals +-omega_i are flagged, since the work
    values degenerate there.
    """
    grid = np.asarray(omega_f_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("empty detuning grid")
    hi = lz_hamiltonian(omega_i)
    initial = diagonalize(hi)
    rho = thermal_populations(initial, beta)

    def run_point(omega_f: float) -> SweepRow:
        with _at_point(omega_f=float(omega_f)):
            hf = lz_hamiltonian(omega_f)
            return _evaluate(rho, PairTable(hi, hf, initial, diagonalize(hf)), cluster_tol)

    reference = run_point(1.0).moments
    rows = []
    for omega_f, row in zip(grid, _fan_out(run_point, list(grid), workers)):
        normalized = np.full(MOMENT_ORDERS, np.nan)
        np.divide(row.moments, reference, out=normalized, where=reference != 0.0)
        degenerate = math.isclose(abs(omega_f), abs(omega_i), rel_tol=0.0, abs_tol=1e-12)
        flags = ("degenerate-detuning",) if degenerate else ()
        rows.append(replace(row, normalized_moments=normalized, flags=flags))
    return SweepResult(axis=grid, rows=tuple(rows))


def _potential_grid(delta_grid: np.ndarray) -> np.ndarray:
    """``delta_grid`` as floats, refused unless non-empty and inside (0, 4] hoppings."""
    grid = np.asarray(delta_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("empty potential grid")
    if np.any(grid <= 0) or np.any(grid > 4.0):
        raise ValidationError("potential grid must lie in (0, 4] hoppings")
    return grid


def _aah_quench(params: AahParams, direction: str) -> PairTable:
    """The quench that switches the potential off or on: its table reads the on-site change,
    which is the modulated chain's on-site energies, since the flat chain's are zeros. Its ring
    is diagonalized in the array it is built in: the transposed view is in Fortran order."""
    flat = _flat_chain(params.fib_index)
    modulated = diagonalize(_ring(params).T)
    onsite = _onsite_energies(params)
    if direction == DELTA_TO_ZERO:
        return PairTable(None, None, modulated, flat, diagonal_change=-onsite)
    return PairTable(None, None, flat, modulated, diagonal_change=onsite)


def aah_work_histogram(
    params: AahParams,
    direction: str,
    state: StateSpec | None = None,
    cluster_tol: float | None = None,
) -> WorkDistribution:
    """Collected work distribution for switching the potential off or on."""
    _check_direction(direction)
    state = state or StateSpec.ground()
    with _at_point(delta=params.delta, eta=params.eta):
        table = _aah_quench(params, direction)
        uncollected = UncollectedDistribution(state.build(table.initial), table)
        return collect_work_distribution(uncollected, cluster_tol)


def aah_transition_sweep(
    fib_index: int,
    delta_grid: np.ndarray,
    direction: str,
    state: StateSpec | None = None,
    eta: float = AahParams.eta,
    cluster_tol: float | None = None,
    workers: int = 1,
) -> SweepResult:
    """Walk the chain through its localization transition.

    For the switch-on direction from the ground state the mean work
    vanishes identically (the flat-chain ground state is uniform, and the
    quasiperiodic potential averages to zero over a full ring), which is
    asserted here to one part in 1e10 of the hopping.
    """
    states = (state or StateSpec.ground(),)
    (result,) = _aah_sweeps(fib_index, delta_grid, direction, states, eta, cluster_tol, workers)
    return result


def _aah_sweeps(
    fib_index: int,
    delta_grid: np.ndarray,
    direction: str,
    states: tuple[StateSpec, ...],
    eta: float,
    cluster_tol: float | None,
    workers: int,
    *,
    moments: bool = True,
) -> tuple[SweepResult, ...]:
    """``aah_transition_sweep`` for each of ``states``, sharing each potential's quench.

    Each potential is diagonalized once, and its pair table (transitions,
    Bohr frequencies and everything derived from them alone) built once,
    for all of the states. A failure names its potential and, for a
    thermal state, its inverse temperature. A caller that writes no
    moments passes ``moments=False``, and its rows skip them.
    """
    _check_direction(direction)
    if not states:
        raise ValidationError("a sweep needs at least one initial state")
    grid = _potential_grid(delta_grid)
    # Filled here, so that the pool threads do not all miss the cache at once.
    _flat_chain(fib_index)

    def run_point(delta: float) -> list[SweepRow]:
        with _at_point(delta=float(delta)):
            params = AahParams(fib_index=fib_index, delta=float(delta), eta=eta)
            table = _aah_quench(params, direction)
            rows = []
            for state in states:
                with _at_point(beta=state.beta):
                    row = _evaluate(state.build(table.initial), table, cluster_tol, moments)
                    if direction == ZERO_TO_DELTA and state.kind == "ground":
                        if abs(row.mean_direct) > GROUND_MEAN_TOL:
                            raise ValidationError(
                                f"switch-on ground-state mean work {row.mean_direct!r} "
                                f"exceeds {GROUND_MEAN_TOL:g} hoppings"
                            )
                rows.append(row)
            return rows

    per_point = _fan_out(run_point, list(grid), workers)
    return tuple(
        SweepResult(axis=grid, rows=tuple(rows[k] for rows in per_point))
        for k in range(len(states))
    )


def scaling_derivative(
    fib_indices,
    eta_samples: int = DEFAULT_ETA_SAMPLES,
    seed: int = DEFAULT_SEED,
    deriv_step: float = DEFAULT_DERIV_STEP,
    direction: str = ZERO_TO_DELTA,
    cluster_tol: float | None = None,
    workers: int = 1,
) -> ScalingResult:
    """Phase-averaged transition slope of the work entropy versus size.

    For each lattice size the slope of H_W at the critical potential
    (two hoppings) is estimated by the centred difference over
    ``+-deriv_step`` and averaged over independent uniform phase draws
    from one seeded generator; every histogram is collected at
    ``cluster_tol``. A least-squares line through (ln N, ln slope) gives
    the power-law exponent.
    """
    indices = list(fib_indices)
    if len(indices) < 3:
        raise ValidationError("power-law fit requires at least 3 lattice sizes")
    if sorted(indices) != indices:
        raise ValidationError("lattice size indices must be ascending")
    if eta_samples < 1:
        raise ValidationError(f"eta_samples must be >= 1, got {eta_samples}")
    if not deriv_step > 0:
        raise ValidationError(f"deriv_step must be positive, got {deriv_step!r}")
    _check_direction(direction)

    sizes = [fibonacci_pair(fib_index)[1] for fib_index in indices]  # refused before any ring
    rng = np.random.default_rng(seed)
    slopes = []
    for fib_index in indices:
        etas = rng.uniform(0.0, 2.0 * math.pi, size=eta_samples)

        def slope_for(eta: float) -> float:
            upper = AahParams(fib_index=fib_index, delta=2.0 + deriv_step, eta=eta)
            lower = AahParams(fib_index=fib_index, delta=2.0 - deriv_step, eta=eta)
            return (
                entropy_of_work(aah_work_histogram(upper, direction, cluster_tol=cluster_tol))
                - entropy_of_work(aah_work_histogram(lower, direction, cluster_tol=cluster_tol))
            ) / (2.0 * deriv_step)

        with _at_point(fib_index=fib_index):
            _flat_chain(fib_index)  # filled before the pool threads need it
            per_eta = _fan_out(slope_for, list(etas), workers)
        slopes.append(float(np.mean(per_eta)))

    sizes = np.array(sizes, dtype=int)
    slopes = np.array(slopes, dtype=float)
    if np.any(slopes <= 0):
        raise ValidationError("transition slopes must be positive for a power-law fit")
    log_n = np.log(sizes.astype(float))
    log_s = np.log(slopes)
    design = np.vstack([log_n, np.ones_like(log_n)]).T
    coeffs, *_ = np.linalg.lstsq(design, log_s, rcond=None)
    residuals = log_s - design @ coeffs
    return ScalingResult(
        sizes=sizes,
        slopes=slopes,
        fit_exponent=float(coeffs[0]),
        fit_prefactor=float(math.exp(coeffs[1])),
        residuals=residuals,
    )


def eigenstate_coherence_map(
    fib_index: int,
    delta_grid: np.ndarray,
    eta: float = AahParams.eta,
    workers: int = 1,
) -> np.ndarray:
    """Coherence of every flat-chain eigenstate in the modulated basis, as (levels, grid).

    The quench direction is switch-on: the initial basis is the flat
    chain, and each grid column dephases against the chain at that
    potential. Degenerate flat-chain levels keep a basis-choice-dependent
    coherence floor even for vanishing potential; only the (unique) ground
    level is guaranteed to lose all coherence in that limit.
    """
    grid = np.asarray(delta_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("empty potential grid")
    _flat_chain(fib_index)  # filled before the pool threads need it

    def column(delta: float) -> np.ndarray:
        with _at_point(delta=float(delta)):
            params = AahParams(fib_index=fib_index, delta=float(delta), eta=eta)
            return _table_coherences(_aah_quench(params, ZERO_TO_DELTA))

    columns = _fan_out(column, list(grid), workers)
    return np.column_stack(columns)


def bandwidth_fit(
    fib_index: int,
    delta_grid: np.ndarray,
    eta_samples: int = DEFAULT_ETA_SAMPLES,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> FitResult:
    """Fit the quadratic growth of the spectrum edge beyond two hoppings.

    For each potential the edge is the largest |eigenvalue| over the phase
    samples, minus two hoppings; the through-origin least squares of edge
    against potential^2 gives the curvature coefficient.
    """
    grid = _potential_grid(delta_grid)
    if eta_samples < 1:
        raise ValidationError(f"eta_samples must be >= 1, got {eta_samples}")
    rng = np.random.default_rng(seed)
    etas = rng.uniform(0.0, 2.0 * math.pi, size=eta_samples)

    def edge_for(delta: float) -> float:
        largest = 0.0
        for eta in etas:
            with _at_point(delta=float(delta), eta=float(eta)):
                params = AahParams(fib_index=fib_index, delta=float(delta), eta=float(eta))
                evals = np.linalg.eigvalsh(aah_hamiltonian(params).entries)
            largest = max(largest, float(np.max(np.abs(evals))))
        if not largest > 2.0:  # second order lowers the ground level: this is rounding noise
            with _at_point(delta=float(delta)):
                raise ValidationError(f"potential {float(delta)!r} gives edge excess "
                                      f"{largest - 2.0!r}, not above 0: too small to fit")
        return largest - 2.0

    edges = np.array(_fan_out(edge_for, list(grid), workers), dtype=float)
    regressor = grid**2
    quartic = float(np.sum(regressor**2))
    if not quartic > 0:
        raise ValidationError(f"potentials up to {float(grid.max())!r} have fourth powers of 0")
    coefficient = float(np.sum(regressor * edges)) / quartic
    residual_max = float(np.max(np.abs(edges - coefficient * regressor) / np.abs(edges)))
    return FitResult(coefficient=coefficient, residual_max=residual_max, band_edges=edges)
