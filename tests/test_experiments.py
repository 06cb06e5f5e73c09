import gc
import math
import tracemalloc

import numpy as np
import pytest

from conftest import BAND_EDGE_COEFFICIENT, aah_quench, mean_work_direct
from qworkstats import (
    AahParams,
    DELTA_TO_ZERO,
    ZERO_TO_DELTA,
    QuenchSetup,
    SpectralDecomposition,
    StateSpec,
    ValidationError,
    aah_hamiltonian,
    aah_transition_sweep,
    aah_work_histogram,
    bandwidth_fit,
    default_aah_grid,
    default_lz_grid,
    eigenstate_coherence_map,
    lz_sweep,
    scaling_derivative,
)
from qworkstats import cli, experiments, infotheory, tpm
from qworkstats.infotheory import BoundsReport


def test_default_grids():
    lz = default_lz_grid()
    assert lz.size == 501
    assert lz[0] == -25.0 and lz[-1] == 25.0
    aah = default_aah_grid()
    assert aah.size == 80
    assert aah[0] == pytest.approx(0.05) and aah[-1] == pytest.approx(4.0)
    assert np.any(np.isclose(aah, 2.0))


def test_state_spec_validation():
    with pytest.raises(ValidationError):
        StateSpec(kind="squeezed")
    with pytest.raises(ValidationError):
        StateSpec(kind="thermal")
    assert StateSpec.thermal(2.0).beta == 2.0
    assert StateSpec.eigenstate(4).level == 4


def test_lz_sweep_rows_and_normalization():
    grid = np.linspace(-25.0, 25.0, 51)
    result = lz_sweep(omega_i=-20.0, omega_f_grid=grid, beta=0.1)
    assert len(result.rows) == 51
    for row in result.rows:
        assert row.moments.shape == (4,)
        assert row.variance >= -1e-12
    # the row at final detuning equal to the gap normalizes to exactly 1
    at_gap = result.rows[int(np.argmin(np.abs(grid - 1.0)))]
    assert grid[int(np.argmin(np.abs(grid - 1.0)))] == 1.0
    assert np.allclose(at_gap.normalized_moments, 1.0, atol=1e-12)


def test_lz_sweep_flags_degenerate_detunings():
    grid = np.array([-20.0, -1.0, 20.0])
    result = lz_sweep(omega_i=-20.0, omega_f_grid=grid, beta=0.1)
    assert result.rows[0].flags == ("degenerate-detuning",)
    assert result.rows[1].flags == ()
    assert result.rows[2].flags == ("degenerate-detuning",)
    # equal spectra collapse work values, so the collected entropy drops
    # below the uncollected one exactly there
    assert result.rows[0].report.h_w < result.rows[0].report.h_u - 1e-6
    assert result.rows[1].report.h_w == pytest.approx(result.rows[1].report.h_u, abs=1e-10)


def test_lz_sweep_entropy_peaks_at_crossing():
    grid = np.linspace(-25.0, 25.0, 501)
    result = lz_sweep(omega_i=-20.0, omega_f_grid=grid, beta=0.1)
    h_w = result.column("h_w")
    peak = grid[int(np.argmax(h_w))]
    assert abs(peak) <= grid[1] - grid[0] + 1e-12


def test_lz_sweep_rejects_empty_grid():
    with pytest.raises(ValidationError):
        lz_sweep(omega_i=-20.0, omega_f_grid=np.array([]), beta=0.1)


def test_aah_histogram_sign_structure():
    delta = 2.0
    (off,) = aah_work_histogram(9, [delta], DELTA_TO_ZERO)
    assert float(off.support.min()) > 0.0
    (on,) = aah_work_histogram(9, [delta], ZERO_TO_DELTA)
    assert float(on.support.min()) < 0.0 < float(on.support.max())
    edge = 2.0 + BAND_EDGE_COEFFICIENT * delta**2
    assert float(on.support.max()) <= 4.0 + (edge - 2.0) + 0.15 * (edge - 2.0)
    with pytest.raises(ValidationError):
        aah_work_histogram(9, [delta], "sideways")


def test_aah_histogram_small_potential_concentrates_low():
    (work,) = aah_work_histogram(10, [1.0], ZERO_TO_DELTA)
    order = np.argsort(work.support)
    cumulative = np.cumsum(work.probs[order])
    # delocalized phase: almost all weight within the lowest slice of support
    window = work.support[order] <= work.support.min() + 0.2 * (
        work.support.max() - work.support.min()
    )
    assert float(work.probs[order][window].sum()) > 0.9


def test_aah_sweep_ground_switch_on_mean_zero():
    (result,) = aah_transition_sweep(9, [0.5, 1.5, 2.5], ZERO_TO_DELTA)
    for row in result.rows:
        assert abs(row.mean_direct) <= 1e-10
        assert abs(row.moments[0]) <= 1e-10


def test_aah_sweep_switch_off_mean_positive():
    (result,) = aah_transition_sweep(9, [0.5, 1.5, 2.5], DELTA_TO_ZERO)
    for row in result.rows:
        assert row.mean_direct > 0.0
        assert float(np.min(row.moments[0])) > 0.0


def test_aah_sweep_entropy_rises_across_transition():
    (result,) = aah_transition_sweep(10, [1.5, 2.5], ZERO_TO_DELTA)
    assert result.rows[1].report.h_w > result.rows[0].report.h_w


def test_aah_sweep_eigenstate_mean_linear_in_potential():
    # fixed initial eigenstate: the trace-formula mean is exactly linear
    # in the final potential amplitude; only levels whose doubled momentum
    # matches the quasiperiodic harmonic couple at all, so level 7 of the
    # 21-site ring is one of the two with a nonzero mean
    level = 7
    (result,) = aah_transition_sweep(
        8, [0.7, 1.4], ZERO_TO_DELTA, states=(StateSpec.eigenstate(level),)
    )
    mean_1, mean_2 = (row.mean_direct for row in result.rows)
    assert abs(mean_1) > 1e-3
    assert mean_2 / mean_1 == pytest.approx(2.0, abs=1e-8)


def test_aah_sweep_zero_temperature_state_matches_ground():
    import math

    cold, ground = aah_transition_sweep(
        8, [2.5], DELTA_TO_ZERO, states=(StateSpec.thermal(math.inf), StateSpec.ground())
    )
    assert cold.rows[0].report.h_w == pytest.approx(ground.rows[0].report.h_w, abs=1e-12)
    assert cold.rows[0].report.s_diag == pytest.approx(0.0, abs=1e-12)


def test_aah_sweep_thermal_rows_have_reports():
    (result,) = aah_transition_sweep(
        8, [1.0, 3.0], ZERO_TO_DELTA, states=(StateSpec.thermal(1.0),)
    )
    for row in result.rows:
        assert row.report.s_diag > 0.1  # genuinely mixed
        assert row.report.h_u <= 2 * row.report.s_diag + row.report.rec_rho_bar + 1e-10


def test_aah_sweep_rejects_bad_grids():
    for bad in ([], [0.0, 1.0], [1.0, 4.5]):
        with pytest.raises(ValidationError) as sweep:
            aah_transition_sweep(8, bad, ZERO_TO_DELTA)
        with pytest.raises(ValidationError) as fit:  # one gate serves both drivers
            bandwidth_fit(8, bad, eta_samples=1)
        assert str(sweep.value) == str(fit.value)
    with pytest.raises(ValidationError):
        aah_transition_sweep(8, [1.0], "up")


def test_sweep_workers_do_not_change_results():
    (serial,) = aah_transition_sweep(8, [1.0, 2.0, 3.0], ZERO_TO_DELTA, workers=1)
    (threaded,) = aah_transition_sweep(8, [1.0, 2.0, 3.0], ZERO_TO_DELTA, workers=2)
    assert np.array_equal(serial.column("h_w"), threaded.column("h_w"))
    assert np.array_equal(serial.column("mean_direct"), threaded.column("mean_direct"))


def test_coherence_map_shape_and_limits():
    grid = np.array([1e-4, 1.0, 3.0])
    result = eigenstate_coherence_map(9, grid)
    n = 34
    assert result.shape == (n, 3)
    # the unique ground level loses all coherence as the quench vanishes
    assert result[0, 0] < 1e-4
    # past the transition every level carries substantial coherence
    assert float(result[:, 2].min()) > 0.5


def test_coherence_map_ground_row_matches_sweep_report():
    grid = np.array([0.8, 2.2])
    result = eigenstate_coherence_map(9, grid)
    (sweep,) = aah_transition_sweep(9, grid, ZERO_TO_DELTA)
    for idx in range(grid.size):
        assert result[0, idx] == pytest.approx(
            sweep.rows[idx].report.per_level_coherence[0], abs=1e-12
        )


def test_coherence_map_levels_jump_together_at_transition():
    grid = np.array([1.5, 2.5])
    result = eigenstate_coherence_map(10, grid)
    jumps = result[:, 1] - result[:, 0]
    assert float(np.min(jumps)) > 0.0


def test_scaling_derivative_validation(monkeypatch):
    # every refusal comes before the first ring is built
    monkeypatch.setattr(experiments, "_ring", lambda params: pytest.fail("built a ring"))
    for indices, eta_samples, deriv_step, named in (
        ([8, 9], 2, 0.15, "3 lattice sizes"),
        ([9, 8, 10], 2, 0.15, "ascending"),
        ([8, 9, 10], 0, 0.15, "eta_samples"),
        ([8, 9, 10], 2, 0.0, "deriv_step"),
        ([5, 6, 7], 1, 2.0, "deriv_step"),  # its lower potential is the flat chain
        ([5, 6, 7], 1, 3.0, "deriv_step"),  # its lower potential is -1
        ([5, 6, 7], 1, math.nan, "deriv_step"),
    ):
        with pytest.raises(ValidationError, match=named):
            scaling_derivative(indices, eta_samples=eta_samples, seed=1, deriv_step=deriv_step)


def test_scaling_derivative_deterministic_and_increasing():
    first = scaling_derivative([6, 7, 8, 9], eta_samples=4, seed=2024)
    second = scaling_derivative([6, 7, 8, 9], eta_samples=4, seed=2024)
    assert np.array_equal(first.slopes, second.slopes)
    assert first.fit_exponent == second.fit_exponent
    assert np.all(first.slopes > 0)
    assert np.all(np.diff(first.slopes) > 0)
    assert first.sizes.tolist() == [8, 13, 21, 34]


def test_scaling_slope_is_taken_at_the_critical_point(monkeypatch):
    # delta is V/J, so the centred difference straddles delta = 2 exactly
    deltas = []
    ring = experiments._ring

    def recording(params):
        if params.delta != 0.0:  # not the flat chain
            deltas.append(params.delta)
        return ring(params)

    monkeypatch.setattr(experiments, "_ring", recording)
    for step in (experiments.DEFAULT_DERIV_STEP, 0.1):
        deltas.clear()
        scaling_derivative([5, 6, 7], eta_samples=2, seed=1, deriv_step=step)
        assert len(deltas) == 3 * 2 * 2
        assert set(deltas) == {2.0 + step, 2.0 - step}


def test_scaling_derivative_single_phase_deterministic():
    result = scaling_derivative([6, 7, 8], eta_samples=1, seed=99)
    again = scaling_derivative([6, 7, 8], eta_samples=1, seed=99)
    assert np.array_equal(result.slopes, again.slopes)


def test_bandwidth_fit_small_lattice():
    grid = np.linspace(0.5, 4.0, 8)
    result = bandwidth_fit(10, grid, eta_samples=4, seed=11)
    assert 0.10 < result.coefficient < 0.20
    assert result.band_edges.shape == (8,)
    assert np.all(np.diff(result.band_edges) > 0)
    assert result.residual_max < 0.25
    with pytest.raises(ValidationError):
        bandwidth_fit(10, [], eta_samples=2, seed=1)
    with pytest.raises(ValidationError):
        bandwidth_fit(10, [5.0], eta_samples=2, seed=1)


def test_bandwidth_fit_refuses_a_potential_too_small_to_fit(monkeypatch):
    # Second order lowers the ring's ground level for any potential, so an edge
    # excess that is not positive is rounding noise; at 1e-300 the potential's
    # fourth power also underflows, which alone would divide 0 by 0.
    for delta, excess in ((1e-300, "0.0"), (1e-9, "-1.55")):
        with pytest.raises(ValidationError, match=f"potential {delta!r} gives edge excess "
                                                  f"{excess}.*too small to fit") as caught:
            bandwidth_fit(8, [1.0, delta], eta_samples=1)
        assert caught.value.axis_point == {"delta": delta}
    # an excess that is positive but whose potential underflows in the fit
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda entries: np.array([-2.5, 2.0]))
    with pytest.raises(ValidationError, match="potentials up to 1e-90 have fourth powers of 0"):
        bandwidth_fit(8, [1e-100, 1e-90], eta_samples=1)


def test_bandwidth_fit_residuals_grow_toward_validity_edge():
    # the quadratic edge law degrades approaching four hoppings, so the
    # absolute misfit climbs toward the end of the validity window
    grid = np.linspace(0.25, 4.0, 16)
    result = bandwidth_fit(12, grid, eta_samples=4, seed=3)
    misfit = np.abs(result.band_edges - result.coefficient * grid**2)
    assert float(misfit[-5:].mean()) > 3.0 * float(misfit[:5].mean())
    assert grid[int(np.argmax(misfit))] >= 3.0


def _thermal_sweep(fib_index, grid, workers):
    states = tuple(StateSpec.thermal(beta) for beta in (0.01, 1.0, 100.0, 1e4))
    return aah_transition_sweep(fib_index, grid, DELTA_TO_ZERO, states, workers=workers)


# Every driver that runs AAH points, called as (fib_index, potential grid, workers).
# The scaling runs the three sizes up to fib_index, with two phases and no grid.
AAH_DRIVERS = {
    "ground-sweep": lambda fib_index, grid, workers: aah_transition_sweep(
        fib_index, grid, ZERO_TO_DELTA, workers=workers),
    "thermal-sweep": _thermal_sweep,
    "histogram": lambda fib_index, grid, workers: aah_work_histogram(
        fib_index, grid, ZERO_TO_DELTA, StateSpec.thermal(1.0), workers=workers),
    "coherence-map": lambda fib_index, grid, workers: eigenstate_coherence_map(
        fib_index, grid, workers=workers),
    "scaling": lambda fib_index, grid, workers: scaling_derivative(
        range(fib_index - 2, fib_index + 1), eta_samples=2, seed=1, workers=workers),
}


@pytest.mark.parametrize("driver", sorted(AAH_DRIVERS))
def test_each_potential_diagonalized_once_per_call(monkeypatch, driver):
    # one flat-chain decomposition per call (per size for the scaling) plus
    # one per point, however many pool threads or inverse temperatures share them
    levels = []
    real = experiments.diagonalize

    def counting(array):  # the array of a ring built for it
        levels.append(array.shape[0])
        return real(array)

    monkeypatch.setattr(experiments, "diagonalize", counting)
    grid = [1.0, 2.0, 3.0]
    AAH_DRIVERS[driver](8, grid, 2)
    if driver == "scaling":  # 2 * eta_samples points per size, at N = 8, 13 and 21
        assert sorted(levels) == [8] * 5 + [13] * 5 + [21] * 5
    else:
        assert levels == [21] * (1 + len(grid))


@pytest.mark.parametrize("driver", sorted(AAH_DRIVERS))
def test_no_n_squared_array_outlives_a_driver_call(driver):
    # the flat chain lives for one call: a process-wide cache of it kept
    # 1.2 N^2 arrays after a sweep at N = 144 returned
    n_squared = AahParams(fib_index=12, delta=0.0).size ** 2 * 8
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        AAH_DRIVERS[driver](12, [1.5, 2.5], 2)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < n_squared, (after - before) / n_squared


def test_aah_quench_tables_read_the_on_site_change(monkeypatch):
    # Neither direction builds the flat Hamiltonian: the table's first-moment
    # change is the difference of the two diagonals, bit for bit, and its
    # means stay those of the trace formula on the two Hamiltonians.
    fib_index = 8
    flat = aah_hamiltonian(AahParams(fib_index=fib_index, delta=0.0))
    n = flat.dim
    for delta in (1.5, 2.5):
        params = AahParams(fib_index=fib_index, delta=delta)
        modulated = aah_hamiltonian(params)
        for direction, (hi, hf) in ((ZERO_TO_DELTA, (flat, modulated)),
                                    (DELTA_TO_ZERO, (modulated, flat))):
            table = aah_quench(params, direction)
            assert table.hi is None and table.hf is None and table.u is None
            change = hf.entries.diagonal() - hi.entries.diagonal()
            assert table.diagonal_change.tobytes() == change.tobytes()
            for pn in (np.eye(n)[0], np.eye(n)[n // 2], np.full(n, 1.0 / n)):
                setup = QuenchSetup(hi=hi, hf=hf, rho=pn)
                assert table.mean_work(pn) == mean_work_direct(setup)

    # one ring built per point, and the flat chain's one per sweep, each handed
    # to diagonalize as its array: no operator is made of it
    builds = []
    real = experiments._ring

    def counting(params):
        builds.append(params.delta)
        return real(params)

    monkeypatch.setattr(experiments, "_ring", counting)
    grid = [1.0, 2.0, 3.0]
    for direction in (ZERO_TO_DELTA, DELTA_TO_ZERO):
        builds.clear()
        aah_transition_sweep(fib_index, grid, direction, workers=2)
        assert sorted(builds) == [0.0, *grid]


def test_each_potential_builds_one_pair_table_per_sweep(monkeypatch):
    # the transition matrix and everything derived from it alone depend on
    # the potential, not on the state, so four inverse temperatures share them
    transitions, coherences = [], []
    real_transitions = tpm.transition_probabilities
    real_coherences = infotheory._column_entropies

    def counting_transitions(initial, final, u=None):
        transitions.append(initial.dim)
        return real_transitions(initial, final, u)

    def counting_coherences(pmn):
        coherences.append(pmn.shape)
        return real_coherences(pmn)

    monkeypatch.setattr(tpm, "transition_probabilities", counting_transitions)
    monkeypatch.setattr(infotheory, "_column_entropies", counting_coherences)
    grid = [1.0, 2.0, 3.0]
    states = tuple(StateSpec.thermal(beta) for beta in (0.01, 1.0, 100.0, 1e4))
    results = aah_transition_sweep(8, grid, ZERO_TO_DELTA, states, 1.2, None, workers=2)
    assert len(transitions) == len(grid)
    assert len(coherences) == len(grid)
    assert all(len(result.rows) == len(grid) for result in results)


def test_thermal_sweep_computes_no_moments_and_the_same_reports(monkeypatch, tmp_path):
    # thermal-sweep writes entropies only, so its rows skip the work moments
    calls = []
    real_moments = tpm.work_moments

    def counting_moments(work):
        calls.append(work.num_points)
        return real_moments(work)

    grid = [1.5, 2.5]
    states = tuple(StateSpec.thermal(beta) for beta in (0.01, 1.0, 100.0, 1e4))
    monkeypatch.setattr(experiments, "work_moments", counting_moments)
    full = aah_transition_sweep(8, grid, ZERO_TO_DELTA, states, 1.2, None, workers=2)
    assert len(calls) == len(grid) * len(states)

    calls.clear()
    lean = aah_transition_sweep(8, grid, ZERO_TO_DELTA, states, 1.2, None, workers=2,
                                moments=False)
    argv = ["thermal-sweep", "--out", str(tmp_path), "--fib-index", "8", "--grid-values",
            "1.5,2.5", "--threads", "2"]
    assert cli.main(argv) == 0
    assert calls == []
    for with_moments, without in zip(full, lean):
        assert all(row.moments is None and row.variance is None for row in without.rows)
        for name in (*BoundsReport.CSV_FIELDS, "mean_direct", "gamma_max"):
            assert np.array_equal(without.column(name), with_moments.column(name)), name
        for a, b in zip(without.rows, with_moments.rows):
            assert np.array_equal(a.report.per_level_coherence, b.report.per_level_coherence)


def test_a_sweep_row_holds_few_n_squared_arrays(monkeypatch):
    # The traced peak of two sweep rows at N = 377, traced from the moment the
    # sweep's flat chain is diagonalized,
    # counted in N^2 float arrays: the thermal row (the CLI's four betas, no
    # moments) read 12.7 and the ground row 7.6 while the pair table kept its
    # sort leftovers and collection copied what it built, and 9.2 and 6.1
    # (10.2 and 7.1 switching off) while it kept the Bohr table and the
    # modulated Hamiltonian, and 7.2 and 4.1 (8.2 and 5.1) while the entropy
    # of the joint table was taken after collection, beside the collected
    # distribution, and 6.2 and 4.1 (7.2 and 5.1) while collection built the
    # whole weighted product and the joint outlived it, and 5.6 and 4.1 (6.6
    # and 5.1) while each quench built the flat Hamiltonian, the operator
    # copied the model's array and a ground row's collection made a cluster id
    # per pair, and 5.6 and 2.7 (6.6 and 3.7) while each state built its joint
    # table and H_u copied its nonzero entries, and 5.2 and 2.7 (6.2 and 3.7)
    # while the wide route stored int64 ids and the work entropy copied the
    # collected probabilities and took their whole log, and 4.2 and 2.6 (5.2
    # and 3.6) while the wide route sorted a copy of the Bohr values and kept
    # int64 member counts. Now they read 3.9 and 2.3 (4.9 and 3.3). Both peaks
    # are collection's gathers of the kept clusters beside its two per-cluster
    # sums and the int32 member counts (for a ground state, the dropped_mass
    # gather too). The wide state's cluster-id build, the Bohr values and their
    # argsort order, reads 3.3 (4.3), and the thermal row's work entropy 3.6
    # (4.6); the ground row's cluster-id build reads 2.2 (3.2). Each ring is
    # diagonalized in the array it is built in. The flat chain keeps one N^2
    # array between rows, its eigenvectors, and no Hamiltonian. A block is cut
    # to 0.05 N^2 (by default 0.46 N^2 here and 0.07 N^2 at N = 987), so that a
    # block sized for small tables cannot set a peak.
    fib_index = 14
    n = AahParams(fib_index=fib_index, delta=0.0).size
    n_squared = n**2 * 8
    monkeypatch.setattr(tpm, "BLOCK_PAIRS", n**2 // 20)
    flats = []
    real = experiments.diagonalize

    def tracing_after_the_flat_chain(array):
        decomposition = real(array)
        if not flats:  # a sweep diagonalizes its flat chain first
            flats.append(decomposition)
            tracemalloc.start()
        return decomposition

    monkeypatch.setattr(experiments, "diagonalize", tracing_after_the_flat_chain)
    betas = cli.RunConfig("thermal-sweep").state_betas
    thermal = tuple(StateSpec.thermal(beta) for beta in betas)
    budgets = (
        (ZERO_TO_DELTA, thermal, {"moments": False}, 4.0),
        (ZERO_TO_DELTA, (StateSpec.ground(),), {}, 2.5),
        (DELTA_TO_ZERO, thermal, {"moments": False}, 5.0),
        (DELTA_TO_ZERO, (StateSpec.ground(),), {}, 3.5),
    )
    for direction, states, options, budget in budgets:
        flats.clear()
        try:
            aah_transition_sweep(fib_index, np.array([1.5, 2.5]), direction, states, 1.2, None, 1,
                                 **options)
            peak = tracemalloc.get_traced_memory()[1] / n_squared
        finally:
            tracemalloc.stop()
        (flat,) = flats
        held = [a for a in vars(flat).values() if isinstance(a, np.ndarray) and a.size == n**2]
        assert isinstance(flat, SpectralDecomposition) and len(held) == 1
        assert held[0] is flat.eigenvectors
        assert peak <= budget, (direction, len(states), peak)


def test_the_block_size_moves_only_the_last_bits_of_h_u(monkeypatch):
    # Collection adds the pairs in row-major order whatever the block, so its
    # bits stay; H_u sums each block on its own, so its last bits may move.
    # At N = 377 the default block is 0.46 N^2; the others are 0.05 N^2 and
    # one row. A ground state collects by the narrow route on a fresh table,
    # a thermal state stores the ids, and an eigenstate reads them.
    states = (StateSpec.ground(), StateSpec.thermal(1.0), StateSpec.eigenstate(3))
    fields = [name for name in BoundsReport.CSV_FIELDS if name != "h_u"]

    def quench_all():
        out = []
        for delta in (1.5, 2.5):
            for direction in (ZERO_TO_DELTA, DELTA_TO_ZERO):
                table = aah_quench(AahParams(fib_index=14, delta=delta), direction)
                for state in states:
                    pn = state.build(table.initial)
                    work = tpm.collect_work_distribution(tpm.UncollectedDistribution(pn, table))
                    out.append((work, experiments._evaluate(pn, table, None)))
        return out

    default = quench_all()
    for block_pairs in (377**2 // 20, 1):
        monkeypatch.setattr(tpm, "BLOCK_PAIRS", block_pairs)
        for (work, row), (work0, row0) in zip(quench_all(), default):
            for name in ("support", "probs", "multiplicity"):
                assert getattr(work, name).tobytes() == getattr(work0, name).tobytes(), name
            assert repr(work.diagnostics) == repr(work0.diagnostics)
            assert [repr(getattr(row.report, name)) for name in fields] == \
                [repr(getattr(row0.report, name)) for name in fields]
            assert (row.moments.tobytes(), row.mean_direct) == (row0.moments.tobytes(),
                                                                 row0.mean_direct)
            assert abs(row.report.h_u - row0.report.h_u) <= 1e-15 * row0.report.h_u


def test_shared_sweep_matches_one_sweep_per_state():
    grid = [1.5, 2.5]
    betas = (0.01, 1.0, math.inf)
    states = (StateSpec.ground(), StateSpec.eigenstate(2), *map(StateSpec.thermal, betas))
    results = aah_transition_sweep(8, grid, ZERO_TO_DELTA, states, 1.2, None, workers=2)
    assert len(results) == len(states)
    for state, result in zip(states, results):
        (alone,) = aah_transition_sweep(8, grid, ZERO_TO_DELTA, states=(state,))
        for name in ("h_w", "h_u", "s_diag", "avg_coherence", "c_max", "variance", "mean_direct"):
            assert np.array_equal(result.column(name), alone.column(name))
    with pytest.raises(ValidationError):
        aah_transition_sweep(8, grid, ZERO_TO_DELTA, (), 1.2, None, 1)


def test_ring_translation_moves_no_basis_free_column():
    # eta -> eta + 2 pi gamma (mod 2 pi) relabels the ring's sites cyclically
    # (gamma N is an integer), so both phases quench the same physics. h_u,
    # avg_coherence, rec_rho_bar, c_max, eff_dim and neg_log_eff_dim are not
    # asserted: they depend on the basis LAPACK picks inside degenerate
    # levels, which moves with the ring's seam.
    eta = 1.2
    shifted = (eta + 2.0 * math.pi * AahParams(fib_index=14, delta=1.0).gamma) % (2.0 * math.pi)
    grid = [0.5, 1.0, 1.5, 2.5]
    states = (StateSpec.ground(), StateSpec.thermal(1.0))
    names = ("h_w", "s_diag", "ln_gamma_max", "gamma_max", "variance", "mean_direct")
    for direction in (ZERO_TO_DELTA, DELTA_TO_ZERO):
        here, there = (
            aah_transition_sweep(14, grid, direction, states, phase, None, workers=2)
            for phase in (eta, shifted)
        )
        for a, b in zip(here, there):
            pairs = [(a.column(name), b.column(name)) for name in names]
            pairs.append((np.array([r.moments for r in a.rows]),
                          np.array([r.moments for r in b.rows])))
            for x, y in pairs:
                scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
                assert (np.abs(x - y) <= 1e-9 * scale).all(), (direction, x, y)
