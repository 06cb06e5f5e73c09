import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    aah_quench,
    assert_positive,
    dephase,
    eigenstate_projector,
    haar_unitary,
    random_density,
    random_hermitian,
    random_setup,
    relative_entropy_of_coherence,
    shannon_entropy,
    thermal_state,
    von_neumann_entropy,
)
from qworkstats import (
    AahParams,
    BoundViolationError,
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    QuenchSetup,
    UncollectedDistribution,
    UnitaryMatrix,
    ValidationError,
    aah_hamiltonian,
    bounds_report,
    collect_work_distribution,
    diagonalize,
    effective_dimension,
    entropy_of_work,
    level_populations,
    lz_hamiltonian,
    uncollected_distribution,
    uncollected_entropy,
)
from qworkstats import infotheory, tpm
from qworkstats.experiments import ZERO_TO_DELTA, StateSpec
from qworkstats.infotheory import BoundsReport, _column_entropies, check_bounds
from qworkstats.tpm import PairTable


def report_for(setup):
    u = uncollected_distribution(setup)
    w = collect_work_distribution(u)
    return bounds_report(setup, w, u), w, u


def test_shannon_entropy_basics():
    assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0
    n = 4
    assert shannon_entropy(np.full(n * n, 1.0 / n**2)) == pytest.approx(
        math.log(n * n), rel=1e-14
    )
    assert shannon_entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(
        1.5 * math.log(2.0), rel=1e-14
    )


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(ValidationError):
        shannon_entropy(np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        shannon_entropy(np.array([1.1, -0.1]))
    with pytest.raises(ValidationError):
        shannon_entropy(np.array([]))


def test_entropy_of_work_deterministic_case():
    hi = lz_hamiltonian(-5.0)
    rho = thermal_state(diagonalize(hi), 0.2)
    setup = QuenchSetup(hi=hi, hf=hi, rho=rho)
    w = collect_work_distribution(uncollected_distribution(setup))
    assert entropy_of_work(w) == pytest.approx(0.0, abs=1e-12)


def test_zero_entropies_are_written_as_positive_zero():
    # "-0" in an output file would read as a sign
    from qworkstats.experiments import ZERO_TO_DELTA, aah_transition_sweep

    hi = lz_hamiltonian(-5.0)
    setup = QuenchSetup(hi=hi, hf=hi, rho=[0.3, 0.7])
    one_point = collect_work_distribution(uncollected_distribution(setup))
    assert one_point.num_points == 1
    ground_row = aah_transition_sweep(8, [1.0], ZERO_TO_DELTA)[0].rows[0]
    assert ground_row.report.initial_is_ground
    for value in (
        entropy_of_work(one_point),
        ground_row.report.s_diag,
        von_neumann_entropy(DensityMatrix(entries=np.diag([0.0, 1.0]))),
    ):
        assert value == 0.0 and not np.signbit(value)


def test_work_entropy_equals_uncollected_for_nondegenerate_lz():
    hi = lz_hamiltonian(-20.0)
    hf = lz_hamiltonian(3.0)
    rho = thermal_state(diagonalize(hi), 0.1)
    setup = QuenchSetup(hi=hi, hf=hf, rho=rho)
    u = uncollected_distribution(setup)
    w = collect_work_distribution(u)
    assert entropy_of_work(w) == pytest.approx(uncollected_entropy(u), abs=1e-12)


def test_uncollected_entropy_incoherent_process():
    # identical spectra quench: the joint table collapses to the initial
    # populations, so the uncollected entropy is the diagonal entropy
    rng = np.random.default_rng(83)
    h = random_hermitian(rng, 5)
    dec = diagonalize(h)
    rho = thermal_state(dec, 0.6)
    setup = QuenchSetup(hi=h, hf=h, rho=rho)
    u = uncollected_distribution(setup)
    assert uncollected_entropy(u) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


def test_uncollected_entropy_eigenstate_equals_column_coherence():
    rng = np.random.default_rng(89)
    hi = random_hermitian(rng, 6)
    hf = random_hermitian(rng, 6)
    di = diagonalize(hi)
    k = 2
    setup = QuenchSetup(hi=hi, hf=hf, rho=eigenstate_projector(di, k))
    u = uncollected_distribution(setup)
    coherences = _column_entropies(u.table.pmn)
    assert uncollected_entropy(u) == pytest.approx(coherences[k], abs=1e-10)


@pytest.mark.parametrize("level", [0, 3])
def test_one_level_state_sums_its_one_live_column(level):
    flat = aah_hamiltonian(AahParams(fib_index=10, delta=0.0))
    modulated = aah_hamiltonian(AahParams(fib_index=10, delta=1.5))
    initial = diagonalize(flat)
    table = PairTable(flat, modulated, initial, diagonalize(modulated))
    u = UncollectedDistribution(level_populations(initial, level), table)
    assert u.joint().shape == (55, 1)
    full_table = np.clip(u.pn[np.newaxis, :] * u.table.pmn, 0.0, None)
    assert uncollected_entropy(u) == pytest.approx(shannon_entropy(full_table), abs=1e-14)


def test_uncollected_dominates_work_entropy():
    rng = np.random.default_rng(97)
    for _ in range(20):
        setup = random_setup(rng, int(rng.integers(2, 10)))
        u = uncollected_distribution(setup)
        w = collect_work_distribution(u)
        assert uncollected_entropy(u) >= entropy_of_work(w) - 1e-10


def test_rec_diagonal_state_is_zero():
    basis = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0, 3.0])))
    rho = DensityMatrix(entries=np.diag([0.2, 0.3, 0.5]))
    assert relative_entropy_of_coherence(rho, basis) == pytest.approx(0.0, abs=1e-12)


def test_rec_plus_state_is_ln2():
    basis = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0])))
    plus = DensityMatrix(entries=np.full((2, 2), 0.5))
    assert relative_entropy_of_coherence(plus, basis) == pytest.approx(
        math.log(2.0), rel=1e-12
    )


def test_rec_nonnegative_random():
    rng = np.random.default_rng(101)
    for _ in range(15):
        dim = int(rng.integers(2, 8))
        rho = random_density(rng, dim)
        basis = diagonalize(random_hermitian(rng, dim))
        assert relative_entropy_of_coherence(rho, basis) >= -1e-10


def test_per_level_coherences_identity_and_lz():
    assert np.allclose(_column_entropies(np.eye(4)), 0.0, atol=1e-14)
    di = diagonalize(lz_hamiltonian(-20.0))
    df = diagonalize(lz_hamiltonian(2.0))
    pmn = np.abs(df.eigenvectors.conj().T @ di.eigenvectors) ** 2
    coherences = _column_entropies(pmn)
    p = pmn[0, 0]
    binary = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    assert coherences[0] == pytest.approx(binary, rel=1e-12)
    assert coherences[0] == pytest.approx(coherences[1], rel=1e-12)


def test_per_level_coherences_equal_the_where_formula_bit_for_bit():
    tiny = 1e-13
    edge_cases = np.array([
        [1.0, 0.0, 0.5, 0.25 + tiny],
        [0.0, 0.5, 0.5, -tiny],
        [0.0, 0.5, 0.0, 0.75],
    ])
    haar = np.abs(haar_unitary(np.random.default_rng(17), 7).entries) ** 2
    for pmn in (edge_cases, haar, np.eye(5)):
        p = np.clip(pmn, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = -np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=0)
        assert np.array_equal(_column_entropies(pmn), expected)


def test_bounds_report_does_not_recheck_the_table_columns(monkeypatch):
    # the table checked its columns when it was built, so the report takes
    # the column entropies of the table's own array, once per table
    setup = random_setup(np.random.default_rng(19), 5)
    uncollected = uncollected_distribution(setup)
    work = collect_work_distribution(uncollected)
    read = []
    column_entropies = infotheory._column_entropies

    def recording(pmn):
        read.append(pmn)
        return column_entropies(pmn)

    monkeypatch.setattr(infotheory, "_column_entropies", recording)
    report = bounds_report(setup, work, uncollected)
    bounds_report(setup, work, uncollected)
    monkeypatch.undo()
    assert len(read) == 1 and read[0] is uncollected.table.pmn
    assert np.array_equal(report.per_level_coherence, _column_entropies(uncollected.table.pmn))


def test_per_level_coherences_match_density_matrix_route():
    # scalar route (column entropies) against the dephasing route
    rng = np.random.default_rng(103)
    for _ in range(8):
        dim = int(rng.integers(2, 7))
        setup = random_setup(rng, dim)
        di = diagonalize(setup.hi)
        df = diagonalize(setup.hf)
        pmn = np.abs(
            df.eigenvectors.conj().T @ setup.u.entries @ di.eigenvectors
        ) ** 2
        coherences = _column_entropies(pmn)
        rotated = setup.u.entries.conj().T @ df.eigenvectors
        rotated_basis = diagonalize(
            HermitianOperator(
                entries=(rotated * df.eigenvalues) @ rotated.conj().T
            )
        )
        for n in range(dim):
            projector = eigenstate_projector(di, n)
            rec = relative_entropy_of_coherence(projector, rotated_basis)
            assert rec == pytest.approx(coherences[n], abs=1e-9)


def test_effective_dimension_trivial_columns():
    deterministic = np.zeros((4, 4))
    deterministic[2, :] = 1.0
    i, neg_log = effective_dimension(deterministic)
    assert i == pytest.approx(1.0)
    assert neg_log == pytest.approx(0.0)
    uniform = np.full((5, 5), 0.2)
    i, neg_log = effective_dimension(uniform)
    assert i == pytest.approx(0.2)
    assert neg_log == pytest.approx(math.log(5.0), rel=1e-12)
    # the ground column alone is read
    uniform[:, 1:] = 0.0
    assert effective_dimension(uniform) == (i, neg_log)


def test_effective_dimension_lower_bounds_uncollected_entropy():
    rng = np.random.default_rng(107)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        hi = random_hermitian(rng, dim)
        hf = random_hermitian(rng, dim)
        di = diagonalize(hi)
        setup = QuenchSetup(hi=hi, hf=hf, rho=eigenstate_projector(di, 0))
        u = uncollected_distribution(setup)
        i, neg_log = effective_dimension(u.table.pmn)
        assert uncollected_entropy(u) >= neg_log - 1e-10


def test_bounds_report_fields_and_chain():
    rng = np.random.default_rng(109)
    setup = random_setup(rng, 5)
    report, w, u = report_for(setup)
    assert report.h_u == pytest.approx(report.s_diag + report.avg_coherence, abs=1e-10)
    assert report.h_w <= report.h_u + 1e-10
    assert report.h_u - report.ln_gamma_max <= report.h_w + 1e-10
    assert report.h_u <= 2 * report.s_diag + report.rec_rho_bar + 1e-10
    assert report.h_w <= report.s_diag + report.c_max + 1e-10
    assert report.per_level_coherence.shape == (5,)
    # C(rho_bar) is the checked entropy of the rotated populations less S(rho_bar), bit for
    # bit: the library reads them unchecked, as their factors were checked
    for with_unitary in (True, False) * 10:
        setup = random_setup(rng, int(rng.integers(2, 9)), with_unitary)
        report, _, u = report_for(setup)
        assert report.s_diag == shannon_entropy(u.pn)
        expected = shannon_entropy(u.table.pmn @ u.pn) - report.s_diag
        assert expected > 0.0 and report.rec_rho_bar == expected


def test_bounds_report_scalar_terms_match_density_matrix_route():
    rng = np.random.default_rng(113)
    setup = random_setup(rng, 4, with_unitary=False)
    report, w, u = report_for(setup)
    di = diagonalize(setup.hi)
    rho_bar = dephase(setup.rho, di)
    assert report.s_diag == pytest.approx(von_neumann_entropy(rho_bar), abs=1e-10)
    df = diagonalize(setup.hf)
    assert report.rec_rho_bar == pytest.approx(
        relative_entropy_of_coherence(rho_bar, df), abs=1e-9
    )


def test_bounds_saturated_for_eigenstate_input():
    rng = np.random.default_rng(127)
    hi = random_hermitian(rng, 6)
    hf = random_hermitian(rng, 6)
    di = diagonalize(hi)
    setup = QuenchSetup(hi=hi, hf=hf, rho=eigenstate_projector(di, 3))
    report, _, _ = report_for(setup)
    assert report.s_diag == pytest.approx(0.0, abs=1e-10)
    # concavity chain collapses to equality for a pure eigenstate input
    assert report.h_u == pytest.approx(
        2 * report.s_diag + report.rec_rho_bar, abs=1e-9
    )


def test_bounds_saturated_at_zero_temperature():
    rng = np.random.default_rng(131)
    hi = random_hermitian(rng, 5)
    hf = random_hermitian(rng, 5)
    di = diagonalize(hi)
    setup = QuenchSetup(hi=hi, hf=hf, rho=thermal_state(di, math.inf))
    report, _, _ = report_for(setup)
    assert report.initial_is_ground
    assert report.h_u == pytest.approx(2 * report.s_diag + report.rec_rho_bar, abs=1e-9)
    assert report.h_u >= report.neg_log_eff_dim - 1e-10


def test_bounds_hold_for_randomized_qubit_suite():
    rng = np.random.default_rng(137)
    for _ in range(300):
        setup = random_setup(rng, 2)
        report, w, u = report_for(setup)
        assert abs(float(w.probs.sum()) - 1.0) < 1e-12
        check_bounds(report)


def test_check_bounds_raises_on_corrupt_report():
    rng = np.random.default_rng(139)
    setup = random_setup(rng, 3)
    report, _, _ = report_for(setup)
    broken = BoundsReport(
        h_w=report.h_u + 1.0,
        h_u=report.h_u,
        ln_gamma_max=report.ln_gamma_max,
        s_diag=report.s_diag,
        avg_coherence=report.avg_coherence + 1.0,
        rec_rho_bar=report.rec_rho_bar,
        c_max=report.c_max,
        eff_dim=report.eff_dim,
        neg_log_eff_dim=report.neg_log_eff_dim,
        initial_is_ground=report.initial_is_ground,
        per_level_coherence=report.per_level_coherence,
    )
    with pytest.raises(BoundViolationError) as caught:
        check_bounds(broken)
    assert caught.value.excess > 0


@pytest.mark.parametrize(
    "name", ["h_w", "h_u", "ln_gamma_max", "s_diag", "avg_coherence", "rec_rho_bar", "c_max"]
)
def test_nan_entropy_fails_the_bound_chain(name):
    report, _, _ = report_for(random_setup(np.random.default_rng(141), 3))
    check_bounds(report)
    with pytest.raises(BoundViolationError, match="nan"):
        check_bounds(dataclasses.replace(report, **{name: math.nan}))


def test_negative_rec_rho_bar_beyond_the_slack_is_a_bound_violation(monkeypatch):
    h = lz_hamiltonian(-20.0)
    setup = QuenchSetup(hi=h, hf=h, rho=np.array([0.7, 0.3]))
    u = uncollected_distribution(setup)
    work = collect_work_distribution(u)
    entropy = infotheory._entropy
    # S(rho_bar) 1e-9 below S(diag rho): C(rho_bar) = -1e-9, ten times the slack
    monkeypatch.setattr(infotheory, "_entropy",
                        lambda p: entropy(p) - (0.0 if p is u.pn else 1e-9))
    with pytest.raises(BoundViolationError, match="coherence_nonnegative"):
        bounds_report(setup, work, u)


def test_bounds_report_refuses_a_setup_of_another_dimension():
    rng = np.random.default_rng(151)
    setup = random_setup(rng, 3)
    report, work, u = report_for(setup)
    assert bounds_report(setup, work, u).csv_row() == report.csv_row()
    with pytest.raises(DimensionMismatchError, match="setup dimension 4 does not match .* 3"):
        bounds_report(random_setup(rng, 4), work, u)
    # the pair table the distribution was built from stands in for its setup
    assert bounds_report(u.table, work, u).csv_row() == report.csv_row()
    other = uncollected_distribution(random_setup(rng, 4)).table
    with pytest.raises(DimensionMismatchError, match="setup dimension 4 does not match .* 3"):
        bounds_report(other, work, u)


def test_bounds_report_serialization_contract():
    rng = np.random.default_rng(149)
    setup = random_setup(rng, 3)
    report, _, _ = report_for(setup)
    row = report.csv_row()
    assert len(row) == len(BoundsReport.CSV_FIELDS)


def test_von_neumann_entropy_rejects_negative_state():
    bad = DensityMatrix(entries=np.diag([1.1, -0.1]))
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        von_neumann_entropy(bad)
    with pytest.raises(AssertionError, match="negative eigenvalue"):
        assert_positive(bad)


def test_bounds_report_cross_route_on_lattice():
    # scalar-route report terms against the density-matrix route on a
    # thermal chain quench large enough to stress accumulation
    from qworkstats import AahParams, aah_hamiltonian
    from qworkstats.experiments import ZERO_TO_DELTA, StateSpec, aah_transition_sweep

    (sweep,) = aah_transition_sweep(12, [2.0], ZERO_TO_DELTA, states=(StateSpec.thermal(1.0),))
    report = sweep.rows[0].report

    flat = aah_hamiltonian(AahParams(fib_index=12, delta=0.0))
    modulated = aah_hamiltonian(AahParams(fib_index=12, delta=2.0))
    di = diagonalize(flat)
    rho = thermal_state(di, 1.0)
    rho_bar = dephase(rho, di)
    assert report.s_diag == pytest.approx(von_neumann_entropy(rho_bar), abs=1e-10)
    assert report.rec_rho_bar == pytest.approx(
        relative_entropy_of_coherence(rho_bar, diagonalize(modulated)), abs=1e-8
    )


def test_temperature_independence_of_c_max():
    # the coherence ingredients depend only on the two bases, never on the
    # initial thermal weight
    rng = np.random.default_rng(151)
    hi = random_hermitian(rng, 5)
    hf = random_hermitian(rng, 5)
    di = diagonalize(hi)
    reference = None
    for beta in [1e-2, 0.1, 1.0, 10.0, 1e4]:
        setup = QuenchSetup(hi=hi, hf=hf, rho=thermal_state(di, beta))
        report, _, _ = report_for(setup)
        if reference is None:
            reference = report.c_max
        assert report.c_max == reference


def _mask_entropy(p):
    """``infotheory._entropy`` while it copied the positive entries and took one whole log."""
    live = p[p > 0.0]
    live /= p.sum()
    live *= np.log(live)
    return 0.0 - float(live.sum())


@pytest.mark.parametrize("block_pairs", [tpm.BLOCK_PAIRS, 1000, 7])
def test_block_terms_are_the_bits_of_the_mask_formula(monkeypatch, block_pairs):
    # Vectors three blocks long and more: all positive (a collected
    # distribution's), with exact zeros, and with subnormal entries.
    monkeypatch.setattr(tpm, "BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(29)
    positive = rng.random(3 * tpm.BLOCK_PAIRS + 11 if block_pairs > 7 else 50)
    positive /= positive.sum()
    zeros = np.where(rng.random(positive.size) < 0.3, 0.0, positive)
    subnormal = np.where(rng.random(positive.size) < 0.2, 5e-324 * rng.integers(1, 99), positive)
    subnormal[-1] = 0.0
    for p in (positive, zeros, subnormal, np.array([1.0]), np.array([0.0, 1.0, 0.0])):
        p.setflags(write=False)  # as the collected probabilities are
        assert infotheory._entropy(p) == _mask_entropy(p)
    assert (subnormal > 0.0).sum() > (subnormal >= np.finfo(float).tiny).sum()


def test_entropy_of_work_holds_one_array_as_long_as_its_probabilities():
    # A thermal distribution at N = 377 and two hoppings and a half collects
    # about 0.5 N^2 values. Its entropy holds their quotients and either their
    # mask (a byte each) or one block of logs, and the array headers (under 1 KiB).
    table = aah_quench(AahParams(fib_index=14, delta=2.5), ZERO_TO_DELTA)
    work = collect_work_distribution(
        UncollectedDistribution(StateSpec.thermal(1.0).build(table.initial), table)
    )
    assert work.probs.size > tpm.BLOCK_PAIRS
    tracemalloc.start()
    try:
        entropy_of_work(work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= work.probs.nbytes + tpm.BLOCK_PAIRS * 8 + 1024, peak
