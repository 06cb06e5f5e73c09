import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    assert_decomposes,
    assert_positive,
    dephase,
    eigenstate_projector,
    random_density,
    random_hermitian,
    random_setup,
    thermal_state,
    von_neumann_entropy,
)
from qworkstats import (
    BoundsReport,
    DegenerateGroundStateError,
    DensityMatrix,
    EigensolverError,
    HermitianOperator,
    SpectralDecomposition,
    UncollectedDistribution,
    UnitaryMatrix,
    ValidationError,
    bounds_report,
    collect_work_distribution,
    diagonalize,
    initial_populations,
    thermal_populations,
    transition_probabilities,
)
from qworkstats import models, spectral
from qworkstats.models import AahParams, aah_hamiltonian, lz_hamiltonian
from qworkstats.spectral import HERMITICITY_RTOL
from qworkstats.tpm import PairTable


def test_hermitian_operator_rejects_non_hermitian():
    # the entries read as Python numbers, not as numpy scalar reprs
    for entries, message in [
        ([[1.0, 2.0], [3.0, 1.0]], "entry (0,1) = 2.0 but conj((1,0)) = 3.0"),
        ([[1.0, 2 + 1j], [3 - 2j, 1.0]], "entry (0,1) = (2+1j) but conj((1,0)) = (3+2j)"),
    ]:
        with pytest.raises(ValidationError) as raised:
            HermitianOperator(entries=np.array(entries))
        assert str(raised.value) == f"operator is not Hermitian: {message}"


@pytest.mark.parametrize("kind", [HermitianOperator, DensityMatrix])
def test_hermiticity_tolerance_branch_keeps_its_bound_and_message(kind):
    # exactly Hermitian input takes the exact branch; the tolerance test
    # still accepts a matrix off by less than HERMITICITY_RTOL of its scale
    base = np.array([[0.25, 0.5], [0.5, 0.75]])
    near = base.copy()
    near[0, 1] += 0.5 * HERMITICITY_RTOL * 0.75
    assert not (near == near.T).all()
    kind(entries=near)
    far = base.copy()
    far[0, 1] += 4.0 * HERMITICITY_RTOL * 0.75
    message = r"not Hermitian: entry \(0,1\) = .* but conj\(\(1,0\)\)"
    with pytest.raises(ValidationError, match=message):
        kind(entries=far)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_types_reject_non_finite_entries(bad):
    # symmetric: an infinite entry equals its mirror, so the exact
    # Hermiticity test alone would pass it
    symmetric = np.array([[0.5, bad], [bad, 0.5]])
    on_diagonal = np.array([[bad, 0.0], [0.0, 1.0]])
    imaginary = np.array([[0.5, complex(0.0, bad)], [complex(0.0, -bad), 0.5]])
    for entries in (symmetric, on_diagonal, imaginary):
        for kind in (HermitianOperator, DensityMatrix, UnitaryMatrix):
            with pytest.raises(ValidationError, match="non-finite"):
                kind(entries=entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decomposition_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        SpectralDecomposition(np.array([bad, 1.0]), np.eye(2))
    vectors = np.eye(2)
    vectors[1, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        SpectralDecomposition(np.array([0.0, 1.0]), vectors)
    with pytest.raises(ValidationError, match="non-decreasing"):
        SpectralDecomposition(np.array([1.0, 0.0]), np.eye(2))


# whether numpy bundles the ILP64 LAPACKE_dsyevd that the direct route calls
DIRECT = spectral._lapacke_dsyevd() is not None


def test_diagonalize_keeps_the_arrays_of_eigh_read_only(monkeypatch):
    returned = []
    eigh = np.linalg.eigh

    def recording(entries):
        returned.append(eigh(entries))
        return returned[-1]

    monkeypatch.setattr(np.linalg, "eigh", recording)
    dec = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0])))
    assert dec.eigenvalues is returned[0][0] and dec.eigenvectors is returned[0][1]
    assert not (dec.eigenvalues.flags.writeable or dec.eigenvectors.flags.writeable)
    # a caller's arrays are copied, and stay writable
    values, vectors = np.array([0.0, 1.0]), np.eye(2)
    own = SpectralDecomposition(values, vectors)
    assert not np.shares_memory(own.eigenvalues, values)
    assert not np.shares_memory(own.eigenvectors, vectors)
    assert not (own.eigenvalues.flags.writeable or own.eigenvectors.flags.writeable)
    assert values.flags.writeable and vectors.flags.writeable
    if not DIRECT:
        return
    # the direct route: the Fortran-order copy LAPACK overwrote is the eigenvectors
    handed = []
    dsyevd = spectral._lapacke_dsyevd()

    def handing(*args):
        handed.append(args)
        return dsyevd(*args)

    monkeypatch.setattr(spectral, "_lapacke_dsyevd", lambda: handing)
    monkeypatch.setattr(np.linalg, "eigh", None)  # not called
    hamiltonian = aah_hamiltonian(AahParams(fib_index=12, delta=1.5))
    dec = diagonalize(hamiltonian)
    (layout, jobz, uplo, n, vectors, lda, values), = handed
    assert (layout, jobz, uplo, n, lda) == (102, b"V", b"L", 144, 144)
    assert dec.eigenvectors.ctypes.data == vectors and dec.eigenvalues.ctypes.data == values
    assert dec.eigenvectors.flags.f_contiguous and dec.eigenvectors.flags.owndata
    assert not np.shares_memory(dec.eigenvectors, hamiltonian.entries)
    assert not (dec.eigenvalues.flags.writeable or dec.eigenvectors.flags.writeable)


def _symmetric_and_rings(levels):
    rng = np.random.default_rng(levels)
    entries = rng.normal(size=(levels, levels))
    yield HermitianOperator(entries=entries + entries.T)
    fib_index = {89: 11, 144: 12, 233: 13, 377: 14}.get(levels)
    if fib_index is not None:
        for delta in (0.0, 1.5, 2.5):
            yield aah_hamiltonian(AahParams(fib_index=fib_index, delta=delta))


@pytest.mark.parametrize("bound", [True, False])
@pytest.mark.parametrize("levels", [89, 127, 128, 144, 233, 377])
def test_diagonalize_gives_the_bits_of_eigh_on_either_route(monkeypatch, levels, bound):
    if not bound:  # as on a numpy without the symbol: every operator goes to eigh
        monkeypatch.setattr(spectral, "_lapacke_dsyevd", lambda: None)
    for operator in _symmetric_and_rings(levels):
        dec = diagonalize(operator)
        values, vectors = np.linalg.eigh(operator.entries)
        assert np.array_equal(dec.eigenvalues, values)
        assert np.array_equal(dec.eigenvectors, vectors)
        direct = bound and DIRECT and levels >= spectral.DIRECT_MIN_LEVELS
        assert dec.eigenvectors.flags.f_contiguous == direct
        assert dec.eigenvectors.flags.c_contiguous != direct


@pytest.mark.parametrize("levels", [128, 144, 377])
def test_transition_probabilities_of_direct_decompositions_keep_the_bits_of_eigh(levels):
    # Fortran-order eigenvectors give the overlap product of eigh's C-order ones
    operators = list(_symmetric_and_rings(levels))
    rng = np.random.default_rng(levels + 1)
    entries = rng.normal(size=(levels, levels))
    operators.append(HermitianOperator(entries=entries + entries.T))
    for hi, hf in zip(operators, operators[1:]):
        vi, vf = np.linalg.eigh(hi.entries)[1], np.linalg.eigh(hf.entries)[1]
        overlap = vf.T @ vi
        assert np.array_equal(transition_probabilities(diagonalize(hi), diagonalize(hf)),
                              overlap * overlap)


def _handed_over(levels):
    """(array, operator) pairs of equal entries: rings as the sweeps hand them over, the
    Fortran-order transposed view of the build, and random symmetric matrices."""
    fib_index = {89: 11, 144: 12, 377: 14}.get(levels)
    if fib_index is not None:
        for delta in (0.0, 1.5, 2.5):
            params = AahParams(fib_index=fib_index, delta=delta)
            yield models._ring(params).T, aah_hamiltonian(params)
    else:
        entries = np.random.default_rng(levels).normal(size=(levels, levels))
        entries += entries.T
        yield np.asfortranarray(entries), HermitianOperator(entries=entries)


@pytest.mark.parametrize("levels", [89, 127, 128, 144, 377])
def test_a_handed_over_array_gives_the_bits_of_its_operator(levels):
    direct = DIRECT and levels >= spectral.DIRECT_MIN_LEVELS
    for array, operator in _handed_over(levels):
        before = operator.entries.copy()
        expected, dec = diagonalize(operator), diagonalize(array)
        assert np.array_equal(dec.eigenvalues, expected.eigenvalues)
        assert np.array_equal(dec.eigenvectors, expected.eigenvectors)
        # the operator is never overwritten; a large real array becomes the eigenvectors
        assert np.array_equal(operator.entries, before)
        assert not np.shares_memory(expected.eigenvectors, operator.entries)
        assert np.shares_memory(dec.eigenvectors, array) == direct
        assert not (dec.eigenvalues.flags.writeable or dec.eigenvectors.flags.writeable)


@pytest.mark.skipif(not DIRECT, reason="numpy bundles no ILP64 LAPACKE_dsyevd")
def test_a_handed_over_array_is_decomposed_without_a_copy():
    # Traced memory over the call, at N = 377: the array's decomposition keeps only
    # its eigenvalues beyond the array, and its checks make N^2 booleans at most;
    # the operator's keeps its one N^2 copy.
    params = AahParams(fib_index=14, delta=1.5)
    n_squared = params.size**2 * 8
    operator, array = aah_hamiltonian(params), models._ring(params).T
    for argument in (array, operator):
        tracemalloc.start()
        try:
            dec = diagonalize(argument)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if argument is array:
            assert held < 0.01 * n_squared and peak < 0.25 * n_squared, (held, peak)
        else:
            assert n_squared <= held < 1.01 * n_squared, held
        del dec
    # an array it may not write, or one not in Fortran order, is copied
    for other in (operator.entries.T, models._ring(params)):
        before = other.copy()
        dec = diagonalize(other)
        assert not np.shares_memory(dec.eigenvectors, other)
        assert np.array_equal(other, before)


@pytest.mark.parametrize("levels", [89, 144])
def test_a_bad_array_is_refused_before_lapack_runs(monkeypatch, levels):
    monkeypatch.setattr(spectral, "_lapacke_dsyevd", None)  # a call would raise
    monkeypatch.setattr(np.linalg, "eigh", None)
    ring = models._ring(AahParams(fib_index={89: 11, 144: 12}[levels], delta=1.5))
    skewed, infinite = ring.copy(), ring.copy()
    skewed[0, 1] += 1e-6
    infinite[3, 3] = np.inf
    for array, message in ((skewed, "not Hermitian"), (infinite, "non-finite"),
                           (ring[:, :-1], "square")):
        with pytest.raises(ValidationError, match=message):
            diagonalize(array)


def test_complex_and_small_operators_keep_eigh(monkeypatch):
    monkeypatch.setattr(spectral, "_lapacke_dsyevd", None)  # a call would raise
    rng = np.random.default_rng(5)
    small = rng.normal(size=(127, 127))
    complex_ = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    for entries in (small + small.T, complex_ + complex_.conj().T):
        dec = diagonalize(HermitianOperator(entries=entries))
        values, vectors = np.linalg.eigh(entries)
        assert np.array_equal(dec.eigenvalues, values)
        assert np.array_equal(dec.eigenvectors, vectors)


def test_a_failed_direct_decomposition_raises_eigensolver_error(monkeypatch):
    monkeypatch.setattr(spectral, "_lapacke_dsyevd", lambda: lambda *args: 1)
    with pytest.raises(EigensolverError, match="dsyevd info = 1"):
        diagonalize(aah_hamiltonian(AahParams(fib_index=12, delta=1.5)))


def test_hermitian_operator_rejects_non_square():
    with pytest.raises(ValidationError):
        HermitianOperator(entries=np.zeros((2, 3)))


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValidationError):
        UnitaryMatrix(entries=np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_density_matrix_checks_trace():
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(entries=np.eye(2))


def test_diagonalize_already_diagonal():
    dec = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0])))
    assert np.allclose(dec.eigenvalues, [0.0, 1.0])
    assert np.allclose(dec.eigenvectors, np.eye(2))


def test_diagonalize_lz_closed_form():
    # a coupling other than 1 scales the unit-coupling matrix
    for scale, omega in [(1.0, 0.0), (1.0, -20.0), (2.5, 1.25)]:
        dec = diagonalize(HermitianOperator(entries=scale * lz_hamiltonian(omega).entries))
        gap = scale * math.sqrt(omega**2 + 1.0)
        assert dec.eigenvalues[0] == pytest.approx(-gap, rel=1e-14)
        assert dec.eigenvalues[1] == pytest.approx(gap, rel=1e-14)


def test_diagonalize_flat_ring_matches_circulant_formula():
    n = 5
    dec = diagonalize(aah_hamiltonian(AahParams(fib_index=5, delta=0.0)))
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)


def test_diagonalize_random_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(2, 65))
        h = random_hermitian(rng, dim, complex_entries=bool(rng.integers(2)))
        dec = diagonalize(h)
        assert_decomposes(dec, h)
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eigenvector_phases_leave_every_output_unchanged():
    rng = np.random.default_rng(3)
    setup = random_setup(rng, 8)
    initial, final = diagonalize(setup.hi), diagonalize(setup.hf)
    again = diagonalize(HermitianOperator(entries=setup.hi.entries.copy()))
    assert np.array_equal(initial.eigenvectors, again.eigenvectors)

    def rephased(dec):
        phases = np.exp(2j * np.pi * rng.uniform(size=dec.dim))
        return SpectralDecomposition(dec.eigenvalues, dec.eigenvectors * phases)

    def outputs(initial, final):
        table = PairTable(setup.hi, setup.hf, initial, final, setup.u)
        uncollected = UncollectedDistribution(initial_populations(setup.rho, initial), table)
        work = collect_work_distribution(uncollected)
        return table, work, table.mean_work(uncollected.pn), bounds_report(setup, work, uncollected)

    table, work, mean, report = outputs(initial, final)
    table2, work2, mean2, report2 = outputs(rephased(initial), rephased(final))

    def close(a, b):
        return np.allclose(a, b, rtol=1e-14, atol=1e-14)

    assert close(table.pmn, table2.pmn)
    assert close(work.support, work2.support) and close(work.probs, work2.probs)
    assert np.array_equal(work.multiplicity, work2.multiplicity)
    assert close(mean, mean2)
    for field in dataclasses.fields(BoundsReport):
        assert close(getattr(report, field.name), getattr(report2, field.name)), field.name


def test_thermal_state_infinite_temperature_is_maximally_mixed():
    rng = np.random.default_rng(11)
    dec = diagonalize(random_hermitian(rng, 6))
    rho = thermal_state(dec, 0.0)
    assert np.allclose(rho.entries, np.eye(6) / 6, atol=1e-12)


def test_thermal_state_zero_temperature_is_ground_projector():
    dec = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0, 2.0])))
    rho = thermal_state(dec, math.inf)
    assert np.allclose(rho.entries, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_thermal_state_zero_temperature_degenerate_raises():
    dec = diagonalize(HermitianOperator(entries=np.diag([0.0, 0.0, 1.0])))
    with pytest.raises(DegenerateGroundStateError, match="level_populations"):
        thermal_state(dec, math.inf)


def test_thermal_state_two_level_gibbs_weight():
    # closed-form ground population of the biased two-level system
    omega, beta = -20.0, 0.1
    dec = diagonalize(lz_hamiltonian(omega))
    rho = thermal_state(dec, beta)
    gap = math.sqrt(omega**2 + 1.0)
    expected = 1.0 / (1.0 + math.exp(-2.0 * beta * gap))
    ground = dec.eigenvectors[:, 0]
    population = float(np.real(ground.conj() @ rho.entries @ ground))
    assert population == pytest.approx(expected, rel=1e-12)


def test_thermal_populations_non_increasing():
    rng = np.random.default_rng(23)
    for beta in [0.05, 0.7, 3.0]:
        dec = diagonalize(random_hermitian(rng, 9))
        rho = thermal_state(dec, beta)
        pops = np.real(np.diag(dec.eigenvectors.conj().T @ rho.entries @ dec.eigenvectors))
        assert np.all(np.diff(pops) <= 1e-15)


def test_thermal_state_rejects_negative_beta():
    dec = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0])))
    with pytest.raises(ValidationError):
        thermal_state(dec, -0.1)


def test_thermal_populations_refuse_a_spread_that_overflows():
    # levels 2e308 apart: no Gibbs weight, and no overflow warning (which tier-1 makes an error)
    wide = SpectralDecomposition([-1e308, 1e308], np.eye(2))
    for beta in (0.0, 0.1, math.inf):
        with pytest.raises(ValidationError, match="finite spread; they span inf"):
            thermal_populations(wide, beta)
    # a spread just inside the floats is still a spectrum
    edge = SpectralDecomposition([0.0, 1.7e308], np.eye(2))
    for beta, expected in ((0.1, [1.0, 0.0]), (math.inf, [1.0, 0.0]), (0.0, [0.5, 0.5])):
        assert np.array_equal(thermal_populations(edge, beta), expected)


def test_thermal_populations_take_an_overflowing_exponent_without_a_warning():
    # beta times a finite spread past the largest float: all weight on the ground
    # level, and no overflow warning (which tier-1 makes an error)
    for levels, beta in (([-1.0, 1.0], 1e308), ([0.0, 1.7e308], 2.0), ([0.0, 0.0, 3.0], 1e308)):
        expected = [1.0, 0.0] if len(levels) == 2 else [0.5, 0.5, 0.0]
        decomposition = SpectralDecomposition(levels, np.eye(len(levels)))
        assert np.array_equal(thermal_populations(decomposition, beta), expected)
    # finite exponents keep the bits of the plain Gibbs expression
    rng = np.random.default_rng(3)
    for beta in (0.0, 1e-300, 0.1, 1.0, 100.0, 1e4):
        levels = np.sort(rng.normal(size=9))
        weights = np.exp(-beta * (levels - levels[0]))
        decomposition = SpectralDecomposition(levels, np.eye(9))
        assert np.array_equal(thermal_populations(decomposition, beta), weights / weights.sum())


def test_eigenstate_projector_basics():
    dec = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0])))
    rho = eigenstate_projector(dec, 0)
    assert np.allclose(rho.entries, np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError):
        eigenstate_projector(dec, 2)


def test_eigenstate_projector_purity():
    rng = np.random.default_rng(29)
    dec = diagonalize(random_hermitian(rng, 7))
    for k in range(7):
        rho = eigenstate_projector(dec, k).entries
        purity = float(np.real(np.einsum("ij,ji->", rho, rho)))
        assert purity == pytest.approx(1.0, abs=1e-12)


def test_flat_ring_ground_state_uniform():
    dec = diagonalize(aah_hamiltonian(AahParams(fib_index=16, delta=0.0)))
    amplitudes = dec.eigenvectors[:, 0]
    assert np.allclose(np.abs(amplitudes), 1.0 / math.sqrt(987), atol=1e-12)
    assert dec.eigenvalues[0] == pytest.approx(-2.0, abs=1e-12)


def test_dephase_fixes_diagonal_states():
    rng = np.random.default_rng(31)
    dec = diagonalize(random_hermitian(rng, 5))
    rho = thermal_state(dec, 0.4)
    again = dephase(rho, dec)
    assert np.allclose(again.entries, rho.entries, atol=1e-12)


def test_dephase_plus_state_gives_maximally_mixed():
    plus = DensityMatrix(entries=np.full((2, 2), 0.5))
    computational = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0])))
    dephased = dephase(plus, computational)
    assert np.allclose(dephased.entries, np.eye(2) / 2, atol=1e-14)


def test_dephase_idempotent_and_entropy_non_decreasing():
    rng = np.random.default_rng(37)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        basis = diagonalize(random_hermitian(rng, dim))
        once = dephase(rho, basis)
        twice = dephase(once, basis)
        assert_positive(once)
        assert np.max(np.abs(twice.entries - once.entries)) < 1e-12
        assert von_neumann_entropy(once) >= von_neumann_entropy(rho) - 1e-10


def test_dephase_dimension_mismatch():
    rho = DensityMatrix(entries=np.eye(2) / 2)
    basis = diagonalize(HermitianOperator(entries=np.diag([0.0, 1.0, 2.0])))
    with pytest.raises(ValidationError):
        dephase(rho, basis)


def test_von_neumann_entropy_pure_and_mixed():
    assert von_neumann_entropy(DensityMatrix(entries=np.diag([1.0, 0.0]))) == pytest.approx(
        0.0, abs=1e-12
    )
    n = 6
    assert von_neumann_entropy(DensityMatrix(entries=np.eye(n) / n)) == pytest.approx(
        math.log(n), rel=1e-12
    )


def test_von_neumann_entropy_two_level_gibbs():
    p = np.array([0.982, 0.018])
    rho = DensityMatrix(entries=np.diag(p))
    expected = float(-np.sum(p * np.log(p)))
    assert von_neumann_entropy(rho) == pytest.approx(expected, rel=1e-12)


def test_spectral_decomposition_rejects_descending():
    with pytest.raises(ValidationError):
        SpectralDecomposition(eigenvalues=np.array([1.0, 0.0]), eigenvectors=np.eye(2))
