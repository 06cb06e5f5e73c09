import math
import time

import numpy as np
import pytest

from conftest import BAND_EDGE_COEFFICIENT, GOLDEN_RATIO_CONJUGATE
from qworkstats import (
    AahParams,
    HermitianOperator,
    ValidationError,
    aah_hamiltonian,
    diagonalize,
    fibonacci_pair,
    lz_hamiltonian,
    tpm,
)
from qworkstats.models import _onsite_energies


def test_lz_pure_gap():
    h = lz_hamiltonian(0.0)
    assert np.allclose(h.entries, np.array([[0.0, 1.0], [1.0, 0.0]]))
    evals = np.linalg.eigvalsh(h.entries)
    assert np.allclose(evals, [-1.0, 1.0])


def test_lz_spectrum_symmetric_exactly():
    # traceless 2x2: the solver returns an exactly negated pair
    rng = np.random.default_rng(5)
    for _ in range(200):
        # a coupling other than 1 scales the unit-coupling matrix
        scale, omega = rng.uniform(0.1, 5.0), float(rng.uniform(-30, 30))
        entries = scale * lz_hamiltonian(omega).entries
        evals = diagonalize(HermitianOperator(entries=entries)).eigenvalues
        assert evals[0] == -evals[1]


def test_lz_eigenvalues_closed_form():
    evals = diagonalize(lz_hamiltonian(-20.0)).eigenvalues
    gap = math.sqrt(401.0)
    assert evals[0] == pytest.approx(-gap, rel=1e-14)
    assert evals[1] == pytest.approx(gap, rel=1e-14)


def test_lz_strong_detuning_polarizes_ground_state():
    dec = diagonalize(lz_hamiltonian(-20.0))
    ground = dec.eigenvectors[:, 0]
    # overwhelmingly the spin-up computational state for omega = -20
    assert abs(ground[0]) ** 2 > 0.99


def test_lz_hamiltonian_rejects_a_detuning_that_is_not_finite():
    for omega in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="detuning"):
            lz_hamiltonian(omega)


def test_fibonacci_pair_values():
    assert fibonacci_pair(3) == (1, 2)
    assert fibonacci_pair(16) == (610, 987)
    with pytest.raises(ValidationError):
        fibonacci_pair(2)


def test_a_fibonacci_index_past_23_is_refused_at_once():
    # F_23 = 28,657 is the largest ring whose N^2 level pairs a pair table
    # holds; a huge index is refused at once, not after a loop over big integers.
    started = time.perf_counter()
    with pytest.raises(ValidationError, match="Fibonacci index"):
        AahParams(10**6, 1.0)
    assert time.perf_counter() - started < 1.0
    with pytest.raises(ValidationError, match="Fibonacci index 24"):
        fibonacci_pair(24)
    params = AahParams(23, 1.0)  # the parameters only: no N = 28,657 matrix is built
    prev, cur = fibonacci_pair(23)
    assert params.size == cur == 28657 and cur**2 <= tpm.MAX_PAIRS < (prev + cur) ** 2


def test_fibonacci_ratio_alternating_convergence():
    ratios = [fibonacci_pair(n)[0] / fibonacci_pair(n)[1] for n in range(3, 20)]
    errors = [r - GOLDEN_RATIO_CONJUGATE for r in ratios]
    for a, b in zip(errors, errors[1:]):
        assert a * b < 0  # alternating around the limit
        assert abs(b) < abs(a)  # monotone shrinking
    assert abs(errors[-1]) < 1e-7


def test_aah_params_validation():
    with pytest.raises(ValidationError):
        AahParams(fib_index=2, delta=1.0)
    with pytest.raises(ValidationError):
        AahParams(fib_index=8, delta=-0.5)
    with pytest.raises(ValidationError):
        AahParams(fib_index=8, delta=1.0, eta=7.0)


def test_aah_hamiltonian_structure():
    params = AahParams(fib_index=7, delta=1.3, eta=1.2)
    h = aah_hamiltonian(params).entries
    n = params.size
    assert h.shape == (n, n)
    assert np.array_equal(h, h.T)
    for i in range(n):
        nonzero = np.flatnonzero(np.abs(h[i]) > 0)
        assert nonzero.size == 3  # on-site term plus the two ring bonds
    sites = np.arange(1, n + 1)
    expected_diag = 1.3 * np.cos(2 * np.pi * params.gamma * sites + 1.2)
    assert np.allclose(np.diag(h), expected_diag)
    assert h[0, n - 1] == -1.0 and h[n - 1, 0] == -1.0


def test_aah_hamiltonian_keeps_its_own_array_read_only(monkeypatch):
    built = []
    diag = np.diag

    def recording(values):
        built.append(diag(values))
        return built[-1]

    monkeypatch.setattr(np, "diag", recording)
    params = AahParams(fib_index=8, delta=1.3)
    operator = aah_hamiltonian(params)
    monkeypatch.undo()
    assert operator.entries is built[0] and not operator.entries.flags.writeable
    # its diagonal is the on-site energies, signed zeros and all at zero potential
    for delta in (0.0, 1.3):
        potential = AahParams(fib_index=8, delta=delta)
        diagonal = aah_hamiltonian(potential).entries.diagonal()
        assert diagonal.tobytes() == _onsite_energies(potential).tobytes()
        assert delta > 0 or (np.signbit(diagonal).any() and not diagonal.any())
    # a caller's array is still copied, and stays writable
    mine = operator.entries.copy()
    copied = HermitianOperator(entries=mine)
    assert not np.shares_memory(copied.entries, mine)
    assert mine.flags.writeable and not copied.entries.flags.writeable
    mine[0, 0] = 7.0
    assert copied.entries[0, 0] == operator.entries[0, 0]
    # ... and NaN is still refused, on either route
    mine[0, 0] = math.nan
    for build in (HermitianOperator, object.__new__(HermitianOperator)._own):
        with pytest.raises(ValidationError, match="non-finite"):
            build(mine)


def test_aah_flat_spectrum_is_circulant():
    params = AahParams(fib_index=8, delta=0.0)
    evals = diagonalize(aah_hamiltonian(params)).eigenvalues
    n = params.size
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(evals, expected, atol=1e-12)


def test_aah_flat_spectrum_double_degeneracy():
    # all levels except the bottom come in +-k pairs for odd ring sizes
    params = AahParams(fib_index=10, delta=0.0)
    evals = diagonalize(aah_hamiltonian(params)).eigenvalues
    n = params.size
    assert n % 2 == 1
    pair_gaps = evals[2::2] - evals[1:-1:2]
    assert np.all(pair_gaps < 1e-12)
    distinct_gaps = evals[1::2] - evals[0:-1:2]
    assert np.all(distinct_gaps > 1e-3)


def test_aah_spectrum_within_loose_bound():
    for delta in [0.5, 2.0, 3.5]:
        params = AahParams(fib_index=10, delta=delta)
        evals = diagonalize(aah_hamiltonian(params)).eigenvalues
        assert evals[0] >= -2.0 - delta - 1e-12
        assert evals[-1] <= 2.0 + delta + 1e-12


def test_predicted_band_edge_matches_numerics_at_critical_point():
    # edge of the N = 987 spectrum at twice the hopping, scanned over phases
    params = AahParams(fib_index=16, delta=2.0)
    prediction = 2.0 + BAND_EDGE_COEFFICIENT * params.delta**2
    largest = 0.0
    for eta in np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False):
        params = AahParams(fib_index=16, delta=2.0, eta=float(eta))
        evals = np.linalg.eigvalsh(aah_hamiltonian(params).entries)
        largest = max(largest, float(np.max(np.abs(evals))))
    assert largest == pytest.approx(prediction, rel=0.02)
