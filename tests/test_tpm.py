import dataclasses
import math
import re
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np
import pytest

from conftest import (
    aah_quench,
    dephase,
    eigenstate_projector,
    haar_unitary,
    mean_work_direct,
    pair_table,
    random_density,
    random_setup,
    thermal_state,
)
from qworkstats import (
    AahParams,
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    QuenchSetup,
    SpectralDecomposition,
    UncollectedDistribution,
    UnitaryMatrix,
    ValidationError,
    aah_hamiltonian,
    collect_work_distribution,
    diagonalize,
    initial_populations,
    lz_hamiltonian,
    max_degeneracy,
    thermal_populations,
    transition_probabilities,
    uncollected_distribution,
    uncollected_entropy,
    work_moments,
)
from qworkstats import experiments, tpm
from qworkstats.tpm import CollectionDiagnostics, PairTable, WorkDistribution, check_first_moment


def lz_setup(omega_i, omega_f, beta=0.1):
    hi = lz_hamiltonian(omega_i)
    hf = lz_hamiltonian(omega_f)
    rho = thermal_state(diagonalize(hi), beta)
    return QuenchSetup(hi=hi, hf=hf, rho=rho)


def dephased(setup):
    """The setup with its state dephased in the initial eigenbasis: the first
    energy measurement's state, whose plain trace-formula mean is the mean
    of the two-point statistics."""
    rho = dephase(setup.rho, diagonalize(setup.hi))
    return QuenchSetup(hi=setup.hi, hf=setup.hf, rho=rho, u=setup.u)


def test_transition_probabilities_identity_case():
    dec = diagonalize(lz_hamiltonian(0.3))
    pmn = transition_probabilities(dec, dec)
    assert np.allclose(pmn, np.eye(2), atol=1e-24)


def test_transition_probabilities_lz_overlap_formula():
    # independent oracle: mixing angle theta = atan2(1, omega)
    for omega_i, omega_f in [(-20.0, 0.0), (-20.0, 5.0), (-3.0, -1.0), (2.0, 7.0)]:
        di = diagonalize(lz_hamiltonian(omega_i))
        df = diagonalize(lz_hamiltonian(omega_f))
        pmn = transition_probabilities(di, df)
        theta_i = math.atan2(1.0, omega_i)
        theta_f = math.atan2(1.0, omega_f)
        expected = math.cos((theta_f - theta_i) / 2.0) ** 2
        assert pmn[0, 0] == pytest.approx(expected, abs=1e-12)
        assert pmn[1, 1] == pytest.approx(expected, abs=1e-12)


def test_transition_probabilities_doubly_stochastic():
    rng = np.random.default_rng(17)
    for _ in range(10):
        dim = int(rng.integers(2, 12))
        setup = random_setup(rng, dim)
        pmn = transition_probabilities(
            diagonalize(setup.hi), diagonalize(setup.hf), setup.u
        )
        assert np.allclose(pmn.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(pmn.sum(axis=1), 1.0, atol=1e-10)


def test_initial_populations_eigenstate_indicator():
    dec = diagonalize(lz_hamiltonian(2.0))
    rho = eigenstate_projector(dec, 1)
    pn = initial_populations(rho, dec)
    assert pn == pytest.approx([0.0, 1.0], abs=1e-12)


def test_initial_populations_thermal_and_uniform():
    rng = np.random.default_rng(41)
    from conftest import random_hermitian

    dec = diagonalize(random_hermitian(rng, 5))
    beta = 0.7
    pn = initial_populations(thermal_state(dec, beta), dec)
    energies = dec.eigenvalues
    gibbs = np.exp(-beta * (energies - energies[0]))
    gibbs /= gibbs.sum()
    assert np.allclose(pn, gibbs, atol=1e-12)
    from qworkstats import DensityMatrix

    uniform = initial_populations(DensityMatrix(entries=np.eye(5) / 5), dec)
    assert np.allclose(uniform, 0.2, atol=1e-12)


def test_uncollected_two_level_has_four_pairs():
    u = uncollected_distribution(lz_setup(-20.0, 3.0))
    assert u.table.bohr().shape == (2, 2)
    assert u.joint().size == 4
    assert float(u.joint().sum()) == pytest.approx(1.0, abs=1e-12)


def test_uncollected_lz_four_distinct_bohr_values():
    u = uncollected_distribution(lz_setup(-20.0, 3.0))
    values = np.sort(u.table.bohr().ravel())
    assert np.all(np.diff(values) > 1e-6)


def test_uncollected_aah_ground_start_indicator():
    params = AahParams(fib_index=8, delta=1.7)
    flat = aah_hamiltonian(AahParams(fib_index=8, delta=0.0))
    di = diagonalize(flat)
    setup = QuenchSetup(
        hi=flat, hf=aah_hamiltonian(params), rho=eigenstate_projector(di, 0)
    )
    u = uncollected_distribution(setup)
    assert u.pn[0] == pytest.approx(1.0, abs=1e-12)
    assert float(np.max(u.pn[1:])) < 1e-12


def test_collect_identity_quench_single_point():
    u = uncollected_distribution(lz_setup(-20.0, -20.0))
    w = collect_work_distribution(u)
    assert w.num_points == 1
    assert w.support[0] == pytest.approx(0.0, abs=1e-14)
    assert w.probs[0] == pytest.approx(1.0, abs=1e-14)
    assert max_degeneracy(w) == 2  # both diagonal pairs collect at zero


def test_collect_mirrored_detuning_three_points():
    # final spectrum equals the initial one, so the four Bohr values
    # are {-2g, 0, 0, +2g}
    omega = -4.0
    u = uncollected_distribution(lz_setup(omega, -omega))
    w = collect_work_distribution(u)
    gap = 2.0 * math.sqrt(omega**2 + 1.0)
    assert w.num_points == 3
    assert np.allclose(w.support, [-gap, 0.0, gap], atol=1e-12)
    assert list(w.multiplicity) == [1, 2, 1]
    assert max_degeneracy(w) == 2


def test_collect_rejects_bad_tolerance():
    u = uncollected_distribution(lz_setup(-20.0, 3.0))
    with pytest.raises(ValidationError):
        collect_work_distribution(u, cluster_tol=0.0)
    with pytest.raises(ValidationError):
        collect_work_distribution(u, cluster_tol=-1.0)
    with pytest.raises(ValidationError):
        collect_work_distribution(u, cluster_tol=math.nan)
    # an infinite width would merge the whole spectrum into one work value
    with pytest.raises(ValidationError, match="finite"):
        collect_work_distribution(u, cluster_tol=math.inf)


def test_collect_normalization_and_conservation():
    # dropped sub-threshold mass is folded back proportionally, so the
    # collected total always matches the joint-table total
    rng = np.random.default_rng(53)
    for _ in range(20):
        setup = random_setup(rng, int(rng.integers(2, 13)))
        u = uncollected_distribution(setup)
        w = collect_work_distribution(u)
        assert abs(float(w.probs.sum()) - 1.0) < 1e-12
        assert abs(float(w.probs.sum()) - float(u.joint().sum())) < 1e-12


def test_collect_multiplicities_count_all_pairs():
    rng = np.random.default_rng(59)
    for _ in range(10):
        dim = int(rng.integers(2, 10))
        setup = random_setup(rng, dim)
        w = collect_work_distribution(uncollected_distribution(setup))
        assert int(w.multiplicity.sum()) + w.diagnostics.dropped_pairs == dim * dim


def test_collect_matches_exact_grouping_oracle():
    # integer spectra make Bohr frequencies exact floats, so brute-force
    # grouping by equality is an independent reference
    rng = np.random.default_rng(67)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        ei = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
        ef = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
        pmn = np.abs(haar_unitary(rng, dim).entries) ** 2
        pn = rng.dirichlet(np.ones(dim))
        bohr = ef[:, np.newaxis] - ei[np.newaxis, :]
        u = UncollectedDistribution(pn, pair_table(pmn, ef, ei))

        groups = defaultdict(lambda: [0.0, 0])
        for m in range(dim):
            for n in range(dim):
                groups[bohr[m, n]][0] += pn[n] * pmn[m, n]
                groups[bohr[m, n]][1] += 1
        expected = sorted(groups.items())

        w = collect_work_distribution(u, cluster_tol=0.5)
        kept = [(value, mass, count) for value, (mass, count) in expected if mass >= 1e-15]
        assert w.num_points == len(kept)
        for (value, mass, count), got_w, got_p, got_m in zip(
            kept, w.support, w.probs, w.multiplicity
        ):
            assert got_w == pytest.approx(value, abs=1e-12)
            assert got_p == pytest.approx(mass, abs=1e-13)
            assert got_m == count


def assert_same_collection(got, expected):
    assert got.support.tobytes() == expected.support.tobytes()
    assert got.probs.tobytes() == expected.probs.tobytes()
    assert np.array_equal(got.multiplicity, expected.multiplicity)
    assert got.diagnostics == expected.diagnostics


def test_shared_table_collects_like_a_fresh_table_per_state():
    # The Bohr frequencies, exact in binary, sorted: -16 - 3 s, -8 - s, -8,
    # then 0, 2 s and 4 s on the diagonal, then 8 + 2 s, 8 + 7 s, 16 + 7 s,
    # with s = 2^-12 = 2.4e-4. With width 1e-3: 0, 2 s and 4 s merge by
    # single linkage through the middle value, whose pair has zero
    # probability (pmn[1, 1] = 0) but still counts in the multiplicity;
    # -8 - s and -8 merge too. With width 1e-4 nothing merges, and at the
    # default width (4e-11) neither. The 1e-16 population puts the
    # column-2 values below the drop floor.
    s = 2.0**-12
    ei = np.array([0.0, 8.0, 16.0 + 3 * s])
    ef = np.array([0.0, 8.0 + 2 * s, 16.0 + 7 * s])
    pmn = np.array([[0.5, 0.5, 0.25], [0.3, 0.0, 0.25], [0.2, 0.5, 0.5]])
    populations = (
        np.array([0.2, 0.3, 0.5]),
        np.array([0.6, 0.4 - 1e-16, 1e-16]),
        np.array([1.0, 0.0, 0.0]),
    )
    # in reverse, the one-level state looks its column up in the sorted
    # values before the next state builds the whole id table from the argsort
    for ordered in (populations, populations[::-1]):
        table = pair_table(pmn, ef, ei)
        for cluster_tol in (1e-3, None, 1e-4, 1e-3):
            for pn in ordered:
                shared = collect_work_distribution(UncollectedDistribution(pn, table), cluster_tol)
                fresh = collect_work_distribution(
                    UncollectedDistribution(pn, pair_table(pmn, ef, ei)), cluster_tol
                )
                assert_same_collection(shared, fresh)
        # one id table per width, shared by the populations
        widths = sorted(key[1] for key in table._memo if key[0] == "cluster_ids")
        assert widths == sorted([table.default_cluster_tol, 1e-4, 1e-3])

    bridged = collect_work_distribution(UncollectedDistribution(populations[0], table), 1e-3)
    assert bridged.multiplicity.tolist() == [1, 2, 3, 1, 1, 1]
    assert bridged.probs[2] == pytest.approx(0.2 * 0.5 + 0.5 * 0.5, abs=1e-15)
    assert bridged.support[2] == pytest.approx(4 * s * 0.25 / 0.35, abs=1e-15)
    # unbridged, the zero-probability pair is a cluster of its own and dropped
    alone = collect_work_distribution(UncollectedDistribution(populations[0], table), 1e-4)
    assert alone.num_points == 8
    assert (alone.diagnostics.dropped_pairs, alone.diagnostics.dropped_mass) == (1, 0.0)
    dropped = collect_work_distribution(UncollectedDistribution(populations[1], table), 1e-4)
    assert dropped.diagnostics.dropped_pairs == 3 + 1  # column 2, and the zero pair
    assert dropped.diagnostics.dropped_mass > 0.0
    assert float(dropped.probs.sum()) == pytest.approx(1.0, abs=1e-15)


def test_shared_table_matches_fresh_tables_on_random_integer_spectra():
    rng = np.random.default_rng(71)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        ei = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
        ef = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
        pmn = np.abs(haar_unitary(rng, dim).entries) ** 2
        top_pair = np.r_[np.zeros(dim - 2), 0.25, 0.75]
        populations = (
            rng.dirichlet(np.ones(dim)), np.eye(dim)[0], rng.dirichlet(np.ones(dim)), top_pair
        )
        # narrow states look their columns up until a wide one builds the id table
        for ordered in (populations, populations[::-1]):
            table = pair_table(pmn, ef, ei)
            for pn in ordered:
                for cluster_tol in (None, 0.5):
                    assert_same_collection(
                        collect_work_distribution(UncollectedDistribution(pn, table), cluster_tol),
                        collect_work_distribution(
                            UncollectedDistribution(pn, pair_table(pmn, ef, ei)), cluster_tol
                        ),
                    )


def test_one_level_state_collects_without_an_argsort(monkeypatch):
    rng = np.random.default_rng(73)
    dim = 6
    ei = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
    ef = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
    pmn = np.abs(haar_unitary(rng, dim).entries) ** 2
    pn = np.eye(dim)[2]
    argsorted = pair_table(pmn, ef, ei)
    collect_work_distribution(UncollectedDistribution(np.full(dim, 1.0 / dim), argsorted))
    expected = collect_work_distribution(UncollectedDistribution(pn, argsorted))
    clusters = argsorted._memo[("cluster_ids", argsorted.default_cluster_tol)][1].size
    assert clusters < dim * dim  # the tied levels share values

    def no_argsort(*args, **kwargs):
        raise AssertionError("a one-level state sorted the whole table")

    # ... nor does it make an integer array per pair, or pass N^2 values to a
    # cumsum or a bincount: its integer arrays are one per cluster at most
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((name, np.size(args[0]), result.dtype.kind, result.size))
            return result
        return call

    monkeypatch.setattr(np, "argsort", no_argsort)
    for name in ("cumsum", "bincount", "flatnonzero", "searchsorted", "diff", "empty", "zeros",
                 "ones", "empty_like"):
        monkeypatch.setattr(np, name, spy(name, getattr(np, name)))
    table = pair_table(pmn, ef, ei)
    assert_same_collection(collect_work_distribution(UncollectedDistribution(pn, table)), expected)
    # the starts, where they fall among them, and the member counts beside the starts
    assert {"flatnonzero", "searchsorted", "empty_like"} <= {name for name, *_ in calls}, calls
    assert not [call for call in calls if call[0] in ("cumsum", "bincount") and call[1] >= dim**2]
    integers = [call for call in calls if call[2] in "iu"]
    assert integers and max(size for *_, size in integers) <= clusters, integers


def assert_same_bits(got, expected):
    """Every field of two collected distributions, diagnostics included, bit for bit."""
    for name in ("support", "probs", "multiplicity"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert repr(got.diagnostics) == repr(expected.diagnostics)  # repr keeps every float bit


def narrow_and_stored(make_table, pn, cluster_tol=None):
    """A narrow state collected on a fresh table, and on one whose ids a
    uniform state stored first."""
    fresh = make_table()
    narrow = collect_work_distribution(UncollectedDistribution(pn, fresh), cluster_tol)
    assert not fresh._memo  # the narrow route stores nothing
    table = make_table()
    uniform = np.full(table.dim, 1.0 / table.dim)
    collect_work_distribution(UncollectedDistribution(uniform, table), cluster_tol)
    assert any(key[0] == "cluster_ids" for key in table._memo)
    return narrow, collect_work_distribution(UncollectedDistribution(pn, table), cluster_tol)


def test_the_narrow_route_collects_the_bits_of_the_stored_route():
    # Tied integer levels make clusters of three and more pairs. The level at
    # 0.5 puts its pairs between the integer values, each in a cluster of its
    # own: with a population of 1e-16 they fall below the floor, so the
    # dropped clusters sit among the kept ones and the renormalization runs.
    rng = np.random.default_rng(83)
    dim = 9
    ei = np.array([-2.0, -2.0, -1.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
    ef = np.sort(rng.integers(-3, 4, size=dim)).astype(float)
    pmn = np.abs(haar_unitary(rng, dim).entries) ** 2
    populations = [np.eye(dim)[level] for level in range(dim)]
    populations.append(np.r_[np.zeros(3), 1.0 - 1e-16, 1e-16, np.zeros(4)])
    populations.append(np.r_[np.zeros(5), rng.dirichlet(np.ones(3)), 0.0])
    dropped = 0
    for pn in populations:
        for cluster_tol in (None, 0.25, 1.5):
            narrow, stored = narrow_and_stored(lambda: pair_table(pmn, ef, ei), pn, cluster_tol)
            assert_same_bits(narrow, stored)
            assert cluster_tol == 1.5 or narrow.multiplicity.max() >= 3
            dropped += narrow.diagnostics.dropped_mass != 0.0
    assert dropped >= 2

    # real ground rows at N = 377, on both sides of the transition
    for delta in (1.5, 2.5):
        params = AahParams(fib_index=14, delta=delta)
        for direction in (experiments.ZERO_TO_DELTA, experiments.DELTA_TO_ZERO):
            make = lambda: aah_quench(params, direction)  # noqa: E731
            narrow, stored = narrow_and_stored(make, np.eye(params.size)[0])
            assert_same_bits(narrow, stored)


def _spectrum(rng, dim):
    """Ascending levels of either sign at a random scale, a third of them tied."""
    levels = rng.normal(scale=10.0 ** int(rng.integers(-6, 4)), size=dim)
    levels[rng.integers(dim, size=dim // 3)] = levels[rng.integers(dim)]
    return np.sort(levels)


def test_bohr_frequencies_and_default_width_come_from_the_spectra_bit_for_bit():
    rng = np.random.default_rng(97)
    for dim in (1, 2, 3, 8, 33, 120, 200):
        for ef, ei in ((_spectrum(rng, dim), _spectrum(rng, dim)) for _ in range(4)):
            table = pair_table(np.full((dim, dim), 1.0 / dim), ef, ei)
            dense = ef[:, np.newaxis] - ei[np.newaxis, :]
            assert table.bohr().tobytes() == dense.tobytes()
            for columns in (slice(0, 1), slice(dim // 3, dim), slice(dim - 1, dim)):
                assert table.bohr(columns).tobytes() == dense[:, columns].tobytes()
            span = float(dense.max() - dense.min())
            assert span > 0 or dim == 1
            assert table.default_cluster_tol == tpm.DEFAULT_CLUSTER_SCALE * span or dim == 1
    # one level, or equal Bohr frequencies: the width falls back to the value or to 1
    for level, width in ((-3.0, 3.0), (0.25, 1.0)):
        flat = pair_table(np.eye(2), [level, level], [0.0, 0.0])
        assert flat.default_cluster_tol == tpm.DEFAULT_CLUSTER_SCALE * width


def test_a_diagonal_sudden_quench_table_keeps_no_hamiltonian():
    flat = aah_hamiltonian(AahParams(fib_index=8, delta=0.0))
    n = flat.dim
    for delta in (0.5, 2.5):
        modulated = aah_hamiltonian(AahParams(fib_index=8, delta=delta))
        for hi, hf in ((flat, modulated), (modulated, flat)):
            change = hf.entries.diagonal() - hi.entries.diagonal()
            # as the chain drivers build it: the on-site change, and no hi or hf
            table = PairTable(None, None, diagonalize(hi), diagonalize(hf), diagonal_change=change)
            pn = np.full(n, 1.0 / n)
            setup = QuenchSetup(hi=hi, hf=hf, rho=pn)
            assert table.mean_work(pn) == mean_work_direct(setup)
            collect_work_distribution(UncollectedDistribution(pn, table))
            # the table's own N^2 arrays: pmn, and in its memo the cluster ids
            held = [value for value in vars(table).values()
                    if isinstance(value, np.ndarray) and value.size >= n * n]
            assert len(held) == 1 and held[0] is table.pmn
            (ids,) = [arr for value in table._memo.values() for arr in _n_squared_arrays(value, n)]
            assert ids.dtype.kind == "i"
        # ... so the modulated Hamiltonian goes once the caller drops it
        gone = weakref.ref(modulated)
        del modulated, hi, hf, setup
        assert gone() is None

    # a table given Hamiltonians keeps them for the dense product, a diagonal change among them
    rng = np.random.default_rng(101)
    hopping = flat.entries.copy()
    hopping[0, 1] = hopping[1, 0] = -0.5
    for hf, u in ((flat, haar_unitary(rng, n)), (HermitianOperator(entries=hopping), None),
                  (aah_hamiltonian(AahParams(fib_index=8, delta=1.5)), None)):
        table = PairTable(flat, hf, diagonalize(flat), diagonalize(hf), u)
        assert (table.hi, table.hf, table.u, table.diagonal_change) == (flat, hf, u, None)


def _n_squared_arrays(value, n):
    """The arrays of at least n^2 entries inside a memo value."""
    if isinstance(value, tuple):
        return [arr for item in value for arr in _n_squared_arrays(item, n)]
    return [value] if isinstance(value, np.ndarray) and value.size >= n * n else []


def test_pair_table_memo_keeps_only_the_id_table_and_member_counts(monkeypatch):
    rng = np.random.default_rng(79)
    dim = 7
    ei = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
    ef = np.sort(rng.integers(-4, 5, size=dim)).astype(float)
    pmn = np.abs(haar_unitary(rng, dim).entries) ** 2

    # a narrow state on a fresh table sorts into locals and stores nothing
    table = pair_table(pmn, ef, ei)
    narrow = collect_work_distribution(UncollectedDistribution(np.eye(dim)[3], table))
    assert not any(_n_squared_arrays(value, dim) for value in table._memo.values())

    # a wide state stores, per width, the id table and the member counts only
    for cluster_tol in (None, 1e-3, None):
        uniform = UncollectedDistribution(np.full(dim, 1.0 / dim), table)
        collect_work_distribution(uniform, cluster_tol)
    widths = (table.default_cluster_tol, 1e-3)
    assert set(table._memo) == {("cluster_ids", width) for width in widths}
    for ids, members in table._memo.values():
        assert ids.shape == (dim, dim) and ids.dtype.kind == "i"
        assert members.ndim == 1 and int(members.sum()) == dim * dim
        assert ids.max() == members.size - 1
    # ... which a later narrow state reads instead of sorting
    def no_sort(*args, **kwargs):
        raise AssertionError("a narrow state sorted although the ids were stored")

    monkeypatch.setattr(np, "sort", no_sort)
    assert_same_collection(
        collect_work_distribution(UncollectedDistribution(np.eye(dim)[3], table)), narrow
    )


def test_collected_distribution_keeps_its_arrays_and_copies_a_callers(monkeypatch):
    owned = []
    own = WorkDistribution._own

    def recording(self, *given):
        owned.append(given)
        return own(self, *given)

    def copying(self):
        raise AssertionError("collection copied the arrays it built")

    monkeypatch.setattr(WorkDistribution, "_own", recording)
    monkeypatch.setattr(WorkDistribution, "__post_init__", copying)
    setup = random_setup(np.random.default_rng(7), 5)
    work = collect_work_distribution(uncollected_distribution(setup))
    ((*arrays, cluster_tol, dropped_pairs, dropped_mass),) = owned
    kept_arrays = (work.support, work.probs, work.multiplicity)
    assert all(kept is given for kept, given in zip(kept_arrays, arrays, strict=True))
    diagnostics = work.diagnostics  # collection hands over its numbers, not diagnostics
    assert (cluster_tol, dropped_pairs, dropped_mass) == (
        diagnostics.cluster_tol, diagnostics.dropped_pairs, diagnostics.dropped_mass)
    assert not any(arr.flags.writeable for arr in kept_arrays)
    monkeypatch.undo()

    support, probs, multiplicity = np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([1, 3])
    built = WorkDistribution(support, probs, multiplicity, work.diagnostics)
    kept_arrays = (built.support, built.probs, built.multiplicity)
    for mine, kept in zip((support, probs, multiplicity), kept_arrays):
        assert mine.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(mine, kept)
        mine[0] = 7
    assert built.support[0] == 0.0 and built.probs[0] == 0.5 and built.multiplicity[0] == 1
    # one multiplicity dtype, whichever constructor built the distribution
    assert work.multiplicity.dtype == built.multiplicity.dtype == tpm.CLUSTER_ID


def _changed_diagonal(rng, dim, dtype):
    """A random Hermitian hi, and hf = hi with its diagonal redrawn."""
    entries = rng.normal(size=(dim, dim))
    if dtype is complex:
        entries = entries + 1j * rng.normal(size=(dim, dim))
    hi = (entries + entries.conj().T) / 2
    hf = hi.copy()
    np.fill_diagonal(hf, rng.normal(size=dim))
    return HermitianOperator(entries=hi), HermitianOperator(entries=hf)


def test_diagonal_first_moment_route_matches_the_dense_product_bit_for_bit():
    rng = np.random.default_rng(89)
    for dim in (2, 3, 8, 33, 200):
        for dtype in (float, complex):
            hi, hf = _changed_diagonal(rng, dim, dtype)
            initial = diagonalize(hi)
            change = hf.entries.diagonal() - hi.entries.diagonal()
            table = PairTable(None, None, initial, diagonalize(hf), diagonal_change=change)
            for live in (np.arange(dim), np.arange(dim // 2 + 1), np.array([dim - 1]),
                         np.arange(0, dim, 3)):
                v = initial.eigenvectors[:, live]
                product = (hf.entries - hi.entries) @ v
                expected = np.multiply(v.conj(), product, order="C").sum(axis=0).real
                assert np.array_equal(tpm._level_work(table, live), expected)
                if dtype is float:  # numpy lays these products out in C order itself
                    assert np.array_equal((v.conj() * product).sum(axis=0).real, expected)

    # a table given Hamiltonians takes the dense product: one changed off-diagonal pair,
    # or a protocol
    hi, hf = _changed_diagonal(rng, 6, complex)
    entries = hf.entries.copy()
    entries[1, 4] += 0.5j
    entries[4, 1] -= 0.5j
    initial, live = diagonalize(hi), np.arange(6)
    for hf, u in ((HermitianOperator(entries=entries), None), (hf, haar_unitary(rng, 6))):
        table = PairTable(hi, hf, initial, diagonalize(hf), u)
        rotated = hf.entries if u is None else u.entries.conj().T @ hf.entries @ u.entries
        product = (rotated - hi.entries) @ initial.eigenvectors
        np.multiply(initial.eigenvectors.conj(), product, out=product)
        assert np.array_equal(tpm._level_work(table, live), product.sum(axis=0).real)


def test_lz_tables_given_hamiltonians_or_the_diagonal_change_give_the_same_first_moment():
    # lz-sweep and single-quench give their tables the Hamiltonians. A detuning changes
    # only the diagonal of sigma_x + omega sigma_z, so the dense product must give the
    # bits, signed zeros included, of the diagonal route: at the default omega_i, across
    # the default grid and at the degenerate detunings +-omega_i
    omega_i = -20.0
    hi = lz_hamiltonian(omega_i)
    initial = diagonalize(hi)
    states = (thermal_populations(initial, experiments.DEFAULT_LZ_BETA),
              np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    for omega_f in (*experiments.default_lz_grid()[::10], omega_i, -omega_i, 0.0, 1.0):
        hf = lz_hamiltonian(omega_f)
        final = diagonalize(hf)
        dense = PairTable(hi, hf, initial, final)
        change = hf.entries.diagonal() - hi.entries.diagonal()
        diagonal = PairTable(None, None, initial, final, diagonal_change=change)
        assert (dense.hi, dense.hf, dense.diagonal_change) == (hi, hf, None)
        for pn in states:
            assert dense.mean_work(pn).hex() == diagonal.mean_work(pn).hex(), (omega_f, pn)


def test_pair_table_refuses_first_moment_inputs_it_cannot_serve():
    hi, hf = lz_hamiltonian(-2.0), lz_hamiltonian(1.0)
    initial, final = diagonalize(hi), diagonalize(hf)
    change = hf.entries.diagonal() - hi.entries.diagonal()
    c, s = math.cos(0.7), math.sin(0.7)
    u = UnitaryMatrix(entries=np.array([[c, -s], [s, c]]))
    # no Hamiltonians and no diagonal change: nothing to take the first moment from
    for operators in ((None, None), (hi, None), (None, hf)):
        with pytest.raises(ValidationError, match="needs hi and hf, or a diagonal change"):
            PairTable(*operators, initial, final)
    # a diagonal change beside a Hamiltonian or a protocol, which it would ignore
    for operators, protocol in (((None, None), u), ((hi, hf), None), ((hi, None), None)):
        with pytest.raises(ValidationError, match="given alone"):
            PairTable(*operators, initial, final, protocol, diagonal_change=change)
    for wrong in (change[:1], change[:, np.newaxis], np.append(change, 0.0)):
        with pytest.raises(DimensionMismatchError, match="does not match 2 levels"):
            PairTable(None, None, initial, final, diagonal_change=wrong)
    # the rotated quench given its Hamiltonians passes the first-moment check
    table = PairTable(hi, hf, initial, final, u)
    uncollected = UncollectedDistribution(thermal_populations(initial, 0.5), table)
    check_first_moment(collect_work_distribution(uncollected), uncollected)


def test_pair_table_mean_work_shares_first_moment_products_per_live_set():
    rng = np.random.default_rng(83)
    hi = lz_hamiltonian(-3.0)
    hf = lz_hamiltonian(2.0)
    u = haar_unitary(rng, 2)
    table = PairTable(hi, hf, diagonalize(hi), diagonalize(hf), u)
    for rho in ([0.3, 0.7], [1.0, 0.0], [0.6, 0.4]):
        setup = QuenchSetup(hi=hi, hf=hf, rho=rho, u=u)
        assert table.mean_work(setup.rho) == mean_work_direct(setup)
    assert len([key for key in table._memo if key[0] == "level_work"]) == 2


def test_pair_table_keeps_the_arrays_it_builds(monkeypatch):
    table = pair_table([[0.75, 0.25], [0.25, 0.75]], [0.0, 2.0], [-1.0, 0.0])
    assert np.array_equal(table.bohr(), [[1.0, 0.0], [3.0, 2.0]])
    assert table.default_cluster_tol == 3.0 * tpm.DEFAULT_CLUSTER_SCALE  # 3 - 0

    # a table holds the transition matrix it computed and its decompositions' spectra,
    # uncopied and read-only
    computed = []

    def recording(*args):
        computed.append(transition_probabilities(*args))
        return computed[-1]

    monkeypatch.setattr(tpm, "transition_probabilities", recording)
    hi = lz_hamiltonian(-3.0)
    hf = lz_hamiltonian(2.0)
    initial, final = diagonalize(hi), diagonalize(hf)
    table = PairTable(hi, hf, initial, final)
    assert table.pmn is computed[0]
    assert table.initial_energies is initial.eigenvalues
    assert table.final_energies is final.eigenvalues
    assert not table.pmn.flags.writeable


def test_nan_fails_the_stochasticity_and_first_moment_checks(monkeypatch):
    ef, ei = np.array([0.0, 2.0]), np.array([-1.0, 0.0])
    half = np.full((2, 2), 0.5)
    # an infinite level, a NaN level alone, and finite spectra whose Bohr frequencies
    # overflow, with no overflow warning
    for bad in ([0.0, math.inf], [-math.inf, 0.0]):
        for spectra in ((ef, bad), (bad, ei)):
            with pytest.raises(ValidationError, match="finite Bohr frequencies; they span inf"):
                pair_table(half, *spectra)
    for spectra in (([math.nan], [0.0]), ([0.0, 1.7e308], [-1.7e308, 0.0])):
        with pytest.raises(ValidationError, match="finite Bohr frequencies"):
            pair_table(np.eye(len(spectra[0])), *spectra)
    # so does a table of decompositions, not blaming a clustering width nobody gave
    h = lz_hamiltonian(1e308)
    d = diagonalize(h)
    with pytest.raises(ValidationError, match="finite Bohr frequencies; they span inf"):
        PairTable(h, h, d, d)

    # the decomposition rejects a NaN eigenvector; one that got past it
    # would still fail the stochasticity check of the transitions
    finite = diagonalize(lz_hamiltonian(2.0))
    vectors = finite.eigenvectors.copy()
    vectors[0, 0] = math.nan
    with pytest.raises(ValidationError, match="non-finite"):
        SpectralDecomposition(finite.eigenvalues, vectors)
    broken = object.__new__(SpectralDecomposition)
    object.__setattr__(broken, "eigenvalues", finite.eigenvalues)
    object.__setattr__(broken, "eigenvectors", vectors)
    with pytest.raises(ValidationError, match="doubly stochastic by nan"):
        transition_probabilities(broken, finite)

    u = uncollected_distribution(lz_setup(-3.0, 2.0))
    w = collect_work_distribution(u)
    check_first_moment(w, u)
    monkeypatch.setattr(u.table, "mean_work", lambda pn: math.nan)
    with pytest.raises(ValidationError, match="disagree"):
        check_first_moment(w, u)


def test_work_distribution_rejects_non_finite_and_negative_values():
    diagnostics = CollectionDiagnostics(
        cluster_tol=1e-12, min_gap=1.0, warnings=(), dropped_pairs=0, dropped_mass=0.0
    )
    WorkDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([1, 3]), diagnostics)
    for support, probs, match in (
        ([0.0, math.nan], [0.5, 0.5], "support must be finite"),
        ([math.nan, 0.0], [0.5, 0.5], "support must be finite"),
        ([0.0, math.inf], [0.5, 0.5], "support must be finite"),
        ([0.0, 1.0], [0.5, math.nan], "probs must be"),
        ([0.0, 1.0], [math.inf, 0.5], "probs must be"),
        ([0.0, 1.0], [1.5, -0.5], "probs must be"),
    ):
        with pytest.raises(ValidationError, match=match):
            WorkDistribution(np.array(support), np.array(probs), np.array([1, 3]), diagnostics)
    with pytest.raises(ValidationError, match="support must be finite"):
        WorkDistribution(np.array([math.nan]), np.array([1.0]), np.array([4]), diagnostics)
    with pytest.raises(ValidationError, match="support must be finite"):  # inside the support
        WorkDistribution(np.array([0.0, math.nan, 1.0]), np.full(3, 1 / 3), np.array([1, 2, 1]),
                         diagnostics)
    with pytest.raises(ValidationError, match="multiplicities must be >= 1"):
        WorkDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array([4, 0]), diagnostics)
    with pytest.raises(ValidationError, match="sum to 1, not 0.0"):  # no point at all
        WorkDistribution(np.array([]), np.array([]), np.array([], dtype=int), diagnostics)
    everything_dropped = dataclasses.replace(diagnostics, dropped_pairs=4, dropped_mass=1.0)
    with pytest.raises(ValidationError, match="sum to 1, not 0.0"):  # an empty support
        WorkDistribution(np.array([]), np.array([]), np.array([], dtype=int), everything_dropped)


def test_joint_is_a_new_clipped_array_of_the_live_columns():
    setup = random_setup(np.random.default_rng(5), 6)
    u = uncollected_distribution(setup)
    joint = u.joint()
    columns = u.columns
    assert np.array_equal(joint, np.clip(u.pn[columns] * u.table.pmn[:, columns], 0.0, None))
    assert u.joint() is not joint and joint.flags.writeable
    assert not np.shares_memory(joint, u.table.pmn)
    # a state over part of the levels reads its live column block only
    pn = np.array([0.0, 0.25, 0.0, 0.75, 0.0, 0.0])
    narrow = UncollectedDistribution(pn, u.table)
    assert narrow.columns == slice(1, 4)
    assert np.array_equal(narrow.joint(), np.clip(pn[1:4] * u.table.pmn[:, 1:4], 0.0, None))
    # ... and its row blocks are the rows of that joint, in order
    assert np.array_equal(np.vstack([q for _, q in narrow.blocks()]), narrow.joint())


def test_collection_and_the_uncollected_entropy_allocate_no_n_squared_array(monkeypatch):
    # On a table whose cluster ids a first state stored, collection and H_u
    # read the joint a block of rows at a time. A block here is 1 % of the
    # table, so whatever they allocate beyond their blocks shows: a copy of
    # the joint, of the ids or of a product of the whole table is 1.0 N^2.
    # The 2n - 1 integer Bohr values keep the per-cluster arrays short.
    n = 300
    monkeypatch.setattr(tpm, "BLOCK_PAIRS", n * n // 100)
    levels = np.arange(n, dtype=float)
    table = pair_table(np.full((n, n), 1.0 / n), levels, levels)
    collect_work_distribution(UncollectedDistribution(np.full(n, 1.0 / n), table))
    assert any(key[0] == "cluster_ids" for key in table._memo)
    assert len(range(0, n, tpm.BLOCK_PAIRS // n)) == 100
    ramp = levels + 1.0
    trimmed = np.r_[np.zeros(10), ramp[10:-10], np.zeros(10)]  # live columns short of the table's
    for pn in (ramp, trimmed):
        uncollected = UncollectedDistribution(pn / pn.sum(), table)
        for read in (uncollected_entropy, collect_work_distribution):
            tracemalloc.start()
            try:
                read(uncollected)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.1 * n * n * 8, (read.__name__, peak / (n * n * 8))


def _int64_cluster_ids(table, cluster_tol):
    """The whole table's int64 ids and ``np.bincount`` members: the wide route of
    ``tpm._cluster_ids`` while it wrote its gaps through a float view of its id buffer."""
    v = table.bohr().ravel()
    order = np.argsort(v)
    v = v[order]
    sorted_ids = np.empty(v.size, dtype=np.intp)
    sorted_ids[0] = 0
    gaps = np.subtract(v[1:], v[:-1], out=sorted_ids[1:].view(float))
    np.cumsum(gaps >= cluster_tol, out=sorted_ids[1:])
    members = np.bincount(sorted_ids)
    ids = np.empty_like(sorted_ids)
    ids[order] = sorted_ids
    return ids.reshape(table.pmn.shape), members


def _tied_table(quench):
    """An AAH quench's table at N = 144, or one of integer levels: many pairs in each value."""
    if quench == "integer levels":
        levels = np.repeat(np.arange(20.0), 3)
        return pair_table(np.eye(levels.size), levels, levels)
    return aah_quench(AahParams(fib_index=12, delta=2.5), quench)


def _assert_every_route_gives_the_old_ids(table, quench):
    """Narrow states on a fresh table, then the wide state that stores the whole
    table's ids, then a narrow state that reads them, each against the old ids."""
    n, width = table.dim, table.default_cluster_tol
    old_ids, old_members = _int64_cluster_ids(table, width)
    stored = False
    for columns in (slice(0, 1), slice(3, n // 2), slice(0, n), slice(n - 5, n)):
        stored |= 2 * (columns.stop - columns.start) > n
        ids, members = tpm._cluster_ids(table, width, columns)
        assert np.array_equal(ids, old_ids[:, columns]) and np.array_equal(members, old_members)
        assert ids.dtype == (np.int32 if stored else np.intp)
        assert members.dtype == tpm.CLUSTER_ID
        assert (("cluster_ids", width) in table._memo) == stored
    assert old_members.size < n * n  # ties, or the ids would be a permutation
    assert old_members.max() > (2 if quench == "integer levels" else 1)


@pytest.mark.parametrize("quench", ["zero-to-delta", "delta-to-zero", "integer levels"])
def test_int32_cluster_ids_are_the_old_int64_ids(quench):
    _assert_every_route_gives_the_old_ids(_tied_table(quench), quench)


@pytest.mark.parametrize("block", [1, 7, 61])
@pytest.mark.parametrize("quench", ["zero-to-delta", "delta-to-zero", "integer levels"])
def test_block_wise_cluster_ids_are_the_one_array_ids(monkeypatch, quench, block):
    # The reference sorts, gathers and scatters the whole table at once. Blocks
    # of a few pairs make clusters, tied values and the wide route's running
    # count cross block edges.
    table = _tied_table(quench)
    edges = np.arange(block, table.pmn.size, block)
    old_ids = _int64_cluster_ids(table, table.default_cluster_tol)[0]
    sorted_ids, sorted_values = np.sort(old_ids, axis=None), np.sort(table.bohr(), axis=None)
    assert (sorted_ids[edges] == sorted_ids[edges - 1]).any()
    assert (sorted_values[edges] == sorted_values[edges - 1]).any()
    monkeypatch.setattr(tpm, "BLOCK_PAIRS", block)
    _assert_every_route_gives_the_old_ids(table, quench)


def test_a_table_with_more_pairs_than_int32_ids_is_refused():
    # a broadcast zero stands in for the transitions: nothing N^2 is allocated
    n = 46341  # the smallest N with N^2 >= 2^31
    levels = np.arange(float(n))
    with pytest.raises(ValidationError, match=f"more than {tpm.MAX_PAIRS} pairs"):
        object.__new__(PairTable)._own(np.broadcast_to(0.0, (n, n)), levels, levels)


def _one_bincount_sums(uncollected):
    """(probability, weighted sum, member count) per cluster, the sums by one np.bincount over
    the whole product of the Bohr table and the joint: collection before its row blocks."""
    table, columns = uncollected.table, uncollected.columns
    ids, members = tpm._cluster_ids(table, table.default_cluster_tol, columns)
    ids = ids.ravel()
    q = uncollected.joint()
    probs = np.bincount(ids, weights=q.ravel(), minlength=members.size)
    sums = np.bincount(ids, weights=(table.bohr(columns) * q).ravel(), minlength=members.size)
    return probs, sums, members


def _one_bincount_collection(uncollected):
    """(support, probs, multiplicity) of the clusters ``_one_bincount_sums`` sums."""
    probs, sums, members = _one_bincount_sums(uncollected)
    keep = probs >= tpm.DROP_THRESHOLD
    kept = probs[keep]
    support = sums[keep] / kept
    if probs[~keep].sum() != 0.0:
        kept = kept * (float(probs.sum()) / float(kept.sum()))
    return support, kept, members[keep]


@pytest.mark.parametrize("ties", [True, False])
def test_block_sums_are_the_bits_of_one_bincount(ties):
    # A table three blocks tall. With integer levels every work value gathers
    # pairs from all of the blocks, so a sum per block, added up after, would
    # round differently; random levels leave the pairs alone in their values.
    rng = np.random.default_rng(23)
    n = 400
    assert len(range(0, n, tpm.BLOCK_PAIRS // (n - 5))) == 3
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    pmn = q * q
    pmn /= pmn.sum(axis=0)
    if ties:
        ef, ei = (np.sort(rng.integers(0, 40, size=n)).astype(float) for _ in range(2))
    else:
        ef, ei = (np.sort(rng.normal(size=n)) for _ in range(2))
    pn = rng.random(n)
    pn[-5:] = 0.0  # live columns short of the table's
    uncollected = UncollectedDistribution(pn / pn.sum(), pair_table(pmn, ef, ei))
    work = collect_work_distribution(uncollected)
    support, probs, multiplicity = _one_bincount_collection(uncollected)
    if ties:
        assert multiplicity.max() > n
    for got, want in ((work.support, support), (work.probs, probs),
                      (work.multiplicity, multiplicity)):
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _gathered(cluster_prob, weighted_sum, members):
    """Support, probabilities, multiplicity, dropped mass and dropped pairs by the gathers that
    collection made before it moved its kept clusters in place: the oracle of the moves."""
    keep = cluster_prob >= tpm.DROP_THRESHOLD
    kept_probs = cluster_prob[keep]
    support = weighted_sum[keep]
    support /= kept_probs
    multiplicity = members[keep]
    dropped = np.invert(keep)
    dropped_mass = float(cluster_prob[dropped].sum())
    dropped_pairs = int(members.sum(dtype=np.int64, where=dropped))
    if dropped_mass != 0.0:
        kept_probs *= float(cluster_prob.sum()) / float(kept_probs.sum())
    return support, kept_probs, multiplicity, dropped_mass, dropped_pairs


def _regime_table(rng, n, regime):
    """Transitions, spectra and populations of a random table in one collection regime."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    pmn = q * q
    ef, ei = (np.sort(rng.normal(size=n)) for _ in range(2))  # one pair per work value
    pn = rng.random(n) + 0.5
    if regime == "nothing dropped":
        pmn = np.maximum(pmn, 1e-6)
        ef, ei = (np.sort(rng.integers(0, 40 * n, size=n)).astype(float) for _ in range(2))
    elif regime == "a few dropped":
        rows, cols = rng.integers(0, n, size=(2, 40))
        pmn[rows, cols] = rng.uniform(0.0, 2e-15, size=40)  # with p_n < 1.5, some below 1e-15
    elif regime == "one live column":
        pmn[:: 7, 3] = rng.uniform(0.0, 2e-15, size=pmn[:: 7, 3].size)  # a dropped mass
        pn = np.eye(n)[3]
    else:  # one kept cluster: one pair carries every probability
        pmn = np.eye(n)[rng.permutation(n)]
        pn = np.eye(n)[5]
    pmn /= pmn.sum(axis=0)
    return pair_table(pmn, ef, ei), pn / pn.sum()


REGIMES = ("nothing dropped", "a few dropped", "one live column", "one kept cluster")


@pytest.mark.parametrize("regime", REGIMES)
def test_in_place_collection_gives_the_bits_of_the_gathers(monkeypatch, regime):
    # A block of 500 pairs, so that the kept clusters of a state that drops a few, and the
    # dropped ones of a state that keeps a few, move forward across 20 to 80 block bounds.
    rng = np.random.default_rng(REGIMES.index(regime))
    n = 200
    monkeypatch.setattr(tpm, "BLOCK_PAIRS", 500)
    table, pn = _regime_table(rng, n, regime)
    uncollected = UncollectedDistribution(pn, table)
    work = collect_work_distribution(uncollected)
    cluster_prob, weighted_sum, members = _one_bincount_sums(uncollected)
    kept = int((cluster_prob >= tpm.DROP_THRESHOLD).sum())
    assert cluster_prob.size > 20 * tpm.BLOCK_PAIRS
    assert {"nothing dropped": kept == cluster_prob.size < n * n,  # and pairs share values
            "a few dropped": 0 < cluster_prob.size - kept <= 40,
            "one live column": n // 2 < kept < n,
            "one kept cluster": kept == 1}[regime], kept
    support, probs, multiplicity, dropped_mass, dropped_pairs = _gathered(
        cluster_prob, weighted_sum, members)
    for got, want in ((work.support, support), (work.probs, probs),
                      (work.multiplicity, multiplicity)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert repr(work.diagnostics.dropped_mass) == repr(dropped_mass)
    assert work.diagnostics.dropped_pairs == dropped_pairs
    assert (dropped_mass != 0.0) == (regime in ("a few dropped", "one live column"))
    for arr in (work.support, work.probs, work.multiplicity):  # nothing longer than the support
        assert (arr if arr.base is None else arr.base).nbytes == arr.nbytes


def test_density_matrix_populations_are_checked_by_the_uncollected_table():
    # trace one but not positive: the clipped populations sum to 1.5
    hi = HermitianOperator(entries=np.diag([0.0, 1.0]))
    rho = DensityMatrix(entries=np.diag([1.5, -0.5]))
    assert np.array_equal(initial_populations(rho, diagonalize(hi)), [1.5, 0.0])
    with pytest.raises(ValidationError, match="sum to 1.5"):
        uncollected_distribution(QuenchSetup(hi=hi, hf=hi, rho=rho))


def test_proximity_warning_for_marginal_gaps():
    pn = np.array([0.5, 0.5])
    pmn = np.array([[0.5, 0.5], [0.5, 0.5]])
    # Bohr frequencies 0, -1, 1 + 5e-9 and 5e-9: the last lies 5e-9 from 0
    u = UncollectedDistribution(pn, pair_table(pmn, [0.0, 1.0 + 5e-9], [0.0, 1.0]))
    w = collect_work_distribution(u, cluster_tol=1e-9)
    assert any("resolution-marginal" in message for message in w.diagnostics.warnings)
    clean = collect_work_distribution(u, cluster_tol=1e-12)
    assert w.num_points <= clean.num_points


def test_a_distribution_derives_the_gap_and_warning_of_its_own_support(monkeypatch):
    # one smallest-gap pass per collection: the distribution's own
    passes, min_gap = [], tpm._min_gap
    monkeypatch.setattr(tpm, "_min_gap", lambda values: passes.append(values) or min_gap(values))
    setup = random_setup(np.random.default_rng(5), 6)
    work = collect_work_distribution(uncollected_distribution(setup))
    (support,) = passes
    assert support is work.support and work.diagnostics.min_gap == min_gap(work.support)
    monkeypatch.undo()
    # a caller's gap and warnings give way to those of the support it gives
    handed = CollectionDiagnostics(
        cluster_tol=1e-12, min_gap=1.0, warnings=(), dropped_pairs=0, dropped_mass=0.0
    )
    work = WorkDistribution([0, 5e-12], [0.5, 0.5], [1, 3], handed)
    assert work.diagnostics.min_gap == 5e-12
    (warning,) = work.diagnostics.warnings
    assert warning.startswith("resolution-marginal spectrum: smallest collected gap 5e-12 is")
    assert dataclasses.replace(work.diagnostics, min_gap=1.0, warnings=()) == handed
    stale = dataclasses.replace(handed, min_gap=1e-12, warnings=("stale",))
    work = WorkDistribution([0.0, 1.0], [0.5, 0.5], [1, 3], stale)
    assert (work.diagnostics.min_gap, work.diagnostics.warnings) == (1.0, ())


def test_work_moments_trivial_and_variance():
    u = uncollected_distribution(lz_setup(-20.0, -20.0))
    w = collect_work_distribution(u)
    moments, variance = work_moments(w)
    assert moments.shape == (tpm.MOMENT_ORDERS,)
    assert np.allclose(moments, 0.0, atol=1e-12)
    assert variance == pytest.approx(0.0, abs=1e-12)


def test_work_moments_refuse_a_support_whose_highest_power_overflows():
    diagnostics = CollectionDiagnostics(
        cluster_tol=1e-12, min_gap=1.0, warnings=(), dropped_pairs=0, dropped_mass=0.0
    )
    for support in ([-1e100, 1.0], [1.0, 2e77], [-1.5e77, 0.0]):
        work = WorkDistribution(np.array(support), np.array([0.5, 0.5]), np.array([1, 3]),
                                diagnostics)
        largest = max(abs(value) for value in support)
        with pytest.raises(ValidationError, match=re.escape(f"|W| = {largest!r} overflow power 4")):
            work_moments(work)
    # the largest |W| whose 4th power is finite keeps its moments
    work = WorkDistribution(np.array([-1e77, 1e77]), np.array([0.5, 0.5]), np.array([1, 3]),
                            diagnostics)
    moments, variance = work_moments(work)
    assert np.array_equal(moments, [0.0, 1e77**2, 0.0, (1e77**2) ** 2]) and variance == 1e77**2


def test_first_moment_matches_trace_formula():
    # universal identity against the dephased-state trace formula; for
    # initial states commuting with the initial Hamiltonian the plain
    # trace formula agrees too
    rng = np.random.default_rng(71)
    for _ in range(20):
        setup = random_setup(rng, int(rng.integers(2, 13)))
        u = uncollected_distribution(setup)
        w = collect_work_distribution(u)
        check_first_moment(w, u)
        mean = work_moments(w)[0][0]
        measured = mean_work_direct(dephased(setup))
        scale = max(abs(measured), float(np.sum(np.abs(w.support) * w.probs)))
        assert abs(mean - measured) <= 1e-8 * scale


def test_first_moment_plain_trace_formula_for_commuting_states():
    rng = np.random.default_rng(73)
    for _ in range(10):
        dim = int(rng.integers(2, 13))
        setup = random_setup(rng, dim)
        di = diagonalize(setup.hi)
        setup = QuenchSetup(
            hi=setup.hi, hf=setup.hf, rho=thermal_state(di, 0.8), u=setup.u
        )
        w = collect_work_distribution(uncollected_distribution(setup))
        direct = mean_work_direct(setup)
        assert mean_work_direct(dephased(setup)) == pytest.approx(direct, abs=1e-12)
        mean = work_moments(w)[0][0]
        scale = max(abs(direct), float(np.sum(np.abs(w.support) * w.probs)))
        assert abs(mean - direct) <= 1e-8 * scale


def test_mean_work_direct_identity_is_zero():
    setup = lz_setup(-20.0, -20.0)
    assert mean_work_direct(setup) == pytest.approx(0.0, abs=1e-14)


def test_mean_work_zero_for_uniform_ground_state_switch_on():
    # the flat-chain ground state is uniform; the quasiperiodic potential
    # sums to zero around the ring, so the mean work vanishes
    for fib_index in [9, 12]:
        flat = aah_hamiltonian(AahParams(fib_index=fib_index, delta=0.0))
        di = diagonalize(flat)
        setup = QuenchSetup(
            hi=flat,
            hf=aah_hamiltonian(AahParams(fib_index=fib_index, delta=2.3)),
            rho=eigenstate_projector(di, 0),
        )
        assert abs(mean_work_direct(setup)) < 1e-12


def test_mean_work_positive_for_switch_off():
    # switching the potential off from its ground state always costs work:
    # the initial energy sits below the flat band minimum
    delta = 2.0
    params = AahParams(fib_index=10, delta=delta)
    modulated = aah_hamiltonian(params)
    di = diagonalize(modulated)
    flat = aah_hamiltonian(AahParams(fib_index=10, delta=0.0))
    setup = QuenchSetup(hi=modulated, hf=flat, rho=eigenstate_projector(di, 0))
    mean = mean_work_direct(setup)
    floor = -2.0 - float(di.eigenvalues[0])  # distance below the flat band edge
    assert mean > floor - 1e-12 > 0.0

    u = uncollected_distribution(setup)
    w = collect_work_distribution(u)
    assert work_moments(w)[0][0] == pytest.approx(mean, rel=1e-10)


def test_aah_ground_state_quench_support_bounds():
    # switch-off support strictly positive, switch-on support reaches both
    # signs, both capped by the shifted band edges
    fib_index, delta = 10, 2.0
    modulated = aah_hamiltonian(AahParams(fib_index=fib_index, delta=delta))
    flat = aah_hamiltonian(AahParams(fib_index=fib_index, delta=0.0))
    dm, dflat = diagonalize(modulated), diagonalize(flat)

    off = QuenchSetup(hi=modulated, hf=flat, rho=eigenstate_projector(dm, 0))
    w_off = collect_work_distribution(uncollected_distribution(off))
    assert float(w_off.support.min()) > 0.0

    on = QuenchSetup(hi=flat, hf=modulated, rho=eigenstate_projector(dflat, 0))
    w_on = collect_work_distribution(uncollected_distribution(on))
    assert float(w_on.support.min()) < 0.0
    assert float(w_on.support.max()) <= 4.0 + (float(dm.eigenvalues[-1]) - 2.0) + 1e-12


def test_aah_degeneracy_of_collected_values():
    # switch-off inherits the flat spectrum's double degeneracy; switch-on
    # from the unique ground state stays non-degenerate
    fib_index, delta = 9, 2.5
    modulated = aah_hamiltonian(AahParams(fib_index=fib_index, delta=delta))
    flat = aah_hamiltonian(AahParams(fib_index=fib_index, delta=0.0))
    dm, dflat = diagonalize(modulated), diagonalize(flat)

    off = QuenchSetup(hi=modulated, hf=flat, rho=eigenstate_projector(dm, 0))
    w_off = collect_work_distribution(uncollected_distribution(off))
    assert max_degeneracy(w_off) == 2

    on = QuenchSetup(hi=flat, hf=modulated, rho=eigenstate_projector(dflat, 0))
    w_on = collect_work_distribution(uncollected_distribution(on))
    assert max_degeneracy(w_on) == 1


def test_work_distribution_serialization():
    u = uncollected_distribution(lz_setup(-4.0, 4.0))
    w = collect_work_distribution(u)
    record = w.to_json_record()
    assert record["diagnostics"]["cluster_tol"] == w.diagnostics.cluster_tol
    assert len(record["support"]) == w.num_points
    assert record["support"] == [float(value) for value in w.support]
    assert all(type(m) is int for m in record["multiplicity"])
    assert sorted(record["diagnostics"]) == [
        "cluster_tol", "dropped_mass", "dropped_pairs", "min_gap", "warnings"
    ]


def test_single_level_system_pipeline():
    # dimension 1: zero spectral span exercises the tolerance fallback
    h = HermitianOperator(entries=np.array([[2.0]]))
    rho = DensityMatrix(entries=np.array([[1.0]]))
    setup = QuenchSetup(hi=h, hf=h, rho=rho)
    u = uncollected_distribution(setup)
    assert u.table.default_cluster_tol > 0
    w = collect_work_distribution(u)
    assert w.num_points == 1
    assert w.support[0] == 0.0
    assert w.probs[0] == 1.0


def test_setup_dimension_mismatch():
    hi = lz_hamiltonian(0.0)
    flat = aah_hamiltonian(AahParams(fib_index=5, delta=0.0))
    rho = thermal_state(diagonalize(hi), 1.0)
    with pytest.raises(ValidationError):
        QuenchSetup(hi=hi, hf=flat, rho=rho)


def test_random_mixed_state_pipeline():
    rng = np.random.default_rng(79)
    for _ in range(5):
        dim = 6
        setup = random_setup(rng, dim, with_unitary=True)
        rho = random_density(rng, dim, rank=3)
        setup = QuenchSetup(hi=setup.hi, hf=setup.hf, rho=rho, u=setup.u)
        u = uncollected_distribution(setup)
        w = collect_work_distribution(u)
        assert abs(float(w.probs.sum()) - 1.0) < 1e-12
        check_first_moment(w, u)
