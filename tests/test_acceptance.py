"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single pass line with the measured numbers (visible
with ``pytest -s``), and the test name carries the criterion number, so a
plain ``pytest -v`` run shows one pass/fail line per criterion.

The full-size finite-size-scaling profile (sizes up to 987 with 50 phase
samples) is expensive; it runs only when QWORKSTATS_ACCEPTANCE_FULL=1 is
set. The reduced profile always runs.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import BAND_EDGE_COEFFICIENT, random_setup
from qworkstats import (
    AahParams,
    DELTA_TO_ZERO,
    ZERO_TO_DELTA,
    StateSpec,
    aah_transition_sweep,
    aah_work_histogram,
    bandwidth_fit,
    bounds_report,
    collect_work_distribution,
    default_aah_grid,
    default_lz_grid,
    lz_sweep,
    scaling_derivative,
    uncollected_distribution,
)
from qworkstats.cli import main as cli_main

SLACK = 1e-10
N987 = 16  # Fibonacci index of the production lattice size
HIST_DELTAS = (1.5, 2.0, 2.5, 3.0)


def edge_excess(delta: float) -> float:
    return BAND_EDGE_COEFFICIENT * delta * delta


@pytest.fixture(scope="module")
def random_suite():
    """>= 10^3 randomized setups: qubits plus dimensions up to 13."""
    rng = np.random.default_rng(20250801)
    started = time.perf_counter()
    entries = []
    for index in range(1000):
        dim = 2 if index < 400 else int(rng.integers(2, 14))
        setup = random_setup(rng, dim, with_unitary=bool(rng.integers(2)))
        uncollected = uncollected_distribution(setup)
        work = collect_work_distribution(uncollected)
        report = bounds_report(setup, work, uncollected)
        entries.append((setup, work, uncollected, report))
    return entries, time.perf_counter() - started


@pytest.fixture(scope="module")
def z2d_default_sweep():
    """Ground-state switch-on sweep over the default grid at N = 987."""
    return aah_transition_sweep(
        N987, default_aah_grid(), ZERO_TO_DELTA, state=StateSpec.ground(), workers=2
    )


@pytest.fixture(scope="module")
def d2z_rows():
    """Ground-state switch-off rows at the histogram potentials, N = 987."""
    return aah_transition_sweep(
        N987, np.array(HIST_DELTAS), DELTA_TO_ZERO, state=StateSpec.ground(), workers=2
    )


def test_criterion_01_normalization_and_bound_chain(random_suite):
    entries, elapsed = random_suite
    assert len(entries) >= 1000
    for _, work, _, report in entries:
        assert abs(float(work.probs.sum()) - 1.0) <= 1e-12
        assert report.h_w <= report.h_u + SLACK
        assert report.h_u - report.ln_gamma_max <= report.h_w + SLACK
        assert abs(report.h_u - (report.s_diag + report.avg_coherence)) <= SLACK
        assert report.h_u <= 2.0 * report.s_diag + report.rec_rho_bar + SLACK
        assert report.h_w <= report.s_diag + report.c_max + SLACK
        if report.initial_is_ground:
            assert report.h_u >= report.neg_log_eff_dim - SLACK
    assert elapsed < 30.0
    print(f"\n[criterion 1] PASS: {len(entries)} setups, bound chain held, {elapsed:.1f}s")


def test_criterion_02_decomposition_identity(random_suite):
    entries, _ = random_suite
    worst = max(
        abs(report.h_u - (report.s_diag + report.avg_coherence))
        for _, _, _, report in entries
    )
    assert worst <= SLACK
    print(f"\n[criterion 2] PASS: decomposition identity worst deviation {worst:.2e}")


def test_criterion_03_lz_reproduction():
    started = time.perf_counter()
    grid = default_lz_grid()
    step = float(grid[1] - grid[0])
    result = lz_sweep(omega_i=-20.0, omega_f_grid=grid, beta=0.1)
    elapsed = time.perf_counter() - started

    window = np.abs(grid) < 5.0
    for order in range(4):
        values = np.array([row.moments[order] for row in result.rows])[window]
        signs = np.sign(np.diff(values))
        assert np.all(signs != 0)
        assert np.all(signs == signs[0])  # monotone: no interior extremum

    h_w = result.column("h_w")
    peak = float(grid[int(np.argmax(h_w))])
    assert abs(peak) <= step + 1e-12

    gap = np.array(
        [2.0 * row.report.s_diag + row.report.rec_rho_bar - row.report.h_u
         for row in result.rows]
    )
    tightest = float(grid[int(np.argmin(gap))])
    assert abs(tightest) <= 1.0

    assert elapsed < 5.0
    print(
        f"\n[criterion 3] PASS: moments monotone in |w|<5, H_W peak at {peak:+.2f}, "
        f"bound tightest at {tightest:+.2f}, {elapsed:.1f}s"
    )


def test_criterion_04_aah_histograms():
    started = time.perf_counter()
    for delta in HIST_DELTAS:
        params = AahParams(fib_index=N987, delta=delta)
        excess = edge_excess(delta)

        off = aah_work_histogram(params, DELTA_TO_ZERO)
        low = float(off.support.min())
        high = float(off.support.max())
        assert low > 0.0
        if delta <= 3.0:
            assert 0.9 * excess <= low <= 1.1 * excess
        assert high <= 4.0 + 1.1 * excess

        on = aah_work_histogram(params, ZERO_TO_DELTA)
        assert float(on.support.min()) >= -1.1 * excess
        assert float(on.support.min()) < 0.0
        assert float(on.support.max()) <= 4.0 + 1.1 * excess
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"\n[criterion 4] PASS: support windows at N=987 for deltas {HIST_DELTAS}, "
          f"{elapsed:.0f}s")


def test_criterion_05_mean_work_identities(z2d_default_sweep):
    worst_mean = 0.0
    worst_gap = 0.0
    for row in z2d_default_sweep.rows:
        worst_mean = max(worst_mean, abs(row.mean_direct), abs(float(row.moments[0])))
        scale = max(abs(row.mean_direct), 1e-300)
        worst_gap = max(worst_gap, abs(float(row.moments[0]) - row.mean_direct))
    assert worst_mean <= 1e-10
    # the sweep itself enforces the trace-formula agreement row by row at
    # 1e-8 relative (it raises otherwise); record the absolute spread
    print(
        f"\n[criterion 5] PASS: |<W>| <= {worst_mean:.2e} on the default grid, "
        f"distribution-vs-trace spread {worst_gap:.2e}"
    )


def test_criterion_06_localization_jump(z2d_default_sweep, d2z_rows):
    grid = z2d_default_sweep.axis
    h_w = z2d_default_sweep.column("h_w")
    low = float(h_w[int(np.argmin(np.abs(grid - 1.5)))])
    high = float(h_w[int(np.argmin(np.abs(grid - 2.5)))])
    jump_on = high - low
    assert jump_on > 1.0

    d2z_h = d2z_rows.column("h_w")
    jump_off = float(d2z_h[2] - d2z_h[0])  # 2.5 vs 1.5
    assert jump_off > 1.0
    print(f"\n[criterion 6] PASS: H_W jump across 2J: switch-on {jump_on:.2f} nats, "
          f"switch-off {jump_off:.2f} nats")


def test_criterion_07_finite_size_scaling():
    started = time.perf_counter()
    reduced = scaling_derivative(range(8, 13), eta_samples=10, seed=12345, workers=2)
    elapsed = time.perf_counter() - started
    assert 0.3 <= reduced.fit_exponent <= 0.7
    assert elapsed < 120.0
    line = (f"[criterion 7] PASS: reduced profile exponent {reduced.fit_exponent:.3f} "
            f"in [0.3, 0.7], {elapsed:.0f}s")
    if os.environ.get("QWORKSTATS_ACCEPTANCE_FULL") == "1":
        started = time.perf_counter()
        full = scaling_derivative(range(10, 17), eta_samples=50, seed=12345, workers=2)
        full_elapsed = time.perf_counter() - started
        assert 0.35 <= full.fit_exponent <= 0.65
        assert full_elapsed < 1200.0
        line += (f"; full profile exponent {full.fit_exponent:.3f} in [0.35, 0.65], "
                 f"{full_elapsed:.0f}s")
    print("\n" + line)


def test_criterion_08_bandwidth_fit():
    result = bandwidth_fit(
        N987, np.linspace(0.25, 4.0, 16), eta_samples=10, seed=12345, workers=2
    )
    relative = abs(result.coefficient - BAND_EDGE_COEFFICIENT) / BAND_EDGE_COEFFICIENT
    assert relative <= 0.02
    print(
        f"\n[criterion 8] PASS: fitted coefficient {result.coefficient:.6f} within "
        f"{100 * relative:.2f}% of {BAND_EDGE_COEFFICIENT}"
    )


def test_criterion_09_degeneracy_bracketing(z2d_default_sweep, d2z_rows):
    ln2 = math.log(2.0)
    for row in d2z_rows.rows:
        assert row.gamma_max == 2
        assert row.report.h_u - ln2 - SLACK <= row.report.h_w <= row.report.h_u + SLACK

    grid = z2d_default_sweep.axis
    worst = 0.0
    for delta in HIST_DELTAS:
        row = z2d_default_sweep.rows[int(np.argmin(np.abs(grid - delta)))]
        worst = max(worst, abs(row.report.h_w - row.report.h_u))
    assert worst <= SLACK
    print(
        f"\n[criterion 9] PASS: switch-off bracketed with gamma_max=2; switch-on "
        f"|H_W - H_u| <= {worst:.2e}"
    )


def test_criterion_10_thermal_behaviour():
    betas = (1e-2, 1.0, 1e2, 1e4)  # descending temperature
    deltas = np.array([1.5, 2.0, 2.5])
    curves = []
    for beta in betas:
        sweep = aah_transition_sweep(
            N987, deltas, ZERO_TO_DELTA, state=StateSpec.thermal(beta), workers=2
        )
        curves.append(sweep.column("h_w"))
    for hotter, colder in zip(curves, curves[1:]):
        assert np.all(hotter >= colder - 1e-8)  # entropy grows with temperature
    for beta, curve in zip(betas, curves):
        assert curve[2] - curve[0] > 1.0
    print(
        "\n[criterion 10] PASS: thermal H_W curves ordered in temperature and each "
        f"jumps by {[round(float(c[2] - c[0]), 2) for c in curves]} nats"
    )


def test_criterion_11_determinism(tmp_path):
    args = [
        "aah-sweep",
        "--fib-index", "10",
        "--grid-values", "1.5,2.0,2.5",
        "--seed", "31415",
        "--threads", "2",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    compared = 0
    for name in sorted(os.listdir(out_a)):
        if name.endswith(".csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            compared += 1
    assert compared >= 2
    print(f"\n[criterion 11] PASS: {compared} CSV files byte-identical across reruns")
