"""The populations route against the density-matrix route.

States without coherence in the initial energy basis travel through a
quench as their populations p_n alone. These tests feed the same quench
once as populations (``StateSpec.build``) and once as the dense state
(the ``thermal_state`` / ``eigenstate_projector`` oracles of ``conftest``)
and require every reported number to agree.
"""

import math

import numpy as np
import pytest

from conftest import eigenstate_projector, mean_work_direct, thermal_state
from qworkstats import (
    AahParams,
    BoundsReport,
    DimensionMismatchError,
    QuenchSetup,
    StateSpec,
    ValidationError,
    WorkDistribution,
    aah_hamiltonian,
    collect_work_distribution,
    diagonalize,
    initial_populations,
    lz_hamiltonian,
    uncollected_distribution,
)
from qworkstats.experiments import _evaluate
from qworkstats.tpm import PairTable, check_first_moment

BETAS = (0.0, 0.01, 1.0, 100.0, math.inf)
SPECS = (
    StateSpec.ground(),
    StateSpec.eigenstate(1),
    StateSpec.eigenstate(3),
    *(StateSpec.thermal(beta) for beta in BETAS),
)


def dense_state(spec, initial):
    if spec.kind == "thermal":
        return thermal_state(initial, spec.beta)
    return eigenstate_projector(initial, spec.level)


def quenches():
    """(label, hi, hf) for both chain directions at fib 8-9, plus the two-level crossing."""
    for fib_index in (8, 9):
        flat = aah_hamiltonian(AahParams(fib_index=fib_index, delta=0.0))
        for delta in (1.5, 2.5):
            modulated = aah_hamiltonian(AahParams(fib_index=fib_index, delta=delta))
            yield f"fib{fib_index}-on-{delta}", flat, modulated
            yield f"fib{fib_index}-off-{delta}", modulated, flat
    for omega_f in (-0.5, 3.0):
        yield (
            f"lz-{omega_f}",
            lz_hamiltonian(-3.0),
            lz_hamiltonian(omega_f),
        )


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


QUENCHES = list(quenches())


@pytest.mark.parametrize("label,hi,hf", QUENCHES, ids=[q[0] for q in QUENCHES])
def test_populations_route_matches_density_matrix_route(label, hi, hf):
    initial = diagonalize(hi)
    table = PairTable(hi, hf, initial, diagonalize(hf))
    for spec in SPECS:
        if spec.kind == "eigenstate" and spec.level >= initial.dim:
            continue
        populations = QuenchSetup(hi=hi, hf=hf, rho=spec.build(initial))
        dense = QuenchSetup(hi=hi, hf=hf, rho=dense_state(spec, initial))
        fast = _evaluate(populations.rho, table, None)
        slow = _evaluate(initial_populations(dense.rho, initial), table, None)
        where = f"{label} {spec}"
        for name in BoundsReport.CSV_FIELDS:
            assert close(getattr(fast.report, name), getattr(slow.report, name)), (where, name)
        assert np.allclose(
            fast.report.per_level_coherence, slow.report.per_level_coherence, rtol=1e-12, atol=1e-12
        ), where
        assert np.allclose(fast.moments, slow.moments, rtol=1e-12, atol=1e-12), where
        assert close(fast.variance, slow.variance), where
        assert fast.gamma_max == slow.gamma_max, where
        # the population mean against the dense trace formula tr[(Hf - Hi) rho]
        assert close(fast.mean_direct, mean_work_direct(dense)), where
        assert close(fast.mean_direct, slow.mean_direct), where
        assert close(mean_work_direct(populations), fast.mean_direct), where


def test_first_moment_check_still_catches_a_shifted_support():
    fib_index = 9
    flat = aah_hamiltonian(AahParams(fib_index=fib_index, delta=0.0))
    modulated = aah_hamiltonian(AahParams(fib_index=fib_index, delta=2.5))
    for hi, hf, spec in (
        (flat, modulated, StateSpec.ground()),
        (modulated, flat, StateSpec.thermal(1.0)),
        (modulated, flat, StateSpec.eigenstate(4)),
    ):
        setup = QuenchSetup(hi=hi, hf=hf, rho=spec.build(diagonalize(hi)))
        uncollected = uncollected_distribution(setup)
        work = collect_work_distribution(uncollected)
        mean = check_first_moment(work, uncollected)
        assert mean_work_direct(setup) == pytest.approx(mean, abs=1e-12)
        shifted = WorkDistribution(
            support=work.support + 1e-4,
            probs=work.probs,
            multiplicity=work.multiplicity,
            diagnostics=work.diagnostics,
        )
        with pytest.raises(ValidationError, match="disagree"):
            check_first_moment(shifted, uncollected)


def test_population_states_are_validated():
    hi = lz_hamiltonian(-3.0)
    hf = lz_hamiltonian(2.0)
    setup = QuenchSetup(hi=hi, hf=hf, rho=[0.25, 0.75])
    assert not setup.rho.flags.writeable
    with pytest.raises(ValidationError, match="sum"):
        QuenchSetup(hi=hi, hf=hf, rho=[0.5, 0.6])
    with pytest.raises(ValidationError, match="nonnegative"):
        QuenchSetup(hi=hi, hf=hf, rho=[1.5, -0.5])
    with pytest.raises(ValidationError, match="finite"):
        QuenchSetup(hi=hi, hf=hf, rho=[math.nan, 1.0])
    with pytest.raises(ValidationError, match="vector"):
        QuenchSetup(hi=hi, hf=hf, rho=np.eye(2) / 2)
    with pytest.raises(DimensionMismatchError):
        QuenchSetup(hi=hi, hf=hf, rho=[0.2, 0.3, 0.5])
