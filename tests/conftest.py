"""Shared helpers for building randomized quantum objects in tests, and the
oracles that check the library's routes.

The oracles are the density-matrix route of the coherence chain (dense
Gibbs and projector states, dephasing, the von Neumann entropy and the
relative entropy of coherence), a checked Shannon entropy, the
trace-formula mean work and two reference constants of the AAH ring. No
quench runs them: the library computes the chain from populations and
column entropies, whose checks it made once when it built them, and the
mean from its pair table. ``pair_table`` builds a table from arrays, and
``aah_quench`` the table of one AAH quench.
"""

from __future__ import annotations

import math

import numpy as np

from qworkstats import (
    AahParams,
    DensityMatrix,
    DimensionMismatchError,
    EigensolverError,
    HermitianOperator,
    QuenchSetup,
    SpectralDecomposition,
    UnitaryMatrix,
    ValidationError,
    diagonalize,
    level_populations,
    thermal_populations,
)
from qworkstats import experiments, models
from qworkstats.tpm import STOCHASTICITY_TOL, PairTable

PSD_TOL = 1e-10
PROBABILITY_TOL = 1e-12
NEGATIVE_PROB_TOL = 1e-12
NORMALIZATION_ERROR = 1e-6
# Eigenvalues below this are treated as exact zeros inside entropies, so the
# machine-epsilon negatives produced by diagonalization never reach log().
ENTROPY_EIGENVALUE_FLOOR = 1e-14

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# Numerically fitted curvature of the chain's spectrum edge: the extreme
# eigenvalues sit at +-(2 + coefficient * delta^2) hoppings for delta up to
# about four.
BAND_EDGE_COEFFICIENT = 0.146939


def random_hermitian(rng: np.random.Generator, dim: int, complex_entries: bool = True):
    a = rng.normal(size=(dim, dim))
    if complex_entries:
        a = a + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return HermitianOperator(entries=h)


def haar_unitary(rng: np.random.Generator, dim: int) -> UnitaryMatrix:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))[np.newaxis, :]
    return UnitaryMatrix(entries=q)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return DensityMatrix(entries=0.5 * (rho + rho.conj().T))


def random_setup(rng: np.random.Generator, dim: int, with_unitary: bool = True) -> QuenchSetup:
    u = haar_unitary(rng, dim) if with_unitary else None
    return QuenchSetup(
        hi=random_hermitian(rng, dim),
        hf=random_hermitian(rng, dim),
        rho=random_density(rng, dim, rank=rng.integers(1, dim + 1)),
        u=u,
    )


def pair_table(pmn, final_energies, initial_energies) -> PairTable:
    """A table of the transitions ``pmn[m, n]`` between the ascending spectra, copied.

    Asserts what a table of decompositions holds by construction: n x n
    transitions in [0, 1] whose columns sum to 1, and n levels each.
    """
    pmn, ef, ei = (np.array(a, dtype=float) for a in (pmn, final_energies, initial_energies))
    n = ef.size
    assert n >= 1 and pmn.shape == (n, n) and ei.shape == ef.shape == (n,), (pmn.shape, ei.shape)
    assert pmn.min() >= -PROBABILITY_TOL and pmn.max() <= 1 + PROBABILITY_TOL
    assert np.abs(pmn.sum(axis=0) - 1.0).max() <= STOCHASTICITY_TOL
    assert (ef[1:] >= ef[:-1]).all() and (ei[1:] >= ei[:-1]).all(), "spectra must be ascending"
    table = object.__new__(PairTable)
    table._own(pmn, ef, ei)
    return table


def aah_quench(params: AahParams, direction: str) -> PairTable:
    """The pair table of one AAH quench, with a flat chain diagonalized for it alone."""
    flat = diagonalize(models._ring(AahParams(fib_index=params.fib_index, delta=0.0)).T)
    return experiments._aah_quench(params, direction, flat)


def assert_decomposes(dec: SpectralDecomposition, source: HermitianOperator,
                      tol: float = 1e-10) -> None:
    """Orthonormal eigenvectors that rebuild ``source`` to ``tol`` of the spectral span."""
    v = dec.eigenvectors
    residual = float(np.max(np.abs(v.conj().T @ v - np.eye(dec.dim))))
    assert residual <= tol, f"eigenvectors not orthonormal: residual {residual:g}"
    rebuilt = (v * dec.eigenvalues) @ v.conj().T
    residual = float(np.max(np.abs(rebuilt - source.entries)))
    span = float(dec.eigenvalues[-1] - dec.eigenvalues[0])
    assert residual <= tol * (span if span > 0 else 1.0), f"reconstruction residual {residual:g}"


def assert_positive(rho: DensityMatrix, tol: float = 1e-10) -> None:
    """No eigenvalue of ``rho`` below ``-tol``."""
    smallest = float(np.linalg.eigvalsh(rho.entries)[0])
    assert smallest >= -tol, f"density matrix has negative eigenvalue {smallest:g}"


def thermal_state(decomposition: SpectralDecomposition, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z: ``thermal_populations`` as a dense matrix."""
    populations = thermal_populations(decomposition, beta)
    v = decomposition.eigenvectors
    rho = (v * populations) @ v.conj().T
    return DensityMatrix(entries=0.5 * (rho + rho.conj().T))


def eigenstate_projector(decomposition: SpectralDecomposition, level: int) -> DensityMatrix:
    """Rank-1 projector onto eigenlevel ``level``."""
    vec = decomposition.eigenvectors @ level_populations(decomposition, level)
    return DensityMatrix(entries=np.outer(vec, vec.conj()))


def dephase(rho: DensityMatrix, basis: SpectralDecomposition) -> DensityMatrix:
    """Remove all off-diagonal elements of ``rho`` in the given eigenbasis."""
    if rho.dim != basis.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} does not match basis dimension {basis.dim}"
        )
    v = basis.eigenvectors
    populations = (v.conj() * (rho.entries @ v)).sum(axis=0).real
    out = (v * populations) @ v.conj().T
    return DensityMatrix(entries=0.5 * (out + out.conj().T))


def shannon_entropy(probabilities: np.ndarray) -> float:
    """-sum p ln p with 0 ln 0 = 0, after clipping tiny negatives.

    Inputs whose total deviates from 1 by more than 1e-6 are rejected;
    smaller deviations are renormalized away.
    """
    p = np.asarray(probabilities, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError("empty probability vector")
    smallest = float(p.min())
    if smallest < -NEGATIVE_PROB_TOL:
        raise ValidationError(f"probability {smallest:g} below tolerated negative noise")
    p = np.maximum(p, 0.0)
    total = float(p.sum())
    if abs(total - 1.0) > NORMALIZATION_ERROR:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    q = p[p > 0.0] / total
    return 0.0 - float((q * np.log(q)).sum())  # +0.0, not -0.0, for a point mass


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention."""
    try:
        evals = np.linalg.eigvalsh(rho.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    if float(evals[0]) < -PSD_TOL:
        raise ValidationError(
            f"invalid density matrix: negative eigenvalue {float(evals[0]):g}"
        )
    p = evals[evals > ENTROPY_EIGENVALUE_FLOOR]
    return 0.0 - float((p * np.log(p)).sum())  # +0.0, not -0.0, for a pure state


def relative_entropy_of_coherence(
    sigma: DensityMatrix, basis: SpectralDecomposition
) -> float:
    """S(dephased sigma) - S(sigma) in the given basis, always >= 0."""
    return von_neumann_entropy(dephase(sigma, basis)) - von_neumann_entropy(sigma)


def _rotated_difference(setup: QuenchSetup) -> np.ndarray:
    """U^dag Hf U - Hi of a setup."""
    hf = setup.hf.entries
    if setup.u is not None:
        u = setup.u.entries
        hf = u.conj().T @ hf @ u
    return hf - setup.hi.entries


def mean_work_direct(setup: QuenchSetup) -> float:
    """<W> from the trace formula tr[(U^dag Hf U - Hi) rho].

    Evaluated without diagonalizing anything for a density matrix. A
    population state has no coherence in the initial energy basis, so there
    it is sum_n p_n <n_i|U^dag Hf U - Hi|n_i> over the levels with p_n > 0,
    on its own products rather than a pair table's. A sudden quench that
    changes only the diagonal scales the rows of the eigenvectors; the N^3
    product with the difference adds only exact zeros to those terms. Both
    sum a C-order array, so the two routes give the same bits, and so does
    ``PairTable.mean_work``.
    """
    if isinstance(setup.rho, DensityMatrix):
        return float(np.real(np.einsum("ij,ji->", _rotated_difference(setup), setup.rho.entries)))
    live = np.flatnonzero(setup.rho > 0.0)
    v = diagonalize(setup.hi).eigenvectors
    v = v[:, live[0] : live[-1] + 1] if live[-1] - live[0] + 1 == live.size else v[:, live]
    hf, hi = setup.hf.entries, setup.hi.entries
    d = hf.diagonal() - hi.diagonal()
    if setup.u is None and np.count_nonzero(hf != hi) == np.count_nonzero(d):
        product = np.multiply(d[:, np.newaxis], v, order="C")
    else:
        product = _rotated_difference(setup) @ v
    np.multiply(v.conj(), product, out=product)
    return float(product.sum(axis=0).real @ setup.rho[live])
