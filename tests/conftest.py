"""Shared helpers for building randomized quantum objects in tests."""

from __future__ import annotations

import numpy as np

from qworkstats import (
    DensityMatrix,
    HermitianOperator,
    QuenchSetup,
    SpectralDecomposition,
    UnitaryMatrix,
)


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


def assert_decomposes(dec: SpectralDecomposition, source: HermitianOperator,
                      tol: float = 1e-10) -> None:
    """Orthonormal eigenvectors that rebuild ``source`` to ``tol`` of the spectral span."""
    v = dec.eigenvectors
    residual = float(np.max(np.abs(v.conj().T @ v - np.eye(dec.dim))))
    assert residual <= tol, f"eigenvectors not orthonormal: residual {residual:g}"
    rebuilt = (v * dec.eigenvalues) @ v.conj().T
    residual = float(np.max(np.abs(rebuilt - source.entries)))
    assert residual <= tol * dec.spectral_span, f"reconstruction residual {residual:g}"


def assert_positive(rho: DensityMatrix, tol: float = 1e-10) -> None:
    """No eigenvalue of ``rho`` below ``-tol``."""
    smallest = float(np.linalg.eigvalsh(rho.entries)[0])
    assert smallest >= -tol, f"density matrix has negative eigenvalue {smallest:g}"
