"""Dense Hermitian linear algebra for finite-dimensional quantum systems.

Eigendecompositions and the populations of Gibbs and eigenlevel states.
Everything works in units with hbar = 1; energies are carried in units of
the reference frequency fixed by each model (the gap for the two-level
crossing, the hopping for the lattice chain).

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroundStateError, EigensolverError, ValidationError

HERMITICITY_RTOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
TRACE_TOL = 1e-12
GROUND_DEGENERACY_RTOL = 1e-12
DIRECT_MIN_LEVELS = 128  # smaller real operators keep eigh: small GEMMs round by operand layout


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, copy=True)
    arr.setflags(write=False)
    return arr


def _check_square(entries: np.ndarray, what: str) -> None:
    """A nonempty square matrix of finite entries."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {entries.shape}")
    if entries.shape[0] < 1:
        raise ValidationError(f"{what} must have dimension >= 1")
    if not np.isfinite(entries).all():
        raise ValidationError(f"{what} has non-finite entries")


def _check_hermitian(entries: np.ndarray, what: str) -> None:
    """Exact equality first; only a matrix that fails it pays for the tolerance test."""
    if (entries == entries.conj().T).all():
        return
    deviation = np.abs(entries - entries.conj().T)
    scale = float(np.abs(entries).max())
    worst = float(deviation.max())
    if worst > HERMITICITY_RTOL * max(scale, 1e-300):
        i, j = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        raise ValidationError(
            f"{what} is not Hermitian: entry ({i},{j}) = {entries[i, j].item()!r} "
            f"but conj(({j},{i})) = {np.conj(entries[j, i]).item()!r}"
        )


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A finite-dimensional Hamiltonian or observable, kept read-only (a caller's array copied)."""

    entries: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.entries))

    def _own(self, entries: np.ndarray) -> HermitianOperator:
        _check_square(entries, "operator")
        _check_hermitian(entries, "operator")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        return self

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Sorted eigenvalues with matching orthonormal eigenvectors.

    Column k of ``eigenvectors`` is the eigenvector of ``eigenvalues[k]``.
    It keeps read-only copies of a caller's arrays, and LAPACK's own from ``diagonalize``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.eigenvalues, dtype=float), np.array(self.eigenvectors))

    def _own(self, evals: np.ndarray, vecs: np.ndarray) -> SpectralDecomposition:
        if evals.ndim != 1 or vecs.shape != (evals.size, evals.size):
            raise ValidationError(f"decomposition shapes mismatch: {evals.shape} vs {vecs.shape}")
        if not (np.isfinite(evals).all() and np.isfinite(vecs).all()):
            raise ValidationError("decomposition has non-finite entries")
        if not (evals[1:] >= evals[:-1]).all():
            raise ValidationError("eigenvalues must be non-decreasing")
        for name, arr in (("eigenvalues", evals), ("eigenvectors", vecs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        return self

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian with unit trace. Positivity is not checked:
    ``initial_populations`` clips the projected populations at zero, and
    ``UncollectedDistribution`` refuses any that do not sum to 1 within 1e-12."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        _check_square(entries, "density matrix")
        _check_hermitian(entries, "density matrix")
        trace = complex(entries.trace()).real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix trace {trace!r} differs from 1")
        object.__setattr__(self, "entries", _frozen_array(entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A unitary work protocol."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        _check_square(entries, "unitary")
        gram = entries.conj().T @ entries
        worst = float(np.abs(gram - np.eye(entries.shape[0])).max())
        if worst > ORTHONORMALITY_TOL:
            raise ValidationError(f"matrix is not unitary: |U^dag U - I| = {worst:g}")
        object.__setattr__(self, "entries", _frozen_array(entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@functools.cache
def openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, located on first use; ``None`` when numpy bundles none."""
    import glob  # here, so that no run start pays for it
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "*openblas*")))
    return ctypes.CDLL(paths[0]) if paths else None  # numpy has it loaded: this reuses its handle


@functools.cache
def _lapacke_dsyevd():
    """The bundled OpenBLAS's ILP64 ``LAPACKE_dsyevd``, or ``None`` when it has none."""
    routine = getattr(openblas(), "scipy_LAPACKE_dsyevd64_", None)
    if routine is not None:  # (layout, jobz, uplo) + (n, a) + (lda, w) -> info
        routine.restype = ctypes.c_int64
        routine.argtypes = ((ctypes.c_int, ctypes.c_char, ctypes.c_char)
                            + (ctypes.c_int64, ctypes.c_void_p) * 2)
    return routine


def diagonalize(operator: HermitianOperator | np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition with ascending eigenvalues.

    Each eigenvector keeps the phase LAPACK gives it: every output depends on the vectors only
    through the overlaps |<m_f|U|n_i>|^2. A large real operator keeps as its eigenvectors the
    Fortran-order copy that ``dsyevd`` overwrites (eigh copies them out). An array, checked as
    an operator's entries are, is given up: overwritten itself when writable and in Fortran order.
    """
    given = isinstance(operator, np.ndarray)
    entries = operator if given else operator.entries
    if given:
        _check_square(entries, "operator")
        _check_hermitian(entries, "operator")
    n = entries.shape[0]
    dsyevd = _lapacke_dsyevd() if entries.dtype == np.float64 and n >= DIRECT_MIN_LEVELS else None
    if dsyevd is None:
        try:
            evals, vecs = np.linalg.eigh(entries)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    else:
        vecs = np.require(entries, requirements="FAW") if given else np.array(entries, order="F")
        evals = np.empty(n)
        # column-major (LAPACK_COL_MAJOR = 102), from the lower triangle as eigh reads it
        info = dsyevd(102, b"V", b"L", n, vecs.ctypes.data, n, evals.ctypes.data)
        if info != 0:
            raise EigensolverError(f"eigensolver failed to converge: dsyevd info = {info}")
    return object.__new__(SpectralDecomposition)._own(evals, vecs)


def thermal_populations(decomposition: SpectralDecomposition, beta: float) -> np.ndarray:
    """Gibbs populations exp(-beta (E_n - E_0))/Z over the given eigenlevels.

    Shifting by the ground energy makes any beta >= 0 overflow-safe, once
    the spectrum's spread is refused unless finite. ``beta = math.inf`` puts
    all weight on the ground level, and raises if that level is degenerate.
    """
    if not (beta >= 0):
        raise ValidationError(f"inverse temperature must be >= 0, got {beta!r}")
    evals = decomposition.eigenvalues
    # In Python floats, so that an overflow gives inf without a warning.
    spread = float(evals[-1]) - float(evals[0])
    if not math.isfinite(spread):
        raise ValidationError(f"eigenvalues must have a finite spread; they span {spread!r}")
    if math.isinf(beta):
        if decomposition.dim > 1:
            gap = float(evals[1] - evals[0])
            if gap <= GROUND_DEGENERACY_RTOL * (spread if spread > 0 else 1.0):
                raise DegenerateGroundStateError(
                    "ground level is degenerate at beta = inf; select a level "
                    "explicitly with level_populations"
                )
        return level_populations(decomposition, 0)
    with np.errstate(over="ignore"):  # beta times a finite spread may pass 1e308: its weight is 0
        weights = np.exp(-beta * (evals - evals[0]))
    return weights / weights.sum()


def level_populations(decomposition: SpectralDecomposition, level: int) -> np.ndarray:
    """All weight on eigenlevel ``level``: the populations of its projector."""
    if not 0 <= level < decomposition.dim:
        raise ValidationError(
            f"level index {level} out of range for dimension {decomposition.dim}"
        )
    populations = np.zeros(decomposition.dim)
    populations[level] = 1.0
    return populations
