"""Model Hamiltonians: the two-level avoided crossing and the
Aubry-Andre-Harper (AAH) quasiperiodic chain.

Two-level model: H = sigma_x + omega * sigma_z at detuning omega, energies
in units of hbar * Delta, the coupling Delta * sigma_x that opens the gap.

AAH chain: N = F_n sites on a ring, on-site potential
delta * cos(2 pi gamma i + eta) with gamma = F_{n-1}/F_n, hopping -1 on the
cyclic nearest-neighbour bonds. Energies are in units of the hopping J, so
``delta`` is the ratio V/J of potential to hopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import HermitianOperator
from .tpm import MAX_PAIRS


def lz_hamiltonian(omega: float) -> HermitianOperator:
    """2x2 matrix sigma_x + omega*sigma_z; eigenvalues -+sqrt(omega^2+1)."""
    if not math.isfinite(omega):
        raise ValidationError(f"detuning must be finite, got {omega!r}")
    return HermitianOperator(entries=np.array([[omega, 1.0], [1.0, -omega]], dtype=float))


def fibonacci_pair(n: int) -> tuple[int, int]:
    """(F_{n-1}, F_n) for the sequence F_1 = F_2 = 1.

    n >= 3 puts F_{n-1}/F_n strictly inside (0, 1). A ring of F_n levels must
    fit a pair table, so a huge n is refused within the loop's first steps.
    """
    if n < 3:
        raise ValidationError(f"Fibonacci index must be >= 3, got {n}")
    prev, cur = 1, 1
    for _ in range(n - 2):
        prev, cur = cur, prev + cur
        if cur * cur > MAX_PAIRS:
            raise ValidationError(f"Fibonacci index {n} gives more than {MAX_PAIRS} level pairs")
    return prev, cur


@dataclass(frozen=True)
class AahParams:
    """AAH chain parameters.

    ``fib_index`` fixes the ring size N = F_n and the rational modulation
    gamma = F_{n-1}/F_n, a best approximant of the inverse golden ratio.
    ``delta`` is the potential amplitude in hoppings;
    ``eta`` is the potential phase in [0, 2 pi).
    """

    fib_index: int
    delta: float
    eta: float = 1.2

    def __post_init__(self):
        prev, cur = fibonacci_pair(self.fib_index)
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise ValidationError(f"potential ratio must be >= 0, got {self.delta!r}")
        if not (0.0 <= self.eta < 2.0 * math.pi):
            raise ValidationError(f"phase must lie in [0, 2 pi), got {self.eta!r}")
        object.__setattr__(self, "_fib_pair", (prev, cur))

    @property
    def size(self) -> int:
        return self._fib_pair[1]

    @property
    def gamma(self) -> float:
        prev, cur = self._fib_pair
        return prev / cur


def _onsite_energies(params: AahParams) -> np.ndarray:
    """The diagonal of ``aah_hamiltonian(params)``, bit for bit (signed zeros at zero potential)."""
    sites = np.arange(1, params.size + 1, dtype=float)
    return params.delta * np.cos(2.0 * np.pi * params.gamma * sites + params.eta)


def _ring(params: AahParams) -> np.ndarray:
    """The entries of ``aah_hamiltonian(params)`` in a new, exactly symmetric C-order array."""
    n = params.size
    h = np.diag(_onsite_energies(params))
    idx = np.arange(n)
    h[idx, (idx + 1) % n] -= 1.0
    h[(idx + 1) % n, idx] -= 1.0
    return h


def aah_hamiltonian(params: AahParams) -> HermitianOperator:
    """Real symmetric N x N ring Hamiltonian with quasiperiodic on-site terms.

    The site index in the cosine runs 1..N and the hopping wraps around
    (periodic boundary conditions), so row i holds the on-site energy plus
    the two cyclic bonds.
    """
    return object.__new__(HermitianOperator)._own(_ring(params))  # kept without a copy
