"""Two-point-measurement work statistics for quenched finite quantum systems.

Builds discrete work distributions from projective energy measurements
around a unitary protocol, evaluates the Shannon entropy of work, and
checks the full chain of coherence-based bounds on it. Ships drivers for
a two-level avoided crossing and the Aubry-Andre-Harper chain across its
localization transition.
"""

__version__ = "0.1.0"

from .errors import (
    BoundViolationError,
    ConfigError,
    DegenerateGroundStateError,
    DimensionMismatchError,
    EigensolverError,
    ValidationError,
)
from .spectral import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryMatrix,
    diagonalize,
    level_populations,
    thermal_populations,
)
from .models import AahParams, aah_hamiltonian, fibonacci_pair, lz_hamiltonian
from .tpm import (
    QuenchSetup,
    UncollectedDistribution,
    WorkDistribution,
    collect_work_distribution,
    max_degeneracy,
    transition_probabilities,
    initial_populations,
    uncollected_distribution,
    work_moments,
)
from .infotheory import (
    BoundsReport,
    bounds_report,
    effective_dimension,
    entropy_of_work,
    uncollected_entropy,
)
from .experiments import (
    DELTA_TO_ZERO,
    ZERO_TO_DELTA,
    FitResult,
    ScalingResult,
    StateSpec,
    SweepResult,
    SweepRow,
    aah_transition_sweep,
    aah_work_histogram,
    bandwidth_fit,
    default_aah_grid,
    default_lz_grid,
    eigenstate_coherence_map,
    lz_sweep,
    scaling_derivative,
)
