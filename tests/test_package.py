import ast
import dataclasses
import pathlib
import types

import pytest

import qworkstats

# The library API: every name the package exports, apart from its modules
# and dunders. Adding or removing one is a change to this list.
PUBLIC_NAMES = [
    "AahParams",
    "BoundViolationError",
    "BoundsReport",
    "ConfigError",
    "DELTA_TO_ZERO",
    "DegenerateGroundStateError",
    "DensityMatrix",
    "DimensionMismatchError",
    "EigensolverError",
    "FitResult",
    "HermitianOperator",
    "QuenchSetup",
    "ScalingResult",
    "SpectralDecomposition",
    "StateSpec",
    "SweepResult",
    "SweepRow",
    "UncollectedDistribution",
    "UnitaryMatrix",
    "ValidationError",
    "WorkDistribution",
    "ZERO_TO_DELTA",
    "aah_hamiltonian",
    "aah_transition_sweep",
    "aah_work_histogram",
    "bandwidth_fit",
    "bounds_report",
    "collect_work_distribution",
    "default_aah_grid",
    "default_lz_grid",
    "diagonalize",
    "effective_dimension",
    "eigenstate_coherence_map",
    "entropy_of_work",
    "fibonacci_pair",
    "initial_populations",
    "level_populations",
    "lz_hamiltonian",
    "lz_sweep",
    "max_degeneracy",
    "scaling_derivative",
    "thermal_populations",
    "transition_probabilities",
    "uncollected_distribution",
    "uncollected_entropy",
    "work_moments",
]


# The fields of the result types. A result holds only what it
# computed; the inputs that produced it belong to the caller.
RESULT_FIELDS = {
    "SweepRow": [
        "moments", "variance", "mean_direct", "report", "gamma_max",
        "normalized_moments", "flags",
    ],
    "SweepResult": ["axis", "rows"],
    "ScalingResult": ["sizes", "slopes", "fit_exponent", "fit_prefactor", "residuals"],
    "FitResult": ["coefficient", "residual_max", "band_edges"],
    # Its scalar fields, in this order, are the entropy columns of the CSV files.
    "BoundsReport": [
        "h_w", "h_u", "ln_gamma_max", "s_diag", "avg_coherence", "rec_rho_bar", "c_max",
        "eff_dim", "neg_log_eff_dim", "initial_is_ground", "per_level_coherence",
    ],
}


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name, value in vars(qworkstats).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_result_fields_are_pinned(name):
    cls = getattr(qworkstats, name)
    assert [field.name for field in dataclasses.fields(cls)] == RESULT_FIELDS[name]


def test_csv_fields_are_the_scalar_report_fields():
    assert qworkstats.BoundsReport.CSV_FIELDS == tuple(RESULT_FIELDS["BoundsReport"][:-1])


ROOT = pathlib.Path(__file__).resolve().parent.parent
# The program: the package's modules and the benchmark that drives them.
PROGRAM_FILES = [
    *(path for path in sorted((ROOT / "src" / "qworkstats").glob("*.py"))
      if path.name != "__init__.py"),
    *sorted((ROOT / "benchmark").glob("*.py")),
]


def _references(node, inside=frozenset()):
    """Names loaded and attributes read under ``node``, outside the definitions
    of the same name (its own body does not count as a use)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    found -= inside
    for child in ast.iter_child_nodes(node):
        found |= _references(child, inside)
    return found


def _public_definitions(path):
    """The public names that the module at ``path`` defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_is_used_by_the_program():
    # a name that only the tests read is a test oracle, and belongs in the tests
    used = set()
    for path in PROGRAM_FILES:
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    unused = {
        f"{path.stem}.{name}"
        for path in sorted((ROOT / "src" / "qworkstats").glob("*.py"))
        for name in _public_definitions(path) - used
    }
    assert sorted(unused) == []
