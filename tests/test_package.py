import ast
import dataclasses
import pathlib
import re
import types

import pytest

import qworkstats
from qworkstats import cli

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


def test_the_cli_reads_no_private_name_of_another_module():
    # the front end runs the library through its public names, so a driver
    # that the CLI needs is one that library users can call too
    package = ROOT / "src" / "qworkstats"
    modules = {path.stem for path in package.glob("*.py")} - {"cli", "__init__"}
    tree = ast.parse((package / "cli.py").read_text())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            read |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            read.add(f"{node.value.id}.{node.attr}")
    private = [name for name in sorted(read) if re.search(r"\._(?!_)", name)]
    assert private == []


def _callers(node, callee, scope=()):
    """The dotted scope of each call of ``callee`` under ``node``, by plain or module name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = (*scope, node.name)
    found = []
    if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None),
                                                 getattr(node.func, "attr", None)):
        found.append(".".join(scope))
    for child in ast.iter_child_nodes(node):
        found += _callers(child, callee, scope)
    return found


def test_only_a_work_distribution_builds_its_collection_diagnostics():
    # the smallest gap and its warning are derived from the support kept, in one place,
    # so that no second derivation can disagree with it
    sites = [
        f"{path.stem}.{scope}"
        for path in sorted((ROOT / "src" / "qworkstats").glob("*.py"))
        for scope in _callers(ast.parse(path.read_text(), filename=str(path)),
                              "CollectionDiagnostics")
    ]
    assert sites == ["tpm.WorkDistribution._own"]


def test_the_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out


def test_the_readme_flag_table_matches_the_parser():
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    flag = re.compile(r"`(--[a-z-]+)`")
    (sentence,) = re.findall(r"Every subcommand takes\s(.*?)\.\s", section, re.DOTALL)
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    header, rows = rows[0], rows[2:]
    assert header[-1] == "`--cluster-tol`"
    documented = {}
    for cells in rows:
        flags = set(flag.findall(sentence)) | set(flag.findall(" ".join(cells[1:-1])))
        if cells[header.index("Grid")].startswith("yes"):
            flags |= {"--grid-start", "--grid-stop", "--grid-points", "--grid-values"}
        if cells[-1].startswith("yes"):
            flags.add("--cluster-tol")
        documented[cells[0].strip("`")] = flags
    commands = next(action for action in cli._build_parser()._actions
                    if action.choices and not action.option_strings)
    parsed = {name: {option for action in command._actions for option in action.option_strings}
              - {"-h", "--help"} for name, command in commands.choices.items()}
    assert documented == parsed
