"""The benchmark's tracer still sees every layer function of the program.

``benchmark/spans.py`` times each layer by rebinding its public functions
in every ``qworkstats`` module; a binding it misses (a function held in a
default argument, a table or a closure) makes a traced benchmark call
unmeasurable. The tracer rebinds module globals for good, so it runs in a
child interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import json
import sys

import numpy as np

import qworkstats.cli
from qworkstats import cli, infotheory, spectral, tpm
from spans import Tracer

tracer = Tracer("tier-1")
tracer.install()
common = ["--fib-index", "9", "--threads", "2"]
statuses = [
    cli.main(["aah-sweep", "--out", sys.argv[1] + "/sweep", "--grid-points", "3", *common]),
    cli.main(["thermal-sweep", "--out", sys.argv[1] + "/thermal", "--grid-values", "1.5,2.5",
              *common]),
]
cli_fired = sorted({span[1] for span in tracer.spans})
rng = np.random.default_rng(11)
for dim in (2, 3, 5):
    hi, hf, rho = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3))
    rho = rho @ rho.conj().T
    setup = tpm.QuenchSetup(
        hi=spectral.HermitianOperator(entries=0.5 * (hi + hi.conj().T)),
        hf=spectral.HermitianOperator(entries=0.5 * (hf + hf.conj().T)),
        rho=spectral.DensityMatrix(entries=rho / np.trace(rho).real),
    )
    uncollected = tpm.uncollected_distribution(setup)
    work = tpm.collect_work_distribution(uncollected)
    infotheory.bounds_report(setup, work, uncollected)
print(json.dumps({
    "statuses": statuses,
    "stray": tracer.stray_references(),
    "fired": sorted({span[1] for span in tracer.spans}),
    "cli_fired": cli_fired,
    "absent": tracer.absent,
}))
"""


def test_traced_runs_leave_no_unwrapped_layer_function(tmp_path):
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["statuses"] == [0, 0]
    assert result["stray"] == []
    # aah-sweep writes moments, so the moments layer fires (thermal-sweep skips it)
    assert {"tpm.collect", "tpm.check_first_moment", "tpm.transition_probabilities",
            "tpm.work_moments", "infotheory.bounds_report",
            "experiments.point"} <= set(result["fired"])
    # the sweeps' bound chains are timed as such, not only the library setups' below
    assert "infotheory.bounds_report" in result["cli_fired"]
    # names the tracer looks up that the library no longer defines
    assert set(result["absent"]) == {
        "qworkstats.spectral.basis_populations", "qworkstats.spectral.thermal_state",
        "qworkstats.spectral.eigenstate_projector", "qworkstats.spectral.dephase",
        "qworkstats.tpm.mean_work_direct",
    }
