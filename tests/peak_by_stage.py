"""Peak memory by stage of one benchmark workload, run in this process.

    PYTHONPATH=src python tests/peak_by_stage.py thermal_sweep [--seed 0] [--no-tracemalloc]

Runs the workload's inputs for the seed (``benchmark/workloads.py``, read
only) through its timed call, with the stages below wrapped wherever the
program binds them. After each call of a stage it prints one line: the
process's peak RSS so far (``ru_maxrss``) and, unless ``--no-tracemalloc``,
the memory tracemalloc holds and the traced peak since the line before, all
in MB. tracemalloc's own records raise the RSS a little; read the RSS
figures of a run without it. The CLI workloads run ``cli.main``, so its
allocator policy is in force. This is a probe to run by hand; pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import functools
import os
import resource
import sys
import tempfile
import threading
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from qworkstats import cli, experiments, infotheory, models, spectral, tpm  # noqa: E402

STAGES = ("diagonalize", "transition_probabilities", "_cluster_ids",
          "collect_work_distribution", "uncollected_entropy", "bounds_report")
MB = 1024.0 * 1024.0
_lock = threading.Lock()


def _report(name: str, traced: bool) -> None:
    line = f"{name:<26} rss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB:8.1f}"
    if traced:
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        line += f"  held {held / MB:8.1f}  peak {peak / MB:8.1f}"
    print(line, flush=True)


def _wrap_stages(traced: bool) -> None:
    """Rebind each stage, in every module that binds it, to a call that reports after it."""
    for name in STAGES:
        real = getattr(tpm, name, None) or getattr(infotheory, name, None) or getattr(spectral, name)

        @functools.wraps(real)
        def wrapper(*args, _real=real, _name=name, **kwargs):
            result = _real(*args, **kwargs)
            with _lock:
                _report(_name, traced)
            return result

        for module in (cli, experiments, infotheory, models, spectral, tpm):
            if getattr(module, name, None) is real:
                setattr(module, name, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--no-tracemalloc", dest="traced", action="store_false")
    parser.add_argument("--out", help="directory for the outputs (default: a new temporary one); "
                        "its length moves the heap layout, so match a run you compare with")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as scratch:
        inputs = workload.prepare(args.seed, args.out or scratch)
        _wrap_stages(args.traced)
        _report("start", False)
        if args.traced:
            tracemalloc.start()
        workload.execute(inputs, None)
        _report("end", args.traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
