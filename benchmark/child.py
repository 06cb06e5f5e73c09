"""One call of a benchmark workload in a fresh interpreter; started by run.py.

``child.py probe`` imports the program and prints the CLOCK_MONOTONIC time
at which it became ready for its first call. ``child.py call ...`` then
prepares one workload's inputs, runs one timed call, traced or not, checks
the outputs and writes its measurements as JSON to ``--result``.

Exit status 2 means the benchmark cannot measure this checkout: the
program imported is not the checkout's own, or the tracer missed a
binding of a layer function.
"""

import time

import qworkstats.cli  # the CLI imports every module of the program

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def _program_env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "pool_workers": qworkstats.cli.RunConfig(subcommand="aah-sweep").workers,
    }


def _call(args) -> int:
    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, os.path.join(args.out, "outputs"))
    tracer = Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    root = tracer.begin("bench.call") if tracer else None
    try:
        outcome = workload.execute(inputs, tracer)
    except Exception as exc:  # counted as a failed call, reported below
        outcome = exc
    finally:
        if tracer:
            tracer.end(root)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    if isinstance(outcome, Exception):
        failed, messages = workload.quenches, [f"call raised {type(outcome).__name__}: {outcome}"]
    else:
        try:
            table, messages = workload.extract(inputs, outcome)
            failed, messages = check(workload, args.seed, table, messages)
        except Exception as exc:  # unreadable output: every quench of the call failed
            failed, messages = workload.quenches, [f"{type(exc).__name__}: {exc}"]

    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "quenches": workload.quenches,
        "failed": failed,
        "messages": messages[:20],
        "env": _program_env(),
        "traced": bool(tracer),
    }
    status = 0
    if tracer:
        with open(os.path.join(args.out, "spans.json"), "w") as stream:
            json.dump(tracer.records(), stream)
        fired = {span[1] for span in tracer.spans}
        result["layers"] = per_layer(tracer.spans, workload.quenches)
        result["not_called"] = [name for name in workload.expected_spans if name not in fired]
        result["absent"] = tracer.absent
        result["stray"] = tracer.stray_references()
        if result["stray"]:
            status = 2
    with open(args.result, "w") as stream:
        json.dump(result, stream)
    return status


def main(argv: list[str]) -> int:
    program = os.path.dirname(os.path.realpath(qworkstats.cli.__file__))
    if program != os.path.join(ROOT, "src", "qworkstats"):
        print(f"imported qworkstats from {program}, not from this checkout", file=sys.stderr)
        return 2
    if argv[:1] == ["probe"]:
        print(f"ready {READY!r}")
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("call",))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for this call's files")
    parser.add_argument("--result", required=True)
    parser.add_argument("--run-id", dest="run_id", required=True)
    return _call(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
