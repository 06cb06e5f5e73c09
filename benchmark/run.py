"""qworkstats benchmark: quench throughput on N=987 sweeps and the random suite.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it reads and writes only inside it, under
``.bench_out/``. Every timed call is a fresh interpreter (``child.py``),
so the program's caches and numpy's warm-up never carry over, and the
program runs with its own default threading: ``OPENBLAS_*``, ``OMP_*``
and ``MKL_*`` variables are removed from the children's environment.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (quenches) and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60.0
# Every call must end this long after the run started, so that the whole
# run, reporting included, ends within three minutes.
RUN_DEADLINE_S = 165.0
THREAD_VARIABLE_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_")

class BenchmarkError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


def _metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child_env() -> tuple[dict, dict]:
    env = dict(os.environ)
    seen = {k: env.pop(k) for k in sorted(os.environ) if k.startswith(THREAD_VARIABLE_PREFIXES)}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, seen


def _run_child(argv: list[str], env: dict, log_path: str, timeout: float) -> tuple[int | None, float]:
    """Run one child to completion; returns (exit status or None on timeout, spawn time)."""
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        process = subprocess.Popen([sys.executable, CHILD, *argv], cwd=ROOT, env=env,
                                   stdout=log, stderr=log)
        try:
            process.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None, spawned
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    return process.returncode, spawned


def _setup_seconds(env: dict, out: str) -> list[float]:
    """Interpreter start to program ready, for SETUP_PROBES fresh interpreters.

    One untimed probe first fills the bytecode and file caches, which a
    user pays once per install, not once per run.
    """
    samples = []
    for index in range(SETUP_PROBES + 1):
        log_path = os.path.join(out, f"probe-{index}.log")
        status, spawned = _run_child(["probe"], env, log_path, PROBE_TIMEOUT_S)
        with open(log_path) as log:
            text = log.read()
        ready = [line[6:] for line in text.splitlines() if line.startswith("ready ")]
        if status != 0 or not ready:
            raise BenchmarkError(f"setup probe failed (status {status}): {text[-2000:]}")
        if index:
            samples.append(float(ready[-1]) - spawned)
    return samples


def _git_sha() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as stream:
        head = stream.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as stream:
            return stream.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as stream:
            for line in stream:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _src_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qworkstats")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as stream:
                digest.update(stream.read())
    return digest.hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _bytes_written(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "qworkstats", "__init__.py")):
        raise BenchmarkError(f"no program source at {os.path.join(ROOT, 'src', 'qworkstats')}")
    workload = WORKLOADS[workload_name]
    end_to_end_units, per_layer_units = _metric_units()
    out = os.path.join(OUT_ROOT, f"{workload_name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env, seen = _child_env()

    setup = _setup_seconds(env, out)
    calls = []
    window_start = time.monotonic()
    longest = 0.0
    # Trace runs alternate untraced and traced calls, for the overhead ratio.
    min_calls = 2 if trace else 1
    while len(calls) < min_calls or time.monotonic() - window_start + longest <= seconds:
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        if remaining <= 1.0:
            break
        index = len(calls)
        traced = trace and index % 2 == 1
        call_dir = os.path.join(out, f"call-{index}")
        result_path = os.path.join(call_dir, "result.json")
        os.makedirs(call_dir)
        began = time.monotonic()
        status, spawned = _run_child(
            ["call", "--workload", workload_name, "--seed", str(seed), "--trace", str(int(traced)),
             "--out", call_dir, "--result", result_path, "--run-id", f"{workload_name}-{seed}-{index}"],
            env, os.path.join(call_dir, "child.log"), remaining,
        )
        longest = max(longest, time.monotonic() - began)
        if status == 2:
            detail = ""
            if os.path.isfile(result_path):
                with open(result_path) as stream:
                    detail = "; ".join(json.load(stream).get("stray", []))
            with open(os.path.join(call_dir, "child.log")) as log:
                raise BenchmarkError(f"call {index} cannot be measured: {detail} {log.read()[-2000:]}")
        if status == 0:
            with open(result_path) as stream:
                result = json.load(stream)
            setup.append(result["ready"] - spawned)
            result["bytes_written"] = _bytes_written(os.path.join(call_dir, "outputs"))
        else:
            reason = "timed out" if status is None else f"exited with status {status}"
            result = {"quenches": workload.quenches, "failed": workload.quenches,
                      "messages": [f"call {reason}"], "traced": traced}
        calls.append(result)

    completed = [c for c in calls if "wall_s" in c]
    untraced = [c for c in completed if not c["traced"]]
    rates = [(c["quenches"] - c["failed"]) / c["wall_s"] for c in untraced]
    attempted = sum(c["quenches"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    if trace:
        traced_calls = [c for c in completed if c["traced"]]
        metrics = {
            name: _median([c["layers"][name] for c in traced_calls])
            for name in per_layer_units if name not in ("cli.bytes_written", "trace.overhead_ratio")
        }
        metrics["cli.bytes_written"] = _median([c["bytes_written"] / c["quenches"] for c in traced_calls])
        traced_rates = [(c["quenches"] - c["failed"]) / c["wall_s"] for c in traced_calls]
        metrics["trace.overhead_ratio"] = (
            _median(traced_rates) / _median(rates) if rates and traced_rates else 0.0
        )
        units = per_layer_units
        notes = {
            "not_called": sorted({n for c in traced_calls for n in c["not_called"]}),
            "absent": sorted({n for c in traced_calls for n in c["absent"]}),
        }
    else:
        metrics = {
            "setup_s": _median(setup),
            "quenches_per_s": _median(rates),
            "cpu_s_per_quench": _median([c["cpu_s"] / c["quenches"] for c in untraced]),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
        }
        units = end_to_end_units
        notes = {}
    env_record = {
        "python": platform.python_version(),
        **(completed[0]["env"] if completed else {}),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_variables_seen": seen,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls": len(calls),
        "setup_samples_s": setup,
        "failed_fraction": failed / attempted,
        "failures": [m for c in calls for m in c["messages"]][:20],
        "env": env_record,
        **notes,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }
    with open(os.path.join(out, "report.json"), "w") as stream:
        json.dump(report, stream, indent=2)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed at least 0")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = report["result"]
    print(f"{report['workload']} seed {report['seed']}: {report['calls']} calls, "
          f"{result['attempted']} quenches, {result['failed']} failed, "
          f"failed_fraction = {report['failed_fraction']!r}")
    for message in report["failures"]:
        print(f"  failure: {message}")
    for key in ("not_called", "absent"):
        if report.get(key):
            print(f"  {key}: {', '.join(report[key])}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
