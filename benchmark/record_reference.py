"""Record the reference outputs that the benchmark's check compares against.

    python3 benchmark/record_reference.py

Runs each workload once at the default seed, in this interpreter and
untraced, and writes the compared columns to ``reference/``. Only do so
from a commit whose outputs are known to be right: every later run at the
default seed is checked against these values.
"""

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DEFAULT_SEED, WORKLOADS, check, write_reference  # noqa: E402


def main() -> int:
    for workload in WORKLOADS.values():
        out = os.path.join(ROOT, ".bench_out", "reference", workload.name)
        shutil.rmtree(out, ignore_errors=True)
        inputs = workload.prepare(DEFAULT_SEED, out)
        table, messages = workload.extract(inputs, workload.execute(inputs, None))
        rows = table["rows"]
        if messages or len(rows) != workload.quenches:
            print(f"{workload.name}: not recorded, {len(rows)} rows: {messages[:5]}", file=sys.stderr)
            return 1
        path = write_reference(workload, DEFAULT_SEED, table)
        failed, messages = check(workload, DEFAULT_SEED, table, [])
        if failed:
            print(f"{workload.name}: recorded outputs fail the check: {messages[:5]}", file=sys.stderr)
            return 1
        print(f"{workload.name}: {len(rows)} rows -> {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
