"""Span recording for the traced run, installed from outside the program.

``Tracer.install`` replaces each layer's public function, under every name
a ``qworkstats`` module binds it to, by a wrapper that records a span. All
names must be rebound because ``from .spectral import diagonalize`` gives
``tpm``, ``experiments`` and ``cli`` bindings of their own. Spans stay in
memory until the call ends; ``per_layer`` turns them into the per-layer
metrics of one call.
"""

from __future__ import annotations

import gc
import itertools
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

# Span name -> (defining module, the public functions it times).
LAYERS = {
    "models.aah_hamiltonian": ("qworkstats.models", ("aah_hamiltonian",)),
    "spectral.diagonalize": ("qworkstats.spectral", ("diagonalize",)),
    "spectral.state_build": ("qworkstats.spectral", ("thermal_state", "eigenstate_projector")),
    "spectral.basis_populations": ("qworkstats.spectral", ("basis_populations",)),
    "spectral.dephase": ("qworkstats.spectral", ("dephase",)),
    "tpm.uncollected": ("qworkstats.tpm", ("uncollected_distribution",)),
    "tpm.initial_populations": ("qworkstats.tpm", ("initial_populations",)),
    "tpm.transition_probabilities": ("qworkstats.tpm", ("transition_probabilities",)),
    "tpm.collect": ("qworkstats.tpm", ("collect_work_distribution",)),
    "tpm.check_first_moment": ("qworkstats.tpm", ("check_first_moment",)),
    "tpm.work_moments": ("qworkstats.tpm", ("work_moments",)),
    "tpm.mean_work_direct": ("qworkstats.tpm", ("mean_work_direct",)),
    "infotheory.bounds_report": ("qworkstats.infotheory", ("bounds_report",)),
    "experiments.sweep": ("qworkstats.experiments", ("aah_transition_sweep",)),
    "cli.run": ("qworkstats.cli", ("run",)),
}
# The sweep functions hand each axis point to this helper; wrapping it gives
# one span per point, in the pool thread that runs it.
FAN_OUT = ("qworkstats.experiments", "_fan_out")

# Per-layer metric -> span whose self time, per quench, it reports.
SELF_TIME_METRICS = {
    "models.aah_hamiltonian_s": "models.aah_hamiltonian",
    "spectral.diagonalize_s": "spectral.diagonalize",
    "spectral.state_build_s": "spectral.state_build",
    "spectral.basis_populations_s": "spectral.basis_populations",
    "spectral.dephase_s": "spectral.dephase",
    "spectral.construct_s": "spectral.construct",
    "tpm.uncollected_s": "tpm.uncollected",
    "tpm.initial_populations_s": "tpm.initial_populations",
    "tpm.transition_probabilities_s": "tpm.transition_probabilities",
    "tpm.collect_s": "tpm.collect",
    "tpm.check_first_moment_s": "tpm.check_first_moment",
    "tpm.work_moments_s": "tpm.work_moments",
    "tpm.mean_work_direct_s": "tpm.mean_work_direct",
    "infotheory.bounds_report_s": "infotheory.bounds_report",
    "cli.self_s": "cli.run",
}


def _named_like(fn, traced):
    # Not functools.wraps: its __wrapped__ would be one more reference to
    # fn, which stray_references would have to tell apart from a miss.
    traced.__name__, traced.__qualname__, traced.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
    return traced


class Tracer:
    """In-memory span recorder for one call of a workload.

    A span is ``[id, name, start, end, parent id, thread id, attrs]`` with
    times from ``time.perf_counter``. The parent is the innermost open span
    of the same thread unless given explicitly (a pool point names the
    fan-out that submitted it).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: dict[int, tuple[str, object, object]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        record = [next(self._ids), name, 0.0, 0.0, parent, threading.get_ident(), None]
        stack.append(record)
        record[2] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Rebind every layer function in every loaded ``qworkstats`` module."""
        for name, (home, attrs) in LAYERS.items():
            for attr in attrs:
                fn = getattr(sys.modules[home], attr, None)
                if fn is None:
                    self.absent.append(f"{home}.{attr}")
                    continue
                make = self._collect_wrapper if name == "tpm.collect" else self._wrapper
                self._rebind(f"{home}.{attr}", fn, make(name, fn))
        home, attr = FAN_OUT
        fn = getattr(sys.modules[home], attr, None)
        if fn is None:
            self.absent.append(f"{home}.{attr}")
        else:
            self._rebind(f"{home}.{attr}", fn, self._fan_out_wrapper(fn))

    def _rebind(self, qualified: str, fn, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name == "qworkstats" or module_name.startswith("qworkstats."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        self._wrapped[id(fn)] = (qualified, fn, wrapper)

    def _wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(record)

        return _named_like(fn, traced)

    def _collect_wrapper(self, name: str, fn):
        tracer = self

        def traced(uncollected, *args, **kwargs):
            record = tracer.begin(name)
            try:
                work = fn(uncollected, *args, **kwargs)
            finally:
                tracer.end(record)
            # Counting live pairs is tracer work: its own span keeps it out
            # of the self time of the caller.
            book = tracer.begin("trace.bookkeeping")
            try:
                record[6] = {
                    "pairs": int(uncollected.dim) ** 2,
                    "live_pairs": int(np.count_nonzero(uncollected.joint())),
                    "support_points": int(work.num_points),
                }
            finally:
                tracer.end(book)
            return work

        return _named_like(fn, traced)

    def _fan_out_wrapper(self, fn):
        tracer = self

        def traced(point_fn, items, workers):
            record = tracer.begin("experiments.fan_out")
            record[6] = {"workers": max(1, min(workers or 1, len(items)))}
            parent = record[0]

            def point(item):
                inner = tracer.begin("experiments.point", parent)
                try:
                    return point_fn(item)
                finally:
                    tracer.end(inner)

            try:
                return fn(point, items, workers)
            finally:
                tracer.end(record)

        return _named_like(fn, traced)

    def stray_references(self) -> list[str]:
        """Objects that still hold an unwrapped layer function: missed rebindings."""
        own = set()
        for entry in self._wrapped.values():
            own.add(id(entry))
            own.update(id(cell) for cell in entry[2].__closure__ or ())
        stray = []
        for qualified, fn, _ in self._wrapped.values():
            for ref in gc.get_referrers(fn):
                if id(ref) in own or isinstance(ref, types.FrameType):
                    continue
                owner = next(
                    (m.__name__ for m in list(sys.modules.values()) if getattr(m, "__dict__", None) is ref),
                    type(ref).__name__,
                )
                stray.append(f"{qualified} still bound in {owner}")
        return stray

    def records(self) -> list[list]:
        """Spans as written out: name, start, end, parent, thread, run id, id, attrs."""
        return [
            [name, start, end, parent, thread, self.run_id, sid, attrs]
            for sid, name, start, end, parent, thread, attrs in self.spans
        ]


def per_layer(spans: list[list], quenches: int) -> dict[str, float]:
    """Per-layer metrics of one call from its spans (as ``Tracer.spans``).

    Self time is a span's duration minus its children in the same thread,
    so time a pool thread spends on a point is not subtracted from the
    fan-out that waits for it.
    """
    thread_of = {s[0]: s[5] for s in spans}
    duration = {s[0]: s[3] - s[2] for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, thread, _ in spans:
        if parent is not None and thread_of.get(parent) == thread:
            covered[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, *_ in spans:
        self_time[name] += duration[sid] - covered[sid]
        calls[name] += 1

    metrics = {metric: self_time[name] / quenches for metric, name in SELF_TIME_METRICS.items()}
    metrics["spectral.diagonalize_calls"] = calls["spectral.diagonalize"] / quenches

    pairs = live = support = 0
    for s in spans:
        if s[1] == "tpm.collect" and s[6]:
            pairs += s[6]["pairs"]
            live += s[6]["live_pairs"]
            support += s[6]["support_points"]
    metrics["tpm.collect.pairs"] = pairs / quenches
    metrics["tpm.collect.support_points"] = support / quenches
    metrics["tpm.collect.live_pair_ratio"] = live / pairs if pairs else 0.0

    metrics["experiments.self_s"] = (
        self_time["experiments.sweep"] + self_time["experiments.point"]
    ) / quenches
    busy = sum(duration[s[0]] for s in spans if s[1] == "experiments.point")
    capacity = sum(
        duration[s[4]] * s[6]["workers"]
        for s in spans
        if s[1] == "experiments.fan_out" and s[4] in duration
    )
    metrics["experiments.worker_busy_ratio"] = busy / capacity if capacity else 0.0
    return metrics
