"""Spans around calls into memwave's public functions, and their self times.

A span is ``[name, start, end, parent, busy]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``busy`` the time spent inside it.  For
an ordinary call ``busy == end - start``.  A generator (``RegionMap.rows``) is
one span whose ``busy`` sums only its resumptions, so the time its consumer
spends between items is not charged to it; its parent is the span open at its
first resumption.  On one thread the direct children of a span never overlap,
so a span's self time is its ``busy`` minus the ``busy`` of its children.

Spans stay in memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, BUSY = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, start, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, fn, name: str, after=None):
        """Return fn recording one span per call; ``after(tracer, args,
        result)`` may add counters once the call has returned."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._traced_generator(fn(*args, **kwargs), name)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span = self.spans[idx]
                span[END] = end
                span[BUSY] = end - span[START]
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _traced_generator(self, gen, name: str):
        idx = None
        while True:
            t0 = perf_counter()
            if idx is None:
                idx = self._open(name, t0)
            else:
                self._stack.append(idx)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = perf_counter()
                span = self.spans[idx]
                span[END] = end
                span[BUSY] += end - t0
                self._stack.pop()
            yield item

    def install(self, module: str, path: str, name: str, after=None) -> bool:
        """Replace ``module.path`` (``path`` may be ``Class.method``) by a
        traced wrapper.  A target that does not exist is reported on stderr
        and recorded in ``missing``; it never raises."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            print(f"perfbench: warning: hook target {module}.{path} not found; "
                  f"metrics from span {name} are absent", file=sys.stderr)
            self.missing.append(f"{module}.{path}")
            return False
        setattr(owner, attr, self.wrap(fn, name, after))
        self.installed.add(name)
        return True


def summarize(spans) -> dict[str, tuple[int, float, float]]:
    """Map each span name to (calls, total busy, total self time)."""
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_busy[span[PARENT]] += span[BUSY]
    out: dict[str, tuple[int, float, float]] = {}
    for span, inner in zip(spans, child_busy):
        calls, total, own = out.get(span[NAME], (0, 0.0, 0.0))
        out[span[NAME]] = (calls + 1, total + span[BUSY], own + span[BUSY] - inner)
    return out


def ndarray_bytes(obj) -> int:
    """Bytes of the NumPy arrays an object holds as attributes, directly or
    inside a list, tuple or dict."""
    total = 0
    for value in getattr(obj, "__dict__", {}).values():
        if isinstance(value, dict):
            value = tuple(value.values())
        items = value if isinstance(value, (list, tuple)) else (value,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


def _file_bytes(counter: str):
    def after(tracer: Tracer, args, result) -> None:
        if args and isinstance(args[0], (str, os.PathLike)) and os.path.isfile(args[0]):
            tracer.count(counter, os.path.getsize(args[0]))

    return after


def _history_bytes(tracer: Tracer, args, state) -> None:
    tracer.count("solver.history_bytes", ndarray_bytes(state))


# (module, attribute, span name, counter hook).  Each hook sits on the name
# the caller looks up at call time: cli imports run_simulation, detect_blowup
# and region_from_grids by name, the solver looks up step, initial_state and
# observables.compute_functionals in their modules, and methods are looked up
# on the class.
HOOKS = (
    ("memwave.cli", "load_config", "cli.load_config", None),
    ("memwave.cli", "validate_config", "cli.validate_config", None),
    ("memwave.cli", "run_simulation", "solver.run_simulation", None),
    ("memwave.cli", "detect_blowup", "observables.detect_blowup", None),
    ("memwave.cli", "region_from_grids", "exponents.region", None),
    ("memwave.cli", "_write_csv", "cli.write_csv", _file_bytes("cli.write_csv_bytes")),
    ("memwave.cli", "write_snapshot", "cli.write_snapshot",
     _file_bytes("cli.write_snapshot_bytes")),
    ("memwave.cli", "OutputDir.finalize", "cli.finalize", None),
    ("memwave.solver", "initial_state", "solver.initial_state", _history_bytes),
    ("memwave.solver", "step", "solver.step", None),
    ("memwave.solver", "HistoryWeights.weights", "solver.weights", None),
    ("memwave.observables", "compute_functionals", "observables.functionals", None),
    ("memwave.exponents", "RegionMap.rows", "exponents.rows", None),
)

KERNEL_METHODS = ("antiderivative", "second_antiderivative")


def install_hooks(tracer: Tracer) -> None:
    for module, path, name, after in HOOKS:
        tracer.install(module, path, name, after)
    # every kernel class that defines its own antiderivative methods; the
    # rest inherit the (hooked) base-class versions
    try:
        kernels = importlib.import_module("memwave.kernels")
        base = kernels.MemoryKernel
    except (ImportError, AttributeError):
        print("perfbench: warning: memwave.kernels.MemoryKernel not found; "
              "kernel metrics are absent", file=sys.stderr)
        tracer.missing.append("memwave.kernels.MemoryKernel")
        return
    classes = [c for c in vars(kernels).values() if isinstance(c, type) and issubclass(c, base)]
    for method in KERNEL_METHODS:
        owners = [c for c in classes if method in c.__dict__]
        for cls in owners:
            tracer.install("memwave.kernels", f"{cls.__name__}.{method}", f"kernels.{method}")
        if not owners:
            print(f"perfbench: warning: no kernel class defines {method}; "
                  f"metrics from span kernels.{method} are absent", file=sys.stderr)
            tracer.missing.append(f"memwave.kernels.*.{method}")


# (metric, unit, span name, quantity): quantity is "calls", "self" or "total"
SPAN_METRICS = (
    ("kernels.antiderivative_calls", "count", "kernels.antiderivative", "calls"),
    ("kernels.antiderivative_s", "s", "kernels.antiderivative", "self"),
    ("kernels.second_antiderivative_calls", "count", "kernels.second_antiderivative", "calls"),
    ("kernels.second_antiderivative_s", "s", "kernels.second_antiderivative", "self"),
    ("solver.weights_calls", "count", "solver.weights", "calls"),
    ("solver.weights_s", "s", "solver.weights", "self"),
    ("solver.step_calls", "count", "solver.step", "calls"),
    ("solver.step_s", "s", "solver.step", "self"),
    ("solver.initial_state_s", "s", "solver.initial_state", "self"),
    ("solver.run_simulation_s", "s", "solver.run_simulation", "self"),
    ("solver.run_simulation_total_s", "s", "solver.run_simulation", "total"),
    ("observables.functionals_calls", "count", "observables.functionals", "calls"),
    ("observables.functionals_s", "s", "observables.functionals", "self"),
    ("observables.detect_blowup_s", "s", "observables.detect_blowup", "self"),
    ("exponents.region_s", "s", "exponents.region", "self"),
    ("exponents.rows_s", "s", "exponents.rows", "self"),
    ("cli.write_csv_s", "s", "cli.write_csv", "self"),
    ("cli.write_snapshot_s", "s", "cli.write_snapshot", "self"),
    ("cli.finalize_s", "s", "cli.finalize", "self"),
)

# counter -> the span whose hook produces it
COUNTER_METRICS = (
    ("solver.history_bytes", "B", "solver.initial_state"),
    ("cli.write_csv_bytes", "B", "cli.write_csv"),
    ("cli.write_snapshot_bytes", "B", "cli.write_snapshot"),
)


def layer_metrics(spans, counters: dict, installed) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; those whose hook is missing are
    left out, those whose hook never fired read 0."""
    table = summarize(spans)
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, name, quantity in SPAN_METRICS:
        if name in installed:
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            out[metric] = ({"calls": calls, "total": total, "self": own}[quantity], unit)
    for metric, unit, name in COUNTER_METRICS:
        if name in installed:
            out[metric] = (counters.get(metric, 0), unit)
    validate = ("cli.load_config", "cli.validate_config")
    if all(n in installed for n in validate):
        out["cli.validate_s"] = (sum(table.get(n, (0, 0.0, 0.0))[1] for n in validate), "s")
    return out
