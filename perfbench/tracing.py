"""Spans and counters for the traced benchmark run.

A span is one call: name, start, end and the index of the span that was
open when it started (-1 at top level).  Spans and counters stay in
memory and are written once, when the traced process ends.  Wrapping is
done on the name the calling module looks up, so the program under test
is never edited.
"""

import contextlib
import functools
import importlib
import json
import time

# (owner, attribute, span name), in the child running the CLI.  The owner
# is the module (or class) whose global lookup the caller goes through.
CHILD_WRAPS = [
    ("rindlersim.cli", "load_config", "runner.load_config"),
    ("rindlersim.cli", "cmd_evolve", "runner.cmd_evolve"),
    ("rindlersim.cli", "cmd_coeffs", "runner.cmd_coeffs"),
    ("rindlersim.cli", "cmd_singularity", "runner.cmd_singularity"),
    ("rindlersim.runner", "build_generator", "evolution.build_generator"),
    ("rindlersim.runner", "evolve", "evolution.evolve"),
    ("rindlersim.runner", "find_singularity", "hamiltonian.find_singularity"),
    ("rindlersim.evolution", "build_generator", "evolution.build_generator"),
    ("rindlersim.evolution", "find_singularity", "hamiltonian.find_singularity"),
    ("rindlersim.evolution", "coefficient_arrays", "hamiltonian.coefficient_arrays"),
    ("rindlersim.evolution", "expectation_inertial", "embedding.observable"),
    ("rindlersim.evolution", "expectation_rindler", "embedding.observable"),
    ("rindlersim.evolution", "correlation", "embedding.observable"),
    ("rindlersim.evolution", "field_norm", "embedding.observable"),
    ("rindlersim.evolution.TransportStepper", "step_eigen", "evolution.step_eigen"),
]

# In the benchmark process, around the oracle's own lookups.
PARENT_WRAPS = [
    ("rindlersim.oracle", "coefficient_arrays", "hamiltonian.coefficient_arrays"),
    ("rindlersim.oracle", "find_singularity", "hamiltonian.find_singularity"),
]


def _resolve(dotted: str):
    """Import 'pkg.module' or 'pkg.module.Class' and return the object."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner: str, attr: str, name: str, on_return=None):
        target = _resolve(owner)
        original = getattr(target, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        setattr(target, attr, traced)
        self._patched.append((target, attr, original))

    def wrap_all(self, table):
        for owner, attr, name in table:
            self.wrap(owner, attr, name)

    def unwrap_all(self):
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def summarize(spans) -> dict:
    """Per span name: {'calls', 'total_s', 'self_s'}.  Self time is the
    span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered[index]
    return out
