"""Spans around the library's public functions, installed from outside.

The package binds most functions by ``from ... import``, so a function lives
under several names: ``odchain.assignment.load_network`` and
``odchain.experiment.load_network`` are two lookups of one object.  The
tracer replaces every module attribute of every loaded ``odchain`` module
that is the wrapped function, so each call is seen wherever it is looked up,
and puts the originals back on exit.

Spans are kept in memory as ``[name, start, end, parent]`` rows; ``parent``
is the index of the enclosing span or -1.  A layer's busy time is the summed
duration of its spans, its self time that minus the time its direct children
cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable

from odchain import assignment, departure, experiment, kalman, legfilter, legs, scenario

#: Layer name -> (owner, attribute).  The owner is the defining module, or the
#: class for a method; layers are named after the module that defines them.
TARGETS: dict[str, tuple[object, str]] = {
    "scenario.load_scenario": (scenario, "load_scenario"),
    "scenario.scenario_from_mapping": (scenario, "scenario_from_mapping"),
    "scenario.validate": (scenario.ScenarioConfig, "validate"),
    "departure.probabilities": (departure, "departure_probabilities"),
    "assignment.load_network": (assignment, "load_network"),
    "assignment.assignment_matrix": (assignment, "assignment_matrix"),
    "assignment.cumulative_mapping": (assignment, "cumulative_mapping"),
    "kalman.run_kf_sequence": (kalman, "run_kf_sequence"),
    "legs.build_leg_operator": (legs, "build_leg_operator"),
    "legfilter.attribute_interval_deviations": (legfilter, "attribute_interval_deviations"),
    "legfilter.run_leg_chain": (legfilter, "run_leg_chain"),
    "legfilter.predict_horizon": (legfilter, "predict_horizon"),
    "experiment.generate_truth_and_history": (experiment, "generate_truth_and_history"),
    # model estimation; timed here because ModelRow.runtime_s covers scoring only
    "experiment.estimate": (experiment, "_estimate"),
    "experiment.run_experiment": (experiment, "run_experiment"),
    "experiment.emit_report": (experiment, "emit_report"),
}


def _lookup_sites(original) -> list[tuple[object, str]]:
    """Every (module, attribute) of the loaded package bound to ``original``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "odchain" or name.startswith("odchain.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


class Tracer:
    """Records spans while installed; use as a context manager.

    ``observers`` maps a layer name to a function of the wrapped call's
    ``(result, args, kwargs)``; what it returns is kept per span in ``notes``.
    It runs after the span's end time is taken, so its cost stays out of the
    span (though not out of the enclosing ones).
    """

    def __init__(self, observers: dict[str, Callable] | None = None) -> None:
        self.spans: list[list] = []
        self.notes: dict[int, object] = {}
        self.observers = observers or {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, e.g. one experiment or one set-up."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observer is not None:
                self.notes[index] = observer(result, args, kwargs)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, (owner, attr) in TARGETS.items():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            sites = [(owner, attr)] if isinstance(owner, type) else _lookup_sites(original)
            for site, site_attr in sites:
                self._restore.append((site, site_attr, original))
                setattr(site, site_attr, wrapped)
        return self

    def __exit__(self, *exc) -> bool:
        while self._restore:
            site, attr, original = self._restore.pop()
            setattr(site, attr, original)
        return False

    # -- span arithmetic ---------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            out.setdefault(span[3], []).append(i)
        return out

    def descendants(self, root: int, kids: dict[int, list[int]]) -> list[int]:
        out, todo = [], list(kids.get(root, ()))
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(kids.get(i, ()))
        return out

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int, kids: dict[int, list[int]]) -> float:
        return self.duration(i) - sum(self.duration(k) for k in kids.get(i, ()))

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
