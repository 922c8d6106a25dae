"""Span recorder for traced runs: timing wrappers around public callables.

A traced run installs :class:`Tracer` wrappers around the program's
public functions and methods from outside — nothing under ``src/``
changes.  Each call records one span ``(id, name, start, end, parent,
cell)``; spans stay in memory and are written once, at the end of the
run.  ``parent`` is the innermost enclosing recorded span on the same
thread, and ``cell`` the simulation cell the call belongs to, so a
layer's self time is its span minus the spans of its children.

The engine's per-miss calls (``finish_miss`` and each interconnect's
``access``, a few hundred thousand per sweep) are *rolled up* instead:
their calls and seconds are summed per enclosing recorded span, keyed
also by the rolled-up call they ran inside.  That keeps a traced sweep
to tens of megabytes while self times stay exact sums.  The wrapper's
own work outside its timed window would fall to the caller's self time,
hundreds of thousands of times over, so it is timed once per run on a
no-op and taken off again (:meth:`Tracer.wrapper_cost`).

Methods are wrapped on their class, not on instances: the cluster
binds ``finish_miss`` and each interconnect's ``access`` when it is
constructed, so only a class-level wrapper installed before
construction sees those calls.  Module-level functions are replaced in
every ``repro`` module that imported them by name.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, float, float, int, int]  # id, name, start, end, parent, cell
#: (recorded ancestor span id, name index, enclosing rolled-up name
#: index or -1) -> [calls, seconds]
Rollups = Dict[Tuple[int, int, int], List]
#: Calls per timing of the rolled-up wrapper on a no-op (five timings).
PROBE_CALLS = 20000


class Tracer:
    """Installs wrappers, records spans, restores the program on exit."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._cells = itertools.count()
        self._local = threading.local()
        self._rollups: List[Rollups] = []  # one per thread
        self._restore: List[Callable[[], None]] = []
        self._wrapper_cost: Optional[float] = None

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local
        except AttributeError:
            local.stack = []
            local.cell = -1  # outside any cell
            local.hot = -1  # innermost rolled-up call in progress
            local.rollups = {}
            self._rollups.append(local.rollups)
            return local.stack, local

    def _wrap(self, name: str, fn: Callable, opens_cell: bool,
              rollup: bool) -> Callable:
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        spans = self.spans
        ids = self._ids
        cells = self._cells
        perf = time.perf_counter
        state = self._state

        @functools.wraps(fn)
        def rolled(*args, **kwargs):
            stack, local = state()
            enclosing = local.hot
            local.hot = index
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf() - start
                local.hot = enclosing
                key = (stack[-1] if stack else -1, index, enclosing)
                entry = local.rollups.get(key)
                if entry is None:
                    local.rollups[key] = [1, seconds]
                else:
                    entry[0] += 1
                    entry[1] += seconds

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, local = state()
            outer_cell = local.cell
            if opens_cell:
                local.cell = next(cells)
            span_id = next(ids)
            stack.append(span_id)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((span_id, index, start, end,
                              stack[-1] if stack else -1, local.cell))
                local.cell = outer_cell

        return rolled if rollup else traced

    def method(self, cls: type, attr: str, name: str,
               opens_cell: bool = False, rollup: bool = False) -> None:
        """Wrap ``cls.attr`` (its own definition) until :meth:`uninstall`."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self._wrap(name, original.__func__, opens_cell, rollup))
        else:
            wrapped = self._wrap(name, original, opens_cell, rollup)
        setattr(cls, attr, wrapped)
        self._restore.append(lambda: setattr(cls, attr, original))

    def function(self, module: str, attr: str, name: str,
                 opens_cell: bool = False) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's reference
        to the same function object."""
        original = getattr(sys.modules[module], attr)
        wrapped = self._wrap(name, original, opens_cell, rollup=False)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._restore.append(
                    lambda mod=mod: setattr(mod, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _rolled(self):
        for rollups in self._rollups:
            for (ancestor, index, enclosing), (calls, seconds) in rollups.items():
                yield ancestor, self.names[index], enclosing, calls, seconds

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if self.names[span[1]] == name]

    def durations(self, name: str) -> List[float]:
        return [end - start for _, _, start, end, _, _ in self.spans_named(name)]

    def count(self, name: str) -> int:
        return len(self.spans_named(name)) + sum(
            calls for _, rolled, _, calls, _ in self._rolled() if rolled == name)

    def total(self, name: str) -> float:
        return sum(self.durations(name)) + sum(
            seconds for _, rolled, _, _, seconds in self._rolled()
            if rolled == name)

    def children(self) -> Dict[int, Dict[str, float]]:
        """span id -> child name -> seconds in such direct children
        (rolled-up calls count as children of their recorded ancestor
        unless they ran inside another rolled-up call)."""
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for _, index, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent][self.names[index]] += end - start
        for ancestor, name, enclosing, _, seconds in self._rolled():
            if ancestor >= 0 and enclosing < 0:
                out[ancestor][name] += seconds
        return out

    def wrapper_cost(self) -> float:
        """Host seconds a rolled-up call costs its caller beyond a plain
        call: the wrapper's work outside its timed window.  Timed once,
        on first use, on a method with the engine's calling shape."""
        if self._wrapper_cost is None:
            self._wrapper_cost = _rolled_wrapper_cost()
        return self._wrapper_cost

    def net_total(self, name: str) -> float:
        """:meth:`total` less the wrapper cost of every rolled-up call
        made inside ``name``'s calls, at any depth."""
        index = self.names.index(name)
        inside = {span[0] for span in self.spans if span[1] == index}
        if inside:
            below: Dict[int, List[int]] = defaultdict(list)
            for span_id, _, _, _, parent, _ in self.spans:
                below[parent].append(span_id)
            todo = list(inside)
            while todo:
                for child in below[todo.pop()]:
                    inside.add(child)
                    todo.append(child)
        calls = sum(count for ancestor, _, enclosing, count, _ in self._rolled()
                    if ancestor in inside or enclosing == index)
        return self.total(name) - calls * self.wrapper_cost()

    def self_total(self, name: str) -> float:
        """Seconds in ``name`` minus the seconds in its direct children,
        and minus the wrapper cost of the rolled-up calls among those
        children (it falls outside their timed windows, so to ``name``)."""
        children = self.children()
        index = self.names.index(name)
        recorded = 0.0
        ids = set()
        for span_id, _, start, end, _, _ in self.spans_named(name):
            ids.add(span_id)
            recorded += (end - start) - sum(children[span_id].values())
        nested = 0.0
        calls = 0
        for ancestor, _, enclosing, count, seconds in self._rolled():
            if enclosing == index:
                nested += seconds
                calls += count
            elif enclosing < 0 and ancestor in ids:
                calls += count
        return (recorded + self.total_rolled(name) - nested
                - calls * self.wrapper_cost())

    def total_rolled(self, name: str) -> float:
        return sum(seconds for _, rolled, _, _, seconds in self._rolled()
                   if rolled == name)

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write the spans and roll-ups once, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "names": self.names,
                "span": ["id", "name", "start", "end", "parent", "cell"],
                "rollup": ["ancestor", "name", "enclosing", "calls", "seconds"],
                "rolled_wrapper_cost_s": self.wrapper_cost(),
                **(extra or {}),
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for rollups in self._rollups:
                for key, (calls, seconds) in rollups.items():
                    handle.write(json.dumps(
                        {"rollup": [*key, calls, seconds]}) + "\n")


def _rolled_wrapper_cost() -> float:
    """Median of five timings of :data:`PROBE_CALLS` calls: a rolled-up
    wrapped no-op method minus the same method unwrapped minus the
    wrapper's timed windows, per call.  The calls run inside a recorded
    span and with four arguments, as ``finish_miss`` and ``access`` do."""

    class Plain:
        def call(self, core, address, result, now):
            return None

    class Wrapped(Plain):
        pass

    probe = Tracer()
    Wrapped.call = probe._wrap("probe", Plain.call, False, rollup=True)
    stack, local = probe._state()
    stack.append(0)
    plain, wrapped = Plain(), Wrapped()
    calls = range(PROBE_CALLS)
    perf = time.perf_counter
    costs = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            started = perf()
            for _ in calls:
                plain.call(1, 2, 3, 4)
            direct = perf() - started
            local.rollups.clear()
            started = perf()
            for _ in calls:
                wrapped.call(1, 2, 3, 4)
            through = perf() - started
            (_, windows), = local.rollups.values()
            costs.append((through - direct - windows) / PROBE_CALLS)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(costs)
