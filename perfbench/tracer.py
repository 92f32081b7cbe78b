"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files, at the layer
boundaries of the ``repro`` package, exactly where the callers look the
function up (a module global for ``from x import f`` call sites, a
class attribute for methods).  Each call records one span: name, start,
end, parent and an optional work count.  Spans stay in compact in-memory
arrays and are written out once, after the run.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  The root span (the deliverable call) is named
``experiments``; its self time is the remainder no wrapped layer claims,
so the self times of all spans sum to the root duration.

Importing this module installs nothing; only :meth:`Tracer.install`
does, and :meth:`Tracer.uninstall` restores every original attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

#: Marker attribute set on every wrapper (holds the wrapped callable).
WRAPPED_ATTR = "__perfbench_wrapped__"

ROOT = "experiments"


def _n_items(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["requests"])


def _one(args, kwargs, result):
    return 1


def _n_first(args, kwargs, result):
    return len(args[0])


def _lu_flop(args, kwargs, result):
    """Computed flop count of a dense LU factorization: 2/3 n^3 per
    matrix (a stacked ``(lanes, n, n)`` input counts each lane)."""
    a = args[0]
    n = a.shape[-1]
    lanes = a.shape[0] if a.ndim == 3 else 1
    return lanes * (2.0 / 3.0) * n ** 3


def _n_lane_sequences(args, kwargs, result):
    return len(args[2]) if len(args) > 2 else len(kwargs["lanes_in"])


#: (owner, attribute, span name, count) for every layer boundary.  The
#: owner is a dotted module path, optionally followed by ``:Class``.
BOUNDARIES = (
    ("repro.core.optimizer", "optimize_defect", "core.optimize_defect",
     None),
    ("repro.core.optimizer", "analyze_direction", "core.directions", None),
    ("repro.core.optimizer", "parallel_map", "engine.pool", _n_items),
    ("repro.core.border", "border_resistance", "analysis.border", None),
    ("repro.experiments.array", "activation_disturb_br", "analysis.border",
     None),
    ("repro.experiments.figures", "result_planes", "analysis.sweep", None),
    ("repro.analysis.planes", "settle_curve", "analysis.sweep", None),
    ("repro.analysis.planes", "vsa_curve", "analysis.sweep", None),
    ("repro.engine.executor:BatchExecutor", "map", "engine.map", _n_items),
    ("repro.engine.executor:BatchExecutor", "run", "engine.map", _one),
    ("repro.engine.executor:BatchExecutor", "_execute_serial",
     "engine.request", None),
    ("repro.engine.executor:BatchExecutor", "_execute_pool", "engine.pool",
     None),
    ("repro.engine.executor", "execute_lane_group", "engine.lane_group",
     _n_first),
    ("repro.engine.cache:ResultCache", "get", "engine.cache", None),
    ("repro.engine.cache:ResultCache", "put", "engine.cache", None),
    ("repro.engine.journal:SweepJournal", "record_ok", "engine.journal",
     None),
    ("repro.engine.journal:SweepJournal", "record_failure",
     "engine.journal", None),
    ("concurrent.futures._base:Future", "result", "engine.pool_wait", None),
    ("repro.store.sharded:ShardedStore", "get", "store.get", None),
    ("repro.store.sharded:ShardedStore", "put", "store.put", None),
    ("repro.behav.model:BehavioralColumn", "run_sequence", "behav.sequence",
     _one),
    ("repro.dram.runner:ColumnRunner", "run_sequence", "dram.sequence",
     _one),
    ("repro.dram.runner:ArrayRunner", "run_sequence", "dram.sequence",
     _one),
    ("repro.dram.runner:LaneRunner", "run_sequences", "dram.sequence",
     _n_lane_sequences),
    ("repro.dram.runner:ArrayLaneRunner", "run_sequences", "dram.sequence",
     _n_lane_sequences),
    ("repro.dram.runner:ArrayRunner", "__init__", "dram.array_build", None),
    ("repro.dram.runner:ArrayLaneRunner", "__init__", "dram.array_build",
     None),
    ("repro.dram.trim", "trim_array", "dram.trim", None),
    ("repro.dram.runner", "transient", "spice.transient", None),
    ("repro.spice.transient", "newton_solve", "spice.newton", None),
    ("repro.spice.transient", "gmin_step_solve", "spice.newton", None),
    ("repro.spice.mna:System", "build_iteration", "spice.build_iteration",
     None),
    ("repro.spice.mna:System", "step_matrix", "spice.assemble_step", None),
    ("repro.spice.mna:System", "step_rhs", "spice.assemble_step", None),
    ("repro.spice.mna:System", "step_factorization", "spice.assemble_step",
     None),
    ("repro.spice.solver", "solve_dense_nocheck", "spice.lu", _lu_flop),
    ("repro.spice.solver", "solve_dense_lanes", "spice.lu", _lu_flop),
    ("repro.spice.solver", "lu_factor", "spice.lu", _lu_flop),
    ("repro.spice.solver", "_refactor_lanes", "spice.lu", _lu_flop),
    ("repro.spice.backends:SparseBackend", "solve", "spice.lu", None),
    ("repro.spice.backends:SparseBackend", "factorize", "spice.lu", None),
    ("repro.spice.lanes:SparseLaneSystem", "factor_lane", "spice.lu", None),
    ("repro.dram.runner", "lane_transient", "spice.lane_transient", None),
    ("repro.spice.lanes", "newton_solve_lanes", "spice.lane_newton", None),
    ("repro.spice.lanes", "newton_solve_lanes_sparse", "spice.lane_newton",
     None),
)


def resolve_owner(owner: str):
    """The module or class a boundary's attribute lives on."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def count_wrapped() -> int:
    """How many boundaries currently hold a tracer wrapper."""
    n = 0
    for owner, attr, _, _ in BOUNDARIES:
        if hasattr(getattr(resolve_owner(owner), attr), WRAPPED_ATTR):
            n += 1
    return n


class Tracer:
    """Records nested spans around wrapped callables (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` (the innermost open one)."""
        self.end[idx] = self._clock()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """A wrapper recording one ``name`` span per call of ``fn``."""
        nid = self._intern(name)
        clock = self._clock
        stack = self._stack
        name_ids, parents, counts = self.name_id, self.parent, self.count
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            counts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_ATTR, fn)
        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` undoes exactly this."""
        for owner_name, attr, name, count in BOUNDARIES:
            owner = resolve_owner(owner_name)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            if not callable(original):
                raise TypeError(f"{owner_name}.{attr} is not a plain "
                                f"callable")
            self._patches.append((owner, attr, own, original))
            setattr(owner, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced (LIFO)."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of the intervals
        its direct children cover.  Spans are recorded in start order,
        so each parent's children arrive sorted by start."""
        n = len(self.start)
        covered = [0.0] * n
        reach: dict[int, float] = {}
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p < 0:
                continue
            lo = max(starts[i], reach.get(p, starts[i]))
            if ends[i] > lo:
                covered[p] += ends[i] - lo
            reach[p] = max(reach.get(p, ends[i]), ends[i])
        return [ends[i] - starts[i] - covered[i] for i in range(n)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration, self time, count sum."""
        out: dict[str, dict[str, float]] = {}
        selfs = self.self_times()
        for i, s in enumerate(selfs):
            row = out.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "total_s": 0.0,
                                  "self_s": 0.0, "count": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += s
            row["count"] += self.count[i]
        return out

    def spans_named(self, name: str) -> list[int]:
        """Indices of every span called ``name``."""
        nid = self._name_ids.get(name)
        return [i for i in range(len(self.start)) if self.name_id[i] == nid]

    def durations(self, name: str) -> list[tuple[float, float]]:
        """(duration, count) of every span called ``name``."""
        return [(self.end[i] - self.start[i], self.count[i])
                for i in self.spans_named(name)]

    def ancestors_named(self, idx: int, name: str) -> bool:
        """Is some ancestor of span ``idx`` called ``name``?"""
        nid = self._name_ids.get(name)
        p = self.parent[idx]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def dump(self, path) -> None:
        """Write every span (column arrays plus the name table)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name_id": self.name_id.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist(),
                       "parent": self.parent.tolist(),
                       "count": self.count.tolist()}, fh)
