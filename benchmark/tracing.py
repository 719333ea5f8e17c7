"""Spans at the package's public functions, recorded from outside the program.

``install`` rebinds every public function of every ``v2i_fairness`` module,
in each module that holds it (so the names ``experiments`` and ``nsga2``
import from other modules are wrapped too), plus ``MetricContext.evaluate``.
Each call records a span: name, start, end and parent.  Times are process CPU
time in nanoseconds.  Spans stay in memory until the run ends; ``uninstall``
restores the original functions.

A few wrappers also count work at the same boundary: rows handed to
``objective_batch``, points handed to ``hypervolume``, bytes written by
``atomic_write_text``, reselections and transmissions returned by the
simulator's estimators.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("channel", "scenario", "sps_analytics", "sps_sim", "nsga2",
           "moo_metrics", "experiments", "config", "util", "cli")

# Spans of one group are summed only where no span of the same group encloses
# them, so nested calls (objective_vector -> fairness_index_network ->
# collision_probability) are not counted twice.
GROUPS = {
    "sps_analytics.objective_vector": "sps_analytics.scalar",
    "sps_analytics.fairness_index_network": "sps_analytics.scalar",
    "sps_analytics.collision_probability": "sps_analytics.scalar",
    "sps_analytics.packet_reception_ratio": "sps_analytics.scalar",
    "moo_metrics.generational_distance": "moo_metrics.distance",
    "moo_metrics.inverted_generational_distance": "moo_metrics.distance",
    "moo_metrics.spacing": "moo_metrics.distance",
    "sps_sim.estimate_collision_prob": "sps_sim.estimate",
    "sps_sim.estimate_prr": "sps_sim.estimate",
    "nsga2.crossover": "nsga2.operators",
    "nsga2.mutate": "nsga2.operators",
}

# nondominated as nsga2 calls it: the per-generation front snapshot
ALIASES = {("nsga2", "nondominated"): "nsga2.snapshot"}


class Tracer:
    """In-memory span store.  Span i has name, group, parent, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self._gids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("q")
        self.group = array("q")
        self.parent = array("q")
        self.outer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.depth: list[int] = [0] * len(self.groups)   # open spans per group
        self.counts: dict[str, int] = defaultdict(int)
        self.genomes: set[bytes] = set()   # distinct genomes of the open GA run

    def ids(self, name: str) -> tuple[int, int]:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        group = GROUPS.get(name, name)
        if group not in self._gids:
            self._gids[group] = len(self.groups)
            self.groups.append(group)
            self.depth.append(0)
        return self._ids[name], self._gids[group]

    def inside(self, group: str) -> bool:
        gid = self._gids.get(group)
        return gid is not None and self.depth[gid] > 0

    def wrap(self, fn, name: str, hook=None):
        nid, gid = self.ids(name)
        clock = time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            i = len(self.start)
            self.name.append(nid)
            self.group.append(gid)
            self.parent.append(stack[-1] if stack else -1)
            self.outer.append(self.depth[gid] == 0)
            self.depth[gid] += 1
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                self.depth[gid] -= 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
                for key, dtype in (("name", np.int64), ("group", np.int64),
                                   ("parent", np.int64), ("outer", np.int8),
                                   ("start", np.int64), ("end", np.int64))}

    def summary(self) -> "Summary":
        return Summary(self.arrays(), self.names, self.groups, dict(self.counts))


class Summary:
    """Per-name calls, total and self seconds; per-group outermost seconds."""

    def __init__(self, spans, names, groups, counts) -> None:
        dur = (spans["end"] - spans["start"]) / 1e9
        parent = spans["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        name = spans["name"]
        self.calls = dict(zip(names, np.bincount(name, minlength=len(names)).tolist()))
        self.total = dict(zip(names, np.bincount(name, weights=dur, minlength=len(names))))
        self.own = dict(zip(names, np.bincount(name, weights=own, minlength=len(names))))
        outer = spans["outer"].astype(bool)
        self.group_total = dict(zip(groups, np.bincount(
            spans["group"][outer], weights=dur[outer], minlength=len(groups))))
        self.wrapped_self = float(own.sum())
        self.counts = counts

    def s(self, name: str) -> float:
        return float(self.total.get(name, 0.0))

    def self_s(self, name: str) -> float:
        return float(self.own.get(name, 0.0))

    def group_s(self, group: str) -> float:
        return float(self.group_total.get(group, 0.0))

    def n(self, name: str) -> int:
        return int(self.calls.get(name, 0))


# hooks: counts taken at the same boundaries as the spans ---------------------


def _objective_rows(tracer, args, kwargs, result) -> None:
    windows = np.asarray(args[0])
    tracer.counts["objective_batch.rows"] += len(windows)
    if tracer.inside("nsga2.run"):
        tracer.counts["nsga2.eval_rows"] += len(windows)
        tracer.genomes.update(map(bytes, np.ascontiguousarray(windows, dtype=np.int64)))


def _run_done(tracer, args, kwargs, result) -> None:
    tracer.counts["nsga2.eval_distinct"] += len(tracer.genomes)
    tracer.genomes = set()


def _hv_points(tracer, args, kwargs, result) -> None:
    tracer.counts["hypervolume.points"] += len(np.atleast_2d(args[0]))


def _write_bytes(tracer, args, kwargs, result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["atomic_write_text.bytes"] += len(text.encode("utf-8"))


def _estimate(tracer, args, kwargs, result) -> None:
    tracer.counts["sps_sim.reselections"] += result.num_reselections
    tracer.counts["sps_sim.transmissions"] += result.num_transmissions


HOOKS = {
    "sps_analytics.objective_batch": _objective_rows,
    "nsga2.run": _run_done,
    "moo_metrics.hypervolume": _hv_points,
    "util.atomic_write_text": _write_bytes,
    "sps_sim.estimate_collision_prob": _estimate,
    "sps_sim.estimate_prr": _estimate,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the public functions; return (owner, attribute, original) triples."""
    mods = {m: importlib.import_module(f"v2i_fairness.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                name = f"{short}.{attr}"
                wrappers[fn] = (attr, tracer.wrap(fn, name, HOOKS.get(name)))
    saved = []
    for short, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                wrapped = wrappers[value][1]
                alias = ALIASES.get((short, attr))
                if alias is not None:
                    wrapped = tracer.wrap(wrapped, alias)
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapped)
    cls = mods["moo_metrics"].MetricContext
    saved.append((cls, "evaluate", cls.evaluate))
    cls.evaluate = tracer.wrap(cls.evaluate, "moo_metrics.evaluate")
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
