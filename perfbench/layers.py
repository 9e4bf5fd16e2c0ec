"""Per-layer attribution for the traced run.

Timing wrappers are installed from this file around public functions of
the program's layers; nothing under ``src/`` is edited.  Each wrapper
records calls, inclusive seconds and self seconds (inclusive minus the
time of nested wrapped calls).  Counters the program already keeps
(``optimizer.access_paths_considered``, ``encoding.dict_builds``) are
read from an installed :class:`repro.obs.TraceRecorder`, and cache hit
ratios from ``Database.cache_stats()``.

The run is serial, so one call stack is kept for the whole process.
"""

import time
from contextlib import contextmanager

import numpy

from repro import obs
from repro.datagen import nref as nref_gen
from repro.datagen import tpch as tpch_gen
from repro.engine.database import Database
from repro.executor.engine import Executor
from repro.index.data import IndexData
from repro.optimizer.planner import Planner
from repro.optimizer.templates import TemplatePlanner
from repro.recommender.costservice import WhatIfCostService
from repro.stats.table_stats import TableStats
from repro.storage.table import Table
from repro.workload import sampling

# (owner, attribute, span name).  Module functions are looked up through
# their module at call time by the benchmark, so patching the module
# attribute is enough.
TARGETS = (
    (nref_gen, "load_nref_database", "datagen.load"),
    (tpch_gen, "load_tpch_database", "datagen.load"),
    (sampling, "sample_benchmark_workload", "workload.sample"),
    (Database, "bind", "sql.bind"),
    (Planner, "plan", "optimizer.enumerate"),
    (TemplatePlanner, "plan_with_template", "optimizer.template"),
    (WhatIfCostService, "costs", "recommender.costs"),
    (Database, "estimate_hypothetical", "engine.estimate_hypothetical"),
    (Database, "hypothetical_env", "engine.hypothetical_env"),
    (Database, "estimated_configuration_bytes", "engine.config_bytes"),
    (Database, "apply_configuration", "engine.apply_configuration"),
    (Database, "execute", "engine.execute"),
    (Database, "insert_rows", "engine.insert_rows"),
    (Executor, "run", "executor.run"),
    (numpy, "isin", "executor.isin"),
    (IndexData, "__init__", "index.build"),
    (Table, "append_rows", "storage.append"),
    (TableStats, "collect", "stats.collect"),
)

CACHES = ("plan", "dict", "subplan", "kernel", "template")


class _Span:
    __slots__ = ("calls", "inclusive", "self_s")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Installs the wrappers and accumulates their spans."""

    def __init__(self):
        self.spans = {}
        self.replays = _Span()
        self._stack = []          # [child seconds] per open wrapped call
        self._saved = []
        self._cache_hits = {cache: [0, 0] for cache in CACHES + ("whatif",)}
        self._in_run = False      # numpy.isin is counted only inside it
        self.recorder = None

    # -- wrapping -------------------------------------------------------

    def _wrap(self, function, name):
        span = self.spans.setdefault(name, _Span())
        enumerate_span = self.spans.setdefault("optimizer.enumerate", _Span())
        stack = self._stack
        replays = self.replays
        only_inside_run = name == "executor.isin"
        is_template = name == "optimizer.template"
        is_run = name == "executor.run"

        def wrapper(*args, **kwargs):
            if only_inside_run and not self._in_run:
                return function(*args, **kwargs)
            before = enumerate_span.calls
            stack.append(0.0)
            if is_run:
                self._in_run = True
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if is_run:
                    self._in_run = False
                child = stack.pop()
                span.calls += 1
                span.inclusive += elapsed
                span.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if is_template and enumerate_span.calls == before:
                    replays.calls += 1
                    replays.inclusive += elapsed

        wrapper.__wrapped__ = function
        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper and an obs recorder; undo on exit."""
        for owner, attribute, name in TARGETS:
            raw = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attribute, wrapped)
        with obs.recording() as recorder:
            self.recorder = recorder
            try:
                yield self
            finally:
                for owner, attribute, raw in reversed(self._saved):
                    setattr(owner, attribute, raw)
                self._saved.clear()

    def retire(self, database):
        """Add the cache statistics of a copy the run is done with."""
        stats = database.cache_stats()
        for cache, pair in self._cache_hits.items():
            snapshot = stats[f"{cache}_cache"]
            pair[0] += snapshot["hits"]
            pair[1] += snapshot["hits"] + snapshot["misses"]

    # -- report ---------------------------------------------------------

    def wrapped_calls(self):
        return sum(span.calls for span in self.spans.values())

    def metrics(self, recommendation_reports):
        """Every per-layer metric, as ``{name: (value, unit)}``."""
        spans = self.spans

        def calls(name):
            return spans[name].calls if name in spans else 0

        def seconds(name, field="inclusive"):
            return getattr(spans[name], field) if name in spans else 0.0

        counters = self.recorder.metrics
        enumerate_calls = calls("optimizer.enumerate")
        out = {
            "datagen.load_s": (seconds("datagen.load"), "s"),
            "workload.sample_s": (seconds("workload.sample"), "s"),
            "sql.bind_calls": (calls("sql.bind"), "count"),
            "sql.bind_s": (seconds("sql.bind"), "s"),
            "optimizer.enumerate_calls": (enumerate_calls, "count"),
            "optimizer.enumerate_s": (seconds("optimizer.enumerate"), "s"),
            "optimizer.enumerate_self_s": (
                seconds("optimizer.enumerate", "self_s"), "s"),
            "optimizer.replay_calls": (self.replays.calls, "count"),
            "optimizer.replay_s": (self.replays.inclusive, "s"),
            "optimizer.replay_ratio": (
                _ratio(self.replays.calls,
                       self.replays.calls + enumerate_calls), "ratio"),
            "optimizer.access_paths_considered": (
                counters.counter_value("optimizer.access_paths_considered"),
                "count"),
            "recommender.costs_calls": (calls("recommender.costs"), "count"),
            "recommender.costs_s": (seconds("recommender.costs"), "s"),
            "recommender.candidates": (
                sum(r.candidate_count for r in recommendation_reports),
                "count"),
            "recommender.iterations": (
                sum(r.iterations for r in recommendation_reports), "count"),
        }
        for short, name in (
                ("estimate_hypothetical", "engine.estimate_hypothetical"),
                ("execute", "engine.execute")):
            out[f"engine.{short}_calls"] = (calls(name), "count")
            out[f"engine.{short}_self_s"] = (seconds(name, "self_s"), "s")
        for short, name in (("hypothetical_env", "engine.hypothetical_env"),
                            ("config_bytes", "engine.config_bytes")):
            out[f"engine.{short}_calls"] = (calls(name), "count")
            out[f"engine.{short}_s"] = (seconds(name), "s")
        out["engine.apply_configuration_s"] = (
            seconds("engine.apply_configuration"), "s")
        out["engine.insert_rows_s"] = (seconds("engine.insert_rows"), "s")
        hits = self._cache_hits
        out["recommender.whatif_hit_ratio"] = (_ratio(*hits["whatif"]),
                                               "ratio")
        for cache in CACHES:
            out[f"engine.{cache}_cache_hit_ratio"] = (
                _ratio(*hits[cache]), "ratio")
        out.update({
            "executor.run_calls": (calls("executor.run"), "count"),
            "executor.run_s": (seconds("executor.run"), "s"),
            "executor.isin_s": (seconds("executor.isin"), "s"),
            "index.build_calls": (calls("index.build"), "count"),
            "index.build_s": (seconds("index.build"), "s"),
            "storage.append_s": (seconds("storage.append"), "s"),
            "storage.dict_builds": (
                counters.counter_value("encoding.dict_builds"), "count"),
            "stats.collect_calls": (calls("stats.collect"), "count"),
            "stats.collect_s": (seconds("stats.collect"), "s"),
        })
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def wrapper_cost_s(samples=20000):
    """Seconds one wrapped call adds, measured on an empty function."""

    def empty():
        return None

    tracer = LayerTracer()
    wrapped = tracer._wrap(empty, "calibration")
    start = time.perf_counter()
    for _ in range(samples):
        empty()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / samples)
