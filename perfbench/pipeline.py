"""The three benchmark workloads: the paper's pipeline in three proportions.

Every workload runs the same steps, timed from outside through public
functions, serially and with default settings:

- set-up: generate and load the data, build P, collect statistics and
  sample the family's workload.  The first set-up is pickled to a file,
  the snapshot every later step starts from;

then ``rounds`` rounds of

- set up again (``setups`` times), which must give the same workload;
- recommend under the paper's budget, size(1C) - size(P), each time on a
  fresh unpickled copy, so caches start cold as for a new workload;
- configure 1C and R on fresh copies (``apply_configuration`` plus
  ``collect_statistics``);
- run the workload on P, 1C and R (``passes`` times);
- insert fresh batches into the insert table under ``insert_config``.
  In insert-nref the batches go into one 1C database kept across rounds,
  and the workload runs on it after every batch, with cold caches.

Spreading each step's repetitions over the whole run, rather than timing
them in one block, keeps a slow spell of the shared machine from moving a
single metric.  Every step's figure is a median over its repetitions, and
per-query latency comes from hundreds of samples.

The workloads differ in what dominates: the recommendation's plan
enumeration (recommend-views), query execution (measure-nref), or index
rebuilds and cold caches after inserts (insert-nref).
"""

import os
import pathlib
import pickle
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.datagen import nref as nref_gen
from repro.datagen import tpch as tpch_gen
from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.engine.systems import by_name as system_by_name
from repro.recommender.whatif import WhatIfRecommender
from repro.workload import sampling
from repro.workload.nref_families import generate_nref2j
from repro.workload.tpch_families import generate_skth3js
from repro.workload.updates import nref_neighboring_batch, tpch_lineitem_batch

from checks import AnswerCheck, SqliteReference, recommendation_errors

# The workload sample is drawn with the paper's sampling seed from the
# family generated on the seeded data.  Sampling with --seed too moved
# recommendation time by up to a fifth between seeds; the data seed alone
# moved it by a twentieth.
SAMPLING_SEED = 405

# ``rounds`` is for runs of this many seconds; other run lengths scale it.
REFERENCE_SECONDS = 30

# Scratch files of a run (the snapshot), inside the checkout.
WORK_DIR = pathlib.Path(__file__).resolve().parents[1] / ".perfbench_work"

CONFIGS = ("P", "1C", "R")

BATCH_ROWS = 1000


@dataclass(frozen=True)
class Workload:
    system: str
    family: str
    scale: float
    size: int                  # queries in the sampled workload
    rounds: int
    setups: int                # per round, likewise below
    recommends: int
    configures: int
    passes: int                # workload runs on each of P, 1C and R
    inserts: int
    insert_config: str
    requery: bool              # one kept database; workload after inserts

    @property
    def dataset(self):
        return "skth" if self.family.startswith("SkTH") else "nref"


WORKLOADS = {
    "recommend-views": Workload(
        system="C", family="SkTH3Js", scale=0.1, size=10, rounds=10,
        setups=3, recommends=1, configures=3, passes=2, inserts=3,
        insert_config="R", requery=False,
    ),
    "measure-nref": Workload(
        system="A", family="NREF2J", scale=0.1, size=50, rounds=4,
        setups=1, recommends=4, configures=1, passes=1, inserts=2,
        insert_config="1C", requery=False,
    ),
    "insert-nref": Workload(
        system="A", family="NREF2J", scale=0.1, size=50, rounds=4,
        setups=1, recommends=3, configures=2, passes=0, inserts=2,
        insert_config="1C", requery=True,
    ),
}

INSERT_TABLE = {"nref": "neighboring_seq", "skth": "lineitem"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "recommend_s": "s",
    "configure_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "insert_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def setup(spec, seed):
    """A loaded database in P with statistics, and the sampled workload."""
    system = system_by_name(spec.system)
    if spec.dataset == "nref":
        db = nref_gen.load_nref_database(
            system, scale=spec.scale, seed=seed, name="NREF")
        generate = generate_nref2j
    else:
        db = tpch_gen.load_tpch_database(
            system, scale=spec.scale, zipf=1.0, seed=seed, name="SkTH")
        generate = generate_skth3js
    db.apply_configuration(primary_configuration(db.catalog, name="P"))
    db.collect_statistics()
    workload = sampling.sample_benchmark_workload(
        db, generate(db), size=spec.size, seed=SAMPLING_SEED)
    return db, workload


def insert_batch(spec, db, seed):
    if spec.dataset == "nref":
        return nref_neighboring_batch(db, BATCH_ROWS, seed=seed)
    return tpch_lineitem_batch(db, BATCH_ROWS, seed=seed)


class Run:
    """One benchmark run: timings, operation counts and check results."""

    def __init__(self, name, seed, seconds, tracer=None):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.rounds = max(1, round(
            self.spec.rounds * seconds / REFERENCE_SECONDS))
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0            # queries that timed out
        self.compared = 0
        self.errors = []
        self.reports = []
        self.timings = {key: [] for key in
                        ("setup", "recommend", "configure", "query", "insert")}
        self.pass_rates = []      # queries per second of each workload pass
        self.batches = []
        self.snapshot = WORK_DIR / f"snapshot-{os.getpid()}.pickle"

    def _retire(self, *databases):
        """Done with these copies: the traced run reads their caches."""
        if self.tracer is not None:
            for db in databases:
                self.tracer.retire(db)

    def _timed(self, key, function, *args):
        self.attempted += 1
        start = time.perf_counter()
        result = function(*args)
        self.timings[key].append(time.perf_counter() - start)
        return result

    def execute(self):
        spec = self.spec
        checks = []
        try:
            db, self.workload = self._timed("setup", setup, spec, self.seed)
            WORK_DIR.mkdir(exist_ok=True)
            with open(self.snapshot, "wb") as out:
                pickle.dump(db, out, protocol=pickle.HIGHEST_PROTOCOL)
            self.one_c = one_column_configuration(db.catalog, name="1C")
            self.budget = max(
                0, db.estimated_configuration_bytes(self.one_c)
                - db.estimated_configuration_bytes(db.configuration))
            base = grown = None
            if spec.passes:
                base = AnswerCheck(SqliteReference(db))
                checks.append(base)
            if spec.requery:
                grown = AnswerCheck(SqliteReference(db))
                checks.append(grown)
            del db
            kept = None
            for round_ in range(self.rounds):
                self._setup_again()
                self._recommend()
                databases = self._configure()
                for _ in range(spec.passes):
                    for name in CONFIGS:
                        self._run_workload(databases[name], name, base)
                if grown is None:
                    self._insert(databases[spec.insert_config], round_)
                else:
                    if kept is None:
                        kept = databases.pop(spec.insert_config)
                    self._insert(kept, round_, grown)
                self._retire(*databases.values())
                del databases
            if grown is not None:
                self._check_grown_configs(kept, grown)
                self._retire(kept)
        finally:
            for check in checks:
                check.reference.close()
                self.errors += check.errors
                self.compared += check.compared
            self.snapshot.unlink(missing_ok=True)
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass               # another run's snapshot is still there
        return self

    def _fresh(self, config=None):
        with open(self.snapshot, "rb") as snapshot:
            db = pickle.load(snapshot)
        if config is not None:
            db.apply_configuration(config)
            db.collect_statistics()
        return db

    def _setup_again(self):
        for _ in range(self.spec.setups):
            db, workload = self._timed("setup", setup, self.spec, self.seed)
            if [q.sql for q in workload] != [q.sql for q in self.workload]:
                self.errors.append("set-up sampled a different workload")
            del db

    def _recommend(self):
        for _ in range(self.spec.recommends):
            copy = self._fresh()
            report = self._timed(
                "recommend", WhatIfRecommender(copy).recommend,
                self.workload, self.budget, "R")
            self._retire(copy)
            if not self.reports:
                self.errors += recommendation_errors(
                    report, self.workload, self._fresh, self.budget)
            elif report.configuration.fingerprint != \
                    self.reports[0].configuration.fingerprint:
                self.errors.append("repetitions recommended different "
                                   "configurations")
            self.reports.append(report)

    def _configure(self):
        """Build 1C and R on fresh copies; returns the last P, 1C and R."""
        databases = {}
        for _ in range(self.spec.configures):
            self._retire(*databases.values())
            databases = {"P": self._fresh()}
            total = 0.0
            for config in (self.one_c, self.reports[0].configuration):
                copy = self._fresh()
                self.attempted += 1
                start = time.perf_counter()
                copy.apply_configuration(config)
                copy.collect_statistics()
                total += time.perf_counter() - start
                databases[config.name] = copy
            self.timings["configure"].append(total)
        return databases

    def _run_workload(self, db, config_name, answers, timed=True):
        """One pass of the workload.  A query that times out is a failed
        operation: its answer is partial, so it is not compared."""
        latencies = self.timings["query"]
        first = len(latencies)
        for query in self.workload:
            if timed:
                result = self._timed("query", db.execute, query.sql)
            else:
                self.attempted += 1
                result = db.execute(query.sql)
            if result.timed_out:
                self.failed += 1
            else:
                answers.check(config_name, query.sql, result)
        if timed:
            self.pass_rates.append(
                (len(latencies) - first) / sum(latencies[first:]))

    def _insert(self, db, round_, answers=None):
        spec = self.spec
        table = INSERT_TABLE[spec.dataset]
        for k in range(spec.inserts):
            batch = insert_batch(
                spec, db, seed=self.seed * 1000 + round_ * spec.inserts + k)
            before = db.table(table).row_count
            self._timed("insert", db.insert_rows, table, batch)
            if db.table(table).row_count != before + BATCH_ROWS:
                self.errors.append(f"insert into {table} lost rows")
            if answers is not None:
                self.batches.append(batch)
                answers.reference.insert(table, batch)
                if answers.reference.row_count(table) != \
                        db.table(table).row_count:
                    self.errors.append(
                        f"{table} row count differs from sqlite3's")
                answers.new_data_version()
                self._run_workload(db, spec.insert_config, answers)

    def _check_grown_configs(self, kept, answers):
        """Apply every batch to P and R too (untimed); answers must match
        the kept database's and sqlite's."""
        table = INSERT_TABLE[self.spec.dataset]
        for config in (None, self.reports[0].configuration):
            db = self._fresh(config)
            db.insert_rows(table, {
                column: np.concatenate([b[column] for b in self.batches])
                for column in self.batches[0]})
            if db.table(table).row_count != kept.table(table).row_count:
                self.errors.append(f"{table} row counts differ")
            self._run_workload(db, db.configuration.name, answers,
                               timed=False)
            self._retire(db)

    # -- results ----------------------------------------------------------

    def end_to_end(self):
        t = self.timings
        latencies_ms = np.array(t["query"]) * 1000.0
        values = {
            "setup_s": statistics.median(t["setup"]),
            "recommend_s": statistics.median(t["recommend"]),
            "configure_s": statistics.median(t["configure"]),
            "queries_per_s": statistics.median(self.pass_rates),
            "query_p50_ms": float(np.percentile(latencies_ms, 50)),
            "query_p95_ms": float(np.percentile(latencies_ms, 95)),
            "insert_rows_per_s":
                BATCH_ROWS / statistics.median(t["insert"]),
            "peak_rss_mb": peak_rss_mb(),
        }
        return {name: (values[name], unit)
                for name, unit in END_TO_END_UNITS.items()}

    def query_samples(self):
        return len(self.timings["query"])


def peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB).  The
    sqlite3 references live in child processes and the snapshot on disk,
    so this is the program's databases plus the benchmark's bookkeeping."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
