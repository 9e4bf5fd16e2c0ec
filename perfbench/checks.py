"""Output checks: query answers against sqlite3, recommendation properties.

Both run outside the timed regions.  A check never raises on a wrong
output; it records a message, and the run reports ``correct: false``.
"""

import multiprocessing
import sqlite3
import traceback
from collections import Counter

FLOAT_DIGITS = 6


def normalize(rows):
    """Rows as a multiset, numbers compared as floats rounded."""

    def value(v):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return round(float(v), FLOAT_DIGITS)
        return v

    return Counter(tuple(value(v) for v in row) for row in rows)


class SqliteReference:
    """The generated tables, and every inserted batch, in stdlib sqlite3.

    sqlite runs in a child process, forked with the database in memory, so
    that neither sqlite's pages nor the Python rows it is loaded from count
    in the run's ``peak_rss_mb``.  Each column gets its own index so the
    reference answers of a workload take well under a second; indexes
    never change an answer.
    """

    def __init__(self, database):
        context = multiprocessing.get_context("fork")
        self._pipe, child = context.Pipe()
        self._process = context.Process(
            target=_serve, args=(database, child, self._pipe), daemon=True)
        self._process.start()
        child.close()
        self._answers = {}
        self._call("ready")

    def _call(self, *request):
        self._pipe.send(request)
        status, value = self._pipe.recv()
        if status != "ok":
            raise RuntimeError(f"sqlite3 reference failed:\n{value}")
        return value

    def insert(self, table_name, columns):
        self._call("insert", table_name, columns)
        self._answers.clear()

    def answer(self, sql):
        if sql not in self._answers:
            self._answers[sql] = self._call("answer", sql)
        return self._answers[sql]

    def row_count(self, table_name):
        return self._call("row_count", table_name)

    def close(self):
        """Stop the child and wait for it to end."""
        if self._process.is_alive():
            try:
                self._pipe.send(("close",))
            except OSError:
                pass
        self._process.join(timeout=30)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._pipe.close()


def _serve(database, pipe, parent_end):
    """The child: load ``database`` into sqlite3, then answer requests.
    It closes its copy of the parent's end, so that it sees end-of-file
    and stops if the parent dies."""
    parent_end.close()
    con = sqlite3.connect(":memory:")

    def insert(table_name, columns):
        names = list(columns)
        rows = zip(*(columns[c].tolist() for c in names))
        marks = ", ".join("?" * len(names))
        con.executemany(
            f"INSERT INTO {table_name} ({', '.join(names)}) "
            f"VALUES ({marks})", rows)

    def load():
        for name, table in database.tables.items():
            columns = table.column_names()
            con.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            insert(name, {c: table.column(c) for c in columns})
            for column in columns:
                con.execute(
                    f"CREATE INDEX ix_{name}_{column} ON {name} ({column})")

    handlers = {
        "ready": load,
        "insert": insert,
        "answer": lambda sql: normalize(con.execute(sql).fetchall()),
        "row_count": lambda table_name: con.execute(
            f"SELECT COUNT(*) FROM {table_name}").fetchone()[0],
    }
    while True:
        try:
            request = pipe.recv()
        except EOFError:
            break
        if request[0] == "close":
            break
        try:
            pipe.send(("ok", handlers[request[0]](*request[1:])))
        except Exception:  # reported to the parent, which raises
            pipe.send(("error", traceback.format_exc()))
    con.close()
    pipe.close()


class AnswerCheck:
    """Compares one pass of answers with sqlite and with the other
    configurations' answers on the same data."""

    def __init__(self, reference):
        self.reference = reference
        self.errors = []
        self.compared = 0
        self._by_config = {}       # sql -> (config name, answer)

    def new_data_version(self):
        """Answers before an insert are not compared with those after."""
        self._by_config.clear()

    def check(self, config_name, sql, result):
        """Compare one answer; the caller counts a timed-out query as a
        failed operation and does not pass it here."""
        answer = normalize(result.rows())
        self.compared += 1
        if answer != self.reference.answer(sql):
            self.errors.append(
                f"{config_name}: answer differs from sqlite3: {sql}")
        first = self._by_config.setdefault(sql, (config_name, answer))
        if first[1] != answer:
            self.errors.append(
                f"{config_name}: answer differs from {first[0]}: {sql}")


def recommendation_errors(report, workload, fresh, budget):
    """Properties every recommendation must have, re-priced on a fresh
    copy of the database (``fresh()`` returns one, in P)."""
    errors = []
    if report.budget_bytes != budget:
        errors.append(f"budget {report.budget_bytes} != {budget}")
    if report.used_bytes > report.budget_bytes:
        errors.append(f"used {report.used_bytes} bytes over the budget "
                      f"of {report.budget_bytes}")
    if report.estimated_cost > report.base_cost:
        errors.append(f"estimated cost {report.estimated_cost} above the "
                      f"base cost {report.base_cost}")
    config = report.configuration
    copy = fresh()
    used = (copy.estimated_configuration_bytes(config)
            - copy.estimated_configuration_bytes(copy.configuration))
    if used != report.used_bytes:
        errors.append(f"used_bytes {report.used_bytes} != size(R) - "
                      f"size(P) = {used}")
    copy = fresh()
    priced = sum([
        copy.estimate_hypothetical(q.sql, config, force_hypothetical=True)
        * q.weight for q in workload
    ])
    if priced != report.estimated_cost:
        errors.append(f"estimated_cost {report.estimated_cost} != "
                      f"re-priced {priced}")
    return errors
