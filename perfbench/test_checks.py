"""The benchmark's output checks catch wrong outputs.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import pathlib
import pickle
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from checks import (  # noqa: E402
    AnswerCheck,
    SqliteReference,
    recommendation_errors,
)
from pipeline import Run, Workload, setup  # noqa: E402
from repro.engine.configuration import one_column_configuration  # noqa: E402
from repro.engine.database import QueryResult  # noqa: E402
from repro.recommender.whatif import WhatIfRecommender  # noqa: E402

TINY = Workload(
    system="A", family="NREF2J", scale=0.02, size=8, rounds=1,
    setups=0, recommends=1, configures=1, passes=1,
    inserts=1, insert_config="1C", requery=True,
)


@pytest.fixture(scope="module")
def tiny():
    db, workload = setup(TINY, seed=3)
    one_c = one_column_configuration(db.catalog, name="1C")
    budget = (db.estimated_configuration_bytes(one_c)
              - db.estimated_configuration_bytes(db.configuration))
    snapshot = pickle.dumps(db)
    report = WhatIfRecommender(pickle.loads(snapshot)).recommend(
        workload, budget, "R")
    return db, workload, snapshot, budget, report, one_c


class _Perturbed:
    """A query result whose first row has one value changed."""

    timed_out = False

    def __init__(self, result):
        self._rows = result.rows()

    def rows(self):
        first = list(self._rows[0])
        first[-1] = first[-1] + 1
        return [tuple(first)] + self._rows[1:]


@pytest.fixture
def reference(tiny):
    reference = SqliteReference(tiny[0])
    yield reference
    reference.close()


class _TimesOut:
    """A database on which every query times out."""

    def execute(self, sql):
        return QueryResult(sql=sql, elapsed=1.0, timed_out=True, plan=None)


def test_true_answers_pass(tiny, reference):
    db, workload, *_ = tiny
    check = AnswerCheck(reference)
    for query in workload:
        check.check("P", query.sql, db.execute(query.sql))
    assert check.compared == len(list(workload))
    assert check.errors == []


def test_perturbed_answer_is_caught(tiny, reference):
    db, workload, *_ = tiny
    check = AnswerCheck(reference)
    query = next(q for q in workload if db.execute(q.sql).rows())
    check.check("P", query.sql, db.execute(query.sql))
    check.check("R", query.sql, _Perturbed(db.execute(query.sql)))
    assert len(check.errors) == 2
    assert "differs from sqlite3" in check.errors[0]
    assert "differs from P" in check.errors[1]


def test_recommendation_properties_hold(tiny):
    _db, workload, snapshot, budget, report, _ = tiny
    assert recommendation_errors(
        report, workload, lambda: pickle.loads(snapshot), budget) == []


def test_over_budget_configuration_is_caught(tiny):
    _db, workload, snapshot, budget, report, one_c = tiny
    fresh = pickle.loads(snapshot)
    bloated = report.configuration.with_indexes(
        [ix for ix in one_c.indexes
         if ix not in report.configuration.indexes])
    used = (fresh.estimated_configuration_bytes(bloated)
            - fresh.estimated_configuration_bytes(fresh.configuration))
    assert used > budget
    over = dataclasses.replace(report, configuration=bloated,
                               used_bytes=used)
    errors = recommendation_errors(
        over, workload, lambda: pickle.loads(snapshot), budget)
    assert any("over the budget" in error for error in errors)


def test_timed_out_query_is_a_failed_operation(tiny):
    _db, workload, *_ = tiny
    run = Run("measure-nref", seed=1, seconds=30)
    run.workload = workload
    check = AnswerCheck(reference=None)
    run._run_workload(_TimesOut(), "P", check)
    assert run.failed == run.attempted == len(list(workload))
    assert check.compared == 0 and check.errors == []
