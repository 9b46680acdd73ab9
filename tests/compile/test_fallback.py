"""Fault injection at the ``compile.codegen`` site.

A codegen failure mid-query must be invisible to the caller: the query
falls back to the interpreter and returns correct results.  The sweep
follows the repo's crash_points pattern — a fault-free dry run observes
every ``compile.*`` site hit, then the scenario re-runs once per
(site, hit) with a crash armed there.  Because compilation failures
are absorbed (never negative-cached), a later repeat of the same query
must compile and hit the cache normally.
"""

import pytest

from repro.faults import FaultInjector, crash_points
from repro.sql.database import Database

QUERIES = [
    "SELECT k, v FROM t WHERE k > 10 AND v < 80",
    "SELECT sum(v), count(*) FROM t WHERE k > 5",
    "SELECT g, sum(v) FROM t WHERE k > 2 GROUP BY g",
]


def _scenario(faults):
    db = Database(faults=faults)
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, g INTEGER)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1}, {2})".format(i, (i * 37) % 100, i % 3)
        for i in range(80)))
    return db, [db.query(sql) for sql in QUERIES]


def _expected():
    db = Database()
    db.execute("SET compile = false")
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, g INTEGER)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1}, {2})".format(i, (i * 37) % 100, i % 3)
        for i in range(80)))
    return [sorted(db.query(sql)) for sql in QUERIES]


def _observed_points():
    injector = FaultInjector()
    _scenario(injector)
    points = crash_points(injector.observed(),
                          sites={"compile.codegen"})
    assert points, "dry run never reached compile.codegen"
    return points


def test_codegen_site_is_hit_once_per_fresh_shape():
    injector = FaultInjector()
    db, _ = _scenario(injector)
    assert injector.observed().get("compile.codegen") == len(QUERIES)
    # Warm shapes skip codegen entirely — no second hit per query.
    for sql in QUERIES:
        db.query(sql)
    assert injector.observed().get("compile.codegen") == len(QUERIES)


@pytest.mark.parametrize("point", _observed_points(),
                         ids=lambda p: "{0}@{1}".format(*p))
def test_codegen_crash_falls_back_to_interpreter(point):
    site, hit = point
    injector = FaultInjector().crash_at(site, hit)
    db, results = _scenario(injector)
    assert [(s, h) for s, h, _ in injector.fired] == [point]
    for sql, rows, want in zip(QUERIES, results, _expected()):
        assert sorted(rows) == want, \
            "crash at {0}#{1} corrupted {2!r}".format(site, hit, sql)
    stats = db.plan_compiler.counters()
    assert stats["codegen_faults"] == 1
    # The failed shape was not negative-cached: re-running the query
    # compiles it now that the fault is spent.
    crashed_sql = QUERIES[hit - 1]
    runs_before = stats["compiled_runs"]
    assert sorted(db.query(crashed_sql)) == \
        _expected()[hit - 1]
    assert db.plan_compiler.stats["compiled_runs"] == runs_before + 1


def test_transient_codegen_fault_also_falls_back():
    injector = FaultInjector().transient_at("compile.codegen", hits=(1,))
    db, results = _scenario(injector)
    for rows, want in zip(results, _expected()):
        assert sorted(rows) == want
    assert db.plan_compiler.stats["codegen_faults"] == 1
    assert db.plan_compiler.stats["compiled_runs"] == len(QUERIES) - 1
