"""SQL-level parallel execution: pragma, fallback, and determinism."""

import pytest

from repro.hardware.profiles import TINY_SMP
from repro.parallel import ParallelSelectExecutor
from repro.sql.database import Database
from tests.helpers import assert_same_rows


def make_db(**kwargs):
    return load(Database(**kwargs))


def load(db):
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR(8))")
    rows = ", ".join(
        "({0}, {1}, '{2}')".format(i, (i * 37) % 100, "tag{0}".format(i % 5))
        for i in range(500))
    db.execute("INSERT INTO t VALUES " + rows)
    return db


QUERIES = [
    "SELECT a, b FROM t WHERE b < 40",
    "SELECT a + b, a * 2 FROM t WHERE a >= 100 AND b <> 3",
    "SELECT count(*), sum(a), min(b), max(b), avg(a) FROM t",
    "SELECT s, count(*), sum(b) FROM t GROUP BY s",
    "SELECT s, sum(a) FROM t GROUP BY s HAVING sum(a) > 10000",
    "SELECT DISTINCT s FROM t WHERE a < 250",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_parallel_matches_serial(sql):
    db = make_db()
    serial = db.query(sql)
    for workers in (2, 3, 4):
        assert_same_rows(db.query(sql, workers=workers), serial,
                         context="workers={0}".format(workers))
    assert db.parallel_fallbacks == 0


def test_workers_pragma_sets_session_default():
    db = make_db()
    assert db.options.workers == 1
    db.execute("SET workers = 4")
    assert db.options.workers == 4
    before = db.parallel_runs
    assert db.query("SELECT count(*) FROM t") == [(500,)]
    assert db.parallel_runs == before + 1
    # Explicit workers= overrides the session default back to serial.
    db.query("SELECT count(*) FROM t", workers=1)
    assert db.parallel_runs == before + 1


def test_workers_pragma_validation():
    db = make_db()
    with pytest.raises(ValueError):
        db.execute("SET workers = 0")
    with pytest.raises(ValueError):
        db.execute("SET workers = 1.5")
    with pytest.raises(ValueError):
        db.execute("SET bogus = 3")
    with pytest.raises(ValueError):
        db.execute("SELECT a FROM t", workers=0)
    # One check for execute, profile and the pragma: a positive int
    # that is not a bool, else ValueError.
    for bad in (2.5, "4", True, -1):
        with pytest.raises(ValueError):
            db.execute("SELECT a FROM t", workers=bad)
        with pytest.raises(ValueError):
            db.profile("SELECT a FROM t", workers=bad)
    with pytest.raises(ValueError):
        db.execute("SET workers = true")
    assert db.options.workers == 1


def test_unsupported_shape_falls_back_to_serial():
    db = make_db()
    # A DISTINCT aggregate does not split into mergeable partials, so
    # the engine silently runs it serially.
    sql = "SELECT count(DISTINCT b) FROM t"
    assert db.query(sql, workers=4) == db.query(sql) == [(100,)]
    assert db.parallel_fallbacks == 1
    assert db.parallel_runs == 0


def test_self_join_falls_back_to_serial():
    """A range view restricts a table by name, so both sides of a
    self-join would shrink to one morsel and pairs across ranges would
    be lost; the engine runs the self-join serially instead."""
    db = make_db()
    sql = "SELECT x.a, y.a FROM t x JOIN t y ON x.a = y.b"
    serial = db.query(sql)
    assert len(serial) == 500
    assert_same_rows(db.query(sql, workers=4), serial)
    assert db.parallel_fallbacks == 1
    assert db.parallel_runs == 0


def test_limit_without_order_by_matches_serial_scan_order():
    db = make_db()
    sql = "SELECT a, s FROM t WHERE b > 50 LIMIT 7"
    assert db.query(sql, workers=4) == db.query(sql)
    assert db.parallel_runs == 1


def test_order_by_is_preserved_in_parallel():
    db = make_db()
    sql = "SELECT a, b FROM t WHERE b < 30 ORDER BY b DESC, a ASC LIMIT 10"
    assert db.query(sql, workers=4) == db.query(sql)
    assert db.parallel_runs == 1


def test_parallel_profile_reports_workers():
    db = make_db(smp_profile=TINY_SMP)
    db.query("SELECT a, b FROM t WHERE b < 50", workers=2)
    report = db.last_parallel.profile()
    assert "worker-0" in report and "worker-1" in report
    assert "shared_llc" in report
    assert report["cycles"]["worker-0"] > 0


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_determinism_rows_and_misses(workers):
    """Same query, same data: bit-identical rows *and* identical
    simulated cache traffic, run after run."""

    def run():
        db = make_db(smp_profile=TINY_SMP)
        executor = ParallelSelectExecutor(db, workers,
                                          smp_profile=TINY_SMP)
        from repro.sql.parser import parse_sql
        select = parse_sql("SELECT a, a + b FROM t WHERE b < 60")
        result = executor.execute(select)
        rows = list(zip(*result.columns))
        return rows, result.worker_set.miss_counts()

    rows_a, misses_a = run()
    rows_b, misses_b = run()
    assert rows_a == rows_b
    assert misses_a == misses_b
    assert any(misses_a.values())


def test_worker_counts_agree_on_the_answer():
    """Different worker counts agree on the answer as a multiset even
    though the exchange interleaving (and hence row order) differs."""
    db = make_db(smp_profile=TINY_SMP)
    sql = "SELECT a, b FROM t WHERE a % 3 = 0"
    serial = db.query(sql)
    for workers in (2, 4):
        assert_same_rows(db.query(sql, workers=workers), serial)


@pytest.mark.parametrize("pipeline", ["cracking", "recycling"])
def test_range_views_keep_morsels_apart(pipeline, monkeypatch):
    """Each worker reads the first table through a view restricted to
    its morsel's oids: a cracked select answers only oids in the range,
    and every range is its own table version, so the recycler never
    serves one morsel's intermediate to another — across a DELETE too.
    """
    from repro.parallel.executor import _RangeView
    calls = {"crack": [], "version": []}
    cracked_select = _RangeView.cracked_select
    table_version = _RangeView.table_version

    def spy_crack(view, table, *args):
        out = cracked_select(view, table, *args)
        calls["crack"].append((set(view.oids.tolist()), out.tail.tolist()))
        return out

    def spy_version(view, table):
        version = table_version(view, table)
        calls["version"].append((tuple(view.oids.tolist()), version))
        return version

    monkeypatch.setattr(_RangeView, "cracked_select", spy_crack)
    monkeypatch.setattr(_RangeView, "table_version", spy_version)
    db = load(getattr(Database, "with_" + pipeline)())
    sql = "SELECT a, b FROM t WHERE a > 37 AND a < 300"
    for _ in range(2):
        runs = db.parallel_runs
        assert_same_rows(db.query(sql, workers=4), db.query(sql))
        assert db.parallel_runs == runs + 1
        db.execute("DELETE FROM t WHERE b < 10")
    if pipeline == "cracking":
        assert calls["crack"]
        for oids, found in calls["crack"]:
            assert set(found) <= oids
    else:
        versions = {}
        for oids, version in calls["version"]:
            versions.setdefault(version, set()).add(oids)
        # One version per range: no two ranges share a recycler key.
        assert len(versions) == 8
        assert all(len(ranges) == 1 for ranges in versions.values())
