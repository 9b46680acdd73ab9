"""``Database.profile`` and the EXPLAIN / PROFILE statements.

The acceptance bar for the observability subsystem: a serial profile's
root cycle total must match the watched hierarchy's global accounting
(the implementation achieves exact equality; the tests also assert the
1%% criterion explicitly), and a parallel profile's per-worker span
streams must sum back to the worker set's counters exactly.
"""

import pytest

from repro.observability.profiling import QueryProfile
from repro.observability.schema import validate_span_tree
from repro.observability.tracer import Tracer
from repro.sql.database import Database, ResultSet
from repro.wal import WriteAheadLog
from tests.helpers import assert_same_rows


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
    rows = ", ".join("({0}, {1})".format(i % 7, (i * 37) % 100)
                     for i in range(200))
    database.execute("INSERT INTO t VALUES " + rows)
    return database


EXPECTED = [(i % 7, (i * 37) % 100) for i in range(200)
            if (i * 37) % 100 < 50]


# -- serial profiles ----------------------------------------------------------

def test_serial_profile_result_matches_plain_query(db):
    sql = "SELECT k, v FROM t WHERE v < 50"
    profile = db.profile(sql)
    assert isinstance(profile, QueryProfile)
    assert_same_rows(profile.result.rows(), EXPECTED)
    assert_same_rows(db.query(sql), EXPECTED)


def test_serial_root_cycles_match_hierarchy_accounting(db):
    profile = db.profile("SELECT k, v FROM t WHERE v < 50")
    total = profile.hierarchy.total_cycles
    assert total > 0
    assert abs(profile.cycles - total) <= 0.01 * total
    # The implementation is exact, not merely within 1%.
    assert profile.cycles == total


def test_serial_profile_counters_sum_exactly(db):
    profile = db.profile("SELECT k, v FROM t WHERE v < 50")
    spans = list(profile.root.walk())
    hierarchy = profile.hierarchy
    for cache in hierarchy.caches:
        key = cache.name + "_misses"
        assert sum(s.counter(key) for s in spans) == cache.stats.misses
    assert sum(s.counter("TLB_misses") for s in spans) \
        == hierarchy.tlb.stats.misses
    assert sum(s.counter("cpu_cycles") for s in spans) \
        == hierarchy.cpu_cycles
    assert sum(s.counter("accesses") for s in spans) == hierarchy.accesses


def test_serial_profile_span_tree_shape(db):
    profile = db.profile("SELECT k, v FROM t WHERE v < 50")
    root = profile.root
    assert root.name == "query"
    assert root.kind == "query"
    assert root.attrs["engine"] == "serial"
    assert root.attrs["sql"].startswith("SELECT")
    assert [c.name for c in root.children] == ["compile", "execute"]
    operators = root.find_all(kind="operator")
    assert {s.name for s in operators} >= {"sql.tid", "sql.bind"}
    assert profile.counter("tuples_out") > 0
    assert validate_span_tree(profile.to_dict()) == len(list(root.walk()))


def test_profile_text_renders_operator_tree(db):
    text = db.profile("SELECT k, v FROM t WHERE v < 50").text()
    assert text.splitlines()[0].startswith("query [engine=serial]")
    assert "sql.bind" in text
    assert "tuples_out=" in text
    assert "cycles" in text


def test_profile_accepts_custom_hardware_profile(db):
    from repro.hardware.profiles import PENTIUM4_XEON
    profile = db.profile("SELECT k FROM t", hardware_profile=PENTIUM4_XEON)
    assert profile.cycles == profile.hierarchy.total_cycles


def test_last_profile_is_recorded(db):
    assert db.last_profile is None
    profile = db.profile("SELECT k FROM t")
    assert db.last_profile is profile


# -- parallel profiles --------------------------------------------------------

def test_parallel_profile_merges_worker_streams(db):
    sql = "SELECT v, sum(k) s FROM t GROUP BY v"
    profile = db.profile(sql, workers=3)
    root = profile.root
    assert root.attrs["engine"] == "parallel"
    assert root.attrs["workers"] == 3
    assert profile.worker_set is not None
    assert_same_rows(profile.result.rows(), db.query(sql))

    exchange = root.find("exchange")
    workers = exchange.find_all(kind="worker")
    assert len(workers) == 3
    # Tuple conservation over the exchange boundary.
    assert exchange.counter("tuples_out") \
        == sum(w.counter("tuples_out") for w in workers)
    # Morsel spans carry per-morsel attribution.
    morsels = root.find_all(kind="morsel")
    assert morsels
    assert sum(m.counter("tuples_scanned") for m in morsels) == 200


def test_parallel_profile_cycles_sum_to_worker_set(db):
    profile = db.profile("SELECT v, sum(k) s FROM t GROUP BY v",
                         workers=3)
    spans = list(profile.root.walk())
    ws = profile.worker_set
    assert sum(s.counter("cycles") for s in spans) == ws.total_cycles()
    assert sum(s.counter(ws.shared_llc.name + "_misses") for s in spans) \
        == ws.shared_llc.stats.misses


def test_parallel_profile_falls_back_to_serial(db):
    # A DISTINCT aggregate has no parallel plan shape: the profile
    # silently runs the serial engine, like execute().
    before = db.parallel_fallbacks
    profile = db.profile("SELECT count(DISTINCT k) FROM t", workers=2)
    assert db.parallel_fallbacks == before + 1
    assert profile.root.attrs["engine"] == "serial"
    assert profile.hierarchy is not None
    assert profile.result.rows() == [(7,)]


# -- EXPLAIN / PROFILE statements ---------------------------------------------

def test_profile_statement_returns_plan_resultset(db):
    result = db.execute("PROFILE SELECT count(*) FROM t")
    assert isinstance(result, ResultSet)
    assert result.names == ["plan"]
    lines = [row[0] for row in result.rows()]
    assert lines[0].startswith("query")
    assert db.last_profile is not None
    assert db.last_profile.result.rows() == [(200,)]


@pytest.mark.parametrize("path", ["direct", "session", "replicated"])
def test_profile_statement_span_keeps_its_text(path):
    """Sessions and replication groups hand the engine a parsed
    statement; the query span still names the text it came from."""
    from repro.replication import ReplicationGroup
    from repro.sessions import SessionManager
    sql = "PROFILE SELECT k FROM t WHERE k < 2"
    if path == "replicated":
        engine = ReplicationGroup(n_replicas=2, mode="sync")
    else:
        engine = Database()
    run = engine.execute if path == "direct" \
        else SessionManager(engine).session().execute
    run("CREATE TABLE t (k BIGINT)")
    run("INSERT INTO t VALUES (1), (2), (3)")
    run(sql)
    db = engine.primary.db if path == "replicated" else engine
    assert db.last_profile.root.attrs["sql"] == sql


def test_explain_statement_returns_plan_resultset(db):
    result = db.execute("EXPLAIN SELECT k FROM t WHERE k = 1")
    assert result.names == ["plan"]
    lines = [row[0] for row in result.rows()]
    assert lines == db.explain("SELECT k FROM t WHERE k = 1").splitlines()


def test_explain_unwraps_explain_prefix(db):
    assert db.explain("EXPLAIN SELECT k FROM t") \
        == db.explain("SELECT k FROM t")


# -- EXPLAIN / PROFILE of non-SELECT statements (regression) ------------------

@pytest.mark.parametrize("sql, kind", [
    ("INSERT INTO t VALUES (1, 2)", "INSERT"),
    ("DELETE FROM t WHERE k = 1", "DELETE"),
    ("UPDATE t SET v = 0 WHERE k = 1", "UPDATE"),
    ("CREATE TABLE u (a BIGINT)", "CREATE TABLE"),
    ("SET workers = 2", "SET"),
])
def test_explain_non_select_names_statement_kind(db, sql, kind):
    with pytest.raises(TypeError, match="EXPLAIN supports only SELECT "
                       "statements, got " + kind):
        db.explain(sql)
    with pytest.raises(TypeError, match="got " + kind):
        db.execute("EXPLAIN " + sql)


@pytest.mark.parametrize("sql, kind", [
    ("INSERT INTO t VALUES (1, 2)", "INSERT"),
    ("DELETE FROM t WHERE k = 1", "DELETE"),
])
def test_profile_non_select_names_statement_kind(db, sql, kind):
    with pytest.raises(TypeError, match="PROFILE supports only SELECT "
                       "statements, got " + kind):
        db.profile(sql)
    with pytest.raises(TypeError, match="got " + kind):
        db.execute("PROFILE " + sql)


def test_profile_rejects_bad_worker_count(db):
    with pytest.raises(ValueError):
        db.profile("SELECT k FROM t", workers=0)


# -- session tracer -----------------------------------------------------------

def test_session_tracer_records_statement_spans():
    tracer = Tracer()
    db = Database(wal=WriteAheadLog(), tracer=tracer)
    db.execute("CREATE TABLE t (k BIGINT)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    assert db.query("SELECT k FROM t WHERE k > 1") == [(2,), (3,)]
    assert [s.name for s in tracer.roots] == ["statement"] * 3
    assert tracer.roots[2].attrs["sql"].startswith("SELECT")
    # The WAL reports frame bytes into the session trace: the CREATE
    # and the INSERT each log one record, and together they account
    # for every byte in the log.
    logged = sum(s.inclusive("wal_bytes") for s in tracer.roots)
    assert tracer.roots[1].inclusive("wal_bytes") > 0
    assert logged == db.wal.size_bytes
    # The interpreter nests operator spans under the SELECT statement.
    assert tracer.roots[2].find_all(kind="operator")


def test_recycler_hits_are_counted():
    tracer = Tracer()
    db = Database.with_recycling()
    db.tracer = tracer
    db.interpreter.tracer = tracer
    db.execute("CREATE TABLE t (k BIGINT)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    with tracer.span("repeat") as span:
        db._execute_statement("SELECT k FROM t WHERE k > 1")
        db._execute_statement("SELECT k FROM t WHERE k > 1")
    assert span.inclusive("recycler_hits") > 0
