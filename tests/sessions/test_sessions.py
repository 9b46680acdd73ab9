"""Session-layer unit tests: SQL transaction control, MVCC snapshot
pinning, conflicts, admission gating and per-tenant observability —
over all three backends."""

import pytest

from repro.observability.tracer import Tracer
from repro.replication import ReplicationGroup
from repro.sessions import (
    AdmissionController, AdmissionRejected, HistoryRecorder,
    SessionError, SessionManager,
)
from repro.sharding import ShardedDatabase
from repro.sql import ConflictError, Database, parse_sql


def _single():
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    return db


class TestSqlSurface:
    def test_begin_commit_keywords(self):
        mgr = SessionManager(_single())
        s = mgr.session()
        for begin, end in [("BEGIN", "COMMIT"),
                           ("BEGIN TRANSACTION", "COMMIT WORK"),
                           ("begin work", "commit transaction")]:
            s.execute(begin)
            assert s.in_transaction
            s.execute(end)
            assert not s.in_transaction

    def test_rollback_and_abort(self):
        mgr = SessionManager(_single())
        s = mgr.session()
        s.execute("BEGIN")
        s.execute("DELETE FROM t")
        s.execute("ROLLBACK")
        assert s.query("SELECT count(*) FROM t") == [(3,)]
        s.execute("BEGIN")
        s.execute("DELETE FROM t")
        s.execute("ABORT")
        assert s.query("SELECT count(*) FROM t") == [(3,)]

    def test_autocommit_outside_transaction(self):
        mgr = SessionManager(_single())
        s = mgr.session()
        assert s.execute("UPDATE t SET v = 0 WHERE k = 1") == 1
        assert s.query("SELECT v FROM t WHERE k = 1") == [(0,)]

    def test_control_statement_misuse(self):
        mgr = SessionManager(_single())
        s = mgr.session()
        with pytest.raises(SessionError):
            s.execute("COMMIT")
        with pytest.raises(SessionError):
            s.execute("ROLLBACK")
        s.execute("BEGIN")
        with pytest.raises(SessionError):
            s.execute("BEGIN")
        s.execute("ROLLBACK")

    def test_database_rejects_transaction_control(self):
        db = _single()
        with pytest.raises(TypeError):
            db.execute("BEGIN")
        with pytest.raises(TypeError):
            db.execute("COMMIT")

    def test_context_manager(self):
        mgr = SessionManager(_single())
        with mgr.session() as s:
            s.execute("BEGIN")
            s.execute("UPDATE t SET v = 5 WHERE k = 2")
        assert mgr.session().query(
            "SELECT v FROM t WHERE k = 2") == [(5,)]

    def test_parsed_statements_inside_a_transaction(self, monkeypatch):
        """A statement reaches the open transaction parsed once: parsed
        ASTs are accepted, and SQL text is not parsed a second time."""
        import repro.sql.transactions as transactions
        mgr = SessionManager(_single())
        s = mgr.session()
        s.execute(parse_sql("BEGIN"))
        assert s.execute(parse_sql("INSERT INTO t VALUES (4, 40)")) == 1
        assert s.execute(parse_sql(
            "SELECT v FROM t WHERE k = 4")).rows() == [(40,)]

        def parse_again(sql):
            raise AssertionError("parsed twice: {0!r}".format(sql))

        monkeypatch.setattr(transactions, "parse_sql", parse_again)
        assert s.execute("UPDATE t SET v = 41 WHERE k = 4") == 1
        s.execute("COMMIT")
        assert mgr.session().query(
            "SELECT v FROM t WHERE k = 4") == [(41,)]


class TestSnapshots:
    def test_pinned_snapshot_is_cross_table_consistent(self):
        """BEGIN pins *every* table: a commit landing between BEGIN and
        the first touch of a table must stay invisible."""
        db = _single()
        db.execute("CREATE TABLE u (k BIGINT)")
        db.execute("INSERT INTO u VALUES (1)")
        mgr = SessionManager(db)
        s = mgr.session()
        s.execute("BEGIN")
        db.execute("INSERT INTO u VALUES (2)")
        db.execute("INSERT INTO t VALUES (4, 40)")
        assert s.query("SELECT count(*) FROM u") == [(1,)]
        assert s.query("SELECT count(*) FROM t") == [(3,)]
        s.execute("COMMIT")
        assert s.query("SELECT count(*) FROM u") == [(2,)]

    def test_snapshot_lsn_advances_with_commits(self):
        db = _single()
        mgr = SessionManager(db)
        s = mgr.session()
        s.execute("BEGIN")
        first = s.last_snapshot_lsn
        s.execute("COMMIT")
        db.execute("UPDATE t SET v = 1 WHERE k = 1")
        s.execute("BEGIN")
        assert s.last_snapshot_lsn == first + 1
        s.execute("ROLLBACK")

    def test_first_writer_wins(self):
        mgr = SessionManager(_single())
        a, b = mgr.session("a"), mgr.session("b")
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 1")
        b.execute("UPDATE t SET v = 2 WHERE k = 1")
        a.execute("COMMIT")
        with pytest.raises(ConflictError):
            b.execute("COMMIT")
        assert not b.in_transaction
        assert b.conflicts == 1
        assert mgr.session().query(
            "SELECT v FROM t WHERE k = 1") == [(1,)]

    def test_disjoint_writers_both_commit(self):
        mgr = SessionManager(_single())
        a, b = mgr.session("a"), mgr.session("b")
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 1")
        b.execute("UPDATE t SET v = 2 WHERE k = 2")
        a.execute("COMMIT")
        b.execute("COMMIT")
        rows = mgr.session().query(
            "SELECT k, v FROM t WHERE k < 3 ORDER BY k")
        assert rows == [(1, 1), (2, 2)]


class TestAdmissionGate:
    def test_begin_sheds_at_capacity(self):
        mgr = SessionManager(
            _single(), admission=AdmissionController(max_inflight=1))
        a, b = mgr.session("a"), mgr.session("b")
        a.execute("BEGIN")
        with pytest.raises(AdmissionRejected):
            b.execute("BEGIN")
        assert b.shed == 1 and not b.in_transaction
        a.execute("COMMIT")
        b.execute("BEGIN")  # slot freed
        b.execute("ROLLBACK")

    def test_conflict_releases_slot(self):
        mgr = SessionManager(
            _single(), admission=AdmissionController(max_inflight=2))
        a, b = mgr.session("a"), mgr.session("b")
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 1")
        b.execute("UPDATE t SET v = 2 WHERE k = 1")
        a.execute("COMMIT")
        with pytest.raises(ConflictError):
            b.execute("COMMIT")
        assert mgr.admission.inflight == 0


class TestHistory:
    def test_recorder_captures_lifecycle(self):
        rec = HistoryRecorder()
        mgr = SessionManager(_single(), recorder=rec)
        s = mgr.session("tenant-a")
        s.execute("BEGIN")
        s.execute("SELECT v FROM t WHERE k = 1")
        s.execute("UPDATE t SET v = 11 WHERE k = 1")
        s.execute("COMMIT")
        kinds = [e["event"] for e in rec.events]
        assert kinds == ["begin", "read", "write", "finish"]
        finish = rec.events[-1]
        assert finish["outcome"] == "committed"
        assert finish["write_sets"] == {"t": [0]}
        assert finish["appends"] == {"t": 1}
        assert finish["commit_lsn"] > rec.events[0]["snapshot_lsn"]
        assert mgr.check_isolation() == []

    def test_conflicted_history_still_satisfies_isolation(self):
        rec = HistoryRecorder()
        mgr = SessionManager(_single(), recorder=rec)
        a, b = mgr.session("a"), mgr.session("b")
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("DELETE FROM t WHERE k = 3")
        b.execute("DELETE FROM t WHERE k = 3")
        a.execute("COMMIT")
        with pytest.raises(ConflictError):
            b.execute("COMMIT")
        assert rec.outcomes() == {1: "committed", 2: "conflict"}
        assert mgr.check_isolation() == []


class TestReplicatedBackend:
    def _cluster(self):
        group = ReplicationGroup(n_replicas=2, mode="sync")
        group.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
        group.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        return group

    def test_transaction_and_snapshot_lsn(self):
        group = self._cluster()
        mgr = SessionManager(group, recorder=HistoryRecorder())
        s = mgr.session("a")
        s.execute("BEGIN")
        assert s.last_snapshot_lsn == group.commit_lsn
        s.execute("UPDATE t SET v = 11 WHERE k = 1")
        assert s.query("SELECT v FROM t WHERE k = 1") == [(11,)]
        s.execute("COMMIT")
        group.drain()
        assert s.query("SELECT v FROM t WHERE k = 1") == [(11,)]
        assert mgr.check_isolation() == []

    def test_min_lsn_floor_routes_past_stale_replicas(self):
        """A read whose floor exceeds every replica's LSN must fall
        back to the primary rather than serve stale data."""
        group = self._cluster()
        group.drain()
        before = group.stats.reads_primary
        group.execute("SELECT v FROM t WHERE k = 1",
                      min_lsn=group.commit_lsn + 5)
        assert group.stats.reads_primary == before + 1

    def test_conflict_between_replicated_sessions(self):
        group = self._cluster()
        mgr = SessionManager(group)
        a, b = mgr.session("a"), mgr.session("b")
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 1")
        b.execute("UPDATE t SET v = 2 WHERE k = 1")
        a.execute("COMMIT")
        with pytest.raises(ConflictError):
            b.execute("COMMIT")


class TestShardedBackend:
    def _sharded(self):
        sdb = ShardedDatabase(n_shards=2)
        sdb.execute(
            "CREATE TABLE t (k BIGINT, v BIGINT) PARTITION BY (k)")
        sdb.execute(
            "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        return sdb

    def test_cross_shard_transaction_commits(self):
        rec = HistoryRecorder()
        mgr = SessionManager(self._sharded(), recorder=rec)
        s = mgr.session("a")
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 0 WHERE k = 1")
        s.execute("UPDATE t SET v = 0 WHERE k = 2")
        s.execute("COMMIT")
        assert sorted(mgr.session().query(
            "SELECT v FROM t WHERE k < 3")) == [(0,), (0,)]
        finish = rec.events[-1]
        # The write sets name the shard each row lives on.
        assert all(key.startswith("shard") for key
                   in finish["write_sets"])
        assert mgr.check_isolation() == []

    def test_sharded_conflict(self):
        mgr = SessionManager(self._sharded())
        a, b = mgr.session("a"), mgr.session("b")
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("UPDATE t SET v = 1 WHERE k = 3")
        b.execute("UPDATE t SET v = 2 WHERE k = 3")
        a.execute("COMMIT")
        with pytest.raises(ConflictError):
            b.execute("COMMIT")
        assert mgr.lsn() >= 1


class TestObservability:
    def test_statement_spans_carry_tenant(self):
        db = _single()
        tracer = Tracer()
        mgr = SessionManager(db, tracer=tracer)
        s = mgr.session("acme")
        s.execute("SELECT count(*) FROM t")
        span = tracer.roots[-1]
        assert span.name == "session.statement"
        assert span.attrs["tenant"] == "acme"
        assert span.attrs["session"] == s.session_id

    def test_profile_attributes_tenant(self):
        mgr = SessionManager(_single())
        s = mgr.session("acme")
        profile = s.profile("SELECT sum(v) FROM t")
        assert profile.root.attrs["tenant"] == "acme"
        assert profile.result.rows() == [(60,)]
