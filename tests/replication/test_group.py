"""ReplicationGroup behaviour under friendly skies: shipping, durability
modes, read routing, catch-up and the zero-replica degradation."""

import json

import pytest

from repro.faults import FaultInjector
from repro.observability.tracer import Tracer
from repro.replication import (
    NotPrimaryError, QuorumTimeout, ReplicationGroup,
)
from tests.helpers import assert_same_rows


def seeded_group(n_replicas=2, mode="sync", **kwargs):
    g = ReplicationGroup(n_replicas=n_replicas, mode=mode, **kwargs)
    g.execute("CREATE TABLE t (k INT, v INT)")
    return g


class TestShipping:
    def test_sync_commit_replicates_before_returning(self):
        g = seeded_group()
        g.execute("INSERT INTO t VALUES (1, 10)")
        # Quorum (primary + 1 of 2 replicas) must hold the entry.
        holders = [n for n in g.nodes if n.last_lsn == g.primary.last_lsn]
        assert len(holders) >= g.quorum
        assert g.commit_lsn == g.primary.last_lsn

    def test_async_commit_returns_before_replication(self):
        g = seeded_group(mode="async")
        g.execute("INSERT INTO t VALUES (1, 10)")
        assert g.max_lag() > 0        # replicas have not heard yet
        g.drain()
        assert g.max_lag() == 0
        for n in g.nodes:
            assert n.db.query("SELECT k, v FROM t") == [(1, 10)]

    def test_all_statement_kinds_replicate(self):
        g = seeded_group()
        g.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        g.execute("UPDATE t SET v = v + 1 WHERE k < 3")
        g.execute("DELETE FROM t WHERE k = 2")
        g.drain()
        want = [(1, 11), (3, 30)]
        for n in g.nodes:
            assert_same_rows(n.db.query("SELECT k, v FROM t"), want)
        assert g.divergence_report() == []

    def test_replica_logs_match_checksum_for_checksum(self):
        g = seeded_group()
        for i in range(5):
            g.execute("INSERT INTO t VALUES ({0}, {0})".format(i))
        g.drain()
        primary = g.primary
        for n in g.nodes:
            for lsn in range(primary.last_lsn + 1):
                assert n.log.checksum_at(lsn) == \
                    primary.log.checksum_at(lsn)

    def test_shipping_counts_bytes_and_entries(self):
        g = seeded_group()
        g.execute("INSERT INTO t VALUES (1, 10)")
        g.drain()
        assert g.stats.shipped_entries >= 2   # 2 records x 2 replicas
        assert g.stats.shipped_bytes > 0
        assert g.stats.acks > 0

    def test_each_node_encodes_a_record_once(self, monkeypatch):
        """The WAL's one encode gives the checksum and the shipped size:
        shipping, re-shipping and the duplicate check never re-encode."""
        g = seeded_group()
        g.drain()
        encoded = []
        dumps = json.dumps

        def spy(obj, **kwargs):
            encoded.append(obj)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        g.execute("INSERT INTO t VALUES (1, 10)")
        g.drain()
        assert len(encoded) == len(g.nodes) == 3
        assert all(n.last_lsn == g.primary.last_lsn for n in g.nodes)

    def test_replicated_transaction_commits_under_quorum(self):
        g = seeded_group()
        with g.begin() as txn:
            txn.execute("INSERT INTO t VALUES (7, 70)")
            txn.execute("INSERT INTO t VALUES (8, 80)")
        assert txn.outcome == "committed"
        assert g.commit_lsn == g.primary.last_lsn
        g.drain()
        for n in g.nodes:
            assert_same_rows(n.db.query("SELECT k, v FROM t"),
                             [(7, 70), (8, 80)])

    def test_transaction_abort_ships_nothing(self):
        g = seeded_group()
        shipped = g.stats.shipped_entries
        with pytest.raises(ZeroDivisionError):
            with g.begin() as txn:
                txn.execute("INSERT INTO t VALUES (9, 90)")
                raise ZeroDivisionError()
        assert txn.outcome == "aborted"
        g.drain()
        assert g.query("SELECT k, v FROM t") == []


class TestQuorum:
    def test_sync_commit_times_out_without_quorum(self):
        g = seeded_group(sync_timeout=10)
        g.kill(1)
        g.kill(2)   # no replica can ack: quorum of 2 is unreachable
        with pytest.raises(QuorumTimeout):
            g.execute("INSERT INTO t VALUES (1, 10)")
        assert g.stats.quorum_timeouts == 1
        # The entry is in the primary's log — fate unknown, not lost.
        assert g.primary.last_lsn > g.commit_lsn

    def test_unacked_commit_lands_once_replicas_return(self):
        g = seeded_group(sync_timeout=10)
        g.kill(1)
        g.kill(2)
        with pytest.raises(QuorumTimeout):
            g.execute("INSERT INTO t VALUES (1, 10)")
        g.restart(1)
        g.restart(2)
        g.drain()
        assert g.commit_lsn == g.primary.last_lsn
        for n in g.nodes:
            assert n.db.query("SELECT k, v FROM t") == [(1, 10)]


class TestReadRouting:
    def test_selects_load_balance_across_replicas(self):
        g = seeded_group()
        g.execute("INSERT INTO t VALUES (1, 10)")
        g.drain()
        for _ in range(4):
            assert g.query("SELECT k, v FROM t") == [(1, 10)]
        assert g.stats.reads_replica == 4
        assert g.stats.reads_primary == 0

    def test_lagging_replicas_not_read(self):
        g = seeded_group(mode="async")
        g.execute("INSERT INTO t VALUES (1, 10)")
        g.commit_lsn = g.primary.last_lsn  # require the freshest read
        # No ticks: replicas lag, so the read must hit the primary.
        assert g.query("SELECT k, v FROM t") == [(1, 10)]
        assert g.stats.reads_primary == 1

    def test_read_your_writes_session(self):
        g = seeded_group(mode="async")
        session = g.session()
        session.execute("INSERT INTO t VALUES (1, 10)")
        # Replicas have not applied the write yet; the session read
        # must still observe it (routes to a caught-up node).
        assert session.query("SELECT k, v FROM t") == [(1, 10)]
        g.drain()
        assert session.query("SELECT k, v FROM t") == [(1, 10)]

    def test_plain_reads_may_lag_but_sessions_do_not(self):
        g = seeded_group(mode="async")
        g.execute("INSERT INTO t VALUES (1, 10)")
        # A plain read (no session) may legally see the older state.
        plain = g.query("SELECT count(*) FROM t")
        assert plain in ([(0,)], [(1,)])

    def test_pragmas_govern_replica_reads(self):
        g = seeded_group()
        g.execute("INSERT INTO t VALUES " + ", ".join(
            "({0}, {1})".format(i, i % 5) for i in range(40)))
        g.drain()
        g.execute("SET workers = 4")
        g.execute("SET compile = false")
        assert sorted(g.query("SELECT k, v FROM t WHERE v = 3")) == \
            [(i, 3) for i in range(3, 40, 5)]
        assert g.stats.reads_replica == 1
        served = [n for n in g.replicas() if n.db.parallel_runs]
        assert len(served) == 1
        assert [(n.db.options.workers, n.db.options.compile)
                for n in g.nodes] == [(4, False)] * len(g.nodes)


class TestCatchUp:
    def test_restarted_replica_catches_up_from_its_lsn(self):
        g = seeded_group()
        g.execute("INSERT INTO t VALUES (1, 10)")
        g.drain()
        g.kill(2)
        for i in range(2, 6):
            g.execute("INSERT INTO t VALUES ({0}, {1})".format(i, i))
        g.restart(2)
        mid = g.nodes[2].last_lsn
        assert 0 <= mid < g.primary.last_lsn  # genuinely behind
        g.drain()
        assert g.nodes[2].last_lsn == g.primary.last_lsn
        assert_same_rows(g.nodes[2].db.query("SELECT k, v FROM t"),
                         g.primary.db.query("SELECT k, v FROM t"))

    def test_empty_replica_full_catchup(self):
        g = seeded_group()
        for i in range(20):
            g.execute("INSERT INTO t VALUES ({0}, {1})".format(i, i))
        fresh = g.restart(2)   # recover + resync is a no-op for a
        g.drain()              # healthy node; catch-up from LSN 0 is
        assert fresh.last_lsn == g.primary.last_lsn


class TestZeroReplicaDegradation:
    """A group with no replicas is exactly the single-node Database."""

    def test_writes_commit_instantly(self):
        g = ReplicationGroup(n_replicas=0)
        g.execute("CREATE TABLE t (k INT)")
        g.execute("INSERT INTO t VALUES (1)")
        assert g.clock.now == 0          # no ticks were needed
        assert g.commit_lsn == g.primary.last_lsn

    def test_matches_plain_database(self):
        from repro.sql.database import Database
        from repro.wal import WriteAheadLog
        g = ReplicationGroup(n_replicas=0)
        db = Database(wal=WriteAheadLog())
        for target in (g, db):
            target.execute("CREATE TABLE t (k INT, v INT)")
            target.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
            target.execute("UPDATE t SET v = 0 WHERE k = 1")
        assert g.query("SELECT k, v FROM t") == \
            db.query("SELECT k, v FROM t")

    def test_reads_hit_the_primary(self):
        g = ReplicationGroup(n_replicas=0)
        g.execute("CREATE TABLE t (k INT)")
        g.query("SELECT k FROM t")
        assert g.stats.reads_primary == 1

    def test_never_fails_over(self):
        g = ReplicationGroup(n_replicas=0)
        g.execute("CREATE TABLE t (k INT)")
        g.tick(50)
        assert g.stats.failovers == 0
        assert g.primary is g.nodes[0]


class TestFencedLogWrites:
    def test_unstamped_append_on_fenced_log_rejected(self):
        g = seeded_group()
        g.nodes[1].log.stamp = None   # replicas are fenced by default
        with pytest.raises(NotPrimaryError):
            g.nodes[1].log.append({"kind": "commit", "ops": []})


class TestObservability:
    def test_write_span_carries_replication_counters(self):
        tracer = Tracer()
        g = ReplicationGroup(n_replicas=2, tracer=tracer)
        g.execute("CREATE TABLE t (k INT)")
        g.execute("INSERT INTO t VALUES (1)")
        tracer.end_all()
        spans = [s for root in tracer.roots
                 for s in root.walk() if s.name == "repl.write"]
        assert spans
        last = spans[-1]
        assert last.counters["repl_acked_lsn"] == g.commit_lsn
        assert "repl_lag" in last.counters
        totals = {}
        for root in tracer.roots:
            for s in root.walk():
                for k, v in s.counters.items():
                    totals[k] = totals.get(k, 0) + v
        assert totals.get("repl_shipped_bytes", 0) > 0

    def test_read_span_names_the_serving_node(self):
        tracer = Tracer()
        g = ReplicationGroup(n_replicas=1, tracer=tracer)
        g.execute("CREATE TABLE t (k INT)")
        g.drain()
        g.query("SELECT k FROM t")
        tracer.end_all()
        reads = [s for root in tracer.roots
                 for s in root.walk() if s.name == "repl.read"]
        assert reads and "node" in reads[-1].attrs
