"""ShardedDatabase behaviour: routing, scatter-gather, links, merge.

The reference for every assertion is a single-node Database loaded
with the same data — sharding must be invisible to query answers.
"""

import pytest

from repro.faults import FaultInjector
from repro.sharding import (
    ShardedDatabase, ShardUnavailableError,
)
from repro.sql.database import Database
from tests.helpers import assert_same_rows

ROWS = [(k, (k * 7) % 5 + 0.25 * k, "v{0}".format(k % 4))
        for k in range(40)]


def _load(db):
    db.execute("CREATE TABLE t (k BIGINT, v DOUBLE, s VARCHAR) "
               "PARTITION BY (k)")
    db.execute("CREATE TABLE ref (k BIGINT, tag VARCHAR)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1!r}, '{2}')".format(k, v, s) for k, v, s in ROWS))
    db.execute("INSERT INTO ref VALUES " + ", ".join(
        "({0}, 'tag{0}')".format(k) for k in range(0, 40, 3)))
    return db


@pytest.fixture()
def pair():
    return _load(ShardedDatabase(n_shards=4)), _load(Database())


QUERIES = [
    "SELECT k, v, s FROM t",
    "SELECT k FROM t WHERE v > 2.0",
    "SELECT count(*), sum(v), min(v), max(v), avg(v) FROM t",
    "SELECT s, count(*), sum(k) FROM t GROUP BY s",
    "SELECT s, avg(v) FROM t WHERE k < 30 GROUP BY s "
    "HAVING count(*) >= 2",
    "SELECT DISTINCT s FROM t",
    "SELECT t.k, ref.tag FROM t JOIN ref ON t.k = ref.k",
    "SELECT ref.tag, count(*) FROM t JOIN ref ON t.k = ref.k "
    "GROUP BY ref.tag",
    "SELECT k + 1, v * 2 FROM t WHERE s = 'v1'",
    "SELECT count(*) FROM t WHERE v IS NULL",
    "SELECT k FROM t WHERE s IS NOT NULL AND k >= 35",
]


class TestScatterGatherAnswers:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_single_node(self, pair, sql):
        sharded, single = pair
        assert_same_rows(sharded.query(sql), single.query(sql),
                         context=sql)

    def test_order_by_is_totally_ordered_after_merge(self, pair):
        """Regression: a total ORDER BY must survive the shard-stream
        interleave exactly — compared position by position, not as a
        multiset."""
        sharded, single = pair
        for sql in ("SELECT k, v FROM t ORDER BY k",
                    "SELECT k, v FROM t ORDER BY v DESC, k ASC",
                    "SELECT s, k FROM t WHERE k > 5 ORDER BY k DESC",
                    "SELECT s, sum(v) FROM t GROUP BY s ORDER BY s"):
            assert_same_rows(sharded.query(sql), single.query(sql),
                             context=sql, ordered=True)

    def test_order_by_hidden_column_is_stripped(self, pair):
        sharded, single = pair
        sql = "SELECT s FROM t ORDER BY k"
        result = sharded.execute(sql)
        assert result.names == ["s"]
        assert_same_rows(result.rows(), single.query(sql), context=sql,
                         ordered=True)

    def test_order_by_limit_pushes_topk(self, pair):
        sharded, single = pair
        sql = "SELECT k FROM t ORDER BY v DESC, k ASC LIMIT 5"
        assert_same_rows(sharded.query(sql), single.query(sql),
                         context=sql, ordered=True)

    def test_distinct_aggregate_goes_through_gather(self, pair):
        sharded, single = pair
        sql = "SELECT count(DISTINCT s) FROM t"
        before = sharded.stats.gather
        assert sharded.query(sql) == single.query(sql)
        assert sharded.stats.gather == before + 1


class TestRoutingAndPruning:
    def test_key_equality_prunes_to_one_shard(self):
        db = _load(ShardedDatabase(n_shards=4))
        before = (db.stats.pruned, db.stats.scatter)
        assert db.query("SELECT v FROM t WHERE k = 17") == \
            [(ROWS[17][1],)]
        assert db.stats.pruned == before[0] + 1
        assert db.stats.scatter == before[1]  # no fan-out happened

    def test_pruned_select_only_contacts_one_shard(self):
        db = _load(ShardedDatabase(n_shards=4))
        before = db.stats.requests
        db.query("SELECT v FROM t WHERE k = 3")
        assert db.stats.requests == before + 1

    def test_reference_table_query_uses_one_shard(self):
        db = _load(ShardedDatabase(n_shards=4))
        before = (db.stats.single_shard, db.stats.requests)
        assert len(db.query("SELECT k, tag FROM ref")) == 14
        assert db.stats.single_shard == before[0] + 1
        assert db.stats.requests == before[1] + 1

    def test_insert_routes_rows_to_hash_shards(self):
        db = _load(ShardedDatabase(n_shards=4))
        for shard_id, node in enumerate(db.shards):
            local = node.db.query("SELECT k FROM t")
            assert local, "shard {0} got no rows".format(shard_id)
            assert all(db.shard_map.shard_of(k) == shard_id
                       for (k,) in local)

    def test_reference_table_is_broadcast_whole(self):
        db = _load(ShardedDatabase(n_shards=4))
        expected = sorted(db.shards[0].db.query("SELECT k FROM ref"))
        for node in db.shards[1:]:
            assert sorted(node.db.query("SELECT k FROM ref")) == expected

    def test_delete_by_key_prunes(self):
        db = _load(ShardedDatabase(n_shards=4))
        before = db.stats.pruned
        assert db.execute("DELETE FROM t WHERE k = 5") == 1
        assert db.stats.pruned == before + 1
        assert db.query("SELECT count(*) FROM t") == [(39,)]

    def test_explain_shows_plan_kind(self):
        db = _load(ShardedDatabase(n_shards=4))
        assert "SCATTER" in db.explain("SELECT count(*) FROM t")
        assert "pruned" in db.explain("SELECT v FROM t WHERE k = 2")
        assert "GATHER" in db.explain(
            "SELECT count(DISTINCT s) FROM t")

    def test_set_workers_broadcasts(self):
        db = _load(ShardedDatabase(n_shards=2))
        db.execute("SET workers = 2")
        assert all(node.db.default_workers == 2 for node in db.shards)


class TestSingleShardDegrade:
    def test_one_shard_matches_single_node_exactly(self):
        """n_shards=1 must pass every statement through unchanged —
        same rows, same order, no scatter or gather plans."""
        sharded = _load(ShardedDatabase(n_shards=1))
        single = _load(Database())
        for sql in QUERIES + ["SELECT k, v FROM t ORDER BY v, k"]:
            assert_same_rows(sharded.query(sql), single.query(sql),
                             context=sql, ordered=True)
        assert sharded.stats.scatter == 0
        assert sharded.stats.gather == 0


class TestLinkFaults:
    def test_transient_drops_retry_transparently(self):
        faults = FaultInjector()
        db = _load(ShardedDatabase(n_shards=2, faults=faults))
        hit = faults.hits["shard.ship"]
        faults.transient_at("shard.ship", hits=(hit + 1, hit + 2))
        assert_same_rows(db.query("SELECT k FROM t"),
                         [(k,) for k, _, _ in ROWS])
        assert db.stats.retries == 2

    def test_cut_link_raises_then_heals(self):
        db = _load(ShardedDatabase(n_shards=2))
        db.cut(1)
        with pytest.raises(ShardUnavailableError):
            db.query("SELECT k FROM t")
        db.heal(1)
        assert len(db.query("SELECT k FROM t")) == 40

    def test_seeded_link_faults_do_not_change_answers(self):
        faults = FaultInjector.seeded(23, {
            "shard.ship": ("transient", 0.15),
            "shard.ack": ("latency", 0.2, 3),
        })
        db = _load(ShardedDatabase(n_shards=3, faults=faults))
        single = _load(Database())
        for sql in QUERIES:
            assert_same_rows(db.query(sql), single.query(sql),
                             context=sql)
        assert db.stats.retries > 0  # the plan actually fired


class TestObservability:
    def test_tracer_sees_per_shard_spans_and_counters(self):
        from repro.observability.tracer import Tracer
        tracer = Tracer()
        db = _load(ShardedDatabase(n_shards=3, tracer=tracer))
        db.query("SELECT count(*) FROM t")
        root = tracer.roots[-1]
        shard_spans = root.find_all(name="shard.exec")
        assert len(shard_spans) == 3
        assert root.inclusive("shard_shipped_rows") >= 3

    def test_stats_count_shipped_rows_and_bytes(self):
        db = _load(ShardedDatabase(n_shards=2))
        before = (db.stats.shipped_rows, db.stats.shipped_bytes)
        db.query("SELECT k, v FROM t")
        assert db.stats.shipped_rows == before[0] + 40
        assert db.stats.shipped_bytes > before[1]


class TestReplicatedShards:
    def test_answers_survive_a_shard_primary_failover(self):
        db = _load(ShardedDatabase(n_shards=2, replicas=2))
        single = _load(Database())
        group = db.shards[0].group
        group.kill(0)
        group.await_failover()
        for sql in ("SELECT k, v, s FROM t",
                    "SELECT s, count(*) FROM t GROUP BY s"):
            assert_same_rows(db.query(sql), single.query(sql),
                             context=sql)

    def test_transactions_require_plain_shards(self):
        db = ShardedDatabase(n_shards=2, replicas=1)
        with pytest.raises(NotImplementedError):
            db.begin()


@pytest.mark.parametrize("in_transaction", [False, True])
def test_insert_with_one_bad_row_writes_no_shard(in_transaction):
    """A multi-shard INSERT is checked whole before any shard sees it:
    one bad value on a shard-1 key leaves ``t`` empty, in autocommit
    and across BEGIN/COMMIT alike."""
    sdb = ShardedDatabase(n_shards=2)
    sdb.execute("CREATE TABLE t (k INT, v INT) PARTITION BY (k)")
    bad = next(k for k in range(8) if sdb.shard_map.shard_of(k) == 1)
    assert {sdb.shard_map.shard_of(k) for k in range(8)} == {0, 1}
    sql = "INSERT INTO t VALUES " + ", ".join(
        "({0}, {1})".format(k, "'bad'" if k == bad else k)
        for k in range(8))
    if in_transaction:
        txn = sdb.begin()
        with pytest.raises(ValueError):
            txn.execute(sql)
        txn.commit()
    else:
        with pytest.raises(ValueError):
            sdb.execute(sql)
    assert sdb.query("SELECT k FROM t") == []
    for node in sdb.shards:
        assert node.db.query("SELECT k FROM t") == []
