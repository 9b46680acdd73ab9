"""Online resharding: live split/merge/move with a fenced cutover.

The centrepiece mirrors the 2PC suite's discipline: a fault-free dry
run of a full online split records every hit of the migration's phase
fault sites, then the scenario re-runs once per (site, hit) with a
crash armed there — after ``recover()`` (which resumes or completes
the migration from the durable decision log) the data must be exactly
what a never-crashed run produces, and a converged migration must
never double-apply a delta or lose a copied row.
"""

import pytest

from repro.faults import CrashError, FaultInjector
from repro.faults.injector import crash_points
from repro.sharding import (
    MigrationInProgressError, ShardMap, ShardedDatabase, StaleEpochError,
)
from repro.sharding.resharding import PHASE_SITES, ReshardingError

N_ROWS = 30


def _make(faults=None, n_shards=2, wal_dir=None):
    db = ShardedDatabase(n_shards=n_shards, faults=faults,
                         wal_dir=str(wal_dir) if wal_dir else None)
    db.execute("CREATE TABLE kv (k BIGINT, v BIGINT, lbl VARCHAR) "
               "PARTITION BY (k)")
    db.execute("CREATE TABLE tags (t BIGINT, n BIGINT)")
    db.execute("INSERT INTO kv VALUES " + ", ".join(
        "({0}, {1}, '{2}')".format(k, k * 7, "abc"[k % 3])
        for k in range(N_ROWS)))
    db.execute("INSERT INTO tags VALUES (901, 1), (902, 2)")
    return db


def _snapshot(db):
    return (sorted(db.query("SELECT k, v, lbl FROM kv")),
            sorted(db.query("SELECT t, n FROM tags")))


def _finish(db, guard=2000):
    while db.migration is not None and not db.migration.finished:
        db.migration.step()
        guard -= 1
        assert guard > 0, "migration did not converge"


def _recover(db, tries=20):
    for _ in range(tries):
        try:
            db.recover()
            return
        except CrashError:
            pass
    raise AssertionError("recovery did not complete")


class TestShardMapEvolution:
    def test_refined_preserves_placement(self):
        coarse = ShardMap(3)
        fine = coarse.refined(2)
        assert fine.n_buckets == 2 * coarse.n_buckets
        for key in list(range(-50, 50)) + ["a", "bc", None, 2.5]:
            assert fine.shard_of(key) == coarse.shard_of(key)

    def test_reassigned_bumps_epoch_and_moves_buckets(self):
        base = ShardMap(2).refined(2)
        moved = base.reassigned(base.buckets_of(0)[:1], 1)
        assert moved.epoch == base.epoch + 1
        assert set(moved.buckets_of(1)) >= set(base.buckets_of(1))

    def test_record_round_trip(self):
        original = ShardMap(2).refined(2).reassigned([0], 1)
        copy = ShardMap.from_record(original.to_record())
        assert copy.to_record() == original.to_record()
        assert copy.epoch == original.epoch


class TestOnlineSplit:
    def test_split_preserves_answers_under_live_writes(self):
        db = _make()
        db.split_shard(0, chunk_rows=4)
        extra = 0
        while db.migration is not None and not db.migration.finished:
            db.migration.step()
            db.execute("INSERT INTO kv VALUES ({0}, {1}, 'x')".format(
                100 + extra, extra))
            extra += 1
            assert extra < 500
        assert db.shard_map.epoch == 1
        assert len(db.shards) == 3
        rows = db.query("SELECT count(*), sum(v) FROM kv")
        assert rows[0][0] == N_ROWS + extra

    def test_moved_rows_live_exactly_once(self):
        db = _make()
        db.split_shard(0, chunk_rows=4)
        _finish(db)
        # Each key is visible on exactly the shard the new map names.
        for k in range(N_ROWS):
            owner = db.shard_map.shard_of(k)
            for shard_id in db.shard_map.active:
                count = db.shards[shard_id].db.query(
                    "SELECT count(*) FROM kv WHERE k = {0}".format(k))
                assert count == [(1 if shard_id == owner else 0,)], \
                    "key {0} on shard {1}".format(k, shard_id)

    def test_fresh_target_receives_reference_tables(self):
        db = _make()
        db.split_shard(0, chunk_rows=4)
        _finish(db)
        target = db.shards[2].db
        assert sorted(target.query("SELECT t, n FROM tags")) == \
            [(901, 1), (902, 2)]
        # And later broadcasts reach it like any established node.
        db.execute("INSERT INTO tags VALUES (903, 3)")
        assert target.query(
            "SELECT count(*) FROM tags") == [(3,)]

    def test_joining_node_starts_at_the_clusters_options(self):
        db = _make()
        db.execute("SET workers = 2")
        db.execute("SET compile = false")
        db.split_shard(0).run()
        assert [(node.db.options.workers, node.db.options.compile)
                for node in db.shards] == [(2, False)] * 3

    def test_migration_is_invisible_mid_flight(self):
        """Staging discipline: while the copy/catchup runs, scatter
        reads must see each moving row exactly once (on the source) —
        the staged rows on the target stay out of its catalog."""
        db = _make()
        before = _snapshot(db)
        db.split_shard(0, chunk_rows=3)
        steps = 0
        while db.migration is not None and not db.migration.finished:
            assert _snapshot(db) == before, \
                "answers drifted mid-migration at step {0}".format(steps)
            if db.migration.phase != "done":
                target = db.shards[db.migration.target].db
                if "kv" in target.catalog and \
                        db.migration.phase in ("copy", "catchup"):
                    assert target.query(
                        "SELECT count(*) FROM kv") == [(0,)]
            db.migration.step()
            steps += 1
            assert steps < 500
        assert _snapshot(db) == before

    def test_dual_routing_pumps_synchronously(self):
        db = _make()
        migration = db.split_shard(0, chunk_rows=4)
        while migration.phase != "dual":
            migration.step()
        before = migration.stats.deltas_applied
        db.execute("INSERT INTO kv VALUES (500, 1, 'd'), "
                    "(501, 2, 'd'), (502, 3, 'd')")
        assert migration.stats.deltas_applied > before
        assert migration.lag_bytes() == 0
        _finish(db)
        assert db.query("SELECT count(*) FROM kv") == [(N_ROWS + 3,)]


class TestOnlineMergeAndMove:
    def test_merge_retires_source(self):
        db = _make()
        db.split_shard(0, chunk_rows=4)
        _finish(db)
        before = _snapshot(db)
        db.merge_shards(2, 1, chunk_rows=4)
        _finish(db)
        assert db.shard_map.epoch == 2
        assert db.shards[2].retired
        assert 2 not in set(db.shard_map.active)
        assert 2 not in db.broadcast_shards()
        assert _snapshot(db) == before

    def test_move_rebalances_between_established_shards(self):
        db = _make()
        before = _snapshot(db)
        buckets = db.shard_map.buckets_of(0)[:1]
        db.move_buckets(0, 1, buckets, chunk_rows=4)
        _finish(db)
        assert db.shard_map.epoch == 1
        assert set(db.shard_map.buckets_of(1)) >= set(buckets)
        assert _snapshot(db) == before

    def test_updates_and_deletes_flow_through_deltas(self):
        db = _make()
        migration = db.merge_shards(1, 0, chunk_rows=3)
        seen_mutation = False
        step = 0
        while db.migration is not None and not db.migration.finished:
            db.migration.step()
            if step == 1:
                db.execute("UPDATE kv SET v = v + 1000 WHERE k < 10")
                db.execute("DELETE FROM kv WHERE k >= 25")
                seen_mutation = True
            step += 1
            assert step < 500
        assert seen_mutation
        assert migration.stats.deltas_applied > 0
        rows = sorted(db.query("SELECT k, v FROM kv"))
        assert rows == sorted(
            (k, k * 7 + (1000 if k < 10 else 0))
            for k in range(N_ROWS) if k < 25)


class TestGuards:
    def test_ddl_rejected_mid_migration(self):
        db = _make()
        db.split_shard(0)
        with pytest.raises(MigrationInProgressError):
            db.execute("CREATE TABLE late (x BIGINT)")
        _finish(db)
        db.execute("CREATE TABLE late (x BIGINT)")  # fine afterwards

    def test_single_migration_at_a_time(self):
        db = _make()
        db.split_shard(0)
        with pytest.raises(MigrationInProgressError):
            db.split_shard(1)
        _finish(db)

    def test_retired_shard_cannot_migrate_again(self):
        db = _make(n_shards=3)
        db.merge_shards(2, 0, chunk_rows=8)
        _finish(db)
        with pytest.raises(ReshardingError):
            db.merge_shards(2, 1)
        with pytest.raises(ReshardingError):
            db.move_buckets(0, 2, db.shard_map.buckets_of(0)[:1])

    def test_progress_reports_the_live_state(self):
        db = _make()
        migration = db.split_shard(0, chunk_rows=4)
        migration.step()
        progress = migration.progress()
        assert progress["op"] == "split"
        assert progress["phase"] in ("copy", "catchup")
        assert progress["units_total"] >= progress["units_done"] >= 1
        assert progress["new_epoch"] == 1
        _finish(db)


class TestEpochFencing:
    def test_stale_transaction_fenced_at_commit(self):
        db = _make()
        txn = db.begin()
        txn.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
        db.split_shard(0, chunk_rows=8)
        _finish(db)
        before = db.stats.stale_epoch_rejections
        with pytest.raises(StaleEpochError):
            txn.commit()
        assert txn.outcome == "aborted (stale epoch)"
        assert db.stats.stale_epoch_rejections == before + 1
        # The buffered update never landed anywhere.
        assert db.query("SELECT v FROM kv WHERE k = 0") == [(0,)]

    def test_stale_transaction_fenced_at_execute(self):
        db = _make()
        txn = db.begin()
        txn.execute("SELECT count(*) FROM kv")
        db.split_shard(0, chunk_rows=8)
        _finish(db)
        with pytest.raises(StaleEpochError):
            txn.execute("SELECT count(*) FROM kv")
        assert not txn.closed   # execute fences, only commit deposes
        txn.abort()

    def test_fresh_transaction_carries_the_new_epoch(self):
        db = _make()
        db.split_shard(0, chunk_rows=8)
        _finish(db)
        with db.begin() as txn:
            assert txn.epoch == 1
            txn.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
        assert db.query("SELECT v FROM kv WHERE k = 0") == [(1,)]


def _split_scenario(faults, wal_dir):
    """The deterministic dry-run scenario for the crash sweep: a full
    online split with two fixed mid-flight writes."""
    db = _make(faults, wal_dir=wal_dir)
    db.split_shard(0, chunk_rows=4)
    step = 0
    while db.migration is not None and not db.migration.finished:
        db.migration.step()
        if step == 2:
            db.execute("INSERT INTO kv VALUES (400, 11, 'm')")
        if step == 4:
            db.execute("DELETE FROM kv WHERE k = 3")
        step += 1
        assert step < 500
    return db


EXPECTED_KV = sorted(
    [(k, k * 7, "abc"[k % 3]) for k in range(N_ROWS) if k != 3]
    + [(400, 11, "m")])


class TestCrashSweep:
    def test_converges_from_a_crash_at_every_phase_site(self, tmp_path):
        faults = FaultInjector()
        dry = _split_scenario(faults, tmp_path / "dry")
        assert sorted(dry.query("SELECT k, v, lbl FROM kv")) \
            == EXPECTED_KV
        points = crash_points(faults.observed(), sites=PHASE_SITES)
        # begin, one copy hit per unit, catchup rounds, cutover, purge.
        assert len(points) >= 8, points
        sites_crossed = set()
        for i, (site, hit) in enumerate(points):
            faults = FaultInjector()
            faults.crash_at(site, hit=hit)
            try:
                db = _split_scenario(faults, tmp_path / str(i))
                crashed = False
            except CrashError:
                crashed = True
            if crashed:
                db = None
            assert crashed, "no crash at {0} hit {1}".format(site, hit)
            sites_crossed.add(site)
        assert sites_crossed == set(PHASE_SITES)

    def test_recovery_resumes_and_converges(self, tmp_path):
        """The full loop: crash at each phase site, recover the same
        coordinator, drive whatever migration resumed to completion;
        the final rows must match the never-crashed run exactly."""
        faults = FaultInjector()
        dry = _split_scenario(faults, tmp_path / "dry")
        points = crash_points(faults.observed(), sites=PHASE_SITES)
        finished_with_migration = 0
        for site, hit in points:
            faults = FaultInjector()
            db = _make(faults)
            faults.crash_at(site, hit=hit)
            try:
                db.split_shard(0, chunk_rows=4)
                _finish(db)
            except CrashError:
                _recover(db)
                _finish(db)
            if db.shard_map.epoch == 1:
                finished_with_migration += 1
            else:
                assert site == "reshard.begin", \
                    "migration vanished after {0}".format(site)
            assert sorted(db.query("SELECT k, v, lbl FROM kv")) == \
                sorted((k, k * 7, "abc"[k % 3]) for k in range(N_ROWS))
            assert sorted(db.query("SELECT t, n FROM tags")) == \
                [(901, 1), (902, 2)]
        assert finished_with_migration >= len(points) - 2

    def test_crash_between_decision_and_done_completes_at_recovery(
            self, tmp_path):
        """The decided-but-unfinished window: the decision record is
        durable, the purge/install/epoch never ran.  recover() must
        complete the cutover, not restart the copy."""
        faults = FaultInjector()
        db = _make(faults, wal_dir=tmp_path)
        db.split_shard(0, chunk_rows=4)
        while db.migration.phase != "dual":
            db.migration.step()
        hit = faults.hits.get("reshard.purge", 0)
        faults.crash_at("reshard.purge", hit=hit + 1)
        with pytest.raises(CrashError):
            _finish(db)
        _recover(db)
        assert db.migration is None
        assert db.shard_map.epoch == 1
        assert sorted(db.query("SELECT k, v, lbl FROM kv")) == sorted(
            (k, k * 7, "abc"[k % 3]) for k in range(N_ROWS))
