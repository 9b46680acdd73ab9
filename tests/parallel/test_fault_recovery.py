"""Graceful degradation: worker deaths, retries, and serial fallback.

The acceptance bar: a query with an injected worker death returns rows
identical to the fault-free serial run — discard-plus-redo makes the
recovery exact, not approximate, for streaming and blocking plans
alike.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.parallel import (
    Exchange,
    MorselScan,
    MorselScheduler,
    ParallelExecutionFailed,
    WorkerSet,
)
from repro.sql.database import Database
from repro.vectorized.expressions import BinExpr, Col, Const
from repro.vectorized.operators import ExecutionContext, VectorSelect
from tests.helpers import assert_same_rows

N_ROWS = 50_000
MORSEL = 4096


def _table(n=N_ROWS):
    return {"a": np.arange(n, dtype=np.int64),
            "b": (np.arange(n, dtype=np.int64) * 37) % 100}


def _exchange(columns, workers, faults, predicate=None):
    worker_set = WorkerSet(workers, profile=None, vector_size=1024)
    scheduler = MorselScheduler(len(columns["a"]), workers=workers,
                                morsel_size=MORSEL)

    def plan(ctx, sched, worker):
        scan = MorselScan(ctx, columns, sched, worker=worker,
                          faults=faults)
        if predicate is None:
            return scan
        return VectorSelect(ctx, scan, predicate)

    exchange = Exchange(ExecutionContext(vector_size=1024), plan,
                        worker_set, scheduler)
    return exchange, scheduler


def _rows(batches, names):
    out = []
    for batch in batches:
        out.extend(zip(*(batch.column(n) for n in names)))
    return out


class TestSchedulerReassign:
    def test_moves_served_and_queued_morsels(self):
        sched = MorselScheduler(4 * MORSEL, workers=2, morsel_size=MORSEL)
        first = sched.next_morsel(0)
        assert first is not None
        share = len(sched.served[0]) + len(sched.queues[0])
        moved = sched.reassign(0, survivors=[1])
        # The served morsel plus everything still queued for worker 0.
        assert moved == share
        assert 0 in sched.dead
        assert sched.served[0] == [] and not sched.queues[0]
        assert sched.next_morsel(0) is None  # dead workers get nothing
        seen = set()
        while True:
            morsel = sched.next_morsel(1)
            if morsel is None:
                break
            seen.add(morsel.index)
        assert first.index in seen  # the dispatched morsel came back
        assert len(seen) == 4

    def test_reassign_validates_survivors(self):
        sched = MorselScheduler(MORSEL, workers=2, morsel_size=MORSEL)
        sched.reassign(0, survivors=[1])
        with pytest.raises(ValueError):
            sched.reassign(1, survivors=[0])  # dead survivor


class TestExchangeRecovery:
    def test_streaming_death_is_exact(self):
        columns = _table()
        expected = list(zip(columns["a"], columns["b"]))
        inj = FaultInjector().crash_at("morsel.run", hit=3)
        exchange, scheduler = _exchange(columns, workers=4, faults=inj)
        rows = _rows(exchange.collect(), ["a", "b"])
        assert_same_rows(rows, expected)
        (failure,) = exchange.failures
        assert failure.site == "morsel.run"
        assert failure.requeued >= 1
        assert scheduler.redispatched == failure.requeued

    def test_blocking_pipeline_death_is_exact(self):
        """Kill a worker late, after some pipelines already drained:
        requeued morsels must revive an exhausted survivor."""
        columns = _table()
        predicate = BinExpr("==", BinExpr("%", Col("a"), Const(7)),
                            Const(0))
        expected = [(a, b) for a, b
                    in zip(columns["a"], columns["b"])
                    if a % 7 == 0]
        total_morsels = -(-N_ROWS // MORSEL)
        inj = FaultInjector().crash_at("morsel.run", hit=total_morsels)
        exchange, _ = _exchange(columns, workers=4, faults=inj,
                                predicate=predicate)
        rows = _rows(exchange.collect(), ["a", "b"])
        assert_same_rows(rows, expected)
        assert len(exchange.failures) == 1

    def test_two_deaths_survive(self):
        columns = _table()
        expected = list(zip(columns["a"], columns["b"]))
        inj = FaultInjector()
        inj.crash_at("morsel.run", hit=2)
        inj.crash_at("morsel.run", hit=5)
        exchange, _ = _exchange(columns, workers=4, faults=inj)
        rows = _rows(exchange.collect(), ["a", "b"])
        assert_same_rows(rows, expected)
        assert len(exchange.failures) == 2
        assert len({f.worker for f in exchange.failures}) == 2

    def test_all_workers_dead_raises(self):
        from repro.faults import FaultPlan
        columns = _table()
        inj = FaultInjector()
        inj.plan(FaultPlan("morsel.run", "crash", hits=None))
        exchange, _ = _exchange(columns, workers=3, faults=inj)
        with pytest.raises(ParallelExecutionFailed) as exc:
            exchange.collect()
        assert len(exc.value.failures) == 3

    def test_transient_fault_is_retried_not_fatal(self):
        columns = _table()
        expected = list(zip(columns["a"], columns["b"]))
        inj = FaultInjector().transient_at("morsel.run", hits=(2, 6))
        exchange, _ = _exchange(columns, workers=2, faults=inj)
        rows = _rows(exchange.collect(), ["a", "b"])
        assert_same_rows(rows, expected)
        assert exchange.failures == []
        assert sum(c.retries for c in exchange.children
                   if isinstance(c, MorselScan)) == 2

    def test_persistent_transient_escalates_to_death(self):
        """A site that never stops failing exhausts the retry budget and
        becomes a worker death — still recovered by the survivors."""
        columns = _table()
        expected = list(zip(columns["a"], columns["b"]))
        inj = FaultInjector()
        inj.transient_at("morsel.run", hits=(1, 2, 3, 4))
        exchange, _ = _exchange(columns, workers=3, faults=inj)
        rows = _rows(exchange.collect(), ["a", "b"])
        assert_same_rows(rows, expected)
        (failure,) = exchange.failures
        assert failure.site == "morsel.run"

    def test_latency_spike_only_stalls(self):
        columns = _table()
        inj = FaultInjector().delay_at("morsel.run", hits=(1, 2), delay=9)
        exchange, _ = _exchange(columns, workers=2, faults=inj)
        rows = _rows(exchange.collect(), ["a", "b"])
        assert len(rows) == N_ROWS
        assert exchange.failures == []
        assert sum(c.stall_units for c in exchange.children
                   if isinstance(c, MorselScan)) == 18


class TestSqlLevelDegradation:
    def _db(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR(8))")
        rows = ", ".join(
            "({0}, {1}, '{2}')".format(i, (i * 37) % 100,
                                       "tag{0}".format(i % 5))
            for i in range(500))
        db.execute("INSERT INTO t VALUES " + rows)
        return db

    QUERIES = [
        "SELECT a, b FROM t WHERE b < 40",
        "SELECT count(*), sum(a), min(b), max(b) FROM t",
        "SELECT s, count(*), sum(b) FROM t GROUP BY s",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_worker_death_matches_fault_free_serial(self, sql):
        """Acceptance: injected death, identical rows, failure logged."""
        db = self._db()
        serial = db.query(sql)
        db.faults = FaultInjector().crash_at("morsel.run")
        rows = db.query(sql, workers=4)
        assert_same_rows(rows, serial, context=sql)
        assert db.parallel_fallbacks == 0
        (failure,) = db.last_parallel.failures
        assert failure.site == "morsel.run"
        assert not db.last_parallel.fell_back

    def test_worker_death_keeps_scan_order(self):
        """The dead worker's morsel is redone after a survivor's own,
        yet the parts still merge in morsel order: a projection comes
        back in scan order and a bare LIMIT picks the serial rows."""
        db = self._db()
        for sql in ("SELECT a, b FROM t WHERE b < 40",
                    "SELECT a, s FROM t WHERE b > 20 LIMIT 9"):
            serial = db.query(sql)
            db.faults = FaultInjector().crash_at("morsel.run")
            assert db.query(sql, workers=4) == serial, sql
            assert len(db.last_parallel.failures) == 1
            db.faults = FaultInjector()

    def test_all_dead_falls_back_to_serial(self):
        from repro.faults import FaultPlan
        db = self._db()
        serial = db.query("SELECT a, b FROM t WHERE b < 40")
        inj = FaultInjector()
        inj.plan(FaultPlan("morsel.run", "crash", hits=None))
        db.faults = inj
        rows = db.query("SELECT a, b FROM t WHERE b < 40", workers=3)
        assert_same_rows(rows, serial)
        assert db.parallel_fallbacks == 1
        assert db.last_parallel.fell_back
        assert len(db.last_parallel.failures) == 3
        assert db.last_parallel.profile() == {}

    def test_seeded_chaos_run_still_exact(self):
        """Probabilistic-but-reproducible chaos: every query answers
        exactly despite a steady trickle of faults."""
        db = self._db()
        serial = {sql: db.query(sql) for sql in self.QUERIES}
        db.faults = FaultInjector.seeded(
            11, {"morsel.run": ("transient", 0.1)})
        for sql in self.QUERIES:
            assert_same_rows(db.query(sql, workers=4), serial[sql],
                             context=sql)
