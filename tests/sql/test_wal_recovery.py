"""Write-ahead logging and crash recovery.

The core claim under test: with a WAL attached, *any* injected crash
point in the commit path leaves the database recoverable to either the
full pre-commit state or the full post-commit state — never a torn
intermediate.  The crash points are enumerated exhaustively from a
fault-free dry run (``crash_points``), so new injection sites added to
the commit path are swept automatically.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CrashError, FaultInjector, crash_points
from repro.sql.database import Database
from repro.wal import WalCorruptionError, WriteAheadLog
from tests.helpers import assert_same_rows

# Sites where the commit record is not yet durable: a crash recovers
# to the pre-commit state.  Later sites recover to the post-commit
# state.  (The sweep derives this split; it is asserted explicitly so
# a silently vanishing site fails loudly.)
PRE_COMMIT_SITES = {"commit.validate", "wal.append"}
POST_COMMIT_SITES = {"commit.publish", "commit.apply"}
# Sites the engine absorbs: a codegen crash while planning the
# transaction's statements falls back to the interpreter
# (tests/compile/test_fallback.py), so the commit completes.
ABSORBED_SITES = {"compile.codegen"}


def fresh_db():
    db = Database(wal=WriteAheadLog())
    db.execute("CREATE TABLE emp (name VARCHAR, dept VARCHAR, pay INT)")
    db.execute("INSERT INTO emp VALUES ('ann', 'eng', 100), "
               "('bob', 'ops', 50), ('col', 'eng', 80)")
    return db


def arm(db):
    """Attach a fresh injector after fault-free setup."""
    inj = FaultInjector()
    db.faults = inj
    db.wal.faults = inj
    return inj


def snapshot(db):
    return sorted(db.query("SELECT name, dept, pay FROM emp"))


def run_txn(db):
    """The transaction whose commit is crashed at every site."""
    txn = db.begin()
    txn.execute("INSERT INTO emp VALUES ('dot', 'ops', 70)")
    txn.execute("UPDATE emp SET pay = pay + 5 WHERE dept = 'eng'")
    txn.execute("DELETE FROM emp WHERE name = 'bob'")
    return txn


def commit_absorbed(db, inj, txn, point, post):
    """A crash at an absorbed site fired, yet the transaction commits
    and recovers to the post-commit state."""
    label = "crash at {0} hit {1}".format(*point)
    txn.commit()
    assert [(s, h) for s, h, _ in inj.fired] == [point], label
    assert txn.outcome == "committed", label
    db.recover()
    assert snapshot(db) == post, label


class TestWriteAheadLog:
    def test_append_and_read_back(self):
        wal = WriteAheadLog()
        lsn0 = wal.append({"kind": "a", "n": 1})
        lsn1 = wal.append({"kind": "b", "n": 2})
        assert lsn0 == 0 and lsn1 > 0
        assert list(wal.records()) == [{"kind": "a", "n": 1},
                                       {"kind": "b", "n": 2}]
        assert len(wal) == 2

    def test_crash_without_torn_writes_nothing(self):
        inj = FaultInjector().crash_at("wal.append")
        wal = WriteAheadLog(faults=inj)
        with pytest.raises(CrashError):
            wal.append({"kind": "a"})
        assert wal.size_bytes == 0
        assert wal.recover() == []

    @pytest.mark.parametrize("torn", [1, 4, 7, 11])
    def test_torn_tail_discarded(self, torn):
        inj = FaultInjector().crash_at("wal.append", hit=2, torn=torn)
        wal = WriteAheadLog(faults=inj)
        wal.append({"kind": "a"})
        with pytest.raises(CrashError):
            wal.append({"kind": "b"})
        assert wal.size_bytes > 0
        records = wal.recover()
        assert records == [{"kind": "a"}]
        assert wal.torn_bytes_discarded == torn
        # The log is clean again: appends land on a frame boundary.
        wal.append({"kind": "c"})
        assert list(wal.records()) == [{"kind": "a"}, {"kind": "c"}]

    def test_torn_beyond_frame_means_complete(self):
        """torn >= frame size leaves a complete, recoverable record."""
        inj = FaultInjector().crash_at("wal.append", torn=10_000)
        wal = WriteAheadLog(faults=inj)
        with pytest.raises(CrashError):
            wal.append({"kind": "a"})
        assert wal.recover() == [{"kind": "a"}]

    def test_corrupted_byte_raises_structured_error(self):
        """A *complete* frame failing its CRC is media corruption, not
        a torn tail: replay stops there and surfaces the LSN rather
        than silently dropping the record."""
        wal = WriteAheadLog()
        wal.append({"kind": "a"})
        lsn_b = wal.append({"kind": "b"})
        wal._buffer[-1] ^= 0xFF  # flip a payload byte of record b
        with pytest.raises(WalCorruptionError) as exc:
            wal.recover()
        assert exc.value.lsn == lsn_b
        assert exc.value.index == 1
        assert exc.value.records == [{"kind": "a"}]

    def test_mid_log_corruption_fences_later_intact_records(self):
        """Corruption in the *middle* of the log: the error points at
        the corrupt frame even though intact records follow it."""
        wal = WriteAheadLog()
        wal.append({"kind": "a"})
        lsn_b = wal.append({"kind": "b"})
        end_b = len(wal._buffer)
        wal.append({"kind": "c"})
        wal._buffer[end_b - 1] ^= 0xFF  # corrupt b, leave c intact
        with pytest.raises(WalCorruptionError) as exc:
            wal.recover()
        assert exc.value.lsn == lsn_b
        assert exc.value.index == 1
        assert exc.value.records == [{"kind": "a"}]

    def test_corruption_detected_before_catalog_is_touched(self):
        """Database.recover() propagates WalCorruptionError without
        clobbering the live catalog."""
        db = fresh_db()
        db.wal._buffer[10] ^= 0xFF  # corrupt the first record
        before = snapshot(db)
        with pytest.raises(WalCorruptionError):
            db.recover()
        assert snapshot(db) == before

    def test_file_backed_log_survives_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path=path)
        wal.append({"kind": "a", "n": 1})
        reopened = WriteAheadLog(path=path)
        assert reopened.recover() == [{"kind": "a", "n": 1}]

    def test_truncate_empties(self):
        wal = WriteAheadLog()
        wal.append({"kind": "a"})
        wal.truncate()
        assert wal.size_bytes == 0
        assert wal.recover() == []


class TestAutocommitLogging:
    def test_every_write_is_logged_and_replayable(self):
        db = fresh_db()
        db.execute("UPDATE emp SET pay = 0 WHERE name = 'bob'")
        db.execute("DELETE FROM emp WHERE name = 'col'")
        want = snapshot(db)
        # Simulate a restart: wipe the catalog, replay the log.
        replayed = db.recover()
        assert replayed == len(list(db.wal.records()))
        assert snapshot(db) == want

    def test_recover_without_wal_rejected(self):
        with pytest.raises(RuntimeError):
            Database().recover()


class TestRecoverIdempotence:
    """recover() must be safe on an already-recovered (or never
    crashed) instance — replication failover retries lean on this."""

    def test_recover_twice_yields_identical_state(self):
        db = fresh_db()
        want = snapshot(db)
        db.recover()
        db.recover()
        assert snapshot(db) == want

    def test_recover_on_never_crashed_instance_is_a_noop(self):
        db = fresh_db()
        want = snapshot(db)
        assert db.recover() == len(list(db.wal.records()))
        assert snapshot(db) == want

    def test_writes_after_recovery_replay_cleanly(self):
        db = fresh_db()
        db.recover()
        db.execute("INSERT INTO emp VALUES ('dot', 'ops', 70)")
        want = snapshot(db)
        db.recover()
        assert snapshot(db) == want

    def test_recovery_keeps_the_session_tracer(self):
        from repro.observability.tracer import Tracer
        db = Database(wal=WriteAheadLog(), tracer=Tracer())
        db.execute("CREATE TABLE t (k INT)")
        db.recover()
        assert db.interpreter.tracer is db.tracer


class TestCrashSweep:
    def observed_commit_sites(self):
        """Dry-run the transaction commit to enumerate crash points."""
        db = fresh_db()
        inj = arm(db)
        run_txn(db).commit()
        return crash_points(inj.observed())

    def test_dry_run_observes_the_commit_path(self):
        points = self.observed_commit_sites()
        sites = {site for site, _ in points}
        assert PRE_COMMIT_SITES <= sites
        assert POST_COMMIT_SITES <= sites

    def test_crash_anywhere_recovers_to_pre_or_post(self):
        """Acceptance: the exhaustive sweep never shows a torn state."""
        points = self.observed_commit_sites()
        reference = fresh_db()
        pre = snapshot(reference)
        run_txn(reference).commit()
        post = snapshot(reference)
        assert pre != post
        for site, hit in points:
            db = fresh_db()
            inj = arm(db)
            inj.crash_at(site, hit=hit)
            txn = run_txn(db)
            if site in ABSORBED_SITES:
                commit_absorbed(db, inj, txn, (site, hit), post)
                continue
            with pytest.raises(CrashError):
                txn.commit()
            assert txn.closed and txn.outcome == "crashed"
            db.recover()
            state = snapshot(db)
            label = "crash at {0} hit {1}".format(site, hit)
            assert state in (pre, post), label
            if site in PRE_COMMIT_SITES:
                assert state == pre, label
            if site in POST_COMMIT_SITES:
                assert state == post, label

    @pytest.mark.parametrize("torn", [1, 3, 8, 30])
    def test_torn_commit_record_recovers_to_pre(self, torn):
        db = fresh_db()
        pre = snapshot(db)
        inj = arm(db)
        inj.crash_at("wal.append", torn=torn)
        with pytest.raises(CrashError):
            run_txn(db).commit()
        db.recover()
        assert snapshot(db) == pre
        assert db.wal.torn_bytes_discarded == torn

    def test_queries_after_recovery_match_fault_free_run(self):
        """Post-recovery answers equal a database that never crashed."""
        db = fresh_db()
        inj = arm(db)
        inj.crash_at("commit.apply")
        with pytest.raises(CrashError):
            run_txn(db).commit()
        db.recover()
        clean = fresh_db()
        run_txn(clean).commit()
        for sql in ("SELECT dept, sum(pay) FROM emp GROUP BY dept",
                    "SELECT count(*) FROM emp WHERE pay > 60"):
            assert_same_rows(db.query(sql), clean.query(sql), context=sql)


def test_seeded_chaos_commits_recover_cleanly():
    """CI sweeps FAULT_SWEEP_SEED over this test: a stream of small
    transactions under a seeded probabilistic crash schedule.  Every
    crash is followed by recovery, which must land on either the
    pre- or post-commit state of the transaction it interrupted — the
    run-long invariant behind atomic commit."""
    seed = int(os.environ.get("FAULT_SWEEP_SEED", "0"))
    db = Database(wal=WriteAheadLog())
    db.execute("CREATE TABLE log (k INT, v INT)")
    inj = FaultInjector.seeded(seed, {
        "commit.publish": ("crash", 0.15),
        "wal.append": ("crash", 0.1),
        "morsel.run": ("transient", 0.05),
    })
    db.faults = inj
    db.wal.faults = inj
    expected = []
    crashes = 0
    for i in range(40):
        row = (i, (i * 31 + seed) % 100)
        txn = db.begin()
        txn.execute("INSERT INTO log VALUES ({0}, {1})".format(*row))
        try:
            txn.commit()
            expected.append(row)
        except CrashError:
            crashes += 1
            db.recover()
            state = sorted(db.query("SELECT k, v FROM log"))
            with_row = sorted(expected + [row])
            assert state in (sorted(expected), with_row)
            expected = state
        # A parallel read over the recovered state stays exact even
        # with transient morsel faults in the schedule.
        assert sorted(db.query("SELECT k, v FROM log", workers=2)) == \
            sorted(expected)
    assert db.query("SELECT count(*) FROM log") == [(len(expected),)]
    if seed:  # the rates above fire several times in 40 commits
        assert crashes > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_replay_is_idempotent(seed):
    """Property: recovering N times equals recovering once, for random
    small workloads."""
    rng_rows = [(seed * 31 + i) % 97 for i in range(8)]
    db = Database(wal=WriteAheadLog())
    db.execute("CREATE TABLE t (k INT, v INT)")
    for i, v in enumerate(rng_rows):
        db.execute("INSERT INTO t VALUES ({0}, {1})".format(i, v))
    db.execute("DELETE FROM t WHERE v % 3 = {0}".format(seed % 3))
    db.execute("UPDATE t SET v = v + 1 WHERE k < 4")
    want = sorted(db.query("SELECT k, v FROM t"))
    for _ in range(3):
        db.recover()
        assert sorted(db.query("SELECT k, v FROM t")) == want


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_crash_point_never_torn(data):
    """Property: a crash at ANY observed (site, hit) — including torn
    writes of random length — recovers to pre or post, never between."""
    dry_db = fresh_db()
    dry = arm(dry_db)
    run_txn(dry_db).commit()
    points = crash_points(dry.observed())
    site, hit = data.draw(st.sampled_from(points))
    torn = None
    if site == "wal.append":
        torn = data.draw(st.one_of(st.none(),
                                   st.integers(min_value=1,
                                               max_value=400)))
    reference = fresh_db()
    pre = snapshot(reference)
    run_txn(reference).commit()
    post = snapshot(reference)
    db = fresh_db()
    inj = arm(db).crash_at(site, hit=hit, torn=torn)
    if site in ABSORBED_SITES:
        commit_absorbed(db, inj, run_txn(db), (site, hit), post)
        return
    with pytest.raises(CrashError):
        run_txn(db).commit()
    db.recover()
    first = snapshot(db)
    assert first in (pre, post)
    db.recover()  # idempotence under the same torn tail
    assert snapshot(db) == first
