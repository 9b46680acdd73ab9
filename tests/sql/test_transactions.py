"""Tests for snapshot isolation over delta BATs."""

import pytest

from repro.sql import ConflictError, Database
from repro.sql.transactions import TransactionClosedError


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE accounts (owner VARCHAR, balance INT)")
    d.execute("INSERT INTO accounts VALUES ('ann', 100), ('bob', 50)")
    return d


class TestSnapshotReads:
    def test_reader_does_not_see_later_commits(self, db):
        txn = db.begin()
        # Take the snapshot by reading.
        assert txn.execute("SELECT count(*) FROM accounts").scalar() == 2
        db.execute("INSERT INTO accounts VALUES ('carl', 10)")
        db.execute("DELETE FROM accounts WHERE owner = 'ann'")
        # The snapshot is frozen.
        assert txn.execute("SELECT count(*) FROM accounts").scalar() == 2
        rows = txn.execute(
            "SELECT owner FROM accounts ORDER BY owner").rows()
        assert rows == [("ann",), ("bob",)]
        txn.abort()
        # Outside, the new state is visible.
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 2
        assert db.query("SELECT owner FROM accounts ORDER BY owner") == \
            [("bob",), ("carl",)]

    def test_reads_see_own_writes(self, db):
        with db.begin() as txn:
            txn.execute("INSERT INTO accounts VALUES ('dora', 5)")
            assert txn.execute(
                "SELECT count(*) FROM accounts").scalar() == 3
            txn.execute("UPDATE accounts SET balance = 7 "
                        "WHERE owner = 'dora'")
            assert txn.execute("SELECT balance FROM accounts "
                               "WHERE owner = 'dora'").rows() == [(7,)]
            txn.abort()

    def test_own_deletes_visible(self, db):
        txn = db.begin()
        txn.execute("DELETE FROM accounts WHERE owner = 'ann'")
        assert txn.execute("SELECT count(*) FROM accounts").scalar() == 1
        txn.abort()
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 2


class TestCommitAbort:
    def test_commit_applies_buffered_writes(self, db):
        txn = db.begin()
        txn.execute("INSERT INTO accounts VALUES ('eve', 1)")
        txn.execute("DELETE FROM accounts WHERE owner = 'bob'")
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 2
        txn.commit()
        assert db.query("SELECT owner FROM accounts ORDER BY owner") == \
            [("ann",), ("eve",)]

    def test_abort_discards(self, db):
        txn = db.begin()
        txn.execute("DELETE FROM accounts")
        txn.abort()
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 2

    def test_closed_transaction_unusable(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionClosedError):
            txn.execute("SELECT * FROM accounts")
        with pytest.raises(TransactionClosedError):
            txn.commit()

    def test_context_manager_commits(self, db):
        with db.begin() as txn:
            txn.execute("INSERT INTO accounts VALUES ('fred', 3)")
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 3

    def test_context_manager_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.begin() as txn:
                txn.execute("DELETE FROM accounts")
                raise RuntimeError("boom")
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 2

    def test_ddl_rejected(self, db):
        txn = db.begin()
        with pytest.raises(NotImplementedError):
            txn.execute("CREATE TABLE t (a INT)")
        txn.abort()

    def test_update_in_transaction_commits(self, db):
        with db.begin() as txn:
            txn.execute("UPDATE accounts SET balance = balance + 10 "
                        "WHERE owner = 'ann'")
        assert db.query("SELECT balance FROM accounts "
                        "WHERE owner = 'ann'") == [(110,)]


class TestConflicts:
    def test_append_append_merges(self, db):
        t1 = db.begin()
        t2 = db.begin()
        t1.execute("INSERT INTO accounts VALUES ('gina', 1)")
        t2.execute("INSERT INTO accounts VALUES ('hank', 2)")
        t1.commit()
        t2.commit()  # appends never conflict
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 4

    def test_delete_after_concurrent_write_conflicts(self, db):
        t1 = db.begin()
        # Snapshot t1 by touching the table.
        t1.execute("SELECT count(*) FROM accounts")
        t1.execute("DELETE FROM accounts WHERE owner = 'ann'")
        db.execute("UPDATE accounts SET balance = 0 WHERE owner = 'ann'")
        with pytest.raises(ConflictError):
            t1.commit()
        assert t1.closed

    def test_delete_without_concurrent_write_commits(self, db):
        t1 = db.begin()
        t1.execute("DELETE FROM accounts WHERE owner = 'ann'")
        t1.commit()
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 1

    def test_disjoint_row_writers_both_commit(self, db):
        """Row-level first-writer-wins: concurrent writers touching
        *different* rows of the same table do not conflict."""
        t1 = db.begin()
        t1.execute("SELECT count(*) FROM accounts")  # snapshot now
        db.execute("UPDATE accounts SET balance = 0 WHERE owner = 'bob'")
        t1.execute("DELETE FROM accounts WHERE owner = 'ann'")
        t1.commit()
        assert db.query("SELECT owner, balance FROM accounts") == \
            [("bob", 0)]

    def test_same_row_second_writer_loses(self, db):
        """...but two writers updating the same row conflict, and the
        first committer wins."""
        t1 = db.begin()
        t1.execute("UPDATE accounts SET balance = 1 WHERE owner = 'ann'")
        db.execute("UPDATE accounts SET balance = 2 WHERE owner = 'ann'")
        with pytest.raises(ConflictError):
            t1.commit()
        assert db.query("SELECT balance FROM accounts "
                        "WHERE owner = 'ann'") == [(2,)]

    def test_vacuum_during_transaction_conflicts_conservatively(self, db):
        """merge_deltas renumbers oids, so a snapshot that predates the
        vacuum can no longer be validated row-by-row: any concurrent
        change then aborts the writer conservatively."""
        t1 = db.begin()
        t1.execute("DELETE FROM accounts WHERE owner = 'ann'")
        db.execute("DELETE FROM accounts WHERE owner = 'bob'")
        db.catalog.get("accounts").merge_deltas()
        with pytest.raises(ConflictError):
            t1.commit()

    def test_many_concurrent_deletes_of_other_rows_do_not_conflict(self):
        """Validation reads the delete log's whole tail past the
        snapshot, however many deletes it holds: a writer deleting a
        row nobody else touched commits."""
        db = Database()
        db.execute("CREATE TABLE big (k BIGINT)")
        db.execute("INSERT INTO big VALUES " + ", ".join(
            "({0})".format(k) for k in range(2000)))
        txn = db.begin(pin=True)
        for k in range(1099):
            db.execute("DELETE FROM big WHERE k = {0}".format(k))
        assert txn.execute("DELETE FROM big WHERE k = 1500") == 1
        txn.commit()
        assert db.query("SELECT count(*) FROM big") == [(900,)]


class TestAbortSemantics:
    """Regression: however a transaction ends — abort, conflict, crash,
    context-manager exit — it must end *closed*, with the catalog (and
    the WAL, when present) untouched unless the commit fully applied."""

    def _walled_db(self):
        from repro.faults import FaultInjector
        from repro.wal import WriteAheadLog
        d = Database(wal=WriteAheadLog())
        d.execute("CREATE TABLE accounts (owner VARCHAR, balance INT)")
        d.execute("INSERT INTO accounts VALUES ('ann', 100), ('bob', 50)")
        inj = FaultInjector()
        d.faults = inj
        d.wal.faults = inj
        return d, inj

    def test_conflict_leaves_catalog_and_wal_untouched(self):
        db, _ = self._walled_db()
        wal_len = len(db.wal)
        version = db.catalog.get("accounts").version
        t1 = db.begin()
        t1.execute("DELETE FROM accounts WHERE owner = 'ann'")
        t1.execute("INSERT INTO accounts VALUES ('gus', 9)")
        db.execute("UPDATE accounts SET balance = 0 WHERE owner = 'ann'")
        version_after_update = db.catalog.get("accounts").version
        with pytest.raises(ConflictError):
            t1.commit()
        assert t1.closed and t1.outcome == "aborted (conflict)"
        # Neither the buffered insert nor the delete reached the table,
        # and no commit record was logged for the failed transaction.
        assert db.query("SELECT owner FROM accounts ORDER BY owner") == \
            [("ann",), ("bob",)]
        assert db.catalog.get("accounts").version == version_after_update
        assert len(db.wal) == wal_len + 1  # only the autocommit UPDATE
        assert version_after_update > version

    def test_conflicted_transaction_is_unusable(self, db):
        t1 = db.begin()
        t1.execute("DELETE FROM accounts WHERE owner = 'ann'")
        db.execute("DELETE FROM accounts WHERE owner = 'ann'")
        with pytest.raises(ConflictError):
            t1.commit()
        with pytest.raises(TransactionClosedError):
            t1.execute("SELECT * FROM accounts")
        with pytest.raises(TransactionClosedError):
            t1.commit()
        with pytest.raises(TransactionClosedError):
            t1.abort()

    def test_exit_after_conflict_does_not_double_close(self, db):
        """__exit__ must not re-commit or re-abort a transaction the
        failed commit already closed."""
        db2_writer = db  # same database; conflict via autocommit write
        with pytest.raises(ConflictError):
            with db.begin() as txn:
                txn.execute("DELETE FROM accounts WHERE owner = 'ann'")
                db2_writer.execute(
                    "UPDATE accounts SET balance = 1 WHERE owner = 'ann'")
        assert txn.closed and txn.outcome == "aborted (conflict)"

    def test_exit_commit_conflict_propagates(self, db):
        """A conflict raised by the implicit commit on clean __exit__
        still propagates to the caller."""
        with pytest.raises(ConflictError):
            with db.begin() as txn:
                txn.execute("DELETE FROM accounts WHERE owner = 'bob'")
                db.execute(
                    "UPDATE accounts SET balance = 2 WHERE owner = 'bob'")
                # No exception here: __exit__ will call commit().
        assert txn.closed
        assert db.query("SELECT balance FROM accounts "
                        "WHERE owner = 'bob'") == [(2,)]

    def test_rollback_is_abort(self, db):
        txn = db.begin()
        txn.execute("DELETE FROM accounts")
        txn.rollback()
        assert txn.outcome == "aborted"
        assert db.execute("SELECT count(*) FROM accounts").scalar() == 2

    def test_crashed_commit_closes_the_transaction(self):
        from repro.faults import CrashError
        db, inj = self._walled_db()
        inj.crash_at("commit.publish")
        txn = db.begin()
        txn.execute("INSERT INTO accounts VALUES ('ida', 4)")
        with pytest.raises(CrashError):
            txn.commit()
        assert txn.closed and txn.outcome == "crashed"
        with pytest.raises(TransactionClosedError):
            txn.execute("SELECT * FROM accounts")

    def test_empty_commit_writes_no_wal_record(self):
        db, _ = self._walled_db()
        wal_len = len(db.wal)
        txn = db.begin()
        txn.execute("SELECT count(*) FROM accounts")
        txn.commit()
        assert txn.outcome == "committed"
        assert len(db.wal) == wal_len

    def test_self_inserted_then_deleted_rows_not_logged(self):
        """Rows a transaction inserts and deletes itself are invisible
        to the log — the commit record holds only the net effect."""
        db, _ = self._walled_db()
        txn = db.begin()
        txn.execute("INSERT INTO accounts VALUES ('tmp', 1), ('kay', 2)")
        txn.execute("DELETE FROM accounts WHERE owner = 'tmp'")
        txn.commit()
        record = list(db.wal.records())[-1]
        assert record["kind"] == "commit"
        (op,) = record["ops"]
        assert op["appends"] == [["kay", 2]]
        assert op["deletes"] == []
        assert db.query("SELECT owner FROM accounts ORDER BY owner") == \
            [("ann",), ("bob",), ("kay",)]


class TestSnapshotCost:
    def test_bind_is_zero_copy_without_concurrent_writes(self, db):
        """Snapshot reads share the physical column (E14's claim)."""
        txn = db.begin()
        shared = db.catalog.get("accounts").bind("balance")
        viewed = txn.bind("accounts", "balance")
        assert viewed is shared
        txn.abort()

    def test_bind_slices_after_concurrent_append(self, db):
        txn = db.begin()
        txn.execute("SELECT count(*) FROM accounts")  # snapshot now
        db.execute("INSERT INTO accounts VALUES ('zed', 9)")
        viewed = txn.bind("accounts", "balance")
        assert viewed.decoded() == [100, 50]
        txn.abort()
