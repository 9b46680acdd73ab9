"""The write path: every write is checked, then logged, then applied by
the replay code.

A statement the engine rejects must be rejected *before* its WAL
append, so the log, the live catalog and every replica are exactly as
they were before it, and recovery replays to that state.  Every write
kind leaves live state — rows, view contents and ``commit_seq`` — equal
to what ``recover()`` rebuilds from the same log.

Before the write path was unified, every test here failed except
``test_database_without_wal`` for name-taken, duplicate-column and
str-into-bigint, ``test_sharded_database[name-taken]`` and
``test_read_only_commit_takes_no_number``: a rejected record was logged
first, so ``recover()`` raised, replicas refused every later write, the
sharded schema kept a phantom table, a bad value left a table's columns
ragged and ``commit_seq`` differed between live and replayed state.
"""

import random

import pytest

from repro.core.bat import BAT
from repro.faults import CrashError, FaultInjector
from repro.replication import ReplicationGroup
from repro.sharding import ShardedDatabase
from repro.sql import Database, Table
from repro.wal import WriteAheadLog

SCHEMA = "CREATE TABLE t (k BIGINT, v BIGINT, s VARCHAR)"
ROWS = "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, NULL), (3, 30, 'b')"
VIEW = "CREATE MATERIALIZED VIEW tv AS SELECT k, v FROM t WHERE v > 15"
GOOD_WRITE = "INSERT INTO t VALUES (7, 70, 'g')"

# Statements every engine rejects, with the error each raises.
REJECTED = [
    pytest.param("CREATE TABLE t (k BIGINT)", ValueError, id="name-taken"),
    pytest.param("CREATE TABLE w (k BIGINT, k BIGINT)", ValueError,
                 id="duplicate-column"),
    pytest.param("INSERT INTO t VALUES ('abc', 1, 'x')", ValueError,
                 id="str-into-bigint"),
    pytest.param("INSERT INTO t VALUES (4, 'abc', 'x')", ValueError,
                 id="bad-second-column"),
    pytest.param("INSERT INTO t VALUES (99999999999999999999, 1, 'x')",
                 ValueError, id="bigint-overflow"),
    pytest.param("INSERT INTO t VALUES (4, 40, 5)", ValueError,
                 id="int-into-varchar"),
    pytest.param("UPDATE t SET v = 'x' WHERE k = 1", ValueError,
                 id="update-str-into-bigint"),
]


def table_state(table):
    """A table's visible rows (sorted), after asserting its columns
    are all the same length."""
    lengths = {name: len(bat) for name, bat in table.columns.items()}
    assert len(set(lengths.values())) == 1, lengths
    return sorted((table.row(oid) for oid in table.tid().decoded()),
                  key=repr)


def state(db):
    """Everything a write can change: each table's rows, each view's
    contents and the commit sequence number."""
    views = set(db.views.names())
    return {
        "tables": {name: table_state(table)
                   for name, table in sorted(db.catalog.tables.items())
                   if name not in views},
        "views": {name: sorted(db.views.contents(name), key=repr)
                  for name in sorted(views)},
        "commit_seq": db.commit_seq,
    }


def loaded(db):
    for sql in (SCHEMA, ROWS, VIEW):
        db.execute(sql)
    return db


def assert_recovers_to_live(db):
    live = state(db)
    db.recover()
    assert state(db) == live


# -- a rejected statement logs nothing -------------------------------------

class TestRejectedStatementLogsNothing:
    @pytest.mark.parametrize("sql,error", REJECTED)
    def test_database(self, sql, error):
        db = loaded(Database(wal=WriteAheadLog()))
        before, records = state(db), len(db.wal)
        with pytest.raises(error):
            db.execute(sql)
        assert len(db.wal) == records
        assert state(db) == before
        assert db.recover() == records
        assert state(db) == before
        db.execute(GOOD_WRITE)
        assert_recovers_to_live(db)

    @pytest.mark.parametrize("sql,error", REJECTED)
    def test_database_without_wal(self, sql, error):
        db = loaded(Database())
        before = state(db)
        with pytest.raises(error):
            db.execute(sql)
        assert state(db) == before
        db.execute(GOOD_WRITE)
        assert (7, 70, "g") in db.query("SELECT k, v, s FROM t")

    @pytest.mark.parametrize("sql,error", REJECTED)
    def test_replication_group(self, sql, error):
        group = loaded(ReplicationGroup(n_replicas=2))
        with pytest.raises(error):
            group.execute(sql)
        group.execute(GOOD_WRITE)
        group.tick(10)
        assert group.divergence_report() == []
        primary = state(group.primary.db)
        assert (7, 70, "g") in primary["tables"]["t"]
        for replica in group.replicas():
            assert state(replica.db) == primary

    @pytest.mark.parametrize("sql,error", REJECTED)
    def test_sharded_database(self, sql, error):
        sdb = ShardedDatabase(n_shards=2)
        sdb.execute(SCHEMA.replace(")", ") PARTITION BY (k)"))
        sdb.execute(ROWS)
        records = [len(node.db.wal) for node in sdb.shards]
        with pytest.raises(Exception) as raised:
            sdb.execute(sql)
        assert not isinstance(raised.value,
                              (AttributeError, OverflowError, IndexError))
        assert [len(node.db.wal) for node in sdb.shards] == records
        assert "w" not in sdb.schema
        for node in sdb.shards:
            assert_recovers_to_live(node.db)
        sdb.execute("CREATE TABLE w (k BIGINT, v BIGINT)")
        sdb.execute(GOOD_WRITE)
        assert sorted(sdb.query("SELECT k FROM t")) == [(1,), (2,), (3,),
                                                        (7,)]

    def test_error_names_table_column_and_value(self):
        db = loaded(Database())
        with pytest.raises(ValueError, match=r"'abc'.*t\.v"):
            db.execute("INSERT INTO t VALUES (4, 'abc', 'x')")


# -- transactions -----------------------------------------------------------

class TestTransactionRejectsBadRowAtItsStatement:
    @pytest.mark.parametrize("bad", [
        "INSERT INTO t VALUES ('abc', 1, 'x')",
        "UPDATE t SET v = 'x' WHERE k = 2",
    ])
    def test_statement_fails_transaction_stays_open(self, bad):
        db = loaded(Database(wal=WriteAheadLog()))
        records = len(db.wal)
        txn = db.begin()
        txn.execute("INSERT INTO t VALUES (5, 50, 'e')")
        with pytest.raises(ValueError):
            txn.execute(bad)
        assert not txn.closed and txn.outcome is None
        assert sorted(txn.execute("SELECT k FROM t").rows()) == [
            (1,), (2,), (3,), (5,)]
        txn.commit()
        assert txn.outcome == "committed"
        assert len(db.wal) == records + 1
        assert sorted(db.query("SELECT k FROM t")) == [(1,), (2,), (3,),
                                                       (5,)]
        assert_recovers_to_live(db)


# -- the row check and the apply accept the same values ------------------

class TestRowCheckMatchesApply:
    TYPES = ["bigint", "int", "smallint", "tinyint", "double", "real",
             "boolean", "varchar"]
    VALUES = [0, -1, 7, 1.5, "7", "2.5", "abc", "", None, True,
              2 ** 31, 2 ** 63, -2 ** 63, float("nan"), float("inf"),
              b"1", [1, 2], 1j, "xé"]

    @pytest.mark.parametrize("type_name", TYPES)
    def test_checked_rows_accepts_exactly_what_append_values_stores(
            self, type_name):
        """The check against the apply primitive itself: a column
        BAT's ``append_values`` with None as the nil sentinel."""
        for value in self.VALUES:
            table = Table("c", [("a", type_name)])
            try:
                table.checked_rows([(value,)])
                accepted = True
            except ValueError as error:
                assert "c.a" in str(error)
                accepted = False
            atom = table.atoms["a"]
            column = BAT.from_values([], atom=atom)
            try:
                column.append_values([atom.nil if value is None
                                      and not atom.varsized else value])
                stored = column.tail.shape == (1,)
            except Exception:
                stored = False
            assert accepted == stored, (type_name, value)

    def test_append_rows_converts_every_column_first(self):
        table = Table("t", [("k", "bigint"), ("v", "bigint")])
        table.append_rows([(1, 10)])
        with pytest.raises(ValueError, match=r"t\.v"):
            table.append_rows([(2, "abc")])
        assert table.physical_count == 1
        assert table_state(table) == [(1, 10)]


# -- commit_seq: one number per logged commit, live and replayed ----------

class TestCommitSeq:
    def test_noop_dml_logs_nothing_and_takes_no_number(self):
        db = Database(wal=WriteAheadLog())
        db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        records = len(db.wal)
        assert db.execute("DELETE FROM t WHERE k = 99") == 0
        assert db.execute("UPDATE t SET v = 0 WHERE k = 99") == 0
        assert db.commit_seq == 1
        assert len(db.wal) == records
        assert_recovers_to_live(db)

    def test_read_only_commit_takes_no_number(self):
        db = loaded(Database(wal=WriteAheadLog()))
        seq = db.commit_seq
        txn = db.begin()
        txn.execute("SELECT k FROM t")
        txn.commit()
        assert txn.commit_lsn == seq == db.commit_seq
        assert_recovers_to_live(db)

    def test_two_phase_participants_number_as_replay_does(self):
        sdb = ShardedDatabase(n_shards=2)
        sdb.execute("CREATE TABLE t (k BIGINT, v BIGINT) PARTITION BY (k)")
        txn = sdb.begin()
        txn.execute("INSERT INTO t VALUES " + ", ".join(
            "({0}, {0})".format(k) for k in range(10)))
        txn.commit()
        assert sdb.stats.twopc_commits == 1
        for node in sdb.shards:
            assert node.db.commit_seq == 1
            assert_recovers_to_live(node.db)


# -- live state equals replayed state, for every write kind --------------

def _random_script(rng, steps=40):
    """``[(kind, payload, rejected)]``: a seeded mix of good and
    rejected writes of every single-node kind."""
    script = []
    tables = ["t"]
    views = []
    for i in range(steps):
        roll = rng.randrange(11)
        k = rng.randrange(40)
        if roll == 0:
            name = "n{0}".format(i)
            script.append(("sql", "CREATE TABLE {0} (a BIGINT, b VARCHAR)"
                           .format(name), False))
            tables.append(name)
        elif roll == 1:
            script.append(("sql", "CREATE TABLE {0} (a BIGINT)".format(
                rng.choice(tables)), True))
        elif roll == 2 and not views:
            views.append("v{0}".format(i))
            script.append(("sql", "CREATE MATERIALIZED VIEW {0} AS SELECT "
                           "s, COUNT(*) AS n, SUM(v) AS sv FROM t "
                           "GROUP BY s".format(views[-1]), False))
        elif roll == 2:
            script.append(("sql", "DROP MATERIALIZED VIEW {0}".format(
                views.pop()), False))
        elif roll == 3:
            script.append(("sql", "INSERT INTO t VALUES ({0}, {1}, '{2}')"
                           .format(k, k * 3, "xyz"[k % 3]), False))
        elif roll == 4:
            script.append(("sql", rng.choice([
                "INSERT INTO t VALUES ({0}, 'bad', 'x')",
                "INSERT INTO t VALUES ('bad', {0}, 'x')",
                "INSERT INTO t VALUES ({0}, 99999999999999999999, 'x')",
                "INSERT INTO t VALUES ({0}, 1, 2)",
                "UPDATE t SET v = 'bad' WHERE k < {0}",
            ]).format(k), True))
        elif roll == 5:
            script.append(("sql", "DELETE FROM t WHERE k = {0}".format(k),
                           False))
        elif roll == 6:
            script.append(("sql", "UPDATE t SET v = v + 1 WHERE k > {0}"
                           .format(k), False))
        elif roll == 7:
            # No-op DML: matches nothing.
            script.append(("sql", rng.choice([
                "DELETE FROM t WHERE k > 1000",
                "UPDATE t SET v = 0 WHERE k < -1"]), False))
        elif roll == 8:
            script.append(("txn", [
                "INSERT INTO t VALUES ({0}, {0}, 'q')".format(k),
                "UPDATE t SET s = 'u' WHERE k = {0}".format(k + 1),
                "DELETE FROM t WHERE k = {0}".format(k + 2)], False))
        elif roll == 9:
            script.append(("txn", [
                "INSERT INTO t VALUES ({0}, {0}, 'q')".format(k),
                "INSERT INTO t VALUES ('bad', 1, 'q')"], True))
        else:
            script.append(("txn", ["SELECT COUNT(*) FROM t"], False))
    return script


def _run_script(target, script):
    """Run a script on a Database or ReplicationGroup, asserting each
    step fails exactly when it should."""
    for kind, payload, rejected in script:
        if kind == "sql":
            if rejected:
                with pytest.raises((ValueError, KeyError)):
                    target.execute(payload)
            else:
                target.execute(payload)
            continue
        txn = target.begin()
        for sql in payload:
            if sql.startswith("INSERT INTO t VALUES ('bad'"):
                with pytest.raises(ValueError):
                    txn.execute(sql)
            else:
                txn.execute(sql)
        txn.commit()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_equals_replay_single_node(seed):
    script = _random_script(random.Random(seed))
    db = loaded(Database(wal=WriteAheadLog()))
    _run_script(db, script)
    assert_recovers_to_live(db)


@pytest.mark.parametrize("seed", [0, 1])
def test_live_equals_replay_replicated(seed):
    script = _random_script(random.Random(seed))
    group = loaded(ReplicationGroup(n_replicas=2))
    _run_script(group, script)
    group.tick(10)
    assert group.divergence_report() == []
    primary = state(group.primary.db)
    for replica in group.replicas():
        assert state(replica.db) == primary
    assert_recovers_to_live(group.primary.db)


def test_live_equals_replay_sharded():
    """2PC, resolve_in_doubt and a split's stage/install/purge, mixed
    with rejected statements: every shard's live state equals its own
    replay."""
    faults = FaultInjector()
    sdb = ShardedDatabase(n_shards=2, faults=faults)
    sdb.execute("CREATE TABLE t (k BIGINT, v BIGINT) PARTITION BY (k)")
    sdb.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1})".format(k, k * 10) for k in range(30)))
    with pytest.raises(ValueError):
        sdb.execute("CREATE TABLE w (k BIGINT, k BIGINT)")
    with pytest.raises(ValueError):
        sdb.execute("INSERT INTO t VALUES (31, 'bad')")
    sdb.execute("CREATE TABLE w (k BIGINT, v BIGINT)")
    txn = sdb.begin()
    txn.execute("UPDATE t SET v = v + 1")
    txn.commit()
    assert sdb.stats.twopc_commits == 1
    sdb.execute("DELETE FROM t WHERE k = 1000")
    # A crash between the commit decision and phase two leaves both
    # participants in doubt; recovery resolves them from the decision
    # log, writing their decide records.
    faults.crash_at("twopc.decided", faults.hits["twopc.decided"] + 1)
    txn = sdb.begin()
    txn.execute("UPDATE t SET v = v + 1")
    with pytest.raises(CrashError):
        txn.commit()
    sdb.recover()
    assert sorted(sdb.query("SELECT k, v FROM t")) == [
        (k, k * 10 + 2) for k in range(30)]
    sdb.split_shard(0).run()
    sdb.execute("INSERT INTO t VALUES (40, 400), (41, 410)")
    for node in sdb.shards:
        assert node.db.in_doubt == []
        assert_recovers_to_live(node.db)
    assert sorted(sdb.query("SELECT k FROM t")) == [
        (k,) for k in list(range(30)) + [40, 41]]
