"""Visible oids from the table's deleted-positions structure.

A table keeps its deleted positions as a ``visible`` bool mask plus an
append-only log of deleted oids; with rows deleted, ``sql.tid`` is
built from the mask once per table version, and a transaction's
snapshot is a row count and a log length.  These tests hold that
structure against a Python-set model over histories of appends,
deletes (re-deletes and out-of-range oids included), UPDATEs,
``merge_deltas``, a save/load round trip and transactions begun at
random points with their own writes, and check that the compiled
selects' masked dense path answers what the gather path and the
interpreter answer on a table with holes.
"""

import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import runtime as rt
from repro.core.persist import load_database, save_database
from repro.sql import Database
from repro.sql.transactions import ConflictError
from tests.helpers import assert_same_rows

INITIAL_ROWS = 12


class _TxnModel:
    """One open transaction: its snapshot and its own writes."""

    def __init__(self, txn, model):
        self.txn = txn
        self.rows = list(model.rows)      # snapshot rows, then appends
        self.snap_count = len(model.rows)
        self.snap_dead = set(model.dead)
        self.own_dead = set()

    def visible(self):
        return [o for o in range(len(self.rows))
                if o not in self.snap_dead and o not in self.own_dead]


class _Model:
    """The table as a list of physical rows and a set of dead oids."""

    def __init__(self):
        self.rows = []
        self.dead = set()
        self.next_key = 0

    def visible(self):
        return [o for o in range(len(self.rows)) if o not in self.dead]

    def new_rows(self, n):
        rows = []
        for _ in range(n):
            rows.append((self.next_key, "s{0}".format(self.next_key % 5)))
            self.next_key += 1
        return rows


def _insert_sql(rows):
    return "INSERT INTO t VALUES " + ", ".join(
        "({0}, '{1}')".format(k, s) for k, s in rows)


def _fresh_database(model):
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, s VARCHAR)")
    rows = model.new_rows(INITIAL_ROWS)
    db.execute(_insert_sql(rows))
    model.rows.extend(rows)
    return db


def _check(db, model, txns):
    table = db.catalog.get("t")
    want = model.visible()
    tid = table.tid()
    assert tid.tail.tolist() == want
    if model.dead:
        assert table.tid() is tid
    assert table.visible_count == len(want)
    assert table.deleted == model.dead
    for tm in txns:
        assert tm.txn.tid("t").tail.tolist() == tm.visible()
        assert tm.txn.count("t") == len(tm.visible())


def _check_contents(db, model, txns):
    want = [model.rows[o] for o in model.visible()]
    assert_same_rows(db.query("SELECT k, s FROM t"), want)
    for tm in txns:
        assert_same_rows(tm.txn.execute("SELECT k, s FROM t").rows(),
                         [tm.rows[o] for o in tm.visible()])


_STEPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 4)),
    st.tuples(st.just("delete_oids"),
              st.lists(st.integers(-3, 40), max_size=5)),
    st.tuples(st.just("update"), st.integers(0, 99)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("begin"), st.just(0)),
    st.tuples(st.just("txn_insert"), st.integers(0, 99)),
    st.tuples(st.just("txn_delete"), st.integers(0, 99)),
    st.tuples(st.just("commit"), st.integers(0, 99)),
    st.tuples(st.just("abort"), st.integers(0, 99)),
    st.tuples(st.just("merge"), st.just(0)),
    st.tuples(st.just("save_load"), st.just(0)),
)


def _apply(step, db, model, txns, directory):
    """Run one step on the engine and the model; returns the (possibly
    reloaded) database."""
    kind, arg = step
    table = db.catalog.get("t")
    if kind == "append":
        rows = model.new_rows(arg)
        if rows:
            db.execute(_insert_sql(rows))
            model.rows.extend(rows)
    elif kind == "delete_oids":
        fresh = {o for o in arg
                 if 0 <= o < len(model.rows) and o not in model.dead}
        assert table.delete_oids(arg) == len(fresh)
        model.dead |= fresh
    elif kind in ("update", "delete"):
        live = model.visible()
        if live:
            oid = live[arg % len(live)]
            key = model.rows[oid][0]
            if kind == "update":
                db.execute("UPDATE t SET s = 'u' WHERE k = {0}".format(key))
                model.rows.append((key, "u"))
            else:
                db.execute("DELETE FROM t WHERE k = {0}".format(key))
            model.dead.add(oid)
    elif kind == "begin":
        if len(txns) < 2:
            txn = db.begin(pin=True)
            txns.append(_TxnModel(txn, model))
    elif kind == "txn_insert" and txns:
        tm = txns[arg % len(txns)]
        rows = model.new_rows(arg % 3 + 1)
        tm.txn.execute(_insert_sql(rows))
        tm.rows.extend(rows)
    elif kind == "txn_delete" and txns:
        tm = txns[arg % len(txns)]
        live = tm.visible()
        if live:
            oid = live[arg % len(live)]
            assert tm.txn.execute("DELETE FROM t WHERE k = {0}".format(
                tm.rows[oid][0])) == 1
            tm.own_dead.add(oid)
    elif kind == "commit" and txns:
        tm = txns.pop(arg % len(txns))
        shared = {o for o in tm.own_dead if o < tm.snap_count}
        if shared & (model.dead - tm.snap_dead):
            with pytest.raises(ConflictError):
                tm.txn.commit()
        else:
            tm.txn.commit()
            model.rows.extend(row for i, row in
                              enumerate(tm.rows[tm.snap_count:])
                              if tm.snap_count + i not in tm.own_dead)
            model.dead |= shared
    elif kind == "abort" and txns:
        txns.pop(arg % len(txns)).txn.abort()
    elif kind in ("merge", "save_load"):
        # Both renumber or rebuild storage: only at quiescent points.
        while txns:
            txns.pop().txn.abort()
        if kind == "merge":
            table.merge_deltas()
            model.rows = [model.rows[o] for o in model.visible()]
            model.dead = set()
        else:
            save_database(db, directory)
            db = load_database(directory)
    return db


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(_STEPS, min_size=8, max_size=30))
def test_visible_oids_follow_a_set_model(steps):
    model = _Model()
    db = _fresh_database(model)
    txns = []
    with tempfile.TemporaryDirectory() as directory:
        _check(db, model, txns)
        for i, step in enumerate(steps):
            db = _apply(step, db, model, txns,
                        "{0}/db{1}".format(directory, i))
            _check(db, model, txns)
        _check_contents(db, model, txns)


def _holed_table(rows=20000, deletes=500):
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0})".format(k) for k in range(rows)))
    table = db.catalog.get("t")
    table.delete_oids(random.Random(3).sample(range(rows), deletes))
    return table


class TestTid:
    def test_tid_tail_is_read_only(self):
        table = _holed_table(rows=50, deletes=5)
        with pytest.raises(ValueError):
            table.tid().tail[0] = 7
        db = Database()
        db.execute("CREATE TABLE t (k BIGINT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        with pytest.raises(ValueError):
            db.catalog.get("t").tid().tail[0] = 7
        txn = db.begin()
        txn.execute("DELETE FROM t WHERE k = 1")
        with pytest.raises(ValueError):
            txn.tid("t").tail[0] = 7

    def test_one_array_per_version(self):
        table = _holed_table(rows=50, deletes=5)
        first = table.tid()
        assert table.tid() is first
        assert table.tid().tail is first.tail
        victim = int(first.tail[0])
        assert table.delete_oids([victim]) == 1
        second = table.tid()
        assert second is not first
        assert victim not in second.tail.tolist()
        assert table.tid() is second
        # A re-delete or an out-of-range oid is no write.
        assert table.delete_oids([victim, -1, 10 ** 6]) == 0
        assert table.tid() is second
        table.append_rows([[99]])
        assert table.tid() is not second
        assert table.tid().tail[-1] == 50

    def test_snapshot_is_constant_size(self):
        db = Database()
        db.execute("CREATE TABLE t (k BIGINT)")
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "({0})".format(k) for k in range(300)))
        for k in range(0, 300, 3):
            db.execute("DELETE FROM t WHERE k = {0}".format(k))
        txn = db.begin(pin=True)
        assert txn._snapshots["t"] == (300, 100,
                                       db.catalog.get("t").version)

    def test_join_index_skips_deleted_pk_rows(self):
        db = Database()
        db.execute("CREATE TABLE pk (id BIGINT)")
        db.execute("CREATE TABLE fk (ref BIGINT)")
        db.execute("INSERT INTO pk VALUES (1), (2), (3)")
        db.execute("INSERT INTO fk VALUES (3), (2), (1), (4)")
        db.catalog.declare_join_index("fk", "ref", "pk", "id")
        db.execute("DELETE FROM pk WHERE id = 2")
        mapping = db.catalog.join_index("fk", "ref", "pk", "id")
        assert mapping.tail.tolist() == [2, -1, 0, -1]
        txn = db.begin()
        txn.execute("DELETE FROM pk WHERE id = 3")
        txn.execute("INSERT INTO pk VALUES (2)")
        assert txn.join_index("fk", "ref", "pk", "id").tail.tolist() == \
            [-1, 3, 0, -1]

    def test_a_view_sees_each_deleted_row_once(self):
        """The rows a delete hands a watching view are the fresh ones:
        a repeated or out-of-range oid removes nothing more."""
        db = Database()
        db.execute("CREATE TABLE t (k BIGINT, g BIGINT)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 1)")
        db.execute("CREATE MATERIALIZED VIEW v AS "
                   "SELECT g, count(*) AS n FROM t GROUP BY g")
        db._apply_ops([{"table": "t", "appends": [], "deletes": [0, 0, 7]}])
        assert_same_rows(db.query("SELECT g, n FROM v"), [(0, 1), (1, 1)])


KEYS = 400


def _sql_table():
    """A table with holes: deletes and UPDATEs (a delete plus an
    append) spread over it, and the Python rows it must show."""
    rng = random.Random(11)
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT, s VARCHAR)")
    rows = {k: (k, k % 37, "v{0}".format(k % 8)) for k in range(KEYS)}
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1}, '{2}')".format(*row) for row in rows.values()))
    for k in rng.sample(range(KEYS), 120):
        if k % 2:
            db.execute("DELETE FROM t WHERE k = {0}".format(k))
            del rows[k]
        else:
            db.execute("UPDATE t SET v = v + 5 WHERE k = {0}".format(k))
            rows[k] = (k, rows[k][1] + 5, rows[k][2])
    return db, rows


def _queries(rows):
    """(SQL, expected rows) pairs: point, range and VARCHAR equality."""
    out = []
    for k in (0, 1, 2, 7, 8, 250, 399, 1000):
        out.append(("SELECT k, v, s FROM t WHERE k = {0}".format(k),
                    [rows[k]] if k in rows else []))
    out.append(("SELECT k, v FROM t WHERE v >= 5 AND v < 12",
                [r[:2] for r in rows.values() if 5 <= r[1] < 12]))
    out.append(("SELECT k FROM t WHERE k >= 100 AND k < 180",
                [r[:1] for r in rows.values() if 100 <= r[0] < 180]))
    out.append(("SELECT k, s FROM t WHERE s = 'v3'",
                [(r[0], r[2]) for r in rows.values() if r[2] == "v3"]))
    return out


@pytest.fixture
def masked_hits(monkeypatch):
    """Counts selects that took the masked dense path."""
    calls = []
    original = rt._visible_hits

    def spy(mask, cand, visible):
        if visible is not None and len(cand) != len(visible):
            calls.append(len(visible))
        return original(mask, cand, visible)

    monkeypatch.setattr(rt, "_visible_hits", spy)
    return calls


class TestSelectsOnATableWithHoles:
    def test_every_leg_agrees(self, masked_hits):
        db, rows = _sql_table()
        queries = _queries(rows)
        del masked_hits[:]
        db.execute("SET compile = false")
        for sql, want in queries:
            assert_same_rows(db.query(sql), want, context="interp " + sql)
        assert not masked_hits
        db.execute("SET compile = true")
        for sql, want in queries:
            assert_same_rows(db.query(sql), want, context="compiled " + sql)
        assert len(masked_hits) >= len(queries)
        runs = db.parallel_runs
        for sql, want in queries:
            assert_same_rows(db.query(sql, workers=4), want,
                             context="workers=4 " + sql)
        assert db.parallel_runs == runs + len(queries)
        stats = db.plan_compiler.counters()
        assert stats["compiled_runs"] > 0
        assert stats["interpreted_fallbacks"] == 0

    def test_a_snapshot_sees_its_own_state(self, masked_hits):
        db, rows = _sql_table()
        db.execute("SET compile = true")
        txn = db.begin(pin=True)
        # Writers after the snapshot: invisible to it.
        db.execute("DELETE FROM t WHERE k = 0")
        db.execute("UPDATE t SET v = 0 WHERE k = 2")
        db.execute("INSERT INTO t VALUES (7777, 9, 'v3')")
        # The transaction's own writes: visible to it only.
        snapshot = dict(rows)
        txn.execute("DELETE FROM t WHERE k = 8")
        del snapshot[8]
        txn.execute("INSERT INTO t VALUES (8888, 6, 'v3')")
        snapshot[8888] = (8888, 6, "v3")
        for sql, want in _queries(snapshot):
            assert_same_rows(txn.execute(sql).rows(), want,
                             context="snapshot " + sql)
        assert masked_hits
        txn.abort()
        assert db.plan_compiler.counters()["interpreted_fallbacks"] == 0

