"""E14 — Section 3.2: delta BATs make snapshots cheap.

"Delta BATs are designed to delay updates to the main columns, and
allow a relatively cheap snapshot isolation mechanism (only the delta
BATs are copied)."  Measured: the cost of opening a transaction and
reading a column under growing *table* sizes (should be flat — nothing
is copied when nothing changed, and a snapshot is a row count and a
delete-log length however many rows are deleted) and under growing
*concurrent delta* sizes (should scale with the delta, not the table).
"""

import time

from conftest import run_once

from repro.sql import Database
from repro.workloads import uniform_ints


def build_db(n_rows):
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    values = uniform_ints(n_rows, 0, 1000, seed=n_rows)
    db.catalog.get("t").append_rows(
        [(int(i), int(v)) for i, v in enumerate(values)])
    return db


def _snapshot_read_us(db):
    start = time.perf_counter()
    for _ in range(50):
        txn = db.begin()
        column = txn.bind("t", "v")
        txn.abort()
    return (time.perf_counter() - start) / 50 * 1e6, column


def snapshot_cost_vs_table_size():
    rows = []
    for n in (10_000, 100_000, 400_000):
        db = build_db(n)
        elapsed, column = _snapshot_read_us(db)
        shared = db.catalog.get("t").bind("v")
        zero_copy = column is shared
        # The same read with 1% of the rows deleted.
        db.catalog.get("t").delete_oids(range(0, n, 100))
        holed, column = _snapshot_read_us(db)
        rows.append((n, round(elapsed, 1), round(holed, 1),
                     zero_copy and column is shared))
    return rows


def snapshot_cost_vs_delta_size():
    n = 200_000
    rows = []
    for delta in (0, 100, 1_000, 10_000):
        db = build_db(n)
        txn = db.begin()
        txn.execute("SELECT count(*) FROM t")  # take the snapshot
        if delta:
            db.catalog.get("t").append_rows(
                [(i, i) for i in range(delta)])
        start = time.perf_counter()
        for _ in range(20):
            txn._bind_cache.clear()
            txn.bind("t", "v")
        elapsed = (time.perf_counter() - start) / 20
        assert txn.count("t") == n  # the snapshot stays frozen
        txn.abort()
        rows.append((delta, round(elapsed * 1e6, 1)))
    return rows


def test_e14_delta_snapshots(benchmark, sink):
    def harness():
        return snapshot_cost_vs_table_size(), snapshot_cost_vs_delta_size()

    table_rows, delta_rows = run_once(benchmark, harness)
    sink.table(
        "E14a: open snapshot + bind column, by table size "
        "(no concurrent writers)",
        ["table rows", "us per snapshot-read", "us, 1% rows deleted",
         "zero-copy"], table_rows)
    sink.table(
        "E14b: bind column under a concurrent delta (table 200k rows)",
        ["concurrent delta rows", "us per bind"], delta_rows)
    # Quiescent snapshots are zero-copy and (near) constant-time, with
    # or without deleted rows.
    assert all(row[3] for row in table_rows)
    assert table_rows[-1][1] < table_rows[0][1] * 20
    assert table_rows[-1][2] < table_rows[0][2] * 20
    # With a concurrent delta the cost follows the *slice* (view) +
    # private merge, it does not explode with table size; the no-delta
    # case stays the cheapest.
    assert delta_rows[0][1] <= min(r[1] for r in delta_rows[1:]) * 1.5
    benchmark.extra_info["zero_copy"] = True
