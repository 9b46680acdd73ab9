"""E13 — Sections 2-3 / [6]: column-at-a-time bulk execution vs the
tuple-at-a-time iterator paradigm.

The same filtered join-aggregate runs through (a) the MonetDB-style
stack (SQL -> MAL -> bulk BAT operators with full materialization) and
(b) the Volcano engine (per-tuple next() calls with an interpreted
predicate in the inner loop).  The MAL plan executes a few dozen
instructions regardless of the row count — the instruction-locality
argument — while the iterator engine's call count scales with tuples.
The SQL side pins the interpreter (``SET compile = false``): fused
kernels would hide the bulk operators this experiment counts.
"""

import time

from conftest import interpreted_database, run_once

from repro.storage import (
    GroupAggregate,
    HashJoinOp,
    SelectOp,
    TableScan,
    run_plan,
)
from repro.workloads import StarSchema

SQL = ("SELECT category, sum(qty) AS total FROM sales "
       "JOIN items ON sales.item_id = items.item_id "
       "WHERE qty >= 5 GROUP BY category ORDER BY category")


def run_both(n_sales):
    schema = StarSchema(n_sales=n_sales, n_items=100)
    db = schema.populate(interpreted_database())
    start = time.perf_counter()
    sql_rows = db.query(SQL)
    bulk_s = time.perf_counter() - start
    mal_instructions = db.interpreter.stats.instructions_executed

    items = schema.item_rows()
    sales = schema.sales_rows()
    start = time.perf_counter()
    volcano_rows = sorted(run_plan(GroupAggregate(
        HashJoinOp(TableScan(items),
                   SelectOp(TableScan(sales), lambda r: r[2] >= 5),
                   build_key=lambda r: r[0], probe_key=lambda r: r[0]),
        key_fn=lambda r: r[5],
        aggregates=[(0, lambda acc, r: acc + r[2])])))
    tuple_s = time.perf_counter() - start
    assert [(int(c), int(t)) for c, t in sql_rows] == \
        [(int(c), int(t)) for c, t in volcano_rows]
    return (n_sales, mal_instructions, round(bulk_s * 1000, 1),
            round(tuple_s * 1000, 1), round(tuple_s / bulk_s, 1))


def sweep():
    return [run_both(n) for n in (10_000, 50_000, 200_000)]


def test_e13_bulk_vs_tuple(benchmark, sink):
    rows = run_once(benchmark, sweep)
    sink.table(
        "E13: filtered join-aggregate, bulk BAT algebra vs Volcano",
        ["N sales", "MAL instructions", "bulk ms", "tuple-at-a-time ms",
         "speedup"],
        rows)
    # The MAL instruction count is constant in N (bulk operators), and
    # the bulk engine wins by a growing factor.
    assert rows[0][1] == rows[-1][1]
    assert rows[-1][4] >= 3
    assert rows[-1][4] >= rows[0][4]  # the gap grows with N
    benchmark.extra_info["speedup_at_200k"] = rows[-1][4]
