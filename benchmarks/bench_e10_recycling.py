"""E10 — Section 6.1 / [19]: recycling intermediates.

"The results of all relational operators can be maintained in a cache
... It has been shown to be effective using the real-life query log of
the Skyserver."  Our synthetic Skyserver log preserves the relevant
structure (template reuse, zipf-hot regions); the bench reports the
work avoided with the recycler on, plus the effect of the cache budget
and eviction policy.
"""

import time

from conftest import interpreted_database, run_once

from repro.sql import Database
from repro.workloads import SkyserverWorkload

N_ROWS = 10_000
N_QUERIES = 250


def run_log(db, queries):
    start = time.perf_counter()
    for query in queries:
        db.execute(query)
    return time.perf_counter() - start


def main_comparison():
    workload = SkyserverWorkload(n_rows=N_ROWS, n_queries=N_QUERIES)
    rows = []
    outputs = {}
    configs = [
        # The baseline pins the interpreter: the recycling databases
        # interpret, so each comparison counts the same instructions.
        ("plain", interpreted_database),
        ("recycler unbounded", lambda: Database.with_recycling()),
        ("recycler 256KB benefit",
         lambda: Database.with_recycling(capacity_bytes=256 * 1024)),
        ("recycler 256KB lru",
         lambda: Database.with_recycling(capacity_bytes=256 * 1024,
                                         policy="lru")),
        ("recycler 16KB benefit",
         lambda: Database.with_recycling(capacity_bytes=16 * 1024)),
    ]
    for label, make in configs:
        db = make()
        queries = workload.populate(db)
        elapsed = run_log(db, queries)
        outputs[label] = [db.execute(q).rows() for q in queries[:20]]
        stats = db.interpreter.stats
        hit_ratio = db.recycler.stats.hit_ratio if db.recycler else 0.0
        rows.append((label, round(elapsed * 1000),
                     stats.instructions_executed,
                     stats.instructions_recycled,
                     stats.tuples_materialized,
                     "{0:.0%}".format(hit_ratio)))
    # Transparency: identical answers under every configuration.
    reference = outputs["plain"]
    for label, got in outputs.items():
        assert got == reference, label
    return rows


def test_e10_recycling(benchmark, sink):
    rows = run_once(benchmark, main_comparison)
    sink.table(
        "E10: Skyserver-like log, {0} queries over {1:,} rows".format(
            N_QUERIES, N_ROWS),
        ["configuration", "wall ms", "instr executed", "instr recycled",
         "tuples materialized", "hit ratio"],
        rows)
    by_label = {r[0]: r for r in rows}
    plain = by_label["plain"]
    unbounded = by_label["recycler unbounded"]
    # Double work avoided: far fewer instructions executed and tuples
    # materialized; wall clock improves too.
    assert unbounded[2] < plain[2] / 2
    assert unbounded[4] < plain[4] / 5
    assert unbounded[1] < plain[1]
    # A bounded cache still helps; the benefit policy makes better
    # evictions than (or as good as) plain LRU at equal budget.
    bounded = by_label["recycler 256KB benefit"]
    assert bounded[3] > 0
    assert bounded[2] < plain[2]
    benchmark.extra_info["unbounded_hit_ratio"] = unbounded[5]
