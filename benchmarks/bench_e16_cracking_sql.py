"""E16 — ablation: cracking deployed inside the SQL engine (§6.1).

E9 measures the cracker data structure in isolation; this ablation
measures the paper's actual deployment story — "the physical data
layout is reorganized within the critical path of query processing" —
by running the same SQL range-query workload on a plain database and
on one whose optimizer pipeline swaps selections for
``sql.crackedselect``.  No schema changes, no knobs: the only
difference is one optimizer module.

Both engines interpret (the plain one pins ``SET compile = false``;
cracking databases start pinned), so the comparison is operator for
operator.  A ``plain, compiled`` row runs the default engine's fused
kernels over the same second half: a compiled scan still beats a warm
cracked range select, the known defect until cracking reaches the
compiled path.
"""

import time

import numpy as np

from conftest import interpreted_database, run_once

from repro.sql import Database
from repro.workloads import uniform_ints

N = 200_000
N_QUERIES = 120


def build(db_factory):
    db = db_factory()
    db.execute("CREATE TABLE m (v INT)")
    db.catalog.get("m").append_rows(
        [(int(v),) for v in uniform_ints(N, 0, 1 << 20, seed=5)])
    return db


def run_workload(db, queries):
    start = time.perf_counter()
    out = [db.execute(q).scalar() for q in queries]
    return out, time.perf_counter() - start


def harness():
    rng = np.random.default_rng(6)
    queries = []
    for _ in range(N_QUERIES):
        lo = int(rng.integers(0, (1 << 20) - 4096))
        queries.append("SELECT count(*) FROM m WHERE v >= {0} AND "
                       "v < {1}".format(lo, lo + 4096))
    plain = build(interpreted_database)
    cracked = build(Database.with_cracking)
    plain_out, plain_s = run_workload(plain, queries)
    cracked_out, cracked_s = run_workload(cracked, queries)
    assert plain_out == cracked_out
    touched, pieces = cracked.catalog.get("m").cracker_stats("v")
    # Split the workload in half to show the warm-up effect.
    half = N_QUERIES // 2
    plain2 = build(interpreted_database)
    cracked2 = build(Database.with_cracking)
    compiled2 = build(Database)
    run_workload(cracked2, queries[:half])
    warm_out, warm_s = run_workload(cracked2, queries[half:])
    run_workload(plain2, queries[:half])
    cold_out, cold_plain_s = run_workload(plain2, queries[half:])
    run_workload(compiled2, queries[:half])
    compiled_out, compiled_s = run_workload(compiled2, queries[half:])
    assert warm_out == cold_out == compiled_out
    return [
        ("plain engine", round(plain_s * 1000), "-", "-"),
        ("cracking engine (all queries)", round(cracked_s * 1000),
         "{0:,}".format(touched), pieces),
        ("plain, 2nd half only", round(cold_plain_s * 1000), "-", "-"),
        ("cracking, 2nd half (warm)", round(warm_s * 1000), "-", "-"),
        ("plain, compiled, 2nd half", round(compiled_s * 1000), "-", "-"),
    ]


def test_e16_cracking_sql(benchmark, sink):
    rows = run_once(benchmark, harness)
    sink.table(
        "E16: {0} SQL range queries over {1:,} rows".format(N_QUERIES, N),
        ["configuration", "wall ms", "tuples reorganized", "pieces"],
        rows)
    by_label = {r[0]: r[1] for r in rows}
    # Once warm, the cracked engine answers the same queries faster
    # than the scanning engine.
    assert by_label["cracking, 2nd half (warm)"] < \
        by_label["plain, 2nd half only"]
    benchmark.extra_info["warm_speedup"] = round(
        by_label["plain, 2nd half only"]
        / max(by_label["cracking, 2nd half (warm)"], 1), 1)
