"""Kernel cache semantics: hits, misses, invalidation, fallback.

The cache contract: one kernel per plan shape; invalidation (never
silent reuse) on schema change and on cracking-layout change; negative
verdicts for unsupported shapes don't pollute the hit/miss counters;
everything the compiler can't run falls back to the interpreter with
identical answers.
"""

import pytest

from repro.compile import KernelCache, normalize
from repro.sql.database import Database
from repro.sql.parser import parse_sql
from repro.sql.compiler import compile_select
from tests.helpers import query_interpreted


def _db(rows=50):
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, g INTEGER)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1}, {2})".format(i, (i * 37) % 100, i % 3)
        for i in range(rows)))
    return db


# -- unit level --------------------------------------------------------------

def test_lookup_counts_hits_and_misses():
    cache = KernelCache()
    assert cache.lookup("k1", ()) is None
    cache.store("k1", (), "plan")
    assert cache.lookup("k1", ()) == "plan"
    assert (cache.hits, cache.misses, cache.invalidations) == (1, 1, 0)


def test_schema_bump_invalidates_and_evicts():
    cache = KernelCache()
    cache.store("k1", (), "plan")
    cache.bump_schema()
    assert cache.lookup("k1", ()) is None
    assert cache.invalidations == 1
    assert len(cache) == 0


def test_layout_token_mismatch_invalidates():
    cache = KernelCache()
    cache.store("k1", ("uncracked",), "plan")
    assert cache.lookup("k1", ("cracked",)) is None
    assert cache.invalidations == 1
    cache.store("k1", ("cracked",), "plan2")
    assert cache.lookup("k1", ("cracked",)) == "plan2"


def test_fifo_eviction_respects_capacity():
    cache = KernelCache(max_entries=2)
    cache.store("a", (), 1)
    cache.store("b", (), 2)
    cache.store("c", (), 3)
    assert len(cache) == 2
    assert cache.lookup("a", ()) is None     # evicted, counts a miss
    assert cache.lookup("c", ()) == 3


def test_plan_shapes_ignore_variable_names_but_not_structure():
    db = _db()
    def shape(sql):
        program, _ = compile_select(db.catalog, parse_sql(sql))
        return normalize(db.pipeline.optimize(program))
    a = shape("SELECT k FROM t WHERE k > 5")
    b = shape("SELECT k FROM t WHERE k > 99")
    c = shape("SELECT k FROM t WHERE k < 5")
    d = shape("SELECT v FROM t WHERE k > 5")
    assert a.key == b.key and a.params != b.params
    assert a.key != c.key          # open bound flips structurally
    assert a.key != d.key          # different column is structural


# -- engine level ------------------------------------------------------------

def test_repeated_query_hits_kernel_cache():
    db = _db()
    sql = "SELECT sum(v) FROM t WHERE k > 10"
    for _ in range(3):
        db.query(sql)
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_misses"] == 1
    assert stats["kernel_cache_hits"] == 2
    assert stats["compiled_runs"] == 3


def test_create_table_invalidates_kernels():
    db = _db()
    db.query("SELECT sum(v) FROM t WHERE k > 10")
    db.execute("CREATE TABLE other (x INTEGER)")
    db.query("SELECT sum(v) FROM t WHERE k > 10")
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_invalidations"] == 1
    assert stats["kernel_cache_misses"] == 2


def test_cracking_layout_change_respecializes():
    db = Database.with_cracking()
    db.execute("SET compile = true")
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, g INTEGER)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1}, {2})".format(i, (i * 37) % 100, i % 3)
        for i in range(50)))
    sql = "SELECT sum(v) FROM t WHERE k > 10 AND k < 40"
    first = db.query(sql)   # creates the cracker mid-run
    second = db.query(sql)  # layout token changed
    assert first == second == query_interpreted(db, sql)
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_invalidations"] >= 1


def test_unsupported_shapes_fall_back_without_counting_misses():
    db = _db()
    # ORDER BY runs through algebra.sortmulti — interpreter-only; the
    # plan's fusible prefix is shorter than the fragment floor for this
    # tiny shape, or compiles partially.  Either way: same answers.
    sql = "SELECT k FROM t ORDER BY k LIMIT 3"
    assert db.query(sql) == query_interpreted(db, sql)

    # A FROM-less engine path that surely can't fuse: constant select.
    assert db.query("SELECT count(*) FROM t") == \
        query_interpreted(db, "SELECT count(*) FROM t")


def test_set_compile_pragma_flows_through_sessions():
    db = _db()
    assert db.default_compile is True   # kernels are the default
    baseline = query_interpreted(db, "SELECT sum(v) FROM t WHERE k > 7")
    db.execute("SET compile = true")
    assert db.default_compile is True
    assert db.query("SELECT sum(v) FROM t WHERE k > 7") == baseline
    assert db.plan_compiler.stats["compiled_runs"] >= 1
    # Transactions inherit the session default.
    with db.begin() as txn:
        txn.execute("INSERT INTO t VALUES (999, 3, 0)")
        rows = txn.execute(
            "SELECT sum(v) FROM t WHERE k > 7").rows()
    assert rows[0][0] == baseline[0][0] + 3
    db.execute("SET compile = false")
    assert db.default_compile is False
    with pytest.raises(ValueError):
        db.execute("SET compile = 1")


def test_compiled_runs_inside_sharded_scatter_legs():
    from repro.sharding import ShardedDatabase
    sharded = ShardedDatabase(n_shards=2)
    sharded.execute("CREATE TABLE t (k INTEGER, v INTEGER) "
                    "PARTITION BY (k)")
    sharded.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1})".format(i, (i * 37) % 100) for i in range(60)))
    sharded.execute("SET compile = false")
    baseline = sorted(sharded.query("SELECT k, v FROM t WHERE k > 10"))
    assert sum(shard.db.plan_compiler.stats["compiled_runs"]
               for shard in sharded.shards) == 0, \
        "SET compile = false did not reach the shard legs"
    sharded.execute("SET compile = true")
    assert sorted(sharded.query(
        "SELECT k, v FROM t WHERE k > 10")) == baseline
    assert sharded.query("SELECT sum(v) FROM t WHERE k > 10") == \
        [(sum(v for k, v in baseline),)]
    compiled_runs = sum(
        shard.db.plan_compiler.stats["compiled_runs"]
        for shard in sharded.shards)
    assert compiled_runs >= 1, "no shard leg ran compiled"
