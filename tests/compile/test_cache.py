"""Kernel store semantics: hits, misses, verdicts, invalidation.

The store's contract: one kernel per plan shape key, looked up without
reading catalog state; a schema change empties it, rejected verdicts
included; negative verdicts for unsupported shapes don't pollute the
hit/miss counters; everything the compiler can't run falls back to the
interpreter with identical answers.
"""

import pytest

from repro.compile import CompileUnsupported, normalize
from repro.compile import executor as compile_executor
from repro.sql import statement_cache
from repro.sql.database import Database
from repro.sql.parser import parse_sql
from repro.sql.compiler import compile_select
from tests.helpers import query_interpreted


def _db(rows=50, db=None):
    db = Database() if db is None else db
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, g INTEGER)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1}, {2})".format(i, (i * 37) % 100, i % 3)
        for i in range(rows)))
    return db


def _optimized(db, sql):
    program, _ = compile_select(db.catalog, parse_sql(sql))
    return db.pipeline.optimize(program)


def test_plan_shapes_ignore_variable_names_but_not_structure():
    db = _db()
    def shape(sql):
        return normalize(_optimized(db, sql))
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
    assert stats["kernel_cache_entries"] == 1


def test_lookup_counts_hits_and_misses():
    """A kernel counts one miss when compiled and one hit per reuse; a
    rejected shape counts neither, only an unsupported plan."""
    db = _db()
    db.query("SELECT sum(v) FROM t WHERE k > 10")
    db.query("SELECT sum(v) FROM t WHERE k > 20")
    stats = db.plan_compiler.counters()
    assert (stats["kernel_cache_misses"], stats["kernel_cache_hits"]) \
        == (1, 1)
    db.plan_compiler.kernels.put(
        normalize(_optimized(db, "SELECT k FROM t WHERE v > 5")).key,
        compile_executor.REJECTED)
    db.query("SELECT k FROM t WHERE v > 5")
    stats = db.plan_compiler.counters()
    assert (stats["kernel_cache_misses"], stats["kernel_cache_hits"],
            stats["unsupported_plans"]) == (1, 1, 1)
    assert stats["kernel_cache_entries"] == 1   # verdicts are no kernels


def test_two_texts_of_one_plan_shape_share_one_kernel():
    db = _db()
    a = db.query("SELECT sum(v) AS total FROM t WHERE k > 10")
    b = db.query("SELECT sum(v) AS s FROM t WHERE k > 40")
    assert len(db.statement_cache) == 2      # two statements, two plans
    stats = db.plan_compiler.counters()
    assert (stats["kernel_cache_misses"], stats["kernel_cache_hits"]) \
        == (1, 1)
    assert stats["kernel_cache_entries"] == 1
    assert a == query_interpreted(db, "SELECT sum(v) FROM t WHERE k > 10")
    assert b == query_interpreted(db, "SELECT sum(v) FROM t WHERE k > 40")


def test_create_table_invalidates_kernels():
    db = _db()
    db.query("SELECT sum(v) FROM t WHERE k > 10")
    db.execute("CREATE TABLE other (x INTEGER)")
    db.query("SELECT sum(v) FROM t WHERE k > 10")
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_misses"] == 2
    assert stats["kernel_cache_hits"] == 0


def test_schema_change_empties_the_kernel_store():
    db = _db()
    db.query("SELECT sum(v) FROM t WHERE k > 10")
    db.query("SELECT k FROM t WHERE v < 30")
    assert db.plan_compiler.counters()["kernel_cache_entries"] == 2
    db.execute("CREATE TABLE other (x INTEGER)")
    assert len(db.plan_compiler.kernels) == 0
    assert db.plan_compiler.counters()["kernel_cache_entries"] == 0


def test_schema_change_drops_a_rejected_verdict(monkeypatch):
    """A rejected shape stays with the interpreter — no codegen retry —
    until the next schema change, which lets codegen try again."""
    db = _db()
    sql = "SELECT sum(v) FROM t WHERE k > 10"
    expected = query_interpreted(db, sql)
    attempts = []
    real = compile_executor.compile_program

    def refuse(*args, **kwargs):
        attempts.append(1)
        raise CompileUnsupported("refused for the test")
    monkeypatch.setattr(compile_executor, "compile_program", refuse)
    assert db.query(sql) == expected
    monkeypatch.setattr(compile_executor, "compile_program", real)
    assert db.query(sql) == expected         # the verdict holds
    stats = db.plan_compiler.counters()
    assert len(attempts) == 1
    assert stats["unsupported_plans"] == 2
    assert stats["compiled_runs"] == 0
    db.execute("CREATE TABLE other (x INTEGER)")
    assert db.query(sql) == expected
    stats = db.plan_compiler.counters()
    assert stats["unsupported_plans"] == 2
    assert stats["kernel_cache_misses"] == 2
    assert stats["compiled_runs"] == 1


def test_kernel_store_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(statement_cache, "CAPACITY", 2)
    db = _db()
    texts = ["SELECT sum(v) FROM t WHERE k > 10",
             "SELECT k FROM t WHERE v < 30",
             "SELECT g FROM t WHERE k = 3"]
    db.query(texts[0])
    db.query(texts[1])
    db.query(texts[0])                       # texts[1] is now oldest
    db.query(texts[2])                       # evicts texts[1]'s kernel
    assert len(db.plan_compiler.kernels) == 2
    db.query(texts[0])
    stats = db.plan_compiler.counters()
    assert (stats["kernel_cache_misses"], stats["kernel_cache_hits"]) \
        == (3, 2)
    db.query(texts[1])                       # recompiled
    assert db.plan_compiler.counters()["kernel_cache_misses"] == 4


def test_cracker_appearing_between_runs_keeps_the_kernel():
    """Codegen never specializes on crackers (a kernel resolves bound
    columns and cracked selects at run time), so a cracker that appears
    between two compiled runs — or vanishes when ``merge_deltas``
    renumbers the oids — neither recompiles nor changes the answer."""
    db = Database.with_cracking()
    db.execute("SET compile = true")
    db = _db(db=db)
    sql = "SELECT sum(v) FROM t WHERE k > 10 AND k < 40"
    table = db.catalog.get("t")
    assert not table._crackers
    first = db.query(sql)                    # creates the cracker
    assert "k" in table._crackers
    second = db.query(sql)
    stats = db.plan_compiler.counters()
    assert (stats["kernel_cache_misses"], stats["kernel_cache_hits"]) \
        == (1, 1)
    assert first == second == query_interpreted(db, sql)
    db.execute("DELETE FROM t WHERE k = 20")  # its WHERE: one more kernel
    table.merge_deltas()
    assert not table._crackers
    before = db.plan_compiler.counters()
    third = db.query(sql)
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_misses"] == before["kernel_cache_misses"]
    assert stats["kernel_cache_hits"] == before["kernel_cache_hits"] + 1
    assert stats["interpreted_fallbacks"] == 0
    assert third == query_interpreted(db, sql)
    assert third[0][0] == first[0][0] - (20 * 37) % 100

    # A cracker on a column a plain (uncracked) plan binds does not
    # recompile its kernel either.
    db = _db()
    db.query(sql)
    db.catalog.get("t").cracked_select("k", 10, 40)
    assert db.query(sql) == query_interpreted(db, sql)
    assert db.plan_compiler.counters()["kernel_cache_misses"] == 1


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
    assert db.options.compile is True   # kernels are the default
    baseline = query_interpreted(db, "SELECT sum(v) FROM t WHERE k > 7")
    db.execute("SET compile = true")
    assert db.options.compile is True
    assert db.query("SELECT sum(v) FROM t WHERE k > 7") == baseline
    assert db.plan_compiler.stats["compiled_runs"] >= 1
    # Transactions inherit the session default.
    with db.begin() as txn:
        txn.execute("INSERT INTO t VALUES (999, 3, 0)")
        rows = txn.execute(
            "SELECT sum(v) FROM t WHERE k > 7").rows()
    assert rows[0][0] == baseline[0][0] + 3
    db.execute("SET compile = false")
    assert db.options.compile is False
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
