"""TLP metamorphic oracle over the plan-fragment compiler.

The partition identity Q(p) ⊎ Q(NOT p) ⊎ Q(p IS NULL) == Q(true) is
checked with every leg running compiled (``SET compile = true`` on
every pipeline, cracking and recycling included) — the three WHERE
variants of one predicate normalize to *different* plan shapes (the
NOT / IS NULL structure is structural), while the same variant across
predicates of one template normalizes to the *same* shape with
different parameters.  One band therefore exercises both sides of the
kernel cache: shape sharing and parameter isolation.

The cache-poisoning regression pins the isolation side down exactly:
two same-shape, different-constant queries must hit one kernel and
still produce their own results.

CI shifts the seed window with ``COMPILE_SEED`` (the compiled bands
move together).
"""

import os
from collections import Counter

import pytest

from repro.sql.database import Database
from tests.helpers import normalize_row, query_interpreted
from tests.oracle.generator import QueryGenerator

SEED_BASE = int(os.environ.get("COMPILE_SEED", "0"))
SEEDS = list(range(SEED_BASE + 1, SEED_BASE + 26))
FAST_SEEDS = SEEDS[:6]
PREDICATES_PER_TABLE = 3


def _make_database(seed):
    kind = seed % 3
    if kind == 0:
        return Database.with_cracking()
    if kind == 1:
        return Database.with_recycling()
    return Database()


def _multiset(rows):
    return Counter(normalize_row(r) for r in rows)


def _check_partition(db, table, predicate, label):
    cols = ", ".join(table.column_names)
    whole = _multiset(db.query(
        "SELECT {0} FROM {1}".format(cols, table.name)))
    part = Counter()
    for variant in ("({0})", "NOT ({0})", "({0}) IS NULL"):
        where = variant.format(predicate)
        part += _multiset(db.query(
            "SELECT {0} FROM {1} WHERE {2}".format(
                cols, table.name, where)))
    assert part == whole, (
        "{0}: compiled TLP partitions of p={1!r} do not rebuild the "
        "table (missing {2}, extra {3})".format(
            label, predicate, list((whole - part).elements())[:5],
            list((part - whole).elements())[:5]))
    total = db.query("SELECT count(*) FROM {0}".format(table.name))[0][0]
    split = sum(db.query(
        "SELECT count(*) FROM {0} WHERE {1}".format(
            table.name, variant.format(predicate)))[0][0]
        for variant in ("({0})", "NOT ({0})", "({0}) IS NULL"))
    assert split == total, \
        "{0}: compiled count(*) partitions of p={1!r} sum to {2}, " \
        "not {3}".format(label, predicate, split, total)


def _run_band(seed):
    generator = QueryGenerator(seed)
    db = _make_database(seed)
    for statement in generator.setup_statements():
        db.execute(statement)
    db.execute("SET compile = true")
    for t_index, table in enumerate(generator.tables):
        for i in range(PREDICATES_PER_TABLE):
            predicate = generator.gen_predicate(
                table, case_id=t_index * PREDICATES_PER_TABLE + i)
            _check_partition(db, table, predicate,
                             "seed={0} #{1}".format(seed, i))


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_compiled_tlp_partitions_rebuild_the_table(seed):
    _run_band(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS[len(FAST_SEEDS):])
def test_compiled_tlp_partitions_rebuild_the_table_full(seed):
    _run_band(seed)


def test_same_shape_different_constants_do_not_share_results():
    """Cache-poisoning regression.  Two queries that differ only in a
    literal normalize to one plan shape and must share one compiled
    kernel (second query hits the cache) — but each run receives its
    own parameter vector, so the answers differ and match the
    interpreter exactly.  A compiler that bakes constants into the
    kernel returns the first query's answer for the second."""
    db = Database()
    db.execute("CREATE TABLE p (k INTEGER, v INTEGER)")
    db.execute("INSERT INTO p VALUES {0}".format(
        ", ".join("({0}, {1})".format(i, i * 3 % 17)
                  for i in range(200))))
    first = "SELECT count(*) FROM p WHERE k > 50"
    second = "SELECT count(*) FROM p WHERE k > 150"

    a = db.query(first)
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_misses"] == 1
    assert stats["kernel_cache_hits"] == 0

    b = db.query(second)
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_misses"] == 1, \
        "same-shape query recompiled instead of hitting the cache"
    assert stats["kernel_cache_hits"] == 1

    assert a == query_interpreted(db, first)
    assert b == query_interpreted(db, second)
    assert a == [(149,)] and b == [(49,)]

    # Same shape again with a fresh constant, interleaved both ways:
    # results stay independent whichever entry is warm.
    third = "SELECT count(*) FROM p WHERE k > 0"
    c = db.query(third)
    assert c == [(199,)]
    assert db.query(first) == a
    assert db.query(second) == b


def test_string_constants_are_parameterized_too():
    """String literals go through the parameter vector like numbers —
    a kernel must never pin the interned offset of its first query's
    literal."""
    db = Database()
    db.execute("CREATE TABLE s (k INTEGER, name TEXT)")
    db.execute("INSERT INTO s VALUES (1, 'ann'), (2, 'bob'), "
               "(3, 'ann'), (4, 'cal'), (5, 'bob'), (6, 'ann')")
    a = db.query("SELECT k FROM s WHERE name = 'ann'")
    b = db.query("SELECT k FROM s WHERE name = 'bob'")
    stats = db.plan_compiler.counters()
    assert stats["kernel_cache_hits"] >= 1
    assert sorted(a) == [(1,), (3,), (6,)]
    assert sorted(b) == [(2,), (5,)]
