"""Property: compiled(plan) ≡ interpreted(plan).

Hypothesis generates a table — including NULL-bearing columns and the
empty table — and a query from a closed template family covering every
fusible shape (filters, arithmetic projections, scalar and grouped
aggregates, string equality, IS NULL).  The same SQL runs through the
same database twice, interpreted and compiled, and the answers must be
identical multisets.  Kernels share one database so the cache, DML
version bumps and cracking layout changes are all in play.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.database import Database
from tests.helpers import normalize_row, query_interpreted

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.one_of(st.none(),
                  st.integers(min_value=-100, max_value=100)),
        st.integers(min_value=0, max_value=4),
        st.one_of(st.none(), st.sampled_from(["aa", "bb", "cc"])),
    ),
    min_size=0, max_size=60)

TEMPLATES = [
    "SELECT k, v FROM t WHERE k > {c0} AND v < {c1}",
    "SELECT k + v FROM t WHERE k >= {c0}",
    "SELECT sum(v), count(*), min(v), max(v) FROM t WHERE k > {c0}",
    "SELECT avg(v) FROM t WHERE k < {c1} AND g = {g}",
    "SELECT g, sum(v), count(*) FROM t WHERE k > {c0} GROUP BY g",
    "SELECT g, min(v) FROM t GROUP BY g HAVING count(*) > 1",
    "SELECT k FROM t WHERE s = '{s}'",
    "SELECT s, count(*) FROM t WHERE k > {c0} GROUP BY s",
    "SELECT k FROM t WHERE v IS NULL",
    "SELECT sum(v) FROM t WHERE v IS NOT NULL AND k > {c0}",
    "SELECT DISTINCT g FROM t WHERE k < {c1}",
    "SELECT count(*) FROM t",
]

query_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(TEMPLATES) - 1),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["aa", "bb", "cc", "zz"]),
)


def _load(db, rows):
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, g INTEGER, "
               "s TEXT)")
    if rows:
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "({0}, {1}, {2}, {3})".format(
                k, "NULL" if v is None else v, g,
                "NULL" if s is None else "'{0}'".format(s))
            for k, v, g, s in rows))


def _multiset(rows):
    return Counter(normalize_row(r) for r in rows)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, queries=st.lists(query_strategy,
                                            min_size=1, max_size=6))
def test_compiled_equals_interpreted(rows, queries):
    db = Database()
    _load(db, rows)
    for template_id, c0, c1, g, s in queries:
        sql = TEMPLATES[template_id].format(c0=c0, c1=c1, g=g, s=s)
        interpreted = query_interpreted(db, sql)
        compiled = db.query(sql)
        assert _multiset(compiled) == _multiset(interpreted), sql
    assert db.plan_compiler.stats["interpreted_fallbacks"] == 0


@settings(max_examples=25, deadline=None)
@given(rows=rows_strategy,
       query=query_strategy,
       pipeline=st.sampled_from(["default", "cracking", "recycling"]))
def test_compiled_equals_interpreted_across_pipelines(rows, query,
                                                      pipeline):
    factory = {"default": Database,
               "cracking": Database.with_cracking,
               "recycling": Database.with_recycling}[pipeline]
    db = factory()
    _load(db, rows)
    template_id, c0, c1, g, s = query
    sql = TEMPLATES[template_id].format(c0=c0, c1=c1, g=g, s=s)
    # Twice each way: the second compiled run hits the kernel cache,
    # and under cracking the layouts differ between runs.
    first = query_interpreted(db, sql)
    db.execute("SET compile = true")
    for _ in range(2):
        assert _multiset(db.query(sql)) == _multiset(first), sql
    assert _multiset(query_interpreted(db, sql)) == _multiset(first), sql


def test_empty_vectors_through_every_shape():
    """The empty table hits every aggregate's empty-input branch (None
    results, empty group sets) — pinned explicitly because Hypothesis
    shrinks here anyway and the branch is easy to break."""
    db = Database()
    _load(db, [])
    for template_id in range(len(TEMPLATES)):
        sql = TEMPLATES[template_id].format(c0=0, c1=0, g=0, s="aa")
        assert _multiset(db.query(sql)) == \
            _multiset(query_interpreted(db, sql)), sql
