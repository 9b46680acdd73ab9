"""One statement, one answer, on every engine.

Each statement runs on the serial interpreter, the compiled kernels,
the morsel engine (``workers=4``) and a two-shard cluster.  All four
must return the same rows — values *and* Python types — or raise the
same error class, with warnings as errors (as CI's tier-1 runs).  The
cases are the corners where the engines used to differ: aggregates over
no rows, zero divisors (per row and after aggregation), ORDER BY on an
alias or under ``*``, HAVING with ORDER BY over aggregates, DISTINCT
ordered by a column it does not select, NULLs in projections and
grouped aggregates (arithmetic over them included), multi-column
GROUP BY, IS NULL over an aggregate and a self-join (which the morsel
engine hands to the serial one).

Engines that agree can still agree on a wrong answer, so the NULL
corners of predicates and column arithmetic are checked against the
row-at-a-time reference executor as well.
"""

import pytest

from repro.sharding import ShardedDatabase
from repro.sql import Database, parse_sql
from repro.sql.compiler import SQLCompileError
from tests.helpers import assert_same_rows
from tests.oracle.reference import ReferenceExecutor

pytestmark = pytest.mark.filterwarnings("error")

ROWS = [(k, (k * 7) % 41, k % 3) for k in range(40)]   # a is unique

#: Table ``n``: NULLs in every value column.  Group 2 has no ``a`` and
#: group 1 no ``v`` at all; ``v`` is dyadic, so sums are exact in any
#: order.
NULL_ROWS = [(k, k % 3,
              None if k % 3 == 2 or k % 4 == 0 else (k * 5) % 17,
              None if k % 3 == 1 else k / 4,
              None if k % 5 == 0 else "s{0}".format(k % 4))
             for k in range(24)]

#: Table ``z``: one NULL row among BIGINT/INT/DOUBLE/VARCHAR values.
Z_COLUMNS = ("k", "v", "i", "d", "s")
Z_ROWS = [(1, None, None, None, None), (2, 4, 5, 4.0, "a"),
          (3, -7, 0, -1.5, "b"), (4, 9, -3, 0.5, "c")]

#: (statement, ordered result, the morsel engine runs it itself)
CASES = [
    ("SELECT sum(a) + 1 FROM t WHERE a > 100", False, True),
    ("SELECT count(*), min(a), max(a), avg(a) FROM t WHERE a > 100",
     False, True),
    ("SELECT g, sum(a) % 0 FROM t GROUP BY g", False, True),
    ("SELECT g, sum(a) / 0, count(*) % 0 FROM t GROUP BY g", False, True),
    ("SELECT sum(a) / 0 FROM t", False, True),
    ("SELECT k, a / 0, a % 0 FROM t WHERE a > 0", False, True),
    ("SELECT k FROM t WHERE a / 0 > 1 AND k > 2", False, True),
    ("SELECT a AS x, k FROM t ORDER BY x DESC LIMIT 3", True, True),
    ("SELECT * FROM t ORDER BY a LIMIT 3", True, True),
    ("SELECT g, sum(a) AS s, count(*) FROM t GROUP BY g "
     "HAVING count(*) > 13 ORDER BY s DESC", True, True),
    ("SELECT g, sum(a) FROM t GROUP BY g "
     "HAVING sum(a) > 0 ORDER BY sum(a)", True, True),
    ("SELECT DISTINCT g FROM t ORDER BY g DESC", True, True),
    ("SELECT DISTINCT g FROM t ORDER BY a", True, False),
    ("SELECT g, count(DISTINCT a) FROM t GROUP BY g", False, False),
    ("SELECT g, k % 2, count(*), sum(a) FROM t GROUP BY g, k % 2",
     False, True),
    ("SELECT k, a, v, s FROM n WHERE k > 5", False, True),
    ("SELECT g, min(a), max(a), count(a), min(v), max(v), count(v), "
     "min(s), max(s), count(s) FROM n GROUP BY g", False, True),
    ("SELECT g, sum(a), avg(a), sum(v), avg(v) FROM n GROUP BY g",
     False, True),
    ("SELECT g, sum(a) * 2, min(a) - 1 FROM n GROUP BY g", False, True),
    ("SELECT count(a), sum(a), min(v), max(s) FROM n", False, True),
    ("SELECT g, sum(a) IS NULL FROM t GROUP BY g", False, False),
    ("SELECT x.k, y.a FROM t x JOIN t y ON x.k = y.a", False, False),
]

#: NULL corners outside aggregates: a nil never satisfies a range or a
#: comparison, and arithmetic over a nil is nil.
NULL_QUERIES = [
    "SELECT k FROM z WHERE v < 5",
    "SELECT k FROM z WHERE i <= 5",
    "SELECT k FROM z WHERE v <> 4",
    "SELECT k FROM z WHERE d <> 4.0",
    "SELECT k FROM z WHERE s < 'b'",
    "SELECT k FROM z WHERE s <> 'a'",
    "SELECT k FROM z WHERE v + 0 < 5 AND i > -10",
    "SELECT k, v * 2, v - 1, i + 1, d * 2, v + i FROM z",
    "SELECT k, v * 2 AS w FROM z WHERE v < 5",
]


def _literal(value):
    if value is None:
        return "NULL"
    return "'{0}'".format(value) if isinstance(value, str) else str(value)


def _load(db, suffix=""):
    db.execute("CREATE TABLE t (k INT, a INT, g INT)" + suffix)
    db.execute("CREATE TABLE n (k INT, g INT, a INT, v DOUBLE, "
               "s VARCHAR(8))" + suffix)
    db.execute("CREATE TABLE z (k BIGINT, v BIGINT, i INT, d DOUBLE, "
               "s VARCHAR(8))" + suffix)
    for table, rows in (("t", ROWS), ("n", NULL_ROWS), ("z", Z_ROWS)):
        db.execute("INSERT INTO {0} VALUES ".format(table) + ", ".join(
            "({0})".format(", ".join(_literal(v) for v in row))
            for row in rows))
    return db


@pytest.fixture(scope="module")
def engines():
    single = _load(Database())
    sharded = _load(ShardedDatabase(n_shards=2), " PARTITION BY (k)")
    return {
        "serial": lambda sql: single.execute(sql),
        "compiled": lambda sql: single.execute(sql, compile=True),
        "workers=4": lambda sql: single.execute(sql, workers=4),
        "2 shards": lambda sql: sharded.execute(sql),
    }, single


def _answer(run, sql, ordered):
    """Typed rows (sorted unless the order is specified), or the error
    class."""
    try:
        rows = run(sql).rows()
    except Exception as exc:  # the parity is in the error class too
        return type(exc)
    typed = [tuple((type(v).__name__, v) for v in row) for row in rows]
    return typed if ordered else sorted(typed, key=repr)


@pytest.mark.parametrize("sql,ordered,morsel", CASES,
                         ids=[sql for sql, _, _ in CASES])
def test_every_engine_gives_the_same_answer(engines, sql, ordered, morsel):
    runners, single = engines
    runs_before = single.parallel_runs
    answers = {name: _answer(run, sql, ordered)
               for name, run in runners.items()}
    assert single.parallel_runs == runs_before + int(morsel)
    want = answers["serial"]
    for name, got in answers.items():
        assert got == want, "{0} differs from serial on {1!r}".format(
            name, sql)


def test_limit_without_order_by_keeps_scan_order(engines):
    """A bare LIMIT takes the first rows in scan order on one node, the
    morsel engine included (a cluster promises no order, so it is not
    asked)."""
    runners, single = engines
    sql = "SELECT k, a FROM t WHERE a > 5 LIMIT 6"
    runs_before = single.parallel_runs
    want = _answer(runners["serial"], sql, ordered=True)
    for name in ("compiled", "workers=4"):
        assert _answer(runners[name], sql, ordered=True) == want, name
    assert single.parallel_runs == runs_before + 1


def test_distinct_ordered_outside_its_select_list_is_a_compile_error(
        engines):
    runners, _ = engines
    for run in runners.values():
        with pytest.raises(SQLCompileError):
            run("SELECT DISTINCT g FROM t ORDER BY a")


@pytest.mark.parametrize("sql", NULL_QUERIES)
def test_null_operands_match_the_reference(engines, sql):
    runners, _ = engines
    want = ReferenceExecutor({"z": (Z_COLUMNS, Z_ROWS)}).execute(
        parse_sql(sql))
    for name, run in runners.items():
        assert_same_rows(run(sql).rows(), want,
                         context="{0}: {1}".format(name, sql))
