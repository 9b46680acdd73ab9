"""The split-query finish, differentially: serial, morsels, shards.

Each statement runs on the serial engine, on the morsel engine
(``workers=4``: four parts sharing the catalog's string heaps) and on
a two-shard cluster (two parts whose strings live in different heaps),
and all three must agree.  Rows compare as a multiset where the
statement has no ORDER BY and in order where it has one.  The cases are
the finish's corners: over a thousand groups, multi-key groups, NULL
and VARCHAR group keys, HAVING over an aggregate expression, ORDER BY
an average that is NULL for one group, DISTINCT with LIMIT, ORDER BY
… LIMIT on a hidden key, and a scalar aggregate or an ordered
projection over no rows.
"""

import pytest

from repro.sharding import ShardedDatabase
from repro.sql import Database
from tests.helpers import assert_same_rows

pytestmark = pytest.mark.filterwarnings("error")

N = 3000


def _row(k):
    """``h`` has 1200 distinct values; ``g`` is NULL every 11th row and
    its group 3 has no ``x``; ``x`` is dyadic, so sums are exact in any
    order; ``s`` is NULL every 13th row."""
    g = None if k % 11 == 0 else k % 7
    x = None if g == 3 or k % 5 == 0 else (k % 97) / 4
    s = None if k % 13 == 0 else "s{0}".format(k % 9)
    return k, g, k % 1200, x, s


def _literal(value):
    if value is None:
        return "NULL"
    return "'{0}'".format(value) if isinstance(value, str) else str(value)


def _load(db, suffix=""):
    db.execute("CREATE TABLE t (k INT, g INT, h INT, x DOUBLE, "
               "s VARCHAR(4))" + suffix)
    db.execute("CREATE TABLE e (k INT, x DOUBLE, s VARCHAR(4))" + suffix)
    rows = [_row(k) for k in range(N)]
    for lo in range(0, N, 500):
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "({0})".format(", ".join(_literal(v) for v in row))
            for row in rows[lo:lo + 500]))
    return db


#: (statement, whether it fixes the row order)
CASES = [
    ("SELECT h, count(*), sum(k), avg(x), min(s) FROM t GROUP BY h",
     False),
    ("SELECT h, count(*), max(x) FROM t GROUP BY h ORDER BY h DESC "
     "LIMIT 20", True),
    ("SELECT g, s, count(*), min(x), max(k) FROM t GROUP BY g, s", False),
    ("SELECT s, g, sum(h) FROM t WHERE k < 2000 GROUP BY s, g "
     "ORDER BY s DESC, g", True),
    ("SELECT g, count(s), max(s) FROM t GROUP BY g", False),
    ("SELECT g, sum(h) * 2 + count(*) AS w FROM t GROUP BY g "
     "HAVING sum(h) - count(*) > 150000 ORDER BY w", True),
    ("SELECT s, count(*) FROM t GROUP BY s HAVING count(*) > 300", False),
    ("SELECT g, count(*) FROM t GROUP BY g HAVING sum(x) - 3700.25", False),
    ("SELECT g, avg(x) AS a FROM t GROUP BY g ORDER BY avg(x) DESC, g",
     True),
    ("SELECT DISTINCT g FROM t ORDER BY g LIMIT 4", True),
    ("SELECT DISTINCT s, g FROM t ORDER BY s DESC, g LIMIT 9", True),
    ("SELECT DISTINCT s FROM t", False),
    ("SELECT k, s FROM t WHERE h < 40 ORDER BY x DESC, k LIMIT 12", True),
    ("SELECT k FROM t ORDER BY s, h DESC, k LIMIT 15", True),
    ("SELECT count(*), sum(x), min(s), avg(k) FROM e", False),
    ("SELECT k FROM e ORDER BY x", True),
    ("SELECT k, s FROM e ORDER BY x DESC LIMIT 3", True),
    ("SELECT count(*), sum(x), max(s) FROM t WHERE k < 0", False),
    ("SELECT g, count(*) FROM t WHERE k < 0 GROUP BY g", False),
]


@pytest.fixture(scope="module")
def engines():
    single = _load(Database())
    sharded = _load(ShardedDatabase(n_shards=2), " PARTITION BY (k)")
    return single, sharded


@pytest.mark.parametrize("sql,ordered", CASES,
                         ids=[sql for sql, _ in CASES])
def test_every_finish_gives_the_serial_answer(engines, sql, ordered):
    single, sharded = engines
    want = single.query(sql)
    runs, scatters = single.parallel_runs, sharded.stats.scatter
    morsel = single.query(sql, workers=4)
    shards = sharded.query(sql)
    # Both engines split the statement and finished its parts.
    assert single.parallel_runs == runs + 1
    assert sharded.stats.scatter == scatters + 1
    for name, got in (("workers=4", morsel), ("2 shards", shards)):
        assert_same_rows(got, want, context=name, ordered=ordered)
        for got_row, want_row in zip(sorted(got, key=repr),
                                     sorted(want, key=repr)):
            assert [type(v) for v in got_row] == \
                [type(v) for v in want_row], name


def test_thousand_groups_come_out_in_serial_order(engines):
    """Without ORDER BY the morsel finish hands groups back in
    ascending key order, the order the serial engine groups in."""
    single, _ = engines
    sql = "SELECT h, count(*) FROM t GROUP BY h"
    rows = single.query(sql, workers=4)
    assert len(rows) == 1200
    assert rows == single.query(sql)


def test_string_column_of_nothing_but_nulls(engines):
    """A VARCHAR aggregate that is NULL in every group on every shard
    still packs as strings, whichever heap each part came from."""
    single, sharded = engines
    sql = "SELECT g, max(s), count(*) FROM t WHERE k % 13 = 0 GROUP BY g"
    want = single.query(sql)
    assert want and all(row[1] is None for row in want)
    assert_same_rows(single.query(sql, workers=4), want)
    assert_same_rows(sharded.query(sql), want)
