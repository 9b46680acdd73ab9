"""ORDER BY places nil first ascending and last descending on every path.

NaN is the DBL nil; it once broke every comparator it met, so a
nullable DOUBLE sort key came back unsorted.  The same statement runs
single-node interpreted, compiled, with ``workers=4`` and over two
shards; the Python-row sort behind the morsel and shard merges is also
tested directly.
"""

import math

import pytest

from repro.core import INT, algebra
from repro.sharding import ShardedDatabase
from repro.sql import Database

SETUP = ("CREATE TABLE x (a INT, f DOUBLE)",
         "INSERT INTO x VALUES (3, 1.5), (NULL, NULL), (1, 2.5), "
         "(2, NULL), (NULL, 0.5)")

#: sql -> (expected rows with nil as None, positions of the sort keys).
#: On one node, rows tied on every key keep insertion order.
EXPECTED = {
    "SELECT a, f FROM x ORDER BY f": (
        [(None, None), (2, None), (None, 0.5), (3, 1.5), (1, 2.5)], (1,)),
    "SELECT a, f FROM x ORDER BY f DESC": (
        [(1, 2.5), (3, 1.5), (None, 0.5), (None, None), (2, None)], (1,)),
    "SELECT a, f FROM x ORDER BY a DESC, f": (
        [(3, 1.5), (2, None), (1, 2.5), (None, None), (None, 0.5)], (0, 1)),
}


def _nil_as_none(rows):
    def value(v):
        if v is None or v == INT.nil or \
                (isinstance(v, float) and math.isnan(v)):
            return None
        return v
    return [tuple(value(v) for v in row) for row in rows]


def _loaded(db):
    for sql in SETUP:
        db.execute(sql)
    return db


@pytest.mark.parametrize("sql", sorted(EXPECTED))
@pytest.mark.parametrize("mode", ["interpreted", "compiled", "workers=4"])
def test_single_node(sql, mode):
    db = _loaded(Database())
    if mode == "workers=4":
        rows = db.query(sql, workers=4)
        assert db.parallel_runs == 1
    else:
        db.execute("SET compile = {0}".format(
            "true" if mode == "compiled" else "false"))
        rows = db.query(sql)
    assert _nil_as_none(rows) == EXPECTED[sql][0]


def test_row_finisher_key_treats_nan_as_nil():
    # The morsel and shard merges both order Python rows with
    # algebra.order_rows.
    rows = [(3, 1.5), (None, float("nan")), (1, 2.5), (2, None),
            (None, 0.5)]
    by_f = algebra.order_rows(rows, lambda row, i: row[1], [True])
    assert [r[0] for r in by_f] == [None, 2, None, 3, 1]
    by_f_desc = algebra.order_rows(rows, lambda row, i: row[1], [False])
    assert [r[0] for r in by_f_desc] == [1, 3, None, None, 2]
    by_a_desc_f = algebra.order_rows(rows, lambda row, i: row[i],
                                     [False, True])
    assert _nil_as_none(by_a_desc_f) == EXPECTED[
        "SELECT a, f FROM x ORDER BY a DESC, f"][0]


@pytest.mark.parametrize("sql", sorted(EXPECTED))
def test_two_shards(sql):
    expected, key_columns = EXPECTED[sql]
    rows = _nil_as_none(_loaded(ShardedDatabase(n_shards=2)).query(sql))
    # Rows tied on every key may interleave across shards.
    assert sorted(rows, key=repr) == sorted(expected, key=repr)
    assert [[row[i] for i in key_columns] for row in rows] == \
        [[row[i] for i in key_columns] for row in expected]
