"""Shared test helpers.

``assert_same_rows`` compares query results as *multisets*: SQL
semantics fix row order only under ORDER BY, and parallel plans return
exchange-union order rather than scan order, so any test comparing
results across engines (serial / parallel / reference oracle) or
across worker counts must ignore order.  Numeric values are normalized
(int vs numpy int vs float of equal value compare equal, floats are
rounded to 10 significant digits) so engine-internal representation
differences don't register as result differences.
"""

import math
from collections import Counter


def normalize_value(value):
    """A representation-insensitive, hashable stand-in for a value."""
    if isinstance(value, bool):
        return ("bool", value)
    if value is None:
        return ("null",)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isnan(value):
            return ("nan",)
        return ("num", float("{0:.10g}".format(float(value))))
    return ("val", value)


def normalize_row(row):
    return tuple(normalize_value(v) for v in row)


def assert_same_rows(actual, expected, context="", ordered=False):
    """Assert two row iterables hold the same rows.

    By default the comparison is a multiset (order-insensitive); pass
    ``ordered=True`` for queries whose row order is actually specified
    — a total ORDER BY — where a merged-shard or exchange-union
    interleave leaking through would be a real bug.
    """
    if ordered:
        got_rows = [normalize_row(r) for r in actual]
        want_rows = [normalize_row(r) for r in expected]
        if got_rows == want_rows:
            return
        prefix = (context + "; ") if context else ""
        for i, (g, w) in enumerate(zip(got_rows, want_rows)):
            if g != w:
                raise AssertionError(
                    "{0}ordered rows differ at position {1}: "
                    "{2} != {3}".format(prefix, i, g, w))
        raise AssertionError(
            "{0}ordered row counts differ: {1} != {2}".format(
                prefix, len(got_rows), len(want_rows)))
    got = Counter(normalize_row(r) for r in actual)
    want = Counter(normalize_row(r) for r in expected)
    if got == want:
        return
    missing = want - got
    extra = got - want
    parts = []
    if context:
        parts.append(context)
    if missing:
        parts.append("missing rows: {0}".format(
            sorted(missing.elements())[:10]))
    if extra:
        parts.append("unexpected rows: {0}".format(
            sorted(extra.elements())[:10]))
    raise AssertionError("row multisets differ; " + "; ".join(parts))


def query_interpreted(db, sql, **kwargs):
    """``db.query(sql)`` on the MAL interpreter (``SET compile =
    false``), the reference engine; the database's setting is restored
    afterwards."""
    previous = db.options.compile
    db.execute("SET compile = false")
    try:
        return db.query(sql, **kwargs)
    finally:
        db.execute("SET compile = {0}".format(
            "true" if previous else "false"))
