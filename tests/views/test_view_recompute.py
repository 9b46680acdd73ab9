"""When an aggregate view recomputes a group from its base table.

Only a retraction of a group's current extremum that leaves other
values behind needs the base table; a group whose values all retract is
empty, whatever its min/max state says, and costs no recompute.
"""

from repro.sql import Database
from tests.helpers import assert_same_rows


def test_draining_a_group_costs_no_recompute():
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
    db.execute("INSERT INTO t VALUES (1, 5), (1, 7), (2, 3), (2, NULL)")
    db.execute("CREATE MATERIALIZED VIEW ext AS SELECT k, min(v) AS lo, "
               "max(v) AS hi, count(*) AS n FROM t GROUP BY k")
    counters = db.views.counters["ext"]
    db.execute("DELETE FROM t WHERE k = 1")          # group 1 vanishes
    db.execute("DELETE FROM t WHERE v = 3")          # group 2: only NULL
    assert counters["group_recomputes"] == 0
    assert_same_rows(db.query("SELECT * FROM ext"), [(2, None, None, 1)])
    db.execute("INSERT INTO t VALUES (2, 9)")
    assert_same_rows(db.query("SELECT * FROM ext"), [(2, 9, 9, 2)])
    db.execute("DELETE FROM t WHERE v = 9")          # leaves the NULL row
    assert counters["group_recomputes"] == 0
    db.execute("INSERT INTO t VALUES (2, 4), (2, 6)")
    db.execute("DELETE FROM t WHERE v = 4")          # the minimum, 6 stays
    assert counters["group_recomputes"] == 1
    assert_same_rows(db.query("SELECT * FROM ext"), [(2, 6, 6, 2)])
