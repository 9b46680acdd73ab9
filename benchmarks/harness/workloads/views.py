"""``view_churn``: batch DML against a base table three views watch.

Writes are dominated by incremental view maintenance (a grouped
count/sum/min/max view, a linear filter view, a two-table join view),
reads are SELECTs *from the views* — scans of the backing tables the
maintainer keeps rewriting.  Writes and reads therefore meet on one
layer: a delta representation that speeds maintenance but bloats the
backing tables shows up as a slower read.

Inserts and deletes balance (8-row inserts at twice the rate of
16-row range deletes from the low end of the key space), so the
visible base stays the same size while it churns.
"""

from benchmarks.harness.workloads.base import (
    Workload, bulk_load, checksum, database_counters, insert_sql,
    recover_from,
)

VIEWS = {
    "by_g": "SELECT g, count(*) AS n, sum(v) AS s, min(v) AS lo, "
            "max(v) AS hi FROM b GROUP BY g",
    "big": "SELECT k, v FROM b WHERE v >= 900",
    "j": "SELECT b.k, b.v, dim.w FROM b JOIN dim ON b.d = dim.d "
         "WHERE b.v < 50",
}
READS = ("SELECT g, n, s, lo, hi FROM by_g",
         "SELECT count(*), sum(v) FROM big",
         "SELECT w, count(*) FROM j GROUP BY w")
INSERT_ROWS, DELETE_KEYS, UPDATE_KEYS = 8, 16, 4


class ViewChurn(Workload):
    name = "view_churn"
    why = ("70% batch insert/range-delete/update on a base with 3 "
           "materialized views, 30% SELECTs from the views: view "
           "maintenance and backing-table scans meet")
    flush_policy = "append-per-record to the WAL file, no fsync"
    #: statements per round; ``read`` is per view, so each of the three
    #: read texts appears exactly that often.
    FULL = {"rows": 6000, "insert": 280, "delete": 140, "update": 70,
            "read": 70}
    SMOKE = {"rows": 300, "insert": 4, "delete": 2, "update": 1, "read": 1}
    GROUPS, DIMS = 40, 50

    def __init__(self, seed, smoke=False, workdir=None):
        super().__init__(seed, smoke, workdir)
        rng = self.rng
        self.dim = {d: (d, rng.randrange(5)) for d in range(self.DIMS)}
        self.initial = [self._new_row(k)
                        for k in range(self.size["rows"])]
        self.reset()

    def _new_row(self, key):
        rng = self.rng
        return (key, rng.randrange(self.GROUPS), rng.randrange(1000),
                rng.randrange(self.DIMS))

    # -- model views ---------------------------------------------------------

    def _model_view(self, name):
        rows = self.base.values()
        if name == "big":
            return [(k, v) for k, _, v, _ in rows if v >= 900]
        if name == "j":
            return [(k, v, self.dim[d][1]) for k, _, v, d in rows if v < 50]
        groups = {}
        for _, g, v, _ in rows:
            n, s, lo, hi = groups.get(g, (0, 0, v, v))
            groups[g] = (n + 1, s + v, min(lo, v), max(hi, v))
        return [(g,) + acc for g, acc in groups.items()]

    def _model_read(self, index):
        if index == 0:
            return self._model_view("by_g")
        if index == 1:
            big = self._model_view("big")
            return [(len(big), sum(v for _, v in big))]
        counts = {}
        for _, _, w in self._model_view("j"):
            counts[w] = counts.get(w, 0) + 1
        return list(counts.items())

    # -- engine --------------------------------------------------------------

    def reset(self):
        self.base = {row[0]: row for row in self.initial}
        self.low, self.next_key = 0, len(self.initial)

    def build(self):
        from repro.sql import Database
        from repro.wal import WriteAheadLog
        self.path = self.wal_path("views")
        self.db = db = Database(wal=WriteAheadLog(self.path))
        db.execute("CREATE TABLE b (k BIGINT, g INT, v BIGINT, d INT)")
        db.execute("CREATE TABLE dim (d INT, w INT)")
        bulk_load(db.execute, "dim", self.dim.values())
        bulk_load(db.execute, "b", self.initial)
        for name, select in VIEWS.items():
            db.execute("CREATE MATERIALIZED VIEW {0} AS {1}".format(
                name, select))
        for sql in READS:
            db.execute(sql).rows()

    def execute(self, sql):
        return self.db.execute(sql)

    def counters(self):
        return database_counters([self.db])

    # -- script --------------------------------------------------------------

    def script(self):
        rng, base = self.rng, self.base
        tags = self.shuffled(
            [tag for tag in ("insert", "delete", "update")
             for _ in range(self.size[tag])]
            + [sql for sql in READS for _ in range(self.size["read"])])
        out = []
        for tag in tags:
            if tag in READS:
                out.append(self.stmt("view_read", "read", tag, None))
            elif tag == "insert":
                rows = [self._new_row(self.next_key + i)
                        for i in range(INSERT_ROWS)]
                self.next_key += INSERT_ROWS
                base.update((row[0], row) for row in rows)
                out.append(self.stmt(tag, "write", insert_sql("b", rows),
                                     INSERT_ROWS, delta_rows=INSERT_ROWS))
            elif tag == "delete":
                lo, hi = self.low, self.low + DELETE_KEYS
                doomed = [k for k in range(lo, hi) if k in base]
                for k in doomed:
                    del base[k]
                self.low = hi
                out.append(self.stmt(
                    tag, "write",
                    "DELETE FROM b WHERE k >= {0} AND k < {1}".format(
                        lo, hi), len(doomed), delta_rows=len(doomed)))
            else:
                # A fresh absolute value: sometimes a new group
                # extremum, sometimes the retraction of the old one.
                lo = rng.randrange(self.low, self.next_key - UPDATE_KEYS)
                value = rng.randrange(3000)
                hit = [k for k in range(lo, lo + UPDATE_KEYS) if k in base]
                for k in hit:
                    _, g, _, d = base[k]
                    base[k] = (k, g, value, d)
                out.append(self.stmt(
                    tag, "write",
                    "UPDATE b SET v = {0} WHERE k >= {1} AND k < {2}".format(
                        value, lo, lo + UPDATE_KEYS),
                    len(hit), delta_rows=2 * len(hit)))
        return out

    # -- checks --------------------------------------------------------------

    def _state_checks(self, db, prefix=""):
        checks = [self.compare(
            prefix + "checksum b",
            lambda: db.execute("SELECT count(*), sum(k), sum(v) FROM b")
            .rows(),
            checksum(self.base.values(), 2))]
        for name in VIEWS:
            checks.append(self.compare(
                prefix + "view " + name,
                lambda: db.views.contents(name), self._model_view(name)))
        return checks

    def check_round(self):
        checks = self._state_checks(self.db)
        for index, sql in enumerate(READS):
            checks.append(self.compare("read[{0}]".format(index), sql,
                                       self._model_read(index)))
        return checks

    def check_durability(self):
        recovered, seconds = recover_from(self.path)
        return self._state_checks(recovered, "recovered "), seconds
