"""``olap_serial`` / ``olap_morsel``: a fixed query pool over a fact table.

Eight SQL texts are replayed in seeded order, so the SQL plan cache and
the kernel cache always hit and execution plus result materialization
do nearly all the work.  A trickle of appends into the fact table
rides along — nine one-row INSERTs to one 16-row batch — which is the
paper's delta-BAT case and what gives the write metrics a value here.  The two workloads share data, pool and
script; only ``SET workers`` differs, so a change to the serial fused
kernels predicts no move on ``olap_morsel`` and vice versa.

The pool is weighted so that the read median falls inside the 7-group
GROUP BY class and the 95th percentile inside the slowest class, not
on a boundary between two query shapes; the batch appends do the same
for the write p95.
"""

from time import perf_counter_ns

from benchmarks.harness import stats
from benchmarks.harness.workloads.base import (
    Workload, bulk_load, checksum, database_counters, insert_sql,
)


BATCH_ROWS = 16


class OlapSerial(Workload):
    name = "olap_serial"
    why = ("8 fixed analytic texts over a 30k-row fact table, compiled, "
           "workers=1: caches always hit, kernel exec and result "
           "materialization dominate")
    workers = 1
    #: reads per round = 16 pool slots x reps; appends per round.
    FULL = {"fact": 30000, "dim": 2000, "reps": 20, "appends": 100}
    SMOKE = {"fact": 2000, "dim": 200, "reps": 1, "appends": 4}
    #: pool slot weights, by position in ``self.pool`` (sum 16).
    WEIGHTS = (2, 2, 1, 4, 2, 2, 2, 1)

    def __init__(self, seed, smoke=False, workdir=None):
        super().__init__(seed, smoke, workdir)
        size = self.size
        rng, n = self.rng, size["fact"]
        # v: distinct multiples of 1/8 — exact in binary floating
        # point (sums agree in any order) and free of ORDER BY ties.
        values = rng.sample(range(8 * n), n)
        self.initial = [(k, values[k] / 8, rng.randrange(7),
                         rng.randrange(1000)) for k in range(n)]
        self.dim = {h: (h, rng.randrange(13)) for h in range(size["dim"])}
        self.reset()
        a, b = rng.randrange(n // 4), rng.randrange(7)
        c, d, e = rng.randrange(2, 7), rng.randrange(500), \
            rng.randrange(990)
        self.pool = [
            ("SELECT sum(v) FROM t WHERE k > {0} AND g = {1}".format(a, b),
             lambda: [(sum(r[1] for r in self.fact.values()
                           if r[0] > a and r[2] == b),)]),
            ("SELECT sum(v * 2 + k) FROM t WHERE k > {0} AND g < {1} "
             "AND h > {2}".format(a, c, d),
             lambda: [(sum(r[1] * 2 + r[0] for r in self.fact.values()
                           if r[0] > a and r[2] < c and r[3] > d),)]),
            ("SELECT min(v), max(v), avg(v) FROM t", self._min_max_avg),
            ("SELECT g, count(*), sum(v) FROM t GROUP BY g",
             lambda: self._grouped(2)),
            ("SELECT h, count(*), sum(v) FROM t GROUP BY h",
             lambda: self._grouped(3)),
            ("SELECT k, v FROM t WHERE h >= {0} AND h < {1}".format(
                e, e + 10),
             lambda: [(r[0], r[1]) for r in self.fact.values()
                      if e <= r[3] < e + 10]),
            ("SELECT d.w, sum(t.v) FROM t JOIN d ON t.h = d.h "
             "GROUP BY d.w", self._join),
            ("SELECT k, v FROM t WHERE g = {0} ORDER BY v DESC "
             "LIMIT 10".format(b),
             lambda: sorted(((r[0], r[1]) for r in self.fact.values()
                             if r[2] == b), key=lambda kv: -kv[1])[:10]),
        ]

    # -- model queries -------------------------------------------------------

    def _min_max_avg(self):
        values = [r[1] for r in self.fact.values()]
        return [(min(values), max(values), sum(values) / len(values))]

    def _grouped(self, column):
        groups = {}
        for row in self.fact.values():
            n, s = groups.get(row[column], (0, 0.0))
            groups[row[column]] = (n + 1, s + row[1])
        return [(g, n, s) for g, (n, s) in groups.items()]

    def _join(self):
        sums = {}
        for row in self.fact.values():
            match = self.dim.get(row[3])
            if match is not None:
                sums[match[1]] = sums.get(match[1], 0.0) + row[1]
        return list(sums.items())

    # -- engine --------------------------------------------------------------

    def reset(self):
        self.fact = {row[0]: row for row in self.initial}
        self.next_key = len(self.initial)

    def build(self):
        from repro.sql import Database
        self.db = db = Database()
        db.execute("CREATE TABLE t (k BIGINT, v DOUBLE, g INT, h INT)")
        db.execute("CREATE TABLE d (h INT, w INT)")
        bulk_load(db.execute, "t", self.initial)
        bulk_load(db.execute, "d", self.dim.values())
        db.execute("SET compile = true")
        db.execute("SET workers = {0}".format(self.workers))
        for sql, _ in self.pool:
            db.execute(sql).rows()

    def execute(self, sql):
        return self.db.execute(sql)

    def counters(self):
        return database_counters([self.db], compiled=True)

    # -- script --------------------------------------------------------------

    def script(self):
        out = []
        for (sql, _), weight in zip(self.pool, self.WEIGHTS):
            for _ in range(weight * self.size["reps"]):
                out.append(self.stmt("pool", "read", sql, None))
        for index in range(self.size["appends"]):
            rows = []
            for _ in range(1 if index % 10 else BATCH_ROWS):
                k = self.next_key
                self.next_key += 1
                # New v values stay distinct: they continue past 8n.
                rows.append((k, (8 * self.size["fact"] + k) / 8,
                             self.rng.randrange(7),
                             self.rng.randrange(1000)))
            self.fact.update((row[0], row) for row in rows)
            out.append(self.stmt("append", "write", insert_sql("t", rows),
                                 len(rows), delta_rows=len(rows)))
        return self.shuffled(out)

    def check_round(self):
        checks = [self.compare("pool[{0}]".format(i), sql, model())
                  for i, (sql, model) in enumerate(self.pool)]
        checks.append(self.compare(
            "checksum t", "SELECT count(*), sum(k), sum(v) FROM t",
            checksum(self.fact.values(), 1)))
        return checks


class OlapMorsel(OlapSerial):
    name = "olap_morsel"
    why = ("same data and texts with workers=4: the morsel engine and "
           "vectorized predicates instead of the fused serial path")
    workers = 4
    FULL = dict(OlapSerial.FULL, reps=13)

    def extra_measurements(self):
        """``parallel.vs_serial_ratio``: the weighted pool's median
        read latency at workers=4 over the same at workers=1, on the
        last round's engine, without probes (base = serial)."""
        reads = [sql for (sql, _), weight in zip(self.pool, self.WEIGHTS)
                 for _ in range(weight * 4)]

        def median_ns(workers):
            self.db.execute("SET workers = {0}".format(workers))
            times = []
            for sql in reads:
                start = perf_counter_ns()
                self.db.execute(sql).rows()
                times.append(perf_counter_ns() - start)
            return stats.percentile(times, 50)

        serial = median_ns(1)
        return {"vs_serial_ratio": median_ns(self.workers) / serial}
