"""``oltp_session``: point statements through a session over a file WAL.

Execution is tiny here — one 20k-row column scan at most — so what is
measured is the fixed cost of a statement: parse, SQL->MAL compile,
optimizer pipeline, cache lookups, dispatch, WAL append and session
bookkeeping.  Half the point reads come from a 32-text hot set (SQL
plan cache hits); the other half use never-repeated literals, so the
plan cache misses while the kernel cache still hits by shape.

One read in ten is a short ordered range read and the write mix is
slightly off the round 15/10/5/10: both so that the 50th and 95th
percentiles fall inside one statement class instead of on the boundary
between two, where they would flip with the smallest disturbance.
"""

from benchmarks.harness.workloads.base import (
    Workload, bulk_load, checksum, database_counters, fetch, insert_sql,
    recover_from,
)

POINT = "SELECT k, v, c FROM acct WHERE k = {0}"
RANGE = "SELECT k, v FROM acct WHERE k >= {0} AND k < {1} ORDER BY v"
RANGE_KEYS = 20


class OltpSession(Workload):
    name = "oltp_session"
    why = ("60% point/short-range reads (half hot texts, half fresh "
           "literals), 30% 1-row DML, 10% BEGIN..COMMIT via Session over "
           "a file WAL: fixed per-statement cost dominates")
    flush_policy = "append-per-record to the WAL file, no fsync"
    #: statements per round, by tag.
    FULL = {"rows": 20000, "hot": 540, "cold": 540, "range": 120,
            "insert": 240, "update": 280, "delete": 80, "txn": 200}
    SMOKE = {"rows": 500, "hot": 11, "cold": 11, "range": 2, "insert": 5,
             "update": 5, "delete": 2, "txn": 4}

    def __init__(self, seed, smoke=False, workdir=None):
        super().__init__(seed, smoke, workdir)
        rng, n = self.rng, self.size["rows"]
        self.initial = [(k, rng.randrange(1000), rng.randrange(10))
                        for k in range(n)]
        self.hot = rng.sample(range(n), 32)
        self.hot_set = set(self.hot)
        # Cold reads walk a permutation: no literal ever repeats
        # within one engine's life.
        self.cold_order = [k for k in rng.sample(range(n), n)
                           if k not in self.hot_set]
        self.reset()

    # -- engine --------------------------------------------------------------

    def reset(self):
        self.rows = {row[0]: row for row in self.initial}
        self.next_key = len(self.initial)
        self.cold = list(self.cold_order)

    def build(self):
        from repro.sessions import AdmissionController, SessionManager
        from repro.sql import Database
        from repro.wal import WriteAheadLog
        self.path = self.wal_path("oltp")
        self.db = Database(wal=WriteAheadLog(self.path))
        manager = SessionManager(
            self.db, admission=AdmissionController(max_inflight=8))
        self.session = manager.session("bench")
        self.execute("CREATE TABLE acct (k BIGINT, v BIGINT, c INT)")
        bulk_load(self.execute, "acct", self.initial)
        self.execute("SET compile = true")
        for key in self.hot:
            self.execute(POINT.format(key)).rows()

    def execute(self, sql):
        return self.session.execute(sql)

    def counters(self):
        out = database_counters([self.db], compiled=True)
        out["session_conflicts"] = self.session.conflicts
        out["session_commits"] = self.session.commits
        return out

    # -- script --------------------------------------------------------------

    def _victim(self):
        """A live key outside the hot set."""
        while True:
            key = self.rng.randrange(self.next_key)
            if key in self.rows and key not in self.hot_set:
                return key

    def script(self):
        rng, rows = self.rng, self.rows
        tags = self.shuffled_tags("hot", "cold", "range", "insert",
                                  "update", "delete", "txn")
        out = []
        for tag in tags:
            if tag in ("hot", "cold"):
                key = rng.choice(self.hot) if tag == "hot" \
                    else self.cold.pop()
                want = [rows[key]] if key in rows else []
                out.append(self.stmt(tag, "read", POINT.format(key), want))
            elif tag == "range":
                lo = rng.randrange(self.next_key - RANGE_KEYS)
                want = [rows[k][:2] for k in range(lo, lo + RANGE_KEYS)
                        if k in rows]
                out.append(self.stmt(
                    tag, "read", RANGE.format(lo, lo + RANGE_KEYS), want))
            elif tag == "insert":
                row = (self.next_key, rng.randrange(1000), rng.randrange(10))
                self.next_key += 1
                rows[row[0]] = row
                out.append(self.stmt(tag, "write",
                                     insert_sql("acct", [row]), 1))
            elif tag == "delete":
                key = self._victim()
                del rows[key]
                out.append(self.stmt(
                    tag, "write",
                    "DELETE FROM acct WHERE k = {0}".format(key), 1))
            else:
                key, step = self._victim(), rng.randrange(1, 50)
                k, v, c = rows[key]
                rows[key] = (k, v + step, c)
                update = "UPDATE acct SET v = v + {0} WHERE k = {1}".format(
                    step, key)
                if tag == "update":
                    out.append(self.stmt(tag, "write", update, 1))
                else:
                    out.append(self.stmt(
                        tag, "write",
                        ("BEGIN", update,
                         "SELECT v FROM acct WHERE k = {0}".format(key),
                         "COMMIT"),
                        (None, 1, [(v + step,)], None)))
        return out

    # -- checks --------------------------------------------------------------

    def check_round(self):
        return [self.compare(
            "checksum acct", "SELECT count(*), sum(k), sum(v) FROM acct",
            checksum(self.rows.values(), 1))]

    def check_durability(self):
        recovered, seconds = recover_from(self.path)
        return [self.compare(
            "recovered acct",
            lambda: fetch(recovered.execute("SELECT k, v, c FROM acct")),
            list(self.rows.values()))], seconds
