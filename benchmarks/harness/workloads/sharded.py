"""``sharded_mix``: the scatter-gather coordinator over four shards.

Key-pruned point lookups, decomposed scatter GROUP BYs, a gather
fallback (``count(DISTINCT ...)``), a broadcast join against a
reference table, single-shard transactions (the 2PC fast path) and
cross-shard transactions over two or three shards (full two-phase
commit; the three-shard ones make up the slowest tenth of the writes,
so the write p95 falls inside a class, not in the tail of one).  Planner, links,
per-leg execution, coordinator merge and 2PC do the work; the
single-node front-end is a minor share.
"""

from benchmarks.harness.workloads.base import (
    Workload, bulk_load, checksum, database_counters, fetch,
)

N_SHARDS = 4
POINT = "SELECT k, v, g FROM t WHERE k = {0}"
SCATTER = "SELECT g, count(*), sum(v) FROM t WHERE v >= {0} GROUP BY g"
GATHER = "SELECT count(DISTINCT b) FROM u WHERE a >= {0}"
JOIN = ("SELECT r.w, count(*), sum(t.v) FROM t JOIN r ON t.g = r.g "
        "WHERE t.v < {0} GROUP BY r.w")


def update(step, key):
    return "UPDATE t SET v = v {0} {1} WHERE k = {2}".format(
        "-" if step < 0 else "+", abs(step), key)


class ShardedMix(Workload):
    name = "sharded_mix"
    why = ("4 shards: 35% pruned point reads, 25% scatter GROUP BY, 5% "
           "gather, 10% broadcast join, 15% fast-path and 10% 2PC "
           "transactions: planner, links, legs, merge, 2PC")
    FULL = {"rows": 40000, "gather_rows": 4000, "point": 210,
            "scatter": 150, "gather": 30, "join": 60, "txn1": 90,
            "txn2": 45, "txn3": 15}
    SMOKE = {"rows": 800, "gather_rows": 100, "point": 7, "scatter": 5,
             "gather": 1, "join": 2, "txn1": 3, "txn2": 1, "txn3": 1}
    GROUPS = 20

    def __init__(self, seed, smoke=False, workdir=None):
        super().__init__(seed, smoke, workdir)
        from repro.sharding import ShardMap
        self.shard_of = ShardMap(N_SHARDS).shard_of
        rng, size = self.rng, self.size
        self.initial = [(k, rng.randrange(1000), rng.randrange(self.GROUPS))
                        for k in range(size["rows"])]
        self.reset()
        self.r = {g: (g, rng.randrange(4)) for g in range(self.GROUPS)}
        self.u = [(a, rng.randrange(100))
                  for a in range(size["gather_rows"])]

    # -- model queries -------------------------------------------------------

    def _scatter(self, floor):
        groups = {}
        for _, v, g in self.t.values():
            if v >= floor:
                n, s = groups.get(g, (0, 0))
                groups[g] = (n + 1, s + v)
        return [(g, n, s) for g, (n, s) in groups.items()]

    def _join(self, ceiling):
        groups = {}
        for _, v, g in self.t.values():
            if v < ceiling:
                w = self.r[g][1]
                n, s = groups.get(w, (0, 0))
                groups[w] = (n + 1, s + v)
        return [(w, n, s) for w, (n, s) in groups.items()]

    def _gather(self, floor):
        return [(len({b for a, b in self.u if a >= floor}),)]

    # -- engine --------------------------------------------------------------

    def reset(self):
        self.t = {row[0]: row for row in self.initial}

    def build(self):
        from repro.sharding import ShardedDatabase
        self.db = db = ShardedDatabase(n_shards=N_SHARDS, replicas=0)
        db.execute("CREATE TABLE t (k BIGINT, v BIGINT, g INT) "
                   "PARTITION BY (k)")
        db.execute("CREATE TABLE r (g INT, w INT)")
        db.execute("CREATE TABLE u (a BIGINT, b INT) PARTITION BY (a)")
        bulk_load(db.execute, "t", self.initial)
        bulk_load(db.execute, "r", self.r.values())
        bulk_load(db.execute, "u", self.u)
        for sql in (POINT.format(0), SCATTER.format(500), GATHER.format(0),
                    JOIN.format(50)):
            db.execute(sql).rows()

    def execute(self, sql):
        return self.db.execute(sql)

    def run(self, stmt):
        if len(stmt.sqls) == 1:
            return super().run(stmt)
        with self.db.begin() as txn:
            return tuple(fetch(txn.execute(sql)) for sql in stmt.sqls)

    def counters(self):
        db = self.db
        out = database_counters([node.db for node in db.shards])
        stats = db.stats
        out.update({
            "shard_requests": stats.requests,
            "shard_shipped_rows": stats.shipped_rows,
            "shard_pruned": stats.pruned,
            "shard_single": stats.single_shard,
            "shard_scatter": stats.scatter,
            "shard_gather": stats.gather,
            "twopc_fast": stats.twopc_fast_path,
            "twopc_commits": stats.twopc_commits,
            "shard_wal_records": out["wal_records"]
            + db.decision_log.records_appended,
        })
        return out

    # -- script --------------------------------------------------------------

    def _bump(self, key, step):
        k, v, g = self.t[key]
        self.t[key] = (k, v + step, g)
        return v + step

    def script(self):
        rng, n = self.rng, self.size["rows"]
        tags = self.shuffled_tags("point", "scatter", "gather", "join",
                                  "txn1", "txn2", "txn3")
        out = []
        for tag in tags:
            if tag == "point":
                key = rng.randrange(n)
                out.append(self.stmt(tag, "read", POINT.format(key),
                                     [self.t[key]]))
            elif tag == "scatter":
                # Literals vary in a narrow band: every statement of a
                # class then costs about the same, whatever the seed.
                out.append(self.stmt(
                    tag, "read", SCATTER.format(rng.randrange(400, 600)),
                    None))
            elif tag == "gather":
                floor = rng.randrange(self.size["gather_rows"] // 4)
                out.append(self.stmt(tag, "read", GATHER.format(floor),
                                     self._gather(floor)))
            elif tag == "join":
                out.append(self.stmt(
                    tag, "read", JOIN.format(rng.randrange(50, 70)), None))
            elif tag == "txn1":
                key, step = rng.randrange(n), rng.randrange(1, 50)
                after = self._bump(key, step)
                out.append(self.stmt(
                    tag, "write",
                    (update(step, key),
                     "SELECT v FROM t WHERE k = {0}".format(key)),
                    (1, [(after,)])))
            else:
                # A transfer from one key to one or two others, every
                # key on a different shard.
                keys, step = [rng.randrange(n)], rng.randrange(1, 50)
                while len(keys) < int(tag[-1]):
                    key = rng.randrange(n)
                    if self.shard_of(key) not in map(self.shard_of, keys):
                        keys.append(key)
                steps = [-step * (len(keys) - 1)] + [step] * (len(keys) - 1)
                for key, delta in zip(keys, steps):
                    self._bump(key, delta)
                out.append(self.stmt(
                    tag, "write", [update(d, k) for k, d in zip(keys, steps)],
                    [1] * len(keys)))
        return out

    def check_round(self):
        return [
            self.compare("scatter", SCATTER.format(500), self._scatter(500)),
            self.compare("join", JOIN.format(60), self._join(60)),
            self.compare("gather", GATHER.format(7), self._gather(7)),
            self.compare(
                "checksum t", "SELECT count(*), sum(k), sum(v) FROM t",
                checksum(self.t.values(), 1)),
        ]
