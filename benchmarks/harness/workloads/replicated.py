"""``replicated_oltp``: a sync replication group, one session.

Half the statements are 1-row INSERT/UPDATEs that wait for the quorum
acknowledgement; the other half are point, small-aggregate and (one in
ten) short ordered range reads routed to the replicas under
read-your-writes.  Ship, ack, tick and
replica apply dominate: this is the fourth backend, so a change to the
execution spine or to telemetry is measured on it too.
"""

from benchmarks.harness.workloads.base import (
    Workload, bulk_load, checksum, database_counters, fetch, insert_sql,
)

POINT = "SELECT k, v, c FROM a WHERE k = {0}"
AGGREGATE = "SELECT count(*), sum(v) FROM a WHERE c = {0}"
RANGE = "SELECT k, v FROM a WHERE k >= {0} AND k < {1} ORDER BY v"
RANGE_KEYS = 20
CHECKSUM = "SELECT count(*), sum(k), sum(v) FROM a"


class ReplicatedOltp(Workload):
    name = "replicated_oltp"
    why = ("primary + 2 sync replicas: 50% 1-row INSERT/UPDATE waiting for "
           "quorum ack, 50% point/aggregate/short-range reads on replicas: "
           "ship, ack, tick and replica apply dominate")
    # 40/60 inserts to updates and a tenth of the reads heavier than
    # the rest: the write median and the read p95 each fall inside one
    # statement class, not on a boundary or in a tail.
    FULL = {"rows": 20000, "insert": 320, "update": 480, "point": 400,
            "aggregate": 320, "range": 80}
    SMOKE = {"rows": 500, "insert": 5, "update": 5, "point": 5,
             "aggregate": 4, "range": 1}
    CLASSES = 100

    def __init__(self, seed, smoke=False, workdir=None):
        super().__init__(seed, smoke, workdir)
        rng, size = self.rng, self.size
        self.initial = [(k, rng.randrange(1000), rng.randrange(self.CLASSES))
                        for k in range(size["rows"])]
        self.reset()

    # -- engine --------------------------------------------------------------

    def reset(self):
        self.rows = {row[0]: row for row in self.initial}
        self.next_key = len(self.initial)

    def build(self):
        from repro.replication import ReplicationGroup
        self.group = ReplicationGroup(n_replicas=2, mode="sync")
        self.session = self.group.session(read_your_writes=True)
        self.execute("CREATE TABLE a (k BIGINT, v BIGINT, c INT)")
        bulk_load(self.execute, "a", self.initial)
        for sql in (POINT.format(0), AGGREGATE.format(0)):
            self.execute(sql).rows()

    def execute(self, sql):
        return self.session.execute(sql)

    def counters(self):
        out = database_counters([node.db for node in self.group.nodes])
        out["repl_ticks"] = self.group.clock.now
        return out

    # -- script --------------------------------------------------------------

    def script(self):
        rng, rows = self.rng, self.rows
        tags = self.shuffled_tags("insert", "update", "point", "aggregate",
                                  "range")
        out = []
        for tag in tags:
            if tag == "insert":
                row = (self.next_key, rng.randrange(1000),
                       rng.randrange(self.CLASSES))
                self.next_key += 1
                rows[row[0]] = row
                out.append(self.stmt(tag, "write",
                                     insert_sql("a", [row]), 1))
            elif tag == "update":
                key, step = rng.randrange(self.next_key), \
                    rng.randrange(1, 50)
                k, v, c = rows[key]
                rows[key] = (k, v + step, c)
                out.append(self.stmt(
                    tag, "write",
                    "UPDATE a SET v = v + {0} WHERE k = {1}".format(
                        step, key), 1))
            elif tag == "point":
                key = rng.randrange(self.next_key)
                out.append(self.stmt(tag, "read", POINT.format(key),
                                     [rows[key]]))
            elif tag == "range":
                lo = rng.randrange(self.next_key - RANGE_KEYS)
                out.append(self.stmt(
                    tag, "read", RANGE.format(lo, lo + RANGE_KEYS),
                    [rows[k][:2] for k in range(lo, lo + RANGE_KEYS)]))
            else:
                out.append(self.stmt(
                    tag, "read",
                    AGGREGATE.format(rng.randrange(self.CLASSES)), None))
        return out

    # -- checks --------------------------------------------------------------

    def check_round(self):
        want = checksum(self.rows.values(), 1)
        picked = [r[1] for r in self.rows.values() if r[2] == 3]
        checks = [self.compare("aggregate", AGGREGATE.format(3),
                               [(len(picked), sum(picked))])]
        # Every member, not only the node the router picks: the
        # replicas must have applied what the primary acknowledged.
        self.group.drain()
        for node in self.group.nodes:
            checks.append(self.compare(
                "checksum a on node {0}".format(node.node_id),
                lambda: fetch(node.db.execute(CHECKSUM)), want))
        return checks
