"""Regression: a crash armed on a process that is then killed must not
outlive the restart, and a dead member that lags must be reported.

The schedule below was once a Hypothesis draw: node 0's ``wal.append``
crash plan survived ``kill`` + ``restart`` and fired on its first
catch-up append, so ``settle`` left node 0 dead at LSN 2 against the
primary's 3 while ``divergence_report(include_dead=True)`` said ``[]``.
"""

from repro.replication import ReplicationGroup

from tests.replication.test_properties import apply_schedule, settle

SCHEDULE = [
    ("partition", (0, 1)),
    ("write", 0),
    ("write", 0),
    ("crash", "wal.append"),
    ("kill", 0),
    ("tick", 1),
    ("write", 0),
]


def _group():
    group = ReplicationGroup(n_replicas=2, mode="sync", sync_timeout=80)
    group.execute("CREATE TABLE t (k INT, v INT)")
    group.drain()
    return group


def test_pinned_schedule_settles_every_node():
    group = _group()
    acked = apply_schedule(group, SCHEDULE)
    assert acked == [1, 2, 3]
    settle(group)
    head = group.primary.last_lsn
    for node in group.nodes:
        assert node.alive, node
        assert node.last_lsn == head, node
        keys = sorted(row[0] for row in node.db.query("SELECT k, v FROM t"))
        assert keys == acked, node
    assert group.divergence_report(include_dead=True) == []


def test_restart_disarms_crashes_armed_on_the_dead_process():
    group = _group()
    node = group.nodes[1]
    node.faults.crash_at("wal.append", hit=node.faults.hits["wal.append"] + 1)
    node.faults.delay_at("wal.append", hits=(10 ** 6,))
    group.kill(1)
    group.restart(1)
    group.execute("INSERT INTO t VALUES (1, 1)")
    group.drain()
    assert node.alive
    assert node.last_lsn == group.primary.last_lsn
    # Only the crash plan went; the latency plan is still armed.
    assert [p.kind for plans in node.faults._plans.values()
            for p in plans] == ["latency"]


def test_dead_member_that_lags_is_reported():
    group = _group()
    group.kill(2)
    group.execute("INSERT INTO t VALUES (1, 1)")
    group.drain()
    assert group.divergence_report() == []
    report = group.divergence_report(include_dead=True)
    assert [lsn for lsn, _ in report] == [group.primary.last_lsn]
    lsn, sums = report[0]
    assert sums[2] is None and sums[0] == sums[1] is not None
