"""One way options reach the engine: ``SET`` pragmas through every
front door.

Each bad ``SET`` fails with the same message on a ``Database``, a
``Session``, a ``ReplicationGroup`` and a ``ShardedDatabase`` (one
rule, :meth:`ExecOptions.set`, checks them all), and each good one
lands where its front door routes it.
"""

import pytest

from repro.governance import ExecOptions
from repro.replication import ReplicationGroup
from repro.sessions import SessionManager
from repro.sharding import ShardedDatabase
from repro.sql import Database

BAD = {
    "SET workers = 0": "workers must be a positive integer, got 0",
    "SET workers = 1.5": "workers must be a positive integer, got 1.5",
    "SET workers = true": "workers must be a positive integer, got True",
    "SET compile = 1": "SET compile needs true or false",
    "SET deadline = -1":
        "SET deadline needs a non-negative integer (0 clears)",
    "SET bogus = 3": "unknown pragma 'bogus'",
}

GOOD = ("SET workers = 2", "SET compile = false", "SET deadline = 50",
        "SET memory_budget = 4096")

SET_ALL = ExecOptions(workers=2, compile=False, deadline=50,
                      memory_budget=4096)
SET_ENGINE = ExecOptions(workers=2, compile=False)


def _fronts():
    return {"database": Database(),
            "session": SessionManager(Database()).session(),
            "replicated": ReplicationGroup(n_replicas=1),
            "sharded": ShardedDatabase(n_shards=2)}


@pytest.mark.parametrize("sql", sorted(BAD))
def test_a_bad_set_fails_alike_on_every_front_door(sql):
    for name, front in _fronts().items():
        with pytest.raises(ValueError) as caught:
            front.execute(sql)
        assert str(caught.value) == BAD[sql], name


def test_a_database_keeps_every_option():
    db = Database()
    for sql in GOOD:
        db.execute(sql)
    assert db.options == SET_ALL


def test_a_session_keeps_the_limits_and_passes_the_rest_on():
    db = Database()
    manager = SessionManager(db, default_deadline=7)
    session = manager.session()
    assert session.options == ExecOptions(deadline=7)
    for sql in GOOD:
        session.execute(sql)
    assert session.options == ExecOptions(deadline=50, memory_budget=4096)
    assert db.options == SET_ENGINE
    # Sessions opened later start at the manager's limits again.
    assert manager.session().options == ExecOptions(deadline=7)


def test_a_replication_group_sets_every_node():
    group = ReplicationGroup(n_replicas=2)
    for sql in GOOD:
        group.execute(sql)
    assert [node.db.options for node in group.nodes] == [SET_ALL] * 3


def test_a_sharded_cluster_keeps_the_limits_and_broadcasts_the_rest():
    sdb = ShardedDatabase(n_shards=2)
    for sql in GOOD:
        sdb.execute(sql)
    assert sdb.options == SET_ALL
    assert [node.db.options for node in sdb.shards] == [SET_ENGINE] * 2


def test_a_zero_limit_clears_it():
    db = Database()
    db.execute("SET deadline = 50")
    db.execute("SET deadline = 0")
    assert db.options == ExecOptions()


def test_the_per_call_workers_override_is_checked_by_the_same_rule():
    db = Database()
    db.execute("CREATE TABLE t (k INT)")
    for bad in (0, 1.5, True):
        with pytest.raises(ValueError) as caught:
            db.execute("SELECT k FROM t", workers=bad)
        assert str(caught.value) == \
            "workers must be a positive integer, got {0!r}".format(bad)
    assert db.options.workers == 1
