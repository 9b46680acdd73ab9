"""Engines are freed as soon as the last reference goes.

No back reference makes a ``Database`` cyclic (its compiler and its
view maintainer hold it weakly), so dropping a database, a session
manager with its sessions, a replication group or a sharded cluster
frees every node database at once, without the cycle collector.  The
tests run with the collector off: a cycle would keep them alive.
"""

import gc
import weakref

import pytest

from repro.replication import ReplicationGroup
from repro.sessions import SessionManager
from repro.sharding import ShardedDatabase
from repro.sql import Database


@pytest.fixture(autouse=True)
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _work(execute):
    """CREATE, a 1000-row INSERT, a view, a SELECT and an UPDATE."""
    execute("CREATE TABLE t (k BIGINT, v BIGINT) PARTITION BY (k)")
    execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1})".format(k, k % 7) for k in range(1000)))
    execute("CREATE MATERIALIZED VIEW per_v AS "
            "SELECT v, count(*) AS n FROM t GROUP BY v")
    assert execute("SELECT k, v FROM t WHERE k < 10").rows()
    assert execute("UPDATE t SET v = v + 1 WHERE k = 3") == 1


def test_a_database_is_freed():
    db = Database()
    _work(db.execute)
    ref = weakref.ref(db)
    del db
    assert ref() is None


def test_a_session_manager_and_its_sessions_are_freed():
    db = Database()
    manager = SessionManager(db)
    sessions = [manager.session("a"), manager.session("b")]
    _work(sessions[0].execute)
    refs = [weakref.ref(x) for x in [db, manager] + sessions]
    del db, manager, sessions
    assert [ref() for ref in refs] == [None] * 4


def test_every_node_of_a_replication_group_is_freed():
    group = ReplicationGroup(n_replicas=2)
    _work(group.execute)
    refs = [weakref.ref(node.db) for node in group.nodes]
    del group
    assert [ref() for ref in refs] == [None] * 3


@pytest.mark.parametrize("replicas", [0, 1])
def test_every_node_of_a_sharded_cluster_is_freed(replicas):
    sdb = ShardedDatabase(n_shards=2, replicas=replicas)
    _work(sdb.execute)
    refs = [weakref.ref(db) for node in sdb.shards
            for db in node.databases()]
    del sdb
    assert len(refs) == 2 * (1 + replicas)
    assert [ref() for ref in refs] == [None] * len(refs)
