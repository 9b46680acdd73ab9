"""The view-maintenance differential oracle.

After every committed batch of a seeded DML script, every materialized
view's contents must equal a full recomputation of its SELECT through
the row-at-a-time reference executor — on the plain single-node engine,
on an engine recovered after a crash on the commit path, on a
replicated cluster after drain, and on a two-shard deployment.

``VIEW_SEED`` shifts the seed band so CI can sweep disjoint corpora:
``VIEW_SEED=n`` covers seeds ``50n+1 .. 50n+8``.
"""

import os

import pytest

from repro.faults import CrashError, FaultInjector
from repro.replication import ReplicationGroup
from repro.sharding import ShardedDatabase
from repro.sql.database import Database
from repro.sql.parser import parse_sql
from repro.wal import WriteAheadLog
from tests.oracle.generator import QueryGenerator
from tests.oracle.reference import ReferenceExecutor
from tests.oracle.test_recovery_differential import copy_tables
from tests.views.oracle.harness import (RETRACTION_HEAVY,
                                        assert_view_contents,
                                        create_views, view_specs)

SEED_BASE = int(os.environ.get("VIEW_SEED", "0")) * 50
SEEDS = list(range(SEED_BASE + 1, SEED_BASE + 9))
SCRIPTS_PER_SEED = 3

CRASH_SITES = [("commit.validate", "pre"), ("wal.append", "pre"),
               ("commit.publish", "post"), ("commit.apply", "post")]


def build_engine(generator):
    db = Database(wal=WriteAheadLog())
    for statement in generator.setup_statements():
        db.execute(statement)
    return db


def make_reference(generator):
    return ReferenceExecutor(copy_tables(generator.reference_tables()))


@pytest.mark.parametrize("seed", SEEDS)
def test_single_node_views_match_recomputation(seed):
    """Every commit, every view kind: incremental == recomputation;
    a WAL replay from scratch rebuilds the identical view state."""
    generator = QueryGenerator(seed)
    db = build_engine(generator)
    specs = view_specs(generator, case_id=0)
    create_views(db, specs)
    for name in ("v_cross", "v_arith"):
        assert db.views.definition(name).kind == "aggregate"
    reference = make_reference(generator)
    assert_view_contents(db.views.contents, reference, specs,
                         "seed={0} initial".format(seed))
    for i in range(SCRIPTS_PER_SEED):
        script = generator.gen_dml_script(case_id=i,
                                          weights=RETRACTION_HEAVY)
        for j, sql in enumerate(script):
            db.execute(sql)  # autocommit: one batch per statement
            reference.apply_dml(parse_sql(sql))
            assert_view_contents(
                db.views.contents, reference, specs,
                "seed={0} script#{1} stmt#{2} {3!r}".format(
                    seed, i, j, sql))
    db.recover()
    assert_view_contents(db.views.contents, reference, specs,
                         "seed={0} after replay".format(seed))
    for name, _ in specs:
        assert db.views.counters[name]["deltas"] > 0


@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("site,expect", CRASH_SITES)
def test_recovered_views_match_recomputation(seed, site, expect):
    """A crash planted on the commit path must leave the recovered
    views equal to a recomputation over the pre- or post-script tables,
    depending on whether the commit record became durable."""
    generator = QueryGenerator(seed)
    db = build_engine(generator)
    specs = view_specs(generator, case_id=0)
    create_views(db, specs)
    pre = ReferenceExecutor(copy_tables(generator.reference_tables()))
    post = ReferenceExecutor(copy_tables(generator.reference_tables()))
    script = generator.gen_dml_script(case_id=0,
                                      weights=RETRACTION_HEAVY)
    for sql in script:
        post.apply_dml(parse_sql(sql))

    inj = FaultInjector()
    db.faults = inj
    db.wal.faults = inj
    inj.crash_at(site)
    txn = db.begin()
    for sql in script:
        txn.execute(sql)
    with pytest.raises(CrashError):
        txn.commit()
    db.recover()
    reference = pre if expect == "pre" else post
    assert_view_contents(
        db.views.contents, reference, specs,
        "seed={0} crash at {1} -> {2}".format(seed, site, expect))


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_replicated_views_converge_to_recomputation(seed):
    """create_view records ship through the WAL: after drain, every
    serving replica maintains the same views as the reference."""
    generator = QueryGenerator(seed)
    group = ReplicationGroup(n_replicas=2)
    for statement in generator.setup_statements():
        group.execute(statement)
    specs = view_specs(generator, case_id=0)
    create_views(group, specs)
    group.drain()
    reference = make_reference(generator)
    for i in range(SCRIPTS_PER_SEED):
        script = generator.gen_dml_script(case_id=i,
                                          weights=RETRACTION_HEAVY)
        for sql in script:
            group.execute(sql)
            reference.apply_dml(parse_sql(sql))
        group.drain()
        for node in group.nodes:
            if not node.alive:
                continue
            assert_view_contents(
                node.db.views.contents, reference, specs,
                "seed={0} script#{1} node={2}".format(seed, i,
                                                      node.node_id))
    assert group.divergence_report() == []


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_sharded_views_match_recomputation(seed):
    """Two shards, every base table partitioned by its first column:
    linear views concatenate per-shard contents, aggregate views finish
    per-shard part rows — grouped by the partition key, by another
    column (groups spanning shards) or by nothing — and all must equal
    recomputation."""
    generator = QueryGenerator(seed)
    db = ShardedDatabase(n_shards=2)
    for table in generator.tables:
        db.execute(table.create_sql(
            partition_key=table.column_names[0]))
        if table.rows:
            db.execute(table.insert_sql())
    specs = view_specs(generator, case_id=0,
                       kinds=("linear", "aggregate", "scalar", "cross",
                              "arith"))
    create_views(db, specs)
    for name in ("v_cross", "v_arith"):
        assert db.views[name].kind == "aggregate"
        for shard in db.shards:
            assert shard.database.views.definition(name).kind == \
                "aggregate"
    reference = make_reference(generator)

    def contents(name):
        return db.query("SELECT * FROM {0}".format(name))

    assert_view_contents(contents, reference, specs,
                         "seed={0} initial".format(seed))
    for i in range(SCRIPTS_PER_SEED):
        script = generator.gen_dml_script(case_id=i,
                                          weights=RETRACTION_HEAVY)
        for sql in script:
            db.execute(sql)
            reference.apply_dml(parse_sql(sql))
        assert_view_contents(
            contents, reference, specs,
            "seed={0} script#{1}".format(seed, i))
    assert db.stats.view_reads > 0
