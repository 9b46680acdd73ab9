"""The cancellation-oracle band: "a kill never corrupts state".

Scenarios are generated by the differential-testing generator and run
on every engine topology — single node (kernels, the interpreter
pinned by ``SET compile = false``, and morsel-parallel paths), sharded
scatter-gather, 2PC transactions and replicated routing.  For each one the oracle dry-runs under a
CountingContext to enumerate every (site, hit) checkpoint the
execution passes through, then re-runs fresh with a kill armed at each
point: the kill must fire, committed state must be byte-identical to
the pre-statement state, and an ungoverned re-run must reproduce the
clean run's result — which the fast band additionally pins against the
row-at-a-time reference executor.

The ``slow`` band sweeps >=300 armed schedules per ``GOVERN_SEED``
(the CI matrix shifts the seed band); the fast band strides the same
schedules down to a per-commit smoke level.
"""

import os

import pytest

from repro.governance import CancellationOracle, CountingContext
from repro.sharding.coordinator import ShardedDatabase
from repro.sql.database import Database
from repro.sql.parser import parse_sql
from tests.oracle.generator import QueryGenerator
from tests.oracle.reference import ReferenceError, ReferenceExecutor

SEED_BASE = int(os.environ.get("GOVERN_SEED", "0")) * 1000
SEEDS = [SEED_BASE + offset for offset in (1, 2, 3)]

#: Acceptance floor for the slow band, per seed.
MIN_SCHEDULES = 300


def _snapshot_fn(db, tables):
    """Comparable committed-state snapshot: every table, sorted rows."""
    selects = ["SELECT {0} FROM {1}".format(", ".join(names), name)
               for name, (names, _) in sorted(tables.items())]

    def snapshot():
        return [sorted(db.query(sql)) for sql in selects]

    return snapshot


def _interpreted_database():
    """A single node pinned to the MAL interpreter, the engine that
    serves recycling and cracking databases and the coordinator's
    scratch databases."""
    db = Database()
    db.execute("SET compile = false")
    return db


def _build(generator, factory=Database):
    db = factory()
    for sql in generator.setup_statements():
        db.execute(sql)
    return db


# -- scenario factories (fresh engine per armed schedule) ---------------------


def select_scenario(seed, case_id, workers=None, factory=Database):
    generator = QueryGenerator(seed)
    sql = generator.gen_query(case_id=case_id)

    def scenario():
        db = _build(generator, factory)
        tables = generator.reference_tables()

        def run(context):
            return db.execute(sql, workers=workers,
                              context=context).rows()

        return run, _snapshot_fn(db, tables)

    return scenario, sql, generator


def dml_scenario(seed, case_id, index, factory=Database):
    """Script statements before ``index`` are committed ungoverned;
    statement ``index`` runs under the armed context."""
    generator = QueryGenerator(seed)
    script = generator.gen_dml_script(case_id=case_id)
    if index >= len(script):
        return None

    def scenario():
        db = _build(generator, factory)
        for sql in script[:index]:
            db.execute(sql)
        tables = generator.reference_tables()

        def run(context):
            return db.execute(script[index], context=context)

        return run, _snapshot_fn(db, tables)

    return scenario


def sharded_scenario(seed, case_id):
    generator = QueryGenerator(seed)
    sql = generator.gen_query(case_id=case_id)
    if " JOIN " in sql:
        return None, sql  # scatter-gather joins ship both sides; keep
        # the sweep on the scatter path where legs cancel mid-flight

    def scenario():
        db = ShardedDatabase(n_shards=3)
        for table in generator.tables:
            db.execute(table.create_sql(
                partition_key=table.column_names[0]))
            db.execute(table.insert_sql())
        tables = generator.reference_tables()

        def run(context):
            return db.execute(sql, context=context).rows()

        return run, _snapshot_fn(db, tables)

    return scenario, sql


def twopc_scenario(seed, case_id):
    generator = QueryGenerator(seed)
    script = generator.gen_dml_script(case_id=case_id)

    def scenario():
        db = ShardedDatabase(n_shards=3)
        for table in generator.tables:
            db.execute(table.create_sql(
                partition_key=table.column_names[0]))
            db.execute(table.insert_sql())
        tables = generator.reference_tables()

        def run(context):
            txn = db.begin(context=context)
            for sql in script:
                txn.execute(sql)
            txn.commit()
            return db.stats.twopc_commits

        return run, _snapshot_fn(db, tables)

    return scenario


def replicated_scenario(seed, case_id):
    from repro.replication import ReplicationGroup
    generator = QueryGenerator(seed)
    sql = generator.gen_query(case_id=case_id)

    def scenario():
        group = _build(generator, factory=lambda: ReplicationGroup(
            n_replicas=2))
        tables = generator.reference_tables()

        def run(context):
            return group.execute(sql, context=context).rows()

        snapshot_fn = _snapshot_fn(group, tables)
        return run, snapshot_fn

    return scenario, sql


# -- the fast band ------------------------------------------------------------


def _sweep_selects(seed, factory):
    """Sweep three generated SELECTs; return the kill sites seen."""
    swept = 0
    sites = set()
    for case_id in range(3):
        scenario, sql, generator = select_scenario(seed, case_id,
                                                   factory=factory)
        oracle = CancellationOracle(scenario, max_points=6)
        expected, _, _ = oracle.dry_run()
        try:
            reference = ReferenceExecutor(
                generator.reference_tables()).execute(parse_sql(sql))
        except ReferenceError:
            reference = None
        if reference is not None:
            assert sorted(expected) == sorted(reference), sql
        report = oracle.sweep().check()
        swept += report.schedules
        sites.update(site for site, _ in report.kill_points)
    assert swept > 0
    return sites


def _sweep_dml(seed, factory):
    """Sweep generated DML scripts; return the kill sites seen."""
    swept = 0
    sites = set()
    for case_id in range(2):
        for index in range(4):
            scenario = dml_scenario(seed, case_id, index, factory)
            if scenario is None:
                continue
            report = CancellationOracle(scenario,
                                        max_points=4).sweep().check()
            swept += report.schedules
            sites.update(site for site, _ in report.kill_points)
    assert swept > 0  # deletes/updates always hit execution checkpoints
    return sites


@pytest.mark.parametrize("seed", SEEDS)
def test_select_kills_are_clean_and_match_reference(seed):
    _sweep_selects(seed, Database)


@pytest.mark.parametrize("seed", SEEDS)
def test_interpreted_select_kills_are_clean_and_match_reference(seed):
    sites = _sweep_selects(seed, _interpreted_database)
    assert "interp.instr" in sites and "compile.fragment" not in sites


@pytest.mark.parametrize("seed", SEEDS)
def test_dml_kills_leave_committed_state_untouched(seed):
    _sweep_dml(seed, Database)


@pytest.mark.parametrize("seed", SEEDS)
def test_interpreted_dml_kills_leave_committed_state_untouched(seed):
    sites = _sweep_dml(seed, _interpreted_database)
    assert "interp.instr" in sites and "compile.fragment" not in sites


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_morsel_kills_are_clean(seed):
    scenario, sql, _ = select_scenario(seed, case_id=0, workers=2)
    CancellationOracle(scenario, max_points=6).sweep().check()


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_scatter_kills_are_clean(seed):
    swept = 0
    for case_id in range(4):
        scenario, sql = sharded_scenario(seed, case_id)
        if scenario is None:
            continue
        report = CancellationOracle(scenario, max_points=5).sweep()
        report.check()
        swept += report.schedules
    assert swept > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_twopc_prepare_kills_abort_cleanly(seed):
    scenario = twopc_scenario(seed, case_id=0)
    report = CancellationOracle(
        scenario, sites=("twopc.prepare",)).sweep().check()
    assert report.schedules > 0  # every participant prepare is a point


@pytest.mark.parametrize("seed", SEEDS)
def test_replicated_route_kills_are_clean(seed):
    scenario, sql = replicated_scenario(seed, case_id=0)
    report = CancellationOracle(scenario, max_points=6).sweep().check()
    assert ("repl.route", 1) in report.kill_points


def test_dry_run_enumerates_multiple_layers():
    """Meta: the counting dry run sees checkpoints from more than one
    execution layer, so the sweeps above cover the stack, not a single
    choke point."""
    generator = QueryGenerator(SEED_BASE + 1)
    db = ShardedDatabase(n_shards=3)
    for table in generator.tables:
        db.execute(table.create_sql(partition_key=table.column_names[0]))
        db.execute(table.insert_sql())
    counting = CountingContext()
    db.execute("SELECT COUNT(*) FROM {0}".format(
        generator.tables[0].name), context=counting)
    sites = {site for site, _ in counting.kill_points()}
    assert "scatter.leg" in sites
    assert sites & {"interp.instr", "compile.fragment"}


# -- the slow band: >=300 armed schedules per seed ---------------------------


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_full_sweep_meets_schedule_floor(seed):
    """The acceptance band: sweep every kill point of a battery of
    generated scenarios across all topologies until the per-seed
    schedule floor is met, with zero divergence anywhere."""
    total = 0
    site_coverage = set()

    def tally(report):
        nonlocal total
        total += report.schedules
        site_coverage.update(site for site, _ in report.kill_points)

    case_id = 0
    while total < MIN_SCHEDULES:
        scenario, _, _ = select_scenario(seed, case_id)
        tally(CancellationOracle(scenario).sweep().check())
        scenario, _, _ = select_scenario(seed, case_id + 100, workers=2)
        tally(CancellationOracle(scenario, max_points=20).sweep().check())
        for index in range(4):
            dml = dml_scenario(seed, case_id, index)
            if dml is not None:
                tally(CancellationOracle(dml).sweep().check())
        sharded, _ = sharded_scenario(seed, case_id)
        if sharded is not None:
            tally(CancellationOracle(sharded,
                                     max_points=20).sweep().check())
        tally(CancellationOracle(twopc_scenario(seed, case_id),
                                 sites=("twopc.prepare",)).sweep()
              .check())
        case_id += 1
    assert total >= MIN_SCHEDULES
    assert {"interp.instr", "scatter.leg", "twopc.prepare"} <= \
        site_coverage
