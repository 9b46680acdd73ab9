"""Differential testing of the plan-fragment compiler (repro.compile).

Every generated query runs three ways against the same data —
interpreter (``SET compile = false``), compiled (``SET compile =
true``), and compiled+parallel — and
all answers must agree with the row-at-a-time reference oracle as
multisets.  The band rotates optimizer pipelines with the seed like the
main differential band, so compiled kernels are exercised on cracked
plans (``sql.crackedselect``) and under the recycler too.  A second
band first runs generated DML scripts on the engine and the oracle, so
the same queries also run over tables with deleted oids.

An engagement guard asserts the compiler actually compiled a healthy
share of the band: a regression that silently rejects every plan would
otherwise pass by testing the interpreter against itself.

CI shifts the seed window with ``COMPILE_SEED``.
"""

import os

import pytest

from repro.sql.database import Database
from repro.sql.parser import parse_sql
from tests.helpers import assert_same_rows
from tests.oracle.generator import QueryGenerator
from tests.oracle.reference import ReferenceExecutor

SEED_BASE = int(os.environ.get("COMPILE_SEED", "0"))
SEEDS = list(range(SEED_BASE + 1, SEED_BASE + 31))
FAST_SEEDS = SEEDS[:8]
QUERIES_PER_SEED = 7


def _make_database(seed):
    kind = seed % 3
    if kind == 0:
        return Database.with_cracking(), "cracking"
    if kind == 1:
        return Database.with_recycling(), "recycling"
    return Database(), "default"


def _run_band(seed):
    generator = QueryGenerator(seed)
    db, pipeline = _make_database(seed)
    for statement in generator.setup_statements():
        db.execute(statement)
    oracle = ReferenceExecutor(generator.reference_tables())

    for i in range(QUERIES_PER_SEED):
        sql = generator.gen_query(case_id=i)
        label = "seed={0} pipeline={1} query#{2}: {3}".format(
            seed, pipeline, i, sql)
        expected = oracle.execute(parse_sql(sql))
        db.execute("SET compile = false")
        interpreted = db.query(sql)
        assert_same_rows(interpreted, expected,
                         context="interpreted " + label)
        db.execute("SET compile = true")
        compiled = db.query(sql)
        assert_same_rows(compiled, expected, context="compiled " + label)
        parallel = db.query(sql, workers=4)
        assert_same_rows(parallel, expected,
                         context="compiled+parallel " + label)
    return db


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_compiled_legs_agree_with_oracle(seed):
    _run_band(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS[len(FAST_SEEDS):])
def test_compiled_legs_agree_with_oracle_full(seed):
    _run_band(seed)


#: DML scripts run before a holed band's queries; their case ids sit
#: far above the query ids so no existing stream moves.
DML_CASE_BASE = 1000
DML_SCRIPTS = 4


def _run_holed_band(seed):
    """:func:`_run_band` on tables with holes: DML scripts (UPDATE is a
    delete plus an append) run on the engine and the oracle first, so
    the compiled selects run over ``sql.tid`` with deleted oids."""
    generator = QueryGenerator(seed)
    db, pipeline = _make_database(seed)
    for statement in generator.setup_statements():
        db.execute(statement)
    oracle = ReferenceExecutor(
        {name: (list(names), list(rows))
         for name, (names, rows) in generator.reference_tables().items()})
    for j in range(DML_SCRIPTS):
        for sql in generator.gen_dml_script(case_id=DML_CASE_BASE + j):
            db.execute(sql)
            oracle.apply_dml(parse_sql(sql))
    for i in range(QUERIES_PER_SEED):
        sql = generator.gen_query(case_id=i)
        label = "seed={0} pipeline={1} holed query#{2}: {3}".format(
            seed, pipeline, i, sql)
        expected = oracle.execute(parse_sql(sql))
        db.execute("SET compile = false")
        assert_same_rows(db.query(sql), expected,
                         context="interpreted " + label)
        db.execute("SET compile = true")
        assert_same_rows(db.query(sql), expected,
                         context="compiled " + label)
        assert_same_rows(db.query(sql, workers=4), expected,
                         context="compiled+parallel " + label)
    return db


def test_compiled_legs_agree_with_oracle_on_tables_with_holes():
    holed = 0
    for seed in FAST_SEEDS:
        db = _run_holed_band(seed)
        holed += sum(len(table.deleted_oids) > 0
                     for table in db.catalog.tables.values())
        assert db.plan_compiler.counters()["interpreted_fallbacks"] == 0, (
            "seed={0}: a kernel raised where the interpreter did "
            "not".format(seed))
    assert holed >= len(FAST_SEEDS), "the DML scripts left few holes"


def test_compiler_engages_on_the_band():
    """The compiled leg must actually run compiled kernels — a plan
    compiler that rejects everything degenerates this whole band into
    interpreter-vs-interpreter."""
    total_runs = 0
    total_rejected = 0
    for seed in FAST_SEEDS:
        db = _run_band(seed)
        stats = db.plan_compiler.counters()
        total_runs += stats["compiled_runs"]
        total_rejected += stats["unsupported_plans"]
        assert stats["interpreted_fallbacks"] == 0, (
            "seed={0}: compiled execution started and then fell back "
            "{1} times — a kernel raised where the interpreter did "
            "not".format(seed, stats["interpreted_fallbacks"]))
    assert total_runs > 0, "no query on the band ever ran compiled"
    # The generator's query shapes are the compiler's target workload;
    # most of them must compile outright.
    assert total_runs >= 4 * max(total_rejected, 1), (
        "compiler rejected too much of the band: {0} compiled runs vs "
        "{1} rejected plans".format(total_runs, total_rejected))
