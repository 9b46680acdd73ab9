"""The statement cache must never change an answer.

A warm engine (every shape parsed and planned before, literals rebound
per execution) is checked against a cold one per statement, over the
literal vectors the cache key has to tell apart: int vs float, negative
values, strings holding ``''``, equal vs unequal literal pairs, a GROUP
BY expression repeating a select item, IN lists of different lengths,
``LIMIT n``, constant folding, two sargable conjuncts and ``--``
comments holding quotes — with compile on and off, ``workers`` 1 and 4,
and the default, cracking and recycling pipelines, and a two-shard
cluster whose legs plan in their shards' caches.  Spy tests pin the
work a cache hit skips, on one node and on every shard; errors are
never cached.

CI shifts the table data with ``COMPILE_SEED`` (the compiled bands move
together).
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compile.executor as compile_executor
import repro.sql.database as database_module
import repro.sql.parser as parser_module
from repro.mal.optimizer.base import Pipeline
from repro.replication import ReplicationGroup
from repro.sessions import SessionManager
from repro.sharding import ShardedDatabase
from repro.sql import Database
from repro.sql.lexer import SQLSyntaxError
from repro.sql.parser import MAX_CACHED_TEXT, parse_sql
from repro.sql.statement_cache import CAPACITY

SEED = int(os.environ.get("COMPILE_SEED", "0"))
STRINGS = ["a", "b", "it's", "x''y", "", "--"]


def _setup_sql(partition=""):
    rng = random.Random(SEED)
    rows = ", ".join(
        "({0}, {1}, {2!r}, {3})".format(
            k, rng.randrange(-3, 8), rng.randrange(0, 60) / 2.0,
            _str(rng.choice(STRINGS)))
        for k in range(60))
    return ["CREATE TABLE t (k BIGINT, v BIGINT, f DOUBLE, s VARCHAR(8))"
            + partition, "INSERT INTO t VALUES " + rows]


def _num(value):
    return repr(value) if isinstance(value, float) else str(value)


def _str(value):
    return "'{0}'".format(value.replace("'", "''"))


NUM = st.one_of(st.integers(-3, 65),
                st.sampled_from([0.0, 1.0, 2.5, 7.0, 30.5]))
SMALL = st.sampled_from([0, 1, 2, -1, 1.0, 2.5])
INT = st.integers(0, 65)
STR = st.sampled_from(STRINGS)
COMMENT = st.sampled_from(["", "-- it's\n", "-- 'quoted' 1\n"])
RAW = {COMMENT}  # drawn text, not a literal


def _sql(template, *parts):
    return st.tuples(*parts).map(lambda values: template.format(*[
        value if part in RAW else
        _str(value) if isinstance(value, str) else _num(value)
        for value, part in zip(values, parts)]))


#: Statement families: each draws its literal vector afresh, so one
#: example runs a shape with several vectors (same key or not).
FAMILIES = [
    _sql("SELECT k, v FROM t WHERE k = {0}", NUM),
    _sql("SELECT {0}, k FROM t WHERE k < {1}", SMALL, INT),
    _sql("SELECT k FROM t WHERE v = {0} AND k < {1}", NUM, NUM),
    _sql("SELECT k FROM t WHERE k >= {0} AND k < {1}", INT, INT),
    _sql("SELECT v + {0}, v + {1} FROM t WHERE k < {2}", SMALL, SMALL, INT),
    _sql("SELECT v + {0}, count(*) FROM t GROUP BY v + {1}", SMALL, SMALL),
    st.lists(NUM, min_size=1, max_size=4).map(
        lambda values: "SELECT k FROM t WHERE k IN ({0})".format(
            ", ".join(map(_num, values)))),
    _sql("SELECT k, v FROM t WHERE v > {0} ORDER BY k LIMIT {1}",
         NUM, st.integers(0, 5)),
    _sql("SELECT k FROM t WHERE k = {0} + {1}", SMALL, SMALL),
    _sql("SELECT k FROM t WHERE v > -{0}", st.integers(0, 3)),
    _sql("SELECT k, s FROM t WHERE s = {0} {1}OR k = {2}",
         STR, COMMENT, INT),
    _sql("SELECT -v, {0} - v FROM t WHERE k < {1}", SMALL, INT),
    _sql("SELECT count(*), sum(v) FROM t WHERE f < {0}", NUM),
    _sql("DELETE FROM t WHERE k = {0}", INT),
    _sql("UPDATE t SET v = v + {0} WHERE k >= {1} AND k < {2}",
         st.integers(-3, 5), INT, INT),
    _sql("INSERT INTO t VALUES ({0}, {1}, {2}, {3})",
         st.integers(100, 110), st.integers(-3, 5),
         st.sampled_from([0.5, 3.0]), STR),
]

ENGINES = {"default": Database, "cracking": Database.with_cracking,
           "recycling": Database.with_recycling,
           "sharded": lambda: ShardedDatabase(n_shards=2)}


def _engine(pipeline, compiled, workers, history=(), cold=False):
    """An engine with the table loaded and ``history`` run; a ``cold``
    one gets every statement as an uncached parse, so no statement
    cache is involved in its answers at all."""
    db = ENGINES[pipeline]()
    run = (lambda sql: db.execute(parse_sql(sql))) if cold else db.execute
    for sql in _setup_sql(" PARTITION BY (k)" if pipeline == "sharded"
                          else ""):
        run(sql)
    run("SET compile = {0}".format("true" if compiled else "false"))
    run("SET workers = {0}".format(workers))
    for sql in history:
        run(sql)
    return db, run


def _outcome(run, sql):
    """What a statement answers: sorted rows, a row count, or the
    error's class and message."""
    try:
        result = run(sql)
    except Exception as exc:  # compared, not hidden
        return ("error", type(exc).__name__, str(exc))
    if hasattr(result, "rows"):
        rows = [tuple(round(v, 9) if isinstance(v, float) else v
                      for v in row) for row in result.rows()]
        return ("rows", sorted(rows, key=repr))
    return ("count", result)


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       families=st.lists(st.sampled_from(FAMILIES), min_size=1,
                         max_size=3),
       pipeline=st.sampled_from(sorted(ENGINES)),
       compiled=st.booleans(), workers=st.sampled_from([1, 4]))
def test_warm_engine_answers_like_a_cold_one(data, families, pipeline,
                                             compiled, workers):
    _, warm = _engine(pipeline, compiled, workers)
    history = []
    for _ in range(data.draw(st.integers(2, 10), label="statements")):
        sql = data.draw(st.sampled_from(families).flatmap(lambda f: f),
                        label="sql")
        _, cold = _engine(pipeline, compiled, workers, history, cold=True)
        want = _outcome(cold, sql)
        assert _outcome(warm, sql) == want, sql
        if want[0] == "count":
            history.append(sql)
    everything = "SELECT k, v, f, s FROM t"
    _, cold = _engine(pipeline, compiled, workers, history, cold=True)
    assert _outcome(warm, everything) == _outcome(cold, everything)


#: Same-shape statement sequences whose plans must not be shared.
SEQUENCES = {
    "int then float constant column": [
        "SELECT 1, k FROM t WHERE k < 3", "SELECT 2.5, k FROM t WHERE k < 3"],
    "int then float key": [
        "SELECT k FROM t WHERE f = 3", "SELECT k FROM t WHERE f = 3.5"],
    "LIMIT": [
        "SELECT k FROM t ORDER BY k LIMIT 2",
        "SELECT k FROM t ORDER BY k LIMIT 3"],
    "equal then unequal pair": [
        "SELECT v + 1, v + 1 FROM t WHERE k < 3",
        "SELECT v + 1, v + 2 FROM t WHERE k < 3"],
    "literal merged with a compiler constant": [
        "SELECT -v, 0 - v FROM t WHERE k < 3",
        "SELECT -v, 1 - v FROM t WHERE k < 3"],
    "compiler constant merged into a literal": [
        "SELECT 0 - v, -v FROM t WHERE k < 3",
        "SELECT 1 - v, -v FROM t WHERE k < 3"],
    "folded literals": [
        "SELECT k FROM t WHERE k = 1 + 2", "SELECT k FROM t WHERE k = 2 + 2"],
    "negative literal": [
        "SELECT k FROM t WHERE k = -1 + 3",
        "SELECT k FROM t WHERE k = -2 + 7"],
    "negative INSERT values": [
        "INSERT INTO t VALUES (100, -5, 1.0, 'a')",
        "INSERT INTO t VALUES (101, -6, -2.0, 'b')",
        "SELECT k, v, f FROM t WHERE k >= 100"],
    "quotes in strings and comments": [
        "SELECT k FROM t WHERE s = 'it''s' -- it's\n OR k = 1",
        "SELECT k FROM t WHERE s = 'a' -- it's\n OR k = 2"],
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_same_shape_statements_keep_their_own_answers(name):
    _, warm = _engine("default", True, 1)
    for index, sql in enumerate(SEQUENCES[name]):
        _, cold = _engine("default", True, 1, SEQUENCES[name][:index],
                          cold=True)
        assert _outcome(warm, sql) == _outcome(cold, sql), sql


# -- what a cache hit skips ---------------------------------------------------

@pytest.fixture
def db():
    db = Database()
    for sql in _setup_sql():
        db.execute(sql)
    db.execute("SET compile = true")
    return db


@pytest.fixture
def forbid_planning(monkeypatch):
    """Make every planning entry point fail the test when called."""
    calls = []

    def spy(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError("{0} called on a cache hit".format(name))
        return called

    def arm():
        for module, name in ((database_module, "compile_select"),
                             (database_module, "compile_where_candidates"),
                             (compile_executor, "normalize")):
            monkeypatch.setattr(module, name, spy(name))
        monkeypatch.setattr(Pipeline, "optimize", spy("Pipeline.optimize"))
    return arm, calls


@pytest.mark.parametrize("warm, fresh, want", [
    ("SELECT k, v FROM t WHERE k = 3", "SELECT k, v FROM t WHERE k = 4",
     None),
    ("SELECT k FROM t WHERE k >= 5 AND k < 8",
     "SELECT k FROM t WHERE k >= 9 AND k < 12", [(9,), (10,), (11,)]),
    ("DELETE FROM t WHERE k = 1", "DELETE FROM t WHERE k = 2", 1),
    ("UPDATE t SET v = v + 1 WHERE k = 3",
     "UPDATE t SET v = v + 2 WHERE k = 4", 1),
])
def test_new_literals_skip_compile_optimize_and_normalize(
        db, forbid_planning, warm, fresh, want):
    reference = Database()
    for sql in _setup_sql():
        reference.execute(sql)
    db.execute(warm)
    reference.execute(warm)
    expected = reference.execute(fresh)
    arm, calls = forbid_planning
    arm()
    got = db.execute(fresh)
    assert calls == []
    if hasattr(got, "rows"):
        assert sorted(got.rows()) == sorted(expected.rows())
        if want is not None:
            assert sorted(got.rows()) == want
    else:
        assert got == expected == want


def test_transaction_statements_reuse_plans(db, forbid_planning):
    session = SessionManager(db).session()
    for key in (1, 2):
        session.execute("BEGIN")
        session.execute("UPDATE t SET v = v + {0} WHERE k = {1}".format(
            key + 10, key))
        session.execute("SELECT v FROM t WHERE k = {0}".format(key))
        session.execute("COMMIT")
        if key == 1:
            arm, calls = forbid_planning
            arm()
    assert calls == []


def test_exact_repeat_runs_the_very_same_program(db, monkeypatch):
    seen = []
    run = Database._run_program

    def spy(self, program, *args, **kwargs):
        seen.append(program)
        return run(self, program, *args, **kwargs)
    monkeypatch.setattr(Database, "_run_program", spy)
    for sql in ("SELECT v FROM t WHERE k = 7", "SELECT v FROM t WHERE k = 8",
                "SELECT v FROM t WHERE k = 7"):
        db.execute(sql)
    assert seen[0] is seen[2] and seen[1] is not seen[0]
    assert db.plans_reused == 2


def _count_lexing(monkeypatch):
    counts = {"tokenize": 0, "lift": 0}
    for name in counts:
        original = getattr(parser_module, name)

        def counted(text, name=name, original=original):
            counts[name] += 1
            return original(text)
        monkeypatch.setattr(parser_module, name, counted)
    return counts


@pytest.mark.parametrize("backend", ["single", "replicated", "sharded"])
def test_session_statements_are_tokenized_at_most_once(monkeypatch,
                                                       backend):
    partition = ""
    if backend == "single":
        engine = Database()
    elif backend == "replicated":
        engine = ReplicationGroup(n_replicas=2, mode="sync")
    else:
        engine = ShardedDatabase(n_shards=2)
        partition = " PARTITION BY (k)"
    session = SessionManager(engine).session()
    session.execute("CREATE TABLE a (k BIGINT, v BIGINT)" + partition)
    session.execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)")
    script = ["SELECT v FROM a WHERE k = {0}", "BEGIN",
              "UPDATE a SET v = v + 1 WHERE k = {0}",
              "SELECT v FROM a WHERE k = {0}", "COMMIT",
              "DELETE FROM a WHERE k = {0}"]
    counts = _count_lexing(monkeypatch)
    for key in (1, 2, 3):
        for sql in script:
            before = dict(counts)
            session.execute(sql.format(key))
            assert counts["tokenize"] - before["tokenize"] <= 1, sql
            assert counts["lift"] - before["lift"] <= 1, sql
            if key > 1:  # every shape was seen with key 1
                assert counts["tokenize"] == before["tokenize"], sql


# -- every shard plans from its own cache --------------------------------------

R_ROWS = [(v, v % 3) for v in range(-3, 8)]

#: One script per shape the coordinator routes differently: a pruned
#: point read, a scatter GROUP BY with AVG, a broadcast join against a
#: reference table, an UPDATE plus SELECT in one transaction, a pruned
#: DELETE and an un-pruned DELETE (2PC on plain shards, a broadcast on
#: replicated ones).
SHARDED_SHAPES = [
    ("SELECT k, v FROM t WHERE k = {key}",),
    ("SELECT v, avg(f) FROM t WHERE k > {low} GROUP BY v",),
    ("SELECT r.w, count(*), sum(t.f) FROM t JOIN r ON t.v = r.v "
     "WHERE t.k < {high} GROUP BY r.w",),
    ("UPDATE t SET v = v + {step} WHERE k = {row}",
     "SELECT v FROM t WHERE k = {row}"),
    ("DELETE FROM t WHERE k = {key}",),
    ("DELETE FROM t WHERE f > {above}",),
]


def _sharded(replicas):
    db = ShardedDatabase(n_shards=2, replicas=replicas)
    reference = Database()
    for engine, partition in ((db, " PARTITION BY (k)"), (reference, "")):
        for sql in _setup_sql(partition):
            engine.execute(sql)
        engine.execute("CREATE TABLE r (v BIGINT, w BIGINT)")
        engine.execute("INSERT INTO r VALUES " + ", ".join(
            "({0}, {1})".format(v, w) for v, w in R_ROWS))
    db.execute("SET compile = true")
    return db, reference


def _run_script(db, script, values, transaction):
    """The answers of one script; a transactional one runs inside a
    single transaction."""
    sqls = [sql.format(**values) for sql in script]
    if transaction:
        with db.begin() as txn:
            return [_outcome(txn.execute, sql) for sql in sqls]
    return [_outcome(db.execute, sql) for sql in sqls]


def _twin(db, key):
    """Another row key that hashes to ``key``'s shard."""
    shard = db.shard_map.shard_of(key)
    return next(k for k in range(key + 1, 60)
                if db.shard_map.shard_of(k) == shard)


@pytest.mark.parametrize("replicas", [0, 1])
def test_warm_shards_plan_nothing_for_new_literals(forbid_planning,
                                                   replicas):
    db, reference = _sharded(replicas)
    # Pruned shapes warm on the shard their fresh literal routes to.
    key, row = 3, 11
    warm = {"key": key, "row": row, "low": 10, "high": 50, "step": 100,
            "above": 100.5}
    fresh = {"key": _twin(db, key), "row": _twin(db, row), "low": 20,
             "high": 40, "step": 200, "above": 200.5}
    runs = [(values, script) for values in (warm, fresh)
            for script in SHARDED_SHAPES]
    wants = [_run_script(reference, script, values, False)
             for values, script in runs]
    assert wants[-2] == [("count", 1)]  # the fresh pruned DELETE
    arm, calls = forbid_planning
    for index, ((values, script), want) in enumerate(zip(runs, wants)):
        if index == len(SHARDED_SHAPES):
            arm()
        # Transactions need plain shards: a replicated cluster
        # autocommits the script's statements instead.
        transaction = len(script) > 1 and not replicas
        assert _run_script(db, script, values, transaction) == want, \
            (script, calls)
    assert calls == []


def test_a_split_part_never_borrows_its_statements_plan():
    """A scatter part and its statement share literal slots, not a
    key: once a merge leaves one shard, the shard that planned the part
    answers the whole statement."""
    db = ShardedDatabase(n_shards=2)
    reference = Database()
    for engine, partition in ((db, " PARTITION BY (k)"), (reference, "")):
        engine.execute("CREATE TABLE t (k BIGINT, v BIGINT, g INT)"
                       + partition)
        engine.execute("INSERT INTO t VALUES " + ", ".join(
            "({0}, {1}, {2})".format(k, k * 7 % 11, k % 3)
            for k in range(40)))
    sql = "SELECT g, avg(v) FROM t WHERE v > {0} GROUP BY g"
    assert db.explain(sql.format(1)).startswith("SCATTER")
    assert sorted(db.query(sql.format(1))) == \
        sorted(reference.query(sql.format(1)))
    db.merge_shards(1, 0).run()
    assert db.explain(sql.format(2)).startswith("SINGLE")
    got = sorted(db.query(sql.format(2)))
    assert got == sorted(reference.query(sql.format(2)))
    assert len(got[0]) == 2


# -- failures and bounds ------------------------------------------------------

@pytest.mark.parametrize("sql", [
    "SELEC k FROM t WHERE k = 1",
    "SELECT k FROM t WHERE k = 'unterminated",
    "SELECT nosuch FROM t WHERE k = 1",
    "SELECT v + 1, count(*) FROM t GROUP BY v + 2",
    "DELETE FROM nosuch WHERE k = 1",
    "UPDATE t SET nosuch = 1 WHERE k = 1",
])
def test_errors_are_never_cached(db, sql):
    outcomes = []
    for _ in range(2):
        with pytest.raises(Exception) as caught:
            db.execute(sql)
        outcomes.append((type(caught.value), str(caught.value)))
    assert outcomes[0] == outcomes[1]
    assert len(db.statement_cache) == 0


def test_compile_error_after_a_same_shape_success(db):
    assert len(db.query("SELECT v + 1, count(*) FROM t GROUP BY v + 1")) > 0
    for _ in range(2):
        with pytest.raises(Exception, match="GROUP BY"):
            db.execute("SELECT v + 1, count(*) FROM t GROUP BY v + 2")
    assert len(db.query("SELECT v + 3, count(*) FROM t GROUP BY v + 3")) > 0


def test_syntax_error_class_is_kept():
    db = Database()
    with pytest.raises(SQLSyntaxError):
        db.execute("SELECT 1 FROM @")
    with pytest.raises(SQLSyntaxError):
        db.execute("SELECT 1 FROM @")


@pytest.mark.parametrize("sql", [
    "SELECT k FROM t WHERE k = \x00",
    "SELECT k FROM t WHERE s = \x01",
    "SELECT k FROM t ORDER BY k LIMIT \x00",
])
def test_literal_marks_in_the_text_are_a_syntax_error(db, sql):
    """A raw marker where a literal stood is the shape of a valid text
    seen before; it must still be rejected as unparseable."""
    db.execute(sql.replace("\x00", "5").replace("\x01", "'a'"))
    for _ in range(2):
        with pytest.raises(SQLSyntaxError):
            db.execute(sql)


def test_conjunct_order_follows_the_new_values(db):
    low = "SELECT k FROM t WHERE k >= {0} AND k < {1}"
    db.execute(low.format(1, 3))        # k < 3 is the selective one
    db.execute(low.format(57, 59))      # k >= 57 is
    db.execute(low.format(2, 4))
    db.execute(low.format(56, 58))
    assert db.plans_reused == 2
    assert sorted(db.query(low.format(56, 58))) == [(56,), (57,)]


def test_caches_stay_bounded_and_skip_bulk_loads(db):
    cache = db.statement_cache
    for key in range(CAPACITY + 20):
        db.execute("SELECT v FROM t WHERE k = {0}".format(key))
    assert len(cache) == CAPACITY
    bulk = "INSERT INTO t VALUES " + ", ".join(
        "({0}, 1, 1.0, 'a')".format(k) for k in range(200, 700))
    assert len(bulk) > MAX_CACHED_TEXT
    templates = len(cache.templates)
    db.execute(bulk)
    db.execute("INSERT INTO t VALUES (1000, 1, 1.0, 'a')")
    assert len(cache.templates) == templates + 1
    assert db.query("SELECT count(*) FROM t")[0][0] == 60 + 500 + 1
