"""Property-based view maintenance invariants (Hypothesis).

For random view definitions over a small NULL-bearing schema and random
interleaved insert/delete histories, the incrementally maintained
contents must equal a full recomputation through the reference executor
after every single commit — including empty deltas (deletes that match
nothing), NULL aggregate arguments, and retraction of a group's last
row (zero-weight groups must vanish, scalar aggregates must not)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import Database
from repro.sql.parser import parse_sql
from tests.helpers import assert_same_rows
from tests.oracle.reference import ReferenceExecutor

COLUMNS = ("k", "a", "b")

# Predicates draw only from maintainer-evaluated space (view WHERE
# clauses run over decoded None-space rows, mirroring the reference's
# three-valued logic under truthiness).  Aggregate arguments stay
# BIGINT: the engine's grouped min/max over NaN-nil DOUBLEs warns, and
# this suite runs under -W error.
_COMPARISON = st.builds(
    "{0} {1} {2}".format,
    st.sampled_from(("a", "b")),
    st.sampled_from(("=", "<>", "<", "<=", ">", ">=")),
    st.integers(-4, 4).map(str))
_IS_NULL = st.sampled_from(("a", "b")).map("{0} IS NULL".format)
_ATOM = _COMPARISON | _IS_NULL
PREDICATE = st.one_of(
    _ATOM,
    st.builds("({0}) {1} ({2})".format, _ATOM,
              st.sampled_from(("AND", "OR")), _ATOM))

PROJECTION = st.sampled_from((
    "k, a, b", "a, b", "k, a + b AS s", "b, k"))

# Inserted rows: small key domain so deletes retract many rows and
# groups drain to empty; a and b are nullable.
_VALUE = st.integers(-4, 4) | st.none()
INSERT = st.tuples(st.just("insert"), st.integers(0, 3), _VALUE,
                   _VALUE)
# Keys 0..5 but inserts only use 0..3: deletes at 4-5 are empty deltas.
DELETE = st.tuples(st.just("delete"), st.integers(0, 5))
OPS = st.lists(INSERT | DELETE, min_size=1, max_size=12)


def _literal(value):
    return "NULL" if value is None else str(value)


def _make_db(seed_rows):
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, a BIGINT, b BIGINT)")
    for row in seed_rows:
        db.execute("INSERT INTO t VALUES ({0})".format(
            ", ".join(_literal(v) for v in row)))
    return db


def _run_history(view_sql, seed_rows, ops):
    """Replay ``ops``, checking incremental == recomputation after
    every commit."""
    db = _make_db(seed_rows)
    db.execute("CREATE MATERIALIZED VIEW v AS " + view_sql)
    select = parse_sql(view_sql)
    rows = [tuple(r) for r in seed_rows]

    def check(label):
        reference = ReferenceExecutor({"t": (list(COLUMNS), rows)})
        assert_same_rows(db.views.contents("v"),
                         reference.execute(select),
                         context="{0} after {1}".format(view_sql,
                                                        label))

    check("materialize")
    for op in ops:
        if op[0] == "insert":
            db.execute("INSERT INTO t VALUES ({0})".format(
                ", ".join(_literal(v) for v in op[1:])))
            rows.append(tuple(op[1:]))
        else:
            db.execute("DELETE FROM t WHERE k = {0}".format(op[1]))
            rows = [r for r in rows if r[0] != op[1]]
        check(op)
    return db


@settings(max_examples=60, deadline=None)
@given(projection=PROJECTION, predicate=PREDICATE,
       seed_rows=st.lists(st.tuples(st.integers(0, 3), _VALUE, _VALUE),
                          max_size=6),
       ops=OPS)
def test_linear_views_track_any_history(projection, predicate,
                                        seed_rows, ops):
    _run_history(
        "SELECT {0} FROM t WHERE {1}".format(projection, predicate),
        seed_rows, ops)


@settings(max_examples=60, deadline=None)
@given(predicate=PREDICATE | st.none(),
       seed_rows=st.lists(st.tuples(st.integers(0, 3), _VALUE, _VALUE),
                          max_size=6),
       ops=OPS)
def test_grouped_aggregates_track_any_history(predicate, seed_rows,
                                              ops):
    where = "" if predicate is None else " WHERE {0}".format(predicate)
    sql = ("SELECT k, count(*) AS n, count(a) AS na, sum(a) AS s, "
           "min(a) AS lo, max(a) AS hi, avg(a) AS av FROM t{0} "
           "GROUP BY k".format(where))
    db = _run_history(sql, seed_rows, ops)
    # Zero-weight groups are gone from the backing store itself, not
    # merely filtered at read time.
    live_keys = {row[0] for row in db.views.contents("v")}
    tracked = {group.key_values[0]
               for group in db.views._views["v"]._groups.values()
               if group.weight}  # implementation peek: no zombie groups
    assert tracked == live_keys


@settings(max_examples=40, deadline=None)
@given(seed_rows=st.lists(st.tuples(st.integers(0, 3), _VALUE, _VALUE),
                          max_size=4),
       ops=OPS)
def test_scalar_aggregates_track_any_history(seed_rows, ops):
    db = _run_history(
        "SELECT count(*) AS n, count(b) AS nb, sum(b) AS s, "
        "avg(b) AS av FROM t", seed_rows, ops)
    # However the history ends — even fully drained — exactly one row.
    assert len(db.views.contents("v")) == 1


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_retraction_to_empty_then_regrowth(ops):
    """Drain the table completely mid-history, then regrow it: the
    maintainer must come back from empty without residue."""
    db = _make_db([(0, 1, 1), (1, None, 2)])
    db.execute("CREATE MATERIALIZED VIEW v AS "
               "SELECT k, count(*) AS n, sum(a) AS s FROM t GROUP BY k")
    select = parse_sql("SELECT k, count(*) AS n, sum(a) AS s FROM t "
                       "GROUP BY k")
    for key in range(4):
        db.execute("DELETE FROM t WHERE k = {0}".format(key))
    assert db.views.contents("v") == []
    rows = []
    for op in ops:
        if op[0] == "insert":
            db.execute("INSERT INTO t VALUES ({0})".format(
                ", ".join(_literal(v) for v in op[1:])))
            rows.append(tuple(op[1:]))
        else:
            db.execute("DELETE FROM t WHERE k = {0}".format(op[1]))
            rows = [r for r in rows if r[0] != op[1]]
    reference = ReferenceExecutor({"t": (list(COLUMNS), rows)})
    assert_same_rows(db.views.contents("v"), reference.execute(select),
                     context="after regrowth")


# -- join views ------------------------------------------------------------------

# l.k is BIGINT and r.k DOUBLE, so the key equality must match 1 with
# 1.0; both keys are nullable, and a NULL key never matches.
JOIN_ON = st.sampled_from((
    "l.k = r.k",                      # one-key equality
    "l.k = r.k AND l.a = r.b",        # two-key equality
    "l.k = r.k AND l.a < r.b",        # equality plus a theta residual
    "l.a < r.b",                      # pure theta: one bucket
    "l.k = r.k OR l.a = r.b",         # OR: residual only
))
JOIN_WHERE = st.sampled_from((
    None,
    "l.a > -2",                       # one side (pushed down)
    "r.b IS NULL OR r.b < 2",         # the other side, one OR conjunct
    "l.a <> 0 AND r.b >= -1",         # both sides, each pushed down
    "l.a + r.b > 0",                  # both sides in one conjunct
))
_L_ROW = st.tuples(st.integers(0, 3) | st.none(), _VALUE)
_R_ROW = st.tuples(st.sampled_from((0.0, 1.0, 2.0, 1.5)) | st.none(),
                   _VALUE)
_KEY = st.integers(0, 3).map(str)
JOIN_OPS = st.lists(st.one_of(
    st.tuples(st.just("INSERT INTO l VALUES ({0}, {1})"), _L_ROW),
    st.tuples(st.just("INSERT INTO r VALUES ({0}, {1})"), _R_ROW),
    st.tuples(st.just("DELETE FROM l WHERE k = {0}"), st.tuples(_KEY)),
    st.tuples(st.just("DELETE FROM r WHERE k = {0}"), st.tuples(_KEY)),
    st.tuples(st.just("UPDATE l SET a = {1} WHERE k = {0}"),
              st.tuples(_KEY, _VALUE)),
    st.tuples(st.just("UPDATE r SET b = {1} WHERE k = {0}"),
              st.tuples(_KEY, _VALUE)),
    # One commit moving both tables: dL joins old R, then dR new L.
    st.tuples(st.just("both"), st.tuples(_L_ROW, _R_ROW)),
), min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(on=JOIN_ON, where=JOIN_WHERE,
       seed_l=st.lists(_L_ROW, max_size=4),
       seed_r=st.lists(_R_ROW, max_size=4), ops=JOIN_OPS)
def test_join_views_track_any_history(on, where, seed_l, seed_r, ops):
    """Join views under NULL-bearing insert/delete/update histories on
    both tables equal a full recomputation after every commit and
    after ``recover()``.  The reference executor recomputes: it reads
    NULL as the maintainer does, and the engine does not run theta or
    OR joins."""
    from repro.wal import WriteAheadLog

    sql = "SELECT l.k, l.a, r.k, r.b FROM l JOIN r ON {0}{1}".format(
        on, "" if where is None else " WHERE " + where)
    select = parse_sql(sql)
    db = Database(wal=WriteAheadLog())
    db.execute("CREATE TABLE l (k BIGINT, a BIGINT)")
    db.execute("CREATE TABLE r (k DOUBLE, b BIGINT)")
    reference = ReferenceExecutor({"l": (["k", "a"], []),
                                   "r": (["k", "b"], [])})

    def run(statement, values):
        text = statement.format(*(_literal(v) for v in values))
        db.execute(text)
        reference.apply_dml(parse_sql(text))

    for row in seed_l:
        run("INSERT INTO l VALUES ({0}, {1})", row)
    for row in seed_r:
        run("INSERT INTO r VALUES ({0}, {1})", row)
    db.execute("CREATE MATERIALIZED VIEW v AS " + sql)

    def check(label):
        assert_same_rows(db.views.contents("v"), reference.execute(select),
                         context="{0} after {1}".format(sql, label))

    check("materialize")
    for statement, values in ops:
        if statement != "both":
            run(statement, values)
        else:
            texts = ["INSERT INTO l VALUES ({0}, {1})".format(
                         *map(_literal, values[0])),
                     "INSERT INTO r VALUES ({0}, {1})".format(
                         *map(_literal, values[1]))]
            with db.begin() as txn:
                for text in texts:
                    txn.execute(text)
            for text in texts:
                reference.apply_dml(parse_sql(text))
        check((statement, values))
    db.recover()
    check("recover()")
