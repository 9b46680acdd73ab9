"""``INSERT ... VALUES`` parses through one lift pass at every length.

The rows of a VALUES tail of literals come straight from the lifted
values; only the short head is tokenized.  Any text the tail grammar
refuses is tokenized and parsed whole, so every text must parse to what
the token parser gives (table, columns, values and their types), and
every malformed text must raise what it raises, leaving each engine's
tables, ``commit_seq`` and WAL as they were.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replication import ReplicationGroup
from repro.sessions import SessionManager
from repro.sharding import ShardedDatabase
from repro.sql import Database
from repro.sql import parser as parser_module
from repro.sql.lexer import tokenize
from repro.sql.parser import MAX_CACHED_TEXT, parse_sql
from repro.sql.statement_cache import StatementCache
from repro.wal import WriteAheadLog


def token_parse(text):
    return parser_module._Parser(tokenize(text)).parse_statement()


def outcome(parse, text):
    """What parsing ``text`` gives: the INSERT's table, columns and
    typed values, or the error's type and message."""
    try:
        statement = parse(text)
    except Exception as error:  # compared, not hidden
        return type(error), str(error)
    return (statement.table, statement.columns,
            [[(type(value), repr(value)) for value in row]
             for row in statement.rows])


# -- the lifted parse equals the token parse ---------------------------------

SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", " \n\t ", "\u00a0"])


def _quoted(text):
    return "'{0}'".format(text.replace("'", "''"))


@st.composite
def items(draw):
    kind = draw(st.sampled_from(
        ["int", "negative", "real", "exponent", "string", "keyword"]))
    if kind == "int":
        return str(draw(st.integers(0, 10 ** 20)))
    if kind == "negative":
        return "-" + draw(SPACE) + draw(st.sampled_from(
            ["5", "0", "7.25", "1e3", "12345678901"]))
    if kind == "real":
        return repr(draw(st.floats(0, 1e30, allow_nan=False)))
    if kind == "exponent":
        return draw(st.sampled_from(["1e5", "2E-3", "1.5e+2", "3.0E1"]))
    if kind == "string":
        return _quoted(draw(st.sampled_from(
            ["", "it's", "a, b", "(x)", "-5", "--", "NULL", "''", "é"])))
    return draw(st.sampled_from(
        ["NULL", "null", "Null", "TRUE", "true", "FALSE", "False"]))


#: Items the tail grammar refuses: a text holding one is tokenized.
BAD_ITEMS = ["1.", "x", "- -5", "-TRUE", "-'x'", "-NULL", "5 6", ".5",
             "'open"]


@st.composite
def insert_texts(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(items(), min_size=width, max_size=width), min_size=1,
        max_size=6))
    defect = draw(st.sampled_from([None, None, None, "arity", "item"]))
    if defect == "arity":
        rows.append(rows[-1][:-1] or ["1", "2"])
    elif defect == "item":
        rows[-1][-1] = draw(st.sampled_from(BAD_ITEMS))
    sep = draw(SPACE)
    tail = draw(SPACE) + ("," + draw(SPACE)).join(
        "(" + sep + ("," + draw(SPACE)).join(row) + sep + ")"
        for row in rows)
    if draw(st.booleans()):  # past the cache limit
        while len(tail) <= MAX_CACHED_TEXT:
            tail = tail + "," + sep + tail
    head = "{0} {1} t{2}{3}".format(
        draw(st.sampled_from(["INSERT", "insert", "Insert"])),
        draw(st.sampled_from(["INTO", "into"])),
        draw(st.sampled_from(
            ["", " (" + ", ".join("c{0}".format(i) for i in range(width))
             + ")"])),
        draw(st.sampled_from([" VALUES", " values", "\nVALUES\n"])))
    end = draw(st.sampled_from(["", ";", " ; ", ";\n", " -- note\n",
                                "\n-- it's\n"]))
    return head + tail + end


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(text=insert_texts())
def test_lifted_parse_equals_the_token_parse(text):
    want = outcome(token_parse, text)
    cache = StatementCache()
    assert outcome(parse_sql, text) == want
    assert outcome(lambda sql: parse_sql(sql, cache), text) == want
    assert outcome(lambda sql: parse_sql(sql, cache), text) == want


@pytest.mark.parametrize("rows", [3, 600])
def test_every_literal_form_on_both_sides_of_the_cache_limit(rows):
    text = "INSERT INTO t (k, v, s, b) VALUES " + ", ".join(
        "({0}, - {1}, 'it''s {0}', {2}), (-{0}, 1.5e-3, NULL, FALSE)"
        .format(k, k * 7, "TRUE" if k % 2 else "null")
        for k in range(rows)) + " ;"
    assert (len(text) > MAX_CACHED_TEXT) == (rows > 3)
    cache = StatementCache()
    assert outcome(lambda sql: parse_sql(sql, cache), text) == \
        outcome(token_parse, text)
    statement = parse_sql(text, cache)
    assert statement.rows[2] == (1, -7, "it's 1", True)
    assert statement.rows[3] == (-1, 0.0015, None, False)


def test_ints_in_a_double_column_store_as_doubles():
    db = Database()
    db.execute("CREATE TABLE t (k BIGINT, x DOUBLE)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1})".format(k, k if k % 2 else -k) for k in range(1000)))
    got = sorted(db.query("SELECT k, x FROM t"))
    assert got[:3] == [(0, 0.0), (1, 1.0), (2, -2.0)]
    assert all(isinstance(x, float) for _, x in got)


# -- only the head is tokenized -------------------------------------------

@pytest.fixture
def tokenized(monkeypatch):
    """The texts ``tokenize`` is called on, through the parser."""
    seen = []

    def spy(text):
        seen.append(text)
        return tokenize(text)
    monkeypatch.setattr(parser_module, "tokenize", spy)
    return seen


def test_a_bulk_insert_tokenizes_its_head_only(tokenized):
    text = "INSERT INTO t VALUES " + ", ".join(
        "({0}, {1}.5, 'v{0}', NULL)".format(k, k) for k in range(1000))
    cache = StatementCache()
    for _ in range(2):  # longer texts are not cached
        assert len(parse_sql(text, cache).rows) == 1000
    assert tokenized == ["INSERT INTO t VALUES"] * 2


def test_a_short_insert_shape_is_parsed_once(tokenized):
    cache = StatementCache()
    for k in range(3):
        statement = parse_sql(
            "INSERT INTO t (a, b) VALUES ({0}, -{0}), (NULL, 'x')"
            .format(k), cache)
        assert statement.rows == [(k, -k), (None, "x")]
        assert statement.columns == ["a", "b"]
    assert tokenized == ["INSERT INTO t (a, b) VALUES"]


@pytest.mark.parametrize("tail", [
    "(1, 2) -- a comment", "(1, 2), (3)", "(1, x)", "(1.)", "(- -5)",
    "(-TRUE)", "(1, 2) (3, 4)", "(FALſE)",
])
def test_other_tails_are_tokenized_whole(tokenized, tail):
    text = "INSERT INTO t VALUES " + tail
    assert outcome(parse_sql, text) == outcome(token_parse, text)
    assert tokenized[-1] == text


# -- malformed bulk INSERTs fail as the token parse does, changing nothing --

SCHEMA = "CREATE TABLE t (k BIGINT, v DOUBLE, s VARCHAR, b BOOLEAN)"


def bulk(defect=None, at=700, rows=1000):
    """A 1000-row INSERT into ``t``, with row ``at`` replaced by
    ``defect`` (its items after the key)."""
    out = []
    for k in range(rows):
        values = "{0}.5, 's{0}', TRUE".format(k)
        if k == at and defect is not None:
            values = defect
        out.append("({0}, {1})".format(k, values))
    return "INSERT INTO t VALUES " + ", ".join(out)


MALFORMED = {
    "arity-row-700": bulk("700.5, 's700'"),
    "trailing-dot": bulk("1., 's', TRUE"),
    "identifier": bulk("x, 's', TRUE"),
    "unterminated-string": bulk("1.5, 'open, TRUE", at=999),
    "negated-string": bulk("1.5, -'x', TRUE"),
    "type-refused": bulk("'abc', 's', TRUE"),
}


ENGINES = ["database", "session", "replicated", "sharded"]


def _build(name):
    """A loaded engine, and the Databases whose state it must keep."""
    if name == "database":
        engine = Database(wal=WriteAheadLog())
        dbs = [engine]
    elif name == "session":
        db = Database(wal=WriteAheadLog())
        engine, dbs = SessionManager(db).session(), [db]
    elif name == "replicated":
        engine = ReplicationGroup(n_replicas=2)
        dbs = [node.db for node in engine.nodes]
    else:
        engine = ShardedDatabase(n_shards=2)
        dbs = [node.db for node in engine.shards]
    partition = " PARTITION BY (k)" if name == "sharded" else ""
    engine.execute(SCHEMA + partition)
    engine.execute(bulk(rows=50))
    return engine, dbs


def _state(dbs):
    return [(sorted(db.query("SELECT k, v, s, b FROM t")), db.commit_seq,
             len(db.wal)) for db in dbs]


def _error(run):
    with pytest.raises(Exception) as raised:
        run()
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_bulk_insert_fails_as_the_token_parse_does(engine, case):
    text = MALFORMED[case]
    try:
        statement = token_parse(text)
    except Exception as error:  # the token parse's own error
        want = (type(error), str(error))
    else:
        reference, _ = _build(engine)
        want = _error(lambda: reference.execute(statement))
    target, dbs = _build(engine)
    before = _state(dbs)
    assert _error(lambda: target.execute(text)) == want
    assert _state(dbs) == before
    target.execute(bulk(rows=60).replace("(0, ", "(1000, "))
    assert _state(dbs) != before
