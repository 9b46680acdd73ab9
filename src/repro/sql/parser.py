"""Recursive-descent SQL parser for the supported subset.

Statements: CREATE TABLE, CREATE MATERIALIZED VIEW ... AS SELECT,
DROP MATERIALIZED VIEW, INSERT, DELETE, UPDATE, SELECT (joins, WHERE,
GROUP BY, HAVING, ORDER BY, LIMIT, DISTINCT, BETWEEN, IN), the
session pragma SET (``SET workers = 4``), transaction control
(``BEGIN`` / ``COMMIT`` / ``ROLLBACK``, each with an optional
``TRANSACTION``/``WORK`` noise word, plus ``ABORT``), and the
EXPLAIN / PROFILE statement prefixes.  Expressions
follow standard precedence: OR < AND < NOT < comparison < additive <
multiplicative < unary minus.

:func:`parse_sql` with a statement cache parses each literal-free shape
once and binds every execution's literals into that parse; an INSERT's
VALUES rows come straight from one lift pass.
"""

import re
from dataclasses import fields, is_dataclass

from repro.sql.ast import (
    BeginTransaction, BinOp, Column, CommitTransaction,
    CreateMaterializedView, CreateTable, Delete, DropMaterializedView,
    Explain, FuncCall, Insert, IsNull, Join, Literal, OrderItem, Params,
    Profile, RollbackTransaction, Select, SelectItem, SetPragma, Star,
    TableRef, UnaryOp, Update,
)
from repro.sql.lexer import (
    END, LITERALS, NUMBER_MARK, STRING_MARK, SQLSyntaxError, lift,
    lifted_rows, tokenize,
)

_TYPE_KEYWORDS = frozenset([
    "integer", "int", "bigint", "smallint", "tinyint", "varchar", "text",
    "string", "boolean", "bool", "real", "float", "double",
])

#: Longer texts are lifted, not cached: a bulk-load INSERT's shape
#: would only pin memory.
MAX_CACHED_TEXT = 4096

#: An INSERT's head: the text through its first VALUES word, holding
#: no string (the head is parsed apart from its rows).
_INSERT_HEAD = re.compile(r"\s*(?ai:insert)\b[^'\x00\x01]*?\b(?ai:values)\b")


class _Parser:
    def __init__(self, tokens, slotted=False):
        self.tokens = tokens
        self.pos = 0
        # A slotted parse numbers the literal tokens in text order; each
        # Literal, INSERT value and structurally used value records its
        # slot so a later execution can bind its own values.
        self.slots = {}
        if slotted:
            for token in tokens:
                if token.kind in LITERALS:
                    self.slots[token.position] = len(self.slots)
        self.structural = set()  # slots whose value shaped the parse

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        token = self.tokens[self.pos]
        if token.kind != END:
            self.pos += 1
        return token

    def accept(self, kind, value=None):
        if self.peek().matches(kind, value):
            return self.advance()
        return None

    def _comma_list(self, item):
        """``item()`` once, then again after each comma."""
        items = [item()]
        while self.accept("op", ","):
            items.append(item())
        return items

    def expect(self, kind, value=None):
        token = self.accept(kind, value)
        if token is None:
            raise SQLSyntaxError(
                "expected {0} {1!r}, found {2!r} at position {3}".format(
                    kind, value, self.peek().value, self.peek().position))
        return token

    # -- statements ------------------------------------------------------------

    def parse_statement(self):
        token = self.peek()
        if token.matches("keyword", "explain"):
            self.advance()
            return Explain(self.parse_statement())
        if token.matches("keyword", "profile"):
            self.advance()
            return Profile(self.parse_statement())
        if token.matches("keyword", "create"):
            if self.peek(1).matches("keyword", "materialized"):
                return self.create_view()
            return self.create_table()
        if token.matches("keyword", "drop"):
            return self.drop_view()
        if token.matches("keyword", "insert"):
            return self.insert()
        if token.matches("keyword", "delete"):
            return self.delete()
        if token.matches("keyword", "update"):
            return self.update()
        if token.matches("keyword", "select"):
            return self.select()
        if token.matches("keyword", "set"):
            return self.set_pragma()
        if token.matches("keyword", "begin"):
            return self.txn_control("begin", BeginTransaction)
        if token.matches("keyword", "commit"):
            return self.txn_control("commit", CommitTransaction)
        if token.matches("keyword", "rollback"):
            return self.txn_control("rollback", RollbackTransaction)
        if token.matches("keyword", "abort"):
            return self.txn_control("abort", RollbackTransaction)
        raise SQLSyntaxError("unsupported statement start: {0!r}".format(
            token.value))

    def txn_control(self, word, node):
        """``BEGIN|COMMIT|ROLLBACK [TRANSACTION|WORK]`` and ``ABORT``."""
        self.expect("keyword", word)
        if not self.accept("keyword", "transaction"):
            self.accept("keyword", "work")
        return node()

    def set_pragma(self):
        """``SET name = value`` session pragma (e.g. ``SET workers = 4``)."""
        self.expect("keyword", "set")
        name = self.expect("ident").value
        self.expect("op", "=")
        value = self._literal_value()
        self.accept("op", ";")
        self.expect(END)
        return SetPragma(name, value)

    def create_table(self):
        self.expect("keyword", "create")
        self.expect("keyword", "table")
        name = self.expect("ident").value
        self.expect("op", "(")
        columns = []
        while True:
            col = self.expect("ident").value
            type_token = self.advance()
            if type_token.kind not in ("keyword", "ident") or \
                    type_token.value not in _TYPE_KEYWORDS:
                raise SQLSyntaxError("unknown column type {0!r}".format(
                    type_token.value))
            # Swallow optional length parameter: VARCHAR(20).
            if self.accept("op", "("):
                self.expect("number")
                self.expect("op", ")")
            columns.append((col, type_token.value))
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        partition_by = None
        if self.accept("keyword", "partition"):
            self.expect("keyword", "by")
            parenthesized = bool(self.accept("op", "("))
            partition_by = self.expect("ident").value
            if parenthesized:
                self.expect("op", ")")
            if partition_by not in [c for c, _ in columns]:
                raise SQLSyntaxError(
                    "PARTITION BY names unknown column {0!r}".format(
                        partition_by))
        self.accept("op", ";")
        self.expect(END)
        return CreateTable(name, columns, partition_by)

    def create_view(self):
        """``CREATE MATERIALIZED VIEW name AS SELECT ...``."""
        self.expect("keyword", "create")
        self.expect("keyword", "materialized")
        self.expect("keyword", "view")
        name = self.expect("ident").value
        self.expect("keyword", "as")
        select = self.select()  # consumes the trailing ';' and END
        return CreateMaterializedView(name, select)

    def drop_view(self):
        """``DROP MATERIALIZED VIEW name``."""
        self.expect("keyword", "drop")
        self.expect("keyword", "materialized")
        self.expect("keyword", "view")
        name = self.expect("ident").value
        self.accept("op", ";")
        self.expect(END)
        return DropMaterializedView(name)

    def insert(self):
        table, columns = self.insert_head()
        rows = self._comma_list(self._value_row)
        self.accept("op", ";")
        self.expect(END)
        return Insert(table, rows, columns)

    def insert_head(self):
        """``INSERT INTO t [(columns)] VALUES``: ``(table, columns)``."""
        self.expect("keyword", "insert")
        self.expect("keyword", "into")
        table = self.expect("ident").value
        columns = None
        if self.accept("op", "("):
            columns = self._comma_list(lambda: self.expect("ident").value)
            self.expect("op", ")")
        self.expect("keyword", "values")
        return table, columns

    def _value_row(self):
        self.expect("op", "(")
        values = self._comma_list(self._literal_value)
        self.expect("op", ")")
        return tuple(values)

    def _literal_value(self):
        """A literal value (INSERT VALUES, SET); a slotted parse marks
        its slot structural, as the value shapes the statement."""
        token = self.advance()
        if token.kind == "number" or token.kind == "string":
            if self.slots:
                self.structural.add(self.slots[token.position])
            return token.value
        if token.matches("keyword", "true"):
            return True
        if token.matches("keyword", "false"):
            return False
        if token.matches("keyword", "null"):
            return None
        if token.matches("op", "-"):
            return -self._literal_value()
        raise SQLSyntaxError("expected literal, found {0!r}".format(
            token.value))

    def delete(self):
        self.expect("keyword", "delete")
        self.expect("keyword", "from")
        table = self.expect("ident").value
        where = None
        if self.accept("keyword", "where"):
            where = self.expression()
        self.accept("op", ";")
        self.expect(END)
        return Delete(table, where)

    def update(self):
        self.expect("keyword", "update")
        table = self.expect("ident").value
        self.expect("keyword", "set")
        assignments = self._comma_list(self._assignment)
        where = None
        if self.accept("keyword", "where"):
            where = self.expression()
        self.accept("op", ";")
        self.expect(END)
        return Update(table, assignments, where)

    def _assignment(self):
        column = self.expect("ident").value
        self.expect("op", "=")
        return (column, self.expression())

    # -- SELECT -------------------------------------------------------------------

    def select(self, nested=False):
        self.expect("keyword", "select")
        distinct = bool(self.accept("keyword", "distinct"))
        items = self._comma_list(self._select_item)
        table = None
        joins = []
        if self.accept("keyword", "from"):
            table = self._table_ref()
            while True:
                if self.accept("keyword", "join"):
                    pass
                elif self.peek().matches("keyword", "inner") and \
                        self.peek(1).matches("keyword", "join"):
                    self.advance()
                    self.advance()
                else:
                    break
                joined = self._table_ref()
                self.expect("keyword", "on")
                condition = self.expression()
                joins.append(Join(joined, condition))
        where = None
        if self.accept("keyword", "where"):
            where = self.expression()
        group_by = []
        if self.accept("keyword", "group"):
            self.expect("keyword", "by")
            group_by = self._comma_list(self.expression)
        having = None
        if self.accept("keyword", "having"):
            having = self.expression()
        order_by = []
        if self.accept("keyword", "order"):
            self.expect("keyword", "by")
            order_by = self._comma_list(self._order_item)
        limit = None
        if self.accept("keyword", "limit"):
            token = self.expect("number")
            if token.position in self.slots:
                self.structural.add(self.slots[token.position])
            limit = token.value
        self.accept("op", ";")
        if not nested:
            self.expect(END)
        return Select(items, table, joins, where, group_by, having,
                      order_by, limit, distinct)

    def _select_item(self):
        if self.accept("op", "*"):
            return SelectItem(Star())
        # table.* form
        if self.peek().kind == "ident" and self.peek(1).matches("op", ".") \
                and self.peek(2).matches("op", "*"):
            table = self.advance().value
            self.advance()
            self.advance()
            return SelectItem(Star(table))
        expr = self.expression()
        alias = None
        if self.accept("keyword", "as"):
            alias = self.expect("ident").value
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return SelectItem(expr, alias)

    def _table_ref(self):
        name = self.expect("ident").value
        alias = None
        if self.accept("keyword", "as"):
            alias = self.expect("ident").value
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return TableRef(name, alias)

    def _order_item(self):
        expr = self.expression()
        ascending = True
        if self.accept("keyword", "desc"):
            ascending = False
        else:
            self.accept("keyword", "asc")
        return OrderItem(expr, ascending)

    # -- expressions ---------------------------------------------------------------

    def expression(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self.accept("keyword", "or"):
            left = BinOp("or", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self.accept("keyword", "and"):
            left = BinOp("and", left, self._not_expr())
        return left

    def _not_expr(self):
        if self.accept("keyword", "not"):
            return UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        token = self.peek()
        if token.kind == "op" and token.value in ("=", "<>", "!=", "<", "<=",
                                                  ">", ">="):
            op = self.advance().value
            if op == "!=":
                op = "<>"
            return BinOp(op, left, self._additive())
        if token.matches("keyword", "is"):
            self.advance()
            negated = bool(self.accept("keyword", "not"))
            self.expect("keyword", "null")
            node = IsNull(left)
            return UnaryOp("not", node) if negated else node
        if token.matches("keyword", "between"):
            self.advance()
            lo = self._additive()
            self.expect("keyword", "and")
            hi = self._additive()
            return BinOp("and", BinOp(">=", left, lo), BinOp("<=", left, hi))
        if token.matches("keyword", "in"):
            return self._comparison_in_tail(left)
        if token.matches("keyword", "not") and \
                self.peek(1).matches("keyword", "in"):
            self.advance()
            return UnaryOp("not", self._comparison_in_tail(left))
        return left

    def _comparison_in_tail(self, left):
        self.expect("keyword", "in")
        self.expect("op", "(")
        values = self._comma_list(self.expression)
        self.expect("op", ")")
        disjunction = BinOp("=", left, values[0])
        for value in values[1:]:
            disjunction = BinOp("or", disjunction, BinOp("=", left, value))
        return disjunction

    def _additive(self):
        left = self._multiplicative()
        while True:
            if self.accept("op", "+"):
                left = BinOp("+", left, self._multiplicative())
            elif self.accept("op", "-"):
                left = BinOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            if self.accept("op", "*"):
                left = BinOp("*", left, self._unary())
            elif self.accept("op", "/"):
                left = BinOp("/", left, self._unary())
            elif self.accept("op", "%"):
                left = BinOp("%", left, self._unary())
            else:
                return left

    def _unary(self):
        if self.accept("op", "-"):
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self):
        token = self.peek()
        if token.kind in LITERALS:
            self.advance()
            return Literal(token.value, self.slots.get(token.position))
        if token.matches("keyword", "true"):
            self.advance()
            return Literal(True)
        if token.matches("keyword", "false"):
            self.advance()
            return Literal(False)
        if token.matches("keyword", "null"):
            self.advance()
            return Literal(None)
        if token.matches("op", "("):
            self.advance()
            expr = self.expression()
            self.expect("op", ")")
            return expr
        if token.kind == "ident":
            name = self.advance().value
            if self.accept("op", "("):
                return self._function_call(name)
            if self.accept("op", "."):
                column = self.expect("ident").value
                return Column(column, table=name)
            return Column(name)
        raise SQLSyntaxError("unexpected token {0!r} at position {1}".format(
            token.value, token.position))

    def _function_call(self, name):
        distinct = bool(self.accept("keyword", "distinct"))
        if self.accept("op", ")"):
            return FuncCall(name, (), distinct)
        if self.accept("op", "*"):
            args = (Star(),)
        else:
            args = tuple(self._comma_list(self.expression))
        self.expect("op", ")")
        return FuncCall(name, args, distinct)


def parse_sql(text, cache=None):
    """Parse one SQL statement into its AST node.

    An ``INSERT ... VALUES`` text, at any length, is lifted
    (:func:`~repro.sql.lexer.lift`) in one pass.  Its head ``INSERT INTO
    t [(columns)] VALUES`` is tokenized and parsed alone (once per shape
    up to ``MAX_CACHED_TEXT``); when the tail is rows of literal items
    its rows are grouped straight from the lifted values, with no token
    or AST node per value.  Any other INSERT text is tokenized, and
    parsed or rejected, as a whole.

    With a :class:`~repro.sql.statement_cache.StatementCache` other
    texts up to ``MAX_CACHED_TEXT`` are lifted too: the literal-free
    shape is tokenized and parsed the first time it is seen (the lifted
    values checked against the tokens then), and every execution binds
    its own literal vector into that parse.  SELECT, DELETE and UPDATE
    come back with ``params`` set — the key their cached plans live
    under.  A text holding a shape's literal marks never passes for
    that shape: it is tokenized, and rejected, like any other.

    A PROFILE statement keeps ``text`` for its query span.
    """
    marked = NUMBER_MARK in text or STRING_MARK in text
    head = None if marked else _INSERT_HEAD.match(text)
    if head is not None:
        statement = _parse_insert(cache, text, head.group())
    elif marked or cache is None or len(text) > MAX_CACHED_TEXT:
        statement = _Parser(tokenize(text)).parse_statement()
    else:
        statement = _parse_shape(cache, text)
    if isinstance(statement, Profile):
        statement = Profile(statement.statement, text)
    return statement


def _parse_insert(cache, text, head):
    """An INSERT whose rows come straight from the lifted values, its
    head parsed once per short shape; a text whose tail is not rows of
    literals is tokenized, and parsed or rejected, whole."""
    shape, values = lift(text)
    cached = cache is not None and len(text) <= MAX_CACHED_TEXT
    target = cache.templates.get(shape) if cached else None
    rows = lifted_rows(shape[len(head):], values) \
        if shape.startswith(head) else None
    if rows is not None and target is None:
        try:
            target = _Parser(tokenize(head)).insert_head()
        except SQLSyntaxError:
            rows = None
        if cached and rows is not None:
            cache.templates.put(shape, target)
    if rows is None:
        return _Parser(tokenize(text)).parse_statement()
    return Insert(target[0], rows, target[1])


def _parse_shape(cache, text):
    shape, values = lift(text)
    structural = cache.shapes.get(shape)
    template = None
    if structural is not None:
        shaping = tuple(values[i] for i in structural)
        template = cache.templates.get((shape, shaping))
    if template is None:
        tokens = tokenize(text)
        if [(type(t.value), t.value) for t in tokens if t.kind in LITERALS] \
                != [(type(v), v) for v in values]:
            return _Parser(tokens).parse_statement()  # lift disagrees
        parser = _Parser(tokens, slotted=True)
        node = parser.parse_statement()
        structural = tuple(sorted(parser.structural))
        shaping = tuple(values[i] for i in structural)
        template = _binder(node)
        if template is None:
            template = lambda values, reps, node=node: node  # noqa: E731
        cache.shapes.put(shape, structural)
        cache.templates.put((shape, shaping), template)
    first = {}
    reps = tuple(first.setdefault((type(v), v), i)
                 for i, v in enumerate(values))
    statement = template(values, reps)
    if isinstance(statement, (Select, Delete, Update)):
        statement.params = Params(
            (shape, shaping, tuple(map(type, values)), reps), tuple(values))
    return statement


def _binder(node):
    """``(values, reps) -> node`` with every slotted Literal bound to
    ``values[slot]`` (tagged with ``reps[slot]``), or None when ``node``
    holds none.  Subtrees without one are shared, not copied."""
    if isinstance(node, Literal):
        slot = node.slot
        if slot is None:
            return None
        return lambda values, reps: Literal(values[slot], reps[slot])
    if isinstance(node, (list, tuple)):
        children, build = list(node), type(node)
    elif is_dataclass(node) and not isinstance(node, type):
        children = [getattr(node, f.name) for f in fields(node) if f.init]
        build = lambda items, cls=type(node): cls(*items)  # noqa: E731
    else:
        return None
    parts = [(_binder(child), child) for child in children]
    if all(part is None for part, _ in parts):
        return None
    return lambda values, reps: build([
        child if part is None else part(values, reps)
        for part, child in parts])
