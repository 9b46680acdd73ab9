"""SQL abstract syntax tree nodes."""

from dataclasses import dataclass, field


# -- expressions --------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A constant.  ``slot`` is set on statements parsed through a
    statement cache: the literal-vector index whose value this literal
    rebinds from (the first literal of the statement with the same type
    and value).  It is not part of equality or ``repr``."""

    value: object
    slot: int = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Column:
    name: str
    table: str = None  # alias or table name, when qualified

    def __str__(self):
        return "{0}.{1}".format(self.table, self.name) if self.table \
            else self.name


@dataclass(frozen=True)
class Star:
    """``*`` in a select list or in COUNT(*)."""

    table: str = None


@dataclass(frozen=True)
class BinOp:
    op: str  # '+','-','*','/','%','=','<>','<','<=','>','>=','and','or'
    left: object
    right: object


@dataclass(frozen=True)
class UnaryOp:
    op: str  # 'not', '-'
    operand: object


@dataclass(frozen=True)
class IsNull:
    """``expr IS NULL`` — true where the value is missing.

    The engine stores missing values as in-domain nil sentinels
    (:mod:`repro.core.atoms`); boolean expressions never produce nil
    (three-valued logic is not modelled: comparisons always decide),
    so ``(a < 5) IS NULL`` is all-false by construction.  ``IS NOT
    NULL`` parses as ``UnaryOp('not', IsNull(...))``.
    """

    operand: object


@dataclass(frozen=True)
class FuncCall:
    """Function call; aggregates are count/sum/min/max/avg."""

    name: str
    args: tuple
    distinct: bool = False

    AGGREGATES = frozenset(["count", "sum", "min", "max", "avg"])

    @property
    def is_aggregate(self):
        return self.name in self.AGGREGATES


def contains_aggregate(expr):
    """True when the expression tree contains an aggregate call."""
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, IsNull):
        return contains_aggregate(expr.operand)
    return False


def split_conjuncts(expr):
    """The top-level AND conjuncts of a predicate."""
    if isinstance(expr, BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def default_name(expr):
    """The output name of an unaliased select item."""
    if isinstance(expr, Column):
        return expr.name
    if isinstance(expr, FuncCall):
        if len(expr.args) == 1 and isinstance(expr.args[0], Column):
            return "{0}_{1}".format(expr.name, expr.args[0].name)
        return expr.name
    return "expr"


def expand_items(items, bindings):
    """A select list as ``[(output name, expression)]``, ``*`` expanded.

    ``bindings`` is the FROM clause as ``[(alias, column names)]``.
    Raises :class:`LookupError` for a ``t.*`` naming no binding and for
    ``*`` without a FROM table.
    """
    out = []
    for item in items:
        if not isinstance(item.expr, Star):
            out.append((item.alias or default_name(item.expr), item.expr))
            continue
        table = item.expr.table
        chosen = [(alias, columns) for alias, columns in bindings
                  if table in (None, alias)]
        if not chosen:
            raise LookupError("unknown table {0!r}".format(table)
                              if table is not None
                              else "* without a FROM table")
        for alias, columns in chosen:
            out.extend((column, Column(column, alias)) for column in columns)
    return out


# -- statements -----------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """How a statement parsed through a statement cache was bound.

    ``values`` is its literal vector (numbers and strings, in text
    order).  ``key`` is what its plans are cached under: the
    literal-free shape, the values of the literals the parser consumed
    structurally (LIMIT, SET), every literal's type, and which literals
    are equal — so two statements with one key compile to the same plan
    up to the literal values.
    """

    key: tuple
    values: tuple


@dataclass
class CreateTable:
    name: str
    columns: list            # [(column name, type name)]
    partition_by: str = None  # hash-partition key column (sharding DDL)


@dataclass
class Insert:
    table: str
    rows: list            # list of tuples of Literal values
    columns: list = None  # optional explicit column order


@dataclass
class Delete:
    table: str
    where: object = None
    params: Params = field(default=None, init=False, compare=False,
                          repr=False)


@dataclass
class Update:
    table: str
    assignments: list  # [(column name, expression)]
    where: object = None
    params: Params = field(default=None, init=False, compare=False,
                          repr=False)


@dataclass
class CreateMaterializedView:
    """``CREATE MATERIALIZED VIEW name AS SELECT ...``.

    The view's contents materialize into a backing table named after
    the view and are maintained incrementally from committed DML deltas
    (:mod:`repro.views`).  ``select_sql`` optionally carries the
    defining query's SQL text; when absent, the WAL record renders it
    from the AST (:func:`repro.sql.render.render_select`).
    """

    name: str
    select: object        # the defining Select AST
    select_sql: str = None


@dataclass
class DropMaterializedView:
    """``DROP MATERIALIZED VIEW name`` — unregister the view and drop
    its backing table."""

    name: str


@dataclass
class SetPragma:
    """``SET <name> = <value>`` session pragma (e.g. ``SET workers = 4``)."""

    name: str
    value: object


@dataclass
class BeginTransaction:
    """``BEGIN [TRANSACTION|WORK]`` — leave autocommit, start a
    snapshot-isolation transaction (handled by the session layer)."""


@dataclass
class CommitTransaction:
    """``COMMIT [TRANSACTION|WORK]`` — commit the open transaction."""


@dataclass
class RollbackTransaction:
    """``ROLLBACK [TRANSACTION|WORK]`` / ``ABORT`` — abort it."""


@dataclass
class Explain:
    """``EXPLAIN <statement>`` — show the optimized MAL plan."""

    statement: object


@dataclass
class Profile:
    """``PROFILE <statement>`` — run it traced, show the span tree.
    ``sql`` is the text it was parsed from, for the query span."""

    statement: object
    sql: str = field(default=None, compare=False)


def statement_kind(node):
    """Human-readable kind of a statement AST node ("SELECT", "INSERT
    INTO", ...), for error messages about unsupported statements."""
    kinds = {
        "Select": "SELECT",
        "Insert": "INSERT",
        "Delete": "DELETE",
        "Update": "UPDATE",
        "CreateTable": "CREATE TABLE",
        "CreateMaterializedView": "CREATE MATERIALIZED VIEW",
        "DropMaterializedView": "DROP MATERIALIZED VIEW",
        "SetPragma": "SET",
        "Explain": "EXPLAIN",
        "Profile": "PROFILE",
        "BeginTransaction": "BEGIN",
        "CommitTransaction": "COMMIT",
        "RollbackTransaction": "ROLLBACK",
    }
    return kinds.get(type(node).__name__, type(node).__name__)


@dataclass
class TableRef:
    name: str
    alias: str = None

    @property
    def binding(self):
        return self.alias or self.name


@dataclass
class Join:
    table: TableRef
    condition: object  # ON expression


@dataclass
class SelectItem:
    expr: object
    alias: str = None


@dataclass
class OrderItem:
    expr: object
    ascending: bool = True


@dataclass
class Select:
    items: list
    table: TableRef = None
    joins: list = field(default_factory=list)
    where: object = None
    group_by: list = field(default_factory=list)
    having: object = None
    order_by: list = field(default_factory=list)
    limit: int = None
    distinct: bool = False
    #: Set by a statement cache on a top-level statement; a copy made
    #: with ``dataclasses.replace`` is a new statement and has none.
    params: Params = field(default=None, init=False, compare=False,
                          repr=False)
