"""Logical-row plumbing for view maintenance.

The engine stores missing values as in-domain nil sentinels
(:mod:`repro.core.atoms`); view maintenance computes in *logical*
value space instead — None for missing — so accumulators and Z-set
weights merge by SQL value rather than by sentinel bit pattern.  This
module holds the sentinel<->None decoding, the expression compiler
that turns a view's expressions into closures over logical row tuples
(None-propagating, mirroring the SQL convention that a NULL comparison
does not match), and the type inference that derives a view's
backing-table schema from its defining query.

Expressions compile once, when the view is created: every column
reference resolves to a tuple position then, so a view naming an
unknown or ambiguous column is rejected before anything is logged, and
maintenance evaluates no name lookups at all.
"""

import math
from functools import reduce
from operator import itemgetter

from repro.core.atoms import BIT, DBL, LNG, STR
from repro.core.scalar import SCALAR_OPS
from repro.sql.ast import (
    BinOp, Column, FuncCall, IsNull, Literal, Star, UnaryOp,
)


class ViewError(ValueError):
    """A view definition the maintenance engine cannot accept."""


# -- sentinel <-> None decoding ----------------------------------------------

def decode_value(atom, value):
    """One stored cell decoded to logical space (nil sentinel -> None).

    Var-sized (string) cells already decode to None; booleans have no
    nil (BIT's sentinel is plain False).
    """
    if value is None or atom.varsized or atom is BIT:
        return value
    if isinstance(value, float):
        return None if math.isnan(value) else value
    return None if value == atom.nil else value


def decode_row(table, row):
    """One :meth:`Table.row` tuple decoded to logical space."""
    return tuple(decode_value(table.atoms[name], value)
                 for name, value in zip(table.column_names, row))


def logical_rows(table):
    """Every visible row of ``table``, decoded to logical space.

    Decodes column-at-a-time off the raw BAT tails (delta maintenance
    rescans bases on extremum retraction and join lookup, so this is
    the maintainer's hot full-scan path).
    """
    oids = table.tid().tail
    if not len(oids):
        return []
    columns = []
    for name in table.column_names:
        bat = table.bind(name)
        atom = table.atoms[name]
        raw = bat.tail[oids]
        if atom.varsized:
            heap = bat.heap
            columns.append([heap.get(v) for v in raw.tolist()])
        elif atom is BIT:
            columns.append([bool(v) for v in raw.tolist()])
        else:
            values = raw.tolist()
            if values and isinstance(values[0], float):
                columns.append([None if math.isnan(v) else v
                                for v in values])
            else:
                nil = atom.nil
                columns.append([None if v == nil else v
                                for v in values])
    return list(zip(*columns))


# -- the logical-row expression compiler -------------------------------------

_AMBIGUOUS = -1


def row_slots(sides):
    """Column name -> position in a row concatenating ``sides``.

    ``sides`` lists ``(binding, column names)`` in row order.  A
    qualified name (``binding.col``) always resolves; an unqualified
    one only when a single side has it, the SQL compiler's rule
    (``_Context.resolve``), so a name two sides share is ambiguous.
    """
    slots = {}
    names = [(binding, name) for binding, columns in sides
             for name in columns]
    for position, (binding, name) in enumerate(names):
        slots["{0}.{1}".format(binding, name)] = position
        slots[name] = _AMBIGUOUS if name in slots else position
    return slots


def column_slot(column, slots):
    """The row position ``column`` reads, or :class:`ViewError`."""
    slot = slots.get(str(column))
    if slot is None:
        raise ViewError("unknown column {0!r}".format(str(column)))
    if slot == _AMBIGUOUS:
        raise ViewError("ambiguous column {0!r}".format(column.name))
    return slot


def slots_read(expr, slots):
    """Every row position ``expr`` reads, resolved as
    :func:`compile_expr` resolves them."""
    if isinstance(expr, Column):
        return {column_slot(expr, slots)}
    if isinstance(expr, BinOp):
        return slots_read(expr.left, slots) | slots_read(expr.right, slots)
    if isinstance(expr, (UnaryOp, IsNull)):
        return slots_read(expr.operand, slots)
    return set()


def compile_expr(expr, slots):
    """``expr`` as a function of one logical row tuple.

    Operators come from the shared scalar table
    (:mod:`repro.core.scalar`): None propagates through arithmetic and
    comparisons (so a NULL predicate filters its row out — the SQL
    convention, which the reference executor shares; the engine's
    in-domain sentinels compare as ordinary values instead, a
    documented divergence that only NULL-bearing predicates can
    observe), and a zero divisor gives what the column kernels give.
    Python truth of a predicate's value is its SQL truth: None never
    matches.  Raises :class:`ViewError` for an unknown or ambiguous
    column and for an expression views do not evaluate.
    """
    if isinstance(expr, Column):
        return itemgetter(column_slot(expr, slots))
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, BinOp):
        op = SCALAR_OPS[expr.op]
        left = compile_expr(expr.left, slots)
        right = compile_expr(expr.right, slots)
        return lambda row: op(left(row), right(row))
    if isinstance(expr, UnaryOp):
        op = SCALAR_OPS["not" if expr.op == "not" else "neg"]
        operand = compile_expr(expr.operand, slots)
        return lambda row: op(operand(row))
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, slots)
        return lambda row: operand(row) is None
    raise ViewError("unsupported view expression {0!r}".format(expr))


def compile_predicate(conjuncts, slots):
    """The AND of ``conjuncts`` as a function of one row (always true
    when there are none)."""
    if not conjuncts:
        return lambda row: True
    return compile_expr(
        reduce(lambda left, right: BinOp("and", left, right), conjuncts),
        slots)


def compile_row(exprs, slots):
    """A function of one row giving the tuple of ``exprs``' values."""
    functions = [compile_expr(expr, slots) for expr in exprs]
    return lambda row: tuple([function(row) for function in functions])


# -- output-type inference ----------------------------------------------------

def infer_atom(expr, tables):
    """The storage atom of one output expression.

    ``tables`` maps binding name -> Table (aliases included).  Follows
    the engine's coercions: ``/`` and any floating operand widen to
    double, comparisons/logic are booleans, ``count`` is a bigint,
    ``sum``/``min``/``max`` keep their operand's type, ``avg`` is a
    double.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, bool):
            return BIT
        if isinstance(value, float):
            return DBL
        if isinstance(value, str):
            return STR
        return LNG
    if isinstance(expr, Column):
        return _column_atom(expr, tables)
    if isinstance(expr, BinOp):
        if expr.op in ("and", "or", "=", "<>", "<", "<=", ">", ">="):
            return BIT
        left = infer_atom(expr.left, tables)
        right = infer_atom(expr.right, tables)
        if expr.op == "/" or DBL in (left, right):
            return DBL
        return LNG
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return BIT
        return infer_atom(expr.operand, tables)
    if isinstance(expr, IsNull):
        return BIT
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        if expr.name == "count":
            return LNG
        if expr.name == "avg":
            return DBL
        if len(expr.args) != 1 or isinstance(expr.args[0], Star):
            raise ViewError("{0} needs one column argument".format(
                expr.name))
        return infer_atom(expr.args[0], tables)
    raise ViewError("cannot infer the type of {0!r}".format(expr))


def _column_atom(column, tables):
    if column.table is not None:
        table = tables.get(column.table)
        if table is None:
            raise ViewError("unknown table {0!r}".format(column.table))
        return table.atom(column.name)
    matches = [t for t in tables.values()
               if column.name in t.atoms]
    if not matches:
        raise ViewError("unknown column {0!r}".format(column.name))
    return matches[0].atoms[column.name]
