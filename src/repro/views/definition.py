"""Classify a materialized view's defining query into a maintenance
strategy.

Four strategies, from cheapest to most general:

``linear``
    Single-table filter/project.  Linear in the Z-set algebra
    (L(A+B) = L(A)+L(B)), so a committed delta applies directly: each
    +1/-1 base row maps through WHERE and the projection to a +1/-1
    backing row.

``aggregate``
    Single-table GROUP BY (or scalar) whose items and group keys
    decompose into count/sum/min/max partials plus a merge tree
    (:func:`repro.sql.partials.split_select`, as the morsel engine and
    the shard coordinator split a query): ``sum(v) * 2 + count(*)`` or
    ``avg(v)`` (sum over count) included.  The view keeps one
    weight-aware partial state per group per partial; weights add and
    retract, min/max fall back to a per-group recompute when the
    current extremum retracts.

``join``
    A two-table equi/theta join of distinct tables, no aggregates.
    Bilinear: with deltas applied table-at-a-time (the commit path
    publishes per-table ops sequentially), each delta joins against
    the other table's current state — the dJ = dR|><|S + R|><|dS +
    dR|><|dS expansion collapses to the sequential two-step.

``eager``
    Everything else the engine can run (DISTINCT, HAVING, 3+ tables,
    self-joins, aggregated joins, and item lists with no split:
    DISTINCT aggregates, IS NULL over an aggregate): not
    incrementally decomposable here, so every delta to a base table
    triggers a full recompute of the defining query through the
    engine.  Correct, never cheap — the documented fallback.

``ORDER BY`` / ``LIMIT`` are rejected outright: a materialized view is
a multiset, an ordered prefix of one is not maintainable state.  Views
over views are rejected too (the delta of a derived table is not a
committed DML delta).
"""

from dataclasses import dataclass, field

from repro.sql.ast import Column, FuncCall, Select, Star, contains_aggregate
from repro.sql.partials import Undecomposable, split_select
from repro.sql.render import render_select
from repro.views.rows import ViewError, infer_atom


@dataclass
class OutputItem:
    """One output column of a view: its name and item expression."""

    name: str
    expr: object           # the (expanded) item expression


@dataclass
class ViewDefinition:
    name: str
    select: object
    kind: str              # 'linear' | 'aggregate' | 'join' | 'eager'
    base_tables: list      # referenced base-table names (deduped, ordered)
    columns: list          # [(output name, atom type name)] backing schema
    items: list = field(default_factory=list)   # [OutputItem]
    plan: object = None    # 'aggregate': the SplitPlan its state follows
    sql: str = ""

    def __post_init__(self):
        if not self.sql:
            self.sql = render_select(self.select)


def classify(tables, name, select, view_names=()):
    """Build the :class:`ViewDefinition` for ``name`` or raise
    :class:`ViewError`.

    ``tables`` maps table name -> :class:`~repro.sql.catalog.Table`
    (the base schema the view closes over); ``view_names`` are existing
    view names, rejected as base tables.
    """
    if not isinstance(select, Select):
        raise ViewError("a materialized view needs a SELECT definition")
    if select.table is None:
        raise ViewError("a materialized view needs a FROM clause")
    if select.order_by or select.limit is not None:
        raise ViewError(
            "materialized views are unordered multisets — ORDER BY and "
            "LIMIT are not allowed in view definitions")
    refs = [select.table] + [join.table for join in select.joins]
    for ref in refs:
        if ref.name in view_names:
            raise ViewError(
                "views over views are not supported ({0!r} is a "
                "materialized view)".format(ref.name))
        if ref.name not in tables:
            raise ViewError("unknown base table {0!r}".format(ref.name))
    base_tables = list(dict.fromkeys(ref.name for ref in refs))
    bindings = {ref.binding: tables[ref.name] for ref in refs}
    kind = _classify_kind(select, refs)
    plan = None
    if kind == "aggregate":
        try:
            _, plan = split_select(select, [
                (ref.binding, tables[ref.name].column_names)
                for ref in refs])
        except Undecomposable:
            kind = "eager"
    items = _expand_items(select, refs, bindings)
    columns = _output_columns(items, bindings)
    for expr in [select.where, select.having, *select.group_by,
                 *(join.condition for join in select.joins)]:
        if expr is not None:
            infer_atom(expr, bindings)   # type errors, before any run
    return ViewDefinition(name=name, select=select, kind=kind,
                          base_tables=base_tables, columns=columns,
                          items=items, plan=plan)


def _classify_kind(select, refs):
    aggregated = select.group_by or \
        any(contains_aggregate(item.expr) for item in select.items)
    if len(refs) > 2:
        return "eager"
    if len(refs) == 2:
        if aggregated or select.distinct or select.having is not None:
            return "eager"
        if refs[0].name == refs[1].name:
            return "eager"  # self-join: dR|><|dR needs the pre-state
        return "join"
    if select.distinct or select.having is not None:
        return "eager"
    return "aggregate" if aggregated else "linear"


def _expand_items(select, refs, bindings):
    """Expand ``*`` / ``t.*`` into per-column items."""
    items = []
    for item in select.items:
        expr = item.expr
        if isinstance(expr, Star):
            sides = refs if expr.table is None else \
                [ref for ref in refs if ref.binding == expr.table]
            if not sides:
                raise ViewError("unknown table {0!r} in {1}.*".format(
                    expr.table, expr.table))
            for ref in sides:
                table = bindings[ref.binding]
                qualifier = ref.binding if len(refs) > 1 else None
                for column in table.column_names:
                    items.append(OutputItem(
                        name=column,
                        expr=Column(column, table=qualifier)))
            continue
        items.append(OutputItem(name=_item_name(item), expr=expr))
    return items


def _item_name(item):
    if item.alias:
        return item.alias
    if isinstance(item.expr, Column):
        return item.expr.name
    if isinstance(item.expr, FuncCall):
        return item.expr.name
    return None


def _output_columns(items, bindings):
    """The backing table's (name, type) schema; anonymous items get
    positional names, duplicates a numeric suffix."""
    seen = {}
    columns = []
    for index, item in enumerate(items):
        name = item.name or "c{0}".format(index + 1)
        if name in seen:
            seen[name] += 1
            name = "{0}_{1}".format(name, seen[name])
        seen.setdefault(name, 1)
        item.name = name
        atom = infer_atom(item.expr, bindings)
        columns.append((name, atom.name))
    return columns
