"""The split-query finish: one decomposition, one merge.

Two engines answer a SELECT in parts and merge the parts' outputs on
one node: the morsel engine (:mod:`repro.parallel`), whose workers each
run the part SELECT over one row range of the first FROM table, and the
shard coordinator (:mod:`repro.sharding`), whose legs each run it on
one shard.  Both split through :func:`split_select` and finish through
this module, so a query splits and merges the same way whichever engine
runs it:

* a plain projection's part ships the select items plus hidden ORDER
  BY key columns (:func:`split_rows`), and :func:`merge_rows`
  concatenates the parts, applies DISTINCT / ORDER BY / LIMIT and
  strips the hidden keys;
* an aggregate's part ships group keys ++ partials
  (:func:`split_aggregates`: COUNT/SUM/MIN/MAX ship as themselves, AVG
  as SUM + COUNT), and :func:`merge_aggregates` recombines them group
  by group, then applies HAVING / ORDER BY / DISTINCT / LIMIT.

Materialized views (:mod:`repro.views`) are the third user: an
aggregate view keeps a :class:`PartialState` per partial per group and
folds each committed delta — one more part, weighted ±1 — into it with
the finish's own per-kind table; sharded reads merge its part rows.

Merge trees reuse the SQL AST's operator nodes (BinOp/UnaryOp/Literal)
with three extra leaves (:class:`GroupCol`, :class:`Partial`,
:class:`AvgOf`).  Values are decoded Python values with None for nil;
aggregates of nothing are None (COUNT: 0), arithmetic runs through the
shared scalar operator table (:mod:`repro.core.scalar`), sorts put nil
first ascending and last descending, HAVING treats None as false.
Floating-point recombination is exact for dyadic-rational data;
arbitrary doubles may see the usual re-association jitter.
"""

from dataclasses import dataclass, field, replace

from repro.core.algebra import order_rows
from repro.core.scalar import SCALAR_OPS
from repro.sql.ast import (
    BinOp, Column, FuncCall, Literal, Params, SelectItem, UnaryOp,
    contains_aggregate, expand_items,
)


class MergeError(Exception):
    """A merge recipe met a value shape it cannot combine."""


class Undecomposable(Exception):
    """A SELECT shape with no split into parts plus a merge."""


# -- merge-tree leaves ----------------------------------------------------------

@dataclass(frozen=True)
class GroupCol:
    """A group-key column of the part rows (position ``index``)."""

    index: int


@dataclass(frozen=True)
class Partial:
    """A combined partial-aggregate value (position ``index``)."""

    index: int


@dataclass(frozen=True)
class AvgOf:
    """AVG recombined from a SUM partial and a COUNT partial."""

    sum_index: int
    count_index: int


@dataclass
class SplitPlan:
    """How the part rows of one split SELECT merge.

    A projection's part rows are the ``n_items`` select items followed
    by hidden order-key columns; an aggregate's are ``n_group`` group
    keys followed by one value per entry of ``partials``.  ``names``
    are the merged result's column names.
    """

    aggregate: bool = False
    names: list = field(default_factory=list)
    n_items: int = 0
    order_columns: list = field(default_factory=list)  # [(position, asc)]
    n_group: int = 0
    partials: list = field(default_factory=list)   # [(kind, aggregate call)]
    item_exprs: list = field(default_factory=list)  # merge trees
    having_expr: object = None
    order_exprs: list = field(default_factory=list)  # [(tree, asc)]
    distinct: bool = False
    limit: int = None

    @property
    def partial_kinds(self):
        return [kind for kind, _ in self.partials]


# -- planning -------------------------------------------------------------------

def output_position(expr, items):
    """The select-list output an ORDER BY expression reuses, or None.

    ``items`` is the expanded select list ``[(name, expr)]``.  An
    unqualified column naming an output (an alias, or a column's own
    name) reuses it; otherwise an item with an identical expression
    does.  Every engine orders by this one rule.
    """
    if isinstance(expr, Column) and expr.table is None:
        for position, (name, _) in enumerate(items):
            if name == expr.name:
                return position
    key = repr(expr)
    for position, (_, item_expr) in enumerate(items):
        if repr(item_expr) == key:
            return position
    return None


def split_rows(select, items):
    """Plan a plain projection over its expanded ``items``.

    Returns ``(plan, hidden)``: each part row carries the items plus
    one hidden column per expression in ``hidden`` — the ORDER BY keys
    no output already holds.
    """
    hidden = []
    order_columns = []
    for order in select.order_by:
        position = output_position(order.expr, items)
        if position is None:
            if select.distinct:
                # A hidden key would change what DISTINCT deduplicates;
                # the single-node compiler rejects this shape too.
                raise Undecomposable(
                    "DISTINCT ordered by an expression outside the "
                    "select list")
            position = len(items) + len(hidden)
            hidden.append(order.expr)
        order_columns.append((position, order.ascending))
    plan = SplitPlan(names=[name for name, _ in items], n_items=len(items),
                     order_columns=order_columns, distinct=select.distinct,
                     limit=select.limit)
    return plan, hidden


class _Decomposer:
    """Splits aggregate expressions into partials plus a merge tree."""

    KINDS = ("count", "sum", "min", "max")

    def __init__(self, group_by):
        self.group_keys = {repr(g): i for i, g in enumerate(group_by)}
        self.partials = []       # [(kind, aggregate call)]
        self._index = {}         # (kind, repr(call)) -> partial position

    def _partial(self, kind, call):
        key = (kind, repr(call))
        if key not in self._index:
            self._index[key] = len(self.partials)
            self.partials.append((kind, call))
        return self._index[key]

    def decompose(self, expr):
        key = repr(expr)
        if key in self.group_keys:
            return GroupCol(self.group_keys[key])
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, FuncCall) and expr.is_aggregate:
            if expr.distinct:
                raise Undecomposable("DISTINCT aggregate")
            if expr.name == "avg":
                return AvgOf(
                    self._partial("sum", FuncCall("sum", expr.args)),
                    self._partial("count", FuncCall("count", expr.args)))
            if expr.name not in self.KINDS:
                raise Undecomposable(expr.name)
            return Partial(self._partial(expr.name, expr))
        if isinstance(expr, BinOp):
            return BinOp(expr.op, self.decompose(expr.left),
                         self.decompose(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self.decompose(expr.operand))
        # IS NULL included: the single-node compiler accepts none over
        # aggregates, so the split must not answer one either.
        raise Undecomposable(expr)


def split_aggregates(select, items):
    """Plan an aggregate SELECT over its expanded ``items``: the
    partials every part computes per group, and the merge trees the
    finish evaluates over them.  Raises :class:`Undecomposable`."""
    decomposer = _Decomposer(select.group_by)
    item_exprs = [decomposer.decompose(expr) for _, expr in items]
    having = None if select.having is None \
        else decomposer.decompose(select.having)
    order_exprs = []
    for order in select.order_by:
        position = output_position(order.expr, items)
        tree = item_exprs[position] if position is not None \
            else decomposer.decompose(order.expr)
        order_exprs.append((tree, order.ascending))
    return SplitPlan(
        aggregate=True, names=[name for name, _ in items],
        n_items=len(items), n_group=len(select.group_by),
        partials=decomposer.partials, item_exprs=item_exprs,
        having_expr=having, order_exprs=order_exprs,
        distinct=select.distinct, limit=select.limit)


def split_select(select, bindings):
    """The part SELECT every part runs, and the :class:`SplitPlan` its
    part rows merge by.

    ``bindings`` is the FROM clause as ``[(alias, column names)]``.  A
    plain projection's part keeps the original's DISTINCT, and its
    ORDER BY only together with a LIMIT (a top-k per part; a bare LIMIT
    pushes down alone, a bare ORDER BY would be wasted part work).  An
    aggregate's part groups like the original and selects group keys
    ``__g<i>`` and partials ``__p<i>``.  Raises :class:`Undecomposable`.

    A cached statement's part keeps its literal slots under a key of
    its own, ``("part", key)``: a part may meet its statement on one
    engine, and the two must never share a plan.
    """
    params = select.params
    try:
        items = expand_items(select.items, bindings)
    except LookupError as exc:
        raise Undecomposable(exc.args[0]) from None
    if select.group_by or \
            any(contains_aggregate(expr) for _, expr in items):
        if not select.group_by:
            # One output row, which the single-node engine returns
            # whatever HAVING, ORDER BY, DISTINCT or LIMIT say.
            select = replace(select, having=None, order_by=[],
                             distinct=False, limit=None)
        plan = split_aggregates(select, items)
        part_items = [SelectItem(g, "__g{0}".format(i))
                      for i, g in enumerate(select.group_by)]
        part_items += [SelectItem(call, "__p{0}".format(i))
                       for i, (_, call) in enumerate(plan.partials)]
        part = replace(select, items=part_items, having=None, order_by=[],
                       distinct=False, limit=None)
    else:
        plan, hidden = split_rows(select, items)
        part_items = list(select.items) + [SelectItem(expr, "__o{0}".format(i))
                                           for i, expr in enumerate(hidden)]
        part = replace(select, items=part_items, order_by=select.order_by
                       if select.limit is not None else [])
    if params is not None:
        part.params = Params(("part", params.key), params.values)
    return part, plan


# -- the finish -----------------------------------------------------------------

#: kind -> the total of one partial's present values: how the finish
#: merges parts, and how a :class:`PartialState` folds and merges.
_TOTAL = {"count": sum, "sum": sum, "min": min, "max": max}


def combine_partials(kind, values):
    """Fold one partial aggregate's per-part values into the total."""
    total = _TOTAL.get(kind)
    if total is None:
        raise MergeError("unknown partial kind {0!r}".format(kind))
    present = [v for v in values if v is not None]
    return total(present) if present or kind == "count" else None


class PartialState:
    """One partial aggregate of a weighted multiset of values: ``n``,
    the net weight of the non-nil values folded in, and ``value``, their
    sum or extremum (None before any; a count is ``n``).  A history
    folded in pieces whose states :meth:`merge` agrees with it folded
    whole (L(A+B) = L(A) + L(B)), but an extremum cannot subtract:
    retracting one that ties or beats it sets ``stale`` until
    :meth:`refold`."""

    __slots__ = ("kind", "n", "value", "stale")

    def __init__(self, kind):
        self.kind = kind
        self.refold(())

    def refold(self, values):
        """Rebuild from the multiset's present ``values`` themselves."""
        self.n = len(values)
        self.value = _TOTAL[self.kind](values) if values else None
        self.stale = False

    def merge(self, other):
        """Fold another piece of the history in."""
        self.n += other.n
        self.stale = self.stale or other.stale
        if self.value is None:
            self.value = other.value
        elif other.value is not None:
            self.value = _TOTAL[self.kind]((self.value, other.value))

    def final(self):
        """The partial's value, as a part row carries it."""
        if self.kind == "count":
            return self.n
        return self.value if self.n else None


def _fold_count(state, value, weight):
    state.n += weight


def _fold_sum(state, value, weight):
    state.n += weight
    value *= weight
    state.value = value if state.value is None else state.value + value


def _fold_extremum(state, value, weight):
    state.n += weight
    if state.value is None:
        if weight > 0:
            state.value = value
        else:
            state.stale = True
        return
    best = _TOTAL[state.kind]((state.value, value))
    if weight > 0:
        state.value = best
    elif best == value:
        state.stale = True   # the retracted value may be the extremum


#: kind -> ``fold(state, value, weight)``: ``weight`` copies of one
#: non-nil value (negative: retracted) into a :class:`PartialState`.
FOLD = {"count": _fold_count, "sum": _fold_sum, "min": _fold_extremum,
        "max": _fold_extremum}


def eval_merge(expr, group, combined):
    """Evaluate a merge tree for one merged group.

    ``group`` is the group-key tuple, ``combined`` the recombined
    partial values.
    """
    if isinstance(expr, Partial):
        return combined[expr.index]
    if isinstance(expr, GroupCol):
        return group[expr.index]
    if isinstance(expr, BinOp):
        return SCALAR_OPS[expr.op](eval_merge(expr.left, group, combined),
                                   eval_merge(expr.right, group, combined))
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, AvgOf):
        count = combined[expr.count_index]
        if not count:
            return None
        return combined[expr.sum_index] / count
    if isinstance(expr, UnaryOp):
        return SCALAR_OPS["not" if expr.op == "not" else "neg"](
            eval_merge(expr.operand, group, combined))
    raise MergeError("unsupported merge expression {0!r}".format(expr))


def _distinct(rows):
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def merge_rows(plan, part_rows):
    """Finish a split projection: concatenate the parts' rows, re-sort
    on the (possibly hidden) order-key columns, DISTINCT/LIMIT, strip
    hidden columns."""
    rows = [row for rows in part_rows for row in rows]
    if plan.distinct:
        rows = _distinct(rows)
    if plan.order_columns:
        rows = order_rows(rows,
                          lambda row, i: row[plan.order_columns[i][0]],
                          [asc for _, asc in plan.order_columns])
    if plan.limit is not None:
        rows = rows[:plan.limit]
    if any(pos >= plan.n_items for pos, _ in plan.order_columns):
        rows = [row[:plan.n_items] for row in rows]
    return rows


def merge_aggregates(plan, part_rows):
    """Finish a split aggregate: recombine partials group by group,
    then apply HAVING / ORDER BY / DISTINCT / LIMIT."""
    n_group = plan.n_group
    kinds = plan.partial_kinds
    groups = {}      # group key tuple -> its part rows, in arrival order
    for rows in part_rows:
        for row in rows:
            groups.setdefault(tuple(row[:n_group]), []).append(row)
    if not n_group and not groups:
        # A scalar aggregate over no part rows still yields one row.
        groups[()] = []
    out = []
    for key, rows in groups.items():     # first-arrival group order
        columns = list(zip(*rows))[n_group:] if rows else [()] * len(kinds)
        combined = [combine_partials(kind, values)
                    for kind, values in zip(kinds, columns)]
        if plan.having_expr is not None and \
                not eval_merge(plan.having_expr, key, combined):
            continue
        # NaN is the DOUBLE nil, which a result holds as None.
        row = tuple(None if value != value else value
                    for value in (eval_merge(e, key, combined)
                                  for e in plan.item_exprs))
        out.append((row, key, combined))
    rows = [row for row, _, _ in out]
    if plan.order_exprs:
        decorated = order_rows(out,
                               lambda entry, i: eval_merge(
                                   plan.order_exprs[i][0], entry[1],
                                   entry[2]),
                               [asc for _, asc in plan.order_exprs])
        rows = [row for row, _, _ in decorated]
    if plan.distinct:
        rows = _distinct(rows)
    if plan.limit is not None:
        rows = rows[:plan.limit]
    return rows
