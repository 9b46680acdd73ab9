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
  as SUM + COUNT), and :func:`merge_aggregates` re-aggregates them per
  group, then applies HAVING / ORDER BY / DISTINCT / LIMIT.

The finish is BAT algebra over whole columns, run once per statement.
A part is its output BATs (a scalar part value is a 1-row BAT); each
column of all parts packs into one BAT, and a merge returns the output
BATs, which the caller decodes once.  Keys group with
:func:`~repro.core.algebra.group_arrays` (refined key by key, so groups
come out in ascending key order, as on one node); partials
re-aggregate with the grouped kernels (count and sum as exact sums,
min/max as extrema); merge trees run through
:func:`~repro.core.algebra.calc`; HAVING is a mask, ORDER BY one
:func:`~repro.core.algebra.sort_multi`, DISTINCT the first occurrence
of each row and LIMIT a slice.  A morsel's parts share the catalog's
string heaps, so their offsets pack as they are; strings from another
heap (shard legs, view partials) are re-interned into a fresh one.

Materialized views (:mod:`repro.views`) are the third user: an
aggregate view keeps a :class:`PartialState` per partial per group and
folds each committed delta — one more part, weighted ±1 — into it with
the finish's own per-kind table; sharded reads merge its part columns.

Merge trees reuse the SQL AST's operator nodes (BinOp/UnaryOp/Literal)
with three extra leaves (:class:`GroupCol`, :class:`Partial`,
:class:`AvgOf`).  Nil follows the column kernels: arithmetic over nil
is nil, a comparison with nil is false (HAVING drops the group), an
aggregate of nothing is nil (COUNT: 0, so AVG is the nil SUM over it),
and sorts put nil first ascending and last descending.  A view
evaluates the same trees one group at a time over decoded values
(:func:`eval_merge`, through :mod:`repro.core.scalar`).
Floating-point recombination is exact for dyadic-rational data;
arbitrary doubles may see the usual re-association jitter.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import algebra
from repro.core.atoms import BIT, DBL, LNG, STR
from repro.core.bat import BAT
from repro.core.heap import StringHeap
from repro.core.scalar import SCALAR_OPS
from repro.sql.ast import (
    BinOp, Column, FuncCall, Literal, Params, SelectItem, UnaryOp,
    contains_aggregate, expand_items,
)


class MergeError(Exception):
    """A merge recipe met a value shape it cannot combine."""


class Undecomposable(Exception):
    """A SELECT shape with no split into parts plus a merge."""


#: SQL comparison operator -> its calc operator.
CMP_TO_CALC = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
               ">=": ">="}


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

#: kind -> the total of one partial's present values: how a
#: :class:`PartialState` folds and merges.
_TOTAL = {"count": sum, "sum": sum, "min": min, "max": max}


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
        """The partial's value, as a part column carries it."""
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
    """Evaluate a merge tree for one group of decoded values: a view's
    backing row.  ``group`` is the group-key tuple, ``combined`` the
    partial values.  The finish evaluates the same trees column-wise
    (:func:`_evaluate`)."""
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


def value_bat(values):
    """A column of decoded values (None for nil) as a BAT: a part
    column no engine kept as a BAT (a scalar result, a view's partial
    state).  Strings get a fresh heap, any float makes the column DBL,
    booleans BIT and the rest LNG; a column of nothing but nil is LNG,
    and its nils pack into a column of any type."""
    kinds = set(map(type, values)) - {type(None)}
    if any(issubclass(kind, str) for kind in kinds):
        return BAT.from_values(values, atom=STR)
    if kinds == {bool}:
        return BAT(BIT, [bool(v) for v in values])
    atom = DBL if any(issubclass(kind, float) for kind in kinds) else LNG
    return BAT(atom, [atom.nil if v is None else v for v in values])


def _pack(column):
    """One column of every part as one BAT.  Parts of one atom and heap
    concatenate as they are.  Otherwise strings re-intern into a fresh
    heap, numbers widen (any float: DBL), and a part holding only nils
    (a scalar part's untyped nil) takes the other parts' type."""
    first = column[0]
    tails = [bat.tail for bat in column
             if bat.atom is first.atom and bat.heap is first.heap]
    if len(tails) == len(column):
        return BAT(first.atom, np.concatenate(tails), heap=first.heap)
    if any(bat.atom.varsized for bat in column):
        heap = StringHeap()
        tails = [np.full(len(bat), heap.NIL_OFFSET) if bat.heap is None
                 else _reinterned(bat, heap) for bat in column]
        return BAT(STR, np.concatenate(tails), heap=heap)
    nils = [algebra.calc_isnil_arrays(bat.tail, bat.atom) for bat in column]
    typed = [bat.atom for bat, nil in zip(column, nils) if not nil.all()]
    atom = DBL if any(a.dtype.kind == "f" for a in typed) \
        else typed[0] if typed else first.atom
    tails = [bat.tail.astype(atom.dtype) for bat in column]
    for tail, nil in zip(tails, nils):
        tail[nil] = atom.nil
    return BAT(atom, np.concatenate(tails))


def _reinterned(bat, heap):
    """A string column's offsets in ``heap``: each distinct string
    interned once."""
    distinct, inverse = np.unique(bat.tail, return_inverse=True)
    return heap.put_many(bat.heap.get_many(distinct))[inverse]


def _packed(parts, width):
    """The ``width`` columns of ``parts`` (each a list of BATs), packed;
    empty columns when there is no part."""
    if not parts:
        return [BAT(LNG, []) for _ in range(width)]
    return [_pack([part[i] for part in parts]) for i in range(width)]


def _first_occurrences(columns):
    """Ascending positions of each distinct row's first occurrence."""
    gids = None
    for column in columns:
        gids, extents, _ = algebra.group_arrays(column.tail, gids)
    return np.sort(extents)


def _sort(keys, ascending):
    """The stable order of the rows by ``keys`` (nil first ascending,
    last descending)."""
    return algebra.sort_multi(*[arg for key, asc in zip(keys, ascending)
                                for arg in (key, asc)]).tail


def _take(columns, positions, limit):
    """``columns`` at ``positions`` (None: in place), the first
    ``limit`` rows kept (None: all)."""
    if limit is not None:
        positions = np.arange(min(limit, len(columns[0]))) \
            if positions is None else positions[:limit]
    if positions is None:
        return columns
    return [column.fetch(positions) for column in columns]


def merge_rows(plan, parts):
    """Finish a split projection: the parts' columns concatenated in
    part order, DISTINCT (each row's first occurrence), ORDER BY on the
    (possibly hidden) order-key columns, LIMIT.  Returns the
    ``n_items`` output BATs."""
    if not parts:
        return _packed(parts, plan.n_items)
    columns = _packed(parts, len(parts[0]))
    positions = _first_occurrences(columns) if plan.distinct else None
    if plan.order_columns:
        keys = [columns[p] if positions is None
                else columns[p].fetch(positions)
                for p, _ in plan.order_columns]
        order = _sort(keys, [asc for _, asc in plan.order_columns])
        positions = order if positions is None else positions[order]
    return _take(columns[:plan.n_items], positions, plan.limit)


def _reaggregate(kind, column, gids, ngroups):
    """One partial's per-group total over its packed part values: count
    and sum add (exact in int64), min and max take the extremum; nil
    where a group has no value, a count 0."""
    if ngroups and not len(column):
        # A scalar aggregate over no part rows.
        if kind == "count":
            return BAT(LNG, [0])
        return BAT(column.atom, [column.atom.nil], heap=column.heap)
    if kind in ("count", "sum"):
        out = algebra.grouped_sum_arrays(column.tail, gids, ngroups)
        return BAT(DBL if out.dtype.kind == "f" else LNG, out)
    extreme = algebra.grouped_min_arrays if kind == "min" \
        else algebra.grouped_max_arrays
    out = extreme(column.tail, gids, ngroups, column.heap)
    return BAT(DBL if out.dtype.kind == "f" else column.atom, out,
               heap=column.heap)


def _evaluate(tree, keys, partials, n):
    """A merge tree over ``n`` groups' key and partial BATs, as a BAT
    (a literal broadcast)."""
    if isinstance(tree, GroupCol):
        return keys[tree.index]
    if isinstance(tree, Partial):
        return partials[tree.index]
    if isinstance(tree, Literal):
        return value_bat([tree.value] * n)
    if isinstance(tree, AvgOf):
        # A zero count has a nil sum, so its mean is nil.
        return algebra.calc("/", partials[tree.sum_index],
                            partials[tree.count_index])
    if isinstance(tree, BinOp):
        return algebra.calc(CMP_TO_CALC.get(tree.op, tree.op),
                            _evaluate(tree.left, keys, partials, n),
                            _evaluate(tree.right, keys, partials, n))
    if isinstance(tree, UnaryOp):
        operand = _evaluate(tree.operand, keys, partials, n)
        if tree.op == "not":
            return algebra.calc_not(operand)
        return algebra.calc("-", 0, operand)   # as the compiler negates
    raise MergeError("unsupported merge expression {0!r}".format(tree))


def merge_aggregates(plan, parts):
    """Finish a split aggregate: group the parts' keys, re-aggregate
    each partial per group, keep the groups HAVING passes, evaluate the
    items and ORDER BY keys over them, then DISTINCT / LIMIT.  Returns
    the output BATs.  A scalar aggregate is one group, over no part
    rows too."""
    n_group = plan.n_group
    columns = _packed(parts, n_group + len(plan.partials))
    keys = columns[:n_group]
    if keys:
        gids = None
        for key in keys:
            gids, extents, _ = algebra.group_arrays(key.tail, gids)
        keys = [key.fetch(extents) for key in keys]
        ngroups = len(extents)
    else:
        gids = np.zeros(len(columns[0]), dtype=np.int64)
        ngroups = 1
    partials = [_reaggregate(kind, column, gids, ngroups)
                for kind, column in zip(plan.partial_kinds,
                                        columns[n_group:])]
    if plan.having_expr is not None:
        # A mask, read as the single-node engine reads one.
        keep = np.flatnonzero(_evaluate(plan.having_expr, keys, partials,
                                        ngroups).tail.astype(bool))
        keys = [key.fetch(keep) for key in keys]
        partials = [partial.fetch(keep) for partial in partials]
        ngroups = len(keep)
    out = [_evaluate(tree, keys, partials, ngroups)
           for tree in plan.item_exprs]
    positions = None
    if plan.order_exprs:
        positions = _sort([_evaluate(tree, keys, partials, ngroups)
                           for tree, _ in plan.order_exprs],
                          [asc for _, asc in plan.order_exprs])
    if plan.distinct:
        first = _first_occurrences(
            out if positions is None
            else [column.fetch(positions) for column in out])
        positions = first if positions is None else positions[first]
    return _take(out, positions, plan.limit)
