"""Incremental maintenance of materialized views from committed deltas.

The :class:`ViewMaintainer` hangs off one
:class:`~repro.sql.database.Database` and owns every view's backing
table (an ordinary catalog table named after the view — SELECTs
against a view plan as plain scans, snapshots pin it like any other
table).  The database's ``_apply_ops`` — the apply step of every
commit, from the one write path (``Database._write``: autocommit, WAL
replay, replica apply, resharding) or a transaction's publish — hands
the maintainer each op's delta as appended/removed base rows; the
maintainer folds them into weighted Z-set batches and applies them to
every view watching that table, atomically with the commit (the
backing table moves inside the same ``_apply_ops`` call that moves the
base table).

Maintenance works on whole batches.  Each operator compiles its
expressions once, when the view is created
(:func:`~repro.views.rows.compile_expr`; an eager view compiles its
query through the SQL compiler instead), so
:meth:`ViewMaintainer.validate` rejects an unknown or ambiguous column
and a type error before the WAL append; a join view probes the delta by
key with each side's predicates pushed down (:class:`_JoinView`); an
aggregate view rewrites the groups a delta touched with one
backing-table delete and one append.

Backing tables are derived state: they are never WAL-logged
themselves.  The log carries ``create_view``/``drop_view`` records
(the defining query as SQL text) plus the ordinary commit records, so
replay rebuilds every view by re-running the same create-then-maintain
history — on recovery, on replicas, and per shard.
"""

import weakref

import numpy as np

from repro.core.algebra import _present
from repro.core.atoms import BIT
from repro.sql.ast import BinOp, Column, Literal, Star, split_conjuncts
from repro.sql.compiler import SQLCompileError, compile_select
from repro.sql.partials import FOLD, PartialState, eval_merge, value_bat
from repro.views.definition import classify
from repro.views.rows import (
    ViewError, compile_expr, compile_predicate, compile_row, decode_row,
    logical_rows, row_slots, slots_read,
)
from repro.views.zset import ZSet, row_key


class ViewMaintenanceError(RuntimeError):
    """Internal invariant violation: the incremental state diverged
    from what a retraction expects (a bug, not a user error)."""


class ViewMaintainer:
    """All materialized views of one database (held weakly: the
    database owns the maintainer, so a dropped database is freed
    without the cycle collector)."""

    def __init__(self, database):
        self._db = weakref.proxy(database)
        self._views = {}     # view name -> operator object
        self._watchers = {}  # base table -> [view names, creation order]
        self.counters = {}   # view name -> maintenance counters

    # -- registry ------------------------------------------------------------

    def names(self):
        return sorted(self._views)

    def is_view(self, name):
        return name in self._views

    def watching(self, table_name):
        """True when a committed delta to ``table_name`` must be
        captured (the near-zero fast-path check in ``_apply_ops``)."""
        return table_name in self._watchers

    def definition(self, name):
        return self._view(name).d

    def _view(self, name):
        try:
            return self._views[name]
        except KeyError:
            raise KeyError(
                "unknown materialized view {0!r}".format(name)) from None

    # -- DDL -----------------------------------------------------------------

    def validate(self, name, select):
        """Classify and compile without installing — the pre-WAL
        validation step, so every column the view names resolves and
        every expression type-checks before anything is logged."""
        return self._operator(name, select).d

    def _operator(self, name, select):
        if name in self._views or name in self._db.catalog:
            raise ViewError(
                "name {0!r} is already a table or view".format(name))
        definition = classify(self._db.catalog.tables, name, select,
                              view_names=set(self._views))
        return _OPERATORS[definition.kind](self, definition)

    def create(self, name, select):
        """Install a view: classify and compile, create the backing
        table, materialize the initial contents, start watching the
        bases."""
        view = self._operator(name, select)
        definition = view.d
        self._db.catalog.create_table(name, definition.columns)
        try:
            view.materialize()
        except Exception:
            self._db.catalog.drop_table(name)
            raise
        self._views[name] = view
        self.counters[name] = {"deltas": 0, "rows_changed": 0,
                               "group_recomputes": 0,
                               "eager_recomputes": 0,
                               "last_lsn": self._db.commit_seq}
        for base in definition.base_tables:
            self._watchers.setdefault(base, []).append(name)
        return definition

    def drop(self, name):
        view = self._views.pop(name, None)
        if view is None:
            raise KeyError(
                "unknown materialized view {0!r}".format(name))
        self.counters.pop(name, None)
        for base in view.d.base_tables:
            watchers = self._watchers.get(base, [])
            if name in watchers:
                watchers.remove(name)
            if not watchers:
                self._watchers.pop(base, None)
        self._db.catalog.drop_table(name)

    # -- the maintenance entry point ------------------------------------------

    def apply_delta(self, table_name, appended, removed):
        """Fold one committed op's delta into every watching view.

        ``appended``/``removed`` are raw decoded row tuples of
        ``table_name`` (as :meth:`Table.row` returns them); they are
        decoded to logical space and merged into one Z-set batch here.
        Runs inside ``_apply_ops`` — the base table already shows the
        op, so join and min/max recompute reads see post-op state.
        """
        watchers = self._watchers.get(table_name)
        if not watchers:
            return
        table = self._db.catalog.get(table_name)
        delta = ZSet()
        for row in appended:
            delta.add(decode_row(table, row), 1)
        for row in removed:
            delta.add(decode_row(table, row), -1)
        if not delta:
            return
        tracer = self._db.tracer
        for name in list(watchers):
            view = self._views[name]
            if tracer.enabled:
                with tracer.span("view.delta", kind="view", view=name,
                                 table=table_name,
                                 delta_rows=len(delta)):
                    changed = view.apply(table_name, delta)
                    tracer.add("view_rows_changed", changed)
            else:
                changed = view.apply(table_name, delta)
            counters = self.counters[name]
            counters["deltas"] += 1
            counters["rows_changed"] += changed
            # The commit being published takes the next sequence
            # number; _bump_commit runs after _apply_ops returns.
            counters["last_lsn"] = self._db.commit_seq + 1

    # -- reads ----------------------------------------------------------------

    def contents(self, name):
        """The view's rows in logical space (nil sentinels -> None)."""
        self._view(name)
        return logical_rows(self._db.catalog.get(name))

    def partials(self, name):
        """An aggregate view's part columns — group keys followed by one
        column per partial of its plan, the BATs a scatter leg returns —
        for sharded reads, which finish them with
        :func:`~repro.sql.partials.merge_aggregates`."""
        view = self._view(name)
        if not isinstance(view, _AggregateView):
            raise ViewError(
                "view {0!r} has no partial-aggregate state "
                "({1})".format(name, view.d.kind))
        return view.part_columns()


# -- operator implementations -------------------------------------------------


class _ViewOperator:
    """Shared plumbing: backing-table access and multiset bookkeeping."""

    def __init__(self, maintainer, definition):
        self._m = maintainer
        self.d = definition

    @property
    def _catalog(self):
        return self._m._db.catalog

    def _backing(self):
        return self._catalog.get(self.d.name)

    def _bump(self, counter, value=1):
        counters = self._m.counters.get(self.d.name)
        if counters is not None:
            counters[counter] += value

    def _slots(self, refs):
        """Slots of a row concatenating the tables ``refs`` bind."""
        return row_slots([(ref.binding,
                           self._catalog.get(ref.name).column_names)
                          for ref in refs])


class _MultisetView(_ViewOperator):
    """Base for linear and join views: the backing table is a plain
    multiset, retracted row-by-row via an output-row -> oid index."""

    def __init__(self, maintainer, definition):
        super().__init__(maintainer, definition)
        self._row_oids = {}  # row_key -> [backing oids]

    def _publish(self, weighted):
        """Apply ``(output row, weight)`` pairs to the backing table;
        returns the number of backing rows changed."""
        plus, minus = [], []
        for row, weight in weighted:
            if weight > 0:
                plus.extend([row] * weight)
            else:
                minus.extend([row] * -weight)
        self._append_out(plus)
        self._retract_out(minus)
        return len(plus) + len(minus)

    def _append_out(self, rows):
        if not rows:
            return
        backing = self._backing()
        oids = backing.append_rows([list(row) for row in rows])
        for row, oid in zip(rows, oids):
            self._row_oids.setdefault(row_key(row), []).append(oid)

    def _retract_out(self, rows):
        if not rows:
            return
        backing = self._backing()
        doomed = []
        for row in rows:
            oids = self._row_oids.get(row_key(row))
            if not oids:
                raise ViewMaintenanceError(
                    "view {0!r}: retraction of absent row "
                    "{1!r}".format(self.d.name, row))
            doomed.append(oids.pop())
        backing.delete_oids(doomed)


class _LinearView(_MultisetView):
    """Single-table filter/project: the delta maps straight through."""

    def __init__(self, maintainer, definition):
        super().__init__(maintainer, definition)
        select = definition.select
        slots = self._slots([select.table])
        self._keep = compile_predicate(
            [] if select.where is None else [select.where], slots)
        self._project = compile_row([item.expr for item in definition.items],
                                    slots)

    def materialize(self):
        base = self._catalog.get(self.d.base_tables[0])
        self._fold((row, 1) for row in logical_rows(base))

    def apply(self, table_name, delta):
        return self._fold(delta.items())

    def _fold(self, weighted):
        keep, project = self._keep, self._project
        return self._publish((project(row), weight)
                             for row, weight in weighted if keep(row))


class _JoinView(_MultisetView):
    """Two-table join, maintained by the bilinear rule.

    Deltas arrive table-at-a-time (``_apply_ops`` publishes per-table
    ops sequentially, maintaining views after each), so each delta
    joins the *current* state of the other table: for a commit moving
    both R and S, dR joins old S, then dS joins new R — together
    exactly dR|><|S + R|><|dS + dR|><|dS.

    ``ON`` and ``WHERE`` are split into conjuncts once, at creation.
    A conjunct reading one side only filters that side's rows before
    the join; an equality between a left-only and a right-only
    expression is a key component; everything else is a residual on
    the joined (left + right) row.  A join without equalities has the
    empty key, so all its rows meet in one bucket.
    """

    def __init__(self, maintainer, definition):
        super().__init__(maintainer, definition)
        select = definition.select
        refs = (select.table, select.joins[0].table)
        self._tables = [ref.name for ref in refs]
        slots = self._slots(refs)
        width = len(self._catalog.get(refs[0].name).column_names)

        def sides(expr):
            return {int(slot >= width) for slot in slots_read(expr, slots)}

        filters, keys, residual = ([], []), ([], []), []
        conjuncts = split_conjuncts(select.joins[0].condition)
        if select.where is not None:
            conjuncts += split_conjuncts(select.where)
        for conjunct in conjuncts:
            read = sides(conjunct)
            if len(read) == 1:
                filters[read.pop()].append(conjunct)
                continue
            if isinstance(conjunct, BinOp) and conjunct.op == "=":
                ends = (conjunct.left, conjunct.right)
                read = [sides(end) for end in ends]
                if read in ([{0}, {1}], [{1}, {0}]):
                    if read[0] == {1}:
                        ends = ends[::-1]
                    keys[0].append(ends[0])
                    keys[1].append(ends[1])
                    continue
            residual.append(conjunct)
        side_slots = [self._slots([ref]) for ref in refs]
        self._filters = [compile_predicate(f, s)
                         for f, s in zip(filters, side_slots)]
        self._keys = [compile_row(k, s) for k, s in zip(keys, side_slots)]
        self._residual = compile_predicate(residual, slots)
        self._project = compile_row([item.expr for item in definition.items],
                                    slots)

    def materialize(self):
        left = self._catalog.get(self._tables[0])
        self._join(0, [(row, 1) for row in logical_rows(left)])

    def apply(self, table_name, delta):
        return self._join(self._tables.index(table_name), delta.items())

    def _join(self, side, weighted):
        """Join ``(row, weight)`` pairs of one side with the other
        table's current rows: index the pairs by key, probe with the
        other side.  A key holding None never matches (``=`` of NULL
        is not true)."""
        keep, key_of = self._filters[side], self._keys[side]
        buckets = {}
        for row, weight in weighted:
            if keep(row):
                key = key_of(row)
                if None not in key:
                    buckets.setdefault(key, []).append((row, weight))
        if not buckets:
            return 0
        other = 1 - side
        keep, key_of = self._filters[other], self._keys[other]
        residual, project = self._residual, self._project
        out = []
        for probe in logical_rows(self._catalog.get(self._tables[other])):
            if not keep(probe):
                continue
            for row, weight in buckets.get(key_of(probe), ()):
                joined = row + probe if side == 0 else probe + row
                if residual(joined):
                    out.append((project(joined), weight))
        return self._publish(out)


class _Group:
    """One group's key values, weight, and one
    :class:`~repro.sql.partials.PartialState` per partial."""

    __slots__ = ("key_values", "weight", "states")

    def __init__(self, key_values, kinds):
        self.key_values = tuple(key_values)
        self.weight = 0
        self.states = [PartialState(kind) for kind in kinds]


class _AggregateView(_ViewOperator):
    """GROUP BY (or scalar) aggregates: per group, one weight-aware
    state per partial of the view's :class:`~repro.sql.partials.SplitPlan`,
    and a backing row of the plan's merge trees over their values.

    A retraction that removes the *current extremum* of a min/max state
    cannot be answered from the state alone, so the group recomputes
    from the base table (post-delta state, counted in
    ``group_recomputes``).  A group whose weight reaches zero vanishes
    — its backing row is deleted, not zeroed — except for the scalar
    (no GROUP BY) shape, which always keeps exactly one row, matching
    the engine's empty-aggregate answers (count 0, sums NULL).
    """

    def __init__(self, maintainer, definition):
        super().__init__(maintainer, definition)
        self._groups = {}      # group key -> _Group
        self._group_oids = {}  # group key -> backing oid
        select = definition.select
        self._scalar = not select.group_by
        self._kinds = definition.plan.partial_kinds
        self._folds = [FOLD[kind] for kind in self._kinds]
        slots = self._slots([select.table])
        self._keep = compile_predicate(
            [] if select.where is None else [select.where], slots)
        self._key_of = compile_row(select.group_by, slots)
        # count(*) counts rows: an argument that is never nil.
        self._arg_exprs = [
            call.args[0] if call.args and
            not isinstance(call.args[0], Star) else Literal(1)
            for _, call in definition.plan.partials]
        self._args = [compile_expr(expr, slots) for expr in self._arg_exprs]

    def materialize(self):
        base = self._catalog.get(self.d.base_tables[0])
        delta = ZSet()
        for row in logical_rows(base):
            delta.add(row, 1)
        if self._scalar and not delta:
            # The scalar shape always has its one row.
            self._rewrite_groups({()})
            return
        self.apply(self.d.base_tables[0], delta)

    def apply(self, table_name, delta):
        keep, key_of = self._keep, self._key_of
        folds, args = self._folds, self._args
        dirty = set()
        for row, weight in delta.items():
            if not keep(row):
                continue
            key_values = key_of(row)
            key = row_key(key_values)
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group(key_values, self._kinds)
            group.weight += weight
            for fold, arg, state in zip(folds, args, group.states):
                value = arg(row)
                if value is not None:
                    fold(state, value, weight)
            dirty.add(key)
        if self._scalar and not self._group_oids:
            dirty.add(())
        return self._rewrite_groups(dirty)

    def _rewrite_groups(self, dirty):
        """Re-emit the backing row of every touched group: one delete
        of the old rows and one append of the new, however many
        groups the delta touched."""
        touched = []
        stale = []
        for key in sorted(dirty):
            group = self._groups.get(key)
            if group is None and self._scalar:
                group = self._groups[key] = _Group((), self._kinds)
            if group is None:
                raise ViewMaintenanceError(
                    "view {0!r}: delta touched unknown group "
                    "{1!r}".format(self.d.name, key))
            if group.weight < 0:
                raise ViewMaintenanceError(
                    "view {0!r}: group {1!r} retracted below "
                    "empty".format(self.d.name, key))
            touched.append((key, group))
            for state in group.states:
                if state.stale and not state.n:
                    state.refold(())  # a group's history is whole
            if any(state.stale for state in group.states):
                stale.append(group)
        if stale:
            self._recompute_stale(stale)
        doomed, fresh_keys, fresh_rows = [], [], []
        exprs = self.d.plan.item_exprs
        for key, group in touched:
            old_oid = self._group_oids.pop(key, None)
            if old_oid is not None:
                doomed.append(old_oid)
            if group.weight == 0 and not self._scalar:
                # Zero-weight groups vanish rather than linger.
                del self._groups[key]
                continue
            finals = [state.final() for state in group.states]
            fresh_keys.append(key)
            fresh_rows.append([eval_merge(expr, group.key_values, finals)
                               for expr in exprs])
        backing = self._backing()
        if doomed:
            backing.delete_oids(doomed)
        if fresh_rows:
            self._group_oids.update(
                zip(fresh_keys, backing.append_rows(fresh_rows)))
        return len(doomed) + len(fresh_rows)

    def _recompute_stale(self, groups):
        """Refold stale min/max states from the base table (current,
        post-delta state) — one shared scan, however many groups the
        delta invalidated."""
        if not self._recompute_columnwise(groups):
            self._recompute_rowwise(groups)
        self._bump("group_recomputes", len(groups))

    def _stale_partials(self, group):
        return [(index, state) for index, state in enumerate(group.states)
                if state.stale]

    def _columnwise_name(self, expr, base):
        """The base column a plain-column expression binds, or None."""
        if not isinstance(expr, Column):
            return None
        if expr.table not in (None, self.d.select.table.binding):
            return None
        return expr.name if expr.name in base.atoms else None

    def _recompute_columnwise(self, groups):
        """Column-at-a-time recompute for the common shape — no WHERE,
        plain-column group keys and aggregate arguments: one numpy mask
        per group over the raw BAT tails, no per-row environments."""
        if self.d.select.where is not None:
            return False
        base = self._catalog.get(self.d.base_tables[0])
        key_cols = []
        for expr in self.d.select.group_by:
            name = self._columnwise_name(expr, base)
            if name is None or base.atoms[name].varsized:
                return False
            key_cols.append(name)
        for group in groups:
            for index, _ in self._stale_partials(group):
                name = self._columnwise_name(self._arg_exprs[index], base)
                if name is None or base.atoms[name].varsized or \
                        base.atoms[name] is BIT:
                    return False
        oids = base.tid().tail
        tails = {}

        def tail(name):
            if name not in tails:
                tails[name] = base.bind(name).tail[oids]
            return tails[name]

        for group in groups:
            mask = np.ones(len(oids), dtype=bool)
            for name, key_value in zip(key_cols, group.key_values):
                column = tail(name)
                if key_value is None:
                    mask &= ~_present(column, base.atoms[name])
                else:
                    mask &= (column == key_value)
            for index, state in self._stale_partials(group):
                name = self._arg_exprs[index].name
                values = tail(name)[mask]
                values = values[_present(values, base.atoms[name])]
                state.refold(values.tolist())
        return True

    def _recompute_rowwise(self, groups):
        """The general recompute: one shared row-at-a-time scan, rows
        bucketed per stale group."""
        base = self._catalog.get(self.d.base_tables[0])
        keep, key_of = self._keep, self._key_of
        buckets = {row_key(group.key_values): [] for group in groups}
        for row in logical_rows(base):
            if keep(row):
                bucket = buckets.get(row_key(key_of(row)))
                if bucket is not None:
                    bucket.append(row)
        for group in groups:
            rows = buckets[row_key(group.key_values)]
            for index, state in self._stale_partials(group):
                state.refold([v for v in map(self._args[index], rows)
                              if v is not None])

    def part_columns(self):
        """Group keys followed by each partial's value, per live
        group (the scalar shape's one group always), as columns."""
        rows = [group.key_values +
                tuple(state.final() for state in group.states)
                for group in self._groups.values()
                if group.weight or self._scalar]
        width = len(self.d.select.group_by) + len(self._kinds)
        return [value_bat(list(column))
                for column in list(zip(*rows)) or [()] * width]


class _EagerView(_ViewOperator):
    """The non-incremental fallback: every base delta recomputes the
    defining query through the engine and rewrites the backing table
    wholesale."""

    def __init__(self, maintainer, definition):
        super().__init__(maintainer, definition)
        # Compile, not run, the query now, so an unknown or ambiguous
        # column fails at CREATE like the incremental kinds do.
        try:
            compile_select(self._catalog, definition.select)
        except SQLCompileError as exc:
            raise ViewError(str(exc)) from None

    def materialize(self):
        self._refresh()

    def apply(self, table_name, delta):
        changed = self._refresh()
        self._bump("eager_recomputes")
        return changed

    def _refresh(self):
        backing = self._backing()
        visible = backing.tid().tail.tolist()
        if visible:
            backing.delete_oids(visible)
        result = self._m._db._run_select(self.d.select,
                                         view=self._catalog)
        rows = result.rows()
        if rows:
            backing.append_rows([list(row) for row in rows])
        return len(visible) + len(rows)


_OPERATORS = {
    "linear": _LinearView,
    "join": _JoinView,
    "aggregate": _AggregateView,
    "eager": _EagerView,
}
