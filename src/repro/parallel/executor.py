"""Parallel SELECT execution: SQL AST -> exchange-parallel vectorized plan.

The serial SQL path compiles to MAL and interprets BAT-at-a-time; this
module is the intra-query-parallel alternative: the same ``Select`` AST
is compiled into N per-worker pull-based vectorized pipelines — a
:class:`~repro.parallel.exchange.MorselScan` over the first FROM table,
broadcast hash joins, vectorized filters, and per-worker *partial*
aggregation — merged by an :class:`~repro.parallel.exchange.Exchange`
and finished serially (final aggregation, DISTINCT, ORDER BY, LIMIT).

Queries the parallel compiler cannot express raise
:class:`ParallelUnsupported`; the caller (``Database.execute``) falls
back to the serial engine, so parallelism never changes which queries
run — only how.  Answers are the same *multiset* as the serial engine's
(union order differs; compare with ``tests.helpers.assert_same_rows``).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.algebra import order_rows
from repro.faults import NO_FAULTS
from repro.governance.context import CHECK_MORSEL, NO_GOVERNANCE
from repro.observability.tracer import NO_TRACE, Tracer
from repro.parallel.context import WorkerSet
from repro.parallel.exchange import Exchange, MorselScan
from repro.parallel.morsels import DEFAULT_MORSEL_SIZE, MorselScheduler
from repro.sql.ast import (
    BinOp, Column, FuncCall, Literal, Select, Star, UnaryOp,
)
from repro.vectorized import expressions as vexpr
from repro.vectorized.operators import (
    DEFAULT_VECTOR_SIZE,
    ExecutionContext,
    ScalarVectorAggregate,
    VectorAggregate,
    VectorHashJoin,
    VectorProject,
    VectorSelect,
    VectorScan,
)

_SQL_TO_VECTOR_OP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=",
                     ">": ">", ">=": ">=", "+": "+", "-": "-", "*": "*",
                     "/": "/", "%": "%", "and": "and", "or": "or"}


class ParallelUnsupported(Exception):
    """The query shape has no parallel plan; run it serially."""


@dataclass
class _Binding:
    alias: str
    table: str
    columns: list

    def qualify(self, column):
        return "{0}.{1}".format(self.alias, column)


class _Scope:
    """Alias scope mirroring the serial compiler's resolution rules."""

    def __init__(self):
        self.bindings = []

    def resolve(self, column_ref):
        if column_ref.table is not None:
            for binding in self.bindings:
                if binding.alias == column_ref.table:
                    if column_ref.name not in binding.columns:
                        raise ParallelUnsupported(
                            "no column {0!r} in {1!r}".format(
                                column_ref.name, binding.alias))
                    return binding
            raise ParallelUnsupported("unknown alias {0!r}".format(
                column_ref.table))
        matches = [b for b in self.bindings
                   if column_ref.name in b.columns]
        if len(matches) != 1:
            raise ParallelUnsupported(
                "cannot resolve column {0!r}".format(column_ref.name))
        return matches[0]

    def qualify(self, column_ref):
        return self.resolve(column_ref).qualify(column_ref.name)


@dataclass
class ParallelResult:
    """Outcome of one parallel SELECT.

    ``failures`` lists every worker death the query survived (the
    morsels were re-dispatched to survivors); ``fell_back`` marks a
    query that lost *all* its workers and was answered by the serial
    engine instead (names/columns are then empty — the serial
    ResultSet carries the answer).
    """

    names: list
    columns: list          # python-value lists, ResultSet-ready
    worker_set: WorkerSet
    scheduler: MorselScheduler
    failures: list = field(default_factory=list)
    fell_back: bool = False

    def profile(self):
        """Per-worker/per-operator profile (ExecutionContext shape)."""
        if self.worker_set is None:
            return {}
        return self.worker_set.profile_report()


class ParallelSelectExecutor:
    """Compiles and runs one SELECT against a catalog with N workers.

    Parameters mirror the morsel framework: ``smp_profile`` (None for
    result-parallelism without cache simulation), ``vector_size`` and
    ``morsel_size``.
    """

    def __init__(self, catalog, workers, smp_profile=None,
                 vector_size=DEFAULT_VECTOR_SIZE,
                 morsel_size=DEFAULT_MORSEL_SIZE, faults=None,
                 tracer=None, compiler=None, governance=None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.catalog = catalog
        self.workers = workers
        self.smp_profile = smp_profile
        self.vector_size = vector_size
        self.morsel_size = morsel_size
        self.faults = faults if faults is not None else NO_FAULTS
        self.tracer = tracer if tracer is not None else NO_TRACE
        # Governance context (repro.governance): checked once per
        # morsel acquisition; a kill propagates out of Exchange.collect
        # (which quarantines only CrashError) without poisoning the
        # per-query scheduler.
        self.governance = governance if governance is not None \
            else NO_GOVERNANCE
        # Optional repro.compile.PlanCompiler: WHERE conjunct chains
        # fuse into one generated predicate kernel per morsel pass.
        self.compiler = compiler
        self.fused_predicates = 0
        self.failures = []

    # -- public entry ---------------------------------------------------------

    def execute(self, select):
        if not isinstance(select, Select):
            raise TypeError("expected a Select AST node")
        if select.table is None:
            raise ParallelUnsupported("FROM-less SELECT")
        if select.limit is not None and not select.order_by:
            # Serial LIMIT without ORDER BY picks rows in scan order;
            # a parallel union would pick a different subset.
            raise ParallelUnsupported("LIMIT without ORDER BY")

        scope = _Scope()
        tables = {}
        self._open(select.table, scope, tables)
        joins = []
        for join in select.joins:
            joins.append(self._prepare_join(join, scope, tables))

        grouped = bool(select.group_by)
        has_aggs = grouped or any(
            _contains_aggregate(item.expr) for item in select.items)
        items = self._expand_items(select, scope)

        worker_set = WorkerSet(self.workers, profile=self.smp_profile,
                               vector_size=self.vector_size)
        first_columns = tables[scope.bindings[0].alias]
        n_rows = len(next(iter(first_columns.values())))
        # Blocking aggregates drain a worker's entire input on its
        # first pull; with stealing enabled, worker 0 would steal every
        # morsel before the others are pulled once and the "parallel"
        # aggregation would run on one worker.  Static shares keep the
        # partials genuinely distributed; streaming plans keep stealing
        # (their round-robin pulls drain the queues evenly).
        scheduler = MorselScheduler(n_rows, self.workers, self.morsel_size,
                                    stealing=not has_aggs)

        self.failures = []
        if grouped:
            names, columns = self._run_grouped(
                select, items, scope, tables, joins, worker_set, scheduler)
        elif has_aggs:
            names, columns = self._run_scalar_aggregates(
                select, items, scope, tables, joins, worker_set, scheduler)
        else:
            names, columns = self._run_projection(
                select, items, scope, tables, joins, worker_set, scheduler)
        return ParallelResult(names, columns, worker_set, scheduler,
                              failures=list(self.failures))

    # -- FROM/JOIN preparation ------------------------------------------------

    def _open(self, table_ref, scope, tables):
        table = self.catalog.get(table_ref.name)
        binding = _Binding(table_ref.alias or table_ref.name,
                           table_ref.name, list(table.column_names))
        scope.bindings.append(binding)
        tables[binding.alias] = self._materialize(table, binding)
        return binding

    def _materialize(self, table, binding):
        """Visible rows of a table as qualified numpy column arrays.

        Raises ParallelUnsupported when any value is nil — the
        vectorized engine has no nil semantics, so nil-bearing tables
        keep the (nil-aware) serial path.
        """
        visible = np.asarray(table.tid().tail, dtype=np.int64)
        arrays = {}
        for column in table.column_names:
            bat = table.bind(column)
            if bat.atom.varsized:
                offsets = bat.tail[visible]
                if len(offsets) and (offsets == bat.heap.NIL_OFFSET).any():
                    raise ParallelUnsupported("nil string values")
                arrays[binding.qualify(column)] = np.asarray(
                    bat.heap.get_many(offsets), dtype=object)
            else:
                values = bat.tail[visible]
                if bat.atom.dtype.kind != "b" and len(values) and \
                        bat.atom.is_nil(values).any():
                    raise ParallelUnsupported("nil values")
                arrays[binding.qualify(column)] = values
        if self.governance.active:
            nbytes = sum(int(a.nbytes) for a in arrays.values())
            if nbytes:
                self.governance.charge(nbytes, CHECK_MORSEL)
        return arrays

    def _prepare_join(self, join, scope, tables):
        """Split ON into one equi pair + residual, like the serial
        compiler; returns (new binding, probe key, build key, residual).
        """
        binding = self._open(join.table, scope, tables)
        equi = None
        residual = []
        for conjunct in _split_conjuncts(join.condition):
            pair = self._equi_pair(conjunct, binding, scope)
            if pair is not None and equi is None:
                equi = pair
            else:
                residual.append(conjunct)
        if equi is None:
            raise ParallelUnsupported("JOIN without usable equality")
        probe_col, build_col = equi
        return (binding, scope.qualify(probe_col), scope.qualify(build_col),
                residual)

    def _equi_pair(self, expr, new_binding, scope):
        if not (isinstance(expr, BinOp) and expr.op == "="
                and isinstance(expr.left, Column)
                and isinstance(expr.right, Column)):
            return None
        try:
            lb = scope.resolve(expr.left)
            rb = scope.resolve(expr.right)
        except ParallelUnsupported:
            return None
        if lb is new_binding and rb is not new_binding:
            return (expr.right, expr.left)
        if rb is new_binding and lb is not new_binding:
            return (expr.left, expr.right)
        return None

    # -- worker pipelines -----------------------------------------------------

    def _source_factory(self, select, scope, tables, joins):
        """plan_factory(ctx, scheduler, worker) for the filtered row
        source: morsel scan -> broadcast hash joins -> predicates."""
        first = scope.bindings[0]
        filters = []
        for _, _, _, residual in joins:
            filters.extend(residual)
        if select.where is not None:
            filters.extend(_split_conjuncts(select.where))
        predicates = [self._vector_expr(f, scope) for f in filters]
        if self.compiler is not None and len(predicates) > 1:
            from repro.compile.vectorized import compile_predicates
            fused = compile_predicates(predicates,
                                       cache=self.compiler.cache)
            if fused is not None:
                predicates = [fused]
                self.fused_predicates += fused.n_fused

        def factory(ctx, scheduler, worker):
            plan = MorselScan(ctx, tables[first.alias], scheduler,
                              worker=worker, faults=self.faults,
                              governance=self.governance)
            for binding, probe_key, build_key, _ in joins:
                build = VectorScan(ctx, tables[binding.alias])
                plan = VectorHashJoin(ctx, build, plan,
                                      build_key=build_key,
                                      probe_key=probe_key)
            for predicate in predicates:
                plan = VectorSelect(ctx, plan, predicate)
            return plan

        return factory

    def _vector_expr(self, expr, scope):
        """SQL expression AST -> vectorized Expression over qualified
        batch columns."""
        if isinstance(expr, Literal):
            return vexpr.Const(expr.value)
        if isinstance(expr, Column):
            return vexpr.Col(scope.qualify(expr))
        if isinstance(expr, UnaryOp):
            operand = self._vector_expr(expr.operand, scope)
            if expr.op == "not":
                return vexpr.NotExpr(operand)
            if expr.op == "-":
                return vexpr.BinExpr("-", vexpr.Const(0), operand)
            raise ParallelUnsupported("unary {0!r}".format(expr.op))
        if isinstance(expr, BinOp):
            op = _SQL_TO_VECTOR_OP.get(expr.op)
            if op is None:
                raise ParallelUnsupported("operator {0!r}".format(expr.op))
            return vexpr.BinExpr(op, self._vector_expr(expr.left, scope),
                                 self._vector_expr(expr.right, scope))
        raise ParallelUnsupported("expression {0!r}".format(expr))

    def _expand_items(self, select, scope):
        """Select items with Star expanded: [(output name, expr)]."""
        items = []
        for item in select.items:
            if isinstance(item.expr, Star):
                bindings = scope.bindings
                if item.expr.table is not None:
                    bindings = [b for b in bindings
                                if b.alias == item.expr.table]
                    if not bindings:
                        raise ParallelUnsupported("unknown table {0!r}"
                                                  .format(item.expr.table))
                for binding in bindings:
                    for column in binding.columns:
                        items.append((column, Column(column, binding.alias)))
            else:
                items.append((item.alias or _default_name(item.expr),
                              item.expr))
        return items

    def _run_exchange(self, factory, worker_set, scheduler):
        """Drive an Exchange over all workers; returns the batches.

        Collection quarantines per-worker output so injected worker
        deaths recover exactly (see :meth:`Exchange.collect`); deaths
        the query survived accumulate in ``self.failures``.

        When this executor carries an enabled tracer, the whole drive
        runs inside an ``exchange`` span; each worker gets a *private*
        tracer (watching its private hierarchy) whose completed span
        stream is grafted under the exchange span once the drain ends —
        the per-worker span streams merge with morsel attribution
        intact.  The simulation is cooperative (single-threaded), so
        per-worker hardware deltas attribute exactly.
        """
        if not self.tracer.enabled:
            coordinator = ExecutionContext(self.vector_size)
            exchange = Exchange(coordinator, factory, worker_set,
                                scheduler)
            try:
                return exchange.collect()
            finally:
                self.failures.extend(exchange.failures)
        with self.tracer.span("exchange", kind="pipeline",
                              workers=len(worker_set)) as span:
            for w, ctx in enumerate(worker_set.contexts):
                worker_tracer = Tracer()
                worker_tracer.watch(worker_set.tracer_view(w))
                ctx.tracer = worker_tracer
                ctx.worker_span = worker_tracer.begin(
                    "worker-{0}".format(w), kind="worker", worker=w)
            coordinator = ExecutionContext(self.vector_size)
            exchange = Exchange(coordinator, factory, worker_set,
                                scheduler)
            try:
                batches = exchange.collect()
            finally:
                self.failures.extend(exchange.failures)
                for ctx in worker_set.contexts:
                    ctx.tracer.end_all()
                    self.tracer.adopt(ctx.tracer.roots)
                    ctx.tracer = NO_TRACE
                    ctx.worker_span = None
            span.add("tuples_out", sum(len(b) for b in batches))
            return batches

    # -- plain projection -----------------------------------------------------

    def _run_projection(self, select, items, scope, tables, joins,
                        worker_set, scheduler):
        source = self._source_factory(select, scope, tables, joins)
        outputs = {}
        for i, (_, expr) in enumerate(items):
            outputs["c{0}".format(i)] = self._vector_expr(expr, scope)
        order_keys = self._projection_order_keys(select, items, scope,
                                                 outputs)

        def factory(ctx, sched, worker):
            return VectorProject(ctx, source(ctx, sched, worker),
                                 dict(outputs))

        batches = self._run_exchange(factory, worker_set, scheduler)
        arrays = _concat(batches, list(outputs))
        rows = list(zip(*[arrays[c].tolist() for c in
                          ["c{0}".format(i) for i in range(len(items))]])) \
            if len(items) and len(arrays["c0"]) else []
        key_rows = None
        if select.order_by:
            key_rows = list(zip(*[arrays[k].tolist() for k in order_keys])) \
                if rows else []
        names = [name for name, _ in items]
        rows = self._finish_rows(select, rows, key_rows)
        return names, _rows_to_columns(rows, len(items))

    def _projection_order_keys(self, select, items, scope, outputs):
        """ORDER BY keys for a plain projection: reuse an output column
        when the item names or equals one, else add a hidden output."""
        keys = []
        names = [name for name, _ in items]
        for j, order in enumerate(select.order_by):
            expr = order.expr
            if isinstance(expr, Column) and expr.table is None \
                    and expr.name in names:
                keys.append("c{0}".format(names.index(expr.name)))
                continue
            matched = None
            for i, (_, item_expr) in enumerate(items):
                if repr(item_expr) == repr(expr):
                    matched = "c{0}".format(i)
                    break
            if matched is not None:
                keys.append(matched)
                continue
            hidden = "o{0}".format(j)
            outputs[hidden] = self._vector_expr(expr, scope)
            keys.append(hidden)
        return keys

    def _finish_rows(self, select, rows, key_rows):
        """Serial finish: DISTINCT, ORDER BY, LIMIT on python rows."""
        if select.distinct:
            if key_rows is None:
                rows = _distinct(rows)
            else:
                pairs = _distinct_pairs(rows, key_rows)
                rows = [r for r, _ in pairs]
                key_rows = [k for _, k in pairs]
        if select.order_by:
            ascending = [o.ascending for o in select.order_by]
            order = order_rows(range(len(rows)),
                               lambda i, k: key_rows[i][k], ascending)
            rows = [rows[i] for i in order]
        if select.limit is not None:
            rows = rows[:select.limit]
        return rows

    # -- scalar aggregation ---------------------------------------------------

    def _run_scalar_aggregates(self, select, items, scope, tables, joins,
                               worker_set, scheduler):
        aggs = _AggregateSet(self, scope, self._probe_dtypes(tables))
        for _, expr in items:
            aggs.collect(expr)
        source = self._source_factory(select, scope, tables, joins)
        spec = aggs.partial_spec()

        def factory(ctx, sched, worker):
            return ScalarVectorAggregate(ctx, source(ctx, sched, worker),
                                         dict(spec))

        batches = self._run_exchange(factory, worker_set, scheduler)
        partials = _concat(batches, list(spec))
        finals = aggs.finalize_scalar(partials)
        row = tuple(_finish_value(_eval_item(expr, finals))
                    for _, expr in items)
        names = [name for name, _ in items]
        return names, _rows_to_columns([row], len(items))

    # -- grouped aggregation --------------------------------------------------

    def _run_grouped(self, select, items, scope, tables, joins,
                     worker_set, scheduler):
        if len(select.group_by) != 1 or \
                not isinstance(select.group_by[0], Column):
            raise ParallelUnsupported("parallel plans group by exactly "
                                      "one plain column")
        group_expr = select.group_by[0]
        group_key = scope.qualify(group_expr)
        group_repr = repr(group_expr)

        aggs = _AggregateSet(self, scope, self._probe_dtypes(tables))
        for _, expr in items:
            aggs.collect(expr, skip_reprs=(group_repr,))
        if select.having is not None:
            aggs.collect(select.having, skip_reprs=(group_repr,))
        source = self._source_factory(select, scope, tables, joins)
        spec = aggs.partial_spec()

        def factory(ctx, sched, worker):
            return VectorAggregate(ctx, source(ctx, sched, worker),
                                   group_key=group_key,
                                   aggregates=dict(spec))

        batches = self._run_exchange(factory, worker_set, scheduler)
        partials = _concat(batches, [group_key] + list(spec))
        groups = aggs.finalize_grouped(partials, group_key, group_repr)

        if select.having is not None:
            groups = [g for g in groups
                      if bool(_eval_item(select.having, g))]
        rows = [tuple(_finish_value(_eval_item(expr, g))
                      for _, expr in items) for g in groups]
        key_rows = None
        if select.order_by:
            key_rows = []
            names = [name for name, _ in items]
            for g, row in zip(groups, rows):
                key = []
                for order in select.order_by:
                    expr = order.expr
                    if isinstance(expr, Column) and expr.table is None \
                            and expr.name in names:
                        key.append(row[names.index(expr.name)])
                    else:
                        matched = [i for i, (_, e) in enumerate(items)
                                   if repr(e) == repr(expr)]
                        if not matched:
                            raise ParallelUnsupported(
                                "grouped ORDER BY must name an output")
                        key.append(row[matched[0]])
                key_rows.append(tuple(key))
        names = [name for name, _ in items]
        rows = self._finish_rows(select, rows, key_rows)
        return names, _rows_to_columns(rows, len(items))

    # -- type probing ---------------------------------------------------------

    def _probe_dtypes(self, tables):
        """A zero-length batch with every qualified column's dtype, for
        deciding aggregate result types exactly like the serial kernel."""
        from repro.vectorized.vector import Batch
        empty = {}
        for arrays in tables.values():
            for name, values in arrays.items():
                empty[name] = np.empty(0, dtype=values.dtype)
        return Batch(empty)


# -- aggregate bookkeeping ----------------------------------------------------

class _AggregateSet:
    """The distinct aggregate calls of one SELECT, with their partial
    decomposition (sum+count / min / max) and final combination rules
    matching the serial kernel's result types and empty-input nils.

    ``probe`` is a zero-length batch carrying every qualified column's
    dtype: aggregate inputs are type-checked against it (non-numeric
    inputs keep the serial path, whose min/max order strings) and the
    input dtype decides int-vs-float finals like the serial kernel.
    """

    def __init__(self, executor, scope, probe):
        self.executor = executor
        self.scope = scope
        self.probe = probe
        self.calls = {}     # repr -> (tag, FuncCall, input dtype kind)
        self._next = 0

    def collect(self, expr, skip_reprs=()):
        if repr(expr) in skip_reprs:
            return
        if isinstance(expr, FuncCall):
            if not expr.is_aggregate:
                raise ParallelUnsupported("function {0!r}".format(expr.name))
            if expr.distinct:
                raise ParallelUnsupported("DISTINCT aggregates")
            key = repr(expr)
            if key not in self.calls:
                kind = self._input_dtype_kind(expr)
                if expr.name != "count" and kind not in "iuf":
                    raise ParallelUnsupported(
                        "{0} over non-numeric input".format(expr.name))
                self.calls[key] = ("a{0}".format(self._next), expr, kind)
                self._next += 1
            return
        if isinstance(expr, BinOp):
            self.collect(expr.left, skip_reprs)
            self.collect(expr.right, skip_reprs)
            return
        if isinstance(expr, UnaryOp):
            self.collect(expr.operand, skip_reprs)
            return
        if isinstance(expr, (Literal, Column)):
            return
        raise ParallelUnsupported("expression {0!r}".format(expr))

    def _input_expr(self, call):
        if len(call.args) == 1 and isinstance(call.args[0], Star):
            if call.name != "count":
                raise ParallelUnsupported("* only valid in count(*)")
            return vexpr.Const(0)
        if len(call.args) != 1:
            raise ParallelUnsupported("aggregates take one argument")
        return self.executor._vector_expr(call.args[0], self.scope)

    def _input_dtype_kind(self, call):
        if len(call.args) == 1 and isinstance(call.args[0], Star):
            return "i"
        return np.asarray(self._input_expr(call)(self.probe)).dtype.kind

    def partial_spec(self):
        """{partial name: (kind, vector expr)} for the worker plans."""
        spec = {}
        for tag, call, _ in self.calls.values():
            value = self._input_expr(call)
            if call.name in ("sum", "avg"):
                spec[tag + "_sum"] = ("sum", value)
                spec[tag + "_cnt"] = ("count", value)
            elif call.name == "count":
                spec[tag + "_cnt"] = ("count", value)
            else:  # min / max
                spec[tag + "_" + call.name] = (call.name, value)
                spec[tag + "_cnt"] = ("count", value)
        return spec

    def finalize_scalar(self, partials):
        """Combine per-worker scalar partials into final values."""
        finals = {}
        for key, (tag, call, kind) in self.calls.items():
            count = int(partials[tag + "_cnt"].sum())
            finals[key] = self._combine(call, kind, count, partials, tag)
        return finals

    def _combine(self, call, kind, count, parts, tag):
        if call.name == "count":
            return count
        if count == 0:
            return None
        if call.name == "sum":
            total = float(parts[tag + "_sum"].sum())
            return int(total) if kind in "iu" else total
        if call.name == "avg":
            return float(parts[tag + "_sum"].sum()) / count
        if call.name == "min":
            value = float(np.nanmin(parts[tag + "_min"]))
        else:
            value = float(np.nanmax(parts[tag + "_max"]))
        return int(value) if kind in "iu" else value

    def finalize_grouped(self, partials, group_key, group_repr):
        """Combine per-worker grouped partials; one finals dict per
        group mapping the group-key repr and every aggregate's repr to
        its final value (ready for :func:`_eval_item`)."""
        keys = partials[group_key]
        order = {}
        for position, key in enumerate(keys.tolist()):
            order.setdefault(key, []).append(position)
        groups = []
        for key, positions in order.items():
            final = {group_repr: key}
            idx = np.asarray(positions, dtype=np.int64)
            for call_repr, (tag, call, kind) in self.calls.items():
                count = int(partials[tag + "_cnt"][idx].sum())
                parts = {name: partials[name][idx] for name in partials
                         if name.startswith(tag + "_")}
                final[call_repr] = self._combine(call, kind, count,
                                                 parts, tag)
            groups.append(final)
        return groups


# -- finish-phase expression evaluation ---------------------------------------

def _eval_item(expr, finals):
    """Evaluate a select item at finish time.  ``finals`` maps the repr
    of every aggregate call (and, for grouped queries, of the group-key
    expression) to its final value; arithmetic runs through the same
    numpy ops as the serial calc kernel so result types match."""
    key = repr(expr)
    if key in finals:
        return finals[key]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinOp):
        left = _eval_item(expr.left, finals)
        right = _eval_item(expr.right, finals)
        if left is None or right is None:
            return None
        op = _SQL_TO_VECTOR_OP.get(expr.op)
        if op is None:
            raise ParallelUnsupported("operator {0!r}".format(expr.op))
        return vexpr._OPS[op](left, right)
    if isinstance(expr, UnaryOp):
        operand = _eval_item(expr.operand, finals)
        if operand is None:
            return None
        if expr.op == "not":
            return np.logical_not(operand)
        if expr.op == "-":
            return np.negative(operand)
    raise ParallelUnsupported("expression {0!r}".format(expr))


def _finish_value(value):
    """numpy scalar -> plain python value (ResultSet convention)."""
    if isinstance(value, np.generic):
        return value.item()
    return value


# -- small helpers ------------------------------------------------------------

def _split_conjuncts(expr):
    if isinstance(expr, BinOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _contains_aggregate(expr):
    from repro.sql.ast import contains_aggregate
    return contains_aggregate(expr)


def _default_name(expr):
    if isinstance(expr, Column):
        return expr.name
    if isinstance(expr, FuncCall):
        if len(expr.args) == 1 and isinstance(expr.args[0], Column):
            return "{0}_{1}".format(expr.name, expr.args[0].name)
        return expr.name
    return "expr"


def _concat(batches, names):
    """Union batches into {name: array}, empty arrays when no rows."""
    from repro.vectorized.vector import concat_batches
    arrays = concat_batches(batches)
    if not arrays:
        return {name: np.empty(0) for name in names}
    return arrays


def _rows_to_columns(rows, width):
    if not rows:
        return [[] for _ in range(width)]
    return [list(column) for column in zip(*rows)]


def _distinct(rows):
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def _distinct_pairs(rows, key_rows):
    seen = set()
    out = []
    for row, key in zip(rows, key_rows):
        if row not in seen:
            seen.add(row)
            out.append((row, key))
    return out
