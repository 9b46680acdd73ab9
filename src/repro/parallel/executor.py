"""Parallel SELECT execution: SQL AST -> exchange-parallel vectorized plan.

The serial SQL path compiles to MAL and interprets BAT-at-a-time; this
module is the intra-query-parallel alternative: the same ``Select`` AST
is compiled into N per-worker pull-based vectorized pipelines — a
:class:`~repro.parallel.exchange.MorselScan` over the first FROM table,
broadcast hash joins, vectorized filters, and per-worker *partial*
aggregation — merged by an :class:`~repro.parallel.exchange.Exchange`
and finished serially (final aggregation, DISTINCT, ORDER BY, LIMIT).
The split into partials and the finish are the shard coordinator's
(:mod:`repro.sql.partials`): a worker's output is to the morsel engine
what a shard's leg result is to the coordinator.

Queries the parallel compiler cannot express raise
:class:`ParallelUnsupported`; the caller (``Database.execute``) falls
back to the serial engine, so parallelism never changes which queries
run — only how.  Answers are the same *multiset* as the serial engine's
(union order differs; compare with ``tests.helpers.assert_same_rows``).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults import NO_FAULTS
from repro.governance.context import CHECK_MORSEL, NO_GOVERNANCE
from repro.observability.tracer import NO_TRACE, Tracer
from repro.parallel.context import WorkerSet
from repro.parallel.exchange import Exchange, MorselScan
from repro.parallel.morsels import DEFAULT_MORSEL_SIZE, MorselScheduler
from repro.sql.ast import (
    BinOp, Column, IsNull, Literal, Select, Star, UnaryOp,
    contains_aggregate, expand_items, split_conjuncts,
)
from repro.sql.partials import (
    Undecomposable, merge_aggregates, merge_rows, output_position,
    split_aggregates, split_rows,
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
from repro.vectorized.vector import Batch, concat_batches

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

        has_aggs = bool(select.group_by) or any(
            contains_aggregate(item.expr) for item in select.items)
        try:
            items = expand_items(select.items,
                                 [(b.alias, b.columns)
                                  for b in scope.bindings])
        except LookupError as exc:
            raise ParallelUnsupported(exc.args[0]) from None

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
        run = self._run_aggregates if has_aggs else self._run_projection
        # Zero divisors warn nowhere, as in algebra.calc.
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = run(select, items, scope, tables, joins, worker_set,
                       scheduler)
        columns = [list(column) for column in zip(*rows)] if rows \
            else [[] for _ in items]
        return ParallelResult([name for name, _ in items], columns,
                              worker_set, scheduler,
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
        for conjunct in split_conjuncts(join.condition):
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
            filters.extend(split_conjuncts(select.where))
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
        try:
            plan, hidden = split_rows(select, items)
        except Undecomposable as exc:
            raise ParallelUnsupported(str(exc)) from None
        exprs = [expr for _, expr in items] + hidden
        outputs = {"c{0}".format(i): self._vector_expr(expr, scope)
                   for i, expr in enumerate(exprs)}
        source = self._source_factory(select, scope, tables, joins)

        def factory(ctx, sched, worker):
            return VectorProject(ctx, source(ctx, sched, worker),
                                 dict(outputs))

        arrays = concat_batches(
            self._run_exchange(factory, worker_set, scheduler))
        rows = list(zip(*[arrays[name].tolist() for name in outputs])) \
            if arrays else []
        return merge_rows(plan, [rows])

    # -- aggregation ----------------------------------------------------------

    def _run_aggregates(self, select, items, scope, tables, joins,
                        worker_set, scheduler):
        """Workers compute the decomposed partials; the finish merges
        them exactly as the shard coordinator merges its legs'."""
        if select.group_by:
            if len(select.group_by) != 1 or \
                    not isinstance(select.group_by[0], Column):
                raise ParallelUnsupported("parallel plans group by exactly "
                                          "one plain column")
            if any(output_position(order.expr, items) is None
                   for order in select.order_by):
                raise ParallelUnsupported(
                    "grouped ORDER BY must name an output")
        else:
            # One output row, which the serial engine returns whatever
            # HAVING, ORDER BY, DISTINCT or LIMIT say.
            select = replace(select, having=None, order_by=[],
                             distinct=False, limit=None)
        if any(_has_is_null(expr) for _, expr in items) or \
                _has_is_null(select.having):
            raise ParallelUnsupported("IS NULL over aggregates")
        try:
            plan = split_aggregates(select, items)
        except Undecomposable as exc:
            raise ParallelUnsupported(
                "undecomposable {0!r}".format(exc.args[0])) from None
        probe = self._probe_dtypes(tables)
        spec = {}
        as_int = set()
        for i, (kind, call) in enumerate(plan.partials):
            name = "p{0}".format(i)
            value = self._aggregate_input(call, scope)
            dtype = np.asarray(value(probe)).dtype.kind
            if kind != "count" and dtype not in "iuf":
                raise ParallelUnsupported(
                    "{0} over non-numeric input".format(call.name))
            spec[name] = (kind, value)
            if kind != "count" and dtype in "iu":
                # Partials accumulate in float64; the serial engine
                # answers integer sums and extrema as integers.
                as_int.add(name)
        source = self._source_factory(select, scope, tables, joins)
        names = list(spec)
        if select.group_by:
            names.insert(0, scope.qualify(select.group_by[0]))

            def factory(ctx, sched, worker):
                return VectorAggregate(ctx, source(ctx, sched, worker),
                                       group_key=names[0],
                                       aggregates=dict(spec))
        else:
            spec["rows"] = ("count", vexpr.Const(0))

            def factory(ctx, sched, worker):
                return ScalarVectorAggregate(
                    ctx, source(ctx, sched, worker), dict(spec))

        arrays = concat_batches(
            self._run_exchange(factory, worker_set, scheduler))
        if not select.group_by and arrays:
            # A worker that saw no rows ships no partial row — as if
            # every partial it shipped were None.
            seen = arrays["rows"] > 0
            arrays = {name: arrays[name][seen] for name in names}
        columns = [arrays[name].astype(np.int64).tolist()
                   if name in as_int else arrays[name].tolist()
                   for name in names] if arrays else []
        return merge_aggregates(plan, [list(zip(*columns))])

    def _aggregate_input(self, call, scope):
        """The vector expression one aggregate call consumes."""
        if len(call.args) == 1 and isinstance(call.args[0], Star):
            if call.name != "count":
                raise ParallelUnsupported("* only valid in count(*)")
            return vexpr.Const(0)
        if len(call.args) != 1:
            raise ParallelUnsupported("aggregates take one argument")
        return self._vector_expr(call.args[0], scope)

    # -- type probing ---------------------------------------------------------

    def _probe_dtypes(self, tables):
        """A zero-length batch with every qualified column's dtype, for
        deciding aggregate result types exactly like the serial kernel."""
        empty = {}
        for arrays in tables.values():
            for name, values in arrays.items():
                empty[name] = np.empty(0, dtype=values.dtype)
        return Batch(empty)


def _has_is_null(expr):
    """True for an IS NULL outside aggregate arguments: the serial
    engine rejects it over aggregates, so the morsel engine declines."""
    if isinstance(expr, IsNull):
        return True
    if isinstance(expr, BinOp):
        return _has_is_null(expr.left) or _has_is_null(expr.right)
    if isinstance(expr, UnaryOp):
        return _has_is_null(expr.operand)
    return False
