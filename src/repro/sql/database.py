"""The user-facing Database facade: parse -> compile -> optimize -> run.

Its ``SET`` pragmas live in one ``options``
(:class:`~repro.governance.context.ExecOptions`); ``execute``,
``query`` and ``profile`` take the engine's only per-call ``workers``
override.
"""

from repro.compile import PlanCompiler
from repro.core.bat import BAT
from repro.faults import NO_FAULTS
from repro.governance.context import (
    NO_GOVERNANCE, ExecOptions, run_governed,
)
from repro.mal.interpreter import Interpreter
from repro.mal.optimizer import CRACKING_PIPELINE, DEFAULT_PIPELINE
from repro.observability.tracer import NO_TRACE
from repro.sql.ast import (
    BeginTransaction, Column, CommitTransaction, CreateMaterializedView,
    CreateTable, Delete, DropMaterializedView, Explain, Insert, Profile,
    RollbackTransaction, Select, SelectItem, SetPragma, TableRef, Update,
    statement_kind,
)
from repro.sql.catalog import Catalog
from repro.sql.compiler import compile_select, compile_where_candidates
from repro.sql.parser import parse_sql
from repro.sql.partials import value_bat
from repro.sql.render import render_select
from repro.sql.statement_cache import StatementCache
from repro.sql.transactions import Transaction
from repro.views.maintainer import ViewMaintainer


class ResultSet:
    """Columnar query result: named columns of decoded Python values.

    ``bats`` are the engine's output BATs the columns were decoded
    from, where it kept them (None entries where not): a split query's
    finish merges shard legs' results as BATs (:meth:`bats`)."""

    def __init__(self, names, columns, bats=None):
        if len(names) != len(columns):
            raise ValueError("names/columns arity mismatch")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError("ragged result columns: {0}".format(lengths))
        self.names = list(names)
        self.columns = [list(c) for c in columns]
        self._bats = list(bats) if bats is not None \
            else [None] * len(columns)

    @classmethod
    def from_bats(cls, names, bats):
        """A result of output BATs, decoded once (every nil as None)."""
        return cls(names, [_decoded(bat) for bat in bats], bats=bats)

    def bats(self):
        """The columns as BATs: the engine's own where it kept them,
        else built from the decoded values."""
        return [bat if bat is not None else value_bat(values)
                for bat, values in zip(self._bats, self.columns)]

    def __len__(self):
        return len(self.columns[0]) if self.columns else 0

    def column(self, name):
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise KeyError("no result column {0!r}".format(name)) from None

    def rows(self):
        """All rows as a list of tuples."""
        return list(zip(*self.columns)) if self.columns else []

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.columns) != 1 or len(self) != 1:
            raise ValueError("result is not a single scalar")
        return self.columns[0][0]

    def __iter__(self):
        return iter(self.rows())

    def __str__(self):
        cells = [[_render(v) for v in row] for row in self.rows()]
        widths = [max([len(n)] + [len(row[i]) for row in cells])
                  for i, n in enumerate(self.names)]
        header = " | ".join(n.ljust(w) for n, w in zip(self.names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [" | ".join(c.ljust(w) for c, w in zip(row, widths))
                for row in cells]
        return "\n".join([header, rule] + body)


def _render(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return "{0:g}".format(value)
    return str(value)


def _decoded(bat):
    """A result column as Python values, every nil as None — as scalar
    aggregates and strings already come back."""
    values = bat.decoded()
    atom = bat.atom
    if atom.varsized or atom.dtype.kind not in "if":
        return values
    for position in atom.is_nil(bat.tail).nonzero()[0].tolist():
        values[position] = None
    return values


def _scalar(value):
    """A scalar result value; NaN, the DOUBLE nil, as None."""
    return None if value != value else value


class Database:
    """An embedded column-store database (Figure 1, end to end).

    Parameters
    ----------
    pipeline:
        The MAL optimizer pipeline applied to every compiled SELECT.
    recycler:
        Optional :class:`repro.recycling.Recycler`; when given, the
        recycling pipeline marking is expected to be part of ``pipeline``
        (see :data:`repro.mal.optimizer.RECYCLING_PIPELINE`) or the
        recycler must set ``cache_all``.
    smp_profile:
        Optional SMP :class:`~repro.hardware.profiles.HardwareProfile`
        for parallel SELECTs: each worker then simulates a private
        cache hierarchy over a shared last-level cache (see
        :mod:`repro.parallel`).  None (the default) runs parallel plans
        without cache simulation.
    wal:
        Optional :class:`~repro.wal.WriteAheadLog`.  Every write is
        checked (a rejected statement logs nothing), appended as a
        checksummed logical record, then applied — by the replay code
        itself, except a transaction's publish.  :meth:`recover`
        replays the log: complete records only, torn tails discarded.
    faults:
        Optional :class:`~repro.faults.FaultInjector` threaded through
        the commit path (``commit.validate`` / ``commit.publish`` /
        ``commit.apply``), the WAL (``wal.append``) and parallel
        execution (``morsel.run``).  Defaults to the inert injector.

    Execution: every planned program — a SELECT, an UPDATE's new rows,
    a DELETE's or UPDATE's WHERE candidates — runs as fused kernels
    (:mod:`repro.compile`) with per-fragment fallback to the MAL
    interpreter.  ``SET compile = false`` pins the interpreter, the
    reference engine; a database with a recycler or on the cracking
    pipeline starts pinned.

    Parallel execution: ``execute(sql, workers=N)`` (or the session
    pragma ``SET workers = N``) runs a SELECT on N simulated morsel
    workers, each running the statement's cached part plan over one
    row range of the first FROM table (:mod:`repro.parallel`); the
    parts merge in range order, so answers equal the serial engine's.
    FROM-less SELECTs, shapes the split cannot express and a self-join
    of the first table silently run serially (counted in
    ``parallel_fallbacks``).  An injected worker death mid-query
    re-dispatches the dead worker's morsels to the survivors (recorded
    in ``last_parallel.failures``); if every worker dies the query
    falls back to the serial engine.

    Results hold None for every NULL, whichever engine ran them.
    """

    def __init__(self, pipeline=DEFAULT_PIPELINE, recycler=None,
                 smp_profile=None, wal=None, faults=None, tracer=None):
        self.catalog = Catalog()
        self.pipeline = pipeline
        self.recycler = recycler
        # Session-wide tracing (repro.observability): off by default.
        self.tracer = tracer if tracer is not None else NO_TRACE
        self.interpreter = Interpreter(self.catalog, recycler=recycler,
                                       tracer=self.tracer)
        # Plan-for-reuse (§2): each statement shape is parsed and
        # planned once, its literals rebound per execution
        # (repro.sql.statement_cache).  plans_reused counts SELECTs
        # that skipped compile + optimize.
        self.statement_cache = StatementCache()
        self.plans_reused = 0
        # Durability and fault injection (repro.wal / repro.faults).
        self.faults = faults if faults is not None else NO_FAULTS
        self.wal = wal
        if wal is not None and wal.faults is NO_FAULTS:
            wal.faults = self.faults
        if wal is not None and self.tracer.enabled:
            wal.tracer = self.tracer
        # The SET pragmas.  Two engines start with compile off: the
        # recycler caches interpreter instruction results, which kernels
        # would run past, and a cracked range select pays off against an
        # interpreted scan only (on the compiled path it loses to a
        # fused scan).
        self.options = ExecOptions(
            compile=recycler is None and pipeline is not CRACKING_PIPELINE)
        # Intra-query parallelism (repro.parallel).
        self.smp_profile = smp_profile
        self.parallel_runs = 0
        self.parallel_fallbacks = 0
        self.plan_compiler = PlanCompiler(self, self.statement_cache.kernels)
        self.last_parallel = None  # ParallelResult of the latest SELECT
        self.governance_kills = 0
        self.last_profile = None   # QueryProfile of the latest PROFILE
        # Two-phase commit bookkeeping: prepared-but-undecided records
        # seen during WAL replay (xid -> ops), resolved by the sharding
        # coordinator's decision log after recovery.
        self._pending_prepares = {}
        # Monotone commit sequence number, bumped once per published
        # commit, live or replayed (a no-op write takes none).  The
        # session layer stamps snapshots and commits with it.
        self.commit_seq = 0
        # Materialized views (repro.views): maintained incrementally
        # from the committed deltas flowing through _apply_ops.
        self.views = ViewMaintainer(self)

    @classmethod
    def with_recycling(cls, capacity_bytes=None, policy="benefit"):
        """A database with the recycler wired in (Section 6.1)."""
        from repro.mal.optimizer import RECYCLING_PIPELINE
        from repro.recycling import Recycler
        return cls(pipeline=RECYCLING_PIPELINE,
                   recycler=Recycler(capacity_bytes=capacity_bytes,
                                     policy=policy))

    @classmethod
    def with_cracking(cls):
        """A database whose range selections crack columns (§6.1)."""
        return cls(pipeline=CRACKING_PIPELINE)

    # -- statement routing ---------------------------------------------------

    def _schema_changed(self):
        """The one invalidation call: the schema changed, so every
        cached statement, plan and compiled kernel (and every rejected
        verdict) is suspect."""
        self.statement_cache.clear()

    def execute(self, sql, workers=None, context=None):
        """Execute one SQL statement (autocommit).

        Returns a :class:`ResultSet` for SELECT, the affected row count
        for DML, None for DDL, and for ``EXPLAIN``/``PROFILE`` a
        one-column ``plan`` ResultSet holding the rendered plan or
        span-tree lines.  ``workers`` overrides ``options.workers``
        (``SET workers = N``) for this statement.

        ``context`` is an optional
        :class:`~repro.governance.QueryContext` checked cooperatively
        at every engine checkpoint (per MAL instruction, per compiled
        fragment, per morsel); without one, ``SET deadline`` /
        ``SET memory_budget`` make the statement run under an owned
        context built from those defaults.  A governance kill raises
        the matching :class:`~repro.governance.GovernanceError` —
        always *before* the statement's commit point, so committed
        state is untouched.
        """
        options = self.options if workers is None else \
            self.options.set(SetPragma("workers", workers))
        if not self.tracer.enabled:
            return run_governed(self, sql, context, options)
        label = sql if isinstance(sql, str) else repr(sql)
        with self.tracer.span("statement", kind="statement",
                              sql=label[:200]):
            return run_governed(self, sql, context, options)

    def _governed(self, exc):
        self.governance_kills += 1

    def _execute_statement(self, sql, context=None, options=None):
        workers = (options or self.options).workers
        # Pre-parsed statement ASTs run directly (sessions, sharding and
        # replication route statements as ASTs, not text).
        statement = parse_sql(sql, self.statement_cache) \
            if isinstance(sql, str) else sql
        if isinstance(statement, Select):
            if workers > 1:
                result = self._run_parallel(statement, workers,
                                            self.tracer, self.smp_profile,
                                            context=context)
                if result is not None:
                    return result.result
            return self._run_select(statement, view=self.catalog,
                                    context=context)
        if isinstance(statement, Explain):
            plan = self._explain_statement(statement.statement)
            return ResultSet(["plan"], [plan.splitlines()])
        if isinstance(statement, Profile):
            profile = self._profile_statement(
                statement.statement, statement.sql or "", workers=workers)
            self.last_profile = profile
            return ResultSet(["plan"], [profile.text().splitlines()])
        if isinstance(statement, SetPragma):
            self.options = self.options.set(statement)
            return None
        if isinstance(statement, (BeginTransaction, CommitTransaction,
                                  RollbackTransaction)):
            raise TypeError(
                "{0} needs a session (repro.sessions.Session); "
                "Database.execute is autocommit-only".format(
                    statement_kind(statement)))
        if isinstance(statement, CreateTable):
            self.catalog.check_new_table(statement.name, statement.columns,
                                         statement.partition_by)
            record = {"kind": "create", "table": statement.name,
                      "columns": [list(c) for c in statement.columns]}
            if statement.partition_by is not None:
                record["partition_by"] = statement.partition_by
            self._write(record)
            return None
        if isinstance(statement, CreateMaterializedView):
            self.views.validate(statement.name, statement.select)
            self._write({"kind": "create_view", "name": statement.name,
                         "sql": statement.select_sql
                         or render_select(statement.select)})
            return None
        if isinstance(statement, DropMaterializedView):
            if not self.views.is_view(statement.name):
                raise KeyError(
                    "no materialized view {0!r}".format(statement.name))
            self._write({"kind": "drop_view", "name": statement.name})
            return None
        if not isinstance(statement, (Insert, Delete, Update)):
            raise TypeError("unsupported statement {0!r}".format(statement))
        self._reject_view_dml(statement.table)
        table = self.catalog.get(statement.table)
        oids = []
        if isinstance(statement, Insert):
            rows = table.checked_rows(statement.rows, statement.columns)
        else:
            rows = table.checked_rows(self._eval_update_rows(
                table, statement, view=self.catalog, context=context)) \
                if isinstance(statement, Update) else []
            oids = self._eval_where(statement, view=self.catalog,
                                    context=context)
        if not rows and not oids:
            return 0  # changes nothing: logs nothing, takes no number
        deleted = self._write({"kind": "commit", "ops": [
            {"table": table.name, "appends": rows,
             "deletes": sorted(int(o) for o in oids)}]})
        return deleted if oids else len(rows)

    def query(self, sql, workers=None):
        """Shorthand: execute a SELECT and return its rows."""
        return self.execute(sql, workers=workers).rows()

    def _run_parallel(self, statement, workers, tracer, smp_profile,
                      context=None):
        """A SELECT's :class:`~repro.parallel.ParallelResult`, or None
        when the shape has no parallel plan or every worker died (the
        caller then runs the serial engine — graceful degradation,
        recorded in ``last_parallel``).  Keeps the parallel counters."""
        from repro.parallel.exchange import ParallelExecutionFailed
        from repro.parallel.executor import (
            ParallelResult, ParallelSelectExecutor, ParallelUnsupported,
        )
        executor = ParallelSelectExecutor(
            self, workers, smp_profile=smp_profile, tracer=tracer,
            governance=context)
        try:
            result = executor.execute(statement)
        except ParallelUnsupported:
            self.parallel_fallbacks += 1
            return None
        except ParallelExecutionFailed as failure:
            self.parallel_fallbacks += 1
            self.last_parallel = ParallelResult(
                None, None, failures=list(failure.failures),
                fell_back=True)
            return None
        self.parallel_runs += 1
        self.last_parallel = result
        return result

    def explain(self, sql):
        """The optimized MAL program for a SELECT, as text."""
        statement = parse_sql(sql)
        if isinstance(statement, Explain):
            statement = statement.statement
        return self._explain_statement(statement)

    def _explain_statement(self, statement):
        if not isinstance(statement, Select):
            raise TypeError(
                "EXPLAIN supports only SELECT statements, got {0}".format(
                    statement_kind(statement)))
        program, _ = compile_select(self.catalog, statement)
        return str(self.pipeline.optimize(program))

    def profile(self, sql, workers=None, hardware_profile=None):
        """Execute a SELECT with tracing on; returns a
        :class:`~repro.observability.QueryProfile`.

        A serial profile charges the interpreter's simulated memory
        traffic against a fresh hierarchy (``hardware_profile``,
        default :data:`~repro.hardware.profiles.SCALED_DEFAULT`) that
        the query tracer watches, so the span tree's cycle total equals
        the hierarchy's global accounting exactly.  With ``workers > 1``
        (or ``SET workers``) the parallel engine runs instead: one span
        stream per worker (watching that worker's private hierarchy),
        merged under the exchange span, with per-morsel attribution.
        Queries without a parallel plan shape fall back to a serial
        profile, like ``execute``.
        """
        statement = parse_sql(sql) if isinstance(sql, str) else sql
        if isinstance(statement, Profile):
            statement = statement.statement
        profile = self._profile_statement(
            statement, sql if isinstance(sql, str) else "",
            workers=self.options.workers if workers is None
            else self.options.set(SetPragma("workers", workers)).workers,
            hardware_profile=hardware_profile)
        self.last_profile = profile
        return profile

    def _profile_statement(self, statement, sql_text, workers=1,
                           hardware_profile=None):
        from repro.hardware.profiles import SCALED_DEFAULT, SCALED_SMP
        from repro.observability.profiling import QueryProfile
        from repro.observability.tracer import Tracer
        if not isinstance(statement, Select):
            raise TypeError(
                "PROFILE supports only SELECT statements, got {0}".format(
                    statement_kind(statement)))
        tracer = Tracer()
        if workers > 1:
            with tracer.span("query", kind="query", sql=sql_text[:200],
                             engine="parallel", workers=workers):
                result = self._run_parallel(
                    statement, workers, tracer,
                    SCALED_SMP if self.smp_profile is None
                    else self.smp_profile)
            if result is not None:
                return QueryProfile(tracer.roots[-1], result.result,
                                    worker_set=result.worker_set)
            tracer.roots.clear()  # restart the tree for the serial run
        hierarchy = (SCALED_DEFAULT if hardware_profile is None
                     else hardware_profile).make_hierarchy()
        tracer.watch(hierarchy)
        with tracer.span("query", kind="query", sql=sql_text[:200],
                         engine="serial"):
            with tracer.span("compile", kind="phase"):
                program, names = compile_select(self.catalog, statement)
                program = self.pipeline.optimize(program)
            with tracer.span("execute", kind="pipeline",
                             kernels=self.options.compile):
                out = self._run_program(program, self.catalog,
                                        tracer=tracer, hierarchy=hierarchy)
        return QueryProfile(tracer.roots[-1],
                            self._materialize_result(program, names, out),
                            hierarchy=hierarchy)

    def begin(self, pin=False):
        """Start a snapshot-isolation transaction.

        ``pin=True`` snapshots every existing table immediately, so the
        snapshot is one consistent cross-table point in time (sessions
        use this); the default pins each table lazily at first touch.
        """
        return Transaction(self, pin=pin)

    # -- internals shared with Transaction ----------------------------------------

    def _plan(self, statement, role, build):
        """``(optimized program, output names, shape)`` of one planned
        statement (``role`` "select", "where" or "update").

        A statement parsed through the statement cache carries
        ``params``: its plan and kernel identity (a
        :class:`~repro.compile.shapes.PlanShape`) come from the cache
        when one fits its key, literal values and conjunct order, else
        ``build(orders)`` compiles it and the optimized result is
        filed.  Failures are never filed.  A statement without
        ``params`` is planned afresh, its shape None.
        """
        params = statement.params
        if params is not None:
            found = self.statement_cache.plan(role, params, self.catalog)
            if found is not None:
                if role == "select":
                    self.plans_reused += 1
                return found
        orders = []
        program, names = build(orders)
        program = self.pipeline.optimize(program)
        if params is None:
            return program, names, None
        return self.statement_cache.store(role, params, program, names,
                                          orders)

    def _run_select(self, statement, view, context=None):
        program, names, shape = self._plan(
            statement, "select",
            lambda orders: compile_select(self.catalog, statement, orders))
        out = self._run_program(program, view, shape, context=context)
        return self._materialize_result(program, names, out)

    def _run_program(self, program, view, shape=None, context=None,
                     tracer=None, hierarchy=None):
        """``{return var: value}`` of a planned program run against
        ``view`` (the catalog, a transaction snapshot or a morsel's
        range view): the one run path of every SELECT, UPDATE-rows and
        WHERE-candidates plan.  Compiled unless ``SET compile = false``,
        with per-fragment fallback to the interpreter; ``shape`` is the
        plan's kernel identity from :meth:`_plan` (None: normalized
        per run).  A ``tracer`` or ``hierarchy`` gives the run its own
        span stream and simulated caches."""
        tracer = self.tracer if tracer is None else tracer
        if view is self.catalog and tracer is self.tracer \
                and hierarchy is None:
            interpreter = self.interpreter
        else:
            interpreter = Interpreter(view, recycler=self.recycler,
                                      tracer=tracer, hierarchy=hierarchy)
        interpreter.governance = context if context is not None \
            else NO_GOVERNANCE
        try:
            if self.options.compile:
                out = self.plan_compiler.try_run(program, view,
                                                 interpreter, shape,
                                                 tracer=tracer,
                                                 hierarchy=hierarchy)
                if out is not None:
                    return out
            return interpreter.run(program)
        finally:
            interpreter.governance = NO_GOVERNANCE

    @staticmethod
    def _returns(program, out):
        """``(values, n)``: a planned program's return values, each
        scalar as :func:`_scalar` gives it, and the result's row count.
        A pure scalar result (aggregates without GROUP BY) is one row;
        scalars beside columns are constant expressions (SELECT -5, k
        FROM t), broadcast to the columns' length."""
        values = [out[name] for name in program.returns]
        widths = [len(v) for v in values if isinstance(v, BAT)]
        return [v if isinstance(v, BAT) else _scalar(v) for v in values], \
            max(widths) if widths else 1

    @classmethod
    def _materialize_result(cls, program, names, out):
        values, n = cls._returns(program, out)
        return ResultSet(names, [_decoded(v) if isinstance(v, BAT)
                                 else [v] * n for v in values],
                         bats=[v if isinstance(v, BAT) else None
                               for v in values])

    @classmethod
    def _result_bats(cls, program, out):
        """A planned program's output as BATs, undecoded: a split
        query's part (a scalar becomes a column of its own)."""
        values, n = cls._returns(program, out)
        return [v if isinstance(v, BAT) else value_bat([v] * n)
                for v in values]

    def _eval_where(self, statement, view, context=None):
        """Visible oids of a DELETE/UPDATE's table matching its WHERE."""
        program, _, shape = self._plan(
            statement, "where",
            lambda orders: (compile_where_candidates(
                self.catalog, statement.table, statement.where, orders),
                None))
        out = self._run_program(program, view, shape, context=context)
        return out[program.returns[0]].decoded()

    def _eval_update_rows(self, table, statement, view, context=None):
        """New full rows (column order) for an UPDATE's matched tuples."""
        def build(orders):
            assigned = dict(statement.assignments)
            unknown = set(assigned) - set(table.column_names)
            if unknown:
                raise KeyError("UPDATE of unknown column(s) {0}".format(
                    sorted(unknown)))
            items = [SelectItem(assigned.get(c, Column(c)), alias=c)
                     for c in table.column_names]
            select = Select(items=items, table=TableRef(table.name),
                            where=statement.where)
            return compile_select(self.catalog, select, orders)
        program, names, shape = self._plan(statement, "update", build)
        out = self._run_program(program, view, shape, context=context)
        return self._materialize_result(program, names, out).rows()

    def _reject_view_dml(self, table_name):
        """Views are read-only derived state: DML targets base tables."""
        if self.views.is_view(table_name):
            raise ValueError(
                "materialized view {0!r} is read-only; modify its base "
                "tables instead".format(table_name))

    # -- the write path: check, log, replay ----------------------------------

    def _write(self, record):
        """Log ``record`` (when there is a WAL), then apply it with
        :meth:`_replay_record`, so live state is what replay rebuilds.
        Callers check their statement completely first: a rejected
        statement never reaches the log."""
        if self.wal is not None:
            self.wal.append(record)
        return self._replay_record(record)

    def _bump_commit(self):
        """Advance and return the commit sequence number (one commit
        just published)."""
        self.commit_seq += 1
        return self.commit_seq

    def _apply_ops(self, ops):
        """Publish logical ops to the catalog: the apply step of a
        ``commit`` (and a committed ``decide``) record in
        :meth:`_replay_record`, and of a transaction's (or 2PC
        participant's) table-by-table publish.  Returns the number of
        rows (freshly) deleted.

        Materialized views watching a table get the op's delta —
        appended and (freshly) removed rows — folded in right here,
        atomically with the base-table change, so every write (live,
        recovered, replicated, 2PC, resharding) keeps views consistent
        without knowing they exist.
        """
        deleted = 0
        for op in ops:
            table = self.catalog.get(op["table"])
            watched = self.views.watching(op["table"])
            removed = []
            if watched and op["deletes"]:
                # Capture doomed rows before delete_oids hides them.
                removed = [table.row(oid) for oid in
                           table.fresh_oids(op["deletes"]).tolist()]
            appended = []
            if op["appends"]:
                oids = table.append_rows(op["appends"])
                if watched:
                    appended = [table.row(o) for o in oids]
            if op["deletes"]:
                deleted += table.delete_oids(op["deletes"])
            if watched and (appended or removed):
                self.views.apply_delta(op["table"], appended, removed)
        return deleted

    def _replay_record(self, record):
        """Apply one logical WAL record to the live catalog: the one
        dispatch point of live writes (:meth:`_write`), :meth:`recover`
        and replica apply.  Returns a ``commit``'s deleted-row count.
        Unknown keys on the record (e.g. the replication layer's
        ``term``/``lsn`` stamps) are ignored.
        """
        kind = record.get("kind")
        if kind == "commit":
            deleted = self._apply_ops(record["ops"])
            self._bump_commit()
            return deleted
        if kind == "create":
            self.catalog.create_table(
                record["table"],
                [tuple(c) for c in record["columns"]],
                partition_by=record.get("partition_by"))
            self._schema_changed()
        elif kind == "create_view":
            # Re-installing the view re-materializes its backing table
            # from the (replayed) base tables; subsequent commit
            # records then maintain it exactly as live execution did.
            select = parse_sql(record["sql"])
            self.views.create(record["name"], select)
            self._schema_changed()
        elif kind == "drop_view":
            self.views.drop(record["name"])
            self._schema_changed()
        elif kind == "prepare":
            # Two-phase commit (repro.sharding): the record is durable
            # but undecided; it applies only when a decide-commit
            # follows, or when the coordinator's decision log resolves
            # it after recovery (presumed abort otherwise).
            self._pending_prepares[record["xid"]] = record["ops"]
        elif kind == "decide":
            ops = self._pending_prepares.pop(record["xid"], None)
            if record["outcome"] == "commit" and ops is not None:
                self._apply_ops(ops)
                self._bump_commit()
        elif kind == "stage":
            # Online-resharding staging (repro.sharding.resharding):
            # migrated rows parked durably on the target but *not*
            # visible — the cutover's install commit materializes them.
            # The migration rebuilds its staged state by scanning the
            # WAL, so replay has nothing to apply here.
            pass
        else:
            raise ValueError(
                "unknown WAL record kind {0!r}".format(kind))

    def recover(self):
        """Rebuild the catalog by replaying the write-ahead log.

        Models restart after a crash: the in-memory catalog is
        discarded wholesale and every *complete* WAL record is replayed
        in order (the WAL's torn tail, if an append was cut short, is
        discarded and truncated).  Replay is idempotent — recovering
        twice, or recovering an instance that never crashed, yields
        the same state with no duplicated rows — because it always
        starts from an empty catalog; replication failover retries
        lean on this.  A mid-log checksum failure raises
        :class:`~repro.wal.WalCorruptionError` *before* the catalog is
        touched.  Returns the number of records replayed.
        """
        if self.wal is None:
            raise RuntimeError("recover() needs a write-ahead log")
        records = self.wal.recover()
        self.catalog = Catalog()
        self.views = ViewMaintainer(self)  # rebuilt by create_view replay
        self.interpreter = Interpreter(self.catalog,
                                       recycler=self.recycler,
                                       tracer=self.tracer)
        if self.recycler is not None:
            self.recycler.clear()  # cached results may predate the crash
        self._schema_changed()
        self.last_parallel = None
        self._pending_prepares = {}
        self.commit_seq = 0  # rebuilt by replay
        for record in records:
            self._replay_record(record)
        return len(records)

    @property
    def in_doubt(self):
        """Xids of prepared-but-undecided 2PC transactions after
        :meth:`recover` (empty outside distributed operation)."""
        return sorted(self._pending_prepares)

    def resolve_in_doubt(self, committed_xids):
        """Settle in-doubt 2PC participants after recovery.

        ``committed_xids``: xids the coordinator's decision log marked
        committed; every other in-doubt xid is presumed aborted.  Each
        decision is written as a local ``decide`` record (applying a
        committed xid's prepared ops).  Returns the number committed.
        """
        decided = sorted(self._pending_prepares)
        for xid in decided:
            self._write({"kind": "decide", "xid": xid,
                         "outcome": "commit" if xid in committed_xids
                         else "abort"})
        return sum(1 for xid in decided if xid in committed_xids)
