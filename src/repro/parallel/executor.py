"""Parallel SELECT execution: the statement's own plan, once per morsel.

The exchange idiom ("Query Optimization in the Wild"): parallelism
lives inside the exchange operators, and the plan beneath them is the
one serial plan.  A SELECT splits into a *part* SELECT plus a
:class:`~repro.sql.partials.SplitPlan` — the split the shard
coordinator makes for its legs.  The part SELECT (under its own key)
is planned once in the engine's statement cache; each worker then runs
that optimized plan through the engine's one run path (compiled
kernels unless ``SET compile = false``) over one row range of the
first FROM table.  A part is the plan's output BATs, never decoded
rows; the parts merge in morsel order, once, in BAT algebra through
:func:`~repro.sql.partials.merge_rows` /
:func:`~repro.sql.partials.merge_aggregates`, and only the merged
columns are decoded.

A worker sees the catalog through a read-only range view whose
``sql.tid`` of the first table is its morsel's slice of the visible
oids.  Morsels are ``ceil(visible rows / workers)`` rows, so a
statement costs at most ``workers`` plan runs and a projection comes
back in scan order.

Statements the split cannot express raise :class:`ParallelUnsupported`
and the caller (``Database.execute``) runs them serially: FROM-less
SELECTs, :class:`~repro.sql.partials.Undecomposable` shapes, and a
self-join of the first table (the range view restricts a table by
name, so both sides of it would shrink).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.atoms import OID
from repro.core.bat import BAT
from repro.governance.context import NO_GOVERNANCE
from repro.observability.tracer import NO_TRACE, Tracer
from repro.parallel.context import WorkerSet
from repro.parallel.exchange import Exchange, MorselSource
from repro.parallel.morsels import MorselScheduler
from repro.sql.ast import Select
from repro.sql.compiler import compile_select
from repro.sql.database import ResultSet
from repro.sql.partials import (
    Undecomposable, merge_aggregates, merge_rows, split_select,
)
from repro.vectorized.operators import ExecutionContext


class ParallelUnsupported(Exception):
    """The query shape has no parallel plan; run it serially."""


@dataclass
class ParallelResult:
    """Outcome of one parallel SELECT.

    ``failures`` lists every worker death the query survived (the
    morsels were re-dispatched to survivors); ``fell_back`` marks a
    query that lost *all* its workers and was answered by the serial
    engine instead (``result`` is then None — the serial ResultSet
    carries the answer).

    ``result`` is the merged answer: a ResultSet of the merged output
    BATs, decoded once (None for nil).
    """

    result: ResultSet
    worker_set: WorkerSet
    failures: list = field(default_factory=list)
    fell_back: bool = False

    @property
    def names(self):
        return self.result.names if self.result is not None else []

    @property
    def columns(self):
        """The answer's decoded values, one list per output column."""
        return self.result.columns if self.result is not None else []

    def profile(self):
        """Per-worker/per-operator profile (ExecutionContext shape)."""
        if self.worker_set is None:
            return {}
        return self.worker_set.profile_report()


class ParallelSelectExecutor:
    """Runs one SELECT of ``database`` on ``workers`` simulated workers.

    ``smp_profile`` gives each worker a private simulated cache
    hierarchy over a shared last-level cache (None: no simulation).
    """

    def __init__(self, database, workers, smp_profile=None, tracer=None,
                 governance=None):
        self.database = database
        self.workers = workers
        self.smp_profile = smp_profile
        self.tracer = tracer if tracer is not None else NO_TRACE
        # Governance context (repro.governance): checked once per
        # morsel acquisition and per instruction of each part run; a
        # kill propagates out of Exchange.collect (which quarantines
        # only CrashError) without poisoning the per-query scheduler.
        self.governance = governance if governance is not None \
            else NO_GOVERNANCE

    def execute(self, select):
        if not isinstance(select, Select):
            raise TypeError("expected a Select AST node")
        if select.table is None:
            raise ParallelUnsupported("FROM-less SELECT")
        db = self.database
        catalog = db.catalog
        first = select.table.name
        refs = [select.table] + [join.table for join in select.joins]
        if any(ref.name == first for ref in refs[1:]):
            raise ParallelUnsupported("self-join of the scanned table")
        try:
            part, plan = split_select(
                select, [(ref.binding, catalog.get(ref.name).column_names)
                         for ref in refs])
        except Undecomposable as exc:
            raise ParallelUnsupported(str(exc)) from None

        def build(orders):
            # Only a statement the serial engine accepts gets a part
            # plan: its compile errors are the statement's errors.
            compile_select(catalog, select)
            return compile_select(catalog, part, orders)

        program, _, shape = db._plan(part, "select", build)
        visible = catalog.tid(first).tail

        def run(ctx, morsel):
            view = _RangeView(catalog, first,
                              visible[morsel.start:morsel.stop])
            out = db._run_program(program, view, shape,
                                  context=self.governance,
                                  tracer=ctx.tracer, hierarchy=ctx.hierarchy)
            return db._result_bats(program, out)

        def factory(ctx, scheduler, worker):
            return _MorselPart(ctx, scheduler, run, worker=worker,
                               faults=db.faults, governance=self.governance)

        worker_set = WorkerSet(self.workers, profile=self.smp_profile)
        scheduler = MorselScheduler(
            len(visible), self.workers,
            morsel_size=max(1, -(-len(visible) // self.workers)))
        exchange = Exchange(ExecutionContext(), factory, worker_set,
                            scheduler)
        parts = sorted(self._collect(exchange, worker_set),
                       key=lambda p: p.index)
        merge = merge_aggregates if plan.aggregate else merge_rows
        result = ResultSet.from_bats(plan.names,
                                     merge(plan, [p.bats for p in parts]))
        return ParallelResult(result, worker_set,
                              failures=list(exchange.failures))

    def _collect(self, exchange, worker_set):
        """Drain ``exchange``; returns the parts.

        Collection quarantines per-worker output so injected worker
        deaths recover exactly (see :meth:`Exchange.collect`).  When
        this executor carries an enabled tracer, the whole drain runs
        inside an ``exchange`` span; each worker gets a *private* tracer
        (watching its private hierarchy) whose completed span stream is
        grafted under the exchange span once the drain ends — the
        per-worker span streams merge with morsel attribution intact.
        The simulation is cooperative (single-threaded), so per-worker
        hardware deltas attribute exactly.
        """
        if not self.tracer.enabled:
            return exchange.collect()
        with self.tracer.span("exchange", kind="pipeline",
                              workers=len(worker_set)) as span:
            for w, ctx in enumerate(worker_set.contexts):
                worker_tracer = Tracer()
                worker_tracer.watch(worker_set.tracer_view(w))
                ctx.tracer = worker_tracer
                ctx.worker_span = worker_tracer.begin(
                    "worker-{0}".format(w), kind="worker", worker=w)
            try:
                parts = exchange.collect()
            finally:
                for ctx in worker_set.contexts:
                    ctx.tracer.end_all()
                    self.tracer.adopt(ctx.tracer.roots)
                    ctx.tracer = NO_TRACE
                    ctx.worker_span = None
            span.add("tuples_out", sum(len(p) for p in parts))
            return parts


class _Part:
    """One morsel's part: the part plan's output BATs, the unit a
    worker hands the exchange.  Zero-width (no ``names``), so the
    exchange charges no vector traffic for it: the part plan's run has
    charged its own."""

    __slots__ = ("index", "bats")
    names = ()

    def __init__(self, index, bats):
        self.index = index
        self.bats = bats

    def __len__(self):
        return len(self.bats[0]) if self.bats else 0


class _MorselPart(MorselSource):
    """A worker's pipeline: each acquired morsel becomes one
    :class:`_Part`, the part plan's output over that row range."""

    def __init__(self, context, scheduler, run, worker=0, **kwargs):
        super().__init__(context, scheduler, worker=worker, **kwargs)
        self.run = run

    def next_batch(self):
        morsel = self.next_morsel()
        if morsel is None:
            return None
        part = _Part(morsel.index, self.run(self.context, morsel))
        if self._span_open:
            self.context.tracer.add("tuples_scanned", morsel.size)
        return part


class _RangeView:
    """The catalog as one morsel reads it: ``table`` restricted to a
    non-empty slice of its visible oids, every other table whole.
    Read-only — the interpreter and compiled kernels use only this
    protocol, and every call it does not name passes to the catalog."""

    def __init__(self, catalog, table, oids):
        self.catalog = catalog
        self.table = table
        self.oids = oids

    def __getattr__(self, name):
        return getattr(self.catalog, name)

    def tid(self, table):
        if table != self.table:
            return self.catalog.tid(table)
        return BAT(OID, self.oids, tsorted=True, tkey=True)

    def count(self, table):
        return len(self.tid(table))

    def cracked_select(self, table, column, lo, hi, lo_incl, hi_incl):
        found = self.catalog.cracked_select(table, column, lo, hi, lo_incl,
                                            hi_incl)
        if table != self.table:
            return found
        oids = found.tail   # ascending
        start = np.searchsorted(oids, self.oids[0])
        stop = np.searchsorted(oids, self.oids[-1], side="right")
        return BAT(OID, oids[start:stop], tsorted=True, tkey=True)

    def table_version(self, table):
        """Recycler key token: each range is its own table state, so
        one morsel's intermediates never serve another's."""
        version = self.catalog.table_version(table)
        if table != self.table:
            return version
        return version + (int(self.oids[0]), len(self.oids))
