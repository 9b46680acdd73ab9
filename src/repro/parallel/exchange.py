"""Exchange operators: plugging parallelism into pull-based pipelines.

The exchange idiom (Graefe's Volcano; "Query Optimization in the Wild"
notes every industrial engine converged on it) encapsulates parallelism
*inside* operators so the rest of the pipeline stays oblivious:

* :class:`MorselSource` — a leaf that pulls morsels from the scheduler
  instead of owning a fixed range, so the work parallelizes by data;
  :class:`MorselScan` slices vectors out of each morsel, the SQL
  executor runs a statement's plan over it.
* :class:`ExchangeUnion` — N:1 merge of per-worker partial streams,
  pulling round-robin so the workers' simulated cache traffic
  interleaves in the shared LLC exactly as concurrent cores would.
* :class:`Exchange` — 1:N:1 convenience: clones a pipeline once per
  worker via a plan factory, drives the clones over one shared morsel
  scheduler, and unions their outputs.

Batch arrival order is the deterministic round-robin interleaving —
stable for a fixed worker count, but *not* the serial row order; use
``tests.helpers.assert_same_rows`` when comparing.

Fault tolerance: every morsel acquisition passes through the
``morsel.run`` injection site.  A transient fault there is retried
with backoff (and escalates to a worker death when retries run out); a
crash kills the worker.  :meth:`Exchange.collect` survives worker
deaths by *quarantining* the dead worker's output and re-dispatching
its entire served share to the survivors — discard-plus-redo, which is
exact for streaming and blocking pipelines alike.  Only when every
worker has died does the query fail (:class:`ParallelExecutionFailed`),
at which point the caller falls back to the serial engine.
"""

from dataclasses import dataclass

from repro.faults import NO_FAULTS, CrashError, TransientFault
from repro.governance.context import CHECK_MORSEL, NO_GOVERNANCE
from repro.vectorized.operators import VectorOperator
from repro.vectorized.vector import Batch


@dataclass
class WorkerFailure:
    """One worker death observed during a parallel query."""

    worker: int
    site: str
    hit: int
    requeued: int = 0

    @classmethod
    def from_fault(cls, worker, fault):
        return cls(worker=worker, site=fault.site, hit=fault.hit)


class ParallelExecutionFailed(RuntimeError):
    """Every worker of a parallel query died; run it serially."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("all {0} workers died".format(len(self.failures)))


class MorselSource(VectorOperator):
    """A worker's leaf whose row ranges come from a morsel scheduler.

    :meth:`next_morsel` is the one morsel acquisition path: the
    per-morsel governance checkpoint, the ``morsel.run`` fault site and
    the ``morsel`` span.  Subclasses turn each morsel into batches.

    ``faults`` arms the ``morsel.run`` site, hit once per morsel
    acquisition (plus once per retry): transient faults are retried up
    to ``max_retries`` times with exponential backoff (accounted in
    ``backoff_units``, not simulated cycles), then escalate to a
    :class:`~repro.faults.CrashError` — this worker's death.
    """

    def __init__(self, context, scheduler, worker=0, faults=None,
                 max_retries=3, governance=None):
        super().__init__(context)
        self.scheduler = scheduler
        self.worker = worker
        self.faults = faults if faults is not None else NO_FAULTS
        self.governance = governance if governance is not None \
            else NO_GOVERNANCE
        self.max_retries = max_retries
        self.retries = 0
        self.backoff_units = 0
        self.stall_units = 0
        self._span_open = False

    def open(self):
        self._span_open = False

    def _end_morsel_span(self):
        if self._span_open:
            self.context.tracer.end()
            self._span_open = False

    def _begin_morsel_span(self, morsel):
        tracer = self.context.tracer
        if tracer.enabled:
            self._end_morsel_span()
            tracer.begin("morsel", kind="morsel", worker=self.worker,
                         index=morsel.index, start=morsel.start,
                         stop=morsel.stop)
            self._span_open = True

    def _acquire(self, morsel):
        """Pass one morsel through the ``morsel.run`` fault site."""
        attempts = 0
        while True:
            try:
                self.stall_units += self.faults.inject(
                    "morsel.run", worker=self.worker, morsel=morsel.index)
                return
            except TransientFault as fault:
                attempts += 1
                self.retries += 1
                if attempts > self.max_retries:
                    raise CrashError(fault.site, fault.hit,
                                     worker=self.worker,
                                     escalated="retries exhausted") \
                        from fault
                self.backoff_units += 2 ** (attempts - 1)

    def next_morsel(self):
        """This worker's next acquired morsel, or None when none is
        left; the previous morsel's span ends here."""
        morsel = self.scheduler.next_morsel(self.worker)
        if morsel is None:
            self._end_morsel_span()
            return None
        if self.governance.active:
            # Per-morsel cancellation point, before the morsel is
            # processed: a kill here propagates through the exchange
            # (which quarantines only worker deaths) and leaves the
            # per-query scheduler abandoned, not corrupted.
            self.governance.checkpoint(CHECK_MORSEL)
        self._acquire(morsel)
        self._begin_morsel_span(morsel)
        return morsel


class MorselScan(MorselSource):
    """Scan whose row ranges come from a morsel scheduler.

    ``columns`` maps names to full numpy arrays; the operator slices
    vectors out of whichever morsel the scheduler hands its worker next,
    so two MorselScans over the same scheduler partition the table
    between them dynamically.
    """

    def __init__(self, context, columns, scheduler, worker=0, **kwargs):
        super().__init__(context, scheduler, worker=worker, **kwargs)
        self.columns = dict(columns)
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError("ragged scan input")
        self._morsel = None
        self._pos = 0

    def open(self):
        super().open()
        self._morsel = None
        self._pos = 0

    def next_batch(self):
        while True:
            if self._morsel is None:
                self._morsel = self.next_morsel()
                if self._morsel is None:
                    return None
                self._pos = self._morsel.start
            if self._pos >= self._morsel.stop:
                self._morsel = None
                continue
            end = min(self._pos + self.context.vector_size,
                      self._morsel.stop)
            batch = Batch({name: v[self._pos:end]
                           for name, v in self.columns.items()})
            self._pos = end
            if self._span_open:
                self.context.tracer.add("tuples_scanned", len(batch))
            return batch


class ExchangeUnion(VectorOperator):
    """N:1 exchange: merge per-worker streams, round-robin and
    deterministic.

    Pulling one batch per worker per round interleaves the workers'
    memory traffic in the shared LLC (via ``worker_set``), which is what
    makes cache *contention* — not just capacity — visible in the
    simulation.  Shared-LLC cycles are attributed to the worker whose
    pull caused them.
    """

    def __init__(self, context, children, worker_set=None):
        super().__init__(context)
        self.children = list(children)
        if not self.children:
            raise ValueError("exchange needs at least one child")
        self.worker_set = worker_set
        self._streams = None
        self._alive = None
        self._turn = 0

    def open(self):
        self._streams = [child.batches() for child in self.children]
        self._alive = [True] * len(self._streams)
        self._turn = 0

    def _pull(self, worker):
        ws = self.worker_set
        if ws is None:
            batch = next(self._streams[worker], None)
        else:
            cycles, misses = ws.llc_snapshot()
            batch = next(self._streams[worker], None)
            ws.charge_llc(worker, cycles, misses)
        if batch is not None:
            span = self.children[worker].context.worker_span
            if span is not None:
                span.add("tuples_out", len(batch))
        return batch

    def next_batch(self):
        n = len(self._streams)
        attempts = 0
        while attempts < n:
            worker = self._turn
            self._turn = (self._turn + 1) % n
            if not self._alive[worker]:
                attempts += 1
                continue
            batch = self._pull(worker)
            if batch is None:
                self._alive[worker] = False
                attempts += 1
                continue
            return batch
        return None


class Exchange(ExchangeUnion):
    """1:N:1 exchange: parallelize a pipeline across a worker set.

    ``plan_factory(worker_ctx, scheduler, worker_id)`` builds one
    worker's pipeline (typically rooted in a :class:`MorselSource` on
    the shared ``scheduler``); the exchange instantiates one clone per
    worker in ``worker_set`` and unions their outputs.
    """

    def __init__(self, context, plan_factory, worker_set, scheduler):
        children = [plan_factory(ctx, scheduler, w)
                    for w, ctx in enumerate(worker_set.contexts)]
        super().__init__(context, children, worker_set)
        self.plan_factory = plan_factory
        self.scheduler = scheduler
        self.failures = []

    def _revive(self, worker):
        """A fresh pipeline clone for ``worker``, pulling whatever the
        scheduler still holds for it."""
        child = self.plan_factory(self.worker_set.contexts[worker],
                                  self.scheduler, worker)
        self.children[worker] = child
        self._streams[worker] = child.batches()

    def collect(self):
        """Drain every worker with worker-death recovery; returns all
        batches.

        Unlike the streaming union, batches are quarantined per worker
        until the query completes: when an injected fault kills a
        worker, its collected output is discarded and its entire served
        share is re-dispatched to the survivors (discard-plus-redo —
        exact regardless of how much the dead worker had buffered in
        blocking operators).  Survivors that had already drained are
        revived with fresh pipeline clones so requeued morsels never
        strand.  Raises :class:`ParallelExecutionFailed` once no worker
        is left; failures survive on ``self.failures`` either way.
        """
        self.open()
        n = len(self._streams)
        per_worker = [[] for _ in range(n)]
        exhausted = [False] * n
        crashed = [False] * n
        while not all(exhausted[w] or crashed[w] for w in range(n)):
            for worker in range(n):
                if exhausted[worker] or crashed[worker]:
                    continue
                try:
                    batch = self._pull(worker)
                except CrashError as fault:
                    crashed[worker] = True
                    per_worker[worker] = []  # quarantine: discard output
                    failure = WorkerFailure.from_fault(worker, fault)
                    self.failures.append(failure)
                    survivors = [w for w in range(n) if not crashed[w]]
                    if not survivors:
                        raise ParallelExecutionFailed(self.failures) \
                            from fault
                    failure.requeued = self.scheduler.reassign(
                        worker, survivors)
                    for w in survivors:
                        if exhausted[w] and self.scheduler.queues[w]:
                            self._revive(w)
                            exhausted[w] = False
                    continue
                if batch is None:
                    # A drained pipeline whose queue has (requeued)
                    # work left was a blocking plan that finished
                    # before a death; run the leftovers on a clone.
                    if self.scheduler.queues[worker]:
                        self._revive(worker)
                    else:
                        exhausted[worker] = True
                else:
                    per_worker[worker].append(batch)
        return [batch for batches in per_worker for batch in batches]
