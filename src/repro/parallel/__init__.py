"""Morsel-driven intra-query parallelism.

The paper's X100 line (Section 5) removes per-tuple interpretation
overhead with vectors; the next wall is hardware parallelism.  This
package adds the exchange-style parallelism every industrial engine
converged on ("Query Optimization in the Wild"): base data is split
into *morsels* dispatched by a work-stealing scheduler, per-worker
pipelines run over private simulated cache hierarchies sharing one
last-level cache, and :class:`Exchange` operators merge the partial
streams — so parallel speedup, and its shared-LLC contention ceiling,
are both reproduced (experiment E17, over vectorized pipelines).

SQL uses the same exchange with no engine of its own:
:class:`ParallelSelectExecutor` runs a statement's cached part plan —
the single-node engine's plan, compiled or interpreted — once per row
range and merges the parts through :mod:`repro.sql.partials`.

Workers are *simulated*: execution is single-threaded and interleaves
worker pulls deterministically, making results and cache traffic
exactly reproducible.
"""

from repro.parallel.context import WorkerContext, WorkerSet
from repro.parallel.exchange import (
    Exchange,
    ExchangeUnion,
    MorselScan,
    ParallelExecutionFailed,
    WorkerFailure,
)
from repro.parallel.executor import (
    ParallelResult,
    ParallelSelectExecutor,
    ParallelUnsupported,
)
from repro.parallel.morsels import (
    DEFAULT_MORSEL_SIZE,
    Morsel,
    MorselScheduler,
    split_morsels,
)

__all__ = [
    "DEFAULT_MORSEL_SIZE",
    "Morsel",
    "MorselScheduler",
    "split_morsels",
    "WorkerContext",
    "WorkerSet",
    "MorselScan",
    "Exchange",
    "ExchangeUnion",
    "ParallelExecutionFailed",
    "WorkerFailure",
    "ParallelResult",
    "ParallelSelectExecutor",
    "ParallelUnsupported",
]
