"""Boundary probes: wall-clock spans around each layer's entry points.

The engine's own ``Tracer`` counts simulated cycles and stays
``NO_TRACE``; the traced run instead wraps the layers' entry points
*from here*, where callers look them up — a class attribute for
methods, every ``repro`` module that imported the name for functions —
and restores them afterwards.  Each call records one span
``(bucket, start_ns, end_ns, parent, stmt_id)`` in memory.  A layer's
self time is its spans' duration minus the part their child spans
cover, so nested calls are never counted twice.
"""

import functools
import importlib
import sys
from time import perf_counter_ns

#: (bucket, module, qualified name).  A dotted name is ``Class.method``.
#: ``link`` spans are attributed at aggregation time: under a
#: ``replication.*`` span they are replication shipping, otherwise the
#: sharding coordinator's links.
PROBE_POINTS = (
    ("sql.parse", "repro.sql.parser", "parse_sql"),
    ("sql.compile", "repro.sql.compiler", "compile_select"),
    ("sql.compile", "repro.sql.compiler", "compile_where_candidates"),
    ("sql.dispatch", "repro.sql.database", "Database.execute"),
    ("sql.dispatch", "repro.sql.transactions", "Transaction.execute"),
    ("sql.dispatch", "repro.sql.transactions", "Transaction.commit"),
    ("sql.materialize", "repro.sql.database", "ResultSet.__init__"),
    ("sql.materialize", "repro.sql.database", "ResultSet.rows"),
    ("sql.materialize", "repro.core.bat", "BAT.decoded"),
    ("mal.optimize", "repro.mal.optimizer.base", "Pipeline.optimize"),
    ("mal.interp", "repro.mal.interpreter", "Interpreter.run"),
    ("compile.lookup", "repro.compile.executor", "PlanCompiler.compile"),
    ("compile.codegen", "repro.compile.codegen", "compile_program"),
    ("compile.exec", "repro.compile.executor", "PlanCompiler.try_run"),
    ("parallel.exec", "repro.parallel.executor",
     "ParallelSelectExecutor.execute"),
    ("wal.append", "repro.wal.log", "WriteAheadLog.append"),
    ("views.apply", "repro.views.maintainer", "ViewMaintainer.apply_delta"),
    ("sharding.coord", "repro.sharding.coordinator",
     "ShardedDatabase.execute"),
    ("sharding.coord", "repro.sharding.twopc", "ShardedTransaction.execute"),
    ("sharding.plan", "repro.sharding.planner", "plan_select"),
    ("link", "repro.datacyclotron.link", "SimulatedLink.send"),
    ("link", "repro.datacyclotron.link", "SimulatedLink.deliver"),
    ("sharding.leg", "repro.sharding.coordinator", "ShardNode.execute"),
    ("sharding.merge", "repro.sharding.merge", "merge_rows"),
    ("sharding.merge", "repro.sharding.merge", "merge_aggregates"),
    ("sharding.twopc", "repro.sharding.twopc", "ShardedTransaction.commit"),
    ("replication.route", "repro.replication.group",
     "ReplicationGroup.execute"),
    ("replication.ship", "repro.replication.group", "ReplicationGroup.tick"),
    # Replica apply: the single replay dispatch point that recovery and
    # replication share (the one probe on a non-public name).
    ("replication.apply", "repro.sql.database", "Database._replay_record"),
    ("sessions.overhead", "repro.sessions.session", "Session.execute"),
    ("sessions.commit", "repro.sessions.session", "Session.commit"),
    ("sessions.admit", "repro.sessions.admission",
     "AdmissionController.acquire"),
)

#: Bucket of the span the runner opens around each whole statement.
STATEMENT = "bench.stmt"


class Probes:
    """Installs the wrappers, holds the spans, restores the originals."""

    def __init__(self):
        self.spans = []      # (bucket, start_ns, end_ns, parent, stmt_id)
        self.stmt_id = -1    # set by the runner around each statement
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def wrap(self, bucket, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (bucket, start, end, parent, self.stmt_id)
        return probe

    def drain(self):
        """The spans recorded so far; the buffer restarts empty."""
        out = list(self.spans)
        del self.spans[:]
        return out

    # -- install / restore -------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("probes already installed")
        for bucket, module_name, qualname in PROBE_POINTS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original,
                          self.wrap(bucket, original))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(bucket, original)
            # Importers bound the name at import time: patch every
            # repro module that holds this very function object.
            for name, holder in list(sys.modules.items()):
                if holder is not None and (name == "repro" or
                                           name.startswith("repro.")) \
                        and holder.__dict__.get(qualname) is original:
                    self._set(holder, qualname, original, wrapped)

    def _set(self, owner, attr, original, wrapped):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_attributes(self):
        """(owner, attribute, original) triples currently patched."""
        return list(self._patched)


def self_times(spans):
    """Self time of each span in ns: its duration minus the durations
    of its direct children (spans nest properly on one thread)."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans):
    """Fold spans into ``{bucket: [self_ns, inclusive_ns, calls]}``.

    ``link`` spans become ``replication.ship`` when their parent span
    belongs to the replication layer and ``sharding.link`` otherwise.
    """
    totals = {}
    own = self_times(spans)
    for (bucket, start, end, parent, _), self_ns in zip(spans, own):
        if bucket == "link":
            under = spans[parent][0] if parent >= 0 else ""
            bucket = "replication.ship" \
                if under.startswith("replication.") else "sharding.link"
        entry = totals.get(bucket)
        if entry is None:
            entry = totals[bucket] = [0, 0, 0]
        entry[0] += self_ns
        entry[1] += end - start
        entry[2] += 1
    return totals
