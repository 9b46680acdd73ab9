"""The sharding coordinator: hash-partitioned tables over shard nodes.

A :class:`ShardedDatabase` fronts ``n_shards`` shard nodes — each a
full single-node :class:`~repro.sql.database.Database` with its own
write-ahead log (or, with ``replicas > 0``, a
:class:`~repro.replication.ReplicationGroup`) — connected by simulated
request/response links (:mod:`repro.datacyclotron.link`) with fault
sites ``shard.ship`` and ``shard.ack``.

Tables declared ``PARTITION BY (col)`` hash-split their rows across
the shards (:mod:`repro.sharding.partition`); tables without a
partition key are *reference tables*, broadcast whole to every shard
so joins against them stay shard-local.  SELECTs run scatter-gather
(:mod:`repro.sharding.planner` / :mod:`repro.sharding.merge`); DML
routes by key, and multi-shard writes commit through the WAL-logged
two-phase protocol in :mod:`repro.sharding.twopc`.

With one shard every statement takes the ``single`` plan with the
original AST, so ``ShardedDatabase(n_shards=1)`` degrades to exactly
the single-node engine.
"""

import os
import random
from dataclasses import dataclass

from repro.core.bat import BAT
from repro.datacyclotron.link import SimulatedLink
from repro.faults import NO_FAULTS
from repro.governance.breaker import CircuitBreaker
from repro.governance.context import CHECK_SCATTER
from repro.governance.errors import GovernanceError
from repro.mal.optimizer import DEFAULT_PIPELINE
from repro.observability.tracer import NO_TRACE
from repro.sharding.merge import merge_aggregates, merge_rows
from repro.sharding.partition import ShardMap
from repro.sharding.planner import (
    ShardSchema, _prune_value, plan_select,
)
from repro.sql.ast import (
    Column, CreateMaterializedView, CreateTable, Delete,
    DropMaterializedView, Explain, Insert, Select, SelectItem,
    SetPragma, TableRef, Update, statement_kind,
)
from repro.sql.database import Database, ResultSet
from repro.sql.parser import parse_sql
from repro.sql.partials import merge_aggregates as finish_aggregates
from repro.sql.statement_cache import StatementCache
from repro.views.definition import classify
from repro.views.rows import ViewError
from repro.wal import WriteAheadLog

SHIP_SITE = "shard.ship"
ACK_SITE = "shard.ack"


class ShardUnavailableError(RuntimeError):
    """A shard could not be reached within the link retry budget."""


class LegTimeout(Exception):
    """Internal: a scatter leg's link wait exceeded the leg timeout.

    Never escapes the coordinator — the leg is re-dispatched on the
    hedge path (replica or direct channel) and the breaker records the
    failure."""

    def __init__(self, shard_id, wait):
        self.shard_id = shard_id
        self.wait = wait
        super().__init__("shard {0} leg waited {1} ticks".format(
            shard_id, wait))


@dataclass
class ShardingStats:
    """Coordinator counters (observability satellite of E21)."""

    statements: int = 0
    single_shard: int = 0      # plans routed to exactly one shard
    scatter: int = 0           # decomposed multi-shard SELECTs
    gather: int = 0            # full-fragment fallbacks
    pruned: int = 0            # single-shard plans won by key pruning
    requests: int = 0          # coordinator -> shard round trips
    retries: int = 0           # link sends retried after a drop
    shipped_rows: int = 0      # result/fragment rows crossing a link
    shipped_bytes: int = 0     # estimated payload bytes on the links
    twopc_fast_path: int = 0   # commits touching <= 1 shard
    twopc_commits: int = 0     # full two-phase commits
    twopc_aborts: int = 0      # two-phase rounds aborted in phase 1
    view_reads: int = 0        # SELECTs answered from materialized views
    backoff_ticks: int = 0     # clock ticks slept between link retries
    stale_epoch_rejections: int = 0  # transactions fenced at a cutover
    reshard_pump_failures: int = 0   # dual-route pumps demoted
    # Governance (repro.governance): slow-node defense + cancellation.
    leg_timeouts: int = 0      # scatter legs abandoned past the timeout
    hedged_legs: int = 0       # legs re-dispatched on the hedge path
    breaker_skips: int = 0     # legs routed straight to the hedge
    cancels_sent: int = 0      # cancel messages broadcast mid-scatter
    governance_kills: int = 0  # statements killed by their context


def _payload_size(payload):
    """Byte estimate of one link message: columns (a view's part
    columns) by their tails' and string heaps' bytes, anything else by
    its printed form."""
    if isinstance(payload, list) and payload and \
            all(isinstance(column, BAT) for column in payload):
        return sum(column.tail_nbytes +
                   (column.heap.nbytes if column.heap is not None else 0)
                   for column in payload)
    return len(repr(payload))


class ShardNode:
    """One shard: a Database, or a ReplicationGroup when replicated."""

    def __init__(self, shard_id, replicas=0, mode="sync",
                 faults=None, wal_path=None, pipeline=DEFAULT_PIPELINE):
        self.shard_id = shard_id
        # Online-resharding lifecycle: a joining node is receiving its
        # snapshot (no bucket routes to it yet), a retired node was
        # merged away, and epoch tracks the shard-map version the node
        # last acknowledged (bumped at every cutover that kept it).
        self.joining = False
        self.retired = False
        self.epoch = 0
        if replicas:
            from repro.replication import ReplicationGroup
            self.group = ReplicationGroup(
                n_replicas=replicas, mode=mode,
                db_kwargs={"pipeline": pipeline})
            self.db = None
        else:
            self.group = None
            self.db = Database(pipeline=pipeline,
                               wal=WriteAheadLog(path=wal_path),
                               faults=faults)

    def execute(self, statement, workers=None, context=None):
        if self.group is not None:
            return self.group.execute(statement, workers=workers,
                                      context=context)
        return self.db.execute(statement, workers=workers,
                               context=context)

    @property
    def database(self):
        """The shard's authoritative Database (the primary's, when
        replicated)."""
        if self.db is not None:
            return self.db
        return self.group.require_primary().db

    def __repr__(self):
        flavour = "replicated" if self.group is not None else "plain"
        return "ShardNode({0}, {1})".format(self.shard_id, flavour)


class ShardedDatabase:
    """Hash-partitioned database over ``n_shards`` shard nodes.

    Parameters
    ----------
    n_shards:
        Shard count; 1 degrades to single-node behaviour exactly.
    replicas / mode:
        Per-shard replication (each shard becomes a ReplicationGroup
        with that many replicas).  Replicated shards support DDL, DML
        and SELECT; explicit transactions and :meth:`recover` are
        single-Database features (``replicas=0``).
    faults:
        One :class:`~repro.faults.FaultInjector` shared by the shard
        links (``shard.ship`` / ``shard.ack``), every shard's commit
        path (``commit.*`` / ``wal.append``) and the coordinator's
        decision log.
    wal_dir:
        Directory for on-disk WALs (``shard<i>.wal`` plus the
        coordinator's 2PC ``decisions.wal``); in-memory when None.
    link_retry_limit:
        Sends attempted per message before the shard is declared
        unreachable (transient drops retry; a cut link exhausts this).
    """

    def __init__(self, n_shards=2, replicas=0, mode="sync", faults=None,
                 wal_dir=None, pipeline=DEFAULT_PIPELINE, tracer=None,
                 link_retry_limit=8, retry_seed=0, retry_backoff_cap=16,
                 leg_timeout=None, breaker_threshold=3,
                 breaker_cooldown=32, breaker_probe_jitter=8,
                 breaker_seed=0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if leg_timeout is not None and leg_timeout < 1:
            raise ValueError("leg_timeout must be at least 1 tick")
        self.n_shards = n_shards
        self.replicas = replicas
        self._mode = mode
        self.shard_map = ShardMap(n_shards)
        self.faults = faults if faults is not None else NO_FAULTS
        self.tracer = tracer if tracer is not None else NO_TRACE
        self.pipeline = pipeline
        self.schema = ShardSchema()
        # Parses only: each shard plans its legs in its own cache.
        self.statement_cache = StatementCache()
        # Materialized views (repro.views): the coordinator registry,
        # view name -> ViewDefinition.  Each shard maintains its own
        # copy of every view over its fragment; coordinator reads
        # scatter-gather the per-shard partial state.
        self.views = {}
        self.stats = ShardingStats()
        self.link_retry_limit = link_retry_limit
        self.retry_backoff_cap = retry_backoff_cap
        self._retry_rng = random.Random(retry_seed)
        # Slow-node defense (repro.governance): with a leg timeout set,
        # scatter legs that wait longer than ``leg_timeout`` ticks on a
        # gray link are abandoned and re-dispatched on the hedge path
        # (the shard's replica, or a direct channel bypassing the
        # link); one circuit breaker per shard stops paying a link that
        # keeps timing out.  None keeps the naive behaviour: every leg
        # waits out whatever latency the link injects.
        self.leg_timeout = leg_timeout
        self._breaker_opts = {"threshold": breaker_threshold,
                              "cooldown": breaker_cooldown,
                              "probe_jitter": breaker_probe_jitter}
        self._breaker_seed = breaker_seed
        self.breakers = {}        # shard id -> CircuitBreaker, lazy
        # Coordinator-level governance defaults (SET deadline /
        # SET memory_budget land here, not on the shards).
        self.default_deadline = None
        self.default_memory_budget = None
        self.clock = 0            # the link tick clock
        self._xid_counter = 0
        self._wal_dir = wal_dir
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
        self.decision_log = WriteAheadLog(
            path=self._wal_path("decisions.wal"), faults=self.faults)
        # Online resharding (repro.sharding.resharding): the durable
        # migration log and the at-most-one live migration.
        self.reshard_log = WriteAheadLog(
            path=self._wal_path("reshard.wal"), faults=self.faults)
        self.migration = None
        self._mid_counter = 0
        self.shards = []
        self.links = []
        for _ in range(n_shards):
            self._add_node(joining=False)
        self.n_shards = n_shards

    def _wal_path(self, name):
        return None if self._wal_dir is None \
            else os.path.join(self._wal_dir, name)

    def _add_node(self, joining=True):
        """Grow the cluster by one shard node (plus its link pair).
        A joining node serves no traffic until a migration's cutover
        assigns it buckets and clears the flag."""
        shard_id = len(self.shards)
        node = ShardNode(
            shard_id, replicas=self.replicas, mode=self._mode,
            faults=self.faults,
            wal_path=self._wal_path("shard{0}.wal".format(shard_id)),
            pipeline=self.pipeline)
        node.joining = joining
        self.shards.append(node)
        self.links.append(
            (SimulatedLink(SHIP_SITE, faults=self.faults,
                           name="coord->s{0}".format(shard_id)),
             SimulatedLink(ACK_SITE, faults=self.faults,
                           name="s{0}->coord".format(shard_id))))
        self.n_shards = len(self.shards)
        return node

    def broadcast_shards(self):
        """Shard ids that hold broadcast state: every node except the
        retired (merged away) and the still-joining (their reference
        rows arrive via the migration's copy/delta channel)."""
        return [i for i, node in enumerate(self.shards)
                if not node.retired and not node.joining]

    # -- the simulated network -------------------------------------------------

    def cut(self, shard_id):
        """Partition one shard off (both link directions)."""
        for link in self.links[shard_id]:
            link.cut()

    def heal(self, shard_id):
        for link in self.links[shard_id]:
            link.heal()

    def _send(self, link, message, size, timeout=None, shard_id=None):
        """Ship one message with bounded exponential backoff: retry
        ``link_retry_limit`` sends, sleeping ``backoff + jitter`` clock
        ticks before each retry, with the backoff doubling up to
        ``retry_backoff_cap``.  The jitter is drawn from the
        coordinator's seeded rng, so a retry storm is deterministic per
        seed (and desynchronized across messages, instead of every
        retry hammering the link on the same tick).

        The sender *waits out* the link's delivery tick — injected
        latency (a gray node) costs real clock ticks.  With ``timeout``
        set, a wait past that many ticks abandons the leg instead:
        the clock pays only the timeout and :class:`LegTimeout` is
        raised (the message stays in flight, queueing FIFO behind
        whatever else the slow link holds)."""
        backoff = 1
        for attempt in range(self.link_retry_limit):
            if attempt:
                pause = backoff + self._retry_rng.randrange(backoff)
                self.clock += pause
                self.stats.backoff_ticks += pause
                backoff = min(backoff * 2, self.retry_backoff_cap)
            self.clock += 1
            if link.send(message, self.clock, size=size):
                wait = max(link.last_deliver_at - self.clock, 1)
                if timeout is not None and wait > timeout:
                    self.clock += timeout
                    raise LegTimeout(shard_id, wait)
                self.clock += wait
                link.deliver(self.clock)
                self.stats.shipped_bytes += size
                return
            self.stats.retries += 1
            if self.tracer.enabled:
                self.tracer.add("link_retries", 1)
        raise ShardUnavailableError(
            "link {0!r} failed {1} sends".format(link.name,
                                                 self.link_retry_limit))

    def _rpc(self, shard_id, request, fn, timeout=None):
        """One coordinator<->shard round trip: ship the request, run
        the shard-side work, ship the response back.  Transient link
        faults retry (re-sending is idempotent — the shard-side work
        runs exactly once, after the request delivers); a cut link
        raises :class:`ShardUnavailableError`; with ``timeout`` set, a
        slow link raises :class:`LegTimeout` *before* the shard-side
        work runs (the hedge path re-runs the whole leg)."""
        req, resp = self.links[shard_id]
        self.stats.requests += 1
        self._send(req, request, _payload_size(request),
                   timeout=timeout, shard_id=shard_id)
        if self.tracer.enabled:
            with self.tracer.span("shard.exec", kind="sharding",
                                  shard=shard_id):
                result = fn()
        else:
            result = fn()
        reply_rows = len(result) if isinstance(result, ResultSet) else 0
        reply_size = _payload_size(result.rows()) \
            if isinstance(result, ResultSet) else _payload_size(result)
        self._send(resp, "ack", reply_size)
        self.stats.shipped_rows += reply_rows
        if self.tracer.enabled:
            self.tracer.add("shard_shipped_rows", reply_rows)
            self.tracer.add("shard_shipped_bytes", reply_size)
        return result

    def _ship(self, shard_id, request, statement, workers=None,
              context=None, timeout=None):
        """Run ``statement`` on one shard: one :meth:`_rpc`."""
        return self._rpc(shard_id, request,
                         lambda: self.shards[shard_id].execute(
                             statement, workers=workers, context=context),
                         timeout=timeout)

    def _broadcast(self, request, statement, context=None):
        """:meth:`_ship` to every :meth:`broadcast_shards` shard."""
        return [self._ship(shard_id, request, statement, context=context)
                for shard_id in self.broadcast_shards()]

    # -- slow-node defense (repro.governance) -----------------------------------

    def _breaker(self, shard_id):
        """The shard link's circuit breaker (created on first use, with
        a per-shard seed so a fleet of breakers never probes in
        lockstep)."""
        breaker = self.breakers.get(shard_id)
        if breaker is None:
            breaker = CircuitBreaker(
                seed=self._breaker_seed * 1000 + shard_id,
                name="coord->s{0}".format(shard_id),
                **self._breaker_opts)
            self.breakers[shard_id] = breaker
        return breaker

    def _hedge_leg(self, shard_id, ast, workers=None, context=None):
        """Re-dispatch one scatter leg around its gray link: to the
        shard's replica group when replicated, else over a direct
        channel to the shard's database.  Costs a flat healthy-path
        round trip (2 ticks) instead of the gray link's swelling
        wait."""
        self.stats.hedged_legs += 1
        self.clock += 2
        return self.shards[shard_id].execute(ast, workers=workers,
                                             context=context)

    def _run_leg(self, runner, shard_id, ast, context=None,
                 hedged=False, workers=None):
        """One scatter/single leg: checkpoint, breaker gate, run —
        hedging past a timed-out or broken link when enabled."""
        if context is not None and context.active:
            context.checkpoint(CHECK_SCATTER)
        if not hedged:
            return runner(shard_id, ast)
        breaker = self._breaker(shard_id)
        if not breaker.allow(self.clock):
            # Open breaker: stop paying the gray link at all.
            self.stats.breaker_skips += 1
            return self._hedge_leg(shard_id, ast, workers=workers,
                                   context=context)
        try:
            result = runner(shard_id, ast)
        except LegTimeout:
            self.stats.leg_timeouts += 1
            breaker.record_failure(self.clock)
            return self._hedge_leg(shard_id, ast, workers=workers,
                                   context=context)
        except ShardUnavailableError:
            breaker.record_failure(self.clock)
            raise
        breaker.record_success(self.clock)
        return result

    def _broadcast_cancel(self, shard_ids, context):
        """Best-effort cancel message to every leg not yet run when a
        governance kill fires mid-scatter: one unacknowledged send per
        remaining request link (no retries — the statement is already
        dead; a lost cancel just means that shard never starts the
        leg)."""
        reason = context.killed_by \
            if context is not None and context.killed_by is not None \
            else "cancelled"
        note = {"reason": reason}
        for shard_id in shard_ids:
            req = self.links[shard_id][0]
            self.clock += 1
            if req.send(("cancel", note), self.clock,
                        size=_payload_size(note)):
                self.stats.cancels_sent += 1
                req.deliver(self.clock + 1)

    # -- statement routing ------------------------------------------------------

    def _make_context(self):
        """An owned QueryContext from the coordinator's governance
        defaults, or None when none are set."""
        if self.default_deadline is None and \
                self.default_memory_budget is None:
            return None
        from repro.governance.context import QueryContext
        return QueryContext(deadline=self.default_deadline,
                            memory_budget=self.default_memory_budget)

    def execute(self, sql, workers=None, context=None):
        """Execute one statement across the shards (autocommit).

        ``context`` is an optional
        :class:`~repro.governance.QueryContext`: checked before every
        scatter leg (and, threaded into the shard databases, at every
        engine checkpoint inside each leg); a kill mid-scatter
        broadcasts a best-effort cancel to the legs not yet run."""
        statement = parse_sql(sql, self.statement_cache) \
            if isinstance(sql, str) else sql
        self.stats.statements += 1
        owned = None
        if context is None:
            context = owned = self._make_context()
        try:
            if not self.tracer.enabled:
                return self._execute_statement(statement, workers,
                                               context)
            label = sql if isinstance(sql, str) else repr(sql)
            with self.tracer.span("sharded.statement", kind="sharding",
                                  sql=label[:200]):
                return self._execute_statement(statement, workers,
                                               context)
        except GovernanceError:
            self.stats.governance_kills += 1
            raise
        finally:
            if owned is not None:
                owned.release()

    def _execute_statement(self, statement, workers, context=None):
        if isinstance(statement, Explain):
            return ResultSet(["plan"],
                             [self.explain(statement.statement)
                              .splitlines()])
        if isinstance(statement, SetPragma):
            if statement.name in ("deadline", "memory_budget"):
                # Governance limits govern whole statements, scatter
                # legs included — they live on the coordinator, not
                # the shards.
                limit = Database._pragma_limit(statement.name,
                                               statement.value)
                if statement.name == "deadline":
                    self.default_deadline = limit
                else:
                    self.default_memory_budget = limit
                return None
            self._broadcast(("pragma",), statement)
            return None
        if isinstance(statement, CreateTable):
            return self._create_table(statement)
        if isinstance(statement, CreateMaterializedView):
            return self._create_view(statement)
        if isinstance(statement, DropMaterializedView):
            return self._drop_view(statement)
        if isinstance(statement, (Insert, Delete, Update)):
            result = self._execute_dml(statement, context=context)
            self._after_write()
            return result
        if isinstance(statement, Select):
            return self._select(statement, workers=workers,
                                context=context)
        raise TypeError("unsupported statement {0}".format(
            statement_kind(statement)))

    def query(self, sql, workers=None):
        return self.execute(sql, workers=workers).rows()

    def begin(self, context=None):
        """A cross-shard transaction (two-phase commit when it writes
        more than one shard).  ``context`` governs the transaction's
        statements and its prepare phase (a kill before any prepare's
        point of no return aborts cleanly via presumed abort)."""
        if self.replicas:
            raise NotImplementedError(
                "transactions need plain shards (replicas=0)")
        from repro.sharding.twopc import ShardedTransaction
        return ShardedTransaction(self, context=context)

    def explain(self, statement):
        """The distributed plan of a SELECT, as text."""
        if isinstance(statement, str):
            statement = parse_sql(statement, self.statement_cache)
        if isinstance(statement, Explain):
            statement = statement.statement
        if not isinstance(statement, Select):
            raise TypeError("EXPLAIN supports only SELECT statements")
        plan = plan_select(self.schema, statement, self.shard_map)
        lines = ["{0} over shards {1}".format(plan.kind.upper(),
                                              plan.shards)]
        if plan.pruned:
            lines.append("  pruned by partition-key equality")
        if plan.kind == "scatter":
            lines.append("  mode: {0}".format(
                "agg" if plan.merge.aggregate else "rows"))
            if plan.merge.aggregate:
                lines.append("  partials: {0}".format(
                    plan.merge.partial_kinds))
            lines.append("  shard select: {0!r}".format(plan.shard_select))
        if plan.kind == "gather":
            lines.append("  ships: {0}".format(
                sorted({t.name for t in plan.tables})))
        return "\n".join(lines)

    # -- DDL ---------------------------------------------------------------------

    def _check_no_migration(self):
        if self.migration is not None and not self.migration.finished:
            from repro.sharding.resharding import MigrationInProgressError
            raise MigrationInProgressError(
                "DDL is rejected while migration {0} is {1}".format(
                    self.migration.mid, self.migration.phase))

    def _create_table(self, statement):
        self._check_no_migration()
        if statement.name in self.views:
            raise ValueError(
                "name {0!r} is already a materialized view".format(
                    statement.name))
        self.schema.check_new(statement.name)
        self._broadcast(("create", statement.name), statement)
        self.schema.register(statement.name, statement.columns,
                             partition_by=statement.partition_by)
        return None

    def _anchor_database(self):
        """The first serving shard's authoritative Database — the
        schema source views classify against (all shards agree on it)."""
        return self.shards[self.broadcast_shards()[0]].database

    def _view_complete_per_shard(self, definition):
        """True when every serving shard holds the *whole* view: all
        base tables are broadcast reference tables (or there is only
        one serving shard) — reads then route to any single shard."""
        if len(self.broadcast_shards()) == 1:
            return True
        return all(self.schema.get(name).partition_by is None
                   for name in definition.base_tables)

    def _create_view(self, statement):
        """CREATE MATERIALIZED VIEW across the cluster: classify once
        on the coordinator, then broadcast the DDL so each shard builds
        and maintains the view over its own fragment.

        Per-shard fragments compose back to the global view only for
        decomposable shapes: ``linear`` views concatenate, ``aggregate``
        views merge their per-group partials.  Join and eager views are
        accepted only when every base table is a broadcast reference
        table (each shard then holds the whole view).
        """
        self._check_no_migration()
        if statement.name in self.views or \
                statement.name in self.schema.tables:
            raise ViewError(
                "name {0!r} is already a table or view".format(
                    statement.name))
        anchor = self._anchor_database()
        definition = classify(anchor.catalog.tables, statement.name,
                              statement.select,
                              view_names=set(self.views))
        if definition.kind in ("join", "eager") and \
                not self._view_complete_per_shard(definition):
            raise NotImplementedError(
                "a {0} view over a partitioned base table does not "
                "decompose per shard; only linear and aggregate views "
                "are maintainable on a sharded cluster".format(
                    definition.kind))
        self._broadcast(("create_view", statement.name), statement)
        self.views[statement.name] = definition
        return None

    def _drop_view(self, statement):
        self._check_no_migration()
        if statement.name not in self.views:
            raise KeyError(
                "no materialized view {0!r}".format(statement.name))
        self._broadcast(("drop_view", statement.name), statement)
        del self.views[statement.name]
        return None

    # -- SELECT ------------------------------------------------------------------

    def _select(self, select, workers=None, runner=None, context=None):
        # Hedging defends the coordinator's own scatter; a transaction
        # runner reads per-shard snapshots, which a replica or direct
        # re-run would not see, so it always waits its legs out.
        hedged = runner is None and self.leg_timeout is not None
        if runner is None:
            runner = lambda shard_id, ast: self._ship(  # noqa: E731
                shard_id, ("select", repr(ast)), ast, workers=workers,
                context=context, timeout=self.leg_timeout)
        refs = [select.table] + [join.table for join in select.joins] \
            if select.table is not None else []
        if any(ref.name in self.views for ref in refs):
            return self._select_view(select, refs, workers=workers,
                                     context=context)
        plan = plan_select(self.schema, select, self.shard_map)
        if plan.kind == "single":
            self.stats.single_shard += 1
            if plan.pruned:
                self.stats.pruned += 1
            return self._run_leg(runner, plan.shards[0], select,
                                 context=context, hedged=hedged,
                                 workers=workers)
        if plan.kind == "scatter":
            self.stats.scatter += 1
            results = []
            try:
                for shard_id in plan.shards:
                    results.append(self._run_leg(
                        runner, shard_id, plan.shard_select,
                        context=context, hedged=hedged, workers=workers))
            except GovernanceError:
                self._broadcast_cancel(plan.shards[len(results):],
                                       context)
                raise
            merge = merge_aggregates if plan.merge.aggregate else merge_rows
            return ResultSet.from_bats(
                plan.merge.names, merge(plan, [r.bats() for r in results]))
        self.stats.gather += 1
        scratch = self._gather_database(plan, runner, context=context,
                                        hedged=hedged, workers=workers)
        return scratch.execute(select, context=context)

    def _select_view(self, select, refs, workers=None, context=None):
        """A SELECT over materialized views: rebuild each referenced
        view's global contents on a scratch database, then run the
        query there.

        Per-shard view state composes by kind: complete-per-shard views
        ship from one shard, ``linear`` fragments over a partitioned
        base concatenate across shards, ``aggregate`` views ship their
        per-group part columns and finish them as a scatter's partials
        (:func:`~repro.sql.partials.merge_aggregates`).
        """
        missing = [ref.name for ref in refs if ref.name not in self.views]
        if missing:
            raise NotImplementedError(
                "a SELECT mixing materialized views with base tables "
                "is not supported on a sharded cluster (base tables: "
                "{0})".format(sorted(set(missing))))
        self.stats.view_reads += 1
        scratch = Database(pipeline=self.pipeline)
        scratch.default_compile = False  # one statement: codegen never pays
        for name in dict.fromkeys(ref.name for ref in refs):
            definition = self.views[name]
            scratch.catalog.create_table(name, definition.columns)
            target = scratch.catalog.get(name)
            rows = self._view_rows(name, definition)
            if rows:
                target.append_rows([list(r) for r in rows])
        return scratch.execute(select, workers=workers, context=context)

    def _view_rows(self, name, definition):
        """One view's global contents, gathered from the shards (rows
        in logical space — None for missing values)."""
        if self._view_complete_per_shard(definition):
            shard_id = self.broadcast_shards()[0]
            return self._rpc(
                shard_id, ("view", name),
                lambda: self.shards[shard_id].database.views
                .contents(name))
        if definition.kind == "linear":
            rows = []
            for shard_id in self.broadcast_shards():
                rows.extend(self._rpc(
                    shard_id, ("view", name),
                    lambda s=shard_id: self.shards[s].database.views
                    .contents(name)))
            return rows
        # Aggregate over a partitioned base: finish the shards' part
        # columns as a scatter's.
        parts = [self._rpc(shard_id, ("view_partials", name),
                           lambda s=shard_id: self.shards[s].database
                           .views.partials(name))
                 for shard_id in self.broadcast_shards()]
        return ResultSet.from_bats(
            definition.plan.names,
            finish_aggregates(definition.plan, parts)).rows()

    def _gather_database(self, plan, runner, context=None, hedged=False,
                         workers=None):
        """The gather fallback's scratch single-node database: every
        referenced fragment shipped to the coordinator."""
        scratch = Database(pipeline=self.pipeline)
        scratch.default_compile = False  # one statement: codegen never pays
        seen = set()
        for info in plan.tables:
            if info.name in seen:
                continue
            seen.add(info.name)
            scratch.catalog.create_table(info.name, info.columns)
            fetch = Select(items=[SelectItem(Column(c))
                                  for c in info.column_names],
                           table=TableRef(info.name))
            sources = plan.shards if info.partition_by \
                else [plan.shards[0]]
            target = scratch.catalog.get(info.name)
            for shard_id in sources:
                rows = self._run_leg(runner, shard_id, fetch,
                                     context=context, hedged=hedged,
                                     workers=workers).rows()
                if rows:
                    target.append_rows([list(r) for r in rows])
        return scratch

    # -- DML ---------------------------------------------------------------------

    def _execute_dml(self, statement, context=None):
        if statement.table in self.views:
            raise ValueError(
                "materialized view {0!r} is read-only; modify its base "
                "tables instead".format(statement.table))
        info = self.schema.get(statement.table)
        if isinstance(statement, Insert):
            return self._insert(statement, info, context=context)
        if info.partition_by is None:
            # Reference table: identical broadcast write everywhere.
            # No context inside the legs — a kill between two shards'
            # independent commits would leave the broadcast divergent;
            # only the 2PC path can cancel a multi-shard write safely.
            return self._broadcast(("dml", statement.table),
                                   statement)[0]
        bindings = [(statement.table, info)]
        pruned, value = _prune_value(statement.where, bindings)
        if pruned:
            shard_id = self.shard_map.shard_of(value)
            self.stats.single_shard += 1
            self.stats.pruned += 1
            return self._ship(shard_id, ("dml", statement.table),
                              statement, context=context)
        moves_key = isinstance(statement, Update) and \
            info.partition_by in {c for c, _ in statement.assignments}
        if self.replicas:
            if moves_key:
                raise NotImplementedError(
                    "partition-key UPDATE needs plain shards "
                    "(replicas=0)")
            # Same divergence risk as the broadcast above: replicated
            # multi-shard writes run without a context.
            return sum(self._broadcast(("dml", statement.table),
                                       statement))
        # Un-pruned multi-shard write: atomic via two-phase commit.
        txn = self.begin(context=context)
        try:
            count = txn.execute(statement)
            txn.commit()
        except BaseException:
            if not txn.closed:
                txn.abort()
            raise
        return count

    def _insert(self, statement, info, context=None):
        if info.partition_by is None:
            return self._broadcast(("insert", statement.table), statement,
                                   context=context)[0]
        return sum(self._ship(shard_id, ("insert", statement.table), sub,
                              context=context)
                   for shard_id, sub in self._split_insert(statement, info))

    def _split_insert(self, statement, info):
        """A partitioned INSERT as ``(shard id, sub-INSERT)`` pairs in
        shard order.  Every row is checked against the table's schema
        first, so a rejected INSERT ships and buffers nothing."""
        order = statement.columns or info.column_names
        if info.partition_by not in order:
            raise ValueError(
                "INSERT into {0!r} must provide the partition key "
                "{1!r}".format(statement.table, info.partition_by))
        self._anchor_database().catalog.get(statement.table).checked_rows(
            statement.rows, statement.columns)
        split = self.shard_map.split_rows(
            statement.rows, order.index(info.partition_by))
        return [(shard_id, Insert(statement.table, split[shard_id],
                                  columns=statement.columns))
                for shard_id in sorted(split)]

    # -- online resharding -------------------------------------------------------

    def split_shard(self, source, chunk_rows=64):
        """Begin an online split of ``source``: a fresh node joins and
        half the source's buckets migrate to it.  Returns the live
        :class:`~repro.sharding.resharding.Resharding`; drive it with
        ``step()``/``run()`` interleaved with normal traffic."""
        from repro.sharding import resharding
        return resharding.start_split(self, source, chunk_rows=chunk_rows)

    def merge_shards(self, source, target, chunk_rows=64):
        """Begin an online merge: every bucket of ``source`` migrates
        to ``target`` and the source retires at cutover."""
        from repro.sharding import resharding
        return resharding.start_merge(self, source, target,
                                      chunk_rows=chunk_rows)

    def move_buckets(self, source, target, buckets, chunk_rows=64):
        """Begin an online move of an explicit bucket set between two
        established shards (rebalancing without membership change)."""
        from repro.sharding import resharding
        return resharding.start_move(self, source, target, buckets,
                                     chunk_rows=chunk_rows)

    def _after_write(self):
        """Dual-routing hook, called after every committed write: while
        a migration is in its ``dual`` phase the write synchronously
        pumps the source-WAL tail to the target."""
        migration = self.migration
        if migration is not None and not migration.finished:
            migration.on_write()

    # -- two-phase-commit bookkeeping -------------------------------------------

    def next_xid(self):
        self._xid_counter += 1
        return "x{0:06d}".format(self._xid_counter)

    def committed_xids(self):
        """Xids the durable decision log marked committed — the ground
        truth for resolving in-doubt participants after a crash."""
        return {record["xid"] for record in self.decision_log.recover()
                if record.get("kind") == "decision"
                and record.get("outcome") == "commit"}

    def recover(self):
        """Crash-restart the whole cluster: replay the resharding log
        (rebuilding the shard-map evolution, node roles and any
        in-flight migration), replay each shard's WAL, settle in-doubt
        2PC participants from the coordinator's decision log (presumed
        abort for undecided xids), heal the links, rebuild the routing
        schema, and resume — or, past its decision record, finish — an
        interrupted migration.  Returns the total records replayed."""
        if self.replicas:
            raise NotImplementedError(
                "replicated shards recover through their groups")
        from repro.sharding import resharding
        pending = resharding.replay_log(self)
        committed = self.committed_xids()
        replayed = 0
        for shard_id, node in enumerate(self.shards):
            replayed += node.db.recover()
            node.db.resolve_in_doubt(committed)
            self.heal(shard_id)
        self.schema = ShardSchema()
        anchor = self.shards[self.broadcast_shards()[0]].db
        for name, table in sorted(anchor.catalog.tables.items()):
            if anchor.views.is_view(name):
                continue  # view backing tables are not routable tables
            self.schema.register(
                name,
                [(c, table.atoms[c].name) for c in table.column_names],
                partition_by=table.partition_by)
        # Each shard's WAL replay reinstalled its views; the
        # coordinator registry rebuilds from the anchor's definitions.
        self.views = {name: anchor.views.definition(name)
                      for name in anchor.views.names()}
        resharding.resume(self, pending)
        for node in self.shards:
            if not node.retired:
                node.epoch = self.shard_map.epoch
        return replayed

    def __repr__(self):
        return "ShardedDatabase({0} shards, {1} tables)".format(
            self.n_shards, len(self.schema.tables))

