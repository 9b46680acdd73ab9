"""Primary/replica WAL-shipping replication with automatic failover.

A :class:`ReplicationGroup` runs one primary :class:`~repro.sql.Database`
plus N replicas, each over its own :class:`~repro.replication.log.ReplicatedLog`.
The primary's commits append term/LSN-stamped records; the group ships
them to every replica over simulated FIFO links
(:class:`~repro.datacyclotron.link.SimulatedLink`, fault sites
``repl.ship`` for leader traffic and ``repl.ack`` for responses),
replicas append-and-apply and acknowledge cumulatively, and the primary
advances the group commit LSN when a quorum holds an entry.

Everything advances on a simulated clock: one :meth:`ReplicationGroup.tick`
broadcasts from the leader (entries for lagging followers, heartbeats
otherwise), delivers due messages, and runs the failure detector.  A
message takes at least one tick, so a commit round trip costs two.

Durability modes
----------------
``sync``
    ``execute`` returns only once a quorum (majority of all member
    nodes, the primary included) holds the commit's last entry; it
    ticks the clock while waiting and raises :class:`QuorumTimeout`
    if the quorum is unreachable — the transaction's fate is then
    *unknown* (it may still commit once links heal, or be fenced by a
    failover).  Every transaction acknowledged in sync mode survives
    any single failover.
``async``
    ``execute`` returns as soon as the primary's own WAL append is
    durable; replicas catch up on subsequent ticks and the group's
    replication lag is observable via :meth:`ReplicationGroup.lag`.

Failure model
-------------
Node crashes (:meth:`kill`, or an injected ``CrashError`` anywhere in
the primary's commit path) and link partitions (:meth:`partition`, or
crash plans on the link sites).  The failure detector is heartbeat
driven: a dead primary is deposed once any live replica has not heard
from it for ``election_timeout`` ticks; a live-but-partitioned primary
is deposed only when a *majority* of the cluster's replicas are
starved (the split-brain guard).  Election promotes the most-caught-up
live replica — max ``(last log term, last LSN)`` — under a fresh term.
Followers reconcile against the new leader by per-LSN checksum: a
divergent suffix (the deposed primary's unacked tail) is truncated and
replaced, so after catch-up :meth:`divergence_report` is empty.

With zero replicas the group degrades to exactly the single-node
``Database``: quorum is 1, sync commits return immediately, reads hit
the primary, and failover never triggers.
"""

import weakref
from dataclasses import dataclass, field

from repro.datacyclotron.link import SimulatedLink
from repro.faults import NO_FAULTS, CrashError, FaultInjector
from repro.governance.context import CHECK_ROUTE
from repro.observability.tracer import NO_TRACE
from repro.replication.log import NotPrimaryError, ReplicatedLog
from repro.sql.ast import Select, SetPragma
from repro.sql.database import Database
from repro.sql.parser import parse_sql
from repro.sql.statement_cache import StatementCache

SHIP_SITE = "repl.ship"
ACK_SITE = "repl.ack"


class ReplicationError(RuntimeError):
    """Base class of replication-level failures."""


class NoPrimaryError(ReplicationError):
    """No live primary is currently serving writes (tick to fail over)."""


class QuorumTimeout(ReplicationError):
    """A sync-mode commit could not reach quorum within the deadline.

    The transaction's fate is unknown: its entry is in the primary's
    log and may commit later (links heal) or be fenced (failover)."""


@dataclass
class FailoverEvent:
    """One completed election, for auditing the chaos invariants."""

    term: int
    winner: int
    reason: str
    tick: int
    candidates: dict = field(default_factory=dict)  # id -> (term, lsn)

    def winner_was_most_caught_up(self):
        best = max(self.candidates.values())
        return self.candidates[self.winner] == best


@dataclass
class ReplicationStats:
    shipped_entries: int = 0
    shipped_bytes: int = 0
    heartbeats: int = 0
    acks: int = 0
    failovers: int = 0
    fenced_entries: int = 0
    quorum_timeouts: int = 0
    reads_primary: int = 0
    reads_replica: int = 0


class SimClock:
    """The group's deterministic tick counter."""

    def __init__(self):
        self.now = 0

    def advance(self, ticks=1):
        self.now += ticks
        return self.now


class Node:
    """One cluster member: a Database over a ReplicatedLog.

    ``role`` is one of ``primary`` / ``replica`` / ``deposed`` (a
    fenced ex-primary awaiting rejoin).  ``alive`` models the process:
    a dead node neither sends nor processes messages until
    :meth:`ReplicationGroup.restart` revives it.
    """

    def __init__(self, node_id, faults=None, **db_kwargs):
        self.node_id = node_id
        self.faults = faults if faults is not None else FaultInjector()
        self.log = ReplicatedLog(faults=self.faults)
        self.db = Database(wal=self.log, faults=self.faults, **db_kwargs)
        self.role = "replica"
        self.alive = True
        self.term = 0          # highest term this node has seen
        self.last_heard = 0    # tick of last leader contact

    @property
    def last_lsn(self):
        return self.log.last_lsn

    @property
    def last_term(self):
        return self.log.last_term

    def position(self):
        """Election key: how caught-up this node's log is."""
        return (self.log.last_term, self.log.last_lsn)

    def fence_to(self, lsn):
        """Truncate the local log from ``lsn`` and rebuild the catalog
        from the surviving prefix (recover() is idempotent, so this is
        safe even when nothing was applied past the fence)."""
        dropped = self.log.truncate_from(lsn)
        if dropped:
            self.db.recover()
        return dropped

    def __repr__(self):
        return "Node({0}, {1}, term={2}, lsn={3})".format(
            self.node_id, self.role if self.alive else "dead",
            self.term, self.last_lsn)


class Session:
    """A client session with read-your-writes routing.

    Reads through the session only land on nodes that have applied the
    session's last write, so a client never observes its own write
    vanish — even while replicas are still catching up."""

    def __init__(self, group, read_your_writes=True):
        self.group = group
        self.read_your_writes = read_your_writes
        self.last_write_lsn = -1

    def execute(self, sql, **kwargs):
        return self.group.execute(sql, session=self, **kwargs)

    def query(self, sql, **kwargs):
        return self.execute(sql, **kwargs).rows()


class ReplicatedTransaction:
    """A transaction on the primary whose commit honours the group's
    durability mode (sync commits wait for quorum ack)."""

    def __init__(self, group, pin=False):
        self._group = group
        self._node = group.require_primary()
        self._txn = self._node.db.begin(pin=pin)
        # Replication-level stamps for the session layer: the snapshot
        # is as-of the quorum-durable LSN at begin; ``commit_lsn`` is
        # assigned once the commit is durable per the group's mode.
        self.snapshot_lsn = group.commit_lsn
        self.commit_lsn = None

    def execute(self, sql, context=None):
        return self._txn.execute(sql, context=context)

    def commit(self):
        group, node = self._group, self._node
        before = node.last_lsn
        try:
            self._txn.commit()
        except CrashError:
            group.mark_dead(node)
            raise
        group._finish_write(node, before)
        self.commit_lsn = group.commit_lsn if node.last_lsn > before \
            else self.snapshot_lsn

    def abort(self):
        self._txn.abort()

    rollback = abort

    @property
    def closed(self):
        return self._txn.closed

    @property
    def outcome(self):
        return self._txn.outcome

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self._txn.closed:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


class ReplicationGroup:
    """One primary plus ``n_replicas`` replicas behind a single facade.

    Parameters
    ----------
    n_replicas:
        Replica count; 0 degrades to single-node Database behaviour.
    mode:
        ``"sync"`` (commit waits for quorum ack) or ``"async"``
        (commit returns on local durability).
    faults:
        Injector armed against the *link* sites (``repl.ship`` /
        ``repl.ack``).  Each node carries its own injector for its
        commit-path sites, reachable as ``group.nodes[i].faults``.
    heartbeat_every / election_timeout / sync_timeout:
        Protocol timing, in ticks of the simulated clock.
    batch_per_tick:
        Max entries shipped to one follower per tick (catch-up rate).
    """

    def __init__(self, n_replicas=2, mode="sync", faults=None,
                 heartbeat_every=1, election_timeout=5, sync_timeout=60,
                 batch_per_tick=8, tracer=None, db_kwargs=None):
        if mode not in ("sync", "async"):
            raise ValueError("mode must be 'sync' or 'async'")
        if n_replicas < 0:
            raise ValueError("n_replicas must be >= 0")
        self.mode = mode
        self.clock = SimClock()
        self.faults = faults if faults is not None else NO_FAULTS
        self.tracer = tracer if tracer is not None else NO_TRACE
        self.heartbeat_every = heartbeat_every
        self.election_timeout = election_timeout
        self.sync_timeout = sync_timeout
        self.batch_per_tick = batch_per_tick
        self.stats = ReplicationStats()
        self.failovers = []            # [FailoverEvent]
        kwargs = dict(db_kwargs or {})
        self.nodes = [Node(i, **kwargs) for i in range(n_replicas + 1)]
        self.primary = self.nodes[0]
        self._install_primary(self.primary, term=1)
        self.commit_lsn = -1           # highest quorum-durable LSN
        self.acked = {}                # follower id -> last acked LSN
        self._links = {}               # (src, dst) -> SimulatedLink
        self._read_rr = 0              # read round-robin cursor
        # Statements are parsed here once and the parsed statement runs
        # on whichever node serves it (each plans it in its own cache).
        self.statement_cache = StatementCache()

    # -- membership ------------------------------------------------------------

    @property
    def quorum(self):
        """Majority of all member nodes (the primary included)."""
        return len(self.nodes) // 2 + 1

    def replicas(self):
        return [n for n in self.nodes if n.role == "replica"]

    def require_primary(self):
        node = self.primary
        if node is None or not node.alive:
            raise NoPrimaryError(
                "no live primary (tick() until failover completes)")
        return node

    def _install_primary(self, node, term):
        node.role = "primary"
        node.term = term
        # Weakly: the node owns its log (no cycle).
        node.log.stamp = lambda n=weakref.proxy(node): (
            n.term, n.log.last_lsn + 1)

    def _link(self, src, dst):
        link = self._links.get((src, dst))
        if link is None:
            link = SimulatedLink(SHIP_SITE, faults=self.faults,
                                 name="{0}->{1}".format(src, dst))
            self._links[(src, dst)] = link
        return link

    def partition(self, a, b):
        """Cut both directions of the link between nodes ``a`` and ``b``."""
        self._link(a, b).cut()
        self._link(b, a).cut()

    def heal(self, a, b):
        self._link(a, b).heal()
        self._link(b, a).heal()

    def heal_all(self):
        for link in self._links.values():
            link.heal()

    def kill(self, node_id):
        """Crash a node: it stops sending and processing immediately."""
        self.mark_dead(self.nodes[node_id])

    def mark_dead(self, node):
        node.alive = False

    def restart(self, node_id):
        """Revive a dead node as a replica: replay its own WAL (recover
        is idempotent, so a clean node is unharmed), then rejoin — the
        current leader's catch-up stream fences any divergent tail.
        Crashes armed on the dead process die with it: the new process
        would otherwise fire one on its first catch-up append."""
        node = self.nodes[node_id]
        node.faults.disarm("crash")
        node.alive = True
        node.db.recover()
        if self.primary is node and node.role == "primary":
            return node  # died and came back before anyone noticed
        node.role = "replica"
        node.log.stamp = None
        node.last_heard = self.clock.now
        return node

    # -- the clock -------------------------------------------------------------

    def tick(self, ticks=1):
        """Advance the simulated clock: broadcast, deliver, detect."""
        for _ in range(ticks):
            now = self.clock.advance()
            self._broadcast(now)
            self._deliver(now)
            self._detect_failure(now)
        return self.clock.now

    def drain(self, max_ticks=500):
        """Tick until every live replica has caught up with the
        primary (or the budget runs out); returns ticks spent."""
        start = self.clock.now
        for _ in range(max_ticks):
            primary = self.primary
            if primary is None or not primary.alive:
                break
            followers = [n for n in self.nodes
                         if n.alive and n is not primary]
            # != rather than <: a deposed primary's longer stale tail
            # still needs heartbeats to fence it down to the leader.
            if all(n.last_lsn == primary.last_lsn and
                   self.acked.get(n.node_id, -1) >= primary.last_lsn
                   for n in followers):
                break
            self.tick()
        return self.clock.now - start

    # -- shipping protocol -----------------------------------------------------

    def _broadcast(self, now):
        primary = self.primary
        if primary is None or not primary.alive:
            return
        if now % self.heartbeat_every:
            return
        for peer in self.nodes:
            if peer is primary or not peer.alive:
                continue
            link = self._link(primary.node_id, peer.node_id)
            start = self.acked.get(peer.node_id, -1) + 1
            entries = primary.log.entries[start:start +
                                          self.batch_per_tick]
            if entries:
                prev = primary.log.entry_at(start - 1)
                message = ("entries", primary.term,
                           [e.record for e in entries],
                           [e.checksum for e in entries],
                           start - 1,
                           prev.checksum if prev is not None else None)
                size = sum(e.size for e in entries)
                if link.send(message, now, size=size):
                    self.stats.shipped_entries += len(entries)
                    self.stats.shipped_bytes += size
                    if self.tracer.enabled:
                        self.tracer.add("repl_shipped_bytes", size)
            else:
                message = ("heartbeat", primary.term, primary.last_lsn,
                           primary.log.checksum_at(primary.last_lsn))
                if link.send(message, now, size=24):
                    self.stats.heartbeats += 1

    def _deliver(self, now):
        for (src, dst) in sorted(self._links):
            link = self._links[(src, dst)]
            for message in link.deliver(now):
                receiver = self.nodes[dst]
                if not receiver.alive:
                    continue
                self._receive(receiver, src, message, now)

    def _receive(self, node, src, message, now):
        kind = message[0]
        if kind == "ack":
            self._receive_ack(node, message)
        elif kind in ("entries", "heartbeat"):
            self._receive_from_leader(node, src, message, now)

    def _receive_from_leader(self, node, src, message, now):
        term = message[1]
        if term < node.term:
            return  # a deposed primary's straggler traffic: fenced
        node.term = term
        if node.role in ("primary", "deposed") and \
                self.nodes[src].role == "primary":
            # A higher-term leader exists: step down to follower.
            node.role = "replica"
            node.log.stamp = None
        node.last_heard = now
        if message[0] == "entries":
            _, _, records, checksums, prev_lsn, prev_crc = message
            self._append_entries(node, records, checksums, prev_lsn,
                                 prev_crc)
            verified = prev_lsn + len(records)
        else:
            _, _, leader_last, leader_crc = message
            self._reconcile_tail(node, leader_last, leader_crc)
            verified = leader_last
        # Ack only the position verified against this leader's log —
        # never a stale tail beyond it (which would let the leader
        # advance the commit LSN over history it does not hold).
        ack = ("ack", node.term, min(node.last_lsn, verified),
               node.node_id)
        self._link(node.node_id, src).send(ack, now, size=16,
                                           site=ACK_SITE)

    def _reconcile_tail(self, node, leader_last, leader_crc):
        """Fence a follower log that extends past the leader's head.

        Entries beyond the leader's log cannot be quorum-durable
        (elections require a majority of candidates, so every elected
        leader holds all quorum-acked entries) — they are a deposed
        primary's unacked tail and lose to the new history."""
        if node.last_lsn <= leader_last:
            return
        if leader_last < 0:
            keep = 0
        elif node.log.checksum_at(leader_last) == leader_crc:
            keep = leader_last + 1  # prefix agrees: drop only the tail
        else:
            keep = leader_last      # head disagrees too: back up further
        self.stats.fenced_entries += node.fence_to(keep)

    def _append_entries(self, node, records, checksums, prev_lsn, prev_crc):
        """Raft-style log reconciliation by per-LSN checksum (the
        leader's, shipped beside each record)."""
        if prev_lsn >= 0:
            prev = node.log.entry_at(prev_lsn)
            if prev is None:
                return  # gap: ack reports our true position; leader backs up
            if prev.checksum != prev_crc:
                # Divergent history at the attach point: fence it.
                self.stats.fenced_entries += node.fence_to(prev_lsn)
                return
        for record, checksum in zip(records, checksums):
            lsn = record["lsn"]
            if lsn <= node.last_lsn:
                own = node.log.entry_at(lsn)
                if own is not None and own.checksum == checksum:
                    continue  # duplicate of what we already hold
                # Same LSN, different content: the old leader's unacked
                # tail — truncate it and take the new history.
                self.stats.fenced_entries += node.fence_to(lsn)
            if lsn != node.last_lsn + 1:
                break  # out-of-order remainder; await retransmission
            try:
                node.db._write(record)
            except CrashError:
                self.mark_dead(node)
                return

    def _receive_ack(self, node, message):
        _, term, lsn, src_id = message
        if node.role != "primary" or term < node.term:
            return
        self.acked[src_id] = lsn
        self.stats.acks += 1
        self._advance_commit(node)

    def _advance_commit(self, primary):
        """Raft commit rule: the highest LSN a quorum holds."""
        positions = [primary.last_lsn]
        positions += [self.acked.get(r.node_id, -1)
                      for r in self.replicas()]
        positions.sort(reverse=True)
        durable = positions[self.quorum - 1]
        if durable > self.commit_lsn:
            self.commit_lsn = durable

    # -- failure detection and election ----------------------------------------

    def _detect_failure(self, now):
        primary = self.primary
        live = [r for r in self.replicas() if r.alive]
        if not live:
            return
        starving = [r for r in live
                    if now - r.last_heard > self.election_timeout]
        if primary is None or not primary.alive:
            if starving:
                self._failover(now, reason="primary dead")
        elif len(starving) >= self.quorum:
            # A live primary partitioned away from a majority.
            self._failover(now, reason="primary partitioned")

    def _failover(self, now, reason):
        candidates = [r for r in self.replicas() if r.alive]
        if len(candidates) < min(self.quorum, len(self.nodes) - 1):
            # Raft's safety rule: electing without a majority could
            # promote a node missing quorum-acked entries.  (With a
            # single replica a majority is unreachable once the
            # primary is gone, so that degenerate cluster allows the
            # lone survivor — it holds every sync-acked entry anyway.)
            return None
        winner = max(candidates,
                     key=lambda r: (r.last_term, r.last_lsn, -r.node_id))
        event = FailoverEvent(
            term=max(n.term for n in self.nodes) + 1,
            winner=winner.node_id, reason=reason, tick=now,
            candidates={r.node_id: r.position() for r in candidates})
        old = self.primary
        if old is not None and old is not winner:
            old.log.stamp = None  # fence the deposed leader's log
            old.role = "deposed"
        self._install_primary(winner, term=event.term)
        self.primary = winner
        self.acked = {}
        for replica in self.replicas():
            replica.last_heard = now  # grace period under the new term
        self.failovers.append(event)
        self.stats.failovers += 1
        if self.tracer.enabled:
            self.tracer.add("repl_failovers", 1)
        return event

    def await_failover(self, max_ticks=50):
        """Tick until a new primary is serving (used after a crash);
        returns the new primary node or raises :class:`NoPrimaryError`."""
        for _ in range(max_ticks):
            node = self.primary
            if node is not None and node.alive:
                return node
            self.tick()
        return self.require_primary()

    # -- statement routing -----------------------------------------------------

    def execute(self, sql, session=None, min_lsn=None, context=None):
        """Execute one statement against the cluster.

        DML/DDL routes to the primary (commit semantics per ``mode``);
        SELECT load-balances round-robin across caught-up live
        replicas, falling back to the primary when none qualifies.  A
        ``SET`` pragma applies to every node's database.  A
        ``session`` adds read-your-writes routing; ``min_lsn`` raises
        the routing floor further (the session layer passes its
        snapshot LSN so a replica read is never older than the
        snapshot point).  ``context`` is an optional
        :class:`~repro.governance.QueryContext`: reads checkpoint at
        the routing decision and the chosen node runs the statement
        under the context."""
        statement = parse_sql(sql, self.statement_cache) \
            if isinstance(sql, str) else sql
        if isinstance(statement, Select):
            return self._execute_read(statement, session, min_lsn=min_lsn,
                                      context=context)
        if isinstance(statement, SetPragma):
            # Session state, not a write: every node serves reads.
            for node in self.nodes:
                node.db.execute(statement)
            return None
        return self._execute_write(statement, session, context=context)

    def query(self, sql, session=None, min_lsn=None):
        return self.execute(sql, session=session, min_lsn=min_lsn).rows()

    def begin(self, pin=False):
        """A replicated transaction on the primary (commit waits for
        quorum in sync mode, like autocommit writes).  ``pin=True``
        snapshots every table at begin (see ``Database.begin``)."""
        return ReplicatedTransaction(self, pin=pin)

    def session(self, read_your_writes=True):
        return Session(self, read_your_writes=read_your_writes)

    def _execute_write(self, statement, session, context=None):
        node = self.require_primary()
        before = node.last_lsn
        if self.tracer.enabled:
            with self.tracer.span("repl.write", kind="replication",
                                  node=node.node_id, mode=self.mode):
                return self._write_and_wait(node, statement, before, session,
                                            context=context)
        return self._write_and_wait(node, statement, before, session,
                                    context=context)

    def _write_and_wait(self, node, statement, before, session,
                        context=None):
        try:
            result = node.db.execute(statement, context=context)
        except CrashError:
            self.mark_dead(node)  # the primary process died mid-commit
            raise
        self._finish_write(node, before)
        if session is not None:
            session.last_write_lsn = node.last_lsn
        return result

    def _finish_write(self, node, before):
        target = node.last_lsn
        if target == before:
            return  # no log growth (e.g. a no-op delete)
        if self.mode == "sync" and self.quorum > 1:
            self._await_quorum(target)
        else:
            self.commit_lsn = max(self.commit_lsn, target)
        if self.tracer.enabled:
            span = self.tracer.current
            if span is not None:
                span.counters["repl_acked_lsn"] = self.commit_lsn
                span.counters["repl_lag"] = self.max_lag()

    def _await_quorum(self, target):
        deadline = self.clock.now + self.sync_timeout
        while self.commit_lsn < target:
            if self.clock.now >= deadline:
                self.stats.quorum_timeouts += 1
                raise QuorumTimeout(
                    "LSN {0} not quorum-acked within {1} ticks".format(
                        target, self.sync_timeout))
            self.tick()

    def _execute_read(self, statement, session, min_lsn=None,
                      context=None):
        if context is not None and context.active:
            # The routing cancellation point: fires before a node is
            # chosen, so a killed read never touches any replica.
            context.checkpoint(CHECK_ROUTE)
        floor = self.commit_lsn
        if session is not None and session.read_your_writes:
            floor = max(floor, session.last_write_lsn)
        if min_lsn is not None:
            floor = max(floor, min_lsn)
        candidates = [r for r in self.replicas()
                      if r.alive and r.last_lsn >= floor]
        if candidates:
            node = candidates[self._read_rr % len(candidates)]
            self._read_rr += 1
            self.stats.reads_replica += 1
        else:
            node = self.require_primary()
            self.stats.reads_primary += 1
        if self.tracer.enabled:
            with self.tracer.span("repl.read", kind="replication",
                                  node=node.node_id):
                return node.db.execute(statement, context=context)
        return node.db.execute(statement, context=context)

    # -- observability ---------------------------------------------------------

    def lag(self):
        """Per-replica entry lag behind the primary's log."""
        primary = self.primary
        head = primary.last_lsn if primary is not None else -1
        return {r.node_id: head - r.last_lsn for r in self.replicas()}

    def max_lag(self):
        lags = self.lag()
        return max(lags.values()) if lags else 0

    def divergence_report(self, include_dead=False):
        """Per-LSN checksum comparison across the cluster.

        Returns ``[(lsn, {node_id: checksum})]`` for every LSN in the
        nodes' common prefix where at least two nodes disagree — after
        failover plus catch-up this must be empty (the chaos-sweep
        acceptance invariant).  Dead nodes are skipped by default:
        their logs are reconciled on restart.  With ``include_dead`` a
        dead node that lags also reports every LSN it lacks, with a
        None checksum, so a member that never caught up is not silent."""
        nodes = [n for n in self.nodes if n.alive or include_dead]
        if len(nodes) < 2:
            return []
        common = min(n.last_lsn for n in nodes)
        dead = [n.node_id for n in nodes if not n.alive]
        head = max(n.last_lsn for n in nodes) if dead else common
        mismatched = []
        for lsn in range(head + 1):
            sums = {n.node_id: n.log.checksum_at(lsn) for n in nodes}
            if lsn > common:
                # Past the common prefix a live member is catching up;
                # a dead one missing the entry never will.
                diverged = any(sums[i] is None for i in dead)
            else:
                diverged = len(set(sums.values())) > 1
            if diverged:
                mismatched.append((lsn, sums))
        return mismatched

    def __repr__(self):
        primary = self.primary.node_id if self.primary else None
        return ("ReplicationGroup({0} nodes, primary={1}, mode={2}, "
                "commit_lsn={3})".format(len(self.nodes), primary,
                                         self.mode, self.commit_lsn))
