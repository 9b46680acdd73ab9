"""Cross-shard transactions: two-phase commit over per-shard WALs.

A :class:`ShardedTransaction` holds one lazy snapshot-isolation
:class:`~repro.sql.transactions.Transaction` per shard it touches;
reads scatter through the coordinator's planner against those
transaction views, writes buffer into the per-shard transactions with
the same key routing as autocommit DML.

Commit reuses the single-node commit phases
(:meth:`Transaction._validate` / :meth:`_distill_ops` /
:meth:`_publish`) under the classic presumed-abort protocol:

* **Fast path** — at most one shard wrote: that shard runs its plain
  local commit; 2PC costs nothing when the partitioning key routes a
  transaction to one shard.
* **Phase 1 (prepare)** — each participant validates and force-logs a
  ``prepare`` record (its distilled ops) through its own WAL and fault
  sites (``commit.validate`` / ``wal.append``).  Any conflict or crash
  here aborts the whole transaction; a crashed participant's
  in-doubt prepare resolves to abort later, because no decision was
  logged.
* **Decision** — the coordinator force-logs ``decision: commit`` to
  its own log.  This single append is the commit point.
* **Phase 2 (decide)** — each participant logs ``decide`` and
  publishes its ops (``commit.publish`` / ``commit.apply`` sites).  A
  crash here cannot un-commit: the decision is durable, and
  :meth:`ShardedDatabase.recover` resolves the survivor's in-doubt
  prepare from the coordinator's decision log.
"""

from repro.faults import CrashError
from repro.governance.context import CHECK_PREPARE
from repro.governance.errors import GovernanceError
from repro.sharding.planner import _prune_value
from repro.sharding.resharding import StaleEpochError
from repro.sql.ast import (
    CreateTable, Delete, Insert, Select, Update,
)
from repro.sql.parser import parse_sql
from repro.sql.transactions import ConflictError, TransactionClosedError


class ShardedTransaction:
    """One distributed transaction over a :class:`ShardedDatabase`."""

    def __init__(self, coordinator, context=None):
        self._co = coordinator
        self._txns = {}          # shard id -> local Transaction
        self.closed = False
        self.outcome = None
        self.xid = None          # assigned when 2PC actually runs
        # Optional repro.governance.QueryContext: governs this
        # transaction's statements and its prepare phase.  Checkpoints
        # fire before each participant prepares — never after the
        # decision record, the commit's point of no return.
        self.context = context
        # The shard-map epoch this transaction's routing decisions are
        # valid against; a resharding cutover mid-transaction fences it
        # (see _check_fenced).
        self.epoch = coordinator.shard_map.epoch

    # -- plumbing -------------------------------------------------------------

    def _check_open(self):
        if self.closed:
            raise TransactionClosedError(
                "transaction already {0}".format(self.outcome))

    def _check_fenced(self):
        """Depose this transaction if a cutover installed a newer map:
        its reads and buffered routing predate the epoch, so letting it
        commit could write buckets the source no longer owns.  Raises
        :class:`~repro.sharding.resharding.StaleEpochError` (a
        ConflictError — sessions retry it like any conflict)."""
        current = self._co.shard_map.epoch
        if current != self.epoch:
            self._co.stats.stale_epoch_rejections += 1
            raise StaleEpochError(
                "transaction began at shard-map epoch {0}; epoch {1} "
                "is installed — retry against the new map".format(
                    self.epoch, current))

    def _txn(self, shard_id):
        txn = self._txns.get(shard_id)
        if txn is None:
            txn = self._co.shards[shard_id].database.begin()
            self._txns[shard_id] = txn
        return txn

    def _runner(self):
        """Scatter runner executing shard selects on this transaction's
        per-shard snapshot views (through the simulated links)."""
        co = self._co
        return lambda shard_id, ast: co._rpc(
            shard_id, ("txn-select", repr(ast)),
            lambda: co.shards[shard_id].database._run_select(
                ast, view=self._txn(shard_id)))

    # -- statement execution ---------------------------------------------------

    def execute(self, sql, context=None):
        """Execute a statement inside the transaction: SELECT returns a
        ResultSet, DML returns the (buffered) affected row count.
        ``context`` overrides the transaction's governance context for
        this one statement (the session layer passes per-statement
        contexts)."""
        self._check_open()
        self._check_fenced()
        statement = parse_sql(sql, self._co.statement_cache) \
            if isinstance(sql, str) else sql
        if isinstance(statement, CreateTable):
            raise NotImplementedError("DDL inside a transaction")
        if isinstance(statement, Select):
            return self._co._select(
                statement, runner=self._runner(),
                context=context if context is not None else self.context)
        if isinstance(statement, Insert):
            return self._buffer_insert(statement)
        if isinstance(statement, (Delete, Update)):
            return self._buffer_write(statement)
        raise TypeError("unsupported statement {0!r}".format(statement))

    def query(self, sql):
        return self.execute(sql).rows()

    def _buffer_insert(self, statement):
        info = self._co.schema.get(statement.table)
        if info.partition_by is None:
            counts = [self._txn(s)._buffer_insert(statement)
                      for s in self._co.broadcast_shards()]
            return counts[0]
        return sum(self._txn(shard_id)._buffer_insert(sub)
                   for shard_id, sub in self._co._split_insert(statement,
                                                               info))

    def _buffer_write(self, statement):
        info = self._co.schema.get(statement.table)
        if info.partition_by is None:
            # Reference table: the same write buffers on every shard.
            counts = [self._apply_local(s, statement)
                      for s in self._co.broadcast_shards()]
            return counts[0]
        pruned, value = _prune_value(statement.where,
                                     [(statement.table, info)])
        targets = [self._co.shard_map.shard_of(value)] if pruned \
            else list(self._co.shard_map.active)
        if isinstance(statement, Update) and \
                info.partition_by in {c for c, _ in statement.assignments}:
            return self._moving_update(statement, info, targets)
        return sum(self._apply_local(s, statement) for s in targets)

    def _apply_local(self, shard_id, statement):
        txn = self._txn(shard_id)
        if isinstance(statement, Delete):
            return txn._buffer_delete(statement)
        return txn._buffer_update(statement)

    def _moving_update(self, statement, info, targets):
        """UPDATE that rewrites the partition key: delete the matched
        rows where they live, then route each rewritten row to the
        shard its *new* key hashes to.  Destination appends are held
        back until every source shard has evaluated its matches, so a
        row never moves twice within one statement."""
        key_index = info.key_index
        moved = []     # (destination shard, full row tuple)
        count = 0
        for shard_id in targets:
            txn = self._txn(shard_id)
            table = txn.get(statement.table)
            db = self._co.shards[shard_id].database
            new_rows = table.checked_rows(
                db._eval_update_rows(table, statement, view=txn))
            oids = txn._matched_oids(statement)
            dead = txn._deleted.setdefault(statement.table, set())
            dead.update(oids)
            for row in new_rows:
                moved.append((self._co.shard_map.shard_of(row[key_index]),
                              tuple(row)))
            count += len(oids)
        for shard_id, row in moved:
            txn = self._txn(shard_id)
            txn.get(statement.table)   # pin the snapshot
            txn._appends.setdefault(statement.table, []).append(row)
            txn._bind_cache = {k: v for k, v in txn._bind_cache.items()
                               if k[0] != statement.table}
        return count

    # -- commit / abort ---------------------------------------------------------

    def _open_txns(self):
        return [t for t in self._txns.values() if not t.closed]

    def _close(self, outcome):
        self.closed = True
        self.outcome = outcome

    def _abort_open(self):
        for txn in self._open_txns():
            txn.abort()

    def abort(self):
        self._check_open()
        self._abort_open()
        self._close("aborted")

    rollback = abort

    def commit(self):
        """Commit across every written shard (see module docstring)."""
        self._check_open()
        co = self._co
        try:
            self._check_fenced()
        except StaleEpochError:
            self._abort_open()
            self._close("aborted (stale epoch)")
            raise
        participants = [(shard_id, txn) for shard_id, txn
                        in sorted(self._txns.items())
                        if txn._appends or txn._deleted]
        if len(participants) <= 1:
            co.stats.twopc_fast_path += 1
            try:
                for _, txn in participants:
                    txn.commit()
            except ConflictError:
                self._abort_open()
                self._close("aborted (conflict)")
                raise
            except CrashError:
                self._abort_open()
                self._close("crashed")
                raise
            self._abort_open()   # read-only snapshots just close
            self._close("committed")
            if participants:
                co._after_write()
            return
        self.xid = co.next_xid()
        prepared = []            # [(shard id, txn, ops)]
        try:
            for shard_id, txn in participants:
                if self.context is not None and self.context.active:
                    # The per-participant cancellation point: fires
                    # before this shard validates or force-logs its
                    # prepare.  Already-prepared shards roll back with
                    # best-effort decide-abort records; a shard whose
                    # prepare record is durable but undecided resolves
                    # to abort at recovery (presumed abort) because
                    # the decision was never logged.
                    self.context.checkpoint(CHECK_PREPARE)
                db = txn._db
                db.faults.inject("commit.validate")
                txn._validate()
                ops = txn._distill_ops()
                db.wal.append({"kind": "prepare", "xid": self.xid,
                               "ops": ops})
                prepared.append((shard_id, txn, ops))
        except GovernanceError:
            self._rollback_prepared(prepared)
            self._abort_open()
            self._close("cancelled")
            co.stats.twopc_aborts += 1
            raise
        except ConflictError:
            self._rollback_prepared(prepared)
            self._abort_open()
            self._close("aborted (conflict)")
            co.stats.twopc_aborts += 1
            raise
        except CrashError:
            # The participant being prepared died; its in-doubt prepare
            # (if the record made it to the WAL) resolves to abort at
            # recovery because no decision was ever logged.
            txn.closed = True
            txn.outcome = "crashed"
            self._rollback_prepared(prepared)
            self._abort_open()
            self._close("crashed")
            co.stats.twopc_aborts += 1
            raise
        # The commit point: one durable append to the decision log.
        try:
            co.decision_log.append(
                {"kind": "decision", "xid": self.xid,
                 "outcome": "commit",
                 "shards": [shard_id for shard_id, _, _ in prepared]})
        except CrashError:
            # Coordinator died before deciding: presumed abort — every
            # prepared shard resolves to abort from the silent log.
            for _, txn, _ in prepared:
                txn.closed = True
                txn.outcome = "crashed"
            self._abort_open()
            self._close("crashed")
            co.stats.twopc_aborts += 1
            raise
        # The decision is durable but not yet shipped to any shard: a
        # crash here leaves every participant in doubt with the
        # *committed* outcome only in the coordinator's log — the case
        # recover()/resolve_in_doubt must converge to commit on every
        # shard (swept in the 2PC crash tests).
        try:
            co.faults.inject("twopc.decided")
        except CrashError:
            for _, txn, _ in prepared:
                txn.closed = True
                txn.outcome = "crashed"
            self._abort_open()
            self._close("crashed")
            raise
        failure = None
        for shard_id, txn, ops in prepared:
            try:
                txn._db.wal.append({"kind": "decide", "xid": self.xid,
                                    "outcome": "commit"})
                txn._publish(ops)
                txn.commit_lsn = txn._db._bump_commit()
                txn.closed = True
                txn.outcome = "committed"
            except CrashError as crash:
                # Cannot un-commit: the decision is durable.  The shard
                # catches up when recover() replays its WAL and settles
                # the in-doubt prepare from the decision log.
                txn.closed = True
                txn.outcome = "crashed"
                if failure is None:
                    failure = crash
        self._abort_open()
        self._close("committed")
        co.stats.twopc_commits += 1
        if failure is not None:
            raise failure
        co._after_write()

    def _rollback_prepared(self, prepared):
        """Best-effort decide-abort records for already-prepared shards
        (presumed abort makes them optional, but they keep a later WAL
        replay from carrying in-doubt state)."""
        for _, txn, _ in prepared:
            try:
                txn._db.wal.append({"kind": "decide", "xid": self.xid,
                                    "outcome": "abort"})
            except CrashError:
                pass
            txn.closed = True
            txn.outcome = "aborted (conflict elsewhere)"

    # -- context manager --------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self.closed:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False
