"""Online resharding: live shard split/merge with a fenced cutover.

A :class:`Resharding` migration moves a set of hash buckets from a
*source* shard to a *target* shard while reads and writes keep flowing,
then atomically installs a new :class:`~repro.sharding.partition.ShardMap`
epoch.  Three operations share the machinery:

* **split** — a fresh node joins; the map is refined (bucket doubling,
  placement-preserving) until the source owns at least two buckets, and
  half of them move to the new node.
* **merge** — every bucket of the source moves to an existing node and
  the source retires (node removal).
* **move**  — an explicit bucket set rebalances between two established
  nodes.

The state machine (every phase crash-restartable)::

    begin -> copy -> catchup -> dual -> cutover -> done

``begin``
    One durable record in the coordinator's ``reshard.wal`` fixes the
    whole plan: the moving buckets, the refined pre-migration map, the
    post-cutover assignment/epoch, and ``wal_from`` — the source WAL
    offset that splits history into *snapshot* (copied) and *delta*
    (tailed).  A fresh target node is created and bootstrapped with the
    schema's DDL (idempotently, so a crash mid-bootstrap re-runs it).

``copy``
    The snapshot — the source state reconstructed by replaying its WAL
    prefix ``[0, wal_from)`` into a *shadow* database — ships to the
    target in row chunks over a dedicated
    :class:`~repro.datacyclotron.link.SimulatedLink` pair (fault sites
    ``reshard.ship`` / ``reshard.ack``).  Each chunk lands on the
    target as one WAL-logged ``stage`` record stamped with its unit
    number — durable but *invisible* to the target's catalog, so
    scatter reads never see a moving row on both sides — and a
    restarted coordinator scans the target WAL and resumes after the
    last durable unit: a chunk is staged exactly once.

``catchup``
    Writes racing the copy keep committing on the source (it stays
    authoritative until cutover); the migration *tails the source WAL*
    from ``wal_from``, translating each committed record into a target
    delta: appends filter by moving-bucket membership of the partition
    key, and deletes — logical oids on the source — resolve to row
    *contents* through the shadow (which replays every record just
    before the tail passes it, so it always holds the pre-record
    state), then net one matching row out of the staged multiset
    (moving rows live only on the source pre-cutover, so a delta
    delete always finds its victim among the staged rows).  2PC
    participants translate at their ``decide: commit`` record using the
    shadow's pending prepare.  Each delta lands as one durable
    ``stage`` record stamped with the source-WAL position it covers —
    the cursor that makes replay after a crash skip, never
    double-apply.

``dual``
    Lag is zero; every subsequent coordinator write is *dual-routed* —
    after the source commit, the write path synchronously pumps the
    tail so the target stays current.  A pump failure (link cut, crash
    plan) demotes the migration to ``catchup`` rather than failing the
    already-durable source write.

``cutover``
    The 2PC-style fence: a fence round-trip to the target over the
    migration links proves liveness, the tail drains to lag zero, and
    one durable ``decision`` record in ``reshard.wal`` is the commit
    point.  Then the staged multiset *installs* on the target as one
    stamped commit (idempotent — a retried cutover sees the durable
    install stamp and skips), the moved rows are *purged* from the
    source (a logged, idempotent delete — without it the rows would
    double-count), the
    new epoch-stamped map installs, the target's ``joining`` flag
    clears (a merge retires the source), and a ``done`` record closes
    the migration.  A crash after the decision finishes the cutover
    inside :meth:`ShardedDatabase.recover`; a crash before it resumes
    the migration under the old map.  Transactions that began under the
    old epoch are fenced with :class:`StaleEpochError` — a
    :class:`~repro.sql.transactions.ConflictError`, so sessions retry
    them like any first-writer-wins conflict.

DDL is rejected while a migration is active, and vacuum
(``merge_deltas``) must not run on the source mid-migration — both
would invalidate the oid-stable shadow the delta translation leans on.
"""

from dataclasses import dataclass

from repro.datacyclotron.link import SimulatedLink
from repro.faults import CrashError, TransientFault
from repro.sharding.partition import ShardMap, partition_hash
from repro.sql.ast import CreateMaterializedView, CreateTable
from repro.sql.database import Database
from repro.sql.transactions import ConflictError

RESHARD_SHIP = "reshard.ship"
RESHARD_ACK = "reshard.ack"

#: Injection sites marking the migration's phase boundaries, in order;
#: the chaos sweep crashes at every hit of every one of them.
PHASE_SITES = ("reshard.begin", "reshard.copy", "reshard.catchup",
               "reshard.cutover", "reshard.purge")


class ReshardingError(RuntimeError):
    """The migration cannot proceed as requested."""


class MigrationInProgressError(ReshardingError):
    """Rejected because a resharding migration is already active."""


class StaleEpochError(ConflictError):
    """A request carried a shard-map epoch older than the installed
    one: its owner was deposed by a cutover.  Subclasses
    :class:`~repro.sql.transactions.ConflictError` so the session layer
    treats it as a retryable conflict against the new map."""


@dataclass
class ReshardingStats:
    """Progress and load counters for one migration (tracer-visible)."""

    units_shipped: int = 0     # snapshot chunks applied to the target
    rows_copied: int = 0       # snapshot rows shipped
    deltas_applied: int = 0    # tailed source records applied
    delta_rows: int = 0        # rows those deltas appended/deleted
    pump_failures: int = 0     # dual-routing pumps demoted to catchup
    ack_failures: int = 0      # applied deltas whose ack was lost
    cutover_attempts: int = 0
    purged_rows: int = 0       # moved rows deleted from the source


def _row_key(row):
    """Comparable form of one row (NaN compares equal to itself)."""
    return tuple("__nan__" if isinstance(v, float) and v != v else v
                 for v in row)


class Resharding:
    """One live migration over a ShardedDatabase (see module docstring).

    Constructed from its durable ``begin`` record — the constructor is
    exactly the crash-recovery path, so a freshly started migration and
    one resumed after a coordinator restart are the same object.
    In-memory state (the shadow database, the copy plan, the durable
    progress cursor) rebuilds lazily on the first :meth:`step`.
    """

    def __init__(self, coordinator, record):
        self._co = coordinator
        self.mid = record["mid"]
        self.op = record["op"]              # 'split' | 'merge' | 'move'
        self.source = record["source"]
        self.target = record["target"]
        self.fresh = record["fresh"]        # target is a brand-new node
        self.buckets = set(record["buckets"])
        self.n_buckets = record["n_buckets"]
        self.wal_from = record["wal_from"]
        self.chunk_rows = record["chunk_rows"]
        self.record = record
        self.phase = "copy"
        self.stats = ReshardingStats()
        self._shadow = None      # source mirror for delta translation
        self._shadow_pos = 0     # source WAL bytes the shadow replayed
        self._units = None       # [(table, rows)] snapshot chunks
        self._units_done = 0
        self._stage = {}         # table -> migrated rows, pre-install
        self._installed = False  # cutover materialized the stage
        faults = coordinator.faults
        self.link_out = SimulatedLink(
            RESHARD_SHIP, faults=faults,
            name="reshard->s{0}".format(self.target))
        self.link_in = SimulatedLink(
            RESHARD_ACK, faults=faults,
            name="s{0}->reshard".format(self.target))

    # -- derived state ---------------------------------------------------------

    @property
    def finished(self):
        return self.phase in ("done", "aborted")

    def _source_db(self):
        return self._co.shards[self.source].db

    def _target_db(self):
        return self._co.shards[self.target].db

    def _moving(self, value):
        return partition_hash(value) % self.n_buckets in self.buckets

    def lag_bytes(self):
        """Source-WAL bytes the tail has not consumed yet."""
        return self._source_db().wal.size_bytes - self._shadow_pos

    def cut_link(self):
        """Partition the migration's own snapshot/delta channel."""
        self.link_out.cut()
        self.link_in.cut()

    def heal_link(self):
        self.link_out.heal()
        self.link_in.heal()

    def progress(self):
        """Migration progress snapshot (also stamped on tracer spans)."""
        loaded = self._shadow is not None
        return {
            "mid": self.mid, "op": self.op, "phase": self.phase,
            "source": self.source, "target": self.target,
            "buckets": sorted(self.buckets),
            "units_done": self._units_done,
            "units_total": len(self._units) if self._units is not None
            else None,
            "rows_copied": self.stats.rows_copied,
            "deltas_applied": self.stats.deltas_applied,
            "lag_bytes": self.lag_bytes() if loaded else None,
            "new_epoch": self.record["new_epoch"],
        }

    # -- bootstrap / resume ----------------------------------------------------

    def bootstrap(self):
        """Create the target's tables (fresh node only).  Idempotent:
        a crash mid-bootstrap re-runs it and only the missing tables
        are created, so the target WAL never holds a duplicate DDL
        record."""
        if not self.fresh:
            return
        db = self._target_db()
        for name in sorted(self._co.schema.tables):
            if name in db.catalog:
                continue
            info = self._co.schema.tables[name]
            db.execute(CreateTable(name, [list(c) for c in info.columns],
                                   partition_by=info.partition_by))
        # Materialized views install after their base tables (empty, so
        # the initial materialization is empty); the install commit and
        # every later write maintain them through the target's own
        # _apply_ops.  Idempotent like the tables above.
        for name in sorted(self._co.views):
            if db.views.is_view(name):
                continue
            db.execute(CreateMaterializedView(
                name, self._co.views[name].select))

    def _scan_target_progress(self):
        """Durable progress from the target WAL: (units applied, max
        source-WAL position covered by an applied delta).  Also rebuilds
        the staged row multiset — the net of every ``stage`` record —
        and notices a durable install commit (so a cutover retried
        after a crash never materializes the stage twice)."""
        units_done, delta_pos = 0, self.wal_from
        self._stage = {}
        self._installed = False
        for record in self._target_db().wal.records():
            stamp = record.get("reshard")
            if not stamp or stamp.get("mid") != self.mid:
                continue
            if stamp["kind"] == "copy":
                units_done = max(units_done, stamp["unit"] + 1)
                self._stage_ops(record["ops"])
            elif stamp["kind"] == "delta":
                delta_pos = max(delta_pos, stamp["pos"])
                self._stage_ops(record["ops"])
            elif stamp["kind"] == "install":
                self._installed = True
        return units_done, delta_pos

    def _stage_ops(self, ops):
        """Net one staged record into the staged multiset: append rows,
        then remove one matching copy per content-addressed delete."""
        for op in ops:
            rows = self._stage.setdefault(op["table"], [])
            rows.extend([list(r) for r in op.get("appends", ())])
            for doomed in op.get("delete_rows", ()):
                want = _row_key(doomed)
                for index, row in enumerate(rows):
                    if _row_key(row) == want:
                        del rows[index]
                        break
                else:
                    raise ReshardingError(
                        "delta delete of {0!r} found no staged row in "
                        "{1!r}".format(doomed, op["table"]))

    def _ensure_loaded(self):
        """Rebuild the in-memory machinery from durable state: replay
        the source WAL into the shadow up to the durable delta cursor,
        and (while still copying) recompute the deterministic chunk
        plan, skipping units the target already holds."""
        if self._shadow is not None:
            return
        units_done, delta_pos = self._scan_target_progress()
        shadow = Database()
        pos = 0
        for record, end in self._source_db().wal.records_from(0):
            if end > delta_pos:
                break
            shadow._replay_record(record)
            pos = end
        self._shadow = shadow
        self._shadow_pos = pos
        if delta_pos > self.wal_from:
            # Deltas already flowed: the snapshot copy is complete.
            self._units = []
            self._units_done = 0
            if self.phase == "copy":
                self.phase = "catchup"
            return
        self._units = self._copy_plan()
        self._units_done = units_done
        if self._units_done >= len(self._units) and self.phase == "copy":
            self.phase = "catchup"

    def _copy_plan(self):
        """The snapshot chunks, a pure function of the shadow at
        ``wal_from`` (so a restarted coordinator recomputes the exact
        same plan and unit numbering)."""
        units = []
        for name in sorted(self._shadow.catalog.tables):
            if self._shadow.views.is_view(name):
                # View backing tables are derived state: the target
                # maintains its own from the copied base rows; shipping
                # them too would double the view.
                continue
            table = self._shadow.catalog.get(name)
            partitioned = table.partition_by is not None
            if not partitioned and not self.fresh:
                continue   # established targets already hold references
            key_index = table.column_names.index(table.partition_by) \
                if partitioned else None
            rows = []
            for oid in table.tid().decoded():
                row = table.row(oid)
                if partitioned and not self._moving(row[key_index]):
                    continue
                rows.append(list(row))
            for start in range(0, len(rows), self.chunk_rows):
                units.append((name, rows[start:start + self.chunk_rows]))
        return units

    # -- the target apply path -------------------------------------------------

    def _apply_to_target(self, ops, stamp):
        """Durably *stage* translated ops on the target: one link round
        trip, one stamped ``stage`` WAL record.  Staged rows are
        invisible to the target's catalog (and so to scatter reads —
        the source stays the one authority for the moving buckets until
        cutover); the install commit at cutover materializes the net of
        every staged record in one publish.  The append is the
        durability point — a crash before it leaves nothing, a crash
        after it is caught by the progress scan — so a unit/delta is
        staged exactly once."""
        from repro.sharding.coordinator import (
            ShardUnavailableError, _payload_size,
        )
        co = self._co
        db = self._target_db()
        staged = [{"table": op["table"],
                   "appends": op.get("appends", []),
                   "delete_rows": op.get("delete_rows", [])}
                  for op in ops]
        record = {"kind": "stage", "ops": staged, "reshard": stamp}
        co._send(self.link_out, ("reshard", stamp), _payload_size(record))
        db._write(record)
        self._stage_ops(staged)
        try:
            co._send(self.link_in, ("reshard-ack", stamp), 16)
        except ShardUnavailableError:
            # The delta is durable on the target; only the ack is lost.
            self.stats.ack_failures += 1

    def _install_staged(self):
        """Materialize the staged multiset as one target commit.  The
        record carries an ``install`` stamp, so a cutover retried after
        a crash sees it during the progress scan and skips straight to
        the already-visible rows (exactly-once install)."""
        if self._installed:
            return
        db = self._target_db()
        ops = [{"table": name, "appends": rows, "deletes": []}
               for name, rows in sorted(self._stage.items()) if rows]
        db._write({"kind": "commit", "ops": ops,
                   "reshard": {"mid": self.mid, "kind": "install"}})
        self._installed = True

    # -- delta translation -----------------------------------------------------

    @staticmethod
    def _shadow_rows(table, oids):
        """Shadow row contents for a delete's oids, skipping oids no
        longer visible (``delete_oids`` dedups those on the source, so
        they carry no effect to mirror)."""
        rows = []
        for oid in oids:
            try:
                rows.append(table.row(oid))
            except KeyError:
                pass
        return rows

    def _translate(self, record):
        """One tailed source record -> target ops (None when the record
        has no effect on the moving buckets)."""
        if record.get("reshard") is not None:
            return None   # our own purge record, never a delta
        kind = record.get("kind")
        if kind == "commit":
            ops = record.get("ops", [])
        elif kind == "decide" and record.get("outcome") == "commit":
            ops = self._shadow._pending_prepares.get(record["xid"])
            if ops is None:
                return None
        else:
            return None   # prepare / decide-abort; DDL is blocked
        out = []
        for op in ops:
            name = op["table"]
            table = self._shadow.catalog.get(name)
            if table.partition_by is None:
                if not self.fresh:
                    continue   # established target gets broadcasts live
                appends = [list(r) for r in op["appends"]]
                delete_rows = [list(row) for row
                               in self._shadow_rows(table, op["deletes"])]
            else:
                ki = table.column_names.index(table.partition_by)
                appends = [list(r) for r in op["appends"]
                           if self._moving(r[ki])]
                delete_rows = [list(row) for row
                               in self._shadow_rows(table, op["deletes"])
                               if self._moving(row[ki])]
            if appends or delete_rows:
                out.append({"table": name, "appends": appends,
                            "delete_rows": delete_rows})
        return out or None

    def pump(self, max_records=None):
        """Drain the source-WAL tail into the target (all of it, or at
        most ``max_records``).  Returns the records consumed."""
        self._ensure_loaded()
        co = self._co
        consumed = 0
        for record, end in self._source_db().wal.records_from(
                self._shadow_pos):
            ops = self._translate(record)
            if ops is not None:
                self._apply_to_target(
                    ops, {"mid": self.mid, "kind": "delta", "pos": end})
                self.stats.deltas_applied += 1
                rows = sum(len(op["appends"]) + len(op["delete_rows"])
                           for op in ops)
                self.stats.delta_rows += rows
                if co.tracer.enabled:
                    co.tracer.add("reshard_deltas_applied", 1)
                    co.tracer.add("reshard_delta_rows", rows)
            self._shadow._replay_record(record)
            self._shadow_pos = end
            consumed += 1
            if max_records is not None and consumed >= max_records:
                break
        return consumed

    # -- the state machine -----------------------------------------------------

    def step(self):
        """Advance the migration one bounded increment; returns the
        phase after the step.  Each phase boundary passes through its
        own fault site, so crash plans and the chaos sweep can strike
        anywhere in the lifecycle."""
        if self.finished:
            return self.phase
        co = self._co
        if co.tracer.enabled:
            with co.tracer.span("reshard.step", kind="resharding",
                                mid=self.mid, op=self.op,
                                phase=self.phase):
                self._step()
        else:
            self._step()
        return self.phase

    def run(self, max_steps=100000):
        """Step to completion (fault-free convenience)."""
        while not self.finished:
            self.step()
            max_steps -= 1
            if max_steps <= 0:
                raise ReshardingError("migration did not converge")
        return self.phase

    def _step(self):
        self._ensure_loaded()
        if self.phase == "copy":
            if self._units_done < len(self._units):
                self._step_copy()
            else:
                self.phase = "catchup"
        elif self.phase == "catchup":
            self._step_catchup()
        elif self.phase == "dual":
            self._cutover()

    def _step_copy(self):
        co = self._co
        co.faults.inject("reshard.copy")
        name, rows = self._units[self._units_done]
        self._apply_to_target(
            [{"table": name, "appends": rows, "deletes": []}],
            {"mid": self.mid, "kind": "copy", "unit": self._units_done})
        self._units_done += 1
        self.stats.units_shipped += 1
        self.stats.rows_copied += len(rows)
        if co.tracer.enabled:
            co.tracer.add("reshard_rows_copied", len(rows))
        if self._units_done >= len(self._units):
            self.phase = "catchup"

    def _step_catchup(self, max_records=16):
        self._co.faults.inject("reshard.catchup")
        self.pump(max_records)
        if self.lag_bytes() == 0:
            self.phase = "dual"

    def on_write(self):
        """Dual-routing hook: called by the coordinator after every
        committed write while the migration is in ``dual``.  A failed
        pump demotes to ``catchup`` — the source commit is already
        durable and the tail will re-converge — but a crash still
        propagates (the caller's fate is unknown until recovery)."""
        from repro.sharding.coordinator import ShardUnavailableError
        if self.phase != "dual":
            return
        try:
            self.pump()
        except (ShardUnavailableError, TransientFault):
            self.phase = "catchup"
            self.stats.pump_failures += 1
            self._co.stats.reshard_pump_failures += 1
        except CrashError:
            self.phase = "catchup"
            self.stats.pump_failures += 1
            self._co.stats.reshard_pump_failures += 1
            raise

    # -- cutover ---------------------------------------------------------------

    def _cutover(self):
        """The fenced cutover.  Everything before the decision append
        is abortable (a crash resumes the migration under the old map);
        the decision record is the commit point; everything after it is
        completed by recovery if interrupted."""
        from repro.sharding.coordinator import _payload_size
        co = self._co
        self.stats.cutover_attempts += 1
        co.faults.inject("reshard.cutover")
        if co.tracer.enabled:
            span = co.tracer.span("reshard.cutover", kind="resharding",
                                  mid=self.mid)
        else:
            span = None
        try:
            if span is not None:
                span.__enter__()
            # Fence prepare: the target must answer over the migration
            # links before we commit to the new map.
            fence = ("reshard-fence", self.mid)
            co._send(self.link_out, fence, _payload_size(fence))
            co._send(self.link_in, ("reshard-fence-ack", self.mid), 16)
            self.pump()   # final drain inside the fenced window
            if self.lag_bytes():
                raise ReshardingError("tail not drained at cutover")
            co.reshard_log.append({"kind": "reshard", "phase": "decision",
                                   "mid": self.mid})
            self.complete_cutover()
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def complete_cutover(self):
        """Phase 2 of the cutover: materialize the staged rows on the
        target, purge moved rows from the source, install the new map
        epoch, settle node roles, log ``done``.
        Idempotent — :meth:`ShardedDatabase.recover` re-runs it when a
        crash struck after the decision."""
        co = self._co
        self.phase = "cutover"
        self._ensure_loaded()
        self._install_staged()
        self._purge_source()
        rec = self.record
        co.shard_map = ShardMap(rec["new_n_shards"], rec["n_buckets"],
                                rec["new_assignment"], rec["new_epoch"])
        co.shards[self.target].joining = False
        if self.op == "merge":
            co.shards[self.source].retired = True
        for node in co.shards:
            if not node.retired:
                node.epoch = rec["new_epoch"]
        co.reshard_log.append({"kind": "reshard", "phase": "done",
                               "mid": self.mid})
        self.phase = "done"
        if co.migration is self:
            co.migration = None

    def _purge_source(self):
        """Delete the moved rows from the source, as one logged,
        idempotent commit.  Without the purge the rows would exist on
        both sides and double-count in scatter reads; with it, a second
        run finds nothing visible to delete."""
        co = self._co
        db = self._source_db()
        ops = []
        purged = 0
        for name in sorted(db.catalog.tables):
            table = db.catalog.get(name)
            if table.partition_by is None:
                continue   # reference rows stay (a merge retires whole)
            key_index = table.column_names.index(table.partition_by)
            doomed = [oid for oid in table.tid().decoded()
                      if self._moving(table.row(oid)[key_index])]
            if doomed:
                ops.append({"table": name, "appends": [],
                            "deletes": doomed})
                purged += len(doomed)
        if not ops:
            return
        co.faults.inject("reshard.purge")
        db._write({"kind": "commit", "ops": ops,
                   "reshard": {"mid": self.mid, "kind": "purge"}})
        self.stats.purged_rows += purged

    def __repr__(self):
        return "Resharding({0}: {1} s{2}->s{3}, {4})".format(
            self.mid, self.op, self.source, self.target, self.phase)


# -- starting a migration ------------------------------------------------------

def _check_clear(co, *shard_ids):
    if co.replicas:
        raise ReshardingError(
            "online resharding needs plain shards (replicas=0)")
    if co.migration is not None and not co.migration.finished:
        raise MigrationInProgressError(
            "migration {0} is still {1}".format(co.migration.mid,
                                                co.migration.phase))
    for shard_id in shard_ids:
        if not 0 <= shard_id < len(co.shards):
            raise ReshardingError("no shard {0}".format(shard_id))
        node = co.shards[shard_id]
        if node.retired or node.joining:
            raise ReshardingError(
                "shard {0} is {1}".format(
                    shard_id, "retired" if node.retired else "joining"))


def _begin(co, op, source, target, fresh, buckets, pre_map,
           chunk_rows):
    """Durably begin a migration and hand back the live object."""
    new_map = pre_map.reassigned(buckets, target)
    co._mid_counter += 1
    record = {
        "kind": "reshard", "phase": "begin",
        "mid": "m{0:04d}".format(co._mid_counter),
        "op": op, "source": source, "target": target, "fresh": fresh,
        "buckets": sorted(buckets),
        "n_buckets": pre_map.n_buckets,
        "pre_n_shards": pre_map.n_shards,
        "pre_assignment": list(pre_map.assignment),
        "pre_epoch": pre_map.epoch,
        "new_n_shards": new_map.n_shards,
        "new_assignment": list(new_map.assignment),
        "new_epoch": new_map.epoch,
        "wal_from": co.shards[source].db.wal.size_bytes,
        "chunk_rows": chunk_rows,
    }
    co.faults.inject("reshard.begin")
    co.reshard_log.append(record)
    # Durable from here: everything below is replayed by recover().
    if fresh:
        if target != len(co.shards):
            raise ReshardingError(
                "fresh target must be the next shard id")
        co._add_node(joining=True)
    co.shard_map = pre_map
    migration = Resharding(co, record)
    co.migration = migration
    migration.bootstrap()
    return migration


def start_split(co, source, chunk_rows=64):
    """Split ``source``: a fresh node joins and takes half the
    source's buckets (the map refines until there are two to halve)."""
    _check_clear(co, source)
    pre = co.shard_map
    while len(pre.buckets_of(source)) < 2:
        pre = pre.refined(2)
    owned = pre.buckets_of(source)
    moving = owned[1::2]   # every other bucket: a stable half
    return _begin(co, "split", source, len(co.shards), True, moving,
                  pre, chunk_rows)


def start_merge(co, source, target, chunk_rows=64):
    """Merge ``source`` into ``target`` and retire the source (node
    removal under live traffic)."""
    _check_clear(co, source, target)
    if source == target:
        raise ReshardingError("cannot merge a shard into itself")
    pre = co.shard_map
    moving = pre.buckets_of(source)
    if not moving:
        raise ReshardingError(
            "shard {0} owns no buckets".format(source))
    return _begin(co, "merge", source, target, False, moving, pre,
                  chunk_rows)


def start_move(co, source, target, buckets, chunk_rows=64):
    """Move an explicit bucket set between two established shards."""
    _check_clear(co, source, target)
    if source == target:
        raise ReshardingError("source and target are the same shard")
    pre = co.shard_map
    owned = set(pre.buckets_of(source))
    buckets = sorted(set(buckets))
    if not buckets:
        raise ReshardingError("no buckets to move")
    stray = [b for b in buckets if b not in owned]
    if stray:
        raise ReshardingError(
            "buckets {0} are not owned by shard {1}".format(
                stray, source))
    return _begin(co, "move", source, target, False, buckets, pre,
                  chunk_rows)


# -- crash recovery ------------------------------------------------------------

def replay_log(co):
    """Reconstruct the map evolution, node roles and any in-flight
    migration from the durable reshard log.  Called by
    :meth:`ShardedDatabase.recover` *before* the shard WALs replay (so
    nodes created by a split exist to be recovered).  Returns
    ``(begin record, decided)`` for an unfinished migration, else
    ``None``."""
    co.migration = None
    pending = None
    count = 0
    for record in co.reshard_log.recover():
        if record.get("kind") != "reshard":
            continue
        phase = record["phase"]
        if phase == "begin":
            count += 1
            pending = (record, False)
            while len(co.shards) <= record["target"]:
                co._add_node(joining=False)
            if record["fresh"]:
                co.shards[record["target"]].joining = True
            co.shard_map = ShardMap(
                record["pre_n_shards"], record["n_buckets"],
                record["pre_assignment"], record["pre_epoch"])
        elif phase == "decision":
            pending = (pending[0], True)
        elif phase == "done":
            rec = pending[0]
            co.shard_map = ShardMap(
                rec["new_n_shards"], rec["n_buckets"],
                rec["new_assignment"], rec["new_epoch"])
            co.shards[rec["target"]].joining = False
            if rec["op"] == "merge":
                co.shards[rec["source"]].retired = True
            pending = None
    co._mid_counter = count
    return pending


def resume(co, pending):
    """Re-arm (or finish) the unfinished migration ``replay_log``
    found.  A decided migration completes its cutover now — the tail
    was provably drained before the decision, so only the purge /
    install / ``done`` steps remain."""
    if pending is None:
        return None
    record, decided = pending
    migration = Resharding(co, record)
    co.migration = migration
    if decided:
        migration.complete_cutover()
        return None
    migration.bootstrap()
    return migration
