"""Snapshot-isolation transactions over delta BATs (Section 3.2).

A transaction's snapshot of a table is just *(row count, delete-log
length)* — columns and the table's log of deleted oids are both
append-only, so the first ``n`` rows never change and the oids deleted
since are the log's tail: nothing is copied.  The transaction's own
writes are buffered privately (insert rows, deleted oids) and merged at
commit:

* appends always merge (they cannot conflict);
* deletes/updates of shared rows conflict iff another writer committed
  a delete/update of *the same row* since the snapshot was taken
  (row-level first-writer-wins, answered by the tail of the table's
  delete log past the snapshot's log length; when the snapshot
  predates a vacuum, which restarts the log, the check degrades to the
  coarse table-level conservative abort).

Commit is write-ahead logged and fault-injectable: the buffered writes
are first distilled into one logical record (appends + shared deletes
per table), appended to the database's WAL, and only then published to
the catalog.  Injection sites ``commit.validate``, ``wal.append``
(inside the WAL), ``commit.publish`` and ``commit.apply`` cover every
crash point; ``Database.recover()`` replays the log, so a crash
anywhere leaves either the full commit or none of it.
"""

import numpy as np

from repro.core.atoms import OID
from repro.core.bat import BAT
from repro.faults import CrashError
from repro.sql.ast import (
    Column, CreateMaterializedView, CreateTable, Delete,
    DropMaterializedView, Insert, Select, Update,
)
from repro.sql.catalog import candidate_list, join_mapping
from repro.sql.parser import parse_sql


class ConflictError(RuntimeError):
    """Write-write conflict detected at commit."""


class TransactionClosedError(RuntimeError):
    """The transaction already committed or aborted."""


class Transaction:
    """One snapshot-isolated transaction.

    Acts as both the compiler's schema source and the interpreter's
    catalog view (``bind``/``count``/``tid``), so SELECTs inside the
    transaction see the snapshot plus the transaction's own writes.
    """

    def __init__(self, database, pin=False):
        self._db = database
        self._catalog = database.catalog
        self._snapshots = {}   # table name -> (count, log length, version)
        self._appends = {}     # table name -> [row tuple in column order]
        self._deleted = {}     # table name -> set of oids
        self._bind_cache = {}  # (table, column) -> (n appends, BAT)
        self._tid_cache = {}   # table -> ((n appends, n deleted), mask, tid)
        self.closed = False
        self.outcome = None
        # LSN stamps for the session layer: the snapshot is as-of
        # ``snapshot_lsn`` (the database's commit sequence number at
        # begin); ``commit_lsn`` is assigned when the commit publishes.
        self.snapshot_lsn = getattr(database, "commit_seq", 0)
        self.commit_lsn = None
        if pin:
            # Pin every existing table now so the snapshot is one
            # consistent cross-table point in time, not first-touch.
            for name in list(self._catalog.tables):
                self._snapshot(name)

    # -- snapshot plumbing --------------------------------------------------

    def _check_open(self):
        if self.closed:
            raise TransactionClosedError(
                "transaction already {0}".format(self.outcome))

    def _snapshot(self, name):
        """Table snapshot, established at first touch."""
        snap = self._snapshots.get(name)
        if snap is None:
            table = self._catalog.get(name)
            snap = (table.physical_count, len(table.deleted_oids),
                    table.version)
            self._snapshots[name] = snap
        return snap

    # -- schema (compiler) protocol ---------------------------------------------

    def get(self, name):
        self._check_open()
        self._snapshot(name)
        return self._catalog.get(name)

    # -- view (interpreter) protocol -----------------------------------------------

    def bind(self, table_name, column):
        self._check_open()
        snap_count, _, _ = self._snapshot(table_name)
        table = self._catalog.get(table_name)
        shared = table.bind(column)
        appends = self._appends.get(table_name, [])
        key = (table_name, column)
        cached = self._bind_cache.get(key)
        if cached is not None and cached[0] == len(appends):
            return cached[1]
        if snap_count == len(shared) and not appends:
            merged = shared
        else:
            merged = shared.slice(0, snap_count)
            merged.heap = shared.heap
            if appends:
                index = table.column_names.index(column)
                atom = table.atoms[column]
                values = [row[index] for row in appends]
                if not atom.varsized:
                    values = [atom.nil if v is None else v for v in values]
                merged.append_values(values)
        self._bind_cache[key] = (len(appends), merged)
        return merged

    def _visibility(self, table_name):
        """This transaction's [state key, mask, tid] of a table, built
        once per state of its own writes."""
        self._check_open()
        snap_count, snap_log, _ = self._snapshot(table_name)
        appends = len(self._appends.get(table_name, ()))
        dead = self._deleted.get(table_name, ())
        key = (appends, len(dead))
        cached = self._tid_cache.get(table_name)
        if cached is not None and cached[0] == key:
            return cached
        table = self._catalog.get(table_name)
        mask = np.ones(snap_count + appends, dtype=bool)
        mask[:snap_count] = table.visible[:snap_count]
        later = table.deleted_oids[snap_log:]
        mask[later[later < snap_count]] = True
        if dead:
            mask[np.fromiter(dead, dtype=np.int64)] = False
        cached = self._tid_cache[table_name] = [key, mask, None]
        return cached

    def visible(self, table_name):
        """The snapshot's visibility mask: the table's, with the oids
        deleted after the snapshot set again, the own appends added and
        the own deletes cleared."""
        return self._visibility(table_name)[1]

    def tid(self, table_name):
        cached = self._visibility(table_name)
        if cached[2] is None:
            cached[2] = candidate_list(np.flatnonzero(cached[1]))
        return cached[2]

    def count(self, table_name):
        return len(self.tid(table_name))

    def cracked_select(self, table_name, column, lo, hi, lo_incl,
                       hi_incl):
        """Transactions fall back to a plain select on their snapshot
        view: a shared cracker cannot reflect per-snapshot state."""
        from repro.core.algebra import select_range
        return select_range(self.bind(table_name, column), lo, hi,
                            lo_incl, hi_incl,
                            candidates=self.tid(table_name))

    def join_index(self, fk_table, fk_column, pk_table, pk_column):
        """Join-index mapping computed against this snapshot's view."""
        return BAT(OID, join_mapping(self.bind(fk_table, fk_column).tail,
                                     self.bind(pk_table, pk_column).tail,
                                     self.visible(pk_table)))

    def table_version(self, table_name):
        """Recycler key token: private to this transaction's state."""
        snap_count, _, snap_version = self._snapshot(table_name)
        return ("txn", id(self), snap_version, snap_count,
                len(self._appends.get(table_name, [])),
                len(self._deleted.get(table_name, set())))

    # -- statement execution -----------------------------------------------------------

    def execute(self, sql, context=None):
        """Execute a statement (SQL text or a parsed statement) inside
        this transaction.

        SELECT returns a ResultSet; INSERT/DELETE/UPDATE return the
        affected row count (buffered until commit; a row its table
        cannot store fails the statement alone); DDL is rejected.
        ``context`` is an optional governance
        :class:`~repro.governance.QueryContext` for this statement: a
        kill fires at a read checkpoint, before anything is buffered —
        the transaction stays open and consistent.
        """
        self._check_open()
        statement = parse_sql(sql, self._db.statement_cache) \
            if isinstance(sql, str) else sql
        if isinstance(statement, (CreateTable, CreateMaterializedView,
                                  DropMaterializedView)):
            raise NotImplementedError("DDL inside a transaction")
        if isinstance(statement, Insert):
            return self._buffer_insert(statement)
        if isinstance(statement, Delete):
            return self._buffer_delete(statement, context=context)
        if isinstance(statement, Update):
            return self._buffer_update(statement, context=context)
        if isinstance(statement, Select):
            return self._db._run_select(statement, view=self,
                                        context=context)
        raise TypeError("unsupported statement {0!r}".format(statement))

    def _buffer_insert(self, statement):
        self._db._reject_view_dml(statement.table)
        rows = self.get(statement.table).checked_rows(statement.rows,
                                                      statement.columns)
        self._appends.setdefault(statement.table, []).extend(rows)
        self._bind_cache = {k: v for k, v in self._bind_cache.items()
                            if k[0] != statement.table}
        return len(rows)

    def _matched_oids(self, statement, context=None):
        return self._db._eval_where(statement, view=self, context=context)

    def _buffer_delete(self, statement, context=None):
        self._db._reject_view_dml(statement.table)
        self.get(statement.table)
        oids = self._matched_oids(statement, context=context)
        dead = self._deleted.setdefault(statement.table, set())
        fresh = [o for o in oids if o not in dead]
        dead.update(fresh)
        return len(fresh)

    def _buffer_update(self, statement, context=None):
        self._db._reject_view_dml(statement.table)
        table = self.get(statement.table)
        new_rows = table.checked_rows(self._db._eval_update_rows(
            table, statement, view=self, context=context))
        oids = self._matched_oids(statement, context=context)
        dead = self._deleted.setdefault(statement.table, set())
        dead.update(oids)
        self._appends.setdefault(statement.table, []).extend(new_rows)
        self._bind_cache = {k: v for k, v in self._bind_cache.items()
                            if k[0] != statement.table}
        return len(oids)

    # -- commit / abort ----------------------------------------------------------------------

    def _validate(self):
        """Validation phase: row-level first-writer-wins for non-append
        writes.  A transaction deleting/updating shared rows conflicts
        iff a committed writer deleted/updated *one of the same rows*
        after its snapshot (the delete log's tail past the snapshot's
        log length); when the snapshot predates a vacuum any concurrent
        table change aborts conservatively.  A conflict closes the
        transaction (catalog untouched) and raises
        :class:`ConflictError`."""
        touched = sorted(set(self._appends) | set(self._deleted))
        for name in touched:
            snap_count, snap_log, snap_version = self._snapshots[name]
            table = self._catalog.get(name)
            shared_deletes = {o for o in self._deleted.get(name, set())
                              if o < snap_count}
            if not shared_deletes or table.version == snap_version:
                continue
            if snap_version < table.vacuum_version or \
                    not shared_deletes.isdisjoint(
                        table.deleted_oids[snap_log:].tolist()):
                self.closed = True
                self.outcome = "aborted (conflict)"
                raise ConflictError(
                    "rows of {0!r} changed since snapshot".format(name))
        return touched

    def _distill_ops(self):
        """The buffered writes as one logical commit record's ops —
        the only state recovery (or a 2PC participant) needs."""
        ops = []
        for name in sorted(set(self._appends) | set(self._deleted)):
            snap_count, _, _ = self._snapshots[name]
            dead = self._deleted.get(name, set())
            rows = [list(row) for i, row
                    in enumerate(self._appends.get(name, []))
                    if (snap_count + i) not in dead]
            shared_deletes = sorted(int(o) for o in dead
                                    if o < snap_count)
            if rows or shared_deletes:
                ops.append({"table": name, "appends": rows,
                            "deletes": shared_deletes})
        return ops

    def _publish(self, ops):
        """Publication phase: apply already-durable ops to the shared
        catalog, table by table, through the commit fault sites."""
        faults = self._db.faults
        faults.inject("commit.publish")
        for op in ops:
            faults.inject("commit.apply", table=op["table"])
            self._db._apply_ops([op])

    def commit(self):
        """Validate, log and apply the buffered writes; close the
        transaction.

        Three phases: validation (conflicts abort here, catalog
        untouched), write-ahead logging of the logical commit record,
        and publication to the catalog.  An injected crash in any
        phase re-raises after marking the transaction crashed; the
        catalog is then rebuilt by ``Database.recover()``.
        """
        self._check_open()
        faults = self._db.faults
        try:
            faults.inject("commit.validate")
            self._validate()
            # Logging phase: make the record durable before any table
            # is touched (the write-ahead rule).
            ops = self._distill_ops()
            if ops and self._db.wal is not None:
                self._db.wal.append({"kind": "commit", "ops": ops})
            self._publish(ops)
        except CrashError:
            self.closed = True
            self.outcome = "crashed"
            raise
        # Writers take the next commit sequence number; a read-only
        # commit is stamped as-of the current one.
        self.commit_lsn = self._db._bump_commit() if ops \
            else self._db.commit_seq
        self.closed = True
        self.outcome = "committed"

    def abort(self):
        self._check_open()
        self.closed = True
        self.outcome = "aborted"

    rollback = abort

    # -- context manager ------------------------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self.closed:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False
