"""Multi-tenant sessions: MVCC snapshot-isolation reads, explicit
transaction control, admission control and history recording — over a
single node, a replication group, or a sharded database.

A :class:`SessionManager` wraps one backend and hands out
:class:`Session` objects (one per client, stamped with a tenant).  A
session is autocommit until ``BEGIN``; between ``BEGIN`` and
``COMMIT``/``ROLLBACK`` every statement runs on one pinned MVCC
snapshot (all tables are snapshotted at ``BEGIN``, so the view is a
single consistent point in time, stamped with the backend's commit
LSN).  Commits run row-level first-writer-wins validation in the
engine; a :class:`~repro.sql.ConflictError` aborts the transaction.

Admission control (optional) gates ``BEGIN``: when the backend is at
``max_inflight`` open transactions the new one is shed with
:class:`AdmissionRejected` rather than queued — the synchronous caller
cannot wait; the open-loop workload driver uses the controller's
queueing API instead.

When the manager has a :class:`~repro.sessions.oracle.HistoryRecorder`,
every transaction's begin/read/write/finish is recorded with its
snapshot and commit LSNs and its shared-row write sets, feeding the
snapshot-isolation checker.

Resource governance (optional): a manager built with a
:class:`~repro.governance.TenantAccountant` and/or governance defaults
wraps every non-control statement in a per-statement
:class:`~repro.governance.QueryContext` stamped with the session's
tenant.  ``SET deadline = N`` / ``SET memory_budget = N`` through a
session set session-local limits (0 clears).  A governed kill surfaces
as a :class:`~repro.governance.GovernanceError` — a clean, retryable
error with a machine-readable ``status()``; the session aborts any
open transaction (buffered writes vanish, nothing was published) and a
tenant-scope :class:`~repro.governance.MemoryExceeded` is reported to
the admission controller, whose strike counter sheds repeat offenders.

Observability: with a tracer enabled, each statement executes inside a
``session.statement`` span carrying ``tenant`` and ``session`` attrs,
and :meth:`Session.profile` stamps the profile's root span with the
tenant — so PROFILE output attributes time per tenant.
"""

from repro.faults import CrashError
from repro.governance import (
    GovernanceError, MemoryExceeded, QueryContext,
)
from repro.sql.ast import (
    BeginTransaction, CommitTransaction, RollbackTransaction, Select,
    SetPragma,
)
from repro.sql.parser import parse_sql
from repro.sql.transactions import ConflictError

from repro.sessions.admission import AdmissionController  # noqa: F401
from repro.sessions.oracle import HistoryRecorder  # noqa: F401


class SessionError(RuntimeError):
    """Transaction-control misuse (BEGIN inside a transaction, COMMIT
    outside one, statement on a shed transaction, ...)."""


# -- backend adapters ---------------------------------------------------------


class _SingleNodeBackend:
    """Adapter over :class:`repro.sql.Database`."""

    kind = "single"

    def __init__(self, db):
        self.db = db

    def attach(self, session):
        pass

    def begin(self, session):
        return self.db.begin(pin=True)

    def autocommit(self, session, statement, sql, workers, context=None):
        return self.db.execute(sql if isinstance(sql, str) else statement,
                               workers=workers, context=context)

    def lsn(self):
        return self.db.commit_seq

    def snapshot_lsn(self, txn):
        return txn.snapshot_lsn

    def commit_lsn(self, txn):
        return txn.commit_lsn

    def local_txns(self, txn):
        return {"": txn}

    def profile(self, session, sql, workers):
        return self.db.profile(sql, workers=workers)


class _ReplicatedBackend:
    """Adapter over :class:`repro.replication.ReplicationGroup`.

    Transactions run on the primary; autocommit reads route to replicas
    with the routing floor raised to the session's last snapshot LSN,
    so a replica read is never older than the session's latest
    transaction snapshot (on top of the group's read-your-writes
    floor).
    """

    kind = "replicated"

    def __init__(self, group):
        self.group = group

    def attach(self, session):
        session._repl = self.group.session()

    def begin(self, session):
        return self.group.begin(pin=True)

    def autocommit(self, session, statement, sql, workers, context=None):
        return self.group.execute(
            sql if isinstance(sql, str) else statement,
            session=session._repl, workers=workers,
            min_lsn=session.last_snapshot_lsn, context=context)

    def lsn(self):
        return self.group.commit_lsn

    def snapshot_lsn(self, txn):
        return txn.snapshot_lsn

    def commit_lsn(self, txn):
        return txn.commit_lsn

    def local_txns(self, txn):
        return {"": txn._txn}

    def profile(self, session, sql, workers):
        return self.group.require_primary().db.profile(sql,
                                                       workers=workers)


class _ShardedBackend:
    """Adapter over :class:`repro.sharding.ShardedDatabase`.

    Shards have no shared WAL, so the manager's own monotone commit
    counter stamps snapshots and commits (it advances with every
    session commit and every autocommit write routed through a
    session).
    """

    kind = "sharded"

    def __init__(self, sdb):
        self.sdb = sdb
        self.commit_seq = 0

    def attach(self, session):
        pass

    def begin(self, session):
        txn = self.sdb.begin()
        txn.snapshot_lsn = self.commit_seq
        txn.commit_lsn = None
        return txn

    def autocommit(self, session, statement, sql, workers, context=None):
        result = self.sdb.execute(
            sql if isinstance(sql, str) else statement, workers=workers,
            context=context)
        if not isinstance(statement, Select):
            self.commit_seq += 1
        return result

    def lsn(self):
        return self.commit_seq

    def snapshot_lsn(self, txn):
        return txn.snapshot_lsn

    def commit_lsn(self, txn):
        if txn.commit_lsn is None and txn.outcome == "committed":
            wrote = any(t._appends or t._deleted
                        for t in txn._txns.values())
            if wrote:
                self.commit_seq += 1
                txn.commit_lsn = self.commit_seq
            else:
                txn.commit_lsn = self.commit_seq
        return txn.commit_lsn

    def local_txns(self, txn):
        return {"shard{0}".format(sid): local
                for sid, local in txn._txns.items()}

    def profile(self, session, sql, workers):
        raise NotImplementedError(
            "PROFILE through a sharded session is not supported")


def _adapt(backend):
    from repro.replication.group import ReplicationGroup
    from repro.sharding.coordinator import ShardedDatabase
    from repro.sql.database import Database
    if isinstance(backend, Database):
        return _SingleNodeBackend(backend)
    if isinstance(backend, ReplicationGroup):
        return _ReplicatedBackend(backend)
    if isinstance(backend, ShardedDatabase):
        return _ShardedBackend(backend)
    raise TypeError("unsupported backend {0!r}".format(backend))


# -- sessions -----------------------------------------------------------------


class Session:
    """One client's connection: a tenant label, autocommit by default,
    explicit ``BEGIN``/``COMMIT``/``ROLLBACK`` for transactions."""

    def __init__(self, manager, tenant, session_id):
        self._manager = manager
        self._backend = manager._backend
        self.tenant = tenant
        self.session_id = session_id
        self.txn = None
        self._txn_id = None
        self.last_snapshot_lsn = -1
        self.statements = 0
        self.commits = 0
        self.aborts = 0
        self.conflicts = 0
        self.shed = 0
        # Session-local governance limits (SET deadline / SET
        # memory_budget through this session), seeded from the manager.
        self.deadline = manager.default_deadline
        self.memory_budget = manager.default_memory_budget
        self.governed = 0
        self.last_status = None
        self._backend.attach(self)

    @property
    def in_transaction(self):
        return self.txn is not None

    # -- statement routing -----------------------------------------------------

    def execute(self, sql, workers=None):
        """Execute one statement in this session.

        ``BEGIN``/``COMMIT``/``ROLLBACK`` drive transaction state;
        anything else runs inside the open transaction, or autocommits.
        """
        statement = parse_sql(sql) if isinstance(sql, str) else sql
        tracer = self._manager.tracer
        if not tracer.enabled:
            return self._dispatch(statement, sql, workers)
        label = sql if isinstance(sql, str) else repr(sql)
        with tracer.span("session.statement", kind="session",
                         tenant=self.tenant, session=self.session_id,
                         sql=label[:200]) as span:
            try:
                return self._dispatch(statement, sql, workers)
            except GovernanceError as exc:
                span.attrs["governed"] = exc.reason
                raise

    def query(self, sql, workers=None):
        return self.execute(sql, workers=workers).rows()

    def _dispatch(self, statement, sql, workers):
        self.statements += 1
        if isinstance(statement, BeginTransaction):
            self.begin()
            return None
        if isinstance(statement, CommitTransaction):
            self.commit()
            return None
        if isinstance(statement, RollbackTransaction):
            self.abort()
            return None
        if isinstance(statement, SetPragma) and \
                statement.name in ("deadline", "memory_budget"):
            from repro.sql.database import Database
            limit = Database._pragma_limit(statement.name,
                                           statement.value)
            setattr(self, statement.name, limit)
            return None
        context = self._make_context()
        try:
            return self._run_statement(statement, sql, workers, context)
        except GovernanceError as exc:
            self._governed(exc)
            raise
        finally:
            if context is not None:
                context.release()

    def _run_statement(self, statement, sql, workers, context):
        if self.txn is None:
            return self._backend.autocommit(self, statement, sql,
                                            workers, context=context)
        result = self.txn.execute(statement, context=context)
        recorder = self._manager.recorder
        if recorder is not None:
            text = sql if isinstance(sql, str) else repr(statement)
            if isinstance(statement, Select):
                recorder.read(self._txn_id, text, result.rows())
            else:
                recorder.write(self._txn_id, text, result)
        return result

    # -- governance --------------------------------------------------------------

    def _make_context(self):
        """A per-statement governance context, or None when the
        session has no limits and the manager no accountant."""
        manager = self._manager
        if self.deadline is None and self.memory_budget is None \
                and manager.accountant is None:
            return None
        return QueryContext(deadline=self.deadline,
                            memory_budget=self.memory_budget,
                            tenant=self.tenant,
                            accountant=manager.accountant)

    def _governed(self, exc):
        """Map a governed kill to a retryable session outcome: record
        the machine-readable status, abort any open transaction
        (buffered writes vanish — nothing was published), and report
        tenant-scope memory kills to admission control."""
        self.governed += 1
        self._manager.governed += 1
        self.last_status = exc.status()
        if self.txn is not None:
            self.abort()
        manager = self._manager
        if manager.admission is not None \
                and isinstance(exc, MemoryExceeded) \
                and exc.scope == "tenant":
            manager.admission.report_overbudget(self.tenant)

    # -- transaction control ----------------------------------------------------

    def begin(self):
        if self.txn is not None:
            raise SessionError("transaction already open")
        manager = self._manager
        if manager.admission is not None:
            try:
                manager.admission.acquire(self.tenant)
            except Exception:
                self.shed += 1
                raise
        self.txn = self._backend.begin(self)
        self._txn_id = manager._next_txn_id()
        self.last_snapshot_lsn = self._backend.snapshot_lsn(self.txn)
        if manager.recorder is not None:
            manager.recorder.begin(self._txn_id, self.tenant,
                                   self.last_snapshot_lsn)
        return self.txn

    def _finish(self, outcome, commit_lsn=None, write_sets=None,
                appends=None):
        manager = self._manager
        if manager.recorder is not None:
            manager.recorder.finish(self._txn_id, outcome,
                                    write_sets=write_sets,
                                    appends=appends,
                                    commit_lsn=commit_lsn)
        self.txn = None
        self._txn_id = None
        if manager.admission is not None:
            manager.admission.release(self.tenant)

    def _write_sets(self):
        """Per-table shared-row write sets (and append counts) of the
        open transaction, for the history recorder."""
        write_sets = {}
        appends = {}
        for prefix, local in self._backend.local_txns(self.txn).items():
            for name, dead in local._deleted.items():
                snap = local._snapshots.get(name)
                if snap is None:
                    continue
                shared = {int(o) for o in dead if o < snap[0]}
                if shared:
                    key = prefix + "/" + name if prefix else name
                    write_sets[key] = shared
            for name, rows in local._appends.items():
                if rows:
                    key = prefix + "/" + name if prefix else name
                    appends[key] = appends.get(key, 0) + len(rows)
        return write_sets, appends

    def commit(self):
        if self.txn is None:
            raise SessionError("no open transaction to commit")
        write_sets, appends = self._write_sets()
        try:
            self.txn.commit()
        except ConflictError:
            self.conflicts += 1
            self._finish("conflict", write_sets=write_sets,
                         appends=appends)
            raise
        except CrashError:
            self._finish("crashed", write_sets=write_sets,
                         appends=appends)
            raise
        self.commits += 1
        self._manager.committed += 1
        self._finish("committed",
                     commit_lsn=self._backend.commit_lsn(self.txn),
                     write_sets=write_sets, appends=appends)

    def abort(self):
        if self.txn is None:
            raise SessionError("no open transaction to roll back")
        self.aborts += 1
        try:
            self.txn.abort()
        finally:
            self._finish("aborted")

    rollback = abort

    # -- observability ----------------------------------------------------------

    def profile(self, sql, workers=None):
        """PROFILE a SELECT through this session; the root span is
        stamped with the tenant so reports attribute time per tenant."""
        profile = self._backend.profile(self, sql, workers)
        profile.root.attrs["tenant"] = self.tenant
        profile.root.attrs["session"] = self.session_id
        return profile

    # -- context manager --------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.txn is not None:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


class SessionManager:
    """Hands out tenant-stamped sessions over one backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.sql.Database`, a
        :class:`~repro.replication.ReplicationGroup` or a
        :class:`~repro.sharding.ShardedDatabase`.
    admission:
        Optional :class:`AdmissionController` gating ``BEGIN``.
    recorder:
        Optional :class:`HistoryRecorder`; when given, every
        transaction's lifecycle is recorded for the isolation checker.
    tracer:
        Optional tracer for per-session statement spans; defaults to
        the backend's tracer when it has one.
    accountant:
        Optional :class:`~repro.governance.TenantAccountant`; when
        given, every governed statement charges its materializations
        against the session tenant's budget.
    default_deadline / default_memory_budget:
        Governance limits new sessions start with (overridable per
        session via ``SET deadline`` / ``SET memory_budget``).
    """

    def __init__(self, backend, admission=None, recorder=None,
                 tracer=None, accountant=None, default_deadline=None,
                 default_memory_budget=None):
        from repro.observability.tracer import NO_TRACE
        self._backend = _adapt(backend)
        self.backend_kind = self._backend.kind
        self.admission = admission
        self.recorder = recorder
        self.tracer = tracer if tracer is not None else getattr(
            backend, "tracer", NO_TRACE)
        self.accountant = accountant
        self.default_deadline = default_deadline
        self.default_memory_budget = default_memory_budget
        self.committed = 0
        self.governed = 0
        self._session_seq = 0
        self._txn_seq = 0
        self.sessions = []

    def session(self, tenant="default"):
        self._session_seq += 1
        session = Session(self, tenant,
                          "s{0}".format(self._session_seq))
        self.sessions.append(session)
        return session

    def _next_txn_id(self):
        self._txn_seq += 1
        return self._txn_seq

    def lsn(self):
        return self._backend.lsn()

    def check_isolation(self):
        """Run the snapshot-isolation checker over the recorded
        history; returns the violation list (empty = consistent)."""
        if self.recorder is None:
            raise RuntimeError("no HistoryRecorder attached")
        return self.recorder.check()
