"""The per-statement :class:`QueryContext`: deadline, cancel token,
memory accountant — threaded cooperatively through the whole stack.

The engine is single-threaded and simulated, so cancellation is
*cooperative*: every execution layer calls :meth:`QueryContext.checkpoint`
at its natural unit of work —

* ``interp.instr`` — the MAL interpreter, once per instruction;
* ``compile.fragment`` — the plan-fragment executor, once per
  generated kernel invocation;
* ``morsel`` — the parallel engine, once per morsel acquisition;
* ``scatter.leg`` — the sharding coordinator, once per scatter leg;
* ``twopc.prepare`` — the 2PC driver, once per participant prepare;
* ``repl.route`` — replication read routing, once per routed read.

Each checkpoint advances the context's tick clock by one (link layers
add their simulated delays via :meth:`tick`), then enforces, in order:
the armed kill plan (the oracle's deterministic
kill-at-checkpoint-N), the cancel flag, and the deadline.  Memory is
charged at BAT/array materialization sites via :meth:`charge`, against
the per-query budget and (when a
:class:`~repro.governance.accountant.TenantAccountant` is attached)
the tenant's budget.

A kill can therefore only fire at a checkpoint — never inside a
commit-publish sequence — which is what makes the safety invariant
("cancellation never corrupts state") enforceable: every checkpoint
sits strictly before the point of no return of its layer.

:data:`NO_GOVERNANCE` is the inert shared instance (the
``NO_FAULTS``/``NO_TRACE`` idiom): every hook defaults to it and pays
one attribute test on the hot path.

:class:`ExecOptions` is the one way statement options reach the
engine, and :func:`run_governed` the one governed-statement sequence
every front door (database, session, sharding coordinator) runs.
"""

from collections import Counter
from dataclasses import dataclass, replace

from repro.governance.errors import (
    DeadlineExceeded, GovernanceError, MemoryExceeded, QueryCancelled,
)

#: Canonical checkpoint site names, one per execution layer.
CHECK_INTERP = "interp.instr"
CHECK_FRAGMENT = "compile.fragment"
CHECK_MORSEL = "morsel"
CHECK_SCATTER = "scatter.leg"
CHECK_PREPARE = "twopc.prepare"
CHECK_ROUTE = "repl.route"

CHECKPOINT_SITES = (CHECK_INTERP, CHECK_FRAGMENT, CHECK_MORSEL,
                    CHECK_SCATTER, CHECK_PREPARE, CHECK_ROUTE)

_KILL_KINDS = ("cancel", "deadline", "memory")


@dataclass(frozen=True)
class ExecOptions:
    """The options a statement runs under, one per ``SET`` pragma:
    morsel ``workers`` (1 is serial), ``compile`` (False pins the
    interpreter), and the ``deadline`` / ``memory_budget`` limits an
    owned :class:`QueryContext` gets (None: no limit)."""

    workers: int = 1
    compile: bool = True
    deadline: int = None
    memory_budget: int = None

    #: The pragmas that govern whole statements: a session or a sharding
    #: coordinator keeps them instead of passing them on.
    LIMITS = ("deadline", "memory_budget")

    def set(self, pragma):
        """These options with one ``SET`` applied (anything with a
        ``name`` and a ``value``); ValueError for a bad value or an
        unknown name.  A limit of 0 clears it."""
        name, value = pragma.name, pragma.value
        count = isinstance(value, int) and not isinstance(value, bool)
        if name == "workers":
            if not count or value < 1:
                raise ValueError("workers must be a positive integer, "
                                 "got {0!r}".format(value))
            return replace(self, workers=value)
        if name == "compile":
            if not isinstance(value, bool):
                raise ValueError("SET compile needs true or false")
            return replace(self, compile=value)
        if name in self.LIMITS:
            if not count or value < 0:
                raise ValueError(
                    "SET {0} needs a non-negative integer (0 clears)"
                    .format(name))
            return replace(self, **{name: value or None})
        raise ValueError("unknown pragma {0!r}".format(name))


class QueryContext:
    """Deadline + cancel token + memory accountant for one statement.

    Parameters
    ----------
    deadline:
        Ticks the statement may consume on the context clock (each
        checkpoint costs one tick; link layers add their delays).
        None: no deadline.
    memory_budget:
        Bytes of materialized intermediates the statement may charge.
        None: no per-query budget.
    tenant / accountant:
        When both given, every charge also debits the tenant's budget
        in the shared accountant (released wholesale by
        :meth:`release` when the statement finishes).
    """

    active = True

    def __init__(self, deadline=None, memory_budget=None, tenant=None,
                 accountant=None):
        if deadline is not None and deadline < 1:
            raise ValueError("deadline must be a positive tick count")
        if memory_budget is not None and memory_budget < 1:
            raise ValueError("memory_budget must be positive bytes")
        self.deadline = deadline
        self.memory_budget = memory_budget
        self.tenant = tenant
        self.accountant = accountant
        self.clock = 0
        self.cancelled = False
        self.cancel_note = None
        self.checkpoints = Counter()
        self.total_checkpoints = 0
        self.mem_charged = 0        # bytes this statement materialized
        self._tenant_charged = 0    # bytes debited from the accountant
        self._kill_plan = None      # (kind, hit number, site or None)
        self.killed_by = None       # reason token once a kill fired

    @classmethod
    def limited(cls, options, tenant=None, accountant=None):
        """A context for one statement under ``options``' limits, or
        None when there is nothing to govern: no deadline, no memory
        budget and no accountant."""
        if options.deadline is None and options.memory_budget is None \
                and accountant is None:
            return None
        return cls(deadline=options.deadline,
                   memory_budget=options.memory_budget, tenant=tenant,
                   accountant=accountant)

    # -- arming ----------------------------------------------------------------

    def cancel(self, note=None):
        """Set the cancellation token; the next checkpoint raises."""
        self.cancelled = True
        self.cancel_note = note

    def kill_at(self, hit, kind="cancel", site=None):
        """Arm a deterministic kill at the Nth checkpoint (optionally
        only counting hits of ``site``) — the cancellation oracle's
        schedule driver.  ``kind`` picks which governance error fires.
        """
        if kind not in _KILL_KINDS:
            raise ValueError("unknown kill kind {0!r}".format(kind))
        if hit < 1:
            raise ValueError("kill hit numbers are 1-based")
        self._kill_plan = (kind, hit, site)
        return self

    # -- cooperative enforcement ----------------------------------------------

    def tick(self, ticks=1):
        """Charge simulated time that passed outside checkpoints (link
        delays, backoff sleeps).  Does not itself kill — the next
        checkpoint observes the deadline."""
        self.clock += ticks

    def checkpoint(self, site):
        """One cooperative cancellation point; raises the governing
        :class:`~repro.governance.errors.GovernanceError` when a kill
        is due."""
        self.checkpoints[site] += 1
        self.total_checkpoints += 1
        self.clock += 1
        plan = self._kill_plan
        if plan is not None:
            kind, hit, at_site = plan
            count = self.checkpoints[site] if at_site == site \
                else self.total_checkpoints if at_site is None else None
            if count is not None and count >= hit:
                self._kill_plan = None
                self._fire(kind, site)
        if self.cancelled:
            self.killed_by = "cancelled"
            raise QueryCancelled(
                "query cancelled at checkpoint {0!r}".format(site),
                site=site, hit=self.checkpoints[site])
        if self.deadline is not None and self.clock > self.deadline:
            self.killed_by = "deadline"
            raise DeadlineExceeded(
                "deadline of {0} ticks exceeded at tick {1}".format(
                    self.deadline, self.clock),
                site=site, hit=self.checkpoints[site])

    def _fire(self, kind, site):
        hit = self.checkpoints[site]
        self.killed_by = {"cancel": "cancelled", "deadline": "deadline",
                          "memory": "memory"}[kind]
        if kind == "cancel":
            raise QueryCancelled(
                "query cancelled at checkpoint {0!r}".format(site),
                site=site, hit=hit)
        if kind == "deadline":
            raise DeadlineExceeded(
                "deadline exceeded at checkpoint {0!r}".format(site),
                site=site, hit=hit)
        raise MemoryExceeded(
            "memory budget exhausted at checkpoint {0!r}".format(site),
            site=site, hit=hit)

    def charge(self, nbytes, site=None):
        """Account ``nbytes`` of materialized intermediates; raises
        :class:`~repro.governance.errors.MemoryExceeded` over budget."""
        if nbytes <= 0:
            return
        self.mem_charged += nbytes
        if self.accountant is not None and self.tenant is not None:
            self.accountant.charge(self.tenant, nbytes, site=site)
            self._tenant_charged += nbytes
        if self.memory_budget is not None and \
                self.mem_charged > self.memory_budget:
            self.killed_by = "memory"
            raise MemoryExceeded(
                "query charged {0} bytes over its {1}-byte budget"
                .format(self.mem_charged, self.memory_budget),
                site=site, scope="query")

    def release(self):
        """Return this statement's tenant-accounted bytes (called once
        by whoever created the context, when the statement finishes —
        success or kill alike)."""
        if self._tenant_charged and self.accountant is not None:
            self.accountant.release(self.tenant, self._tenant_charged)
            self._tenant_charged = 0

    def __repr__(self):
        return ("QueryContext(clock={0}, deadline={1}, mem={2}/{3}, "
                "checkpoints={4})".format(
                    self.clock, self.deadline, self.mem_charged,
                    self.memory_budget, self.total_checkpoints))


class _NullContext(QueryContext):
    """The inert default: every hook is a no-op, shared and immutable."""

    active = False

    def __init__(self):
        super().__init__()

    def cancel(self, note=None):
        raise RuntimeError("NO_GOVERNANCE is shared and inert; build a "
                           "QueryContext to govern a statement")

    kill_at = cancel

    def tick(self, ticks=1):
        pass

    def checkpoint(self, site):
        pass

    def charge(self, nbytes, site=None):
        pass

    def release(self):
        pass


NO_GOVERNANCE = _NullContext()


def run_governed(front, statement, context, options, tenant=None,
                 accountant=None):
    """``front._execute_statement(statement, context, options)``: without
    a ``context``, under one it owns (built from the options' limits,
    ``tenant`` and ``accountant``; released at the end), and with
    ``front._governed(exc)`` told of every :class:`GovernanceError`."""
    owned = None
    if context is None:
        context = owned = QueryContext.limited(options, tenant, accountant)
    try:
        return front._execute_statement(statement, context, options)
    except GovernanceError as exc:
        front._governed(exc)
        raise
    finally:
        if owned is not None:
            owned.release()


class CountingContext(QueryContext):
    """A dry-run context that never kills: it observes how many times
    each checkpoint fires (and the bytes charged), so an oracle sweep
    can enumerate the kill schedule — the governance analogue of
    :func:`repro.faults.crash_points`."""

    def __init__(self):
        super().__init__()

    def checkpoint(self, site):
        self.checkpoints[site] += 1
        self.total_checkpoints += 1
        self.clock += 1

    def charge(self, nbytes, site=None):
        if nbytes > 0:
            self.mem_charged += nbytes

    def kill_points(self, sites=None):
        """All (site, hit) kill points this run passed through."""
        points = []
        for site in sorted(self.checkpoints):
            if sites is not None and site not in sites:
                continue
            for hit in range(1, self.checkpoints[site] + 1):
                points.append((site, hit))
        return points
