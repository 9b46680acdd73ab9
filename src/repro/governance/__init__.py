"""Query-lifecycle robustness: deadlines, cooperative cancellation and
resource governance (the *misbehaving-query* defenses the fail-stop
fault harness does not cover).

* :class:`~repro.governance.context.QueryContext` — per-statement
  deadline / cancel token / memory accountant, threaded cooperatively
  through the interpreter, compiled fragments, morsel workers,
  scatter legs, 2PC prepare and replication read routing.
* :class:`~repro.governance.context.ExecOptions` — the four ``SET``
  pragmas a front door holds, and the one rule that applies them.
* :class:`~repro.governance.accountant.TenantAccountant` —
  cross-statement per-tenant memory budgets.
* :class:`~repro.governance.breaker.CircuitBreaker` — per-link
  closed/open/half-open trip logic for gray (slow-but-alive) shards.
* :class:`~repro.governance.errors.GovernanceError` and its three
  subclasses — the clean retryable error surface.
* :mod:`repro.governance.oracle` — the cancellation-safety oracle
  band: kill at a random checkpoint, then prove by differential
  re-run that no state diverged.
"""

from repro.governance.accountant import TenantAccountant
from repro.governance.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.governance.context import (
    CHECK_FRAGMENT, CHECK_INTERP, CHECK_MORSEL, CHECK_PREPARE,
    CHECK_ROUTE, CHECK_SCATTER, CHECKPOINT_SITES, NO_GOVERNANCE,
    CountingContext, ExecOptions, QueryContext,
)
from repro.governance.errors import (
    DeadlineExceeded, GovernanceError, MemoryExceeded, QueryCancelled,
)
from repro.governance.oracle import (
    CancellationOracle, OracleViolation, SweepReport,
)

__all__ = [
    "CHECK_FRAGMENT", "CHECK_INTERP", "CHECK_MORSEL", "CHECK_PREPARE",
    "CHECK_ROUTE", "CHECK_SCATTER", "CHECKPOINT_SITES", "CLOSED",
    "CancellationOracle", "CircuitBreaker", "CountingContext",
    "DeadlineExceeded", "ExecOptions", "GovernanceError", "HALF_OPEN",
    "MemoryExceeded", "NO_GOVERNANCE", "OPEN", "OracleViolation",
    "QueryCancelled", "QueryContext", "SweepReport", "TenantAccountant",
]
