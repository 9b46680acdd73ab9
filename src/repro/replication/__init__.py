"""WAL-shipping replication: primary/replica clusters with automatic
failover, fencing, divergence detection and a chaos-sweep harness.

See :mod:`repro.replication.group` for the protocol and
:mod:`repro.replication.chaos` for the seeded sweep harness.
"""

from repro.replication.chaos import (
    ChaosReport, chaos_sweep, run_chaos_schedule,
)
from repro.replication.group import (
    FailoverEvent, Node, NoPrimaryError, QuorumTimeout, ReplicationError,
    ReplicationGroup, Session,
)
from repro.replication.log import (
    LogEntry, NotPrimaryError, ReplicatedLog,
)

__all__ = [
    "ReplicationGroup", "Session", "Node", "FailoverEvent",
    "ReplicationError", "NoPrimaryError", "QuorumTimeout",
    "ReplicatedLog", "LogEntry", "NotPrimaryError",
    "ChaosReport", "chaos_sweep", "run_chaos_schedule",
]
