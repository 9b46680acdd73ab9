"""Hash-partitioned sharding with scatter-gather distributed execution.

``CREATE TABLE t (...) PARTITION BY (k)`` declares a hash-partitioning
key; a :class:`ShardedDatabase` splits such tables row-wise across N
shard nodes (each a full single-node engine behind a simulated link)
and plans every SELECT as scatter-gather with partition pruning and
distributed aggregate decomposition.  Multi-shard writes commit via a
WAL-logged two-phase protocol.  See :mod:`repro.sharding.coordinator`.

The shard map is *elastic*: :meth:`ShardedDatabase.split_shard` /
:meth:`merge_shards` / :meth:`move_buckets` run online migrations —
snapshot copy, WAL-tailed delta catch-up, dual-routed writes, and a
2PC-fenced epoch cutover — under live traffic
(:mod:`repro.sharding.resharding`).
"""

from repro.sharding.coordinator import (
    ACK_SITE, SHIP_SITE, ShardNode, ShardedDatabase, ShardingStats,
    ShardUnavailableError,
)
from repro.sharding.partition import ShardMap, partition_hash
from repro.sharding.planner import (
    ScatterPlan, ShardPlanError, ShardSchema, TableInfo, plan_select,
)
from repro.sharding.resharding import (
    RESHARD_ACK, RESHARD_SHIP, MigrationInProgressError, Resharding,
    ReshardingError, ReshardingStats, StaleEpochError,
)
from repro.sharding.twopc import ShardedTransaction
from repro.sql.partials import MergeError

__all__ = [
    "ACK_SITE",
    "SHIP_SITE",
    "RESHARD_ACK",
    "RESHARD_SHIP",
    "MergeError",
    "MigrationInProgressError",
    "Resharding",
    "ReshardingError",
    "ReshardingStats",
    "StaleEpochError",
    "ScatterPlan",
    "ShardMap",
    "ShardNode",
    "ShardPlanError",
    "ShardSchema",
    "ShardedDatabase",
    "ShardedTransaction",
    "ShardingStats",
    "ShardUnavailableError",
    "TableInfo",
    "partition_hash",
    "plan_select",
]
