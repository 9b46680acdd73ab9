"""Coordinator-side merge of scatter results.

The merge is the split-query finish the morsel engine uses too
(:mod:`repro.sql.partials`); these are the sharding layer's entry
points into it, one per scatter mode of a
:class:`~repro.sharding.planner.ScatterPlan`.  They are the
coordinator's merge boundary: the layered benchmark
(``benchmarks/harness/probes.py``) times ``sharding.merge`` here, so
morsel-engine merges never count as shard merges.
"""

from repro.sql import partials


def merge_rows(plan, shard_parts):
    """Merge a 'rows' scatter: the shards' result BATs, concatenated
    and finished."""
    return partials.merge_rows(plan.merge, shard_parts)


def merge_aggregates(plan, shard_parts):
    """Merge an 'agg' scatter: the shards' partial columns,
    re-aggregated per group and finished."""
    return partials.merge_aggregates(plan.merge, shard_parts)
