"""The six workloads, in report order."""

from benchmarks.harness.workloads.olap import OlapMorsel, OlapSerial
from benchmarks.harness.workloads.oltp import OltpSession
from benchmarks.harness.workloads.replicated import ReplicatedOltp
from benchmarks.harness.workloads.sharded import ShardedMix
from benchmarks.harness.workloads.views import ViewChurn

WORKLOADS = {cls.name: cls for cls in (
    OlapSerial, OlapMorsel, OltpSession, ViewChurn, ShardedMix,
    ReplicatedOltp)}
