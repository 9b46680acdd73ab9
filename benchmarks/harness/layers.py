"""Per-layer metrics from one probed run.

Two sources, never mixed in one number: *times* are span self times
from the traced rounds, divided by the statements those rounds ran;
*ratios and counts* are deltas of the layers' public counters over the
first two rounds (a fixed statement count, so they repeat exactly).
"""

from benchmarks.harness.probes import STATEMENT


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(totals, setup_totals, traced, counts, measured):
    """``{metric name: value}`` for every name in ``spec.PER_LAYER``.

    ``totals``/``setup_totals``: ``probes.aggregate`` output for the
    traced rounds and the traced build.  ``traced``: statement, write,
    delta-row and view-read tallies of the traced rounds.  ``counts``:
    counter deltas over the first two rounds.  ``measured``: values
    taken by direct timing (recovery, probe overhead, serial ratio).
    """
    stmts, writes = traced["stmts"], traced["writes"]

    def us(bucket, per=stmts, inclusive=False):
        entry = totals.get(bucket)
        if entry is None or not per:
            return 0.0
        return entry[1 if inclusive else 0] / 1e3 / per

    c = counts
    compiled = c["compiled_runs"] + c["interpreted_fallbacks"] \
        + c["unsupported_plans"]
    routed = c["shard_single"] + c["shard_scatter"] + c["shard_gather"]
    statement = totals.get(STATEMENT, [0, 0, 0])
    return {
        "sql.parse_us": us("sql.parse"),
        "sql.compile_us": us("sql.compile"),
        "sql.dispatch_us": us("sql.dispatch"),
        "sql.materialize_us": us("sql.materialize"),
        "sql.plan_cache_hit_ratio": _ratio(c["plans_reused"], c["selects"]),
        "mal.optimize_us": us("mal.optimize"),
        "mal.interp_us": us("mal.interp"),
        "mal.instrs_per_stmt": _ratio(c["instrs"], c["stmts"]),
        "compile.lookup_us": us("compile.lookup"),
        "compile.exec_us": us("compile.exec"),
        "compile.fallback_ratio": _ratio(
            c["interpreted_fallbacks"] + c["unsupported_plans"], compiled),
        "compile.kernel_hit_ratio": _ratio(
            c["kernel_cache_hits"],
            c["kernel_cache_hits"] + c["kernel_cache_misses"]),
        "compile.codegen_ms": _ratio(
            setup_totals.get("compile.codegen", [0])[0] / 1e6,
            traced["builds"]),
        "parallel.exec_us": us("parallel.exec"),
        "parallel.fallback_ratio": _ratio(
            c["parallel_fallbacks"],
            c["parallel_runs"] + c["parallel_fallbacks"]),
        "parallel.vs_serial_ratio": measured.get("vs_serial_ratio", 0.0),
        "wal.append_us": us("wal.append"),
        "wal.appends_per_commit": _ratio(c["wal_records"], c["writes"]),
        "wal.bytes_per_user_byte": _ratio(c["wal_bytes"], c["user_bytes"]),
        "wal.recover_ms": measured.get("recover_s", 0.0) * 1e3,
        "views.apply_us": us("views.apply", per=writes),
        "views.apply_us_per_delta_row":
            us("views.apply", per=traced["delta_rows"]),
        "views.recompute_ratio": _ratio(c["view_group_recomputes"],
                                        c["view_deltas"]),
        "views.eager_ratio": _ratio(c["view_eager_recomputes"],
                                    c["view_deltas"]),
        "views.read_us": _ratio(traced["view_read_ns"] / 1e3,
                                traced["view_reads"]),
        "sharding.coord_us": us("sharding.coord"),
        "sharding.plan_us": us("sharding.plan"),
        "sharding.link_us": us("sharding.link"),
        "sharding.leg_us": us("sharding.leg", inclusive=True),
        "sharding.merge_us": us("sharding.merge"),
        "sharding.requests_per_stmt": _ratio(c["shard_requests"],
                                             c["stmts"]),
        "sharding.shipped_rows_per_stmt": _ratio(c["shard_shipped_rows"],
                                                 c["stmts"]),
        "sharding.pruned_ratio": _ratio(c["shard_pruned"], routed),
        "sharding.twopc_us": us("sharding.twopc", per=writes),
        "sharding.fast_path_ratio": _ratio(
            c["twopc_fast"], c["twopc_fast"] + c["twopc_commits"]),
        "sharding.wal_appends_per_commit":
            _ratio(c["shard_wal_records"], c["writes"]),
        "replication.route_us": us("replication.route"),
        "replication.ship_us": us("replication.ship"),
        "replication.apply_us": us("replication.apply"),
        "replication.ticks_per_commit": _ratio(c["repl_ticks"],
                                               c["writes"]),
        "sessions.overhead_us": us("sessions.overhead"),
        "sessions.admit_us": us("sessions.admit"),
        "sessions.commit_us": us("sessions.commit"),
        "sessions.conflict_ratio": _ratio(
            c["session_conflicts"],
            c["session_conflicts"] + c["session_commits"]),
        "bench.probe_overhead_frac":
            measured.get("probe_overhead_frac", 0.0),
        "bench.unattributed_frac": _ratio(statement[0], statement[1]),
    }
