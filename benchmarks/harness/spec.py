"""The benchmark's names: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root lists the same names; the
self-tests compare the two so they cannot drift apart.
"""

#: Frozen after calibration on the seed commit: 8 rounds of each
#: workload's fixed statement count fit in RUN_SECONDS here.
RUN_SECONDS = 10
#: Rounds per second of ``--seconds``: a run is this many rounds of a
#: fixed statement count each, so at seed speed it is the same work
#: every time; it stops early once the timed work exceeds ``--seconds``
#: or the wall clock WALL_FACTOR x ``--seconds``, so a slower machine
#: still ends on time.
ROUNDS_PER_SECOND = 0.8
MIN_ROUNDS = 2
WALL_FACTOR = 1.8

#: (name, unit, better, bound): what a user of the engine sees.  The
#: bound is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("stmts_per_s", "1/s", "higher", 0.20),
    ("read_p50_ms", "ms", "lower", 0.20),
    ("read_p95_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.20),
    ("write_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better): single layers, from the probed run.  ``_us``
#: metrics are self time in the layer per statement unless the README
#: glossary says otherwise; ratios and counts come from the layers'
#: public counters over the first two rounds and repeat exactly.
PER_LAYER = (
    ("sql.parse_us", "us", "lower"),
    ("sql.compile_us", "us", "lower"),
    ("sql.dispatch_us", "us", "lower"),
    ("sql.materialize_us", "us", "lower"),
    ("sql.plan_cache_hit_ratio", "ratio", "higher"),
    ("mal.optimize_us", "us", "lower"),
    ("mal.interp_us", "us", "lower"),
    ("mal.instrs_per_stmt", "count", "lower"),
    ("compile.lookup_us", "us", "lower"),
    ("compile.exec_us", "us", "lower"),
    ("compile.fallback_ratio", "ratio", "lower"),
    ("compile.kernel_hit_ratio", "ratio", "higher"),
    ("compile.codegen_ms", "ms", "lower"),
    ("parallel.exec_us", "us", "lower"),
    ("parallel.fallback_ratio", "ratio", "lower"),
    ("parallel.vs_serial_ratio", "ratio", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.appends_per_commit", "count", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("wal.recover_ms", "ms", "lower"),
    ("views.apply_us", "us", "lower"),
    ("views.apply_us_per_delta_row", "us", "lower"),
    ("views.recompute_ratio", "ratio", "lower"),
    ("views.eager_ratio", "ratio", "lower"),
    ("views.read_us", "us", "lower"),
    ("sharding.coord_us", "us", "lower"),
    ("sharding.plan_us", "us", "lower"),
    ("sharding.link_us", "us", "lower"),
    ("sharding.leg_us", "us", "lower"),
    ("sharding.merge_us", "us", "lower"),
    ("sharding.requests_per_stmt", "count", "lower"),
    ("sharding.shipped_rows_per_stmt", "count", "lower"),
    ("sharding.pruned_ratio", "ratio", "higher"),
    ("sharding.twopc_us", "us", "lower"),
    ("sharding.fast_path_ratio", "ratio", "higher"),
    ("sharding.wal_appends_per_commit", "count", "lower"),
    ("replication.route_us", "us", "lower"),
    ("replication.ship_us", "us", "lower"),
    ("replication.apply_us", "us", "lower"),
    ("replication.ticks_per_commit", "count", "lower"),
    ("sessions.overhead_us", "us", "lower"),
    ("sessions.admit_us", "us", "lower"),
    ("sessions.commit_us", "us", "lower"),
    ("sessions.conflict_ratio", "ratio", "lower"),
    ("bench.probe_overhead_frac", "ratio", "lower"),
    ("bench.unattributed_frac", "ratio", "lower"),
)

#: Layer metrics that are counts or ratios of counts (they must repeat
#: exactly between two runs of the same seed).
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER
                      if unit in ("ratio", "count")
                      and not name.startswith("bench.")
                      and name != "parallel.vs_serial_ratio")
