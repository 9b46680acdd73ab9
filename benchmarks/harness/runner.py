"""One workload, one interpreter: rounds of build, warm, timed script, checks.

The timed phase is closed-loop, single client, single thread: the next
statement is issued when the previous one's rows have been fetched.
It runs in rounds of a fixed statement count (GC stays on, with a
``gc.collect()`` before each).

Every round starts from a freshly built engine and a fresh row model.
The engine's state grows with every write (deleted sets, delta
columns, plan cache), so rounds that shared one engine would each be
slower than the last and a statistic over rounds would depend on how
many of them a run completed.  Building per round makes rounds alike
and gives one ``setup_s`` sample each.

Every timing metric is the per-round statistic of its *best round*
(``stats.best``), reported with the MAD over rounds.  The sandbox this
was calibrated on alternates, for seconds to a minute at a time,
between a nominal speed and one about 1.7x slower (contention from
outside the VM: no steal time shows and the other vCPU is idle), so
the median over rounds of a 10-second run moved by 30-50% between runs
of the same code, while the best round needs one undisturbed round in
eight and moved by a few percent.

With ``trace`` the odd rounds run under the boundary probes and the
even ones without, which gives the per-layer times and the probe
overhead from one run.
"""

import collections
import gc
import json
import resource
from time import perf_counter, perf_counter_ns

from benchmarks.harness import spec, stats
from benchmarks.harness.layers import layer_metrics
from benchmarks.harness.probes import STATEMENT, Probes, aggregate
from benchmarks.harness.workloads.base import same_answer


def _run_round(workload, statements, probes):
    """Execute one round; returns (latencies in ns, failures)."""
    latencies, failures = [], []
    run = workload.run if probes is None \
        else probes.wrap(STATEMENT, workload.run)
    for stmt in statements:
        if probes is not None:
            probes.stmt_id = stmt.sid
        start = perf_counter_ns()
        try:
            got, error = run(stmt), None
        except Exception as exc:  # recorded as a failed statement
            got, error = None, exc
        latencies.append(perf_counter_ns() - start)
        if error is not None:
            failures.append("stmt {0} [{1}] raised {2!r}".format(
                stmt.sid, stmt.tag, error))
        elif not all(map(same_answer, got, stmt.expect)):
            failures.append("stmt {0} [{1}] wrong answer: {2!r}".format(
                stmt.sid, stmt.tag, stmt.sqls))
    return latencies, failures


def _round_stats(statements, latencies):
    """One round's statistics; a run reports each one's best round."""
    by_kind = {"read": [], "write": []}
    for stmt, ns in zip(statements, latencies):
        by_kind[stmt.kind].append(ns / 1e6)
    out = {"stmts_per_s": len(latencies) / (sum(latencies) / 1e9)}
    for kind, values in by_kind.items():
        out[kind + "_p50_ms"] = stats.percentile(values, 50)
        out[kind + "_p95_ms"] = stats.percentile(values, 95)
    return out


def _tally(statements, into):
    """Harness-side counts the ratios are taken against."""
    for stmt in statements:
        into["stmts"] += 1
        into["writes"] += stmt.kind == "write"
        into["delta_rows"] += stmt.delta_rows
        for sql in stmt.sqls:
            if sql.startswith("SELECT"):
                into["selects"] += 1
            elif sql.startswith(("INSERT", "UPDATE", "DELETE")):
                into["user_bytes"] += len(sql.encode("utf-8"))


def run_workload(cls, seed, seconds, trace, smoke, workdir,
                 spans_out=None):
    """Run one workload; returns ``(result, detail)`` — the contract's
    last-line object and the fuller record the suite keeps.  With
    ``spans_out`` the raw spans of the probed round the layer times
    come from are written there, one JSON array per line."""
    workload = cls(seed, smoke=smoke, workdir=workdir)
    probes = Probes() if trace else None
    try:
        return _measure(workload, seconds, probes, smoke, spans_out)
    finally:
        if probes is not None:
            probes.restore()


def _one_round(workload, probes, counts, keep_spans):
    """Fresh engine, fresh model, one timed script, the checks.
    ``probes`` is None for an unprobed round; ``counts`` collects the
    counter deltas of the timed statements (None: not this round)."""
    workload.reset()
    gc.collect()
    record = {"probed": probes is not None}
    if probes is not None:
        probes.install()   # the build's cold codegen is traced too
    try:
        start = perf_counter()
        workload.build()
        record["setup_s"] = perf_counter() - start
        if probes is not None:
            record["setup_totals"] = aggregate(probes.drain())
        statements = workload.script()
        gc.collect()
        before = workload.counters() if counts is not None else None
        latencies, failures = _run_round(workload, statements, probes)
    finally:
        if probes is not None:
            spans = probes.drain()
            record["totals"] = aggregate(spans)
            if keep_spans:
                record["spans"] = spans
            probes.restore()
    record["timed_ns"] = sum(latencies)
    record.update(_round_stats(statements, latencies))
    if probes is not None:
        tally = record["tally"] = collections.Counter(builds=1)
        _tally(statements, tally)
        for stmt, ns in zip(statements, latencies):
            if stmt.tag == "view_read":
                tally["view_reads"] += 1
                tally["view_read_ns"] += ns
    if counts is not None:
        # Counter deltas span the timed statements only, never the
        # build or the checks, so the ratios repeat exactly.
        _tally(statements, counts)
        after = workload.counters()
        for key in after:
            counts[key] += after[key] - before[key]
    checks = workload.check_round()
    failures += ["check: " + label for label, ok in checks if not ok]
    return record, failures, len(checks)


def _measure(workload, seconds, probes, smoke, spans_out):
    wanted = spec.MIN_ROUNDS if smoke else \
        max(spec.MIN_ROUNDS, round(seconds * spec.ROUNDS_PER_SECOND))
    deadline = perf_counter() + seconds * spec.WALL_FACTOR
    rounds, failures, checks_run = [], [], 0
    counts = collections.Counter()
    while len(rounds) < wanted:
        if len(rounds) >= spec.MIN_ROUNDS and (
                sum(r["timed_ns"] for r in rounds) >= seconds * 1e9
                or perf_counter() >= deadline):
            break
        index = len(rounds)
        probed = probes is not None and index % 2 == 1
        record, failed, checks = _one_round(
            workload, probes if probed else None,
            counts if index < 2 else None, spans_out is not None)
        rounds.append(record)
        failures += ["round {0}: {1}".format(index, text)
                     for text in failed]
        checks_run += checks

    measured = {}
    try:
        durability = workload.check_durability()
    except Exception as exc:  # a recovery that raises has failed
        durability = [("recovery raised {0!r}".format(exc), False)], 0.0
    if durability is not None:
        checks, measured["recover_s"] = durability
        checks_run += len(checks)
        failures += ["durability: " + label
                     for label, ok in checks if not ok]

    attempted = workload.statements_issued + checks_run
    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "rounds": len(rounds),
        "statements_per_round": workload.statements_issued // len(rounds),
        "flush_policy": workload.flush_policy,
        "failures": failures[:50],
        "failed_frac": len(failures) / attempted,
    }
    if probes is None:
        metrics = _end_to_end(rounds, detail)
    else:
        metrics = _per_layer(workload, rounds, counts, measured,
                             spans_out)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, detail


def _end_to_end(rounds, detail):
    values = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    mads = {"peak_rss_mb": 0.0}
    gaps = {"peak_rss_mb": 0.0}
    for name, _, better, _ in spec.END_TO_END:
        if name not in values:
            series = [r[name] for r in rounds]
            values[name] = stats.best(series, better)
            mads[name] = stats.mad(series)
            gaps[name] = stats.runner_up_gap(series, better)
    detail["mad"], detail["runner_up_gap"] = mads, gaps
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in spec.END_TO_END}


def _per_layer(workload, rounds, counts, measured, spans_out):
    def fastest(probed):
        return max((r for r in rounds if r["probed"] == probed),
                   key=lambda r: r["stmts_per_s"])

    # Layer times come from the probed round the host disturbed least
    # (the fastest one); the overhead compares it with its unprobed peer.
    under = fastest(True)
    measured["probe_overhead_frac"] = \
        1.0 - under["stmts_per_s"] / fastest(False)["stmts_per_s"]
    measured.update(workload.extra_measurements())
    if spans_out is not None:
        with open(spans_out, "w") as handle:
            for span in under["spans"]:
                handle.write(json.dumps(span) + "\n")
    values = layer_metrics(under["totals"], under["setup_totals"],
                           under["tally"], counts, measured)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spec.PER_LAYER}
