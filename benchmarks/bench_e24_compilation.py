"""E24 — plan-fragment compilation: fused kernels vs the interpreter.

A family of scan→filter(→project)→aggregate pipelines runs over a
50k-row table three ways: operator-at-a-time interpreter, compiled
(fused kernels, warm plan + kernel caches), and compiled + parallel
(four morsel workers, each running the part plan's fused kernels over
one row range).  The compiled column measures exactly what fusion
buys: one generated pass
over raw numpy arrays against N materialized operator hops, with the
per-instruction dispatch and BAT-wrapping overhead gone.

Gates:

* identical answers on every pipeline and leg;
* the kernel cache serves every repeat run (1 miss per shape);
* ≥2× speedup over the interpreter on at least one
  scan→filter→aggregate pipeline — the paper's argument that a
  column-at-a-time engine leaves an integer factor on the table for
  exactly these shapes.

A PROFILE run of the headline query demonstrates the attribution
story: ``compile.codegen`` (cold) and ``compile.exec`` spans with
fused-instruction counts, plus the kernel-cache counters.
"""

import time

from conftest import run_once

from repro.sql.database import Database

ROWS = 50_000
REPS = 9

PIPELINES = [
    ("filter2_sum",
     "SELECT sum(v), count(*) FROM t WHERE k > 5000 AND v < 800"),
    ("filter3_arith_sum",
     "SELECT sum(k + v), count(*) FROM t "
     "WHERE k > 1000 AND v < 900 AND g = 3"),
    ("filter_minmax",
     "SELECT min(v), max(v), avg(v) FROM t WHERE k > 2500 AND k < 47500"),
    ("group_by",
     "SELECT g, sum(v), count(*) FROM t WHERE k > 5000 GROUP BY g"),
    ("project_rows",
     "SELECT k, v FROM t WHERE k > 40000 AND v < 500"),
]


def _load(db):
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, g INTEGER)")
    for lo in range(0, ROWS, 5000):
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "({0}, {1}, {2})".format(i, (i * 37) % 1000, i % 7)
            for i in range(lo, lo + 5000)))
    return db


def _time(fn):
    best = None
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def sweep():
    db = _load(Database())
    rows = []
    speedups = {}
    for name, sql in PIPELINES:
        expected = sorted(db.query(sql))
        assert sorted(db.query(sql, compile=True)) == expected, name
        assert sorted(db.query(sql, compile=True, workers=4)) == \
            expected, name
        interp = _time(lambda: db.query(sql))
        compiled = _time(lambda: db.query(sql, compile=True))
        par = _time(lambda: db.query(sql, compile=True, workers=4))
        speedups[name] = interp / compiled
        rows.append((name, round(interp * 1e3, 2),
                     round(compiled * 1e3, 2), round(par * 1e3, 2),
                     round(interp / compiled, 2),
                     round(interp / par, 2)))
    return rows, speedups, db.plan_compiler.counters()


def _profile_attribution():
    db = _load(Database())
    sql = PIPELINES[1][1]
    cold = db.profile(sql, compile=True)     # codegen + first exec
    warm = db.profile(sql, compile=True)     # cache hit, exec only
    def spans(report, name):
        return report.root.find_all(name=name)
    return cold, warm, spans, db.plan_compiler.counters()


def test_e24_compilation(benchmark, sink):
    rows, speedups, counters = run_once(benchmark, sweep)
    sink.table(
        "E24: fused kernels vs interpreter ({0} rows, best of {1}, "
        "times in ms)".format(ROWS, REPS),
        ["pipeline", "interp", "compiled", "compiled+par4",
         "speedup", "speedup par"], rows)
    sink.note("Fusion collapses each scan->filter->project->aggregate "
              "run into one generated pass over raw numpy arrays: no "
              "per-operator dispatch, no intermediate BATs, constants "
              "arriving through the parameter vector so one kernel "
              "serves every same-shape query.  The margin widens with "
              "pipeline depth (filter3_arith_sum fuses the most "
              "operators); short pipelines are already numpy-bound in "
              "the interpreter so fusion buys less.")

    cold, warm, spans, prof_counters = _profile_attribution()
    codegen = spans(cold, "compile.codegen")
    sink.table(
        "E24: PROFILE attribution for {0!r}".format(PIPELINES[1][1]),
        ["run", "codegen spans", "exec spans", "fused instrs"],
        [("cold", len(codegen), len(spans(cold, "compile.exec")),
          sum(s.counters.get("fused_instructions", 0)
              for s in spans(cold, "compile.exec"))),
         ("warm", len(spans(warm, "compile.codegen")),
          len(spans(warm, "compile.exec")),
          sum(s.counters.get("fused_instructions", 0)
              for s in spans(warm, "compile.exec")))])
    sink.note("kernel cache: {0} hits / {1} misses / {2} invalidations; "
              "{3} compiled runs, {4} interpreted fallbacks".format(
                  counters["kernel_cache_hits"],
                  counters["kernel_cache_misses"],
                  counters["kernel_cache_invalidations"],
                  counters["compiled_runs"],
                  counters["interpreted_fallbacks"]))

    # -- gates ---------------------------------------------------------------
    assert counters["interpreted_fallbacks"] == 0
    # One cold miss per plan shape (plus the parallel runs' part-plan
    # shapes, which share this cache); every repeat run is a cache hit.
    assert len(PIPELINES) <= counters["kernel_cache_misses"] \
        <= 2 * len(PIPELINES)
    assert counters["kernel_cache_hits"] >= len(PIPELINES) * REPS
    # The ISSUE gate: >=2x on at least one scan->filter->agg pipeline.
    best = max(speedups, key=speedups.get)
    assert speedups[best] >= 2.0, \
        "best speedup only {0:.2f}x ({1})".format(speedups[best], best)
    # Attribution: cold run compiled once, warm run hit the cache but
    # still shows per-fragment exec spans.
    assert len(codegen) == 1
    assert len(spans(warm, "compile.codegen")) == 0
    assert len(spans(warm, "compile.exec")) >= 1

    benchmark.extra_info["best_pipeline"] = best
    benchmark.extra_info["best_speedup"] = round(speedups[best], 2)
    benchmark.extra_info["speedups"] = {
        k: round(v, 2) for k, v in speedups.items()}
