"""Golden-trace regression tests.

Each case profiles one canonical query over a fixed dataset and
compares the *normalized* span tree — names, kinds, nesting and the
deterministic tuple-flow counters, with simulated cycles and cache
counters stripped — against a checked-in JSON file under
``tests/observability/golden/``.  A plan-shape change (new operator,
different morsel split, lost instrumentation) fails here; a hardware
-profile retune does not.

The ``serial_*`` and ``parallel_*`` goldens are the operator-level
trace contract, so they pin the interpreter (``SET compile = false``);
the ``compiled_*`` goldens pin the fragment spans of the default
engine's fused kernels.

Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/observability/test_golden.py \
        --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.sql.database import Database

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Counters that are pure functions of the plan and the data — safe to
#: pin.  Cycle and miss counters depend on the simulated hardware
#: profile and stay out of the goldens.
KEEP_COUNTERS = ("tuples_out", "tuples_scanned", "vectors",
                 "recycler_hits", "wal_bytes")

#: Attributes pinned per span (worker/morsel identity, engine).
KEEP_ATTRS = ("engine", "workers", "worker", "index", "start", "stop")


def normalize(node):
    """Reduce a ``Span.to_dict`` tree to its stable skeleton."""
    return {
        "name": node["name"],
        "kind": node["kind"],
        "attrs": {k: node["attrs"][k] for k in KEEP_ATTRS
                  if k in node["attrs"]},
        "counters": {k: node["counters"][k] for k in KEEP_COUNTERS
                     if k in node["counters"]},
        "children": [normalize(child) for child in node["children"]],
    }


def _dataset(engine):
    db = Database()
    db.execute(engine)
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "({0}, {1})".format(i % 7, (i * 37) % 100) for i in range(200)))
    db.execute("CREATE TABLE u (k BIGINT, w BIGINT)")
    db.execute("INSERT INTO u VALUES " + ", ".join(
        "({0}, {1})".format(i % 5, i * 3) for i in range(40)))
    return db


INTERPRETER = "SET compile = false"
KERNELS = "SET compile = true"

#: case -> (sql, workers, engine pragma)
CASES = {
    "serial_filter_projection":
        ("SELECT k, v FROM t WHERE v < 50", 1, INTERPRETER),
    "serial_scalar_aggregate":
        ("SELECT count(*) FROM t", 1, INTERPRETER),
    "serial_group_by":
        ("SELECT v, sum(k) s FROM t GROUP BY v", 1, INTERPRETER),
    "serial_join":
        ("SELECT t.v, u.w FROM t JOIN u ON t.k = u.k WHERE u.w < 30", 1,
         INTERPRETER),
    "parallel_filter_projection":
        ("SELECT k, v FROM t WHERE v < 50", 2, INTERPRETER),
    "parallel_group_by":
        ("SELECT v, sum(k) s FROM t GROUP BY v", 2, INTERPRETER),
    "compiled_filter_projection":
        ("SELECT k, v FROM t WHERE v < 50", 1, KERNELS),
    "compiled_group_by":
        ("SELECT v, sum(k) s FROM t GROUP BY v", 1, KERNELS),
    "compiled_join":
        ("SELECT t.v, u.w FROM t JOIN u ON t.k = u.k WHERE u.w < 30", 1,
         KERNELS),
    "compiled_parallel_group_by":
        ("SELECT v, sum(k) s FROM t GROUP BY v", 2, KERNELS),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case, request):
    sql, workers, engine = CASES[case]
    profile = _dataset(engine).profile(sql, workers=workers)
    if workers > 1:
        assert profile.root.attrs["engine"] == "parallel", \
            "expected a parallel plan for {0!r}".format(sql)
    actual = normalize(profile.to_dict())
    path = GOLDEN_DIR / (case + ".json")
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True)
                        + "\n")
        return
    assert path.exists(), (
        "missing golden file {0}; run with --update-golden".format(path))
    expected = json.loads(path.read_text())
    assert actual == expected, (
        "span tree for {0!r} drifted from {1}; if the change is "
        "intentional, rerun with --update-golden".format(sql, path.name))
