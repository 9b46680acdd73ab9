"""Harness self-tests: determinism, probes, arithmetic, schema, checks."""

import collections
import hashlib
import json
import os

import pytest

from benchmarks.harness import compare, probes, spec, stats
from benchmarks.harness.runner import _run_round, run_workload
from benchmarks.harness.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

#: sha256 of the first round's SQL texts at seed 7, smoke size.  A
#: change here means every committed baseline has a different script.
PINNED = {
    "olap_serial": "f4bd39438f104129ad7e8b6db6aa4784d2d805a4265d7b4c0c98d5264cb72705",
    "olap_morsel": "dc002aa29ecba25af0c0c90bec136568a9cdc538ff70c29f069b52de13c98ecc",
    "oltp_session": "373984ef0f535196e563652a6aff89ced162f781678b29d5d6487bece0482942",
    "view_churn": "1264d8b512331d7e53a02f0085131997d8ea68d79aa4b153b0abf35e51edef5a",
    "sharded_mix": "9bb69f4e4a06859e5f383b5d0881f08d18a1c02bd7ebf60a8151bec6605348a2",
    "replicated_oltp": "311afd11e6ca7dd0b176e45c136621c0560cecf1768a28ac91dee49ac151ebbb",
}


def script_hash(name, seed):
    workload = WORKLOADS[name](seed, smoke=True, workdir=None)
    digest = hashlib.sha256()
    for stmt in workload.script():
        for sql in stmt.sqls:
            digest.update(sql.encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_script_and_pinned(name):
    assert script_hash(name, 7) == script_hash(name, 7) == PINNED[name]
    assert script_hash(name, 8) != PINNED[name]


def test_probes_install_and_restore_leave_repro_untouched():
    import repro.sharding  # noqa: F401  -- importers of the probed names
    import repro.sessions  # noqa: F401
    import repro.replication  # noqa: F401
    recorder = probes.Probes()
    recorder.install()
    patched = recorder.patched_attributes()
    assert len(patched) > len(probes.PROBE_POINTS)  # parse_sql importers
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is not original
    recorder.restore()
    assert recorder.patched_attributes() == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_self_time_on_a_synthetic_span_tree():
    # root 0..100; a 10..40 (with a1 20..30); b 50..90
    spans = [("root", 0, 100, -1, 1), ("a", 10, 40, 0, 1),
             ("a1", 20, 30, 1, 1), ("b", 50, 90, 0, 1)]
    assert probes.self_times(spans) == [30, 20, 10, 40]
    totals = probes.aggregate(spans)
    assert totals["root"] == [30, 100, 1]
    assert sum(entry[0] for entry in totals.values()) == 100


def test_link_spans_follow_their_parent_layer():
    spans = [("replication.ship", 0, 50, -1, 1), ("link", 10, 20, 0, 1),
             ("sharding.coord", 60, 100, -1, 2), ("link", 70, 75, 2, 2)]
    totals = probes.aggregate(spans)
    assert totals["replication.ship"] == [50, 60, 2]
    assert totals["sharding.link"] == [5, 5, 1]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile([3, 1, 2], 95) == 3
    assert stats.mad([1, 2, 3, 4, 100]) == 1
    assert stats.best([3, 1, 2], "lower") == 1
    assert stats.best([3, 1, 2], "higher") == 3
    assert stats.runner_up_gap([4, 2, 3], "lower") == 0.5
    assert stats.runner_up_gap([4, 2, 3], "higher") == 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_is_correct_and_matches_the_schema(name, tmp_path):
    plain, detail = run_workload(WORKLOADS[name], 3, 1, False, True,
                                 str(tmp_path))
    traced, _ = run_workload(WORKLOADS[name], 3, 1, True, True,
                             str(tmp_path))
    again, _ = run_workload(WORKLOADS[name], 3, 1, True, True,
                            str(tmp_path))
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    assert detail["failures"] == [] and detail["rounds"] == 2
    assert list(plain["metrics"]) == [m[0] for m in spec.END_TO_END]
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())
    assert list(traced["metrics"]) == [m[0] for m in spec.PER_LAYER]
    # Counts and ratios of counts repeat exactly between two runs.
    for metric in spec.COUNT_METRICS:
        assert traced["metrics"][metric] == again["metrics"][metric], metric


def test_a_wrong_answer_and_a_diverged_state_are_caught(tmp_path):
    workload = WORKLOADS["oltp_session"](3, smoke=True,
                                         workdir=str(tmp_path))
    workload.build()
    statements = workload.script()
    index = next(i for i, stmt in enumerate(statements)
                 if stmt.tag == "insert")
    statements[index] = statements[index]._replace(expect=(2,))
    _, failures = _run_round(workload, statements, None)
    assert len(failures) == 1 and "wrong answer" in failures[0]
    assert all(ok for _, ok in workload.check_round())
    workload.rows.popitem()      # the model now disagrees with the engine
    assert not all(ok for _, ok in workload.check_round())
    checks, _ = workload.check_durability()
    assert not all(ok for _, ok in checks)


def test_benchmark_json_names_what_the_harness_measures():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == \
        [(name, cls.why) for name, cls in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == list(spec.PER_LAYER)


def _document(value, gap=0.0):
    metrics = {name: {"value": value, "unit": unit, "mad": 0.0,
                      "runner_up_gap": gap}
               for name, unit, _, _ in spec.END_TO_END}
    return [{"w": {"end_to_end": metrics}}]


def test_compare_verdicts():
    verdicts = collections.Counter(
        row[-1] for row in compare.compare_sets(_document(1.0),
                                                _document(1.05)))
    assert verdicts == {"within": len(spec.END_TO_END)}
    rows = compare.compare_sets(_document(1.0), _document(1.3))
    by_metric = {row[1]: row[-1] for row in rows}
    assert by_metric["read_p50_ms"] == "regressed"      # lower is better
    assert by_metric["stmts_per_s"] == "within"         # higher is better
    rows = compare.compare_sets(_document(1.0, gap=0.5), _document(1.3))
    assert {row[-1] for row in rows} == {"unresolved"}
