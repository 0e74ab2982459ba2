"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_trace.py     (about three minutes)

Tracing must not change what the engine computes: on every workload the
traced reports are byte-identical to the untraced ones, and the per-layer
counts repeat exactly across two traced runs.  The cheaper tests check
the ladder generator, the pins and that BENCHMARK.json names exactly the
metrics run.py prints.
"""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ladder  # noqa: E402
import pins  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, facts  # noqa: E402


def _run_ops(workload, workdir, trace):
    seed = 7
    deadline = time.monotonic() + 600
    files = run.make_inputs(workload, seed, workdir, deadline)
    field = WORKLOADS[workload]["field"]
    ops = [run.op_argv(c, files[name], field, seed)
           for c, name in WORKLOADS[workload]["ops"]]
    records, error = run.run_worker(workdir, [], ops, trace, deadline)
    assert error is None
    assert all(r["rc"] == 0 for r in records if "rc" in r)
    return [r["out"] for r in records if "rc" in r], records[-1]["trace"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_keeps_reports_and_counts(workload, tmp_path):
    workdir = str(tmp_path)
    plain, _ = _run_ops(workload, workdir, False)
    traced1, metrics1 = _run_ops(workload, workdir, True)
    traced2, metrics2 = _run_ops(workload, workdir, True)
    assert traced1 == plain
    assert traced2 == plain
    counts = [k for k in metrics1 if k.endswith(".calls") or ".calls." in k
              or k.endswith(".cells")]
    assert counts
    assert {k: metrics1[k] for k in counts} == {k: metrics2[k]
                                                for k in counts}


def test_benchmark_json_matches_printed_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.per_layer_units())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_ladder_is_seeded():
    assert ladder.seed_complex_text(5, 1) == ladder.seed_complex_text(5, 1)
    texts = {ladder.seed_complex_text(5, s) for s in range(10)}
    assert len(texts) == 10
    assert "arrow x3 3 4" in ladder.algebra_text(4)


def test_pins_catch_wrong_reports():
    good = ("fixture: a4\nfield:   32003\n"
            "presilting  certified  verdict=yes\n"
            "silting     certified  verdict=yes\n"
            "tilting     certified  verdict=no  [witness]\nresult: ok\n")
    assert pins.problems("check", facts("A4"), None, good) == []
    bad = good.replace("silting     certified  verdict=yes",
                       "silting     certified  verdict=no")
    assert pins.problems("check", facts("A4"), None, bad)
    assert pins.problems("check", facts("A4"), "Q", good)
    battery = {"fixture": "a3", "field": "32003", "checks": [
        {"name": "battery", "status": "certified",
         "dims": {"size": 6, "certified": 1}}] + [
        {"name": "module-%03d" % k, "status": "pass",
         "dims": {"dim-vector": d, "total": sum(d)}}
        for k, d in enumerate(facts("A3")["indecomposables"])]}
    assert pins.problems("battery", facts("A3"), None,
                         json.dumps(battery)) == []
    battery["checks"].pop()
    assert pins.problems("battery", facts("A3"), None, json.dumps(battery))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
