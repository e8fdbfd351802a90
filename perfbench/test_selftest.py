"""Toy-size self-test of the benchmark harness.

    python3 -m pytest perfbench/test_selftest.py

Runs every workload at tiny shapes with the output checks on, traced and
untraced.  It sets no timing threshold: it only shows that the harness still
drives the CLI, checks what it prints and reports every metric.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run  # noqa: E402
from tracer import metric_units  # noqa: E402

sys.path.insert(0, str(run.SRC))


def counts(report: dict) -> dict:
    return {name: report["metrics"][name] for name, unit in report["units"].items()
            if unit in ("count", "ratio")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_is_correct_and_reports_every_metric(workload, tmp_path):
    report, _ = run.run_workload(workload, 3, 0, False, tmp_path, size="toy")
    assert report["correct"], report["problems"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert set(report["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in report["metrics"].values())
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_within_a_seed(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, tracer = run.run_workload(workload, 5, 0, True, tmp_path / "a", size="toy")
    second, _ = run.run_workload(workload, 5, 0, True, tmp_path / "b", size="toy")
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(metric_units())
    assert counts(first) == counts(second)
    assert first["metrics"]["exterior.wedge.calls"] > 0
    assert first["metrics"]["trace.overhead_s"] > 0
    tracer.write(tmp_path / "spans.jsonl.gz", {"workload": workload})
    # the traced run put every patched function back
    import wedgeshift.exterior
    assert not hasattr(wedgeshift.exterior.wedge, "__wrapped__")


def test_checker_rejects_wrong_pipeline_output():
    good = {"size": 3, "bound": 4, "satisfied": True,
            "certificate": {"family": [[1, 2], [1, 3], [1, 4]],
                            "steps": [{"step": 0, "dim": 3}]}}
    assert checker.check_pipeline(json.dumps(good), 5, 2, 3, star=False)[0] == []
    not_shifted = json.loads(json.dumps(good))
    not_shifted["certificate"]["family"] = [[1, 2], [1, 3], [1, 5]]
    assert checker.check_pipeline(json.dumps(not_shifted), 5, 2, 3, star=False)[0]
    wrong_dim = json.loads(json.dumps(good))
    wrong_dim["certificate"]["steps"][0]["dim"] = 2
    assert checker.check_pipeline(json.dumps(wrong_dim), 5, 2, 3, star=False)[0]
    # a full star at (5, 2) has 4 sets, so a 3-set result cannot be the star
    assert checker.check_pipeline(json.dumps({**good, "size": 4}), 5, 2, 4, star=True)[0]


def test_checker_rejects_wrong_check_outputs():
    # the star at 1 on (6, 3) has C(5,2) = 10 sets, the non-star bound itself
    assert checker.hm_bound(6, 3) == 10
    star_witness = {"size": 10, "bound": 10,
                    "certificate": {"enumerated": 9, "witnesses": [checker.star_sets(6, 3, 1)]}}
    assert any("star" in p for p in checker.check_hm_verify(json.dumps(star_witness), 6, 3)[0])
    cross = {"dim": 10, "annihilator_dim": 0, "self_annihilating": True,
             "spanning_elements_factor_free": True,
             "spanning_rows": ["e1^e2^e3 + e4^e5^e6", "..."]}
    assert checker.check_example_cross(json.dumps(cross), 3)[0] == []
    cross["spanning_rows"] = ["e2^e3^e4 + e1^e5^e6"]
    assert checker.check_example_cross(json.dumps(cross), 3)[0]
    assert checker.check_oracle(json.dumps({"match": False, "pairs_per_trial": 6, "trials": 2}), 4, 2)[0]


def test_missing_source_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "checks", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
