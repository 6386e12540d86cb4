"""The paired-benchmark summariser of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
import os
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"pass_s": "lower", "peak_rss_mb": "lower"}
BOUNDS = {"pass_s": 0.25, "peak_rss_mb": 0.05}


def _run(pair, side, pass_s, rss=90.0, correct=True, failed=0, exit_code=0, workload="w"):
    output = {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    return {"workload": workload, "seed": 1 + pair, "pair": pair, "side": side,
            "ran_first": (pair % 2 == 0) == (side == "parent"), "exit_code": exit_code,
            "output": output, "openblas_num_threads": None, "cpu_count": 2}


def _pairs(parent, change, **kwargs):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [_run(pair, "parent", p, **kwargs), _run(pair, "change", c, **kwargs)]
    return runs


def test_summary_lists_every_run_with_medians_quartiles_and_wins():
    parent = [0.10, 0.12, 3.5, 0.11, 0.13]
    change = [0.08, 0.09, 0.085, 0.12, 0.082]
    summary = bench_pairs.summarise(_pairs(parent, change), BETTER)
    stats = summary["w"]["pass_s"]
    assert stats["parent_runs"] == parent and stats["change_runs"] == change
    assert stats["parent_median"] == 0.12 and stats["change_median"] == 0.085
    assert stats["parent_q1"] == 0.11 and stats["parent_q3"] == 0.13
    assert stats["change_q1"] == 0.082 and stats["change_q3"] == 0.09
    assert stats["change_wins"] == 4 and stats["pairs"] == 5
    assert stats["median_change_pct"] == pytest.approx((0.085 / 0.12 - 1) * 100)
    assert summary["w"]["correct_all"] is True and summary["w"]["failed_total"] == 0
    assert bench_pairs.problems(_pairs(parent, change), summary, BOUNDS, BETTER) == []


def test_an_unpaired_run_is_left_out_of_the_statistics():
    runs = _pairs([0.1, 0.2], [0.1, 0.2]) + [_run(2, "parent", 9.0)]
    stats = bench_pairs.summarise(runs, BETTER)["w"]["pass_s"]
    assert stats["pairs"] == 2 and stats["parent_runs"] == [0.1, 0.2]


def test_failed_or_incorrect_runs_and_a_median_past_its_bound_are_problems():
    runs = _pairs([0.1, 0.1, 0.1], [0.2, 0.2, 0.2])
    runs[1]["output"]["correct"] = False
    runs[3]["output"]["failed"] = 2
    runs[4]["exit_code"] = 1
    runs[5]["output"] = None
    summary = bench_pairs.summarise(runs, BETTER)
    assert summary["w"]["correct_all"] is False and summary["w"]["failed_total"] == 2
    found = bench_pairs.problems(runs, summary, BOUNDS, BETTER)
    assert found[:4] == [
        "w pair 0 change: correct False, failed 0",
        "w pair 1 change: correct True, failed 2",
        "w pair 2 parent: exit 1",
        "w pair 2 change: exit 0, no JSON line",
    ]
    # pair 2's change run has no metrics, so two pairs are left: +100% on pass_s
    assert len(found) == 5 and found[4].startswith("w pass_s: change median 0.2 is +100.0%")


def test_every_run_records_the_thread_setting_and_the_core_count(monkeypatch):
    """OPENBLAS_NUM_THREADS as found, and the core count that sizes the pool
    when it is unset, beside each run in pair order (ABBA)."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, *_: (0, {"tree": tree}))
    runs = bench_pairs.run_pairs({"parent": "P", "change": "C"}, ["w"], 2, 7, 1.0)
    assert [(run["seed"], run["side"], run["output"]["tree"]) for run in runs] == [
        (7, "parent", "P"), (7, "change", "C"), (8, "change", "C"), (8, "parent", "P"),
    ]
    assert {(run["openblas_num_threads"], run["cpu_count"]) for run in runs} == {
        ("1", os.cpu_count())
    }
