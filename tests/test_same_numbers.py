"""The two-tree comparison of tools/same_numbers.py, on synthetic digest lines."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "same_numbers", Path(__file__).parents[1] / "tools" / "same_numbers.py"
)
same_numbers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_numbers)

LABELS = ["parent/src", "change/src"]


def _line(name, exit_code=0, results="ab12"):
    return (
        f"{name} | exit {exit_code} | stdout 00 | stderr 11 | warnings 0 22"
        f" | files 5 33 | results 2 {results}"
    )


PARENT = [_line("raw tv"), _line("raw bootstrap flat"), _line("compare raw tenor 1"),
          "# 3 configurations, 10 artifacts, 4 results"]


def test_identical_trees_report_no_difference_and_exit_0():
    report, status = same_numbers.comparison(LABELS, [PARENT, list(PARENT)])
    assert same_numbers.differences(PARENT, list(PARENT)) == []
    assert status == 0
    assert report == [
        "parent/src: # 3 configurations, 10 artifacts, 4 results",
        "change/src: # 3 configurations, 10 artifacts, 4 results",
        "identical",
    ]


def test_each_differing_configuration_is_printed_with_both_lines_and_exit_1():
    change = [PARENT[0], _line("raw bootstrap flat", results="cd34"), PARENT[2],
              _line("raw tv strict", exit_code=2), "# 4 configurations, 10 artifacts, 4 results"]
    found = same_numbers.differences(PARENT, change)
    assert found == [
        ("raw bootstrap flat", PARENT[1], change[1]),
        ("raw tv strict", None, change[3]),
    ]
    report, status = same_numbers.comparison(LABELS, [PARENT, change])
    assert status == 1
    assert report == [
        "raw bootstrap flat",
        f"  parent/src: {PARENT[1]}",
        f"  change/src: {change[1]}",
        "raw tv strict",
        "  parent/src: (missing)",
        f"  change/src: {change[3]}",
        "parent/src: # 3 configurations, 10 artifacts, 4 results",
        "change/src: # 4 configurations, 10 artifacts, 4 results",
        "configurations that differ: 2",
    ]


def test_a_configuration_missing_from_the_second_tree_differs():
    change = [PARENT[0], PARENT[2], PARENT[3]]
    assert same_numbers.differences(PARENT, change) == [("raw bootstrap flat", PARENT[1], None)]
    assert same_numbers.comparison(LABELS, [PARENT, change])[1] == 1


def test_count_lines_alone_are_no_configuration():
    change = [*PARENT[:3], "# 3 configurations, 11 artifacts, 4 results"]
    assert same_numbers.differences(PARENT, change) == []
