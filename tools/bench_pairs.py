"""Run the benchmark in alternating parent/change pairs and summarise every run.

Usage:

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --output BENCH.json \\
        --pairs 10 --seed-base 101 --seconds 38 --workload pipeline-batch

PARENT_DIR and CHANGE_DIR are two checkouts, for example two `git archive`
exports. Pair i runs `perfbench/run.py --workload W --seed SEED_BASE + i
--seconds S --trace 0` in each tree, in its own interpreter; the parent
runs first in even pairs and the change first in odd ones (ABBA). Each
workload's pairs run before the next workload's.

Every run is kept with its exit code, its last output line parsed as
JSON, OPENBLAS_NUM_THREADS as found in the environment (the tool never
sets it) and os.cpu_count(), which sizes OpenBLAS's pool where that
variable is unset. The summary has, per workload and end-to-end metric, the
median and quartiles of each side, `change_wins` (pairs whose change run
is better), `pairs`, `median_change_pct` and every run's value in pair
order, plus `correct_all` and `failed_total`.

The exit status is 1 when a run exits nonzero, prints no JSON line, reads
`correct: false` or counts a failed operation, or when a change median is
worse than the parent's by more than the metric's bound in the change
tree's BENCHMARK.json; each such problem is printed on stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`: its exit code and its last line as JSON (or None)."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        output = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        output = None
    return done.returncode, output


def run_pairs(trees, workloads, pairs, seed_base, seconds):
    """Every run of every pair, in the order run."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    cpus = os.cpu_count()
    runs = []
    for workload in workloads:
        for pair in range(pairs):
            seed = seed_base + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                exit_code, output = run_once(trees[side], workload, seed, seconds)
                runs.append({
                    "workload": workload, "seed": seed, "pair": pair, "side": side,
                    "ran_first": position == 0, "exit_code": exit_code, "output": output,
                    "openblas_num_threads": threads, "cpu_count": cpus,
                })
                print(f"{workload} pair {pair} {side}: exit {exit_code} {json.dumps(output)}",
                      flush=True)
    return runs


def _value(run, metric):
    output = (run or {}).get("output") or {}
    return output.get("metrics", {}).get(metric, {}).get("value")


def summarise(runs, metrics):
    """The per-workload summary of the BENCH_*.json files, with each run's value listed.

    `metrics` maps each end-to-end metric name to its `better` direction.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
        entry = {}
        for metric, better in metrics.items():
            read = [
                (_value(sides.get("parent"), metric), _value(sides.get("change"), metric))
                for _, sides in sorted(by_pair.items())
            ]
            read = [pair for pair in read if None not in pair]  # pairs with both values
            if not read:
                continue
            values = {"parent": [p for p, _ in read], "change": [c for _, c in read]}
            sign = 1.0 if better == "lower" else -1.0
            stats = {}
            for side in SIDES:
                q1, median, q3 = np.percentile(values[side], [25, 50, 75])
                stats.update({
                    f"{side}_median": float(median), f"{side}_q1": float(q1),
                    f"{side}_q3": float(q3),
                })
            stats["change_wins"] = sum(
                sign * change < sign * parent
                for parent, change in zip(values["parent"], values["change"])
            )
            stats["pairs"] = len(read)
            stats["median_change_pct"] = (stats["change_median"] / stats["parent_median"] - 1) * 100
            stats["parent_runs"] = values["parent"]
            stats["change_runs"] = values["change"]
            entry[metric] = stats
        entry["correct_all"] = all((run["output"] or {}).get("correct") is True for run in mine)
        entry["failed_total"] = sum((run["output"] or {}).get("failed", 0) for run in mine)
        summary[workload] = entry
    return summary


def problems(runs, summary, bounds, better):
    """What makes the pairs fail: a failed or incorrect run, or a median past its bound."""
    found = []
    for run in runs:
        where = f"{run['workload']} pair {run['pair']} {run['side']}"
        output = run["output"]
        if output is None:
            found.append(f"{where}: exit {run['exit_code']}, no JSON line")
        elif run["exit_code"] != 0:
            found.append(f"{where}: exit {run['exit_code']}")
        elif output.get("correct") is not True or output.get("failed", 0):
            found.append(f"{where}: correct {output.get('correct')}, failed {output.get('failed')}")
    for workload, entry in summary.items():
        for metric, bound in bounds.items():
            stats = entry.get(metric)
            if stats is None:
                continue
            change = stats["median_change_pct"] / 100
            worse = change if better[metric] == "lower" else -change
            if worse > bound:
                found.append(
                    f"{workload} {metric}: change median {stats['change_median']:.6g} is "
                    f"{stats['median_change_pct']:+.1f}% from the parent's, past the bound {bound}"
                )
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the change checkout")
    parser.add_argument("--output", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--workload", action="append", required=True, dest="workloads")
    parser.add_argument("--parent-commit", help="the parent's commit, recorded as given")
    parser.add_argument("--change-commit", help="the change's commit, recorded as given")
    parser.add_argument("--description", default="", help="recorded as given")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}
    bounds = {metric["name"]: metric["bound"] for metric in declared}

    runs = run_pairs(trees, args.workloads, args.pairs, args.seed_base, args.seconds)
    summary = summarise(runs, better)
    record = {
        "description": args.description,
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "runs": runs,
        "summary": summary,
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    found = problems(runs, summary, bounds, better)
    for line in found:
        print(f"problem: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
