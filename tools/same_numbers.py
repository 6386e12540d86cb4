"""Digest one fixed grid of capstrip runs, to show that two trees give the same numbers.

Usage:

    python tools/same_numbers.py SRC_DIR > digests.txt
    python tools/same_numbers.py SRC_DIR OTHER_SRC_DIR

SRC_DIR is the `src/` directory of the tree to run; capstrip is imported
from it. Given one tree, the tool prints its digests. Given two (for
example a parent tree's `src/` from `git archive` and the change's), it
runs each in its own interpreter, prints every configuration whose line
differs, with both lines, and each tree's count line, and exits 1 on any
difference and 0 when the trees give the same numbers.

Each configuration is one `capstrip run` or `capstrip compare` command,
run in process through click's CliRunner, and prints one line: its name,
its exit code, and digests of its stdout, its stderr, the warnings it
raised, every artifact it wrote (name and bytes), and every field of every
StripResult an engine returned, to the bit. Each engine call is made twice,
once as the run makes it (max_iter 200) and once with max_iter 40, and both
results are digested; an engine's exception is digested by its message.
The last line counts configurations, artifacts and results.

The grid, on the bundled fixture ladder unless named otherwise:
- raw (outliers report) and clean (outliers remove) ladders: tv; bootstrap
  for every family at maturity, flat at mid, and linear at mid (rejected);
  global for every family, placement and positivity mode;
- strikes 200 and -50 bp: tv, every bootstrap family, every global family
  at mid;
- each outlier policy, with and without --strict;
- far quotes, among them one past the implied-vol bracket's float range;
- tenor 3 on a quarterly ladder, and the fixture at tenor 3 (rejected);
- compare at tenors 1 and 3;
- pipeline-batch (perfbench/scenarios.py): seeds 1-2, passes 0-2, every slot;
- rejected inputs: a missing file and a zero-priced global ladder;
- reruns into one --out: bootstrap flat then global cubic mid; outliers
  report then off (the first run's outliers.csv stays); a full run then a
  --strict stop; compare at tenor 1 then at tenor 3.

A rerun is two commands into one --out. Its line digests the second
run's exit code, stdout and stderr, the warnings and results of both runs,
and the directory as the second run left it.

Runs happen in a temporary working directory with relative paths, so the
digests do not depend on where either tree is checked out.
"""

import argparse
import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
FIXTURES = ("libor1m_zero_curve.csv", "ois_zero_curve.csv", "cap_quotes.csv")
POSITIVITY = ("none", "nonneg", "exp", "floor=10")
QUARTERLY_MONTHS = (6, 12, 24, 36, 60, 84, 120, 180)
ZERO_PRICED = "maturity_months,flat_vol_bp\n12,0\n24,0\n36,1\n"
SEEDS, PASSES = (1, 2), (0, 1, 2)
SHORT_MAX_ITER = 40


def _market(quotes="data/cap_quotes.csv"):
    return [
        "--projection-curve", "data/libor1m_zero_curve.csv",
        "--discount-curve", "data/ois_zero_curve.csv",
        "--quotes", quotes,
    ]


def fixture_grid(families):
    """(name, CLI arguments) of every configuration on the fixture markets."""
    grid = []

    def run(name, *args, market=None):
        grid.append((name, ["run", *(market or _market()), *args]))

    for ladder, policy in (("raw", "report"), ("clean", "remove")):
        out = ("--outliers", policy)
        run(f"{ladder} tv", "--method", "tv", *out)
        for family in families:
            run(f"{ladder} bootstrap {family}", "--family", family, *out)
        run(f"{ladder} bootstrap flat mid", "--nodes", "mid", *out)
        run(f"{ladder} bootstrap linear mid", "--family", "linear", "--nodes", "mid", *out)
        for family in families:
            for nodes in ("maturity", "mid"):
                for positivity in POSITIVITY:
                    run(
                        f"{ladder} global {family} {nodes} {positivity}", "--method", "global",
                        "--family", family, "--nodes", nodes, "--positivity", positivity, *out,
                    )
    for strike in ("200", "-50"):
        run(f"strike {strike} tv", "--method", "tv", "--strike-bp", strike)
        for family in families:
            run(f"strike {strike} bootstrap {family}", "--family", family, "--strike-bp", strike)
            run(
                f"strike {strike} global {family} mid", "--method", "global", "--family", family,
                "--nodes", "mid", "--strike-bp", strike,
            )
    for policy in ("off", "report", "remove"):
        for method in ("tv", "bootstrap", "global"):
            for strict in ((), ("--strict",)):
                run(
                    f"outliers {policy} {method}{' strict' if strict else ''}", "--method", method,
                    "--family", "linear", "--nodes", "mid" if method == "global" else "maturity",
                    "--outliers", policy, *strict,
                )
    for far in ("240", "240:80", "600:80", "240:1e305", "12"):
        for method in ("tv", "bootstrap", "global"):
            nodes = "mid" if method == "global" else "maturity"
            run(
                f"far {far} {method}", "--method", method, "--family", "linear", "--nodes", nodes,
                "--far-quote", far, "--outliers", "remove",
            )
    quarterly = _market("data/quarterly.csv")
    for tenor in ("3", "1"):
        run(f"quarterly tenor {tenor} tv", "--method", "tv", "--tenor-months", tenor,
            market=quarterly)
        for family in families:
            run(f"quarterly tenor {tenor} bootstrap {family}", "--family", family,
                "--tenor-months", tenor, market=quarterly)
            run(f"quarterly tenor {tenor} global {family} mid", "--method", "global",
                "--family", family, "--nodes", "mid", "--tenor-months", tenor, market=quarterly)
    run("fixture tenor 3", "--tenor-months", "3")
    for name, market, tenor in (
        ("raw", _market(), "1"),
        ("quarterly", quarterly, "3"),
        ("quarterly", quarterly, "1"),
    ):
        args = ["compare", *market, "--tenor-months", tenor]
        grid.append((f"compare {name} tenor {tenor}", args))
    run("missing quotes", market=_market("data/missing.csv"))
    run("zero-priced global", "--method", "global", "--strike-bp", "1000",
        market=_market("data/zero_priced.csv"))
    return grid


def rerun_grid():
    """(name, CLI arguments, earlier CLI arguments) of runs made twice into one --out."""
    raw = ["run", *_market()]
    compare = ["compare", *_market(), "--tenor-months", "1"]
    quarterly_compare = ["compare", *_market("data/quarterly.csv"), "--tenor-months", "3"]
    return [
        ("rerun bootstrap flat, global cubic mid",
         [*raw, "--method", "global", "--family", "cubic", "--nodes", "mid"],
         [*raw, "--family", "flat"]),
        ("rerun outliers report, off", [*raw, "--outliers", "off"], [*raw, "--outliers", "report"]),
        ("rerun full, strict stop", [*raw, "--outliers", "off", "--strict"], raw),
        ("rerun compare tenor 1, tenor 3", quarterly_compare, compare),
    ]


def batch_grid(scenarios):
    """(name, CLI arguments) of every pipeline-batch slot, seed and pass."""
    grid = []
    for seed in SEEDS:
        for pass_index in PASSES:
            for slot_index, slot in enumerate(scenarios.SLOTS):
                name = f"batch seed {seed} pass {pass_index} slot {slot_index}"
                scenario = scenarios.generate(
                    seed, slot_index, pass_index, f"batch/{seed}-{pass_index}-{slot_index}"
                )
                positivity = slot.positivity
                if positivity == "floor":
                    positivity = f"floor={slot.floor_bp!r}"
                args = [
                    "run",
                    "--projection-curve", str(scenario.projection_path),
                    "--discount-curve", str(scenario.discount_path),
                    "--quotes", str(scenario.quotes_path),
                    "--strike-bp", repr(slot.strike_bp),
                    "--tenor-months", str(slot.tenor_months),
                    "--curve-interp", slot.curve_interp,
                    "--method", slot.method, "--family", slot.family, "--nodes", slot.nodes,
                    "--positivity", positivity,
                ]
                if slot.far_quote_months:
                    args += ["--far-quote", str(slot.far_quote_months)]
                grid.append((name, args))
    return grid


def _field_bytes(value):
    """A StripResult field as bytes that differ whenever its bits do."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def _result_digest(result):
    digest = hashlib.sha256()
    for field in dataclasses.fields(result):
        digest.update(field.name.encode() + b"=")
        digest.update(_field_bytes(getattr(result, field.name)) + b";")
    return digest.hexdigest()


class ResultLog:
    """Wraps the CLI's engine names so that each call is digested as made
    (max_iter 200) and again at SHORT_MAX_ITER; the run gets the first."""

    def __init__(self, cli):
        self.digests = []
        for name in ("strip_time_value", "bootstrap_sequential", "strip_global"):
            setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, engine):
        def logged(schedule, quotes, config):
            try:
                result = engine(schedule, quotes, config)
            except Exception as exc:
                self.digests.append(f"{type(exc).__name__}: {exc}")
                raise
            short = engine(schedule, quotes, dataclasses.replace(config, max_iter=SHORT_MAX_ITER))
            self.digests += [_result_digest(result), _result_digest(short)]
            return result

        return logged


def _short(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run_grid(cli, grid):
    from click.testing import CliRunner

    log = ResultLog(cli)
    runner = CliRunner()
    files = results = 0
    for index, (name, args, *earlier) in enumerate(grid):
        out = Path(f"out/{index}")
        log.digests.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for run_args in (*earlier, args):
                outcome = runner.invoke(cli.main, [*run_args, "--out", str(out)])
        written = sorted(out.rglob("*")) if out.exists() else []
        artifacts = hashlib.sha256()
        for path in written:
            artifacts.update(str(path.relative_to(out)).encode() + b"\0")
            artifacts.update(path.read_bytes() + b"\0")
        shown = "\n".join(f"{w.category.__name__}: {w.message}" for w in caught)
        print(
            f"{name} | exit {outcome.exit_code}"
            f" | stdout {_short(outcome.stdout.encode())}"
            f" | stderr {_short(outcome.stderr.encode())}"
            f" | warnings {len(caught)} {_short(shown.encode())}"
            f" | files {len(written)} {artifacts.hexdigest()[:16]}"
            f" | results {len(log.digests)} {_short(' '.join(log.digests).encode())}"
        )
        files += len(written)
        results += len(log.digests)
        shutil.rmtree(out, ignore_errors=True)
    print(f"# {len(grid)} configurations, {files} artifacts, {results} results")


def differences(lines, other_lines):
    """(name, line, other line) of every configuration whose digest line
    differs between two outputs, in the order the configurations first
    appear; a side that lacks the configuration reads None. Count lines
    (starting '#') are no configuration and are left out."""
    by_name, other_by_name = (
        {line.split(" | ", 1)[0]: line for line in output if not line.startswith("#")}
        for output in (lines, other_lines)
    )
    names = list(by_name) + [name for name in other_by_name if name not in by_name]
    return [
        (name, by_name.get(name), other_by_name.get(name))
        for name in names
        if by_name.get(name) != other_by_name.get(name)
    ]


def comparison(labels, outputs):
    """(report lines, exit status) for two trees' digest lines, each ending
    in its count line: each configuration that differs with both lines,
    each tree's count line, and a verdict; the status is 1 on any
    difference, else 0."""
    found = differences(*outputs)
    report = []
    for name, *sides in found:
        report.append(name)
        report += [f"  {label}: {line or '(missing)'}" for label, line in zip(labels, sides)]
    report += [f"{label}: {output[-1]}" for label, output in zip(labels, outputs)]
    report.append(f"configurations that differ: {len(found)}" if found else "identical")
    return report, int(bool(found))


def _digest_lines(src):
    """The digest lines of one tree, from a run of this tool in a fresh interpreter."""
    run = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(src)],
        capture_output=True, text=True, check=False,
    )
    if run.returncode:
        raise SystemExit(f"digests of {src} exited {run.returncode}:\n{run.stderr}")
    return run.stdout.splitlines()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import capstrip from")
    parser.add_argument(
        "other", type=Path, nargs="?",
        help="a second src/ directory: print the configurations whose lines differ",
    )
    args = parser.parse_args(argv)
    if args.other is not None:
        labels = [str(args.src), str(args.other)]
        report, status = comparison(labels, [_digest_lines(src) for src in (args.src, args.other)])
        print("\n".join(report))
        raise SystemExit(status)
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(REPO / "perfbench")]
    import capstrip
    import scenarios
    from capstrip import cli

    if not Path(capstrip.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"capstrip was imported from {capstrip.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        Path("data").mkdir()
        for name in FIXTURES:
            shutil.copyfile(REPO / "tests" / "data" / name, Path("data") / name)
        vols = np.linspace(70.0, 95.0, len(QUARTERLY_MONTHS))
        Path("data/quarterly.csv").write_text(
            "maturity_months,flat_vol_bp\n"
            + "".join(f"{m},{float(v)!r}\n" for m, v in zip(QUARTERLY_MONTHS, vols))
        )
        Path("data/zero_priced.csv").write_text(ZERO_PRICED)
        grid = fixture_grid(capstrip.FAMILIES) + batch_grid(scenarios) + rerun_grid()
        run_grid(cli, grid)
        os.chdir(REPO)


if __name__ == "__main__":
    main()
