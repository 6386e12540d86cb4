"""Benchmark capstrip on one workload and print its metrics.

    python3 perfbench/run.py --workload clean-grid --seed 1 --seconds 38 --trace 0

Workloads are `clean-grid`, `raw-compare` and `pipeline-batch` (see
README.md). One caller runs each workload's fixed list of operations in
a closed loop, pass after pass, until --seconds have gone by; every
output is checked against the benchmark's reference computations.

With --trace 0 the end-to-end metrics are printed: `setup_s`, the median
time of COLD_STARTS fresh interpreters that import capstrip and set the
workload up; `pass_s`, the sum over operations of each one's median time
in the run; `peak_rss_mb`, the process's peak resident memory. Both
times are scaled to a fixed machine speed: `calibrate` times a fixed
loop once per pass (and around the cold starts), and each time is
multiplied by CALIBRATION_S over that loop's median in the run (see
README.md for why). With --trace 1 the run is split in two halves,
untraced then traced, and the per-layer metrics of spans.py are
printed, with the tracing overhead. The last line of output is one
JSON object.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
COLD_STARTS = 3
# Median time of `calibrate` over six minutes on the machine README.md's
# figures come from: reported times are scaled to that speed.
CALIBRATION_S = 0.00427
_CALIBRATION_X = np.linspace(0.001, 0.03, 179)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate():
    """Time a fixed mix of small numpy pricing and interpreted Python, like capstrip's."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(100):
        reference.caplet_prices(_CALIBRATION_X, 0.01, 100 * _CALIBRATION_X, 0.083, 0.97, _CALIBRATION_X)
        for i in range(300):
            total += i * 0.5
    return time.perf_counter() - start


@dataclass
class Measurement:
    timings: dict = field(default_factory=lambda: defaultdict(list))
    calibration: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    @property
    def speed(self):
        """How much faster than the calibration machine this run went."""
        return CALIBRATION_S / statistics.median(self.calibration)

    @property
    def pass_s(self):
        return sum(statistics.median(times) for times in self.timings.values()) * self.speed


def measure(workload, seconds, tracer=None):
    """Run whole passes until `seconds` have gone by; time and check each operation."""
    result = Measurement()
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while pass_index == 0 or time.perf_counter() < deadline:
        operations = workload.operations(pass_index)
        result.calibration.append(calibrate())
        for op in operations:
            result.attempted += 1
            try:
                if tracer is None:
                    start = time.perf_counter()
                    output = op.run()
                    elapsed = time.perf_counter() - start
                else:
                    with tracer.recording(pass_index):
                        start = time.perf_counter()
                        output = op.run()
                        elapsed = time.perf_counter() - start
            except Exception:
                result.failed += 1
                print(f"{op.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            result.timings[op.name].append(elapsed)
            try:
                op.check(output)
            except workloads.CheckFailed as exc:
                result.failed += 1
                result.wrong += 1
                print(f"{op.name}: check failed: {exc}", file=sys.stderr)
        pass_index += 1
    return result


def cold_setup_seconds(workload, seed, workdir):
    """Wall times of fresh interpreters that only set the workload up, and
    calibration times taken around them."""
    times = []
    calibration = [calibrate() for _ in range(5)]
    for start_index in range(COLD_STARTS):
        command = [
            sys.executable,
            str(HERE / "setup_once.py"),
            workload,
            str(seed),
            str(workdir / f"cold{start_index}"),
        ]
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        calibration.extend(calibrate() for _ in range(5))
    return times, calibration


def end_to_end(args, workdir):
    setup_times, setup_calibration = cold_setup_seconds(args.workload, args.seed, workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
    run = measure(workload, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = max(len(times) for times in run.timings.values())
    print(f"{args.workload}: {passes} passes, {len(run.timings)} operations per pass")
    for name, times in run.timings.items():
        print(f"  {name:<34} lowest {min(times):.6f} s  median {statistics.median(times):.6f} s")
    print(f"  calibration median {statistics.median(run.calibration) * 1e3:.3f} ms, speed {run.speed:.3f}")
    setup_speed = CALIBRATION_S / statistics.median(setup_calibration)
    print(f"  set-up runs: {' '.join(f'{t:.3f}' for t in setup_times)} s, speed {setup_speed:.3f}")
    metrics = {
        "setup_s": {"value": statistics.median(setup_times) * setup_speed, "unit": "s"},
        "pass_s": {"value": run.pass_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return run, metrics


def traced(args, workdir):
    tracer = spans.Tracer()
    capstrip = workloads.import_program()
    with tracer.installed(capstrip), tracer.recording(-1):
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
    plain = measure(workload, args.seconds / 2)
    with tracer.installed(capstrip):
        timed = measure(workload, args.seconds / 2, tracer)
    metrics = spans.layer_metrics(tracer, lambda values: statistics.median(values) * timed.speed)
    metrics[spans.OVERHEAD] = {"value": timed.pass_s - plain.pass_s, "unit": "s"}
    path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    run = Measurement(
        attempted=plain.attempted + timed.attempted,
        failed=plain.failed + timed.failed,
        wrong=plain.wrong + timed.wrong,
    )
    return run, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "capstrip" / "__init__.py").is_file():
        print(f"error: no capstrip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run, metrics = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {run.attempted}, failed {run.failed}")
    summary = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
