"""End-to-end benchmark of the entropy-engine batch CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload relation-compose --seed 1 \
        --seconds 40 --trace 0

The workload's inputs are generated from --seed into perfbench/_work/.  One
client runs one child at a time (a closed loop).  For --seconds, each round
times set-up, `entropy-engine validate` over the spec and every instance
file, then the fixed reference load in reference.py, then
`entropy-engine run <spec> --out <dir>`; each bundle is checked against the
planted answers.  The host's speed swings by up to 2x over minutes, so each
set-up and run time is divided by the reference time of its own round and
scaled to REF_NOMINAL_S, and every child runs pinned to one CPU.  Metrics
are medians of those scaled times over the rounds.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 traced and untraced runs alternate and it carries
the per-layer metrics instead.  The exit code is 0 only if every invocation
succeeded and passed its check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
import layers  # noqa: E402
import workloads  # noqa: E402

CLI = ["-m", "entropy_engine.cli"]
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120.0
# Scaled times read as seconds on a host where the reference load takes
# this long (about its time on the 2-vCPU VM the benchmark was built on).
REF_NOMINAL_S = 0.5


class Run:
    """One `run` invocation: wall time, peak RSS, the problems its bundle
    check found, and its spans file when it was traced."""

    def __init__(self, wall_s, rss_mb, problems, spans_path):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.problems = problems
        self.spans_path = spans_path
        self.traced = spans_path is not None


def spawn(args, log_path):
    """Run one child to completion.  Returns the wall time from spawn to
    exit, the child's own peak RSS in MB from wait4, and its exit code."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + args, env=env, cwd=ROOT,
            stdout=log, stderr=subprocess.STDOUT,
        )
        guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def validate_all(work):
    """Sum of `validate` wall times over the workload's files."""
    total = 0.0
    for path in work.files:
        wall, _rss, code = spawn(CLI + ["validate", path],
                                 os.path.join(work.work_dir, "validate.log"))
        if code != 0:
            raise RuntimeError("validate %s exited %d" % (path, code))
        total += wall
    return total


def reference(work):
    """Wall time of one run of the fixed reference load."""
    wall, _rss, code = spawn([os.path.join(HERE, "reference.py")],
                             os.path.join(work.work_dir, "reference.log"))
    if code != 0:
        raise RuntimeError("reference load exited %d" % code)
    return wall


def run_once(work, k, traced):
    out_dir = os.path.join(work.work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    cli_args = ["run", work.spec, "--out", out_dir]
    spans_path = None
    if traced:
        spans_path = os.path.join(work.work_dir, "spans_%d.json" % k)
        args = [os.path.join(HERE, "trace_child.py"), spans_path,
                "%s-%d" % (work.name, k)] + cli_args
    else:
        args = CLI + cli_args
    wall, rss_mb, code = spawn(args, os.path.join(work.work_dir, "run_%d.log" % k))
    problems = workloads.check(work.name, out_dir, work.answers, code)
    return Run(wall, rss_mb, problems, spans_path)


def measure(work, seconds, trace):
    """Rounds of set-up, the reference load and one run, back to back for
    `seconds`.

    Returns the set-up times, the reference times and the runs.  When
    tracing, traced and untraced runs alternate and neither set-up nor the
    reference is timed; the untraced runs alone are the end-to-end sample.
    """
    setups, refs, runs = [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(runs) < MIN_RUNS or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        if not trace:
            setups.append(validate_all(work))
            refs.append(reference(work))
        runs.append(run_once(work, len(runs), trace and len(runs) % 2 == 0))
        last = time.perf_counter() - round_start
    return setups, refs, runs


def scaled(times, refs):
    """Median of times over the reference time of their round, in s at
    REF_NOMINAL_S."""
    return statistics.median(t / r for t, r in zip(times, refs)) * REF_NOMINAL_S


def median_metrics(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "entropy_engine", "cli.py")):
        print("no entropy_engine package under %s" % SRC, file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    work = workloads.generate(args.workload, args.seed, work_dir)

    # One CPU for the benchmark and every child, so that each run and the
    # reference load of its round meet the same core and its contention.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    validate_all(work)  # untimed: compiles bytecode, warms the file cache
    setups, refs, runs = measure(work, args.seconds, bool(args.trace))

    failed = [r for r in runs if r.problems]
    for r in failed[:5]:
        print("failed: %s" % "; ".join(r.problems[:3]))
    plain = [r for r in runs if not r.traced]
    wall = statistics.median(r.wall_s for r in plain)
    print("%s seed %d: %d runs (%d traced), %d set-ups, failed %d/%d" % (
        args.workload, args.seed, len(runs), len(runs) - len(plain),
        len(setups), len(failed), len(runs)))
    print("untraced run wall time: median %.4f s, mean %.4f s, n %d" % (
        wall, statistics.fmean(r.wall_s for r in plain), len(plain)))

    if args.trace:
        traced = [r for r in runs if r.traced and not r.problems]
        per_run = []
        for r in traced:
            with open(r.spans_path) as fh:
                per_run.append(layers.layer_metrics(json.load(fh)["spans"]))
        values = median_metrics(per_run) if per_run else {}
        traced_wall = statistics.median(r.wall_s for r in runs if r.traced)
        values["trace.overhead_frac"] = (traced_wall - wall) / wall
        units = layers.UNITS
    else:
        print("reference load: median %.4f s; set-up: median %.4f s" % (
            statistics.median(refs), statistics.median(setups)))
        values = {
            "run_s": scaled([r.wall_s for r in runs], refs),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
            "setup_s": scaled(setups, refs),
        }
        units = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    for name in units:
        if name in values:
            print("%-42s %14.6g %s" % (name, values[name], units[name]))
    result = {
        "correct": not failed and len(values) == len(units),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }
    with open(os.path.join(work_dir, "samples.json"), "w") as fh:
        json.dump({
            "setup_s": setups,
            "reference_s": refs,
            "runs": [{"wall_s": r.wall_s, "rss_mb": r.rss_mb,
                      "traced": r.traced, "problems": r.problems}
                     for r in runs],
        }, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
