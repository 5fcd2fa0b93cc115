#!/usr/bin/env python3
"""Runs one workload of the HetPipe benchmark and prints its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <schedule-sweep|vw-scale|elastic> \
        --seed <n> --seconds <s> --trace <0|1>

The script builds the benchmark binary (`perfbench/Cargo.toml`, into
`$CARGO_TARGET_DIR`, default `.bench_build`) and then starts workload
processes one after another, never two at once:

- with `--trace 0`, SETUP_SAMPLES[workload] - 1 processes that only perform the
  cold set-up, then one process that performs the set-up and the timed
  phase. The planner's refine memo is process-global, so every cold
  set-up sample needs a fresh process. `setup_s` is the median of all
  the set-up samples.
- with `--trace 1`, one traced process, which reports the per-layer
  metrics and writes its spans under `.perfbench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("schedule-sweep", "vw-scale", "elastic")

# Cold set-ups per untraced run, each in a fresh process: enough that
# the median set-up time is steady.
SETUP_SAMPLES = {"schedule-sweep": 5, "vw-scale": 15, "elastic": 31}

# Every workload process runs pinned to one CPU. The elastic runtime
# hands each replan to a plan-service worker thread and waits for the
# reply, and the planner fans its order search out to helper threads;
# when those threads sit on another virtual CPU, every handoff waits
# for that CPU to wake, which costs a widely varying time on a virtual
# machine. Pinned, a handoff is a context switch, and the calibration
# kernel samples the CPU that does all the work.

# Wall-clock budget of one invocation, build excluded.
BUDGET_SECONDS = 170


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def seconds_arg(text):
    value = non_negative_int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError(f"{text!r} is not in 1..60")
    return value


def trace_arg(text):
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"{text!r} must be 0 or 1")
    return text == "1"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(manifest, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if result.returncode != 0:
        fail(f"build failed (exit {result.returncode})")
    exe = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def run_workload(exe, args, extra, deadline):
    """Runs one workload process to completion; returns (lines, record)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0", *extra]
    timeout = max(1.0, deadline - time.monotonic())
    cpu = min(os.sched_getaffinity(0))
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                text=True, timeout=timeout,
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail(f"workload process exceeded the {BUDGET_SECONDS} s budget")
    lines = result.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"workload process exited {result.returncode} without a result")
    if result.returncode not in (0, 1):
        fail(f"workload process exited {result.returncode}")
    return lines[:-1], record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", required=True, type=trace_arg)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = os.path.abspath(build(os.path.join(here, "Cargo.toml"), target_dir))
    deadline = time.monotonic() + BUDGET_SECONDS

    setups = []
    attempted = failed = 0
    if not args.trace:
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            _, record = run_workload(exe, args, ["--phase", "setup"], deadline)
            setups.append(record["setup_s"])
            attempted += record["attempted"]
            failed += record["failed"]

    lines, record = run_workload(exe, args, [], deadline)
    if "metrics" not in record:
        fail("the workload failed during its set-up")
    print(f"# host CPUs: {os.cpu_count()}; each workload process is pinned to one of them")
    for line in lines:
        print(line)
    setups.append(record["setup_s"])
    attempted += record["attempted"]
    failed += record["failed"]

    metrics = record["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        print(f"# samples: setup_s {len(setups)} processes")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} has no value")

    correct = failed == 0 and record["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
