#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

    python3 perfbench/run.py --workload paper-figures --seed 1 \
        --seconds 30 --trace 0

The driver and the repository libraries are built (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench at the repository
root when that is unset. Build output goes to stderr. The driver's last
line of stdout, one JSON object, is checked against BENCHMARK.json
before it is printed. A traced run (--trace 1) writes its Chrome trace
to <build dir>/traces/. `--selftest` builds and runs the benchmark's
own tests instead.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_child = None


def _stop_child(signum, _frame):
    """Stop the running child before exiting on a signal."""
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def _run(cmd, **kwargs):
    """Run @cmd to completion; returns its exit code."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        return _child.wait()
    finally:
        _child = None


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if _run(["cmake", "-S", HERE, "-B", bdir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr) != 0:
        return False
    return _run(["cmake", "--build", bdir, "-j", jobs, "--target",
                 target], stdout=sys.stderr) == 0


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, expected):
    """True when @line is the result object with @expected metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if result["attempted"] < 1:
        return False
    return list(result["metrics"]) == expected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    bdir = build_dir()

    if args.selftest:
        if not build(bdir, "perfbench_tests"):
            return 1
        return _run([os.path.join(bdir, "perfbench_tests")])

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print("run.py: --workload must be one of " + ", ".join(names),
              file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in contract[section]]

    if not build(bdir, "perfbench"):
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests")]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    # Pass the driver's output through, holding back the last line
    # until it is known to be a well-formed result.
    global _child
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = None
    try:
        for line in _child.stdout:
            if last is not None:
                sys.stdout.write(last)
            last = line
        code = _child.wait()
    finally:
        _child = None
    if code != 0 or last is None:
        print("run.py: driver exited with %d" % code, file=sys.stderr)
        return 1
    if not check_result(last, expected):
        print("run.py: malformed result line: " + last.strip(),
              file=sys.stderr)
        return 1
    sys.stdout.write(last)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
