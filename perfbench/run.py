#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <train|decode|simulate> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). A traced run also writes its spans as a Chrome
trace to `<target>/traces/<workload>-seed<n>.json`. The last line of
standard output is the benchmark's JSON result; everything else goes to
standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def option(args, name):
    for flag, value in zip(args, args[1:]):
        if flag == name:
            return value
    return None


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(target, "release", "caraml-perfbench")] + args
    if option(args, "--trace") == "1":
        traces = os.path.join(target, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload"), option(args, "--seed"))
        command += ["--trace-out", os.path.join(traces, name)]
    try:
        ran = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: benchmark timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
