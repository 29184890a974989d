#!/usr/bin/env python3
"""Builds the psmd benchmark and runs one workload in its own process.

Run from the repository root:

    python3 benchsuite/run.py --workload eval-deep --seed 1 --seconds 10 --trace 0

The benchmark is a cargo package of its own (benchsuite/Cargo.toml) that
depends on the repository's crates by path.  It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build).  The run's standard output
ends with one JSON line holding `correct`, `attempted`, `failed` and
`metrics`; build output goes to standard error.  Traced runs write their
spans to $CARGO_TARGET_DIR/benchsuite-traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["eval-deep", "eval-batch", "track-ladder", "serve-coalesce"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def probe(cmd, cwd, env=None):
    """Output of a short command, or "none" when it fails."""
    try:
        out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    env = os.environ.copy()
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1

    # Stop git from finding a repository above the checkout.
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    env["PSMDBENCH_RUSTC"] = probe(["rustc", "--version"], root)
    env["PSMDBENCH_GIT_SHA"] = probe(["git", "rev-parse", "HEAD"], root, git_env)
    env["PSMDBENCH_TRACE_DIR"] = os.path.join(target, "benchsuite-traces")
    binary = os.path.join(target, "release", "psmd-benchsuite")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"error: the run exited with {run.returncode}", file=sys.stderr)
        return run.returncode
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print("error: the run printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
