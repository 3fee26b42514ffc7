#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The Go program is built into .bench_build/ (with its build cache there
too), run from the repository root, and its standard output passed
through: the last line is the JSON result. A traced run (--trace 1) also
writes its spans to .bench_build/traces/<workload>-seed<seed>.jsonl.
Everything the benchmark writes stays inside the repository checkout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run may take at most 180 s; the program stops starting repetitions
# well before this, so hitting it means the system under test hung.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps its telemetry counters under the user
        # config directory; point that into the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isfile(os.path.join(ROOT, "vortex.go")):
        print("perfbench: the Vortex sources are not next to perfbench/; run from a repository checkout",
              file=sys.stderr)
        return 2

    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
