#!/usr/bin/env python3
"""Build catmark and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload distribute --seed 1 --seconds 30 --trace 0

Run from the root of a catmark checkout. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`). The last line of stdout is the JSON result.
Exits non-zero, printing no result, when the build or the run fails or
the run outlives its time limit; the whole process group is killed then.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds; set-up, shutdown and the traced replay
# come on top. Past this the run is killed and reported as failed.
RUN_LIMIT_S = 175


def build(target_dir):
    cmds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "catmark"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in cmds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--catmark", os.path.join(release, "catmark"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run killed after %d s" % RUN_LIMIT_S)
    finally:
        # The benchmark reaps its own children; this catches any left
        # behind by a crash.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out.decode())
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
