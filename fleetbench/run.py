#!/usr/bin/env python3
"""Builds and runs the fleet benchmark.

    python3 fleetbench/run.py --workload cou-30hz --seed 1 --seconds 30 --trace 0

Run from the root of a tickpoint checkout. The harness and the tickpoint
library are compiled from source into $CARGO_TARGET_DIR/fleetbench
(default .bench_build/fleetbench) on every call; an up-to-date build is a
no-op. The fleet under test lives in a fresh directory inside that build
directory and is removed on every exit path. Build output goes to stderr,
so the last line of stdout is the harness's JSON result.

Exit codes: the harness's own code, 2 when the checkout holds no tickpoint
sources, 3 when the build fails, 124 when the run exceeds its time limit.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"fleetbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "fleetbench")


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "fleetbench")


def git_sha():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none (git unavailable)"
    return res.stdout.strip() if res.returncode == 0 else "none (not a git checkout)"


def src_digest():
    """sha256 over the library sources, identifying the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--ticks", type=int, default=0,
                        help="run exactly N timed ticks (smoke runs)")
    parser.add_argument("--setups", type=int, default=5)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "fleet.h")):
        log(f"no tickpoint sources under {ROOT}/src; nothing to build")
        return 2
    binary = build()
    if binary is None or not os.path.isfile(binary):
        log("build failed")
        return 3

    work = os.path.join(build_dir(), "run")
    os.makedirs(work, exist_ok=True)
    fleet_root = os.path.join(work, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(fleet_root, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--ticks", str(args.ticks), "--setups", str(args.setups),
           "--root", fleet_root, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    if args.trace == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]

    # SIGTERM/SIGINT unwind through the finally below, which stops the
    # harness and removes the fleet root.
    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(fleet_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
