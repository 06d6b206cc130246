#!/usr/bin/env python3
"""Receive-path benchmark: frames per second through tcp::Host::input.

Run from the repository root:

    python3 rxbench/run.py --workload tpca_2k --seed 1 --seconds 20 --trace 0

Builds the library and the rxbench program from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, generates the workload's client
stream from the seed in one process, then measures it in another. The
last line of standard output is the result object; the line before it
carries provenance, the input fingerprint and sample counts. Pass
--holdout-seed N instead of --seed to draw traffic from a stream namespace
that no --seed value reaches. Metric meanings: rxbench/metric_map.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpca_2k", "tpca_2m", "churn_200k")
BUILD_TIMEOUT_S = 850
GENERATE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 110


def log(msg):
    print(f"rxbench: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the library and benchmark sources, path-ordered."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rxbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    seeds = parser.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--holdout-seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"library sources not found under {root}/src; "
            "run from the repository root")
        return 2

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "rxbench")
    os.makedirs(build_dir, exist_ok=True)
    if not build(root, build_dir):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "rxbench")

    if args.seed is not None:
        seed_args, tag = ["--seed", str(args.seed)], f"s{args.seed}"
    else:
        seed_args = ["--holdout-seed", str(args.holdout_seed)]
        tag = f"h{args.holdout_seed}"
    traffic = os.path.join(build_dir, f"traffic-{args.workload}-{tag}.bin")
    try:
        gen = subprocess.run(
            [binary, "generate", "--workload", args.workload, *seed_args,
             "--out", traffic],
            stdout=sys.stderr, stderr=sys.stderr, timeout=GENERATE_TIMEOUT_S)
        if gen.returncode != 0:
            log("traffic generation failed")
            return 1
        run = subprocess.run(
            [binary, "run", "--traffic", traffic,
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--commit", git_commit(root),
             "--source-digest", source_digest(root)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out")
        return 1
    finally:
        if os.path.exists(traffic):
            os.remove(traffic)
    if run.returncode != 0:
        log(f"measurement failed (exit {run.returncode})")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
