#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--repeat <k>]

The benchmark program (perfbench/src) and the iokc libraries it measures
are compiled in an optimised, sanitizer-free configuration under the build
directory named by CARGO_TARGET_DIR (default .bench_build), without touching
the repository's own build files. The first run builds; later runs rebuild
only what changed.

A single run passes the program's output through: its last stdout line is
the JSON result. --repeat K runs the workload K times on seeds
seed..seed+K-1 and prints each metric's median and quartiles, which is how
the bounds in BENCHMARK.json were set.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build_dir():
    return os.path.join(build_root(), "perfbench")


def build():
    """Configures and builds the benchmark program; returns its path."""
    out = build_dir()
    binary = os.path.join(out, "iokc-perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            sys.exit(2)
    return binary


def source_digest():
    """sha256 over the measured sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    return "none-sources-" + source_digest()


def run_once(binary, args, seed, sha, echo):
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", sha, "--work-dir",
               os.path.join(build_root(), "work")]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def repeat(binary, args, sha):
    values = {}
    units = {}
    failed_shares = set()
    for k in range(args.repeat):
        code, result = run_once(binary, args, args.seed + k, sha, echo=False)
        if code != 0 or result is None:
            log(f"run {k} (seed {args.seed + k}) failed with code {code}")
            return code or 1
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        log(f"run {k} (seed {args.seed + k}) done")
    summary = {}
    print(f"{'metric':36} {'unit':6} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'iqr/med':>8}")
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36} {units[name]:6} {q1:12.6g} {med:12.6g} "
              f"{q3:12.6g} {spread:8.4f}")
        summary[name] = {"q1": q1, "median": med, "q3": q3,
                         "iqr_over_median": spread, "values": series}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed_shares": sorted(failed_shares),
                      "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    binary = build()
    sha = git_sha()
    if args.repeat > 0:
        return repeat(binary, args, sha)
    code, _ = run_once(binary, args, args.seed, sha, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
