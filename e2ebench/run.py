#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload ttl_churn --seed 1 --seconds 20 --trace 0

Run from the repository root. The engine is compiled from ./src by
e2ebench/CMakeLists.txt into .bench_build/e2ebench, always as a Release
build; the first run builds it, later runs only check that it is up to
date. Build output goes to standard error.

Standard output ends with the benchmark's result line (one JSON object:
correct, attempted, failed, metrics). The lines before it are the run's
record: "e2ebench-meta" (compiler, build type, CPU count, commit, source
hash, seed) and "e2ebench-detail" (per-class latencies and counts). Each
run's record and result are also appended to .bench_build/runs.jsonl, the
input of compare.py. With --trace 1 the Chrome-trace file is written to
.bench_build/traces/.

--perturb row|tick leaves a one-row or one-tick error in the checker's
model, so the run must report correct: false and exit non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sql", "session.cc")):
        log("engine sources not found under " + os.path.join(ROOT, "src"))
        return False
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode == 0


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_hash():
    """SHA-256 over the engine and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def meta(args):
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = "unknown"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "compiler": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "cpus": os.cpu_count(), "commit": commit(), "source_hash": source_hash(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["ttl_churn", "view_dashboard", "wide_plans"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--perturb", choices=["row", "tick"])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            OUT_DIR, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result (exit code %d)" % run.returncode)
        return 1
    detail = {}
    for line in lines[:-1]:
        if line.startswith("e2ebench-detail "):
            detail = json.loads(line[len("e2ebench-detail "):])
    record = meta(args)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"meta": record, "detail": detail,
                            "result": result}) + "\n")
    print("e2ebench-meta " + json.dumps(record))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
