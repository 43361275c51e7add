#!/usr/bin/env python3
"""Builds the COkNN benchmark program from this checkout and runs one workload.

    python3 coknn_bench/run.py --workload <route_cl|fleet_ticks|graze> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The first run configures and builds a
Release program (the repository's src/ layers plus coknn_bench/src) under
$CARGO_TARGET_DIR/coknn_bench, or .bench_build/coknn_bench when the variable
is unset; later runs only re-check the build.  Build output goes to stderr,
so the last line on stdout is the program's JSON result.  Trace files go to
.bench_out/.  Exits non-zero, without a result, when the checkout's sources
are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
JOBS = "4"


def fail(message, detail=""):
    if detail:
        sys.stderr.write(detail)
    sys.stderr.write("coknn_bench: %s\n" % message)
    sys.exit(1)


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail("command failed: %s" % " ".join(cmd), proc.stdout)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt beside %s: run from a full checkout"
             % BENCH_DIR)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "coknn_bench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", build_dir, "--target", "coknn_bench",
               "-j", JOBS])
    return os.path.join(build_dir, "coknn_bench")


def main():
    binary = build()
    sys.stdout.flush()
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
