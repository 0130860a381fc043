#!/usr/bin/env python3
"""Builds matbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload compile|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build (CMake, RelWithDebInfo) and every
file a run writes -- artifact caches, cc temporaries, Chrome traces -- live
under .bench_build/ in the checkout. The last line of standard output is
the result object; build logs and diagnostics go to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170

# What the build needs from the repository besides perfbench/ itself.
REQUIRED = ["src/CMakeLists.txt", "bench/programs/Programs.cpp",
            "src/codegen/mcrt/mcrt.c"]

# Settings that would change what the program under test does.
SCRUBBED_ENV = ["MATCOAL_FAULT", "MATCOAL_THREADS", "MATCOAL_CACHE_DIR",
                "MATCOAL_MCRT_DIR"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("not a matcoal checkout (missing %s)" % ", ".join(missing))
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      CMAKE_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  "matbench", "matcoald"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["compile", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    tmp = os.path.join(BUILD, "tmp")
    work = os.path.join(BUILD, "work")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = tmp  # cc's temporaries stay inside the checkout.
    cmd = [os.path.join(CMAKE_DIR, "matbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    # A session of its own, so a timeout can stop the daemon and any cc
    # the benchmark started along with it.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("matbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
