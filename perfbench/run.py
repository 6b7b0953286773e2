#!/usr/bin/env python3
"""Builds the explorer benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed on to the explorer_bench binary (see main.cc for
the flags and README.md for the workloads and metrics).  The binary is
configured with CMake from perfbench/CMakeLists.txt, which compiles the
repository's src/ libraries, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the repository root; later runs rebuild
incrementally.  Build output goes to stderr, so the last line of stdout is
the binary's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures (once) and builds explorer_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources beside perfbench/ "
                 "(src/CMakeLists.txt is missing)")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "explorer_bench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(bdir, "explorer_bench")


def main(argv):
    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, *argv]
    if "--out-dir" not in argv:
        cmd += ["--out-dir", os.path.join(bdir, "out")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
