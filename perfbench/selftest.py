#!/usr/bin/env python3
"""Self-tests of the explorer benchmark.

    python3 perfbench/selftest.py

1. A reduced smoke of every workload (one set-up, --seconds 0, a short
   runtime probe) with --trace 0 and --trace 1: the run is correct, and the
   metrics are exactly BENCHMARK.json's end_to_end (resp. per_layer) names,
   each with its unit.
   The same smoke with --unpinned (the kernel's CPU placement) on
   mutant-refutation is correct too.
2. A wrong recorded counter (--inject-miscount) is counted as a failure:
   correct is false, failed > 0, the exit code is non-zero and no rate is
   reported.
3. Two seeds of each family pick different systems (by their names, which
   carry their parameters) within the workload's size band (covered
   schedules within 10% of seed 0's).

Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("mutant-refutation", "skewed-iterative", "lease-prefix", "refute")
SIZE_BAND = 0.10

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def expected_metrics(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the four workloads")

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(["--workload", workload, "--seed", "0",
                                "--seconds", "0", "--trace", str(trace),
                                "--smoke"])
            label = "%s --trace %d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  label + ": correct, nothing failed")
            got = {name: m["unit"]
                   for name, m in (result or {}).get("metrics", {}).items()}
            check(got == expected_metrics(spec, key),
                  label + ": every " + key + " metric, with its unit")

    code, result = run(["--workload", "mutant-refutation", "--seed", "0",
                        "--seconds", "0", "--trace", "0", "--smoke",
                        "--unpinned"])
    check(code == 0 and result is not None and result["correct"],
          "mutant-refutation --unpinned: correct")

    code, result = run(["--workload", "mutant-refutation", "--seed", "0",
                        "--seconds", "0", "--trace", "0", "--smoke",
                        "--inject-miscount"])
    metrics = (result or {}).get("metrics", {})
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0
          and metrics.get("covered_schedules_per_s", {}).get("value") == 0,
          "a wrong recorded counter counts as a failure, not a rate")

    for workload in WORKLOADS:
        described = []
        for seed in ("0", "1"):
            code, result = run(["--describe", "--workload", workload,
                                "--seed", seed])
            described.append(result if code == 0 else None)
        a, b = described
        check(a is not None and b is not None
              and a["systems"] != b["systems"]
              and abs(b["covered"] - a["covered"])
              <= SIZE_BAND * a["covered"],
              workload + ": seeds 0 and 1 pick different systems within "
              "the size band")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
