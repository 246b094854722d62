#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny spans, every workload, both modes.

    python3 perfbench/smoke_test.py

Checks that each run exits 0 with a correct result, that the JSON line
names exactly the metrics BENCHMARK.json declares for its mode, with the
declared units, and that the simulated-results fingerprint is the same
for the untraced (--trace 0) and traced (--trace 1) runs of a seed, at
the default seed and at the held-out seed. Takes about a minute.
"""

import json
import os
import re
import subprocess
import sys

import run

SEEDS = [1, 7]  # the default seed and the held-out seed
SCALE = "0.05"


def bench(workload, seed, trace):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("FAIL %s: exit %d\n%s%s" % (" ".join(cmd), out.returncode,
                                             out.stdout, out.stderr))
    fp = re.search(r"^# fingerprint ([0-9a-f]+)", out.stdout, re.M)
    return json.loads(lines[-1]), fp.group(1) if fp else None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    run.build()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in SEEDS:
            fps = {}
            for trace in (0, 1):
                result, fps[trace] = bench(workload, seed, trace)
                where = "%s seed %d trace %d" % (workload, seed, trace)
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    failures.append(where + ": unexpected result keys")
                if result["correct"] is not True or result["failed"] != 0:
                    failures.append(where + ": not correct")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != declared[trace]:
                    failures.append(where + ": metrics differ from BENCHMARK.json")
            if fps[0] is None or fps[0] != fps[1]:
                failures.append("%s seed %d: fingerprints differ across modes: %s"
                                % (workload, seed, fps))
            print("%s seed %d: fingerprint %s" % (workload, seed, fps[0]), flush=True)
    for f in failures:
        print("FAIL " + f)
    print("smoke test " + ("failed" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
