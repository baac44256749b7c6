#!/usr/bin/env python3
"""Smoke self-test of the hostbench binary, on the tiny configuration.

    python3 hostbench/smoke_test.py <path to hostbench binary>

Run from the repository root (ctest does).  For every workload, untraced
and traced, it checks that every metric BENCHMARK.json names is printed
with its unit, that fail_ratio is 0 and that the replica cross-check
passed.  It also checks that a wrong stored model total fails the run
and that a bad request exits 2 without a result line.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(binary, *args):
    cmd = [binary, "--size", "tiny", "--seconds", "0.2",
           "--scn", os.path.join(HERE, "scenario.scn"),
           "--golden", os.path.join(HERE, "golden.tsv"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def parse(out):
    """(human metric lines, result JSON) of one run."""
    lines = out.strip().splitlines()
    human = {}
    for line in lines:
        parts = line.split("\t")
        if parts[0] == "metric":
            human[parts[1]] = (float(parts[2]), parts[3])
    return human, json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit("FAIL: " + what)


def main():
    binary = sys.argv[1]
    for workload in WORKLOADS:
        for trace, declared in (("0", SPEC["end_to_end"]),
                                ("1", SPEC["per_layer"])):
            tag = f"{workload} --trace {trace}"
            p = bench(binary, "--workload", workload, "--trace", trace)
            check(p.returncode == 0, f"{tag}: exit {p.returncode}\n{p.stderr}")
            human, result = parse(p.stdout)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: ops failed")
            names = {m["name"]: m["unit"] for m in declared}
            check(set(result["metrics"]) == set(names),
                  f"{tag}: metrics {sorted(result['metrics'])}")
            for name, unit in names.items():
                check(result["metrics"][name]["unit"] == unit,
                      f"{tag}: unit of {name}")
                check(human[name] == (result["metrics"][name]["value"], unit),
                      f"{tag}: {name} printed for people")
            if trace == "0":
                check(human["fail_ratio"] == (0.0, "ratio"),
                      f"{tag}: fail_ratio")
            else:
                check(human["replica.mismatched"][0] == 0,
                      f"{tag}: replica cross-check")
                check(result["metrics"]["replica.checked"]["value"] > 0,
                      f"{tag}: nothing cross-checked")
            print(f"ok {tag}")

    # The drift gate: a wrong stored total fails every op of that call.
    with tempfile.NamedTemporaryFile("w", suffix=".tsv") as bad:
        bad.write("sort_large.tiny\t0\t1\t2\t3\t0\t0\t0\t0\n")
        bad.flush()
        p = bench(binary, "--workload", "sort_large", "--golden", bad.name)
        check(p.returncode == 1, f"drift gate: exit {p.returncode}")
        _, result = parse(p.stdout)
        check(not result["correct"] and result["failed"] > 0,
              "drift gate: mismatch not counted")
    print("ok drift gate")

    p = bench(binary, "--workload", "no_such_workload")
    check(p.returncode == 2 and not p.stdout.strip().endswith("}"),
          "bad request must exit 2 without a result")
    print("ok bad request")


if __name__ == "__main__":
    main()
