#!/usr/bin/env python3
"""Smoke self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs a short pass of every workload listed in BENCHMARK.json, untraced and
traced, and checks that each run is correct and emits exactly the metrics
BENCHMARK.json names, each with its unit.  Then reruns every workload with
a deliberately corrupted output (--corrupt) and checks that the
correctness check catches it.  Exits 0 when every check holds.
"""
import json
import os
import sys

import run

SECONDS = 1


def expect_metrics(result, specs, label, problems):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                        "missing or unexpected")
    for name, unit in want.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or
                              not isinstance(m.get("value"), (int, float))):
            problems.append(f"{label}: {name} = {m}, want unit {unit}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{w} --trace {trace}"
            code, out = run.run(w, 7, SECONDS, trace)
            result = run.result_of(out)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: reported incorrect")
            expect_metrics(result, metrics, label, problems)
            print(f"ok   {label}", flush=True)
        code, out = run.run(w, 7, SECONDS, 0, corrupt=True)
        result = run.result_of(out)
        if code != 0 or result is None or result["correct"]:
            problems.append(f"{w} --corrupt: corruption not caught")
        else:
            print(f"ok   {w} --corrupt is caught", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
