"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For every workload: the same seed gives the same request list and another
seed a different one; the first few requests are served with tracing off and
on, every answer is correct, and the result line carries exactly the metrics
BENCHMARK.json names, each with its unit.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run
import workloads

TINY = 3  # requests served per workload


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if not {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS):
        raise AssertionError("BENCHMARK.json names a workload workloads.py does not have")

    for name in workloads.WORKLOADS:
        seconds = bench["run_seconds"]
        plan = workloads.build_plan(name, 1, seconds, run.PASSES)
        if plan.requests != workloads.build_plan(name, 1, seconds, run.PASSES).requests:
            raise AssertionError(f"{name}: seed 1 gave two different request lists")
        if plan.requests == workloads.build_plan(name, 2, seconds, run.PASSES).requests:
            raise AssertionError(f"{name}: seeds 1 and 2 gave the same request list")
        tiny = dataclasses.replace(plan, blocks=[block[:TINY] for block in plan.blocks])
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.measure(tiny, bool(trace))
            if code != 0:
                raise AssertionError(f"{name} trace={trace}: exit code {code}")
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            served = TINY * (2 if trace else run.PASSES)  # traced: plain + traced pass
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] == served):
                raise AssertionError(f"{name} trace={trace}: {out.getvalue()[-3000:]}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != units[trace]:
                raise AssertionError(f"{name} trace={trace}: metrics {sorted(printed.items())} "
                                     f"!= BENCHMARK.json {sorted(units[trace].items())}")
            print(f"ok {name} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
