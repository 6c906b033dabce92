"""chartab benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The request list is generated here from
the seed; worker processes (perfbench/worker.py) import chartab from `src`,
set up, and serve it, each pass in a fresh process.

Every time in the end-to-end metrics is put on the machine's current speed:
the worker runs a fixed calibration slice (calibrate.py) after every request,
and between each two set-up steps, and a time t is reported as
t x calibrate.REFERENCE_S / (the mean time of the slices just before and
just after it).  On a shared host whose speed drifts by up to 1.9x over
minutes, this keeps the figures of one program steady from run to run, while
a change to the program moves them as much as it moves the raw times; the
raw figures are printed on the informational lines.

--trace 0 serves the list in PASSES blocks, each in a fresh process; every
pass begins with the same warm-up request, whose outputs must agree.  The
latency percentiles are taken over every request of every pass, and
throughput is the requests of all passes over their summed latencies.
Set-up is timed in every pass and its median reported.  --trace 1 serves the
first block untraced and then traced; the two must produce byte-identical
outputs, and the result carries the per-layer metrics of the traced pass.
Informational lines (mix, working set, tail percentile, layer breakdown) come
before the result line, which is the last line of stdout.  Exit status is
nonzero, with no result line, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASSES = 4  # fixed, so that every run with the same --seconds does the same work
DEADLINE_S = 170.0  # a run must exit within 180 s
TAIL_BEYOND = 10

LAYERS = ("permgroup", "tablegen", "modp", "cyclo", "classfun", "analysis", "reps", "cli")


class BenchError(Exception):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    job = dict(job, budget_s=max(1.0, timeout - 10.0))
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} samples)"
    return ordered[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} samples"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _normalize(times: list[float], calib: list[float]) -> list[float]:
    """calib[i] and calib[i + 1] are the slices just before and after times[i]."""
    return [t * calibrate.REFERENCE_S / ((calib[i] + calib[i + 1]) / 2)
            for i, t in enumerate(times)]


class Passes:
    """Served passes, pass k having served lists[k], with everything that went
    wrong in them.  With `same_list`, every pass served the same list and must
    have produced the same outputs."""

    def __init__(self, lists: list[list[dict]], served: list[dict], same_list: bool):
        self.served = served
        self.attempted = sum(len(p["records"]) for p in served)
        self.failed = sum(1 for p in served for r in p["records"] if not r["ok"])
        self.problems = []
        for k, p in enumerate(served):
            self.problems += [f"pass {k}: {r['error']}" for r in p["records"] if not r["ok"]]
            if not p["warmup_ok"]:
                self.problems.append(f"pass {k} warm-up: {p['warmup_error']}")
            if p["setup_error"]:
                self.problems.append(f"pass {k}: {p['setup_error']}")
            if len(p["records"]) < len(lists[k]):
                self.problems.append(f"pass {k}: only {len(p['records'])} of "
                                     f"{len(lists[k])} requests ran before the deadline")
            # every pass starts with the same warm-up request in a fresh process
            if p["warmup_digest"] != served[0]["warmup_digest"]:
                self.problems.append(f"pass {k}: warm-up output differs from pass 0")
            if same_list:
                for j, (a, b) in enumerate(zip(served[0]["records"], p["records"])):
                    if a["digest"] != b["digest"]:
                        self.problems.append(f"request {j}: pass {k} output differs from pass 0")

    def latencies(self, k: int) -> list[float]:
        return [r["latency_s"] for r in self.served[k]["records"]]

    def normalized(self, k: int) -> list[float]:
        """Pass k's latencies on the reference speed: each is scaled by
        REFERENCE_S over the mean of the calibration slices just before and
        just after it."""
        return _normalize(self.latencies(k), self.served[k]["calib_s"])

    def setup_s(self, k: int) -> float:
        return sum(self.served[k]["setup_step_s"])

    def setup_normalized(self, k: int) -> float:
        p = self.served[k]
        return sum(_normalize(p["setup_step_s"], p["setup_calib_s"]))

    def speed(self, k: int) -> float:
        """How fast the machine ran during pass k, against the reference."""
        return calibrate.REFERENCE_S / statistics.median(self.served[k]["calib_s"])


def job_for(plan: workloads.Plan, requests: list[dict], trace: bool) -> dict:
    return {"workload": plan.workload, "requests": requests,
            "warmup": plan.warmup, "trace": trace}


def end_to_end(plan: workloads.Plan, deadline: float) -> tuple[dict, Passes]:
    passes = Passes(plan.blocks, [run_worker(job_for(plan, block, False), deadline)
                                  for block in plan.blocks], same_list=False)
    ks = range(len(passes.served))
    setups = [passes.setup_normalized(k) for k in ks]
    samples = [lat for k in ks for lat in passes.normalized(k)]
    raw = [lat for k in ks for lat in passes.latencies(k)]
    tail_s, tail_label = tail(samples)
    print(f"latency samples: every request of {len(ks)} passes; p50 of {len(samples)} samples, "
          f"tail = {tail_label}")
    print("machine speed per pass (reference = 1): "
          + ", ".join(f"{passes.speed(k):.3f}" for k in ks))
    print("serving seconds per pass, raw: "
          + ", ".join(f"{sum(passes.latencies(k)):.3f}" for k in ks))
    print(f"raw: throughput {len(raw) / sum(raw):.4f} 1/s, p50 {statistics.median(raw) * 1e3:.2f} ms, "
          f"tail {tail(raw)[0] * 1e3:.2f} ms, setup "
          f"{statistics.median(passes.setup_s(k) for k in ks):.4f} s")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "throughput_rps": metric(len(samples) / sum(samples), "1/s"),
        "latency_p50_ms": metric(statistics.median(samples) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_s * 1e3, "ms"),
        # the largest of the passes: each pass's peak depends on where its
        # biggest tables fall in its seeded order, by up to 10%
        "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in passes.served), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return metrics, passes


def per_layer(plan: workloads.Plan, deadline: float) -> tuple[dict, Passes]:
    block = plan.blocks[0]
    passes = Passes([block, block], [run_worker(job_for(plan, block, trace), deadline)
                                     for trace in (False, True)], same_list=True)
    traced = passes.served[1]
    t = traced["trace"]
    self_ms = {name: ns / 1e6 for name, ns in t["self_ns"].items()}
    calls, counters = t["calls"], t["counters"]

    def ms(name: str) -> float:
        return self_ms.get(name, 0.0)

    def layer_ms(layer: str) -> float:
        return sum(v for name, v in self_ms.items() if name.startswith(layer + "."))

    lookups = traced["cache_lookups"]
    mul_calls = calls.get("cyclo.mul", 0)
    plain_s, traced_s = sum(passes.normalized(0)), sum(passes.normalized(1))
    request_ms = t["request_ns"] / 1e6
    m = {
        "permgroup.enumerate_ms": metric(ms("permgroup.enumerate"), "ms"),
        "permgroup.classes_ms": metric(ms("permgroup.classes"), "ms"),
        "permgroup.elements_enumerated": metric(counters.get("permgroup.elements_enumerated", 0), "count"),
        "permgroup.subgroup_ms": metric(ms("permgroup.subgroup"), "ms"),
        "permgroup.spec_cache_hit_ratio": metric(traced["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "tablegen.class_constants_ms": metric(ms("tablegen.class_constants"), "ms"),
        "tablegen.constant_products": metric(counters.get("tablegen.constant_products", 0), "count"),
        "tablegen.eigenbasis_ms": metric(ms("tablegen.eigenbasis"), "ms"),
        "tablegen.degrees_ms": metric(ms("tablegen.degrees"), "ms"),
        "tablegen.lift_ms": metric(ms("tablegen.lift"), "ms"),
        "tablegen.lift_dft_terms": metric(counters.get("tablegen.lift_dft_terms", 0), "count"),
        "cyclo.mean_coeffs": metric(counters.get("cyclo.mul_coeffs", 0) / mul_calls if mul_calls else 0.0, "count"),
        "classfun.inner_product_ms": metric(ms("classfun.inner_product"), "ms"),
        "classfun.inner_product_calls": metric(calls.get("classfun.inner_product", 0), "count"),
        "classfun.decompose_ms": metric(ms("classfun.decompose"), "ms"),
        "classfun.sym_alt_ms": metric(ms("classfun.sym_alt"), "ms"),
        "analysis.check_all_ms": metric(ms("analysis.check_all"), "ms"),
        "analysis.restriction_ms": metric(ms("analysis.restriction"), "ms"),
        "analysis.burnside_class_ms": metric(ms("analysis.burnside_class"), "ms"),
        "analysis.solvability_ms": metric(ms("analysis.solvability"), "ms"),
        "reps.orthogonality_ms": metric(ms("reps.orthogonality"), "ms"),
        "cli.render_ms": metric(ms("cli.main"), "ms"),
        "cli.output_bytes": metric(sum(r["bytes"] for r in traced["records"])
                                   if plan.workload != "arith-cached" else 0, "bytes"),
        "bench.request_ms": metric(request_ms, "ms"),
        "bench.trace_overhead": metric(traced_s / plain_s, "ratio"),
    }
    for name in ("mat_mul", "rref", "nullspace_rows", "minimal_polynomial"):
        m[f"modp.{name}_calls"] = metric(calls.get(f"modp.{name}", 0), "count")
    for name in ("mul", "add", "reduce", "conj", "eq", "change_order"):
        m[f"cyclo.{name}_calls"] = metric(calls.get(f"cyclo.{name}", 0), "count")
    for layer in LAYERS[:-1] + ("bench",):  # cli's total is cli.render_ms
        m[f"{layer}.ms"] = metric(layer_ms(layer), "ms")

    accounted = sum(self_ms.values())
    print(f"traced request time {request_ms:.1f} ms; layers' self time plus the benchmark's "
          f"own time = {accounted:.1f} ms ({100 * accounted / request_ms:.2f}%)")
    for layer in LAYERS + ("bench",):
        print(f"  {layer:<10} {layer_ms(layer):12.1f} ms  {100 * layer_ms(layer) / request_ms:6.2f}%")
    print(f"tracing overhead: traced {traced_s:.3f} s / untraced {plain_s:.3f} s "
          f"= {traced_s / plain_s:.3f} (on the reference speed)")
    return m, passes


def measure(plan: workloads.Plan, trace: bool) -> int:
    """Serve the plan, check it, and print the result line; 1 on a crash."""
    deadline = time.monotonic() + DEADLINE_S
    print(f"workload {plan.workload}, seed {plan.seed}: {len(plan.requests)} requests "
          f"in {len(plan.blocks)} passes of {plan.rounds} round(s), 1 client, closed loop"
          + ("; the first pass's requests are served untraced, then traced" if trace else ""))
    print(f"distinct specs: {plan.working_set()} (working set), "
          f"share of requests with a distinct spec {plan.distinct_share():.3f}")
    print("mix: " + ", ".join(f"{k} x{v}" for k, v in workloads.mix_summary(plan).items()))
    try:
        if trace:
            metrics, passes = per_layer(plan, deadline)
        else:
            metrics, passes = end_to_end(plan, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"error_rate: {passes.failed}/{passes.attempted} = "
          f"{passes.failed / max(passes.attempted, 1):.4f}")
    for p in passes.problems[:20]:
        print(f"problem: {p}")
    result = {"correct": not passes.problems, "attempted": passes.attempted,
              "failed": passes.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chartab", "__init__.py")):
        print(f"error: no chartab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    plan = workloads.build_plan(args.workload, args.seed, args.seconds, PASSES)
    return measure(plan, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
