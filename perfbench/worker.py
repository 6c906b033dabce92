"""Serve one workload's request list in a fresh process.

Reads a job from stdin, as JSON: {"workload", "requests", "warmup", "trace",
"budget_s"}.  Imports chartab from the checkout's `src`, does the workload's
set-up, runs one untimed warm-up request, then the requests one after another
(one client, closed loop), and writes one JSON object with the raw results to
stdout.  Every answer is checked after its timer stops, against the reference
attached to the request.  A calibration slice (calibrate.py) runs between each
two steps of the set-up, after the warm-up and after every request, outside
every timed region, so that run.py can put the times on the machine's
current speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import calibrate
from workloads import ARITH_SUBGROUPS, ARITH_TABLES, FACTORS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class WrongAnswer(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# -- set-up ----------------------------------------------------------------------


def import_chartab():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import chartab
    from chartab import cli  # noqa: F401  (the CLI workloads' entry point)

    here = os.path.dirname(os.path.abspath(chartab.__file__))
    if here != os.path.join(ROOT, "src", "chartab"):
        raise RuntimeError(f"chartab imported from {here}, not from this checkout")
    return chartab


def setup_steps(workload: str, env: dict) -> list:
    """The set-up as a list of steps, so that a calibration slice can run
    between each two.  The first imports chartab into env["chartab"]; for
    arith-cached the others build the tables the requests reuse into
    env["state"], keyed by name, a subgroup table by "<sub><<parent>"."""

    def load():
        env["chartab"] = import_chartab()

    def table(name: str):
        chartab = env["chartab"]
        env["state"]["tables"][name] = chartab.build_character_table(chartab.parse_group_spec(name))

    def subgroup_table(parent_name: str, sub_name: str):
        chartab = env["chartab"]
        parent = chartab.parse_group_spec(parent_name)
        sub = chartab.parse_group_spec(sub_name)
        pad = tuple(range(sub.degree, parent.degree))
        h = parent.subgroup([chartab.Perm(g.images + pad) for g in sub.generators])
        key = f"{sub_name}<{parent_name}"
        env["state"]["subgroups"][key] = h
        env["state"]["tables"][key] = chartab.build_character_table(h.as_group())

    steps = [load]
    if workload == "arith-cached":
        env["state"] = {"tables": {}, "subgroups": {}}
        steps += [lambda name=name: table(name) for name in ARITH_TABLES]
        steps += [lambda p=p, s=s: subgroup_table(p, s) for p, s in ARITH_SUBGROUPS.items()]
    return steps


def verify_tables(state: dict) -> None:
    """Check the set-up tables against the references (outside any timing)."""
    for key, table in state["tables"].items():
        f = FACTORS[key.split("<")[0]]
        expect(sorted(table.degrees) == list(f.degrees), f"{key}: degrees {table.degrees}")
        expect(sorted(table.class_data.sizes) == list(f.class_sizes), f"{key}: class sizes")


# -- requests --------------------------------------------------------------------


def run_cli(chartab, req: dict):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = chartab.cli.main(req["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_cli(result, req: dict) -> tuple[str, int]:
    """Returns the output text and its size in bytes; raises on a wrong answer."""
    code, out, err = result
    expect(code == 0, f"exit code {code}: {err.strip()[-200:]}")
    data = json.loads(out)
    ref = req["ref"]
    kind = req["check"]
    if kind == "table":
        degrees = [c["degree"] for c in data["characters"]]
        sizes = [c["size"] for c in data["classes"]]
        expect(data["order"] == ref["order"], f"order {data['order']} != {ref['order']}")
        expect(len(degrees) == len(sizes), f"{len(degrees)} rows for {len(sizes)} classes")
        expect(sum(d * d for d in degrees) == ref["order"], "sum of squared degrees != |G|")
        expect(sorted(degrees) == ref["degrees"], f"degrees {sorted(degrees)}")
        expect(sorted(sizes) == ref["class_sizes"], f"class sizes {sorted(sizes)}")
        expect(all(len(c["values"]) == len(sizes) for c in data["characters"]), "ragged rows")
    elif kind == "classes":
        sizes = sorted(c["size"] for c in data["classes"])
        expect(data["order"] == ref["order"], f"order {data['order']}")
        expect(sizes == ref["class_sizes"], f"class sizes {sizes}")
    elif kind == "simple":
        verdict = "not simple" if ref["prime_power_class"] else "inconclusive"
        expect(data["verdict"] == verdict, f"verdict {data['verdict']!r}")
        expect(data["is_simple"] == ref["simple"], f"is_simple {data['is_simple']}")
        sizes = sorted([1] + [c["size"] for c in data["classes"]])
        expect(sizes == ref["class_sizes"], f"class sizes {sizes}")
    elif kind == "solvable":
        series = ref["derived_series"]
        expect(data["derived_series_orders"] == series,
               f"derived series {data['derived_series_orders']} != {series}")
        expect(data["solvable"] == (series[-1] == 1), f"solvable {data['solvable']}")
        expect(data["theorem_applies"] == ref["two_primes"], "theorem_applies")
    else:
        raise ValueError(f"unknown check {kind!r}")
    return f"{code}\n{out}", len(out.encode())


def run_arith(chartab, state: dict, req: dict):
    """One library request on the set-up tables; returns what it computed."""
    op = req["op"]
    if op == "ortho":
        rep1 = chartab.builtin_rep(f"dihedral-rot:{req['n']}:{req['r1']}")
        rep2 = rep1 if req["r2"] == req["r1"] else chartab.builtin_rep(
            f"dihedral-rot:{req['n']}:{req['r2']}")
        return chartab.check_matrix_orthogonality(rep1, rep2)
    table = state["tables"][req["table"]]
    rows = table.rows
    if op == "tensor":
        chi = rows[req["i"]] * rows[req["j"]]
        return chi, chartab.decompose(chi, table)
    if op == "symalt":
        sym, alt = chartab.sym_alt_square(rows[req["i"]])
        return sym, alt, chartab.decompose(sym, table), chartab.decompose(alt, table)
    if op == "inner":
        return chartab.inner_product(rows[req["i"]], rows[req["j"]])
    if op == "restrict":
        key = f"{req['sub']}<{req['table']}"
        return chartab.restriction_report(rows[req["i"]], state["subgroups"][key],
                                          state["tables"][key], char_index=req["i"])
    if op == "check_all":
        return chartab.check_all(table)
    raise ValueError(f"unknown op {op!r}")


def _expect_character(mults, degrees, degree: int, what: str) -> None:
    expect(all(isinstance(m, int) and m >= 0 for m in mults), f"{what}: multiplicities {mults}")
    expect(sum(m * n for m, n in zip(mults, degrees)) == degree,
           f"{what}: sum m_k n_k != {degree}")


def check_arith(result, state: dict, req: dict) -> tuple[str, int]:
    op = req["op"]
    if op == "ortho":
        expect(result.ok and result.checked == 16, f"orthogonality {result!r}")
        text = repr(result)
    elif op == "check_all":
        expect(result.ok, "; ".join(r.line() for r in result.results if not r.passed))
        text = "\n".join(result.lines())
    else:
        table = state["tables"][req["table"]]
        n = table.degrees
        if op == "tensor":
            chi, mults = result
            _expect_character(mults, n, n[req["i"]] * n[req["j"]], "tensor")
            text = json.dumps([mults, [v.to_json() for v in chi.values]])
        elif op == "symalt":
            sym, alt, ms, ma = result
            d = n[req["i"]]
            _expect_character(ms, n, d * (d + 1) // 2, "sym")
            _expect_character(ma, n, d * (d - 1) // 2, "alt")
            text = json.dumps([ms, ma, [v.to_json() for v in sym.values + alt.values]])
        elif op == "inner":
            expect(result == (1 if req["i"] == req["j"] else 0), f"<chi_i, chi_j> = {result!r}")
            text = json.dumps(result.to_json())
        elif op == "restrict":
            sub_degrees = state["tables"][f"{req['sub']}<{req['table']}"].degrees
            _expect_character(result.multiplicities, sub_degrees, n[req["i"]], "restriction")
            expect(result.norm == sum(m * m for m in result.multiplicities), "norm")
            text = json.dumps([result.multiplicities, result.norm, result.case,
                               result.vanishes_off_subgroup])
        else:
            raise ValueError(f"unknown op {op!r}")
    return text, len(text.encode())


# -- serving ---------------------------------------------------------------------


def serve(chartab, state, job: dict, tracer) -> dict:
    cli_requests = job["workload"] != "arith-cached"

    def execute(req):
        return run_cli(chartab, req) if cli_requests else run_arith(chartab, state, req)

    def check(result, req):
        return check_cli(result, req) if cli_requests else check_arith(result, state, req)

    def one(req, traced: bool) -> dict:
        record = {"ok": True, "error": None, "digest": None, "bytes": 0}
        if traced:
            tracer.begin()
        start = time.perf_counter()
        try:
            result = execute(req)
        except Exception as exc:  # a failed request is data, not a crash
            result, record["ok"] = None, False
            record["error"] = f"{type(exc).__name__}: {exc}"[:300]
        finally:
            record["latency_s"] = time.perf_counter() - start
            if traced:
                tracer.end()
        if record["ok"]:
            try:
                text, record["bytes"] = check(result, req)
                record["digest"] = hashlib.sha256(text.encode()).hexdigest()
            except Exception as exc:  # any malformed output is a wrong answer
                record["ok"] = False
                record["error"] = f"wrong answer: {type(exc).__name__}: {exc}"[:300]
        return record

    warm = one(job["warmup"], traced=False)
    cache = chartab.permgroup._parse_group_spec_cached
    before = cache.cache_info()
    records = []
    calib = [calibrate.slice_s()]  # calib[i] and calib[i + 1] bracket request i
    start = time.perf_counter()
    for req in job["requests"]:
        if time.perf_counter() - start > job["budget_s"]:
            break
        records.append(one(req, traced=tracer is not None))
        calib.append(calibrate.slice_s())
    after = cache.cache_info()
    return {
        "warmup_ok": warm["ok"], "warmup_error": warm["error"], "warmup_digest": warm["digest"],
        "records": records, "calib_s": calib,
        "cache_hits": after.hits - before.hits,
        "cache_lookups": (after.hits + after.misses) - (before.hits + before.misses),
    }


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    env = {"state": None}
    calibrate.slice_s()  # untimed: the first slice in a process warms it
    calib, step_s = [calibrate.slice_s()], []  # calib[k], calib[k + 1] bracket step k
    for step in setup_steps(job["workload"], env):
        start = time.perf_counter()
        step()
        step_s.append(time.perf_counter() - start)
        calib.append(calibrate.slice_s())
    chartab, state = env["chartab"], env["state"]
    out = {"setup_step_s": step_s, "setup_calib_s": calib, "setup_error": None}
    if state is not None:
        try:
            verify_tables(state)
        except WrongAnswer as exc:
            out["setup_error"] = f"wrong set-up table: {exc}"
    if job["trace"]:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    out.update(serve(chartab, state, job, tracer))
    if tracer is not None:
        out["trace"] = {"self_ns": tracer.self_ns, "calls": tracer.calls,
                        "counters": tracer.counters, "request_ns": tracer.request_ns}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
