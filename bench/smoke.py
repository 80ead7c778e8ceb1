"""Smoke check of the benchmark itself, at a tiny size (about a minute).

    python3 bench/smoke.py

From the root of a checkout.  It checks that:

* every workload reports every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) named in ``BENCHMARK.json``, with no
  failed operation;
* the correctness gate can fail: a deliberately wrong reference value, a
  deliberately wrong printed table value and an operation that raises are
  each counted as a failed operation;
* two traced runs on one seed give identical ``calls`` counts, and a traced
  and an untraced pass on one seed give bit-identical results;
* a traced name that the package does not define is reported as absent.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402

FAILURES = []


def expect(name, cond, detail=""):
    print(f"[{'PASS' if cond else 'FAIL'}] {name}" + (f": {detail}" if detail and not cond else ""))
    if not cond:
        FAILURES.append(name)


def bench_result(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 else None


def check_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[key]}
        for workload in run.WORKLOADS:
            code, result = bench_result(workload, trace)
            if code != 0:
                expect(f"{workload} --trace {trace} exits 0", False, f"exit {code}")
                continue
            got = set(result["metrics"])
            expect(f"{workload} --trace {trace} reports every {key} metric", got == names,
                   f"missing {sorted(names - got)}, extra {sorted(got - names)}")
            expect(f"{workload} --trace {trace} has no failed operation",
                   result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{result['failed']} of {result['attempted']} failed")
            absent = sorted(n for n, m in result["metrics"].items() if m.get("absent"))
            expect(f"{workload} --trace {trace} has no absent metric", not absent, str(absent))


def check_gate_can_fail():
    import ops
    import worker
    from qclone import cloners, tables

    host = worker.HostSpeed()

    clone_op = ("clone", "bh-opt", (), ops._ket(ops.rng_for(0, 0), 2), None)
    expect("gate passes the unmodified clone operation",
           worker.run_pass(ops, [clone_op], host)["failed"] == 0)
    original = cloners.gm_fidelity
    cloners.gm_fidelity = lambda n, m: original(n, m) + 1e-6
    try:
        expect("gate catches a wrong closed-form reference",
               worker.run_pass(ops, [clone_op], host)["failed"] == 1)
    finally:
        cloners.gm_fidelity = original

    table_op = ("cli", ("table", "--id", "2.1", "--mode", "both", "--format", "json"))
    expect("gate passes the unmodified table", worker.run_pass(ops, [table_op], host)["failed"] == 0)
    printed = tables._T21_PRINTED[0.5]
    tables._T21_PRINTED[0.5] = (0.80,) + printed[1:]
    try:
        expect("gate catches a wrong printed table value",
               worker.run_pass(ops, [table_op], host)["failed"] == 1)
    finally:
        tables._T21_PRINTED[0.5] = printed

    raising = ("clone", "no-such-family", (), clone_op[3], None)
    expect("gate counts an operation that raises", worker.run_pass(ops, [raising], host)["failed"] == 1)


def check_trace_repeats():
    cfg = dict(run.pass_config("point_queries", 5, 0), ops_per_pass=21)
    first = run.run_worker(dict(cfg, trace=True))
    second = run.run_worker(dict(cfg, trace=True))
    plain = run.run_worker(cfg)
    calls = lambda child: {k: v for k, v in child["layers"].items() if k.endswith(".calls")}
    expect("two traced runs on one seed give identical calls counts", calls(first) == calls(second))
    expect("traced and untraced passes give bit-identical results",
           first["passes"][0]["digest"] == plain["passes"][0]["digest"])


def check_absent_name():
    import tracer

    saved = tracer.NAMED
    tracer.NAMED = saved + ("qcore.no_such_function",)
    t = tracer.Tracer()
    try:
        t.install()
        layers = t.metrics()
    finally:
        t.uninstall()
        tracer.NAMED = saved
    expect("a traced name the package lacks is reported as absent",
           layers["qcore.no_such_function.calls"] is None
           and layers["qcore.partial_trace.calls"] is not None)


def main():
    run.OPS_PER_PASS = {"point_queries": 14, "closed_forms": 10}
    run.MIN_WORKERS = 1
    check_gate_can_fail()
    check_absent_name()
    check_trace_repeats()
    check_metrics()
    print("smoke: " + ("ok" if not FAILURES else f"{len(FAILURES)} check(s) failed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
