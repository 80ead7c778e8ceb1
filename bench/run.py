"""qclone benchmark: one command, three seeded workloads, one JSON result line.

    python3 bench/run.py --workload regression|point_queries|closed_forms \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``qclone`` from ``src/`` of
that checkout, so nothing needs installing.  Every workload is a closed loop:
one client, one operation at a time, in one thread, with
``OPENBLAS_NUM_THREADS=1`` in each child process.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
rescaled to a fixed host speed by a probe timed between operations (see
``worker.py``); the summary also prints the plain wall-clock means.
``--trace 1`` runs untraced/traced pairs of passes on the same inputs and
reports the per-layer metrics of the first traced pass, plus the tracing
overhead.  Every operation is checked against an independent reference; see
``ops.py``.  A summary and the environment record go to standard output, the
full record to ``bench/out/``, and the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("regression", "point_queries", "closed_forms")
OPS_PER_PASS = {"point_queries": 105, "closed_forms": 100}
# A run is a series of worker processes, each a fresh interpreter.  A
# regression worker runs one pass; the others run passes for
# 1/WORKERS_PER_RUN of the run, after an untimed warm-up pass.  Before each
# worker, SETUP_ONLY_PER_WORKER more fresh interpreters only import qclone.cli,
# so the set-up samples are spread over the run.
WORKERS_PER_RUN = 6
MIN_WORKERS = 3
SETUP_ONLY_PER_WORKER = 2
# A run must end within 180 s; a child that would overrun this is killed.
DEADLINE_S = 170
STARTED = time.perf_counter()

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(cfg):
    """Run one worker to completion; subprocess kills and reaps it on timeout."""
    args = [sys.executable, str(BENCH / "worker.py")]
    cfg = dict(cfg, src=str(SRC), spawned_at=time.perf_counter())
    proc = subprocess.run(
        [*args, json.dumps(cfg)],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, DEADLINE_S - (time.perf_counter() - STARTED)),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_config(workload, seed, first, seconds=0.0):
    return {
        "workload": workload,
        "seed": seed,
        "first": first,
        "seconds": seconds,
        "warmup": workload != "regression",
        "ops_per_pass": OPS_PER_PASS.get(workload, 0),
    }


def run_workers(workload, seed, seconds):
    """Workers in turn while the next one fits in ``seconds``, at least MIN_WORKERS."""
    chunk = 0.0 if workload == "regression" else seconds / WORKERS_PER_RUN
    children = []
    setups = []
    started = time.perf_counter()
    first = 0
    while True:
        t0 = time.perf_counter()
        setups += [run_worker({"setup_only": True}) for _ in range(SETUP_ONLY_PER_WORKER)]
        child = run_worker(pass_config(workload, seed, first, chunk))
        children.append(child)
        setups.append(child)
        first += len(child["passes"])
        last = time.perf_counter() - t0
        if len(children) >= MIN_WORKERS and time.perf_counter() - started + last > seconds:
            return children, setups


def split_regression(record):
    """(verify all, nine tables) seconds of one regression pass, rescaled."""
    verify = tables = 0.0
    for t, kind in zip(record["scaled_s"], record["kinds"]):
        if kind.startswith("verify"):
            verify += t
        else:
            tables += t
    return verify, tables


def tally(children):
    attempted = failed = 0
    failures = []
    for child in children:
        for record in child["passes"] + ([child["warmup"]] if child.get("warmup") else []):
            attempted += len(record["latencies_s"])
            failed += record["failed"]
            failures += record["failures"]
    return attempted, failed, failures


def untraced(workload, seed, seconds):
    children, setups = run_workers(workload, seed, seconds)
    passes = [r for c in children for r in c["passes"]]
    setup = [c["setup_scaled_s"] for c in setups]
    if workload == "regression":
        p90, p50 = zip(*(split_regression(r) for r in passes))
    else:
        p50 = [r["p50_s"] for r in passes]
        p90 = [r["p90_s"] for r in passes]
    # Pass times are means over passes: within a run the probe leaves some of
    # the host's phases in the rescaled times, and a median jumps with the
    # share of slow samples where a mean moves with it.
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.fmean(r["pass_scaled_s"] for r in passes),
        "op_p50_ms": 1e3 * statistics.fmean(p50),
        "op_p90_ms": 1e3 * statistics.fmean(p90),
        "peak_rss_mb": statistics.median(c["maxrss_mb"] for c in children),
    }
    ops_per_pass = len(passes[0]["latencies_s"])
    samples = {
        "setup_s": len(setup),
        "pass_s": len(passes),
        "op_p50_ms": f"{len(passes)} passes x {ops_per_pass} ops",
        "op_p90_ms": f"{len(passes)} passes x {ops_per_pass} ops",
        "peak_rss_mb": len(children),
    }
    wall = {
        "setup_s": statistics.median(c["setup_s"] for c in setups),
        "pass_s": statistics.fmean(r["pass_s"] for r in passes),
        "probe_s": statistics.fmean(c["probe_s"] for c in children),
    }
    detail = {
        "wall": wall,
        "setup_samples_s": setup,
        "pass_s_samples": [r["pass_scaled_s"] for r in passes],
        "op_p50_samples_s": list(p50),
        "op_p90_samples_s": list(p90),
    }
    if workload == "regression":
        detail["verify_all_s"] = statistics.fmean(p90)
        detail["tables_both_s"] = statistics.fmean(p50)
    return metrics, samples, detail, children


def traced(workload, seed, seconds):
    """Untraced/traced pairs on identical inputs; layers from the first traced pass."""
    started = time.perf_counter()
    pairs = []
    OUT.mkdir(exist_ok=True)
    while True:
        t0 = time.perf_counter()
        cfg = pass_config(workload, seed, len(pairs))
        plain = run_worker(cfg)
        spans = OUT / f"spans-{workload}-seed{seed}.json" if not pairs else None
        traced_child = run_worker(dict(cfg, trace=True, spans_path=str(spans) if spans else None))
        pairs.append((plain, traced_child))
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            break
    overheads = [
        t["passes"][0]["pass_scaled_s"] / p["passes"][0]["pass_scaled_s"] - 1.0 for p, t in pairs
    ]
    mismatched = [
        p["passes"][0]["index"] for p, t in pairs if p["passes"][0]["digest"] != t["passes"][0]["digest"]
    ]
    metrics = dict(pairs[0][1]["layers"])
    metrics["trace_overhead_frac"] = (statistics.median(overheads), "ratio")
    samples = {"pairs": len(pairs)}
    detail = {"trace_overhead_samples": overheads, "digest_mismatch_passes": mismatched}
    children = [c for pair in pairs for c in pair]
    return metrics, samples, detail, children


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    global STARTED
    STARTED = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qclone" / "__init__.py").is_file():
        print(f"error: no qclone package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, samples, detail, children = traced(args.workload, args.seed, args.seconds)
        else:
            metrics, samples, detail, children = untraced(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, failures = tally(children)
    correct = failed == 0 and not detail.get("digest_mismatch_passes")
    detail["ops_failed_frac"] = failed / attempted if attempted else 1.0
    env = dict(children[0]["env"], seed=args.seed, workload=args.workload, seconds=args.seconds,
               trace=args.trace, samples=samples)

    if args.trace:
        # A traced function the package no longer defines is reported absent.
        result_metrics = {}
        for name, unit in per_layer_names().items():
            entry = metrics.get(name)
            if entry is None:
                result_metrics[name] = {"value": 0, "unit": unit, "absent": True}
            else:
                result_metrics[name] = {"value": entry[0], "unit": unit}
        detail["absent"] = [n for n, m in result_metrics.items() if m.get("absent")]
    else:
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}

    OUT.mkdir(exist_ok=True)
    record = {
        "env": env,
        "metrics": result_metrics,
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result_metrics.items():
        n = samples.get(name, "")
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else "") + ("  ABSENT" if m.get("absent") else ""))
    for name in ("verify_all_s", "tables_both_s"):
        if name in detail:
            print(f"  {name:40s} {detail[name]:.6g}")
    for name, value in detail.get("wall", {}).items():
        print(f"  wall-clock {name:29s} {value:.6g}")
    print(f"  ops_failed_frac {detail['ops_failed_frac']:.6g} ({failed}/{attempted})")
    for message in failures[:5]:
        print(f"  FAILED: {message}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
