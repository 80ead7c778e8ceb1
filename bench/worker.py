"""One benchmark child process: runs passes of one workload and reports them.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and one argument, a JSON object:

    workload      "regression" | "point_queries" | "closed_forms"
    seed          workload seed
    first         index of the first pass
    seconds       keep running further passes until this many seconds have
                  elapsed (at least one pass)
    warmup        run one untimed pass (index -1) first
    ops_per_pass  operations per pass (ignored by ``regression``)
    trace         install the tracer after warm-up
    spans_path    where a traced child writes its spans
    src           expected directory of the imported package
    spawned_at    ``time.perf_counter()`` of the parent just before it started
                  this process (the clock is system-wide on Linux)
    setup_only    report the set-up sample and stop, running no pass

The last line of standard output is a JSON object with the pass records.
"""

import time

import qclone.cli  # first: the set-up sample is a fresh interpreter's import

IMPORTED_AT = time.perf_counter()

import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# Host-speed probe.  The host runs in fast and slow phases that change its
# speed by up to 1.8x and last from seconds to minutes (see README), so wall
# times of the same work differ by that much between runs.  The probe is fixed
# work that never calls qclone: Python object churn, small-matrix numpy calls
# and 32/64-dimensional LAPACK/BLAS calls, about PROBE_REF_S on this host in
# its fast phase.  A timer runs it every PROBE_GAP_S of wall time, also in the
# middle of an operation, and its time is left out of every measured time.
# Each operation's time is rescaled by PROBE_REF_S / (mean probe time around
# the operation).  A change to qclone moves the rescaled time as much as the
# wall time; a change of host speed moves both the operation and the probe.
PROBE_REF_S = 0.008
PROBE_GAP_S = 0.1

_rng = np.random.default_rng(0)
_MATS = []
for _n in (4, 8, 32, 64):
    _a = _rng.normal(size=(_n, _n)) + 1j * _rng.normal(size=(_n, _n))
    _MATS.append(_a + _a.conj().T)
# Bound now, so that a tracer's counting wrapper never sees the probe.
_eigvalsh = np.linalg.eigvalsh


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe():
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    small, mid, big = _MATS[:2], _MATS[2], _MATS[3]
    acc = 0.0
    table = {}
    for j in range(3000):
        p = _Point(j, 2.0)
        acc += p.a * p.b
        table[j & 63] = acc
    for i in range(120):
        h = small[i & 1]
        acc += float(_eigvalsh(h)[0]) + float(np.trace(np.kron(small[0], small[0])).real)
        acc += float(np.einsum("ij,ji->", h, h).real)
    for _ in range(6):
        acc += float(_eigvalsh(big)[0]) + float((mid @ mid).real[0, 0])
    return time.perf_counter() - start


class HostSpeed:
    """Runs the probe from a SIGALRM handler every PROBE_GAP_S of wall time.

    Python runs the handler between two bytecodes of whatever is executing,
    so long operations are sampled too.  ``clock`` is ``perf_counter`` minus
    the time spent in the handler.
    """

    def __init__(self):
        self.stolen = 0.0
        self.at = []  # clock() when each probe started
        self.took = []  # seconds each probe took

    def clock(self):
        return time.perf_counter() - self.stolen

    def sample(self, *_signal):
        entered = time.perf_counter()
        self.at.append(entered - self.stolen)
        self.took.append(probe())
        self.stolen += time.perf_counter() - entered

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start, end):
        """PROBE_REF_S over the mean probe time within PROBE_GAP_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - PROBE_GAP_S)
        hi = bisect.bisect_right(self.at, end + PROBE_GAP_S)
        if lo == hi:  # no probe that close: take the nearest one
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        return PROBE_REF_S / statistics.fmean(self.took[lo:hi])


def environment():
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "probe_ref_s": PROBE_REF_S,
    }


def make_ops(ops, workload, seed, index, ops_per_pass):
    if workload == "regression":
        return ops.regression()
    if workload == "point_queries":
        return ops.point_queries(seed, index, ops_per_pass)
    return ops.closed_forms(seed, index, ops_per_pass)


def nearest_rank(ordered, q):
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(ops, op_list, host, tracer=None):
    """Time each operation, then check it untimed and untraced."""
    record = {"latencies_s": [], "spans": [], "kinds": [], "failures": [], "failed": 0}
    h = hashlib.sha256()
    clock = host.clock
    for op in op_list:
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            result = ops.run(op)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{op[0]} raised {type(exc).__name__}: {exc}"
        end = clock()
        if tracer is not None:
            tracer.active = False
        record["latencies_s"].append(end - start)
        record["spans"].append((start, end))
        record["kinds"].append(op[0] if op[0] != "cli" else " ".join(op[1][:3]))
        failures = [error] if error else ops.check(op, result)
        if not error:
            ops.digest(result, h)
        if failures:
            record["failed"] += 1
            if len(record["failures"]) < 5:
                record["failures"].append(failures[0])
    record["pass_s"] = sum(record["latencies_s"])
    record["digest"] = h.hexdigest()
    return record


def rescale(record, host):
    """Add the host-speed rescaled times to a pass record."""
    scaled = [(end - start) * host.factor(start, end) for start, end in record.pop("spans")]
    ordered = sorted(scaled)
    record["scaled_s"] = scaled
    record["pass_scaled_s"] = sum(scaled)
    record["p50_s"], record["p90_s"] = nearest_rank(ordered, 0.5), nearest_rank(ordered, 0.9)


def main(argv):
    cfg = json.loads(argv[1])
    setup_s = IMPORTED_AT - cfg["spawned_at"]
    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(qclone.__file__).startswith(src + os.sep):
        print(f"qclone imported from {qclone.__file__}, not from {src}", file=sys.stderr)
        return 2
    probe()  # first LAPACK calls load their kernels
    setup_probe = statistics.median(probe() for _ in range(3))
    out = {"setup_s": setup_s, "setup_scaled_s": setup_s * PROBE_REF_S / setup_probe}
    if cfg.get("setup_only"):
        print(json.dumps(out))
        return 0
    import ops

    host = HostSpeed()
    host.start()
    workload, seed, per = cfg["workload"], cfg["seed"], cfg.get("ops_per_pass", 0)
    out.update(env=environment(), passes=[], warmup=None)
    if cfg.get("warmup"):
        out["warmup"] = run_pass(ops, make_ops(ops, workload, seed, -1, per), host)
    tracer = None
    if cfg.get("trace"):
        from tracer import Tracer

        tracer = Tracer(host.clock)
        tracer.install()
    index = cfg["first"]
    started = time.perf_counter()
    while not out["passes"] or time.perf_counter() - started < cfg.get("seconds", 0):
        record = run_pass(ops, make_ops(ops, workload, seed, index, per), host, tracer)
        record["index"] = index
        out["passes"].append(record)
        index += 1
    host.stop()
    host.sample()  # a last probe, after the last operation
    for record in out["passes"]:
        rescale(record, host)
    if out["warmup"]:
        del out["warmup"]["spans"]
    out["probe_s"] = statistics.fmean(host.took)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if cfg.get("spans_path"):
            tracer.write_spans(cfg["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
