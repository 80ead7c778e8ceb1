"""Outside-in layer tracer for the qclone benchmark.

The tracer changes nothing in ``src/``.  It wraps every public function
defined in the ten ``qclone`` modules, plus ``DensityOperator.__post_init__``
and the numpy Hermitian eigen-solvers, and rebinds every module-global name
in ``qclone.*`` that refers to a wrapped function, because the package binds
names with ``from .qcore import ...``.  Callables reached only through a
private dispatch table (``cloners._BUILDERS`` and friends) are not rebound;
their time counts as self time of the traced caller.

Each wrapped call records a span ``(name, start, end, parent)`` in memory;
``write_spans`` saves them when the run ends.  Self time of a span is its
duration minus the duration of its traced children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

MODULES = (
    "qcore",
    "measures",
    "cloners",
    "deleters",
    "hybrid",
    "broadcast",
    "concat",
    "tables",
    "verify",
    "cli",
)

# Functions whose calls and self time are reported one by one.  A name that a
# later version of the package no longer defines is reported as absent.
NAMED = (
    "qcore.density_operator",
    "qcore.partial_trace",
    "qcore.realize_gram",
    "qcore.permute_subsystems",
    "measures.concurrence_2q",
    "measures.ppt_verdict",
    "measures.hs_distance",
    "measures.overlap",
    "cloners.build_machine",
    "cloners.clone_report",
    "deleters.build_deleter",
    "deleters.conv_max_y",
    "deleters.average_fidelities",
    "deleters.delete_report",
    "hybrid.hybrid_machine",
    "broadcast.three_qubit_protocol",
    "broadcast.interval_by_bisection",
    "broadcast.protocol_boundary",
    "broadcast.broadcast_outputs_machine",
    "concat.run_pipeline",
    "concat.pipeline_averages",
    "tables.generate_table",
    "cli.main",
)

# Functions whose distinct arguments are counted (useful-to-attempted ratio
# for a cache keyed on the arguments).
DISTINCT = (
    "cloners.build_machine",
    "deleters.build_deleter",
    "deleters.conv_max_y",
    "deleters.average_fidelities",
)

# Work counters reported beside the spans.
EIG_SOLVES = "qcore.eig_solves"
CONV_GRAM = "deleters.conv_gram"


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Installs wrappers into an imported ``qclone`` package.

    Wrappers record only while ``active`` is true, so the benchmark can call
    the package for its own reference checks without counting them.  Spans
    are timed with ``clock``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.names = []  # span name per id
        self.spans = []  # (name_id, start, end, parent_span_index)
        self.calls = {}
        self.self_s = {}
        self.distinct = {name: set() for name in DISTINCT}
        self.eig_solves = 0
        self.present = set()
        self._stack = []  # [span_index, child_seconds]
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        import numpy as np

        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"qclone.{short}")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                originals[value] = self._wrap(f"{short}.{attr}", value)
        self._rebind(originals)

        qcore = importlib.import_module("qclone.qcore")
        cls = qcore.DensityOperator
        post_init = cls.__post_init__
        self._set(cls, "__post_init__", self._wrap("qcore.density_operator", post_init))

        def counting(fn):
            def solver(*args, **kwargs):
                if self.active:
                    self.eig_solves += 1
                return fn(*args, **kwargs)

            return solver

        for attr in ("eigvalsh", "eigh"):
            self._set(np.linalg, attr, counting(getattr(np.linalg, attr)))

    def _rebind(self, originals):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qclone" or mod_name.startswith("qclone.")):
                continue
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = originals.get(value)
                except TypeError:  # unhashable global
                    continue
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn):
        self.present.add(name)
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        distinct = self.distinct.get(name)
        stack = self._stack
        spans = self.spans
        clock = self.clock

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if distinct is not None:
                distinct.add(_arg_key(args, kwargs))
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name_id, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; absent names map to None."""
        out = {}
        for name in NAMED:
            if name in self.present:
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.self_s"] = (self.self_s[name], "s")
            else:
                out[f"{name}.calls"] = out[f"{name}.self_s"] = None
        for short in MODULES:
            prefix = short + "."
            out[f"{short}.self_s"] = (
                sum(v for k, v in self.self_s.items() if k.startswith(prefix)),
                "s",
            )
        out[f"{EIG_SOLVES}.calls"] = (self.eig_solves, "count")
        out[f"{CONV_GRAM}.calls"] = (
            (self.calls[CONV_GRAM], "count") if CONV_GRAM in self.present else None
        )
        for name in DISTINCT:
            calls = self.calls.get(name, 0)
            out[f"{name}.distinct_frac"] = (
                (len(self.distinct[name]) / calls if calls else 0.0, "ratio")
                if name in self.present
                else None
            )
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
                separators=(",", ":"),
            )
