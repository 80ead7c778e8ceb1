"""Command-line surface: regenerate tables, run single-machine reports,
scan broadcast intervals, and execute the regression suite.

Exit codes: 0 success, 1 verification/table mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from . import broadcast as bc
from . import concat, deleters, hybrid, tables, verify
from .cloners import FAMILIES, MachineSpec, clone_report
from .deleters import BlankState, DeleterSpec
from .qcore import StateVector

FORMATS = ("csv", "json", "pretty")

# Largest --dim of `qclone clone`: a d-dimensional input gives up to d^3
# output dimensions, and states are limited to 256.
MAX_DIM = 6


def _render(rows, meta, fmt: str) -> str:
    """rows: list of flat dicts with stable keys."""
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
    keys = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
        return buf.getvalue()
    widths = {k: max(len(k), *(len(_fmt_cell(r[k])) for r in rows)) for k in keys} if rows else {}
    lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
    for row in rows:
        lines.append("  ".join(_fmt_cell(row[k]).ljust(widths[k]) for k in keys))
    return "\n".join(lines) + "\n"


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "ok" if v else "MISMATCH"
    if isinstance(v, float):
        return f"{v:.6f}"
    if v is None:
        return ""
    return str(v)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _machine_spec(args) -> MachineSpec:
    _, options = FAMILIES[args.family]
    return MachineSpec(args.family, tuple(getattr(args, name) for name in options))


def cmd_table(args) -> int:
    mode = args.mode
    run_modes = ("closed_form", "simulate") if mode == "both" else (mode,)
    tol = args.tol  # None -> one unit in the last printed digit
    rows = []
    mismatch = False
    for m in run_modes:
        t = tables.generate_table(args.id, m)
        for r in t.rows:
            flags = r.matches(tol)
            row = {}
            for k, v in r.inputs.items():
                row[k] = v
            for k, v in r.outputs.items():
                row[k] = v
                if mode == "both":
                    row[f"{k}_printed"] = r.expected[k]
                    row[f"{k}_match"] = flags[k]
            row["provenance"] = r.provenance
            rows.append(row)
            if not r.all_match(tol):
                mismatch = True
    meta = {"version": __version__, "command": "table", "params": {"id": args.id, "mode": mode}}
    _emit(_render(rows, meta, args.format), args.out)
    return 1 if (mode == "both" and mismatch) else 0


def _check_alpha2(alpha2: float) -> None:
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError(f"--alpha2 must lie in [0, 1], got {alpha2}")


def cmd_clone(args) -> int:
    _check_alpha2(args.alpha2)
    spec = _machine_spec(args)
    d = 2  # the input is a qubit unless the family takes --dim
    if "dim" in FAMILIES[args.family][1]:
        if args.dim < 2:
            raise ValueError(f"--dim must be >= 2 for family {args.family}, got {args.dim}")
        if args.dim > MAX_DIM:
            raise ValueError(
                f"--dim must be <= {MAX_DIM} for family {args.family}, got {args.dim}: "
                f"outputs are limited to {MAX_DIM}^3 <= 256 dimensions"
            )
        d = args.dim
    params = {"family": spec.family, "alpha2": args.alpha2}
    amps = np.zeros(d, dtype=complex)
    if args.phase is not None:
        if not math.isfinite(args.phase):
            raise ValueError(f"--phase must be finite, got {args.phase}")
        # an equatorial input: --phase replaces --alpha2
        params.update(alpha2=0.5, phase=args.phase)
        amps[0] = 1 / math.sqrt(2)
        amps[1] = np.exp(1j * args.phase) / math.sqrt(2)
    else:
        amps[0] = math.sqrt(args.alpha2)
        amps[1] = math.sqrt(1 - args.alpha2)
    rep = clone_report(spec, StateVector((d,), amps))
    rows = [
        {
            "family": spec.family,
            "alpha2": params["alpha2"],
            "F_a": rep.F_a,
            "F_b": rep.F_b,
            "D_a": rep.D_a,
            "D_b": rep.D_b,
            "D_ab1": rep.D_ab1,
            "D_ab2": rep.D_ab2,
            "D_ab3": rep.D_ab3,
        }
    ]
    meta = {
        "version": __version__,
        "command": "clone",
        "params": params,
    }
    _emit(_render(rows, meta, args.format), args.out)
    return 0


def _deleter_spec(args) -> DeleterSpec:
    blank = BlankState(args.m1, args.m2)
    if args.family == "pb":
        return DeleterSpec("pb", (blank,))
    if args.family == "qiu":
        return DeleterSpec("qiu", (args.r1,))
    if args.family == "conv":
        return DeleterSpec("conv", (args.lam, blank))
    return DeleterSpec("sdep", (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2, blank))


def cmd_delete(args) -> int:
    _check_alpha2(args.alpha2)
    spec = _deleter_spec(args)
    psi = StateVector((2,), [math.sqrt(args.alpha2), math.sqrt(1 - args.alpha2)])
    rep = deleters.delete_report(spec, psi, n_transformers=args.transformers)
    rows = [
        {
            "family": args.family,
            "alpha2": args.alpha2,
            "transformers": args.transformers,
            "F_1": rep.F_1,
            "F_2": rep.F_2,
            "machine_overlap": rep.machine_overlap,
            "avg_F_1": rep.avg_F_1,
            "avg_F_2": rep.avg_F_2,
        }
    ]
    meta = {
        "version": __version__,
        "command": "delete",
        "params": {
            "family": args.family,
            "alpha2": args.alpha2,
            "transformers": args.transformers,
        },
    }
    _emit(_render(rows, meta, args.format), args.out)
    return 0


def cmd_hybrid(args) -> int:
    if args.kind == "pauli":
        f1, f2 = hybrid.bh_pauli_table(args.p, args.lam)
        rows = [{"kind": "pauli", "p": args.p, "lambda": args.lam, "F1": f1, "F2": f2}]
    elif args.kind == "anti":
        f1, f2 = hybrid.bh_anti_hybrid(args.lam)
        rows = [{"kind": "anti", "lambda": args.lam, "F_a": f1, "F_b": f2}]
    elif args.kind == "bhbh":
        xi, dmin, f, rng = hybrid.bhbh_state_dependent(args.alpha2, args.lam)
        if xi > 0.5 + 1e-12:
            raise ValueError(
                f"lambda = {args.lam} outside the admissible range [{rng[0]:.6g}, 1] "
                f"for alpha^2 = {args.alpha2} (machine parameter {xi:.6g} exceeds 1/2)"
            )
        rows = [
            {
                "kind": "bhbh",
                "alpha2": args.alpha2,
                "lambda": args.lam,
                "xi_star": xi,
                "D_min": dmin,
                "F": f,
                "lambda_lo": rng[0],
                "lambda_hi": rng[1],
            }
        ]
    else:
        rows = [
            {
                "kind": "pc",
                "lambda": args.lam,
                "xi": args.xi,
                "F1": hybrid.bh_pc_hybrid(args.lam, args.xi),
                "F1_state_dependent": hybrid.bh_pc_hybrid_state_dependent(args.lam, args.alpha2),
            }
        ]
    meta = {"version": __version__, "command": "hybrid", "params": vars_clean(args)}
    _emit(_render(rows, meta, args.format), args.out)
    return 0


def cmd_broadcast(args) -> int:
    lam = args.lam
    if args.interval:
        insep = bc.insep_interval(lam)
        try:
            sep = bc.sep_interval(lam)
            sep_lo, sep_hi = sep.lo, sep.hi
        except ValueError:
            sep_lo = sep_hi = None
        rows = [
            {
                "lambda": lam,
                "insep_lo": insep.lo,
                "insep_hi": insep.hi,
                "sep_lo": sep_lo,
                "sep_hi": sep_hi,
            }
        ]
    else:
        a2 = args.alpha2
        rows = [
            {
                "lambda": lam,
                "alpha2": a2,
                "F": bc.broadcast_fidelity(a2, lam),
                "F_plus_sign_variant": bc.broadcast_fidelity(a2, lam, sign=+1),
                "avg_F": bc.avg_broadcast_fidelity(lam),
            }
        ]
    meta = {"version": __version__, "command": "broadcast", "params": vars_clean(args)}
    _emit(_render(rows, meta, args.format), args.out)
    return 0


def cmd_concat(args) -> int:
    cloner = MachineSpec("wz") if args.cloner == "wz" else MachineSpec("bh", (args.xi,))
    if args.deleter == "pb":
        dspec = DeleterSpec("pb")
    else:
        dspec = DeleterSpec("sdep", (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2))
    spec = concat.PipelineSpec(cloner, dspec)
    d, f = concat.run_pipeline(spec, args.alpha2)
    avg_d, avg_f = concat.closed_form_averages(spec)
    rows = [
        {
            "cloner": args.cloner,
            "deleter": args.deleter,
            "alpha2": args.alpha2,
            "D": d,
            "F": f,
            "avg_D": avg_d,
            "avg_F": avg_f,
        }
    ]
    meta = {"version": __version__, "command": "concat", "params": vars_clean(args)}
    _emit(_render(rows, meta, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    results = verify.run(args.scope)
    rows = []
    for r in results:
        rows.append(
            {
                "check": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "notes": "; ".join(r.notes),
            }
        )
        line = "PASS" if r.passed else "FAIL"
        print(f"[{line}] {r.name}: {r.detail}", file=sys.stderr)
        for n in r.notes:
            print(f"       note: {n}", file=sys.stderr)
    s = verify.summary(results)
    meta = {"version": __version__, "command": "verify", "params": {"scope": args.scope}}
    meta["summary"] = s
    _emit(_render(rows, meta, args.format), args.out)
    return 0 if s["failed"] == 0 else 1


def vars_clean(args) -> dict:
    skip = {"func", "format", "out", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclone",
        description="Quantum cloning/deletion machine simulations and table regeneration.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="pretty")
        p.add_argument("--out", help="write output to a file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="regenerate one of the reference tables")
    p.add_argument("--id", required=True, choices=tables.TABLE_IDS)
    p.add_argument("--mode", choices=("closed_form", "simulate", "both"), default="both")
    p.add_argument("--tol", type=float, help="override the printed-precision matching tolerance")
    add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("clone", help="run a cloning machine on one input")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--alpha2", type=float, default=0.5)
    p.add_argument("--phase", type=float, help="equatorial input phase instead of alpha2")
    p.add_argument("--xi", type=float, default=1 / 6)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--copies", type=int, default=3)
    p.add_argument("--blank-index", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("delete", help="run a deletion machine on identical copies")
    p.add_argument("--family", required=True, choices=("pb", "qiu", "conv", "sdep"))
    p.add_argument("--alpha2", type=float, default=0.5)
    p.add_argument("--transformers", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--lam", type=float, default=0.25)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=0.0)
    add_common(p)
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser("hybrid", help="hybrid machine fidelities")
    p.add_argument("--kind", required=True, choices=("pauli", "anti", "bhbh", "pc"))
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--xi", type=float, default=1 / 6)
    p.add_argument("--alpha2", type=float, default=0.5)
    add_common(p)
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("broadcast", help="entanglement broadcasting quantities")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha2", type=float, default=0.5)
    p.add_argument("--interval", action="store_true", help="report the separability intervals")
    add_common(p)
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("concat", help="clone-then-delete pipeline")
    p.add_argument("--cloner", choices=("wz", "bh"), default="bh")
    p.add_argument("--deleter", choices=("pb", "sdep"), default="pb")
    p.add_argument("--xi", type=float, default=1 / 6)
    p.add_argument("--alpha2", type=float, default=0.5)
    add_common(p)
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("verify", help="run the regression suite")
    p.add_argument("scope", nargs="?", default="all")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
