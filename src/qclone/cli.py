"""Command-line surface: regenerate tables, run single-machine reports,
scan broadcast intervals, and execute the regression suite.

Exit codes: 0 success, 1 verification/table mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from . import broadcast as bc
from . import concat, deleters, hybrid, tables, verify
from .cloners import FAMILIES, TWO_TO_M, MachineSpec, clone_report
from .deleters import BlankState, DeleterSpec
from .qcore import FINITE, StateVector, domain

FORMATS = ("csv", "json", "pretty")

DIM = domain("--dim", 2, 6)  # of `clone`: up to d^3 <= 256 output dimensions
TOL = domain("--tol", 0.0, math.inf, "[)")

# `qclone clone` scores one qubit or --dim qudit input; the two 2 -> M
# families take a qutrit or two-qubit input, so they are not offered
CLONE_FAMILIES = tuple(f for f in FAMILIES if f not in TWO_TO_M)


# writes a flat dict as a row of the json output, already indented; with
# no indent set, json takes its C encoder
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _render(rows, meta, fmt: str) -> str:
    """rows: list of flat dicts with stable keys.  The json text is that of
    ``json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True)``."""
    if fmt == "json":
        head = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
        body = ",\n    ".join(
            "{\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }" if row else "{}" for row in rows
        )
        body = "[\n    " + body + "\n  ]" if rows else "[]"
        return '{\n  "meta": ' + head + ',\n  "rows": ' + body + "\n}\n"
    keys = list(rows[0].keys()) if rows else []
    lines = [keys] + [[_fmt_cell(row[k]) for k in keys] for row in rows]
    if fmt == "csv":
        import csv  # csv output only

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(map(str.ljust, line, widths)) + "\n" for line in lines)


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "ok" if v else "MISMATCH"
    if isinstance(v, float):
        return f"{v:.6f}"
    if v is None:
        return ""
    return str(v)


def cmd_table(args):
    mode = args.mode
    run_modes = ("closed_form", "simulate") if mode == "both" else (mode,)
    tol = None if args.tol is None else TOL.check(args.tol)  # None: one printed unit
    rows = []
    mismatch = False
    for m in run_modes:
        t = tables.generate_table(args.id, m)
        for r in t.rows:
            flags = r.matches(tol)
            row = dict(r.inputs)
            for k, v in r.outputs.items():
                row[k] = v
                if mode == "both":
                    row[f"{k}_printed"] = r.expected[k]
                    row[f"{k}_match"] = flags[k]
            row["provenance"] = r.provenance
            rows.append(row)
            mismatch |= not all(flags.values())
    return {"id": args.id, "mode": mode}, rows, 1 if (mode == "both" and mismatch) else 0


def _indices(rep) -> dict:
    """The scalar fields of a clone or deletion report, in field order:
    every field after its three marginals."""
    return dict(zip(rep._fields[3:], rep[3:]))


def cmd_clone(args):
    options = FAMILIES[args.family].params
    spec = MachineSpec(args.family, tuple(getattr(args, name) for name in options))
    d = DIM.check(args.dim) if "dim" in options else 2  # else a qubit input
    params = {"family": spec.family, "alpha2": args.alpha2}
    amps = np.zeros(d, dtype=complex)
    amps[:2] = deleters.real_inputs(args.alpha2)
    if args.phase is not None:
        # an equatorial input: --phase replaces --alpha2
        params.update(alpha2=0.5, phase=FINITE.check(args.phase, "--phase"))
        amps[:2] = 1 / math.sqrt(2), np.exp(1j * args.phase) / math.sqrt(2)
    rep = clone_report(spec, StateVector((d,), amps))
    return params, [{"family": spec.family, "alpha2": params["alpha2"], **_indices(rep)}], 0


def _deleter_spec(family: str, options: dict) -> DeleterSpec:
    """The spec of a deleter family, each parameter by name from ``options``
    (sdep's amplitudes from the source's worked example), up to the first one
    without a value: it and every later one keep their defaults."""
    values = {**dict(zip(("a0", "a1", "b0", "b1"), deleters.SDEP_EXAMPLE)), **options}
    names = itertools.takewhile(values.__contains__, deleters.DELETERS[family].params)
    return DeleterSpec(family, tuple(values[name] for name in names))


def cmd_delete(args):
    spec = _deleter_spec(args.family, dict(vars(args), blank=BlankState(args.m1, args.m2)))
    psi = StateVector((2,), deleters.real_inputs(args.alpha2))
    rep = deleters.delete_report(spec, psi, n_transformers=args.transformers)
    params = {
        "family": args.family,
        "alpha2": args.alpha2,
        "transformers": args.transformers,
    }
    return params, [{**params, **_indices(rep)}], 0


def cmd_hybrid(args):
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
    return vars_clean(args), rows, 0


def cmd_broadcast(args):
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
    return vars_clean(args), rows, 0


def cmd_concat(args):
    cloner = MachineSpec(args.cloner, tuple(getattr(args, name) for name in FAMILIES[args.cloner].params))
    spec = concat.PipelineSpec(cloner, _deleter_spec(args.deleter, vars(args)))
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
    return vars_clean(args), rows, 0


def cmd_verify(args):
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
    return {"scope": args.scope}, rows, 0 if s["failed"] == 0 else 1, s


def vars_clean(args) -> dict:
    skip = {"func", "format", "out", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _table_arguments(p):
    p.set_defaults(func=cmd_table)
    p.add_argument("--id", required=True, choices=tables.TABLE_IDS)
    p.add_argument("--mode", choices=("closed_form", "simulate", "both"), default="both")
    p.add_argument("--tol", type=float, help="override the printed-precision matching tolerance")


def _clone_arguments(p):
    p.set_defaults(func=cmd_clone)
    p.add_argument("--family", required=True, choices=CLONE_FAMILIES)
    p.add_argument("--alpha2", type=float, default=0.5)
    p.add_argument("--phase", type=float, help="equatorial input phase instead of alpha2")
    p.add_argument("--xi", type=float, default=1 / 6)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--copies", type=int, default=3)
    p.add_argument("--blank-index", type=int, default=0)


def _delete_arguments(p):
    p.set_defaults(func=cmd_delete)
    p.add_argument("--family", required=True, choices=tuple(deleters.DELETERS))
    p.add_argument("--alpha2", type=float, default=0.5)
    p.add_argument("--transformers", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--lam", type=float, default=0.25)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=0.0)


def _hybrid_arguments(p):
    p.set_defaults(func=cmd_hybrid)
    p.add_argument("--kind", required=True, choices=("pauli", "anti", "bhbh", "pc"))
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--xi", type=float, default=1 / 6)
    p.add_argument("--alpha2", type=float, default=0.5)


def _broadcast_arguments(p):
    p.set_defaults(func=cmd_broadcast)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha2", type=float, default=0.5)
    p.add_argument("--interval", action="store_true", help="report the separability intervals")


def _concat_arguments(p):
    p.set_defaults(func=cmd_concat)
    p.add_argument("--cloner", choices=("wz", "bh"), default="bh")
    p.add_argument("--deleter", choices=concat.CONDITIONAL_DELETERS, default="pb")
    p.add_argument("--xi", type=float, default=1 / 6)
    p.add_argument("--alpha2", type=float, default=0.5)


def _verify_arguments(p):
    p.set_defaults(func=cmd_verify)
    p.add_argument("scope", nargs="?", default="all")


# subcommand -> (its help line, the adder of its own arguments and function)
COMMANDS = {
    "table": ("regenerate one of the reference tables", _table_arguments),
    "clone": ("run a cloning machine on one input", _clone_arguments),
    "delete": ("run a deletion machine on identical copies", _delete_arguments),
    "hybrid": ("hybrid machine fidelities", _hybrid_arguments),
    "broadcast": ("entanglement broadcasting quantities", _broadcast_arguments),
    "concat": ("clone-then-delete pipeline", _concat_arguments),
    "verify": ("run the regression suite", _verify_arguments),
}


def _subcommands():
    """A qclone parser whose subcommands are only names and help lines, all
    that its help, usage and errors print, and its subparser per subcommand,
    which :func:`_add_arguments` completes."""
    parser = argparse.ArgumentParser(
        prog="qclone",
        description="Quantum cloning/deletion machine simulations and table regeneration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in COMMANDS.items():
        sub.add_parser(name, help=help_line)
    return parser, sub.choices


def _add_arguments(subparser, command: str) -> None:
    COMMANDS[command][1](subparser)
    subparser.add_argument("--format", choices=FORMATS, default="pretty")
    subparser.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """The full qclone parser: every subcommand with its arguments."""
    parser, subparsers = _subcommands()
    for command, subparser in subparsers.items():
        _add_arguments(subparser, command)
    return parser


# the parser of the process, built by the first main() call rather than at
# import; main() completes the subparser of each subcommand that runs, once
_tree = functools.cache(_subcommands)


def main(argv=None) -> int:
    """Run one subcommand, then render its rows and write them once.

    Each ``cmd_*`` returns ``(params, rows, exit_code)``; ``cmd_verify``
    appends its summary, which goes into ``meta`` too.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _tree()
    # the top-level options take no value, so the first other word names
    # the subcommand that parse_args will run, if any
    command = next((a for a in argv if not a.startswith("-")), None)
    subparser = subparsers.get(command)
    if subparser is not None and subparser.get_default("func") is None:
        _add_arguments(subparser, command)
    args = parser.parse_args(argv)
    try:
        params, rows, code, *summary = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = {"version": __version__, "command": args.command, "params": params}
    if summary:
        meta["summary"] = summary[0]
    text = _render(rows, meta, args.format)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
