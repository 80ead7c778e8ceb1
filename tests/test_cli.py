import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qclone import cli, concat, deleters, tables, verify
from qclone.cli import CLONE_FAMILIES, main
from qclone.cloners import FAMILIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


ROOT = Path(__file__).resolve().parents[1]


def fresh(*args):
    """A started interpreter that runs ``args`` on the checkout's src, with a
    RuntimeWarning an error; read it with ``communicate()``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def test_clone_bh_opt(capsys):
    code, out = run_cli(capsys, "clone", "--family", "bh-opt", "--alpha2", "0.5")
    assert code == 0
    assert "0.833333" in out
    assert "0.055556" in out


def test_clone_phase_reports_the_equatorial_input(capsys):
    code, out = run_cli(
        capsys, "clone", "--family", "bh-opt", "--phase", "1", "--alpha2", "0.3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["params"] == {"family": "bh-opt", "alpha2": 0.5, "phase": 1.0}
    assert doc["rows"][0]["alpha2"] == 0.5
    assert abs(doc["rows"][0]["F_a"] - 5 / 6) < 1e-12


def test_delete_pb(capsys):
    code, out = run_cli(capsys, "delete", "--family", "pb", "--alpha2", "0.5")
    assert code == 0
    assert "0.500000" in out and "0.750000" in out


def test_broadcast_interval(capsys):
    code, out = run_cli(capsys, "broadcast", "--lambda", "0.1666667", "--interval")
    assert code == 0
    # endpoints are 1/2 -+ sqrt(39)/16 = 0.109688 / 0.890312 at this lambda
    assert "0.1096" in out
    assert "0.8903" in out


def test_table_json_roundtrip(capsys):
    code, out = run_cli(capsys, "table", "--id", "2.1", "--mode", "both", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "table"
    assert doc["meta"]["params"]["id"] == "2.1"
    assert len(doc["rows"]) == 22  # closed form + simulation
    assert json.loads(json.dumps(doc)) == doc
    assert all(row["F1_match"] for row in doc["rows"])


def test_table_csv_deterministic(capsys):
    code1, out1 = run_cli(capsys, "table", "--id", "3.1", "--format", "csv", "--mode", "closed_form")
    code2, out2 = run_cli(capsys, "table", "--id", "3.1", "--format", "csv", "--mode", "closed_form")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 9
    assert rows[0]["alpha"] == "0.100000"
    assert "." in rows[0]["D_a"] and "," not in rows[0]["D_a"]


def test_hybrid_subcommand(capsys):
    code, out = run_cli(capsys, "hybrid", "--kind", "anti", "--lam", "0.5")
    assert code == 0
    assert "0.750000" in out
    code, out = run_cli(capsys, "hybrid", "--kind", "bhbh", "--alpha2", "0.5", "--lam", "0.8")
    assert code == 0 and "0.81" in out


def test_concat_subcommand(capsys):
    code, out = run_cli(capsys, "concat", "--cloner", "bh", "--deleter", "pb", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rows"][0]["avg_D"] - 11 / 32) < 1e-9
    assert abs(doc["rows"][0]["avg_F"] - 7 / 8) < 1e-9


def test_a_key_error_inside_a_command_is_not_a_usage_error(monkeypatch):
    def broken(scope):
        raise KeyError("a bug")

    monkeypatch.setattr(verify, "run", broken)
    with pytest.raises(KeyError, match="a bug"):
        main(["verify", "qcore"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code = main(["table", "--id", "2.4", "--format", "csv", "--mode", "closed_form", "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("lambda")
    assert len(text.strip().splitlines()) == 12


# every subcommand's real output, with its exit code: each table in both
# modes, each verify scope and all (broadcast holds the expected finding, so
# both exit 1), every variant the CLI offers, and four builder edge points
VALID_CALLS = [
    *((f"table --id {tid} --mode both", 0) for tid in tables.TABLE_IDS),
    *((f"verify {scope}", int(scope == "broadcast")) for scope in verify._SCOPES),
    ("verify all", 1),
    *((f"clone --family {family}", 0) for family in CLONE_FAMILIES),
    *((f"delete --family {f} --transformers {t}", 0) for f in deleters.DELETERS for t in "012"),
    *((f"hybrid --kind {kind}", 0) for kind in ("pauli", "anti", "bhbh", "pc")),
    *((f"concat --cloner {c} --deleter {d}", 0) for c in ("wz", "bh") for d in concat.CONDITIONAL_DELETERS),
    ("broadcast --lam 0.2", 0),
    ("broadcast --lam 0.2 --interval", 0),
    ("clone --family bh --xi 0.5", 0),  # the rank-2 machine
    ("delete --family pb --m1 0.6 --m2 0.8", 0),
    ("delete --family sdep --m1 0.6 --m2 0.8 --transformers 1", 0),
    ("concat --cloner bh --xi 0.5 --deleter sdep", 0),
]


def _dumps(rows, meta):
    return json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"


# each call runs once in json and once in the default format, pretty
@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("call, code", VALID_CALLS, ids=[call for call, _ in VALID_CALLS])
def test_every_valid_call_exits_with_its_code_and_prints_its_rows(monkeypatch, capsys, call, code, fmt):
    argv = call.split()
    seen = []
    render = cli._render

    def capture(rows, meta, fmt):
        seen.append((rows, meta))
        return render(rows, meta, fmt)

    monkeypatch.setattr(cli, "_render", capture)
    assert main(argv + (["--format", "json"] if fmt == "json" else [])) == code
    captured = capsys.readouterr()
    assert captured.err == "" or argv[0] == "verify"  # verify reports each check on stderr
    ((rows, meta),) = seen
    # the json renderer's precondition: no cell holds a container
    assert rows and all(type(row) is dict for row in rows)
    assert all(isinstance(v, (str, int, float, type(None))) for row in rows for v in row.values())
    assert captured.out == (_dumps(rows, meta) if fmt == "json" else render(rows, meta, "pretty"))
    if argv[0] == "verify":
        checks = [fn for scope, fns in verify._SCOPES.items() if argv[1] in (scope, "all") for fn in fns]
        summary = meta["summary"]
        assert summary["expected_findings"] == (list(verify.EXPECTED_FINDINGS) if code else [])
        assert summary["unexpected_failures"] == []
        assert (summary["failed"], summary["passed"]) == (code, len(checks) - code)


# each must exit 2 with an error line. The message is the whole line that
# main prints after "error: ", or a part of the line of an error that
# argparse raises itself, whose wording varies between Python versions.
INVALID_CALLS = [
    ("clone --family bh --xi nan", "xi must lie in [0, 1/2], got nan"),
    (
        "clone --family bh --xi 0.1",
        "gram matrix for ('Q0', 'Q1', 'Y0', 'Y1') is not PSD (most negative eigenvalue -0.0815)",
    ),
    ("clone --family bh-opt --alpha2 nan", "alpha^2 must lie in [0, 1], got nan"),
    ("clone --family bh-opt --alpha2 2", "alpha^2 must lie in [0, 1], got 2.0"),
    ("clone --family pc2 --alpha2 nan --phase 1", "alpha^2 must lie in [0, 1], got nan"),
    ("clone --family pc2 --phase inf", "--phase must lie in (-inf, inf), got inf"),
    ("clone --family kr --mu nan", "mu^2 must lie in [0, 0.500000000001], got nan"),
    ("clone --family heis-asym --p 1.5", "p must lie in [0, 1], got 1.5"),
    ("clone --family heis-asym --p -1", "p must lie in [0, 1], got -1.0"),
    ("clone --family heis-asym --dim 3 --p nan", "p must lie in [0, 1], got nan"),
    *(
        (f"clone --family {f} --dim {d}", f"--dim must lie in [2, 6], got {d}")
        for f, entry in FAMILIES.items()
        if "dim" in entry.params
        for d in (1, 7)
    ),
    ("clone --family bogus", "argument --family: invalid choice: 'bogus'"),
    # the 2 -> M families take a two-qubit or qutrit input, which `clone`
    # does not build; they stay in the catalog
    *((f"clone --family {f}", f"invalid choice: '{f}'") for f in sorted(set(FAMILIES) - set(CLONE_FAMILIES))),
    ("clone --family bh-opt --tol 3", "unrecognized arguments: --tol 3"),
    ("delete --family pb --m1 2 --m2 0", "blank state must satisfy m1^2 + |m2|^2 = 1"),
    ("delete --family pb --m1 nan", "blank state must satisfy m1^2 + |m2|^2 = 1"),
    ("delete --family pb --alpha2 -0.5", "alpha^2 must lie in [0, 1], got -0.5"),
    ("delete --family conv --lam nan", "lambda must lie in [0, 1/2], got nan"),
    ("delete --family conv --lam 0.7", "lambda must lie in [0, 1/2], got 0.7"),
    ("delete --family qiu --r1 nan", "the universal deleter is an isometry only for r1 = +-1; got r1 = nan"),
    (
        "hybrid --kind bhbh --alpha2 0.5 --lam 0.05",
        "lambda = 0.05 outside the admissible range [0.0625, 1] for alpha^2 = 0.5 "
        "(machine parameter 0.583333 exceeds 1/2)",
    ),
    ("hybrid --kind bhbh --alpha2 nan --lam 0.5", "alpha^2 must lie in [0, 1], got nan"),
    ("hybrid --kind bhbh --alpha2 0.5 --lam nan", "lambda must lie in (0, 1], got nan"),
    ("hybrid --kind bhbh --lam 0", "lambda must lie in (0, 1], got 0.0"),
    ("hybrid --kind pc --xi 0.6", "xi must lie in [0, 1/2], got 0.6"),
    ("hybrid --kind pc --xi nan", "xi must lie in [0, 1/2], got nan"),
    ("hybrid --kind pc --lam 1.5", "lambda must lie in [0, 1], got 1.5"),
    ("hybrid --kind pauli --p 2", "p must lie in [0, 1], got 2.0"),
    ("hybrid --kind pauli --p nan", "p must lie in [0, 1], got nan"),
    ("hybrid --kind pauli --lam -0.1", "lambda must lie in [0, 1], got -0.1"),
    ("hybrid --kind anti --lam nan", "lambda must lie in [0, 1], got nan"),
    ("concat --cloner bh --xi nan --deleter pb", "xi must lie in [0, 1/2], got nan"),
    ("concat --cloner wz --alpha2 1.5", "alpha^2 must lie in [0, 1], got 1.5"),
    ("concat --xi 0.7", "xi must lie in [0, 1/2], got 0.7"),
    ("concat --xi nan", "xi must lie in [0, 1/2], got nan"),
    ("concat --xi -1", "xi must lie in [0, 1/2], got -1.0"),
    ("concat --alpha2 nan", "alpha^2 must lie in [0, 1], got nan"),
    ("broadcast --lam nan", "lambda must lie in [0, 1/2], got nan"),
    ("broadcast --lam 0.1 --alpha2 1.3", "alpha^2 must lie in [0, 1], got 1.3"),
    ("broadcast --lam 0.2 --alpha2 nan", "alpha^2 must lie in [0, 1], got nan"),
    ("broadcast --lam 0.3 --interval", "no inseparable interval at lambda = 0.3"),
    ("broadcast --lam -0.1 --interval", "lambda must lie in [0, 1/2), got -0.1"),
    ("broadcast --lam nan --interval", "lambda must lie in [0, 1/2), got nan"),
    ("table --id 9.9", "argument --id: invalid choice: '9.9'"),
    ("table --id 2.1 --tol nan", "--tol must lie in [0, inf), got nan"),
    *(
        (f"table --id 2.1 --mode both --tol {tol}", f"--tol must lie in [0, inf), got {float(tol)}")
        for tol in ("nan", "-1", "inf")
    ),
    ("verify bogus", f"unknown scope 'bogus'; choose from {sorted(verify._SCOPES)} or 'all'"),
]


@pytest.mark.parametrize("call, message", INVALID_CALLS, ids=[call for call, _ in INVALID_CALLS])
def test_every_invalid_call_exits_2_with_its_error_line(capsys, call, message):
    try:
        code, raised = main(call.split()), False
    except SystemExit as exc:  # argparse's own errors
        code, raised = exc.code, True
    err = capsys.readouterr().err
    line = err.splitlines()[-1]
    assert code == 2 and "error: " in line
    assert not any(bad in err for bad in ("got [", "Traceback", "math domain error"))
    # main prints one line; argparse prints its usage first
    assert message in line if raised else err == f"error: {message}\n"


# the first valid call of each subcommand; each exits 0
OUTPUT_CALLS = {call.split()[0]: call.split() for call, _ in reversed(VALID_CALLS)}


@pytest.mark.parametrize("argv", OUTPUT_CALLS.values(), ids=OUTPUT_CALLS.keys())
def test_every_subcommand_shares_one_meta_and_one_write(tmp_path, capsys, argv):
    argv = argv + ["--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    meta = json.loads(out)["meta"]
    extra = {"summary"} if argv[0] == "verify" else set()
    assert set(meta) == {"version", "command", "params"} | extra
    assert meta["command"] == argv[0]
    target = tmp_path / "out.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == out


def test_table_params_leave_out_tol(capsys):
    argv = OUTPUT_CALLS["table"] + ["--tol", "0.1", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["meta"]["params"] == {"id": "2.1", "mode": "both"}


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("command", ["table", "verify"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "t.txt"
    assert main(OUTPUT_CALLS[command] + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write --out {target}: " in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_clone_econ_takes_input_dim(capsys):
    # the input is a qutrit, not the default qubit
    code, out = run_cli(capsys, "clone", "--family", "econ", "--dim", "3", "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["family"] == "econ" and row["F_a"] == row["F_b"]


def test_generate_table_takes_one_mode():
    # "both" is expanded by the table command, not by generate_table
    with pytest.raises(ValueError):
        tables.generate_table("2.1", "both")


# Numeric flags of each fuzzed subcommand, after its fixed choice options.
# verify is left out: one run takes about a second.
FUZZ_FLAGS = {
    "clone": ("--alpha2", "--phase", "--xi", "--mu", "--p", "--dim", "--copies", "--blank-index"),
    "delete": ("--alpha2", "--lam", "--r1", "--m1", "--m2"),
    "hybrid": ("--p", "--lam", "--xi", "--alpha2"),
    "broadcast": ("--lam", "--alpha2"),
    "concat": ("--xi", "--alpha2"),
}
FUZZ_CHOICES = {
    "clone": [["--family", f] for f in CLONE_FAMILIES],
    "delete": [["--family", f] for f in deleters.DELETERS],
    "hybrid": [["--kind", k] for k in ("pauli", "anti", "bhbh", "pc")],
    "broadcast": [[], ["--interval"]],
    "concat": [["--cloner", c, "--deleter", d] for c in ("wz", "bh") for d in concat.CONDITIONAL_DELETERS],
}
FUZZ_NUMBERS = ["nan", "inf", "-inf", "-0.5", "0.001", "0.25", "0.5"] + [str(i) for i in range(-2, 11)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_cleanly(data):
    sub = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [sub] + data.draw(st.sampled_from(FUZZ_CHOICES[sub]))
    flags = data.draw(st.lists(st.sampled_from(FUZZ_FLAGS[sub]), unique=True, max_size=3))
    if sub == "broadcast" and "--lam" not in flags:
        flags.append("--lam")  # required
    for flag in flags:
        argv += [flag, data.draw(st.sampled_from(FUZZ_NUMBERS))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--format", "json"])
        except SystemExit as exc:  # argparse rejects a non-integer --dim
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 0:
        rows = json.loads(out.getvalue())["rows"]
        cells = [v for row in rows for v in row.values() if isinstance(v, float)]
        assert all(math.isfinite(v) for v in cells), argv


def test_main_builds_one_parser_per_process(capsys):
    cli._tree.cache_clear()
    try:
        assert run_cli(capsys, "broadcast", "--lam", "0.1")[0] == 0
        parser, subparsers = cli._tree()
        completed = lambda: [name for name, sub in subparsers.items() if sub.get_default("func")]  # noqa: E731
        assert completed() == ["broadcast"]  # only the subcommand that ran has its arguments
        # a second run adds none (adding --lam again would raise)
        assert run_cli(capsys, "broadcast", "--lam", "0.2", "--interval")[0] == 0
        assert run_cli(capsys, "hybrid", "--kind", "anti")[0] == 0
        assert cli._tree()[0] is parser
        assert completed() == ["hybrid", "broadcast"]
    finally:
        cli._tree.cache_clear()


def test_tables_built_after_a_usage_error_and_verify_all_equal_fresh_process_tables(capsys):
    argvs = [["table", "--id", tid, "--mode", "both", "--format", "json"] for tid in tables.TABLE_IDS]
    procs = [fresh("-m", "qclone.cli", *argv) for argv in argvs]
    with pytest.raises(SystemExit) as err:
        main(["table", "--id", "9.9"])  # the parser is reused after it
    assert err.value.code == 2
    # the order of the regression benchmark: verify all, then every table
    main(["verify", "all", "--format", "json"])
    capsys.readouterr()
    for argv, proc in zip(argvs, procs):
        out, _ = proc.communicate()
        assert run_cli(capsys, *argv) == (proc.returncode, out), argv


def test_every_demo_exits_0():
    procs = {demo.name: fresh(str(demo)) for demo in sorted((ROOT / "demos").glob("*.py"))}
    assert procs
    for name, proc in procs.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, f"{name}: {err}"


def test_verify_all_leaves_numpy_random_unimported():
    # a fresh process: pytest and hypothesis import numpy.random themselves
    code = (
        "import contextlib, io, sys\n"
        "from qclone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(['verify', 'all', '--format', 'json'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    out, _ = fresh("-c", code).communicate()
    assert out.split() == ["1", "False"]


# ---------------------------------------------------------------------------
# start-up: the per-subcommand parser, and what `import qclone.cli` loads


def _parse(parse_args, argv):
    """(exit code, stdout, stderr) of one argparse call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


USAGE_ARGVS = [
    ["--help"],
    [],
    ["--version"],
    ["tabel"],
    ["table"],
    ["table", "--id", "9.9"],
    ["--format", "json", "table"],
    *([name, "--help"] for name in cli.COMMANDS),
]


def test_the_process_parser_prints_what_the_full_tree_prints():
    # main() completes the subparser of each subcommand on its first run:
    # every text is the full tree's, on that first run and after others
    cli._tree.cache_clear()
    try:
        for argv in USAGE_ARGVS + USAGE_ARGVS[::-1]:
            got = _parse(cli.main, argv)
            assert got == _parse(cli.build_parser().parse_args, argv), argv
            assert got[0] == (0 if {"--help", "--version"} & set(argv) else 2) and got[1] + got[2], argv
    finally:
        cli._tree.cache_clear()


def test_importing_the_cli_loads_neither_dataclasses_nor_numpy_polynomial():
    code = "import sys, qclone.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dataclasses' or m.startswith('numpy.polynomial')))"
    out, _ = fresh("-c", code).communicate()
    assert out.strip() == "[]"


def test_no_module_imports_dataclasses():
    for path in sorted((ROOT / "src" / "qclone").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(name.split(".")[0] == "dataclasses" for name in names), f"{path.name}:{node.lineno}"


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{}],
        [{}, {"a": 1}, {}],
        [
            {
                "nan": math.nan,
                "inf": math.inf,
                "-inf": -math.inf,
                "none": None,
                "yes": True,
                "no": False,
                "int": -3,
                "tiny": 5e-324,
                "text": 'Ψ+ "quoted" \\ tab\there',
                "é": 0.1,
            }
        ],
    ],
    ids=["no rows", "one empty row", "empty rows around one", "special cells"],
)
def test_json_renderer_equals_json_dumps_on_edge_rows(rows):
    meta = {"version": "0", "command": "x", "params": {"list": [1, [2]], "empty": {}, "none": None}}
    for m in (meta, {}):
        assert cli._render(rows, m, "json") == _dumps(rows, m)
