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

from qclone import cli, concat, deleters, tables
from qclone.cli import CLONE_FAMILIES, main
from qclone.cloners import FAMILIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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


def test_delete_nan_blank_names_the_blank_state(capsys):
    assert main(["delete", "--family", "pb", "--m1", "nan"]) == 2
    err = capsys.readouterr().err
    assert "blank state must satisfy m1^2 + |m2|^2 = 1" in err and "Traceback" not in err


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


def test_table_exit_code_reflects_matches(capsys):
    code, _ = run_cli(capsys, "table", "--id", "4.2", "--mode", "both")
    assert code == 0


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


def test_verify_scope_measures(capsys):
    code, out = run_cli(capsys, "verify", "measures", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["summary"]["failed"] == 0


def test_verify_scope_qcore(capsys):
    code, out = run_cli(capsys, "verify", "qcore", "--format", "json")
    assert code == 0


def test_usage_error_exit_code(capsys):
    for argv in (["table", "--id", "9.9"], ["clone", "--family", "bogus"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_unknown_scope_is_usage_error(capsys):
    assert main(["verify", "bogus"]) == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code = main(["table", "--id", "2.4", "--format", "csv", "--mode", "closed_form", "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("lambda")
    assert len(text.strip().splitlines()) == 12


# one call of each subcommand; verify runs its quickest scope
OUTPUT_CALLS = {
    "table": ["table", "--id", "2.4", "--mode", "closed_form"],
    "clone": ["clone", "--family", "bh-opt"],
    "delete": ["delete", "--family", "pb"],
    "hybrid": ["hybrid", "--kind", "anti"],
    "broadcast": ["broadcast", "--lam", "0.2"],
    "concat": ["concat"],
    "verify": ["verify", "qcore"],
}


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
    assert json.loads(out)["meta"]["params"] == {"id": "2.4", "mode": "closed_form"}


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("command", ["table", "verify"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "t.txt"
    assert main(OUTPUT_CALLS[command] + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write --out {target}: " in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


DIM_FAMILIES = [f for f, entry in FAMILIES.items() if "dim" in entry.params]


@pytest.mark.parametrize(
    "family, dim, message",
    [pytest.param(f, "1", "--dim must lie in [2, 6], got 1", id=f) for f in DIM_FAMILIES]
    + [pytest.param(f, "7", "--dim must lie in [2, 6], got 7", id=f"{f}-dim7") for f in DIM_FAMILIES],
)
def test_clone_dim_below_two_is_usage_error(capsys, family, dim, message):
    code = main(["clone", "--family", family, "--dim", dim])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


def test_clone_econ_takes_input_dim(capsys):
    # the input is a qutrit, not the default qubit
    code, out = run_cli(capsys, "clone", "--family", "econ", "--dim", "3", "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["family"] == "econ" and row["F_a"] == row["F_b"]


@pytest.mark.parametrize("family", CLONE_FAMILIES)
def test_clone_every_family_with_default_options(capsys, family):
    code = main(["clone", "--family", family])
    err = capsys.readouterr().err
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("family", sorted(set(FAMILIES) - set(CLONE_FAMILIES)))
def test_clone_does_not_offer_two_to_m_families(capsys, family):
    # the 2 -> M families take a two-qubit or qutrit input, which `clone`
    # does not build; they stay in the catalog
    with pytest.raises(SystemExit) as exc:
        main(["clone", "--family", family])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["clone", "--family", "heis-asym", "--p", "1.5"],
        ["clone", "--family", "heis-asym", "--p", "-1"],
        ["broadcast", "--lam", "0.1", "--alpha2", "1.3"],
        ["hybrid", "--kind", "bhbh", "--alpha2", "0.5", "--lam", "0.05"],
        ["concat", "--xi", "0.7"],
        ["concat", "--xi", "nan"],
        ["concat", "--xi", "-1"],
        ["concat", "--alpha2", "nan"],
        ["hybrid", "--kind", "bhbh", "--alpha2", "nan", "--lam", "0.5"],
        ["hybrid", "--kind", "bhbh", "--alpha2", "0.5", "--lam", "nan"],
        ["broadcast", "--lam", "-0.1", "--interval"],
        ["broadcast", "--lam", "nan", "--interval"],
        ["clone", "--family", "bh-opt", "--alpha2", "2"],
        ["clone", "--family", "pc2", "--alpha2", "nan", "--phase", "1"],
        ["clone", "--family", "pc2", "--phase", "inf"],
        ["delete", "--family", "pb", "--alpha2", "-0.5"],
    ],
)
def test_out_of_domain_parameter_is_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "math domain error" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hybrid", "--kind", "pc", "--xi", "0.6"], "error: xi must lie in [0, 1/2], got 0.6"),
        (["hybrid", "--kind", "pc", "--xi", "nan"], "error: xi must lie in [0, 1/2], got nan"),
        (["hybrid", "--kind", "pc", "--lam", "1.5"], "error: lambda must lie in [0, 1], got 1.5"),
        (["hybrid", "--kind", "pauli", "--p", "2"], "error: p must lie in [0, 1], got 2.0"),
        (["hybrid", "--kind", "pauli", "--p", "nan"], "error: p must lie in [0, 1], got nan"),
        (["hybrid", "--kind", "pauli", "--lam", "-0.1"], "error: lambda must lie in [0, 1], got -0.1"),
        (["hybrid", "--kind", "anti", "--lam", "nan"], "error: lambda must lie in [0, 1], got nan"),
    ],
)
def test_hybrid_errors_name_the_parameter_its_domain_and_the_value(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"


def test_tol_is_a_table_option_only(capsys):
    with pytest.raises(SystemExit) as err:
        main(["clone", "--family", "bh-opt", "--tol", "3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert main(["table", "--id", "2.1", "--mode", "closed_form", "--tol", "0.1"]) == 0


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_table_rejects_a_non_finite_or_negative_tol(capsys, tol):
    assert main(["table", "--id", "2.1", "--mode", "both", "--tol", tol]) == 2
    assert f"--tol must lie in [0, inf), got {float(tol)}" in capsys.readouterr().err
    assert main(["table", "--id", "2.1", "--mode", "both", "--tol", "0.1"]) == 0


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


def test_reused_parser_after_a_usage_error_gives_a_fresh_process_output(capsys):
    argv = ["table", "--id", "3.1", "--mode", "closed_form", "--format", "json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run(
        [sys.executable, "-m", "qclone.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    with pytest.raises(SystemExit) as err:
        main(["table", "--id", "9.9"])
    assert err.value.code == 2
    assert run_cli(capsys, *argv) == (0, fresh.stdout)


def test_verify_all_leaves_numpy_random_unimported():
    # a fresh process: pytest and hypothesis import numpy.random themselves
    code = (
        "import contextlib, io, sys\n"
        "from qclone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(['verify', 'all', '--format', 'json'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["1", "False"]


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
            assert got[0] in (0, 2) and got[1] + got[2], argv
    finally:
        cli._tree.cache_clear()


def test_importing_the_cli_loads_neither_dataclasses_nor_numpy_polynomial():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, qclone.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dataclasses' or m.startswith('numpy.polynomial')))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert loaded.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "qclone").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(name.split(".")[0] == "dataclasses" for name in names), f"{path.name}:{node.lineno}"
