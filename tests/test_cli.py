import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qclone import tables
from qclone.cli import main
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


DIM_FAMILIES = ("uqcm-d", "wz-n", "pc-d", "econ", "heis-asym")


@pytest.mark.parametrize(
    "family, dim, message",
    [pytest.param(f, "1", "--dim must be >= 2", id=f) for f in DIM_FAMILIES]
    + [pytest.param(f, "7", "--dim must be <= 6", id=f"{f}-dim7") for f in DIM_FAMILIES],
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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_clone_every_family_with_default_options(capsys, family):
    # the two 2->M families take two-qubit or qutrit inputs, not the qubit
    # the command builds
    code = main(["clone", "--family", family])
    err = capsys.readouterr().err
    assert code == (2 if family in ("mixed-23", "mixed-2m") else 0)
    assert "Traceback" not in err
    assert ("error:" in err) == (code == 2)


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


def test_tol_is_a_table_option_only(capsys):
    with pytest.raises(SystemExit) as err:
        main(["clone", "--family", "bh-opt", "--tol", "3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert main(["table", "--id", "2.1", "--mode", "closed_form", "--tol", "0.1"]) == 0


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
    "clone": [["--family", f] for f in sorted(FAMILIES)],
    "delete": [["--family", f] for f in ("pb", "qiu", "conv", "sdep")],
    "hybrid": [["--kind", k] for k in ("pauli", "anti", "bhbh", "pc")],
    "broadcast": [[], ["--interval"]],
    "concat": [["--cloner", c, "--deleter", d] for c in ("wz", "bh") for d in ("pb", "sdep")],
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
