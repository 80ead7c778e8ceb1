import csv
import io
import json

import pytest

from qclone.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_clone_bh_opt(capsys):
    code, out = run_cli(capsys, "clone", "--family", "bh-opt", "--alpha2", "0.5")
    assert code == 0
    assert "0.833333" in out
    assert "0.055556" in out


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["table", "--id", "9.9"])
    assert err.value.code == 2


def test_unknown_scope_is_usage_error(capsys):
    assert main(["verify", "bogus"]) == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code = main(["table", "--id", "2.4", "--format", "csv", "--mode", "closed_form", "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("lambda")
    assert len(text.strip().splitlines()) == 12


@pytest.mark.parametrize("family", ["uqcm-d", "wz-n", "pc-d", "econ", "heis-asym"])
def test_clone_dim_below_two_is_usage_error(capsys, family):
    code = main(["clone", "--family", family, "--dim", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--dim must be >= 2" in err and "Traceback" not in err


def test_clone_econ_takes_input_dim(capsys):
    # the input is a qutrit, not the default qubit
    code, out = run_cli(capsys, "clone", "--family", "econ", "--dim", "3", "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["family"] == "econ" and row["F_a"] == row["F_b"]
