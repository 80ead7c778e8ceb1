"""The reference tables are built once per process and mode, rebuilt when
their printed data change, and shared read-only between callers."""

import copy
import dataclasses
import pickle

import pytest

from qclone import broadcast as bc
from qclone import cli, tables


@pytest.fixture
def fresh_tables():
    """An empty table cache, emptied again afterwards: a test that patches a
    table computation must neither find a table built without the patch nor
    leave one built with it."""
    tables._BUILT.clear()
    yield
    tables._BUILT.clear()


def _counting_pauli_fidelities(monkeypatch):
    calls = []
    original = tables.pauli_fidelities
    monkeypatch.setattr(tables, "pauli_fidelities", lambda p: calls.append(p) or original(p))
    return calls


def test_a_second_call_computes_nothing(monkeypatch, fresh_tables):
    calls = _counting_pauli_fidelities(monkeypatch)
    first = tables.generate_table("2.1", "closed_form")
    assert calls == list(tables._T21_PRINTED)
    assert tables.generate_table("2.1", "closed_form") is first
    assert tables.generate_table("2.1") is first
    assert calls == list(tables._T21_PRINTED)
    # the simulate mode is a table of its own
    simulated = tables.generate_table("2.1", "simulate")
    assert simulated is not first
    assert {r.provenance for r in simulated.rows} == {"Simulation"}
    assert tables.generate_table("2.1", "simulate") is simulated


def test_closed_form_only_tables_share_one_entry_for_both_modes(fresh_tables):
    for table_id in tables.TABLE_IDS:
        for mode in ("closed_form", "simulate"):
            tables.generate_table(table_id, mode)
    # tables 2.2 and 3.1 have no simulation
    assert len(tables._BUILT) == 16
    assert tables.generate_table("2.2", "simulate") is tables.generate_table("2.2", "closed_form")
    assert tables.generate_table("3.1", "simulate") is tables.generate_table("3.1", "closed_form")


def _t21_cell(p: float = 0.5):
    row = next(r for r in tables.generate_table("2.1").rows if r.inputs["p"] == p)
    return row.expected["F1"], row.matches()["F1"]


def _table_exit_code(capsys) -> int:
    code = cli.main(["table", "--id", "2.1", "--mode", "both", "--format", "json"])
    capsys.readouterr()
    return code


def test_a_changed_printed_value_rebuilds_the_table(monkeypatch, capsys):
    assert _t21_cell() == (0.83, True)
    assert _table_exit_code(capsys) == 0
    printed = tables._T21_PRINTED[0.5]
    monkeypatch.setitem(tables._T21_PRINTED, 0.5, (0.80,) + printed[1:])
    assert _t21_cell() == (0.80, False)
    assert not tables.generate_table("2.1", "simulate").all_match()
    assert _table_exit_code(capsys) == 1
    monkeypatch.setitem(tables._T21_PRINTED, 0.5, printed)
    assert _t21_cell() == (0.83, True)
    assert tables.generate_table("2.1", "simulate").all_match()
    assert _table_exit_code(capsys) == 0


def test_a_changed_printed_value_recomputes_the_rows(monkeypatch, fresh_tables):
    calls = _counting_pauli_fidelities(monkeypatch)
    tables.generate_table("2.1")
    printed = tables._T21_PRINTED[0.5]
    monkeypatch.setitem(tables._T21_PRINTED, 0.5, (0.80,) + printed[1:])
    tables.generate_table("2.1")
    assert len(calls) == 2 * len(tables._T21_PRINTED)


def _contents(result):
    return [
        (dict(r.inputs), dict(r.outputs), dict(r.expected), dict(r.decimals), r.provenance)
        for r in result.rows
    ]


def test_returned_rows_are_read_only():
    result = tables.generate_table("4.1", "simulate")
    before = _contents(result)
    row = result.rows[0]
    assert isinstance(result.rows, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.rows = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.provenance = "PaperClosedForm"
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.outputs = {}
    for mapping in (row.inputs, row.outputs, row.expected, row.decimals):
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = 0.0
        with pytest.raises(TypeError):
            del mapping[key]
    with pytest.raises(AttributeError):
        result.rows.append(row)
    assert _contents(tables.generate_table("4.1", "simulate")) == before
    # a copy or a pickled result is equal and just as read-only
    for twin in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert twin == result
        with pytest.raises(TypeError):
            twin.rows[0].outputs["F_pos"] = 0.0
    # the printed decimals are the table's own, and cannot be changed through a row
    assert dict(row.decimals) == tables._TABLES["4.1"].decimals


def test_invalid_arguments_still_raise():
    tables.generate_table("2.1")
    with pytest.raises(KeyError, match="unknown table id"):
        tables.generate_table("9.9")
    with pytest.raises(ValueError, match="mode must be closed_form or simulate"):
        tables.generate_table("2.1", "both")


def test_table_33_machine_parameters_are_the_rounded_lambda_star():
    for alpha, (lam, _) in tables._T33_PRINTED.items():
        assert lam == round(bc.sd_cloner_lambda_star(alpha * alpha), 3), alpha
    rows = tables.generate_table("3.3").rows
    assert [row.inputs["lambda"] for row in rows] == [lam for lam, _ in tables._T33_PRINTED.values()]
