"""The reference tables are built once per process and mode, rebuilt when
their printed data change, and shared read-only between callers; each
simulated column is one machine stack, equal row by row to one machine per
row."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from qclone import broadcast as bc
from qclone import cli, cloners, deleters, hybrid, qcore, tables
from qclone.cloners import MachineSpec
from qclone.deleters import BlankState, DeleterSpec
from qclone.measures import overlap


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


# ---------------------------------------------------------------------------
# the simulated columns are machine stacks; each row equals a one-machine run

_KET = [math.sqrt(0.3), math.sqrt(0.7)]
_HYBRID_KET = np.array([math.sqrt(0.42), math.sqrt(0.58)], dtype=complex)


def _diff(f1, f2):
    return f1, f2, abs(round(f1, 2) - round(f2, 2))


def _hybrid_row(first, second, lam):
    machine = hybrid.hybrid_machine(hybrid.HybridSpec(first, second, lam))
    out = machine.matrix @ _HYBRID_KET
    return tuple(overlap(_HYBRID_KET, qcore.reduce_ket(out, machine.out_dims, [k])) for k in (0, 1))


def _limit_row(n_transformers, m1sq):
    m1, m2 = math.sqrt(m1sq), math.sqrt(1 - m1sq)
    psi = qcore.StateVector((2,), _KET)
    return tuple(
        deleters.delete_report(DeleterSpec("conv", (0.5 - 1e-6, blank)), psi, n_transformers).F_2
        for blank in (BlankState(m1, m2), BlankState(m1, -m2))
    )


def _t33_row(a, lam):
    amps = (a, math.sqrt(1 - a * a))
    return (overlap(bc.input_ket(amps), bc.broadcast_channel_matrices(amps, lam)["AB'"]),)


def _pauli_row(p):
    rep = cloners.clone_report(MachineSpec("pauli-asym", (p,)), qcore.StateVector((2,), _KET))
    return _diff(rep.F_a, rep.F_b)


# table id -> the simulated row from one machine per row, through the public
# single-spec entry points, as the tables computed it before stacks
PER_ROW_ORACLES = {
    "2.1": _pauli_row,
    "2.3": lambda p, lam: _hybrid_row(MachineSpec("pauli-asym", (p,)), MachineSpec("bh-opt"), lam),
    "2.4": lambda lam: _diff(*_hybrid_row(MachineSpec("bh-opt"), MachineSpec("anti"), lam)),
    "3.3": _t33_row,
    "4.1": lambda m1sq: _limit_row(1, m1sq),
    "4.2": lambda m1sq: _limit_row(2, m1sq),
}


@pytest.mark.parametrize("table_id", sorted(PER_ROW_ORACLES))
def test_every_stacked_column_row_equals_its_one_machine_run(fresh_tables, table_id):
    rows = tables.generate_table(table_id, "simulate").rows
    for row in rows:
        expected = PER_ROW_ORACLES[table_id](*row.inputs.values())
        assert np.array_equal(tuple(row.outputs.values()), expected), row.inputs
        assert all(type(v) is float for v in row.outputs.values())


# table id -> the builder calls of its simulation; 2.2, 3.1 and 3.2 build none
STACK_CALLS = {
    "2.1": {"_one_to_two_copier": 1},
    "2.3": {"_one_to_two_copier": 1, "hybrid_machine": 1},
    "2.4": {"hybrid_machine": 1},
    "3.3": {"broadcast_channel_matrices": 1},
    "4.1": {"realize_gram": 1},
    "4.2": {"realize_gram": 1},
}


@pytest.mark.parametrize("table_id", tables.TABLE_IDS)
def test_a_simulated_table_builds_one_stack(monkeypatch, fresh_tables, table_id):
    """With every cache cleared, a simulated table makes one builder call or
    one Gram realization for all its rows, so no per-row loop comes back."""
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # realize_gram is counted where each builder looks it up
    for module, name in (
        (cloners, "realize_gram"),
        (deleters, "realize_gram"),
        (cloners, "_one_to_two_copier"),
        (hybrid, "hybrid_machine"),
        (bc, "broadcast_channel_matrices"),
    ):
        counting(module, name)
    cloners.build_machine.cache_clear()
    deleters._deleter_parts.cache_clear()
    deleters.average_fidelities.cache_clear()
    tables.generate_table(table_id, "simulate")
    assert calls == STACK_CALLS.get(table_id, {})
