"""The validation policy: a matrix or a ket is checked where it enters the program.

Caller-built DensityOperators pass check_densities, X states among them,
with one eigensolve each, and so do the three broadcast outputs of an
input with gamma1 or delta1 nonzero, in one stack.  The other closed-form
operators are derived values of checked scalars and are never checked: a
two-qubit one is an X state that carries the moduli of its X entries.
Every ket a caller hands in passes check_kets once, under DENSITY_TOL.  A
matrix the program derives from checked operands (a closed form, a ket
reduction, a partial trace, a tensor product, a permutation, V rho V^dag, a
Bell-projection branch) is never checked again; tests/test_invariants.py
holds that invariant instead.  Nor is a derived ket (V|psi>, a tensor
product of kets, a normalized measurement branch).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclone import broadcast as bc
from qclone import cloners, concat, deleters, measures, qcore, tables, verify
from qclone.cloners import MachineSpec
from qclone.deleters import BlankState, DeleterSpec
from qclone.qcore import DENSITY_TOL, DensityOperator, MachineIsometry, StateVector


@pytest.fixture
def checks(monkeypatch):
    """The stacks that check_densities receives, in call order, from every
    qclone module that binds it."""
    seen = []
    check = qcore.check_densities

    def recording(mats):
        seen.append(mats)
        return check(mats)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qclone") and getattr(mod, "check_densities", None) is check:
            monkeypatch.setattr(mod, "check_densities", recording)
    return seen


def shapes(stacks):
    return [s.shape for s in stacks]


PSI = StateVector((2,), [math.sqrt(0.3), 1j * math.sqrt(0.7)])
RHO = DensityOperator((2, 2, 2), np.diag(np.arange(1.0, 9.0)) / 36)
BH = MachineSpec("bh-opt")
SDEP = DeleterSpec("sdep", deleters.SDEP_EXAMPLE)
PIPELINE = concat.PipelineSpec(MachineSpec("bh", (0.3,)), SDEP)

# every producer of a derived operator
DERIVED = {
    "StateVector.density": lambda: PSI.density(),
    "partial_trace of a ket": lambda: qcore.partial_trace(StateVector((2, 2), np.eye(4)[1]), [0]),
    "partial_trace of an operator": lambda: qcore.partial_trace(RHO, [0, 2]),
    "tensor": lambda: qcore.tensor(RHO, PSI.density()),
    "permute_subsystems": lambda: qcore.permute_subsystems(RHO, [2, 0, 1]),
    "apply_isometry to an operator": lambda: qcore.apply_isometry(cloners.build_machine(BH), PSI.density()),
    "bell_project": lambda: qcore.bell_project(RHO, (0, 1), "phi+"),
    "clone_report bh-opt": lambda: cloners.clone_report(BH, PSI),
    "clone_report uqcm-d(3)": lambda: cloners.clone_report(
        MachineSpec("uqcm-d", (3,)), StateVector((3,), np.ones(3) / math.sqrt(3))
    ),
    "clone_reports": lambda: cloners.clone_reports(BH, np.eye(2)),
    "delete_report qiu": lambda: deleters.delete_report(DeleterSpec("qiu"), PSI),
    "delete_report pb": lambda: deleters.delete_report(DeleterSpec("pb"), PSI, 1),
    "delete_report conv": lambda: deleters.delete_report(DeleterSpec("conv", (0.3,)), PSI, 2),
    "delete_reports sdep": lambda: deleters.delete_reports(SDEP, np.eye(2)),
    "pb_with_transformer": lambda: deleters.pb_with_transformer(BlankState(0.6, 0.8), PSI),
    "three_qubit_protocol": lambda: bc.three_qubit_protocol(0.6, "Q0Q1"),
    "swap_extend": lambda: bc.swap_extend(bc.three_qubit_protocol(0.6).rho_325, "B1+"),
    "broadcast_outputs_machine": lambda: bc.broadcast_outputs_machine([0.6, 0.0, 0.0, 0.8], 0.19),
    "broadcast_channel_matrices": lambda: bc.broadcast_channel_matrices([0.6, 0.0, 0.0, 0.8], 0.19),
    "run_pipeline": lambda: concat.run_pipeline(PIPELINE, 0.3),
    "pipeline_averages": lambda: concat.pipeline_averages(PIPELINE),
    "tables._hybrid_sim": lambda: tables._hybrid_sim(BH, BH, [{"lambda": 0.4}]),
    "mixed_23_composite_overlap": lambda: cloners.mixed_23_composite_overlap(PSI),
    "check_clone_ancilla_entanglement": lambda: verify.check_clone_ancilla_entanglement(),
}


@pytest.mark.parametrize("name", DERIVED)
def test_a_derived_operator_is_not_checked_again(checks, name):
    DERIVED[name]()  # warm the spec caches: a machine's build is not the producer's
    checks.clear()
    DERIVED[name]()
    assert shapes(checks) == []


def test_a_density_operator_built_from_caller_data_is_checked_once(checks):
    DensityOperator((2,), np.eye(2) / 2)
    assert shapes(checks) == [(2, 2)]


@pytest.fixture
def eigensolves(monkeypatch):
    """The shapes that np.linalg.eigvalsh receives, in call order."""
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: seen.append(a.shape) or eigvalsh(a, *args, **kw))
    return seen


# every closed form, a derived value of checked scalars: the call, and the
# number of X states it builds through qcore._derived_x (rho_146 is a
# three-qubit operator, built through qcore._derived)
CLOSED_FORMS = {
    "rho_146_closed": (lambda: bc.rho_146_closed(0.6j), 0),
    "rho_16_closed": (lambda: bc.rho_16_closed(0.6j), 1),
    "rho_46_closed": (lambda: bc.rho_46_closed(0.6), 1),
    "rho_12_closed": (lambda: bc.rho_12_closed(0.6), 1),
    "broadcast_outputs (alpha1, beta1)": (lambda: bc.broadcast_outputs((0.6, 0.8), 0.05), 3),
    "broadcast_outputs (alpha1, beta1, 0, 0)": (lambda: bc.broadcast_outputs((0.6, -0.8, 0.0, 0.0), 0.3), 3),
}


def _operators(out):
    return list(out.values()) if isinstance(out, dict) else [out]


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_closed_form_operator_runs_no_density_check_and_no_eigensolve(checks, eigensolves, name):
    make, _ = CLOSED_FORMS[name]
    out = make()
    assert shapes(checks) == [] and eigensolves == []
    if isinstance(out, dict):
        assert out["AB'"] is out["A'B"]
    # a two-qubit closed form carries the moduli of its X entries
    for rho in _operators(out):
        assert rho._x == (qcore._x_state(rho.mat) if rho.dims == (2, 2) else None)


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_closed_form_operator_computes_its_moduli_once(monkeypatch, name):
    """One _x_moduli call per qcore._derived_x: the measures read the
    moduli that a closed form carries instead of computing them again."""
    calls, built = [], []
    moduli, derived_x = qcore._x_moduli, qcore._derived_x
    monkeypatch.setattr(qcore, "_x_moduli", lambda *x: calls.append(x) or moduli(*x))
    monkeypatch.setattr(bc, "_derived_x", lambda m: built.append(m) or derived_x(m))
    make, count = CLOSED_FORMS[name]
    for rho in _operators(make()):
        if rho.dims == (2, 2):
            measures.concurrence_2q(rho)  # reads the carried moduli
    assert len(calls) == len(built) == count


def test_a_four_amplitude_broadcast_input_is_checked_in_one_stack(checks):
    out = bc.broadcast_outputs([0.6, 0.0, 0.0, 0.8], 0.19)
    assert shapes(checks) == [(3, 4, 4)] and all(rho._x is None for rho in out.values())
    assert out["AB'"] is out["A'B"]
    assert sum(np.shares_memory(rho.mat, checks[0]) for rho in out.values()) == 4  # AB' is A'B


def test_a_four_amplitude_broadcast_input_can_fail_its_check():
    """0.6|00> + 0.8|01> at lambda = 0.05, below the machine regime: the
    local pairs are not positive, and the stacked check says so."""
    with pytest.raises(ValueError, match="^density operator has a significantly negative eigenvalue$"):
        bc.broadcast_outputs((0.6, 0, 0, 0.8), 0.05)


def test_herbert_ensembles_are_checked(checks, eigensolves):
    """Two caller-built X states: the general tests, one eigensolve each."""
    measures.herbert_ensembles()
    assert shapes(checks) == [(4, 4), (4, 4)] and eigensolves == [(4, 4), (4, 4)]


# input row -> (clone_reports verdict, delete_reports verdict): None accepts,
# a string is the check_kets message that rejects.  1 + 4e-8 is inside the
# tolerance (|psi|^2 - 1 = 8e-8); the pair psi x psi that the deleter
# derives from it (1.6e-7) is not checked again.
KET_VERDICTS = [
    ([1.001, 0.0], "not normalized", "not normalized"),
    ([math.nan, 0.0], "amplitudes must be finite", "amplitudes must be finite"),
    ([1 + 4e-8, 0.0], None, None),
]


@pytest.mark.parametrize("row, clone_verdict, delete_verdict", KET_VERDICTS, ids=str)
def test_the_drivers_check_their_input_kets(checks, monkeypatch, row, clone_verdict, delete_verdict):
    seen = []
    check_kets = qcore.check_kets
    for mod in (qcore, cloners, deleters):
        monkeypatch.setattr(mod, "check_kets", lambda amps: seen.append(amps) or check_kets(amps))
    for run, verdict in (
        (lambda: cloners.clone_reports(BH, [[1.0, 0.0], row]), clone_verdict),
        (lambda: deleters.delete_reports(DeleterSpec("pb"), [[1.0, 0.0], row]), delete_verdict),
    ):
        seen.clear()
        if verdict is None:
            run()
        else:
            with pytest.raises(ValueError, match=verdict):
                run()
        assert len(seen) == 1
    assert shapes(checks) == []


@pytest.fixture
def ket_checks(monkeypatch):
    """The stacks that check_kets receives, in call order, from every qclone
    module that binds it (StateVector's check included)."""
    seen = []
    check = qcore.check_kets

    def recording(amps):
        seen.append(amps)
        return check(amps)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qclone") and getattr(mod, "check_kets", None) is check:
            monkeypatch.setattr(mod, "check_kets", recording)
    return seen


def _average_fidelities():
    deleters.average_fidelities.cache_clear()
    return deleters.average_fidelities(DeleterSpec("conv", (0.3,)), 1)


# every producer of a derived ket, or of operators from derived kets
DERIVED_KETS = {
    "apply_isometry to a ket": lambda: qcore.apply_isometry(cloners.build_machine(BH), PSI),
    "tensor of kets": lambda: qcore.tensor(PSI, PSI),
    "three_qubit_protocol": lambda: bc.three_qubit_protocol(0.6, "Q0Q1"),
    "swap_extend": lambda: bc.swap_extend(RHO, "B1+"),
    "average_fidelities": _average_fidelities,
    # a StateVector's ket was checked when it was built
    "clone_report": lambda: cloners.clone_report(BH, PSI),
    "delete_report": lambda: deleters.delete_report(DeleterSpec("conv", (0.3,)), PSI, 1),
}


@pytest.mark.parametrize("name", DERIVED_KETS)
def test_a_derived_ket_is_not_checked_again(ket_checks, name):
    DERIVED_KETS[name]()  # warm the spec caches
    ket_checks.clear()
    DERIVED_KETS[name]()
    assert shapes(ket_checks) == []


def test_input_ket_checks_its_amplitudes_once(ket_checks):
    psi = bc.input_ket((0.6, 0.8))
    assert shapes(ket_checks) == [(4,)]
    assert np.array_equal(psi.amps, [0.6, 0, 0, 0.8])


def test_a_derived_ket_is_one_ket():
    """The unchecked ket constructor never receives a stack, which
    StateVector's length check used to reject."""
    stack = MachineIsometry((2,), (2, 2), np.stack([np.eye(4)[:, :2]] * 3))
    with pytest.raises(ValueError, match="takes one machine, not a stack of 3"):
        qcore.apply_isometry(stack, PSI)
    with pytest.raises(ValueError, match="need one input, not a stack"):
        bc.input_ket([[0.6, 0.8], [1.0, 0.0]])


def test_a_ket_inside_the_tolerance_passes_through_its_derived_kets():
    a = StateVector((2,), [1 + 4e-8, 0])  # |a|^2 - 1 = 8e-8, a x a deviates by 1.6e-7
    assert qcore.tensor(a, a).dims == (2, 2)
    assert deleters.delete_report(DeleterSpec("pb"), a).F_1 > 0.99
    off = 0.6 * (1 + 1e-8)  # |psi|^2 - 1 = 7.2e-9
    assert bc.input_ket((off, 0.8)).amps[0] == off
    assert len(cloners.ying_indices(2, [off, 0.8])) == 4
    assert cloners.cerf_reparam([off, 0.8, 0.0, 0.0]).shape == (4,)
    assert BlankState(off, 0.8).m1 == off


R2 = np.array([0.6, 0.8])
C2 = np.array([0.6, 0.8j])
R3 = np.array([2.0, 1.0, 2.0]) / 3
R4 = np.array([0.5, 0.5, -0.5, 0.5])
C4 = np.array([0.5, 0.5j, -0.5, 0.5])

# every entry of a ket from a caller: (the call on one ket, a unit ket it takes)
KET_ENTRIES = {
    "StateVector": (lambda k: StateVector((2, 2), k), C4),
    "clone_reports": (lambda k: cloners.clone_reports(BH, [C2, k]), C2),
    "delete_reports": (lambda k: deleters.delete_reports(DeleterSpec("pb"), [C2, k]), C2),
    "input_amps": (bc.input_amps, R4),
    "input_ket": (bc.input_ket, R2),
    "nonlocal_coefficients": (lambda k: bc.nonlocal_coefficients([R2, k], 0.2), R2),
    "broadcast_output_matrices": (lambda k: bc.broadcast_output_matrices(k, 0.2), R4),
    "ying_indices": (lambda k: cloners.ying_indices(3, k), R3),
    "cerf_reparam": (cloners.cerf_reparam, C4),
    "BlankState": (lambda k: BlankState(k[0].real, k[1]), C2),
}


def _rejection(name, amps):
    """The message of KET_ENTRIES[name] on amps, or None if it accepts them."""
    try:
        KET_ENTRIES[name][0](amps)
    except ValueError as exc:
        return str(exc)
    return None


@given(
    st.floats(-2 * DENSITY_TOL, 2 * DENSITY_TOL).filter(
        lambda dev: abs(abs(dev) - DENSITY_TOL) > 1e-6 * DENSITY_TOL
    )
)
@example(DENSITY_TOL * (1 - 2e-6))
@example(DENSITY_TOL * (1 + 2e-6))
@example(-DENSITY_TOL * (1 - 2e-6))
@example(-DENSITY_TOL * (1 + 2e-6))
@example(1e-8)
@settings(max_examples=40, deadline=None)
def test_every_ket_entry_draws_the_same_line(dev):
    """|psi|^2 = 1 + dev: every entry accepts within DENSITY_TOL, and rejects
    outside it with the message of check_kets (BlankState with its own)."""
    for name, (_, unit) in KET_ENTRIES.items():
        message = _rejection(name, unit * math.sqrt(1 + dev))
        if abs(dev) < DENSITY_TOL:
            assert message is None, name
        else:
            expected = "blank state must satisfy" if name == "BlankState" else "state vector is not normalized"
            assert message is not None and message.startswith(expected), name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("name", KET_ENTRIES)
def test_every_ket_entry_rejects_a_non_finite_amplitude(name, bad):
    amps = KET_ENTRIES[name][1].copy()
    amps[0] = bad
    expected = "blank state must satisfy" if name == "BlankState" else "amplitudes must be finite"
    assert _rejection(name, amps).startswith(expected)
