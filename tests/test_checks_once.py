"""The validation policy: a matrix is checked where it enters the program.

Caller-built DensityOperators and the closed-form operators pass
check_densities; kets from a caller pass check_kets.  A matrix the program
derives from checked operands (a ket reduction, a partial trace, a tensor
product, a permutation, V rho V^dag, a Bell-projection branch) is never
checked again; tests/test_invariants.py holds that invariant instead.
"""

import math
import sys

import numpy as np
import pytest

from qclone import broadcast as bc
from qclone import cloners, concat, deleters, measures, qcore, tables, verify
from qclone.cloners import MachineSpec
from qclone.deleters import BlankState, DeleterSpec
from qclone.qcore import DensityOperator, StateVector


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


def test_broadcast_outputs_check_their_three_operators_in_one_stack(checks):
    out = bc.broadcast_outputs([0.6, 0.0, 0.0, 0.8], 0.19)
    assert shapes(checks) == [(3, 4, 4)]
    assert sum(np.shares_memory(rho.mat, checks[0]) for rho in out.values()) == 4  # AB' is A'B


@pytest.mark.parametrize(
    "closed_form",
    [bc.rho_146_closed, bc.rho_16_closed, bc.rho_46_closed, bc.rho_12_closed],
    ids=lambda fn: fn.__name__,
)
def test_a_closed_form_operator_is_checked_once(checks, closed_form):
    rho = closed_form(0.6)
    assert shapes(checks) == [rho.mat.shape]


def test_herbert_ensembles_are_checked(checks):
    measures.herbert_ensembles()
    assert shapes(checks) == [(4, 4), (4, 4)]


# input row -> (clone_reports verdict, delete_reports verdict): None accepts,
# a string is the check_kets message that rejects.  1 + 4e-8 is inside the
# tolerance as a ket (|psi|^2 - 1 = 8e-8) but not as the pair psi x psi
# that the deleter receives (1.6e-7).
KET_VERDICTS = [
    ([1.001, 0.0], "not normalized", "not normalized"),
    ([math.nan, 0.0], "amplitudes must be finite", "amplitudes must be finite"),
    ([1 + 4e-8, 0.0], None, "not normalized"),
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
