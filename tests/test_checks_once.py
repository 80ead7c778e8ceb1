"""Each density matrix a producer returns passes check_densities exactly
once, and sibling marginals of one shape share one stacked check."""

import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from qclone import broadcast as bc
from qclone import cloners, deleters, hybrid, qcore, tables, verify
from qclone.cloners import MachineSpec
from qclone.deleters import BlankState, DeleterSpec
from qclone.qcore import StateVector


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


def assert_checked_once(rhos, stacks):
    for rho in rhos:
        assert sum(np.shares_memory(rho.mat, s) for s in stacks) == 1


def shapes(stacks):
    return [s.shape for s in stacks]


PSI = StateVector((2,), [math.sqrt(0.3), 1j * math.sqrt(0.7)])


def test_density_operators_check_their_stack_once(checks):
    stack = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.25, 0.75])])
    rhos = qcore.density_operators((2,), stack)
    assert shapes(checks) == [(3, 2, 2)]
    assert_checked_once(rhos, checks)


def test_a_density_operator_built_directly_is_checked(checks):
    qcore.DensityOperator((2,), np.eye(2) / 2)
    assert shapes(checks) == [(2, 2)]


@pytest.mark.parametrize("spec", [MachineSpec("bh-opt"), MachineSpec("uqcm-d", (3,))])
def test_clone_report(checks, spec):
    d = cloners.build_machine(spec).in_dims[0]
    psi = StateVector((d,), np.ones(d) / math.sqrt(d))
    rep = cloners.clone_report(spec, psi)
    assert shapes(checks) == [(1, d * d, d * d), (2, d, d)]
    assert_checked_once((rep.rho_out, rep.rho_a, rep.rho_b), checks)


@pytest.mark.parametrize("spec", [DeleterSpec("qiu"), DeleterSpec("pb"), DeleterSpec("conv", (0.3,))])
def test_delete_report(checks, spec):
    deleters.average_fidelities(spec, 0)  # cached per spec: its check is not the report's
    checks.clear()
    rep = deleters.delete_report(spec, PSI)
    m = deleters.build_deleter(spec).out_dims[2:]
    assert shapes(checks) == [(2, 2, 2)] + [(1, *m, *m)] * len(m)
    assert_checked_once([r for r in (rep.rho_1, rep.rho_2, rep.rho_3) if r is not None], checks)


def test_pb_with_transformer(checks):
    rho_2, _ = deleters.pb_with_transformer(BlankState(0.6, 0.8), PSI)
    assert shapes(checks) == [(2, 2, 2), (1, 3, 3)]
    assert_checked_once([rho_2], checks)


def test_three_qubit_protocol(checks):
    out = bc.three_qubit_protocol(0.6, "Q0Q1")
    assert shapes(checks) == [(2, 8, 8), (6, 4, 4)]
    names = [f.name for f in fields(bc.ProtocolState)[4:]]
    assert_checked_once([getattr(out, name) for name in names], checks)


def test_broadcast_outputs_machine(checks):
    out = bc.broadcast_outputs_machine([0.6, 0.0, 0.0, 0.8], 0.19)
    assert shapes(checks) == [(4, 4, 4)]
    assert_checked_once(out.values(), checks)


def test_broadcast_channel_matrices(checks):
    bc.broadcast_channel_matrices([0.6, 0.0, 0.0, 0.8], 0.19)
    assert shapes(checks) == [(2, 2, 2)]


def test_hybrid_simulation(checks):
    bh = MachineSpec("bh-opt")
    hybrid.hybrid_machine(hybrid.HybridSpec(bh, bh, 0.4))
    checks.clear()
    tables._hybrid_sim(bh, bh, 0.4)
    assert shapes(checks) == [(2, 2, 2)]


def test_clone_ancilla_entanglement_check(checks):
    assert verify.check_clone_ancilla_entanglement().passed
    assert shapes(checks) == [(2, 4, 4)]
