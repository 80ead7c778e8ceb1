"""Every operator the program derives is a density operator.

Derived operators are not checked at run time (tests/test_checks_once.py):
a reduction of a checked ket through a checked isometry, a partial trace, a
tensor product or a unitary conjugation is Hermitian, PSD and unit-trace by
construction.  This property holds every producer to check_densities over
its domain instead, drawing each family from the per-family strategies of
the batched-report tests; a family without a strategy fails it.  The
closed-form operators are derived values too: built from checked scalars,
they run no check at all, and their own property below holds each of them
to check_densities over its whole domain, ends included.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qclone import broadcast as bc
from qclone import cloners, concat, deleters
from qclone.cloners import MachineSpec
from qclone.deleters import DeleterSpec
from qclone.qcore import (
    ALPHA2,
    DensityOperator,
    StateVector,
    _x_state,
    apply_isometry,
    check_densities,
    partial_trace,
)
from test_cloners import ONE_TO_M_PARAMS, one_to_m_cases
from test_concat import pipeline_state
from test_deleters import DELETER_PARAMS, deleter_cases

TWO_TO_M_PARAMS = {"mixed-23": st.just(()), "mixed-2m": st.tuples(st.integers(3, 6))}


@st.composite
def two_to_m_cases(draw):
    """A 2->M spec and a random density matrix of random rank on its input."""
    family = draw(st.sampled_from(sorted(TWO_TO_M_PARAMS)))
    spec = MachineSpec(family, draw(TWO_TO_M_PARAMS[family]))
    d = math.prod(cloners.build_machine(spec).in_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (d, draw(st.integers(1, d)))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = a @ a.conj().T
    return spec, m / np.trace(m)


# a complex alpha with |alpha|^2 in [0, 1]
alphas = st.builds(
    lambda a2, phase: math.sqrt(a2) * complex(math.cos(phase), math.sin(phase)),
    st.floats(ALPHA2.least, ALPHA2.most),
    st.floats(0.0, 2 * math.pi),
)
protocol_cases = st.tuples(alphas, st.sampled_from(bc.BRANCHES))  # and a branch


@st.composite
def broadcast_cases(draw):
    """Four real amplitudes of a normalized two-qubit input, and a lambda of
    the machine regime [1/6, 1/2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=4)
    return amps / np.linalg.norm(amps), draw(st.floats(1 / 6, 0.5))


PIPELINE_CLONERS = st.one_of(
    st.just(MachineSpec("wz")),
    st.just(MachineSpec("bh-opt")),
    st.tuples(st.floats(cloners.XI.least, cloners.XI.most)).map(lambda p: MachineSpec("bh", p)),
)
PIPELINE_DELETERS = st.sampled_from(concat.CONDITIONAL_DELETERS).flatmap(
    lambda family: DELETER_PARAMS[family].map(lambda p: DeleterSpec(family, p))
)
pipeline_cases = st.tuples(
    st.builds(concat.PipelineSpec, PIPELINE_CLONERS, PIPELINE_DELETERS), st.floats(ALPHA2.least, ALPHA2.most)
)


def _clone_ops(spec, kets):
    reps = cloners.clone_reports(spec, kets)
    rep = cloners.clone_report(spec, StateVector(kets.shape[1:], kets[0]))
    return [reps.rho_out, reps.rho_a, reps.rho_b, rep.rho_out, rep.rho_a, rep.rho_b]


def _two_to_m_ops(spec, mat):
    machine = cloners.build_machine(spec)
    out = apply_isometry(machine, DensityOperator(machine.in_dims, mat))
    return [out, partial_trace(out, [0, 1])] + [partial_trace(out, [k]) for k in range(len(out.dims))]


def _delete_ops(spec, kets, n_transformers):
    reps = deleters.delete_reports(spec, kets, n_transformers)
    psi = StateVector((2,), kets[0])
    rep = deleters.delete_report(spec, psi, n_transformers)
    ops = [reps.rho_1, reps.rho_2, reps.rho_3, rep.rho_1, rep.rho_2, rep.rho_3]
    if spec.family == "pb":
        ops.append(deleters.pb_with_transformer(deleters._spec_blank(spec), psi)[0])
    return [op for op in ops if op is not None]


def _protocol_ops(alpha, branch):
    out = bc.three_qubit_protocol(alpha, branch)
    ops = [getattr(out, name) for name in bc.ProtocolState._fields if name.startswith("rho_")]
    for outcome in ("B1+", "B1-", "B2+", "B2-"):
        ops.append(bc.swap_extend(out.rho_325, outcome)[1])
    return [op for op in ops if op is not None] + [bc.relabel_325_to_357(out.rho_325)]


def _broadcast_ops(amps, lam):
    machine = bc.broadcast_outputs_machine(amps, lam)
    channel = bc.broadcast_channel_matrices(amps, lam)
    return list(machine.values()) + list(channel.values()) + list(bc.broadcast_outputs(amps, lam).values())


def _pipeline_ops(spec, alpha2):
    state = pipeline_state(spec, alpha2)
    return [state.density()] + [partial_trace(state, [k]) for k in range(len(state.dims))]


PRODUCERS = {
    "clone": (one_to_m_cases(), _clone_ops),
    "two-to-m": (two_to_m_cases(), _two_to_m_ops),
    "delete": (deleter_cases(), _delete_ops),
    "protocol": (protocol_cases, _protocol_ops),
    "broadcast": (broadcast_cases(), _broadcast_ops),
    "pipeline": (pipeline_cases, _pipeline_ops),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(PRODUCERS)).flatmap(lambda kind: st.tuples(st.just(kind), PRODUCERS[kind][0])))
def test_every_derived_operator_is_a_density_operator(case):
    # a new copier or deleter family fails here until it has a strategy
    assert set(ONE_TO_M_PARAMS) | set(TWO_TO_M_PARAMS) == set(cloners.FAMILIES)
    assert set(DELETER_PARAMS) == set(deleters.DELETERS)
    kind, args = case
    for op in PRODUCERS[kind][1](*args):
        check_densities(op.mat if isinstance(op, DensityOperator) else op)


# an input alpha1|00> + beta1|11> of broadcast_outputs, either sign of
# either amplitude, bare or padded with two zeros
two_amplitude_inputs = st.floats(0.0, 2 * math.pi).flatmap(
    lambda t: st.sampled_from([(math.cos(t), math.sin(t)), (math.cos(t), math.sin(t), 0.0, 0.0)])
)
closed_form_cases = st.one_of(
    st.tuples(st.just("protocol"), alphas),
    st.tuples(
        st.just("broadcast"),
        st.tuples(two_amplitude_inputs, st.floats(bc.COPIER_LAMBDA.least, bc.COPIER_LAMBDA.most)),
    ),
)


@settings(max_examples=500, deadline=None)
@given(closed_form_cases)
@example(("protocol", 0.0))
@example(("protocol", 1.0))
@example(("protocol", -1j))
@example(("broadcast", ((0.0, 1.0), 0.0)))
@example(("broadcast", ((1.0, 0.0), 0.5)))
@example(("broadcast", ((0.0, -1.0, 0.0, 0.0), 0.5)))
@example(("broadcast", ((-1.0, 0.0, 0.0, 0.0), 0.0)))
def test_every_closed_form_operator_is_a_density_operator(case):
    """The four protocol operators of a complex alpha, and the three outputs
    of broadcast_outputs on a two-amplitude input with lambda in [0, 1/2]:
    derived values that no check guards at run time.  Each two-qubit one is
    an X state that carries the moduli of its X entries."""
    kind, args = case
    if kind == "protocol":
        ops = [fn(args) for fn in (bc.rho_146_closed, bc.rho_16_closed, bc.rho_46_closed, bc.rho_12_closed)]
    else:
        ops = list(bc.broadcast_outputs(*args).values())
    for rho in ops:
        check_densities(rho.mat)
        assert rho._x == (_x_state(rho.mat) if rho.dims == (2, 2) else None)
