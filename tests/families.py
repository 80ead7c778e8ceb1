"""Hypothesis strategies of the machine families' parameters, for every test
that draws a family.  Not a test module: pytest collects nothing here.

Every bound reads the library's domain constant (``XI``, ``MU2``,
``GM_COPIES``, ``MIXED_COPIES``, ``PROBABILITY``, ``CONV_LAMBDA``,
``BLANK_OVERLAP``, ``DIMENSION``).  A strategy may narrow a domain, for
cost (dimensions up to 4) or where a machine must be realizable (the
two-parameter copier from xi = 1/6), but it writes no domain of its own, so
a domain changed in ``src/`` changes the strategies with it.
"""

import math

import numpy as np
from hypothesis import strategies as st

from qclone import cloners, concat
from qclone.cloners import GM_COPIES, MIXED_COPIES, MU2, XI, MachineSpec
from qclone.deleters import BLANK_OVERLAP, CONV_LAMBDA, BlankState, DeleterSpec
from qclone.hybrid import HybridSpec
from qclone.qcore import DIMENSION, PROBABILITY


def within(dom, least=-math.inf):
    """The floats of the domain ``dom``, from ``least`` up where that is inside it."""
    return st.floats(max(dom.least, least), dom.most)


def integers(dom, most=math.inf):
    """The integers of the domain ``dom``, up to ``most`` where that is inside it."""
    return st.integers(dom.least, min(dom.most, most))


probabilities = within(PROBABILITY)
angles = st.floats(0.0, 2 * math.pi)
seeds = st.integers(0, 2**32 - 1)


def random_kets(rng, shape):
    """Random complex kets, normalized along the last axis of ``shape``."""
    kets = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return kets / np.linalg.norm(kets, axis=-1, keepdims=True)


def kets(shape):
    return seeds.map(lambda seed: random_kets(np.random.default_rng(seed), shape))


def one_to_m_params(dims):
    """The parameter strategy of every 1->M family, its dimension from ``dims``."""
    return {
        "wz": st.just(()),
        "wz-n": st.tuples(dims),
        "bh": st.tuples(within(XI, least=1 / 6)),  # the Gram is realizable from xi = 1/6
        "bh-opt": st.just(()),
        "gm-1m": st.tuples(integers(GM_COPIES)),
        "uqcm-d": st.tuples(dims),
        "pc2": st.just(()),
        "pc-d": st.tuples(dims),
        "kr": st.tuples(st.floats(0.0, math.sqrt(MU2.most))),  # MU2 checks mu^2
        "econ": dims.flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
        "pauli-asym": st.tuples(probabilities),
        "heis-asym": st.tuples(dims, probabilities),
        "anti": st.just(()),
    }


ONE_TO_M_PARAMS = one_to_m_params(integers(DIMENSION, 4))  # d <= 4: d^3 output amplitudes
QUBIT_PARAMS = one_to_m_params(st.just(DIMENSION.least))  # their d = 2 restriction
TWO_TO_M_PARAMS = {"mixed-23": st.just(()), "mixed-2m": st.tuples(integers(MIXED_COPIES))}


def _blank(m1, phase):
    return BlankState(m1, math.sqrt(1 - m1 * m1) * complex(math.cos(phase), math.sin(phase)))


def blank_states():
    """A blank m1|0> + m2|1>: m1 = <0|Sigma> real, m2 of any phase."""
    return st.builds(_blank, within(BLANK_OVERLAP), angles)


@st.composite
def sdep_params(draw):
    t, phi, chi = (draw(angles) for _ in range(3))
    a0, b0 = math.cos(t), complex(math.cos(phi), math.sin(phi)) * math.sin(t)
    rot = complex(math.cos(chi), math.sin(chi))
    a1, b1 = -rot * b0.conjugate(), rot * a0  # (a1, b1) orthogonal to (a0, b0)
    return (a0, a1, b0, b1, draw(blank_states()))


DELETER_PARAMS = {
    "pb": st.one_of(st.just(()), st.tuples(blank_states())),
    "qiu": st.tuples(st.sampled_from([1.0, -1.0])),  # r1 = +-1
    "conv": st.tuples(within(CONV_LAMBDA), blank_states()),
    "sdep": sdep_params(),
}


def specs(params, spec_type, families=None):
    """Specs of ``families`` (all of ``params`` by default), each drawn from its strategy."""
    return st.sampled_from(sorted(families or params)).flatmap(lambda f: params[f].map(lambda p: spec_type(f, p)))


@st.composite
def one_to_m_cases(draw):
    """A 1->M spec and an (n, d) stack of random kets on its input, n <= 6."""
    spec = draw(specs(ONE_TO_M_PARAMS, MachineSpec))
    return spec, draw(kets((draw(st.integers(1, 6)), cloners.build_machine(spec).in_dims[0])))


@st.composite
def deleter_cases(draw):
    """A deleter spec, an (n, 2) stack of random qubit kets, n <= 6, and a transformer count."""
    spec = draw(specs(DELETER_PARAMS, DeleterSpec))
    return spec, draw(kets((draw(st.integers(1, 6)), 2))), draw(st.sampled_from([0, 1, 2]))


PIPELINE_CLONERS = st.one_of(
    st.just(MachineSpec("wz")),
    st.just(MachineSpec("bh-opt")),
    st.tuples(within(XI)).map(lambda p: MachineSpec("bh", p)),  # a pipeline builds no bh copier
)
PIPELINE_DELETERS = specs(DELETER_PARAMS, DeleterSpec, concat.CONDITIONAL_DELETERS)

# hybrid kinds from (p, lambda), both in [0, 1]; bhbh's first copier has
# xi in [1/6, 1/2]
HYBRID_KINDS = {
    "pauli": lambda p, lam: HybridSpec(MachineSpec("pauli-asym", (p,)), MachineSpec("bh-opt"), lam),
    "anti": lambda p, lam: HybridSpec(MachineSpec("bh-opt"), MachineSpec("anti"), lam),
    "bhbh": lambda p, lam: HybridSpec(MachineSpec("bh", (1 / 6 + p / 3,)), MachineSpec("bh", (1 / 6,)), lam),
}
