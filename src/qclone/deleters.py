"""Catalog of approximate deletion machines and the transformer pipeline.

A deleter is an isometry on two qubits (the copy to keep and the copy to
delete) with the initial machine ket absorbed into the column definitions.
The transformer is a fixed two-qubit unitary applied after deletion to raise
the deletion fidelity; the two-qubit data modes are transformed, the machine
is left alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .measures import overlap
from .qcore import (
    ALPHA2,
    FINITE,
    PROBABILITY,
    BlankState,
    DensityOperator,
    Family,
    GramSpec,
    MachineIsometry,
    StateVector,
    _derived,
    bell_state,
    check_kets,
    domain,
    family_entry,
    ket,
    realize_gram,
    reduce_ket,
    spec_cache,
)

DEFAULT_BLANK = BlankState(1.0, 0.0)

CONV_LAMBDA = domain("lambda", 0.0, 0.5)  # the Gram-parameterized deleter's lambda
BLANK_OVERLAP = domain("blank overlap", -1.0, 1.0)

# the source's worked example of state-dependent deleter amplitudes
# (a0, a1, b0, b1); both of its sdep_weights are 1
SDEP_EXAMPLE = (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2)
# the conditional deleter's amplitudes: unmixed pass-through branches
PB_MIXING = (1.0, 0.0, 0.0, 1.0)

# The 64-node Gauss-Legendre rule on [-1, 1], as (node, weight) pairs of its
# 32 positive nodes in ascending order: the rule is symmetric, node -x with
# the weight of x.  These are the bits of numpy.polynomial.legendre.leggauss(64),
# written out so that importing the package does not load numpy.polynomial.
_GL_HALF = np.array([
    (0.02435029266342443, 0.048690957009139814),
    (0.07299312178779904, 0.04857546744150351),
    (0.12146281929612054, 0.048344762234802996),
    (0.16964442042399283, 0.04799938859645842),
    (0.21742364374000708, 0.04754016571483042),
    (0.2646871622087674, 0.046968182816210076),
    (0.31132287199021097, 0.04628479658131447),
    (0.3572201583376681, 0.045491627927418184),
    (0.4022701579639916, 0.044590558163756566),
    (0.4463660172534641, 0.04358372452932355),
    (0.48940314570705296, 0.04247351512365361),
    (0.5312794640198946, 0.041262563242623576),
    (0.571895646202634, 0.039953741132720544),
    (0.6111553551723933, 0.03855015317861564),
    (0.6489654712546573, 0.03705512854024009),
    (0.6852363130542333, 0.0354722132568823),
    (0.7198818501716109, 0.033805161837141794),
    (0.7528199072605319, 0.032057928354851495),
    (0.7839723589433414, 0.030234657072402554),
    (0.8132653151227975, 0.028339672614259535),
    (0.8406292962525803, 0.02637746971505491),
    (0.8659993981540928, 0.0243527025687112),
    (0.8893154459951141, 0.02227017380838297),
    (0.9105221370785028, 0.020134823153530088),
    (0.9295691721319396, 0.017951715775697284),
    (0.9464113748584028, 0.01572603047602503),
    (0.9610087996520538, 0.01346304789671786),
    (0.973326827789911, 0.011168139460131028),
    (0.983336253884626, 0.008846759826363397),
    (0.9910133714767443, 0.006504457968978502),
    (0.9963401167719552, 0.004147033260564499),
    (0.9993050417357722, 0.00178328072169414),
])
_GL_X = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_W = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
# the rule for averages over alpha^2 in [0, 1]
GL_ALPHA2 = (_GL_X + 1) / 2
GL_WEIGHTS = _GL_W / 2


class DeleterSpec(NamedTuple):
    family: str  # a key of DELETERS
    params: tuple = ()

    def __str__(self):
        return f"{self.family}{self.params if self.params else ''}"


class DeletionReport(NamedTuple):
    rho_1: DensityOperator
    rho_2: DensityOperator
    rho_3: Optional[DensityOperator]
    F_1: float
    F_2: float
    machine_overlap: Optional[float]
    avg_F_1: Optional[float]
    avg_F_2: Optional[float]


class DeletionReports(NamedTuple):
    """The per-input part of :class:`DeletionReport` for n inputs at once:
    (n, 2, 2) and (n, m, m) marginal stacks and one (n,) array per index;
    ``rho_3`` and ``machine_overlap`` are None for a machine-free deleter."""

    rho_1: np.ndarray
    rho_2: np.ndarray
    rho_3: Optional[np.ndarray]
    F_1: np.ndarray
    F_2: np.ndarray
    machine_overlap: Optional[np.ndarray]


def _transformer_powers():
    """T^0, T^1, T^2 for T = |psi+><00| + |11><01| + |psi-><10| + |00><11|."""
    t = np.zeros((4, 4), dtype=complex)
    t[:, 0] = bell_state("psi+")
    t[3, 1] = 1.0  # |11><01|
    t[:, 2] = bell_state("psi-")
    t[0, 3] = 1.0  # |00><11|
    powers = tuple(np.linalg.matrix_power(t, n) for n in range(3))
    for p in powers:
        p.flags.writeable = False
    return powers


_T_POWERS = _transformer_powers()


def transformer() -> np.ndarray:
    """T = |psi+><00| + |11><01| + |psi-><10| + |00><11| (two-qubit unitary),
    a read-only constant."""
    return _T_POWERS[1]


# ---------------------------------------------------------------------------
# builders


def build_pb(blank: BlankState = DEFAULT_BLANK) -> MachineIsometry:
    """Conditional deleter: identical copies are deleted, others pass through.

    It is the state-dependent deleter with unmixed pass-through branches.
    """
    return build_sdep(*PB_MIXING, blank)


def build_qiu(r1: float = 1.0) -> MachineIsometry:
    """Universal (non-optimal) deleter; a two-qubit unitary, no ancilla.

    The published transformation is inner-product preserving only for
    r1 = +-1 (otherwise the identical-copy columns overlap the pass-through
    columns), so other values are rejected.
    """
    if not abs(r1 * r1 - 1.0) <= 1e-12:  # NaN fails
        raise ValueError(
            "the universal deleter is an isometry only for r1 = +-1; "
            f"got r1 = {r1}"
        )
    c = r1 / math.sqrt(2)  # r2 = 0: a = r1|0>, b = -r1|1>
    cols = np.zeros((2, 2, 4), dtype=complex)  # kept, deleted, input
    cols[0, 0, 0], cols[1, 1, 0] = c, -c  # (|0a> + |1b>)/sqrt2
    cols[0, 0, 3] = cols[1, 1, 3] = -1j * c  # i(|1b> - |0a>)/sqrt2
    cols[0, 1, 1] = cols[1, 0, 2] = 1.0  # |01> and |10> pass through
    return MachineIsometry((2, 2), (2, 2), cols.reshape(4, 4))


def conv_gram(lmbda: float, y: float) -> GramSpec:
    """Joint Gram of the machine kets A, A0, A1, B0, B1, C0, D0."""
    CONV_LAMBDA.check(lmbda)
    labels = ("A", "A0", "A1", "B0", "B1", "C0", "D0")
    g = np.zeros((7, 7))
    norms = [1.0, 1 - 2 * lmbda, 1 - 2 * lmbda, lmbda, lmbda, 2 * lmbda, 1 - 2 * lmbda]
    np.fill_diagonal(g, norms)
    for j in (1, 2, 6):  # <A|A0> = <A|A1> = <A|D0> = Y
        g[0, j] = g[j, 0] = y
    return GramSpec(labels, g)


def conv_max_y(lmbda: float) -> float:
    """Largest Y keeping the machine Gram PSD.

    Only A couples to A0, A1 and D0 (each of norm 1 - 2 lambda), so the Gram
    is PSD iff the Schur complement 1 - 3 Y^2 / (1 - 2 lambda) of the A row
    is nonnegative: Y_max = sqrt((1 - 2 lambda) / 3).
    """
    return math.sqrt((1 - 2 * CONV_LAMBDA.check(lmbda)) / 3)


def _conv_parts(
    lam: float, blank: BlankState = DEFAULT_BLANK, y: Optional[float] = None
):
    """(machine, initial machine ket A) of the deleter with machine
    parameter lambda and free blank |Sigma>; a stack of blanks gives the
    stack of their machines, from one Gram realization.

    Y (the overlap of the initial machine ket with A0, A1, D0) defaults to
    the largest value keeping the Gram PSD.
    """
    if y is None:
        y = conv_max_y(lam)
    vecs = realize_gram(conv_gram(lam, y))
    rank = vecs.shape[0]
    mdim = max(rank, 2)
    kets = np.zeros((7, mdim), dtype=complex)
    kets[:, :rank] = vecs.T
    a, a0, a1, b0, b1, c0, d0 = kets
    sigma, sigma_p = blank.vec[..., :, None], blank.perp[..., :, None]  # for outer products
    # cols[..., i, j, :, k]: kept qubit i, deleted qubit j, machine; input |k>
    cols = np.zeros(sigma.shape[:-2] + (2, 2, mdim, 4), dtype=complex)
    cols[..., 0, :, :, 0] = sigma * a0  # |0 Sigma A0> + (|01> + |10>)|B0>
    cols[..., 0, 1, :, 0] += b0
    cols[..., 1, 0, :, 0] += b0
    cols[..., 0, :, :, 1] = sigma_p * d0  # |0 Sigma' D0> + |10 C0>
    cols[..., 1, 0, :, 1] += c0
    cols[..., 1, :, :, 2] = sigma * d0  # |1 Sigma D0> + |01 C0>
    cols[..., 0, 1, :, 2] += c0
    cols[..., 1, :, :, 3] = sigma_p * a1  # |1 Sigma' A1> + (|01> + |10>)|B1>
    cols[..., 0, 1, :, 3] += b1
    cols[..., 1, 0, :, 3] += b1
    return MachineIsometry((2, 2), (2, 2, mdim), cols.reshape(cols.shape[:-4] + (4 * mdim, 4))), a


def build_sdep(a0, a1, b0, b1, blank: BlankState = DEFAULT_BLANK) -> MachineIsometry:
    """State-dependent deleter: pass-through branches mix |01> and |10>."""
    for ai, bi in ((a0, b0), (a1, b1)):
        if not abs(abs(ai) ** 2 + abs(bi) ** 2 - 1.0) <= 1e-9:  # NaN fails
            raise ValueError("need |a_i|^2 + |b_i|^2 = 1")
    if not abs(a0 * np.conj(a1) + b0 * np.conj(b1)) <= 1e-9:
        raise ValueError("need a0 a1* + b0 b1* = 0")
    q, qa0, qa1 = range(3)  # the machine kets
    cols = np.zeros((2, 2, 3, 4), dtype=complex)  # kept, deleted, machine, input
    cols[0, :, qa0, 0] = blank.vec  # |00> -> |0 Sigma A0>
    cols[0, 1, q, 1:3] = a0, a1  # |01>, |10> -> (a_i |01> + b_i |10>)|Q>
    cols[1, 0, q, 1:3] = b0, b1
    cols[1, :, qa1, 3] = blank.vec  # |11> -> |1 Sigma A1>
    return MachineIsometry((2, 2), (2, 2, 3), cols.reshape(12, 4))


def _starting_in_zero(build):
    """The (machine, initial machine ket |0>) builder of a deleter; qiu's has no machine."""
    return functools.wraps(build)(lambda *params: (build(*params), ket(0, 3)))


# family -> (builder of (machine, initial machine ket), its parameters in
# order, the parameters that may be arrays); the CLI reads it too
DELETERS = {
    "pb": Family(_starting_in_zero(build_pb), ("blank",), ()),
    "qiu": Family(_starting_in_zero(build_qiu), ("r1",), ()),
    "conv": Family(_conv_parts, ("lam", "blank", "y"), ("blank",)),
    "sdep": Family(_starting_in_zero(build_sdep), ("a0", "a1", "b0", "b1", "blank"), ()),
}


@spec_cache
def _deleter_parts(spec: DeleterSpec):
    """(machine, initial machine ket) of a spec, from one build per spec;
    both arrays are read-only."""
    machine, a = family_entry(DELETERS, spec, "deleter").build(*spec.params)
    machine.matrix.flags.writeable = False
    a.flags.writeable = False
    return machine, a


def build_deleter(spec: DeleterSpec) -> MachineIsometry:
    return _deleter_parts(spec)[0]


def _spec_blank(spec: DeleterSpec) -> BlankState:
    """The spec's parameter named blank, DEFAULT_BLANK if it gives none."""
    return dict(zip(DELETERS[spec.family].params, spec.params)).get("blank", DEFAULT_BLANK)


def deletion_target(spec: DeleterSpec) -> np.ndarray:
    """The ket the deleted mode is compared against: |Sigma'> for the
    Gram-parameterized deleter, |Sigma> for the conditional families."""
    blank = _spec_blank(spec)
    if spec.family == "conv":
        return (blank.vec + blank.perp) / math.sqrt(2)
    return blank.vec


def _transform(kets: np.ndarray, n_transformers: int) -> np.ndarray:
    """Apply T^n to the two data qubits (the leading factors) of a ket or of
    an (n, d) batch of kets."""
    if n_transformers not in (0, 1, 2):
        raise ValueError("only 0, 1 or 2 transformers are analyzed")
    data = kets.reshape(kets.shape[:-1] + (4, -1))
    return np.einsum("ab,...bm->...am", _T_POWERS[n_transformers], data).reshape(kets.shape)


def _marginal_fidelities(spec: DeleterSpec, machine: MachineIsometry, psi: np.ndarray, n_transformers: int):
    """(output kets, rho_1, rho_2, F_1, F_2) of deleting one copy of psi from
    psi x psi for every ket of an (n, 2) stack with the spec's machine (or
    stack).  The pairs it receives are checked; their reductions through
    the checked isometry and the unitary transformers are not."""
    pairs = (psi[..., :, None] * psi[..., None, :]).reshape(psi.shape[:-1] + (4,))
    check_kets(pairs)
    kets = _transform(pairs @ machine.matrix.swapaxes(-1, -2), n_transformers)
    rho_1, rho_2 = (reduce_ket(kets, machine.out_dims, [k]) for k in (0, 1))
    target = deletion_target(spec)  # one ket, or one per machine of a stack for all its inputs
    target = target if target.ndim == 1 else target[:, None]
    return kets, rho_1, rho_2, overlap(psi, rho_1), overlap(target, rho_2)


def delete_reports(spec: DeleterSpec, amps, n_transformers: int = 0) -> DeletionReports:
    """Delete one copy of psi from psi x psi for every single-qubit ket psi
    of an (n, 2) stack, and report the per-input fidelities in one pass.

    A conv spec with a stack of blanks runs its machine stack in one pass,
    for (n_machines, n) results, on (n, 2) or (n_machines, n, 2) inputs.
    The alpha^2 averages belong to the spec, not to an input: they come
    from :func:`average_fidelities`.
    """
    machine, a_vec = _deleter_parts(spec)
    psi = np.asarray(amps, dtype=complex)
    if psi.ndim < 2 or psi.shape[-1] != 2 or not psi.shape[-2]:
        raise ValueError(f"inputs of shape {psi.shape} are not an (n, 2) stack of qubit kets, n >= 1")
    kets, rho_1, rho_2, f1, f2 = _marginal_fidelities(spec, machine, psi, n_transformers)
    rho_3 = overlap_m = None
    if len(machine.out_dims) > 2:
        rho_3 = reduce_ket(kets, machine.out_dims, [2])
        overlap_m = overlap(a_vec, rho_3)
    return DeletionReports(rho_1, rho_2, rho_3, f1, f2, overlap_m)


def delete_report(spec: DeleterSpec, state: StateVector, n_transformers: int = 0) -> DeletionReport:
    """Delete one copy of psi from psi x psi and report all fidelities:
    element 0 of :func:`delete_reports`, plus the spec's alpha^2 averages.

    ``state`` is the single-qubit input; averages integrate alpha^2 over
    [0, 1] for the real-amplitude family (64-node Gauss-Legendre).
    """
    if state.dims != (2,):
        raise ValueError("delete_report expects the single-qubit input state")
    reps = delete_reports(spec, state.amps[None], n_transformers)
    if reps.F_1.ndim > 1:  # (n_machines, 1): the spec built a machine stack
        raise ValueError(f"the {spec.family} spec builds a stack of deleters: use delete_reports")
    rho_3 = overlap_m = None
    if reps.rho_3 is not None:
        rho_3 = _derived(reps.rho_3.shape[-1:], reps.rho_3[0])
        overlap_m = float(reps.machine_overlap[0])
    avg1, avg2 = average_fidelities(spec, n_transformers)
    return DeletionReport(
        _derived((2,), reps.rho_1[0]),
        _derived((2,), reps.rho_2[0]),
        rho_3,
        float(reps.F_1[0]),
        float(reps.F_2[0]),
        overlap_m,
        avg1,
        avg2,
    )


def real_inputs(alpha2s) -> np.ndarray:
    """Kets sqrt(a)|0> + sqrt(1 - a)|1>, one row per alpha^2 value."""
    a = ALPHA2.check(np.asarray(alpha2s, dtype=float))
    return np.stack([np.sqrt(a), np.sqrt(1 - a)], axis=-1)


@spec_cache
def average_fidelities(spec: DeleterSpec, n_transformers: int = 0):
    """Quadrature averages of (F_1, F_2) over alpha^2 for real amplitudes,
    all 64 nodes in one batched pass, the one :func:`delete_reports` makes
    without the machine marginal; computed once per (spec, count)."""
    f1, f2 = _marginal_fidelities(spec, build_deleter(spec), real_inputs(GL_ALPHA2), n_transformers)[3:]
    return float(GL_WEIGHTS @ f1), float(GL_WEIGHTS @ f2)


# ---------------------------------------------------------------------------
# closed forms


def conv_f1(lmbda: float, alpha2: float) -> float:
    """Retained-mode overlap of the plain (no-transformer) deleter."""
    CONV_LAMBDA.check(lmbda)
    ALPHA2.check(alpha2)
    return (1 - lmbda) + 2 * alpha2 * (1 - alpha2) * (2 * lmbda - 1)


def conv_f3_limit(alpha2: float) -> float:
    """lambda -> 1/2 limit of the retained-mode overlap with one transformer
    (real amplitudes; independent of the blank state)."""
    ALPHA2.check(alpha2)
    a = math.sqrt(alpha2)
    b = math.sqrt(1 - alpha2)
    return 0.75 - alpha2 / 2 + a * b / math.sqrt(2)


def conv_avg_f3_limit() -> float:
    return 0.5 + math.pi / (8 * math.sqrt(2))


def _limit_deleted_mode(t_n: np.ndarray):
    """(rho_00, rho_01, rho_11) of the deleted-mode state, as Python scalars."""
    amps = (t_n @ bell_state("psi+")).reshape(2, 2)
    rho_2 = np.einsum("ij,ik->jk", amps, amps.conj())
    return float(rho_2[0, 0].real), complex(rho_2[0, 1]), float(rho_2[1, 1].real)


# lambda -> 1/2 deleted-mode state after T^n, n = 0, 1, 2, by its entries
_LIMIT_RHO_2 = tuple(_limit_deleted_mode(t_n) for t_n in _T_POWERS)


def limiting_deletion_fidelity(n_transformers: int, blank: BlankState) -> float:
    """Exact lambda -> 1/2 deletion fidelity with one or two transformers.

    In the limit the deleter output is the symmetric state (|01>+|10>)/sqrt2
    uncorrelated with the machine, so the deleted-mode state follows from
    applying T n times to it; the result depends only on the blank.
    """
    if n_transformers not in (1, 2):
        raise ValueError("limits are analyzed for one or two transformers")
    r00, r01, r11 = _LIMIT_RHO_2[n_transformers]
    # t^dag rho_2 t for t = (|Sigma> + |Sigma_perp>)/sqrt2; rho_2 is Hermitian,
    # so its two coherence terms sum to 2 Re(t0* t1 rho_01)
    m1, m2 = blank.m1, complex(blank.m2)
    t0 = (m1 - m2.conjugate()) / math.sqrt(2)
    t1 = (m1 + m2) / math.sqrt(2)
    return float(
        (t0.real**2 + t0.imag**2) * r00
        + (t1.real**2 + t1.imag**2) * r11
        + 2 * (t0.conjugate() * t1 * r01).real
    )


def table_41_fidelity(m1: float, m2: float) -> float:
    """Closed form of the one-transformer limit for real blank amplitudes."""
    BlankState(m1, m2)  # raises unless m1^2 + m2^2 = 1
    return 0.5 * (1 + m1 * m2 - (m1 * m1 - m2 * m2) / math.sqrt(2))


def table_42_fidelity(m1: float, m2: float) -> float:
    """Closed form of the two-transformer limit for real blank amplitudes."""
    BlankState(m1, m2)
    return 0.5 * (
        1 - m1 * m2 / 2 + 0.5 * (1 / math.sqrt(2) - 1) * (m1 * m1 - m2 * m2)
    )


def pb_with_transformer(blank: BlankState, state: StateVector):
    """Conditional deleter followed by one transformer: (rho_2, F_2) where
    F_2 = <Sigma| rho_2 |Sigma>."""
    reps = delete_reports(DeleterSpec("pb", (blank,)), state.amps[None], 1)
    return _derived((2,), reps.rho_2[0]), float(reps.F_2[0])


def pb_transformer_fidelity(m1: float, m2: float, alpha2: float) -> float:
    """Closed-form deletion fidelity of the conditional deleter plus one
    transformer, for real blank amplitudes and real input amplitudes."""
    BlankState(m1, m2)
    ALPHA2.check(alpha2)
    ab2 = alpha2 * (1 - alpha2)
    b4 = (1 - alpha2) ** 2
    a4 = alpha2**2
    term1 = m1 * m1 * (m1 * m1 / 2 + ab2 * (1 - 2 * m1 * m1) / 2 + b4 * m2 * m2)
    term2 = (
        2
        * m1
        * m2
        * (m1 * m2 / math.sqrt(2) - ab2 * (1 + 2 * m1 * m2) / math.sqrt(2))
    )
    term3 = m2 * m2 * (m1 * m1 / 2 + ab2 * (3 - 2 * m1 * m1) / 2 + a4 * m2 * m2)
    return term1 + term2 + term3


def song_optimal_fidelity(eta1: float, theta: float, phi1: float, phi2: float) -> float:
    """Optimal global fidelity for deleting one of two known candidate states."""
    PROBABILITY.check(eta1, "prior probability")
    for name, angle in (("theta", theta), ("phi1", phi1), ("phi2", phi2)):
        FINITE.check(angle, name)  # max(0.0, nan) below is 0.0
    eta2 = 1.0 - eta1
    inner = 1 - 4 * eta1 * eta2 * math.sin(2 * theta - phi1 + phi2) ** 2
    return 0.5 * (1 + math.sqrt(max(0.0, inner)))


def sdep_weights(a0, a1, b0, b1):
    """(|g|^2, |h|^2) with g = a0 + a1 and h = b0 + b1, the weights the
    state-dependent deleter gives its two pass-through branches."""
    return abs(a0 + a1) ** 2, abs(b0 + b1) ** 2


def sdep_pointwise(a0, a1, b0, b1, blank_overlap: float, alpha2: float):
    """(D_1, F_1) of the state-dependent deleter at one input, closed form."""
    BLANK_OVERLAP.check(blank_overlap)
    ALPHA2.check(alpha2)
    gg, hh = sdep_weights(a0, a1, b0, b1)
    k = (gg - 1) ** 2 + (hh - 1) ** 2
    ab2 = alpha2 * (1 - alpha2)
    d1 = k * ab2**2 + 2 * ab2
    m2 = blank_overlap**2
    k1 = 2 - gg * m2 - hh * (1 - m2)
    f1 = 1 - k1 * ab2
    return d1, f1


def sdep_averages(a0, a1, b0, b1, blank_overlap: float):
    """Closed-form averages over alpha^2: (avg distortion, avg deletion
    fidelity); both approach (1/3, 5/6) as |g|^2, |h|^2 -> 1."""
    BLANK_OVERLAP.check(blank_overlap)
    gg, hh = sdep_weights(a0, a1, b0, b1)
    k = (gg - 1) ** 2 + (hh - 1) ** 2
    avg_d1 = (1 + k / 10) / 3
    m2 = blank_overlap**2
    avg_f1 = 2 / 3 + ((gg - hh) * m2 + hh) / 6
    return avg_d1, avg_f1
