"""Catalog of approximate cloning machines and their closed-form fidelities.

Each ``build_*`` function returns a :class:`~qclone.qcore.MachineIsometry`
whose columns give the action on input basis states, with the machine
(ancilla) appended as the last tensor factor.  Closed-form fidelity formulas
live alongside so simulations can be checked against them.
"""

from __future__ import annotations

import math
from typing import NamedTuple
import numpy as np

from .qcore import (
    ALPHA2,
    BELL_LABELS,
    DIMENSION,
    FINITE,
    PROBABILITY,
    DensityOperator,
    Family,
    GramSpec,
    MachineIsometry,
    StateVector,
    _derived,
    _real_amplitudes,
    bell_state,
    check_kets,
    domain,
    family_entry,
    realize_gram,
    reduce_ket,
    reduce_kets,
    spec_cache,
    symmetric_basis_state,
)
from .measures import hs_distance, overlap

XI = domain("xi", 0.0, 0.5)  # eta = 1 - 2 xi of the two-parameter copier
MU2 = domain("mu^2", 0.0, 0.5 + 1e-12)  # the KR copier's, with 1e-12 of rounding
GM_COPIES = domain("copies", 2, 6)  # the 1->M copier, built explicitly
MIXED_COPIES = domain("copies", 3, 6)  # the 2->M copier, built explicitly
BDEFMS_OVERLAP = domain("S", 0.0, 1.0, "()")  # |<a|b>| of the two-state cloner
PROB_OVERLAP = domain("state overlap", 0.0, 1.0, "[)")  # probabilistic cloning
PROB_COPIES = domain("copies", 2, math.inf, "[)")
PC_INPUTS = domain("input copies", 1, math.inf, "[)")  # N of the phase-covariant N -> inf limit
SCALING_COPIES = domain("copies", 2, math.inf, "[)")  # M of the 2 -> M shrinking factor


class MachineSpec(NamedTuple):
    """Family name plus parameters, resolvable by :func:`build_machine`."""

    family: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.family
        return f"{self.family}({', '.join(map(str, self.params))})"


class CloneReport(NamedTuple):
    rho_out: DensityOperator
    rho_a: DensityOperator
    rho_b: DensityOperator
    F_a: float
    F_b: float
    D_a: float
    D_b: float
    D_ab1: float
    D_ab2: float
    D_ab3: float


class CloneReports(NamedTuple):
    """:class:`CloneReport` of n inputs at once, field for field in its
    order: (n, d^2, d^2) and (n, d, d) marginal stacks, then one (n,) array
    per index."""

    rho_out: np.ndarray
    rho_a: np.ndarray
    rho_b: np.ndarray
    F_a: np.ndarray
    F_b: np.ndarray
    D_a: np.ndarray
    D_b: np.ndarray
    D_ab1: np.ndarray
    D_ab2: np.ndarray
    D_ab3: np.ndarray


# ---------------------------------------------------------------------------
# machine builders


def build_wz() -> MachineIsometry:
    """Wootters-Zurek copier: |i> -> |ii>|Q_i> with orthonormal machine kets."""
    return build_wz_n(2)


def build_wz_n(dim: int) -> MachineIsometry:
    DIMENSION.check(dim)
    return _one_to_two_copier(dim, 1.0, 0.0, 0.0)


def bh_gram(xi: float) -> GramSpec:
    """Inner products of the machine kets Q0, Q1, Y0, Y1 with eta = 1 - 2 xi."""
    XI.check(xi)
    eta = 1.0 - 2.0 * xi
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = 1.0 - 2.0 * xi
    g[2, 2] = g[3, 3] = xi
    g[0, 3] = g[3, 0] = eta / 2.0  # <Q0|Y1>
    g[1, 2] = g[2, 1] = eta / 2.0  # <Q1|Y0>
    return GramSpec(("Q0", "Q1", "Y0", "Y1"), g)


def build_bh(xi: float) -> MachineIsometry:
    """Buzek-Hillery-type copier with free parameter xi (eta = 1 - 2 xi).

    The prescribed Gram matrix is PSD only for xi >= 1/6; below that the
    Schwarz bound eta <= 2 sqrt(xi (1-2 xi)) fails and UnrealizableSpec is
    raised.  xi = 1/6 gives the optimal universal copier on a rank-2 machine.
    """
    vecs = realize_gram(bh_gram(xi))  # columns Q0, Q1, Y0, Y1
    rank = vecs.shape[0]
    mdim = max(rank, 2)
    cols = np.zeros((2, 2, mdim, 2), dtype=complex)  # clone, clone, machine, input
    cols[0, 0, :rank, 0] = vecs[:, 0]  # |00>|Q0>
    cols[1, 1, :rank, 1] = vecs[:, 1]  # |11>|Q1>
    cols[0, 1, :rank] = cols[1, 0, :rank] = vecs[:, 2:]  # (|01> + |10>)|Y_j>
    return MachineIsometry((2,), (2, 2, mdim), cols.reshape(4 * mdim, 2))


def build_bh_opt() -> MachineIsometry:
    """Optimal universal 1->2 copier, machine spanned by two orthogonal kets:
    the M = 2 universal copier."""
    return build_gm_1m(2)


def build_gm_1m(copies: int) -> MachineIsometry:
    """Universal symmetric 1->M copier for qubits (explicit for M <= 6)."""
    M = int(GM_COPIES.check(copies))
    alphas = np.sqrt([2 * (M - j) / (M * (M + 1)) for j in range(M)])
    sym = np.stack([symmetric_basis_state(M, n) for n in range(M + 1)], axis=1)
    cols = np.zeros((2**M, M, 2), dtype=complex)  # clones, machine, input
    cols[:, :, 0] = alphas * sym[:, :M]  # alpha_j |sym_j>|j>
    cols[:, ::-1, 1] = alphas * sym[:, :0:-1]  # alpha_j |sym_{M-j}>|M-1-j>
    return MachineIsometry((2,), (2,) * M + (M,), cols.reshape(2**M * M, 2))


def _one_to_two_copier(d: int, a, b, c) -> MachineIsometry:
    """The 1->2 copier |j> -> a|jj>|j> + sum_{k != j} (b|jk> + c|kj>)|k>;
    symmetric for b = c.  Arrays a, b, c of one shape give a stack."""
    diag = np.arange(d)
    j, k = np.nonzero(~np.eye(d, dtype=bool))  # every pair k != j
    a, b, c = (np.asarray(x)[..., None] for x in (a, b, c))  # broadcast along each index axis
    cols = np.zeros(a.shape[:-1] + (d, d, d, d), dtype=complex)  # clone, clone, machine, input
    cols[..., diag, diag, diag, diag] = a
    cols[..., j, k, k, j] = b
    cols[..., k, j, k, j] = c
    return MachineIsometry((d,), (d, d, d), cols.reshape(a.shape[:-1] + (d**3, d)))


def build_uqcm_d(dim: int) -> MachineIsometry:
    """Universal symmetric 1->2 copier in d dimensions."""
    d = DIMENSION.check(dim)
    b = math.sqrt(1 / (2 * (d + 1)))
    return _one_to_two_copier(d, math.sqrt(2 / (d + 1)), b, b)


def build_pc2() -> MachineIsometry:
    """Optimal 1->2 phase-covariant copier for equatorial qubits.

    Realized as the mu = 1/2 member of the z-known copier family, which is
    the optimal equatorial machine; its reduced clones reproduce the
    (1/2 + sqrt(1/8)) / (1/2 - sqrt(1/8)) mixture for every equatorial input.
    """
    return build_kr(0.5)


def build_pc_d(dim: int) -> MachineIsometry:
    """Optimal 1->2 phase-covariant copier for d-level systems."""
    d = DIMENSION.check(dim)
    root = math.sqrt(d * d + 4 * d - 4)
    alpha = math.sqrt(0.5 - (d - 2) / (2 * root))
    beta = math.sqrt(0.5 + (d - 2) / (2 * root))
    b = beta / math.sqrt(2 * (d - 1))
    return _one_to_two_copier(d, alpha, b, b)


def _kr_nu(mu: float) -> float:
    """nu = sqrt(1 - 2 mu^2) of the KR copier; mu^2 may exceed 1/2 by 1e-12."""
    return math.sqrt(max(0.0, 1 - 2 * MU2.check(mu**2)))


def build_kr(mu: float) -> MachineIsometry:
    """Karimipour-Rezakhani copier with parameter mu (nu = sqrt(1-2mu^2))."""
    return _one_to_two_copier(2, _kr_nu(mu), mu, mu)


def build_econ(dim: int = 2, blank_index: int = 0) -> MachineIsometry:
    """Economical (ancilla-free) phase-covariant copier on a fixed blank |l>."""
    d = DIMENSION.check(dim)
    blank = domain("blank index", 0, d, "[)").check(blank_index)
    k = np.delete(np.arange(d), blank)  # |k> -> (|k l> + |l k>)/sqrt2 for k != l
    cols = np.zeros((d, d, d), dtype=complex)  # clone, clone, input
    cols[k, blank, k] = cols[blank, k, k] = 1 / math.sqrt(2)
    cols[blank, blank, blank] = 1.0  # |l> -> |l l>
    return MachineIsometry((d,), (d, d), cols.reshape(d * d, d))


def build_pauli_asym(p) -> MachineIsometry:
    """Asymmetric 1->2 copier; p + q = 1 trades quality between the clones."""
    return build_heis_asym(2, p)


def build_heis_asym(dim: int, p) -> MachineIsometry:
    """Optimal universal asymmetric copier for d-level systems (q = 1 - p), or a stack for an array of p."""
    d = DIMENSION.check(dim)
    q = 1.0 - PROBABILITY.check(p)
    scale = 1 / np.sqrt(1 + (d - 1) * (p * p + q * q))  # p**2 on a float may differ from a stack's p * p
    return _one_to_two_copier(d, scale, p * scale, q * scale)


def build_anti() -> MachineIsometry:
    """Universal anti-cloner: second output has the opposite spin direction."""
    phase = np.exp(1j * math.acos(1 / math.sqrt(3)))
    r6 = 1 / math.sqrt(6)
    r2 = 1 / math.sqrt(2)
    up, down, right, left = range(4)  # the machine kets
    cols = np.zeros((2, 2, 4, 2), dtype=complex)  # clone, clone, machine, input
    # |0> -> r6 |00 up> + (r2 e^{i phi} |01> - r6 |10>)|right> + r6 |11 left>
    cols[0, 0, up, 0] = cols[1, 1, left, 0] = r6
    cols[0, 1, right, 0], cols[1, 0, right, 0] = r2 * phase, -r6
    # |1> -> r6 |11 right> + (r2 e^{i phi} |10> - r6 |01>)|up> + r6 |00 down>
    cols[1, 1, right, 1] = cols[0, 0, down, 1] = r6
    cols[1, 0, up, 1], cols[0, 1, up, 1] = r2 * phase, -r6
    return MachineIsometry((2,), (2, 2, 4), cols.reshape(16, 2))


def _mixed_alpha(j: int, k: int, M: int) -> float:
    num = 6 * math.factorial(M - 2) * math.factorial(M - j - k) * math.factorial(j + k)
    den = (
        math.factorial(2 - j)
        * math.factorial(M + 1)
        * math.factorial(M - 2 - k)
        * math.factorial(j)
        * math.factorial(k)
    )
    return math.sqrt(num / den)


def _antisymmetric_sector_state(M: int, n_ones: int) -> np.ndarray:
    """Deterministic state orthogonal to the symmetric one in its sector:
    singlet on the first two qubits, symmetric on the rest."""
    domain("n_ones", 1, M - 1).check(n_ones)  # both spin values
    singlet = bell_state("psi-")
    rest = symmetric_basis_state(M - 2, n_ones - 1)
    return np.outer(singlet, rest).reshape(-1)


def _mixed_column(M: int, j: int, sector_state) -> np.ndarray:
    """sum_k alpha_{jk} |sector_state(M, j + k)>|k> of the 2->M copier, as a
    (2^M, M - 1) array: clones, machine."""
    return np.stack([_mixed_alpha(j, k, M) * sector_state(M, j + k) for k in range(M - 1)], axis=1)


def build_mixed_2m(copies: int) -> MachineIsometry:
    """2->M copier for two identical (possibly mixed) qubits.

    The symmetric-subspace columns follow the alpha_{jk} coefficients; the
    singlet column uses deterministic orthogonal-complement states (the
    source leaves them unspecified).
    """
    M = int(MIXED_COPIES.check(copies))
    sym_0, sym_1, sym_2 = (_mixed_column(M, j, symmetric_basis_state) for j in range(3))
    anti = _mixed_column(M, 1, _antisymmetric_sector_state)
    root2 = math.sqrt(2)
    cols = np.stack([sym_0, (sym_1 + anti) / root2, (sym_1 - anti) / root2, sym_2], axis=-1)
    return MachineIsometry((2, 2), (2,) * M + (M - 1,), cols.reshape(-1, 4))


def build_mixed_23() -> MachineIsometry:
    """The 2->3 copier restricted to the symmetric two-qubit subspace.

    Input basis order: |2 up>, (|ud>+|du>)/sqrt2, |2 down>.
    """
    cols = np.stack([_mixed_column(3, j, symmetric_basis_state) for j in range(3)], axis=-1)
    return MachineIsometry((3,), (2, 2, 2, 2), cols.reshape(16, 3))


# family -> (builder, its parameters in order, named as the `qclone clone`
# options that supply them, the ones that may be arrays); CLI, verify and tests read it
FAMILIES = {
    "wz": Family(build_wz, (), ()),
    "wz-n": Family(build_wz_n, ("dim",), ()),
    "bh": Family(build_bh, ("xi",), ()),
    "bh-opt": Family(build_bh_opt, (), ()),
    "gm-1m": Family(build_gm_1m, ("copies",), ()),
    "uqcm-d": Family(build_uqcm_d, ("dim",), ()),
    "pc2": Family(build_pc2, (), ()),
    "pc-d": Family(build_pc_d, ("dim",), ()),
    "kr": Family(build_kr, ("mu",), ()),
    "econ": Family(build_econ, ("dim", "blank_index"), ()),
    "pauli-asym": Family(build_pauli_asym, ("p",), ("p",)),
    "heis-asym": Family(build_heis_asym, ("dim", "p"), ("p",)),
    "anti": Family(build_anti, (), ()),
    "mixed-23": Family(build_mixed_23, (), ()),
    "mixed-2m": Family(build_mixed_2m, ("copies",), ()),
}
TWO_TO_M = ("mixed-23", "mixed-2m")  # a qutrit or two-qubit input: not 1->M copiers


@spec_cache
def build_machine(spec: MachineSpec) -> MachineIsometry:
    """The machine of a spec, built once per spec; its matrix is read-only."""
    machine = family_entry(FAMILIES, spec, "machine").build(*spec.params)
    machine.matrix.flags.writeable = False
    return machine


# ---------------------------------------------------------------------------
# simulation reports


def _copier(spec: MachineSpec) -> MachineIsometry:
    """The machine of a 1->M spec: one input system, whose first two output
    systems are its clones."""
    machine = build_machine(spec)
    if spec.family in TWO_TO_M:
        raise ValueError(f"{spec.family} is a 2->M copier; the clone report takes 1->M copiers only")
    return machine


def clone_reports(spec: MachineSpec, amps) -> CloneReports:
    """Run a 1->M machine on an (n, d) stack of pure inputs and compute all
    quality indices of every input in one pass.

    One product with the machine matrix gives every output ket; each
    marginal is one batched ket reduction.  The input kets are checked;
    the marginals, reductions of kets through a checked isometry, are not.
    A spec with array parameters runs its machine stack in the same pass,
    for (n_machines, n) results, on (n, d) or (n_machines, n, d) inputs.
    """
    machine = _copier(spec)
    (d,) = machine.in_dims
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim < 2 or amps.shape[-1] != d or not amps.shape[-2]:
        m = machine.matrix
        machines = f"a stack of {len(m)} {spec.family} machines" if m.ndim > 2 else spec
        raise ValueError(f"inputs of shape {amps.shape} incompatible with {machines}: need (n, {d}), n >= 1")
    check_kets(amps)
    return _clone_reports(machine, amps)


def _clone_reports(machine: MachineIsometry, amps: np.ndarray) -> CloneReports:
    """:func:`clone_reports` of a copier on a complex stack of checked kets."""
    dims = machine.out_dims
    d = amps.shape[-1]
    out = amps @ machine.matrix.swapaxes(-1, -2)
    clones = reduce_ket(out, dims, [0, 1])
    rho_a, rho_b = np.moveaxis(reduce_kets(out, dims, [[0], [1]]), -3, 0)
    id_mat = amps[..., :, None] * amps.conj()[..., None, :]
    prod_out = (rho_a[..., :, None, :, None] * rho_b[..., None, :, None, :]).reshape(clones.shape)
    prod_id = (id_mat[..., :, None, :, None] * id_mat[..., None, :, None, :]).reshape(*amps.shape[:-1], d * d, -1)
    return CloneReports(
        clones,
        rho_a,
        rho_b,
        overlap(amps, rho_a),
        overlap(amps, rho_b),
        hs_distance(rho_a, id_mat),
        hs_distance(rho_b, id_mat),
        hs_distance(clones, prod_out),
        hs_distance(clones, prod_id),
        hs_distance(prod_id, prod_out),
    )


def clone_report(spec: MachineSpec, state: StateVector) -> CloneReport:
    """Run the machine on one pure input: element 0 of :func:`clone_reports`."""
    machine = _copier(spec)
    if machine.matrix.ndim > 2:
        raise ValueError(f"the {spec.family} spec builds a stack of machines: use clone_reports")
    if state.dims != machine.in_dims:
        raise ValueError(f"input dims {state.dims} incompatible with {spec}")
    reps = _clone_reports(machine, state.amps[None])  # a StateVector's ket is checked
    return CloneReport(
        _derived(state.dims * 2, reps.rho_out[0]),
        _derived(state.dims, reps.rho_a[0]),
        _derived(state.dims, reps.rho_b[0]),
        *(float(index[0]) for index in reps[3:]),
    )


def ying_indices(n: int, amplitudes) -> tuple:
    """(D_a, D_ab1, D_ab2, D_ab3) of the n-dimensional basis copier.

    ``amplitudes`` is one real ket of shape (n,), for four floats, or a
    (k, n) stack of them, for four arrays of k indices from one batched run.
    """
    amps = _real_amplitudes(amplitudes)
    if amps.ndim not in (1, 2) or amps.shape[-1] != n:
        raise ValueError("need n >= 2 real amplitudes")
    reps = clone_reports(MachineSpec("wz-n", (n,)), amps.reshape(-1, n))
    indices = (reps.D_a, reps.D_ab1, reps.D_ab2, reps.D_ab3)
    return indices if amps.ndim == 2 else tuple(float(x[0]) for x in indices)


def ying_bound_gap(n: int) -> float:
    """The slack (n-1)(n-2)/n^2 appearing in all three index inequalities."""
    DIMENSION.check(n)
    return (n - 1) * (n - 2) / n**2


# ---------------------------------------------------------------------------
# double-Bell reparametrization (asymmetric cloning bookkeeping)


def _double_bell_basis(pair_a, pair_b) -> np.ndarray:
    """16x4 matrix whose column i is |Bell_i>_pair_a |Bell_i>_pair_b on
    four qubits, in BELL_LABELS order."""
    bells = np.stack([bell_state(label).reshape(2, 2) for label in BELL_LABELS])
    t = np.einsum("iab,icd->abcdi", bells, bells)  # qubit axes pair_a + pair_b
    return np.moveaxis(t, range(4), pair_a + pair_b).reshape(16, 4)


def cerf_reparam(amps, target: str = "RB_AC") -> np.ndarray:
    """Re-express double-Bell amplitudes (v, z, x, y) on partition RA;BC in
    the paired double-Bell basis of another bipartition of the four qubits."""
    amps = np.asarray(amps, dtype=complex).reshape(4)
    check_kets(amps)
    pairs = {"RB_AC": ((0, 2), (1, 3)), "RC_AB": ((0, 3), (1, 2))}
    if target not in pairs:
        raise ValueError(f"unknown target partition {target!r}")
    state = _double_bell_basis((0, 1), (2, 3)) @ amps
    basis = _double_bell_basis(*pairs[target])
    out = basis.conj().T @ state
    if not np.linalg.norm(basis @ out - state) <= 1e-9:
        raise ValueError("state is not supported on the paired double-Bell subspace")
    return out


def rb_ac_matrix() -> np.ndarray:
    """Closed-form reparametrization matrix for the RB;AC partition."""
    return 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex
    )


def heis_beta_from_alpha(alpha: np.ndarray, d: int) -> np.ndarray:
    """beta_{m,n} = (1/d) sum_{x,y} exp(2 pi i (n x - m y)/d) alpha_{x,y}."""
    alpha = np.asarray(alpha, dtype=complex).reshape(d, d)
    k = np.arange(d)
    dft = np.exp(2j * np.pi * np.outer(k, k) / d)  # symmetric: F[n, x] = F[x, n]
    return dft.conj() @ alpha.T @ dft / d


# ---------------------------------------------------------------------------
# probabilistic cloning


def prob_clone_success(overlap_psi: float, overlap_phi: float, m: int):
    """Success probabilities of the two-step supplementary-information
    protocol: (gamma_A, gamma_B, gamma_total)."""
    s = PROB_OVERLAP.check(float(overlap_psi))
    t = PROBABILITY.check(float(overlap_phi), "supplementary overlap")
    PROB_COPIES.check(m)
    gamma_a = (1 - s) / (1 - s**m)
    gamma_b = (1 - t) / (1 - s ** (m - 1))
    gamma_tot = (1 - abs(s * t)) / (1 - s**m)
    return gamma_a, gamma_b, gamma_tot


def linearly_independent(states) -> bool:
    """True iff the states can be probabilistically cloned with unit fidelity."""
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    dims = states[0].dims
    if any(s.dims != dims for s in states):
        raise ValueError("states must share dimensions")
    mat = np.array([s.amps for s in states])
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    return rank == len(states)


# ---------------------------------------------------------------------------
# closed-form fidelities


def wz_copy_quality(alpha2: float) -> float:
    ALPHA2.check(alpha2)
    return 2 * alpha2 * (1 - alpha2)


def gm_fidelity(n_in: int, m_out: int) -> float:
    """Universal symmetric N->M fidelity per qubit."""
    domain("N", 1, m_out, "[)").check(n_in)
    return (m_out * (n_in + 1) + n_in) / (m_out * (n_in + 2))


def uqcm_scaling(d: int) -> float:
    DIMENSION.check(d)
    return (d + 2) / (2 * (d + 1))


def uqcm_fidelity(d: int) -> float:
    eta = uqcm_scaling(d)
    return (eta * (d - 1) + 1) / d


def fan_nmd_fidelity(n_in: int, m_out: int, d: int) -> float:
    """Universal N->M fidelity per qudit."""
    domain("N", 1, m_out, "[)").check(n_in)
    DIMENSION.check(d)
    return (n_in * (d - 1) + m_out * (n_in + 1)) / ((d + n_in) * m_out)


def copier_entropy(d: int) -> float:
    """Copier/copies entanglement entropy (nats) of the d-dim universal copier."""
    DIMENSION.check(d)
    return math.log(d + 1) - 2 * math.log(2) / (d + 1)


def pc2_fidelity() -> float:
    return 0.5 + math.sqrt(1 / 8)


def pc_d_fidelity(d: int) -> float:
    DIMENSION.check(d)
    return 1 / d + (d - 2 + math.sqrt(d * d + 4 * d - 4)) / (4 * d)


def pc_fidelity(n_in: int, m_out: int) -> float:
    """Phase-covariant N->M fidelity for equatorial qubits."""
    N, M = int(n_in), int(m_out)
    domain("N", 1, M, "[)").check(N)
    total = 0.0
    if (M - N) % 2 == 0:
        for j in range(N):
            w = math.factorial(N) / (math.factorial(j) * math.factorial(N - j - 1))
            total += w * math.sqrt(
                (M - N + 2 * j + 2) * (M + N - 2 * j) / (4 * M * M * (j + 1) * (N - j))
            )
        return 0.5 + total / 2**N
    for j in range(N):
        w = math.factorial(N) / (math.factorial(j) * math.factorial(N - j - 1))
        total += (
            w
            / math.sqrt(4 * M * M * (j + 1) * (N - j))
            * (
                math.sqrt((M - N + 2 * j + 1) * (M + N - 2 * j + 1))
                + math.sqrt((M - N + 2 * j + 3) * (M + N - 2 * j - 1))
            )
        )
    return 0.5 + total / 2 ** (N + 1)


def pc_limit_fidelity(n_in: int) -> float:
    """M -> infinity limit of the phase-covariant N->M fidelity."""
    N = int(PC_INPUTS.check(n_in))
    total = 0.0
    for j in range(N):
        w = math.factorial(N) / (math.factorial(j) * math.factorial(N - j - 1))
        total += w / math.sqrt((j + 1) * (N - j))
    return 0.5 + total / 2 ** (N + 1)


def econ_fidelity(d: int) -> float:
    DIMENSION.check(d)
    return (d - 1 + (d - 1 + math.sqrt(2)) ** 2) / (2 * d * d)


def kr_fidelity(mu: float, theta: float) -> float:
    """Fidelity of the KR copier on cos(t/2)|0> + e^{i phi} sin(t/2)|1>."""
    root = mu * _kr_nu(mu)
    FINITE.check(theta, "theta")
    mu2 = mu**2
    cos2 = math.cos(theta) ** 2
    return 0.5 + root + ((1 - 2 * mu2) / 2 - root) * cos2


def kr_optimal_mu2(theta: float) -> float:
    FINITE.check(theta, "theta")
    return 0.25 * (1 - 1 / math.sqrt(1 + 2 * math.tan(theta) ** 4))


def heis_fidelities(d: int, p: float):
    DIMENSION.check(d)
    q = 1.0 - PROBABILITY.check(p)
    norm = 1 + (d - 1) * (p**2 + q**2)
    return (1 + (d - 1) * p**2) / norm, (1 + (d - 1) * q**2) / norm


def heis_symmetric_fidelity(d: int) -> float:
    DIMENSION.check(d)
    return (d + 3) / (2 * (d + 1))


def pauli_fidelities(p: float):
    PROBABILITY.check(p)
    den = 2 * (p * p - p + 1)
    return (p * p + 1) / den, (p * p - 2 * p + 2) / den


def anti_fidelities():
    return 2 / 3, 1 / 3


def bdefms_fidelity(s_overlap: float) -> float:
    """Optimal two-state cloner fidelity as a function of S = |<a|b>|."""
    S = BDEFMS_OVERLAP.check(float(s_overlap))
    root = math.sqrt(9 * S * S - 2 * S + 1)
    inner = 3 * S * S + 2 * S - 1 + (1 - S) * root
    return 0.5 + math.sqrt(2) / (32 * S) * (1 + S) * (3 - 3 * S + root) * math.sqrt(inner)


def rastegin_mixed_upper_bound(f: float) -> float:
    """Upper bound on the global fidelity of two-mixed-state cloning."""
    PROBABILITY.check(f, "f")
    return 0.5 * (1 + f**3 + (1 - f * f) * math.sqrt(1 + f * f))


def mixed_2m_scaling(m_out: int) -> float:
    SCALING_COPIES.check(m_out)
    return (m_out + 2) / (2 * m_out)


_CLOSED_FORMS = {
    "wz-quality": wz_copy_quality,
    "gm": gm_fidelity,
    "uqcm-d": uqcm_fidelity,
    "fan-nmd": fan_nmd_fidelity,
    "pc2": pc2_fidelity,
    "pc": pc_fidelity,
    "pc-limit": pc_limit_fidelity,
    "pc-d": pc_d_fidelity,
    "econ": econ_fidelity,
    "kr": kr_fidelity,
    "kr-optimal-mu2": kr_optimal_mu2,
    "heis": heis_fidelities,
    "heis-symmetric": heis_symmetric_fidelity,
    "pauli": pauli_fidelities,
    "anti": anti_fidelities,
    "bdefms": bdefms_fidelity,
    "rastegin-bound": rastegin_mixed_upper_bound,
    "copier-entropy": copier_entropy,
    "mixed-2m-scaling": mixed_2m_scaling,
}


def closed_form_fidelity(formula: str, *params):
    """Evaluate one of the named closed-form fidelity expressions."""
    try:
        fn = _CLOSED_FORMS[formula]
    except KeyError:
        raise ValueError(f"unknown closed form {formula!r}") from None
    return fn(*params)


# ---------------------------------------------------------------------------
# composite pipelines used by the regression suite


def mixed_23_composite_overlap(psi: StateVector) -> float:
    """Single-clone overlap after recloning two clones of a 1->3 copier.

    The two-clone reduced output of the universal 1->3 machine (a mixed
    two-qubit state in the symmetric subspace) is fed to the 2->3 machine;
    the result is input-independent.
    """
    gm = build_machine(MachineSpec("gm-1m", (3,)))
    if psi.dims != gm.in_dims:
        raise ValueError(f"input dims {psi.dims} do not match machine {gm.in_dims}")
    # clones 1 and 2 (rows), purified by clone 3 and the machine (columns)
    out = (gm.matrix @ psi.amps).reshape(4, -1)
    # the rows on the symmetric basis {|00>, psi+, |11>}
    sym = np.stack([symmetric_basis_state(2, n) for n in range(3)]).conj() @ out
    if not abs(np.vdot(sym, sym).real - 1.0) <= 1e-9:  # NaN fails
        raise ValueError("two-clone state is not supported on the symmetric subspace")
    m23 = build_machine(MachineSpec("mixed-23"))
    out3 = (m23.matrix @ sym).reshape(-1)
    return overlap(psi.amps, reduce_ket(out3, m23.out_dims + (sym.shape[1],), [0]))
