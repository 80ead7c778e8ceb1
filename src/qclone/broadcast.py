"""Broadcasting of two-qubit entanglement via local copiers, the six-qubit
three-party protocol, and entanglement swapping with correction unitaries.

The local copier is the symmetric two-parameter machine with mu = 1 - 2
lambda.  Its prescribed machine-vector Gram is realizable only for
lambda >= 1/6; below that the single-copy and copy-pair output formulas are
kept as formal linear maps (the outputs for the inputs studied here remain
valid density operators), and the machine path is cross-checked wherever it
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .cloners import MachineSpec, build_machine
from .measures import is_npt
from .qcore import (
    DensityOperator,
    MachineIsometry,
    PAULI_X,
    PAULI_Z,
    StateVector,
    bell_state,
    ket,
    partial_trace,
    permute_subsystems,
)

PSI_PLUS = bell_state("psi+")

# Final bracket widths of the PPT bisections; each protocol_boundary step is a
# full six-qubit simulation.
BISECT_TOL = 1e-6  # interval_by_bisection and ppt_boundary
PROTOCOL_BISECT_TOL = 1e-4


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    kind: str  # "Inseparable" | "Separable" | "Broadcastable"

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


def sd_cloner_lambda_star(alpha2: float) -> float:
    """Machine parameter minimizing the joint-clone distortion."""
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError("alpha^2 must lie in [0, 1]")
    return 0.75 * alpha2 * (1 - alpha2)


def _coerce_input(amplitudes) -> np.ndarray:
    """(alpha1, beta1) or (alpha1, beta1, gamma1, delta1) -> 4-vector
    ordered as the coefficients of |00>, |11>, |10>, |01>."""
    a = np.asarray(amplitudes, dtype=float).reshape(-1)
    if a.size == 2:
        a = np.array([a[0], a[1], 0.0, 0.0])
    if a.size != 4:
        raise ValueError("need (alpha1, beta1) or (alpha1, beta1, gamma1, delta1)")
    if abs(np.sum(a**2) - 1.0) > 1e-9:
        raise ValueError("amplitudes must be normalized")
    return a


def input_ket(amplitudes) -> StateVector:
    a1, b1, g1, d1 = _coerce_input(amplitudes)
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3], amps[2], amps[1] = a1, b1, g1, d1
    return StateVector((2, 2), amps)


# ---------------------------------------------------------------------------
# closed-form output coefficients


def nonlocal_coefficients(amplitudes, lmbda: float) -> Dict[str, float]:
    """C coefficients of the nonlocal pair output rho_AB' = rho_A'B."""
    a1, b1, g1, d1 = _coerce_input(amplitudes)
    mu = 1 - 2 * lmbda
    lm = lmbda * (1 - lmbda)
    return {
        "C11": a1**2 * (1 - lmbda) ** 2 + b1**2 * lmbda**2 + lm * (d1**2 + g1**2),
        "C12": b1 * g1 * lmbda * mu + d1 * a1 * mu * (1 - lmbda),
        "C13": b1 * d1 * lmbda * mu + a1 * g1 * mu * (1 - lmbda),
        "C14": mu**2 * g1 * d1,
        "C22": d1**2 * (1 - lmbda) ** 2 + g1**2 * lmbda**2 + lm * (a1**2 + b1**2),
        "C23": mu**2 * a1 * b1,
        "C24": a1 * g1 * lmbda * mu + b1 * d1 * mu * (1 - lmbda),
        "C33": g1**2 * (1 - lmbda) ** 2 + d1**2 * lmbda**2 + lm * (a1**2 + b1**2),
        "C34": a1 * d1 * lmbda * mu + b1 * g1 * mu * (1 - lmbda),
        "C44": a1**2 * lmbda**2 + b1**2 * (1 - lmbda) ** 2 + lm * (d1**2 + g1**2),
    }


def local_coefficients(amplitudes, lmbda: float, side: str = "A") -> Dict[str, float]:
    """K (side A) or K' (side B) coefficients of the local pair outputs.

    Derived from the copier structure directly (the source's general display
    is inconsistent with its own special case); for the (alpha1, beta1)
    family they coincide with the published special-case operator.
    """
    a1, b1, g1, d1 = _coerce_input(amplitudes)
    mu = 1 - 2 * lmbda
    if side == "A":
        w0, w1 = (a1, g1), (d1, b1)  # B = 0 / B = 1 sector amplitudes on A
    elif side == "B":
        w0, w1 = (a1, d1), (g1, b1)  # A = 0 / A = 1 sector amplitudes on B
    else:
        raise ValueError("side must be 'A' or 'B'")
    cross = (mu / 2) * (w0[0] * w0[1] + w1[0] * w1[1])
    return {
        "K11": mu * (w0[0] ** 2 + w1[0] ** 2),
        "K44": mu * (w0[1] ** 2 + w1[1] ** 2),
        "K22": lmbda,
        "K33": lmbda,
        "K14": lmbda,  # |01><10| coherence
        "K23": 0.0,  # |00><11| coherence
        "K12": cross,
        "K13": cross,
        "K24": cross,
        "K34": cross,
    }


def _check_lambda(lmbda: float) -> None:
    if not 0.0 <= lmbda < 0.5:
        raise ValueError(f"lambda must lie in [0, 1/2), got {lmbda}")


def _assemble(co: Dict[str, float], prefix: str = "C") -> np.ndarray:
    g = lambda name: co[prefix + name]
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = g("11"), g("22"), g("33"), g("44")
    m[0, 1] = m[1, 0] = g("12")
    m[0, 2] = m[2, 0] = g("13")
    m[1, 2] = m[2, 1] = g("14")  # |01><10|
    m[0, 3] = m[3, 0] = g("23")  # |00><11|
    m[1, 3] = m[3, 1] = g("24")
    m[2, 3] = m[3, 2] = g("34")
    return m


def broadcast_output_matrices(amplitudes, lmbda: float) -> Dict[str, np.ndarray]:
    """Closed-form output matrices; for lambda < 1/6 with coherent inputs
    the local pairs can fail positivity (the machine regime ends there)."""
    _check_lambda(lmbda)
    c = _assemble(nonlocal_coefficients(amplitudes, lmbda), "C")
    k_a = _assemble(local_coefficients(amplitudes, lmbda, "A"), "K")
    k_b = _assemble(local_coefficients(amplitudes, lmbda, "B"), "K")
    return {"AB'": c, "A'B": c, "AA'": k_a, "BB'": k_b}


def broadcast_outputs(amplitudes, lmbda: float) -> Dict[str, DensityOperator]:
    """Closed-form output operators of two local copiers on a pure input."""
    mats = broadcast_output_matrices(amplitudes, lmbda)
    return {key: DensityOperator((2, 2), m) for key, m in mats.items()}


# ---------------------------------------------------------------------------
# simulation paths


def _single_copy_channel(lmbda: float):
    mu = 1 - 2 * lmbda
    def chan(x: np.ndarray) -> np.ndarray:
        return mu * x + lmbda * np.trace(x) * np.eye(2)
    return chan


def _pair_channel(lmbda: float):
    """Formal one-qubit -> copy-pair map of the two-parameter copier.

    Completely positive only for lambda >= 1/6 (where the machine exists);
    applied as a linear map elsewhere.
    """
    mu = 1 - 2 * lmbda
    s = np.kron(ket(0), ket(1)) + np.kron(ket(1), ket(0))
    ss = np.outer(s, s.conj())
    e00 = np.outer(np.kron(ket(0), ket(0)), np.kron(ket(0), ket(0)).conj())
    e11 = np.outer(np.kron(ket(1), ket(1)), np.kron(ket(1), ket(1)).conj())
    cross01 = (mu / 2) * (
        np.outer(np.kron(ket(0), ket(0)), s.conj()) + np.outer(s, np.kron(ket(1), ket(1)).conj())
    )
    blocks = {
        (0, 0): mu * e00 + lmbda * ss,
        (1, 1): mu * e11 + lmbda * ss,
        (0, 1): cross01,
        (1, 0): cross01.conj().T,
    }
    def chan(x: np.ndarray) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for (i, j), block in blocks.items():
            out += x[i, j] * block
        return out
    return chan


def broadcast_channel_matrices(amplitudes, lmbda: float) -> Dict[str, np.ndarray]:
    """Same outputs from the copier's single-copy and copy-pair maps."""
    psi = input_ket(amplitudes)
    chan = _single_copy_channel(lmbda)
    # (Lambda x Lambda)(rho), block by block over subsystem A: the (i, j)
    # block of |psi><psi| is |psi_i><psi_j| with psi_i the B ket at A = i
    ab = np.zeros((4, 4), dtype=complex)
    rows = psi.amps.reshape(2, 2)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            ab += np.kron(chan(eij), chan(np.outer(rows[i], rows[j].conj())))
    pair = _pair_channel(lmbda)
    rho_a = partial_trace(psi, [0]).mat
    rho_b = partial_trace(psi, [1]).mat
    return {"AB'": ab, "A'B": ab, "AA'": pair(rho_a), "BB'": pair(rho_b)}


def broadcast_outputs_machine(amplitudes, lmbda: float) -> Dict[str, DensityOperator]:
    """Outputs from the genuine Gram-realized machine applied to both qubits
    (requires lambda >= 1/6)."""
    machine = build_machine(MachineSpec("bh", (lmbda,)))
    psi = input_ket(amplitudes)
    amps, dims = psi.amps, list(psi.dims)
    amps, dims = _apply_machine_at(amps, dims, 0, machine)
    # layout now A, A', M_A, B
    amps, dims = _apply_machine_at(amps, dims, 3, machine)
    # layout A, A', M_A, B, B', M_B
    full = StateVector(tuple(dims), amps)
    return {
        "AB'": partial_trace(full, [0, 4]),
        "A'B": partial_trace(full, [1, 3]),
        "AA'": partial_trace(full, [0, 1]),
        "BB'": partial_trace(full, [3, 4]),
    }


def _apply_machine_at(amps: np.ndarray, dims, idx: int, machine: MachineIsometry):
    """Apply a one-subsystem isometry in place, expanding dims at idx."""
    dims = list(dims)
    d_in = dims[idx]
    pre = int(np.prod(dims[:idx])) if idx else 1
    post = int(np.prod(dims[idx + 1 :])) if idx + 1 < len(dims) else 1
    t = amps.reshape(pre, d_in, post)
    out = np.tensordot(machine.matrix, t, axes=([1], [1]))  # (dout, pre, post)
    out = np.transpose(out, (1, 0, 2)).reshape(-1)
    new_dims = dims[:idx] + list(machine.out_dims) + dims[idx + 1 :]
    return out, new_dims


# ---------------------------------------------------------------------------
# separability intervals and fidelity


def insep_interval(lmbda: float) -> Interval:
    """alpha^2 interval where the nonlocal outputs are inseparable."""
    _check_lambda(lmbda)
    mu = 1 - 2 * lmbda
    disc = mu**4 - 4 * lmbda**2 * (1 - lmbda) ** 2
    if disc < 0:
        raise ValueError(f"no inseparable interval at lambda = {lmbda}")
    half = math.sqrt(disc) / (2 * mu**2)
    return Interval(0.5 - half, 0.5 + half, "Inseparable")


def sep_interval(lmbda: float) -> Interval:
    """alpha^2 interval where the local outputs are separable."""
    _check_lambda(lmbda)
    if lmbda > 0.25:
        raise ValueError(f"no separable interval at lambda = {lmbda}")
    half = math.sqrt(1 - 4 * lmbda) / (2 * (1 - 2 * lmbda))
    return Interval(0.5 - half, 0.5 + half, "Separable")


def broadcast_interval(lmbda: float) -> Interval:
    """Inputs broadcast per the definition: nonlocal inseparable and local
    separable (the intersection of the two intervals)."""
    insep = insep_interval(lmbda)
    sep = sep_interval(lmbda)
    return Interval(max(insep.lo, sep.lo), min(insep.hi, sep.hi), "Broadcastable")


def _bisect(flag, lo, hi, tol: float) -> float:
    """Midpoint of the last bracket of a bisection between ``lo``, where
    ``flag`` is False, and ``hi``, where it is True (either may be larger)."""
    while abs(hi - lo) > tol:
        mid = (lo + hi) / 2
        if flag(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def interval_by_bisection(lmbda: float, which: str) -> Interval:
    """Locate the closed-form interval endpoints from the PPT test of the
    corresponding output; an end is 0 or 1 when the predicate holds there.
    ``which`` is "insep" (nonlocal output AB') or "sep" (local output AA')."""
    if which not in ("insep", "sep"):
        raise ValueError(f"which must be 'insep' or 'sep', got {which!r}")
    key = "AB'" if which == "insep" else "AA'"

    def predicate(alpha2: float) -> bool:
        mats = broadcast_output_matrices((math.sqrt(alpha2), math.sqrt(1 - alpha2)), lmbda)
        return is_npt(mats[key]) == (which == "insep")

    if not predicate(0.5):
        raise ValueError("midpoint does not satisfy the predicate; no interval")
    lo = 0.0 if predicate(0.0) else _bisect(predicate, 0.0, 0.5, BISECT_TOL)
    hi = 1.0 if predicate(1.0) else _bisect(predicate, 1.0, 0.5, BISECT_TOL)
    kind = "Inseparable" if which == "insep" else "Separable"
    return Interval(lo, hi, kind)


def broadcast_fidelity(alpha2: float, lmbda: float, sign: int = -1) -> float:
    """Overlap of the nonlocal output with the input entangled state.

    ``sign=-1`` is the variant consistent with the universal-copier special
    case; ``sign=+1`` evaluates the alternative printed in one table header.
    """
    if not 0.0 <= lmbda <= 0.5:
        raise ValueError("lambda must lie in [0, 1/2]")
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError("alpha^2 must lie in [0, 1]")
    return (1 - lmbda) ** 2 + sign * 4 * alpha2 * (1 - alpha2) * lmbda * (1 - 2 * lmbda)


def avg_broadcast_fidelity(lmbda: float, sign: int = -1) -> float:
    return (1 - lmbda) ** 2 + sign * (2 / 3) * lmbda * (1 - 2 * lmbda)


# ---------------------------------------------------------------------------
# six-qubit three-party protocol

BRANCHES = ("Q0Q0", "Q0Q1", "Q1Q0", "Q1Q1")


@dataclass(frozen=True)
class ProtocolState:
    branch: str
    probability: float
    state: StateVector  # qubits 1,2,5 + machine, 3,4,6 + machine
    labels: tuple
    rho_146: DensityOperator
    rho_325: DensityOperator
    rho_16: DensityOperator
    rho_14: DensityOperator
    rho_46: DensityOperator
    rho_25: DensityOperator
    rho_12: DensityOperator
    rho_15: DensityOperator


def three_qubit_protocol(alpha, branch: str = "Q0Q0") -> ProtocolState:
    """Clone both halves of alpha|00> + beta|11>, measure both machines,
    clone the fresh copies again, and collect the reduced operators."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    alpha = complex(alpha)
    beta = math.sqrt(max(0.0, 1 - abs(alpha) ** 2))
    machine = build_machine(MachineSpec("bh-opt"))
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = alpha, beta
    dims = [2, 2]
    labels = ["q1", "q3"]
    # first round: clone qubits 1 and 3
    amps, dims = _apply_machine_at(amps, dims, 0, machine)
    labels = ["q1", "q2", "mA", "q3"]
    amps, dims = _apply_machine_at(amps, dims, 3, machine)
    labels = ["q1", "q2", "mA", "q3", "q4", "mB"]
    # measure both machines in the computational (Q0/Q1) basis
    sel_a = int(branch[1])
    sel_b = int(branch[3])
    t = amps.reshape(dims)
    t = np.take(np.take(t, sel_b, axis=5), sel_a, axis=2)
    amps = t.reshape(-1)
    prob = float(np.linalg.norm(amps) ** 2)
    amps = amps / math.sqrt(prob)
    dims = [2, 2, 2, 2]
    labels = ["q1", "q2", "q3", "q4"]
    # second round: clone qubits 2 and 4
    amps, dims = _apply_machine_at(amps, dims, 1, machine)
    labels = ["q1", "q2", "q5", "mA2", "q3", "q4"]
    amps, dims = _apply_machine_at(amps, dims, 5, machine)
    labels = ["q1", "q2", "q5", "mA2", "q3", "q4", "q6", "mB2"]
    state = StateVector(tuple(dims), amps)

    def reduced(names) -> DensityOperator:
        keep = sorted(labels.index(n) for n in names)
        rho = partial_trace(state, keep)
        kept_names = [labels[k] for k in keep]
        order = [kept_names.index(n) for n in names]
        return permute_subsystems(rho, order)

    return ProtocolState(
        branch=branch,
        probability=prob,
        state=state,
        labels=tuple(labels),
        rho_146=reduced(["q1", "q4", "q6"]),
        rho_325=reduced(["q3", "q2", "q5"]),
        rho_16=reduced(["q1", "q6"]),
        rho_14=reduced(["q1", "q4"]),
        rho_46=reduced(["q4", "q6"]),
        rho_25=reduced(["q2", "q5"]),
        rho_12=reduced(["q1", "q2"]),
        rho_15=reduced(["q1", "q5"]),
    )


def rho_146_closed(alpha) -> DensityOperator:
    """Closed-form three-qubit operator of the both-machines-in-the-first-
    branch outcome (qubit order 1, 4, 6)."""
    alpha = complex(alpha)
    beta2 = 1 - abs(alpha) ** 2
    beta = math.sqrt(max(0.0, beta2))
    norm = (3 * abs(alpha) ** 2 + 1) / 9
    z = np.kron(ket(0), np.kron(ket(0), ket(0)))
    o = np.kron(ket(1), np.kron(ket(1), ket(1)))
    zpsi = np.kron(ket(0), PSI_PLUS)
    opsi = np.kron(ket(1), PSI_PLUS)
    z11 = np.kron(ket(0), np.kron(ket(1), ket(1)))
    o00 = np.kron(ket(1), np.kron(ket(0), ket(0)))
    m = np.zeros((8, 8), dtype=complex)
    a2 = abs(alpha) ** 2
    m += (4 * a2 / 9) * ((2 / 3) * np.outer(z, z) + (1 / 3) * np.outer(zpsi, zpsi))
    ab = alpha * np.conj(beta)
    m += (np.conj(ab) / 9) * (math.sqrt(2) / 3) * (np.outer(z, opsi) + np.outer(zpsi, o))
    m += (ab / 9) * (math.sqrt(2) / 3) * (np.outer(o, zpsi) + np.outer(opsi, z))
    for v in (z11, zpsi, z, o, opsi, o00):
        m += (beta2 / 36) * (2 / 3) * np.outer(v, v)
    return DensityOperator((2, 2, 2), m / norm)


def rho_16_closed(alpha) -> DensityOperator:
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2
    beta = math.sqrt(max(0.0, 1 - a2))
    norm = (3 * a2 + 1) / 9
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (4 * a2 / 9) * (5 / 6)
    m[1, 1] = (4 * a2 / 9) * (1 / 6)
    m[0, 3] = 2 * alpha * beta / 27
    m[3, 0] = np.conj(m[0, 3])
    m += (1 - a2) / 36 * np.eye(4)
    return DensityOperator((2, 2), m / norm)


def rho_46_closed(alpha) -> DensityOperator:
    a2 = abs(complex(alpha)) ** 2
    b2 = 1 - a2
    norm = (3 * a2 + 1) / 9
    s = np.zeros((4, 4))
    s[1:3, 1:3] = 1.0
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] += (4 * a2 / 9) * (2 / 3) + (b2 / 36) * (4 / 3)
    m[3, 3] += (b2 / 36) * (4 / 3)
    m += ((4 * a2 / 9) * (1 / 6) + (b2 / 36) * (2 / 3)) * s
    return DensityOperator((2, 2), m / norm)


def rho_12_closed(alpha) -> DensityOperator:
    a2 = abs(complex(alpha)) ** 2
    b2 = 1 - a2
    norm = (3 * a2 + 1) / 9
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (4 * a2 / 9) * (5 / 6) + (b2 / 36) * (1 / 3)
    m[1, 1] = (4 * a2 / 9) * (1 / 6) + (b2 / 36) * (5 / 3)
    m[2, 2] = (b2 / 36) * (5 / 3)
    m[3, 3] = (b2 / 36) * (1 / 3)
    m[1, 2] = m[2, 1] = (b2 / 36) * (4 / 3)
    return DensityOperator((2, 2), m / norm)


def _ppt_boundary(fn, lo: float, hi: float, entangled_above: bool, tol: float) -> float:
    def flag(a2: float) -> bool:
        return is_npt(fn(a2).mat) == entangled_above

    if flag(lo) or not flag(hi):
        raise ValueError(f"no boundary in ({lo}, {hi}) with entangled_above={entangled_above}")
    return _bisect(flag, lo, hi, tol)


def ppt_boundary(fn, lo: float, hi: float, entangled_above: bool = True) -> float:
    """Bisect alpha^2 in (lo, hi) for the boundary above which the two-qubit
    operator fn(alpha^2) is entangled (or separable, if not entangled_above)."""
    return _ppt_boundary(fn, lo, hi, entangled_above, BISECT_TOL)


def protocol_boundary(
    branch: str, operator: str, lo: float, hi: float, entangled_above: bool = True
) -> float:
    """Bisect alpha^2 for the PPT boundary of one reduced operator of a
    measurement branch (operator is a ProtocolState attribute name)."""
    def fn(a2: float) -> DensityOperator:
        return getattr(three_qubit_protocol(math.sqrt(a2), branch), operator)
    return _ppt_boundary(fn, lo, hi, entangled_above, PROTOCOL_BISECT_TOL)


def branch_broadcastable(alpha2: float, branch: str) -> bool:
    """Three-qubit broadcasting condition: the two three-qubit operators are
    closed entangled states and the first-round local pairs are separable."""
    out = three_qubit_protocol(math.sqrt(alpha2), branch)
    closed_a = is_npt(out.rho_16.mat) and is_npt(out.rho_14.mat) and is_npt(out.rho_46.mat)
    closed_b = is_npt(out.rho_25.mat)
    local_ok = not is_npt(out.rho_12.mat) and not is_npt(out.rho_15.mat)
    return closed_a and closed_b and local_ok


def branch_range(branch: str, grid: int = 201):
    """Scan alpha^2 for the broadcastable range(s) of a measurement branch."""
    xs = np.linspace(0.001, 0.999, grid)
    flags = [branch_broadcastable(x, branch) for x in xs]
    runs = []
    start = None
    for x, f in zip(xs, flags):
        if f and start is None:
            start = x
        if not f and start is not None:
            runs.append((start, prev))
            start = None
        prev = x
    if start is not None:
        runs.append((start, xs[-1]))
    return runs


# ---------------------------------------------------------------------------
# entanglement swapping with corrections

_SWAP_CORRECTIONS = {
    "B1+": PAULI_Z @ PAULI_X,
    "B1-": PAULI_X,
    "B2+": PAULI_Z,
    "B2-": np.eye(2, dtype=complex),
}

_OUTCOME_BELL = {"B1+": "phi+", "B1-": "phi-", "B2+": "psi+", "B2-": "psi-"}


def swap_extend(rho_325: DensityOperator, outcome: str):
    """Teleport qubit 2 of a (3,2,5) state onto a fresh qubit 7 via a shared
    singlet and a Bell measurement, then undo the outcome's Pauli error.

    Returns (probability, corrected DensityOperator on (3,5,7)); a
    zero-probability branch returns (0.0, None).
    """
    if outcome not in _SWAP_CORRECTIONS:
        raise ValueError(f"outcome must be one of {sorted(_SWAP_CORRECTIONS)}")
    if rho_325.dims != (2, 2, 2):
        raise ValueError("expected a three-qubit operator")
    from .qcore import bell_project, tensor

    singlet = bell_state("psi-")
    singlet_rho = DensityOperator((2, 2), np.outer(singlet, singlet.conj()))
    # layout: 3, 2, 5, 8, 7
    joint = tensor(rho_325, singlet_rho)
    prob, post = bell_project(joint, (1, 3), _OUTCOME_BELL[outcome])
    if post is None:
        return 0.0, None
    # remaining layout: 3, 5, 7
    u = _SWAP_CORRECTIONS[outcome]
    full = np.kron(np.eye(4, dtype=complex), u)
    corrected = DensityOperator(post.dims, full @ post.mat @ full.conj().T)
    return prob, corrected


def relabel_325_to_357(rho_325: DensityOperator) -> DensityOperator:
    """The target of the swap: qubit 2 renamed to 7, layout (3, 5, 7)."""
    return permute_subsystems(rho_325, [0, 2, 1])
