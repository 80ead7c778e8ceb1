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
from typing import Dict, NamedTuple, Optional

import numpy as np

from .cloners import MachineSpec, build_machine
from .measures import is_npt, min_pt_eigenvalue
from .qcore import (
    ALPHA2,
    Checked,
    DensityOperator,
    MachineIsometry,
    PAULI_X,
    PAULI_Z,
    StateVector,
    _check_x_state,
    _derived,
    _derived_ket,
    _derived_x,
    _real_amplitudes,
    bell_project,
    bell_state,
    check_densities,
    check_kets,
    domain,
    ket,
    permute_subsystems,
    reduce_ket,
    tensor,
)

PSI_PLUS = bell_state("psi+")

BISECT_TOL = 1e-6  # final bracket width of intervals_by_bisection
SECTION = 5  # halvings of a bracket decided by each stacked PPT test of intervals_by_bisection
CERTIFY_OFFSET = 1e-7  # certify_boundary: alpha^2 offset on each side of a boundary

# lambda of the copier's maps and fidelities, and of the separability intervals
COPIER_LAMBDA = domain("lambda", 0.0, 0.5)
INTERVAL_LAMBDA = domain("lambda", 0.0, 0.5, "[)")


class _Interval(NamedTuple):
    lo: float
    hi: float
    kind: str  # "Inseparable" | "Separable" | "Broadcastable"


class Interval(Checked, _Interval):
    __slots__ = ()

    def __new__(cls, lo, hi, kind):
        if not lo <= hi:  # NaN fails
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi, kind))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def sd_cloner_lambda_star(alpha2: float) -> float:
    """Machine parameter minimizing the joint-clone distortion."""
    ALPHA2.check(alpha2)
    return 0.75 * alpha2 * (1 - alpha2)


def _coerce_input(amplitudes) -> np.ndarray:
    """(alpha1, beta1) or (alpha1, beta1, gamma1, delta1) -> 4-vector
    ordered as the coefficients of |00>, |11>, |10>, |01>; an (n, 2) or
    (n, 4) stack of inputs -> an (n, 4) array, each input ket checked.
    Complex amplitudes with a nonzero imaginary part raise ValueError."""
    a = _real_amplitudes(amplitudes)
    a = a if a.ndim == 2 else a.reshape(-1)
    if a.shape[-1] == 2:
        a, pair = np.zeros(a.shape[:-1] + (4,)), a
        a[..., :2] = pair
    if a.shape[-1] != 4 or not a.size:
        raise ValueError("need (alpha1, beta1) or (alpha1, beta1, gamma1, delta1)")
    check_kets(a)
    return a


def input_amps(amplitudes) -> np.ndarray:
    """The input ket's amplitudes on |00>, |01>, |10>, |11>, (4,) for one
    input or (n, 4) for a stack."""
    return _coerce_input(amplitudes)[..., (0, 3, 2, 1)].astype(complex)


def _one_input(mats: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The output matrices of one input; ValueError for those of a stack."""
    if mats["AB'"].ndim != 2:
        raise ValueError("need one input, not a stack")
    return mats


def input_ket(amplitudes) -> StateVector:
    amps = input_amps(amplitudes)
    if amps.ndim != 1:
        raise ValueError("need one input, not a stack")
    return _derived_ket((2, 2), amps)


# ---------------------------------------------------------------------------
# closed-form output coefficients


def nonlocal_coefficients(amplitudes, lmbda: float) -> Dict[str, float]:
    """C coefficients of the nonlocal pair output rho_AB' = rho_A'B, one
    array per name for a stack of inputs."""
    COPIER_LAMBDA.check(lmbda)
    a = _coerce_input(amplitudes)
    return _nonlocal_terms(*(a.tolist() if a.ndim == 1 else a.T), lmbda)


def _nonlocal_terms(a1, b1, g1, d1, lmbda):
    """The C coefficients of the four amplitudes, floats or equal-shape
    arrays; every square is a product, since ** on a float calls pow."""
    mu = 1 - 2 * lmbda
    lm, nu2, lam2, mu2 = lmbda * (1 - lmbda), (1 - lmbda) * (1 - lmbda), lmbda * lmbda, mu * mu
    return {
        "C11": a1 * a1 * nu2 + b1 * b1 * lam2 + lm * (d1 * d1 + g1 * g1),
        "C12": b1 * g1 * lmbda * mu + d1 * a1 * mu * (1 - lmbda),
        "C13": b1 * d1 * lmbda * mu + a1 * g1 * mu * (1 - lmbda),
        "C14": mu2 * g1 * d1,
        "C22": d1 * d1 * nu2 + g1 * g1 * lam2 + lm * (a1 * a1 + b1 * b1),
        "C23": mu2 * a1 * b1,
        "C24": a1 * g1 * lmbda * mu + b1 * d1 * mu * (1 - lmbda),
        "C33": g1 * g1 * nu2 + d1 * d1 * lam2 + lm * (a1 * a1 + b1 * b1),
        "C34": a1 * d1 * lmbda * mu + b1 * g1 * mu * (1 - lmbda),
        "C44": a1 * a1 * lam2 + b1 * b1 * nu2 + lm * (d1 * d1 + g1 * g1),
    }


def local_coefficients(amplitudes, lmbda: float, side: str = "A") -> Dict[str, float]:
    """K (side A) or K' (side B) coefficients of the local pair outputs,
    one array per varying name for a stack of inputs.

    Derived from the copier structure directly (the source's general display
    is inconsistent with its own special case); for the (alpha1, beta1)
    family they coincide with the published special-case operator.
    """
    COPIER_LAMBDA.check(lmbda)
    a = _coerce_input(amplitudes)
    return _local_terms(*(a.tolist() if a.ndim == 1 else a.T), lmbda, side)


def _local_terms(a1, b1, g1, d1, lmbda, side: str):
    """The K or K' coefficients from the four amplitudes, on floats or on
    equal-shape arrays; the constant K23 stays the scalar 0.0."""
    mu = 1 - 2 * lmbda
    if side == "A":
        w0, w1 = (a1, g1), (d1, b1)  # B = 0 / B = 1 sector amplitudes on A
    elif side == "B":
        w0, w1 = (a1, d1), (g1, b1)  # A = 0 / A = 1 sector amplitudes on B
    else:
        raise ValueError("side must be 'A' or 'B'")
    cross = (mu / 2) * (w0[0] * w0[1] + w1[0] * w1[1])
    return {
        "K11": mu * (w0[0] * w0[0] + w1[0] * w1[0]),
        "K44": mu * (w0[1] * w0[1] + w1[1] * w1[1]),
        "K22": lmbda,
        "K33": lmbda,
        "K14": lmbda,  # |01><10| coherence
        "K23": 0.0,  # |00><11| coherence
        "K12": cross,
        "K13": cross,
        "K24": cross,
        "K34": cross,
    }


# coefficient name of each matrix entry, row by row: 14 is the |01><10|
# coherence and 23 the |00><11| one
_ENTRY_NAMES = (
    "11", "12", "13", "23",
    "12", "22", "14", "24",
    "13", "14", "33", "34",
    "23", "24", "34", "44",
)


def _assemble(co: Dict[str, float], prefix: str = "C") -> np.ndarray:
    """The (4, 4) matrix of one coefficient set, or the (..., 4, 4) stack of
    a set of coefficient arrays (scalar coefficients are broadcast)."""
    entries = [co[prefix + name] for name in _ENTRY_NAMES]
    if not isinstance(entries[0], np.ndarray):
        return np.array(entries, dtype=complex).reshape(4, 4)
    shape = np.broadcast(*entries).shape
    m = np.empty(shape + (16,), dtype=complex)
    for i, entry in enumerate(entries):
        m[..., i] = entry
    return m.reshape(shape + (4, 4))


def _output_terms(amps: np.ndarray, lmbda):
    """The C, K and K' coefficient sets of the nonlocal pair AB' and the
    local pairs AA' and BB', from coerced amplitudes, each with its prefix.
    One input's coefficients are Python floats: the arithmetic of numpy
    float64 scalars, at a fraction of its cost."""
    amps = amps.tolist() if amps.ndim == 1 else amps.T
    return (
        (_nonlocal_terms(*amps, lmbda), "C"),
        (_local_terms(*amps, lmbda, "A"), "K"),
        (_local_terms(*amps, lmbda, "B"), "K"),
    )


def broadcast_output_matrices(amplitudes, lmbda: float) -> Dict[str, np.ndarray]:
    """Closed-form output matrices, (4, 4) for one input and (n, 4, 4) for
    an (n, 2) or (n, 4) stack; for lambda < 1/6 with coherent inputs the
    local pairs can fail positivity (the machine regime ends there)."""
    COPIER_LAMBDA.check(lmbda)
    c, k_a, k_b = (_assemble(co, prefix) for co, prefix in _output_terms(_coerce_input(amplitudes), lmbda))
    return {"AB'": c, "A'B": c, "AA'": k_a, "BB'": k_b}


def broadcast_outputs(amplitudes, lmbda: float) -> Dict[str, DensityOperator]:
    """Closed-form output operators of two local copiers on one pure input.

    For an input alpha1|00> + beta1|11> (gamma1 = delta1 = 0, as every
    two-amplitude input) the C and K coefficients off the X entries vanish,
    so each of the three operators is an X state, checked on its X entries
    and carrying them; any other input's three matrices take one stacked
    check, which fails for some lambda < 1/6."""
    COPIER_LAMBDA.check(lmbda)
    a = _coerce_input(amplitudes)
    if a.ndim != 1:
        raise ValueError("need one input, not a stack")
    terms = _output_terms(a, lmbda)
    if a[2] or a[3]:
        mats = np.stack([_assemble(co, prefix) for co, prefix in terms])
        check_densities(mats)
        pair, aa, bb = (_derived((2, 2), m) for m in mats)
    else:
        pair, aa, bb = (_derived_x(_assemble(co, prefix)) for co, prefix in terms)
    return {"AB'": pair, "A'B": pair, "AA'": aa, "BB'": bb}  # rho_AB' = rho_A'B, one operator


# ---------------------------------------------------------------------------
# simulation paths


def _pair_blocks():
    """The lambda-independent operators of the copy maps, read-only: |s><s|
    with s = |01> + |10>, |00><00|, |11><11|, the cross sum |00><s| +
    |s><11|, and the one-qubit matrix units, |i><j| at index [i, j]."""
    s = np.kron(ket(0), ket(1)) + np.kron(ket(1), ket(0))
    blocks = (
        np.outer(s, s.conj()),
        np.outer(np.kron(ket(0), ket(0)), np.kron(ket(0), ket(0)).conj()),
        np.outer(np.kron(ket(1), ket(1)), np.kron(ket(1), ket(1)).conj()),
        np.outer(np.kron(ket(0), ket(0)), s.conj()) + np.outer(s, np.kron(ket(1), ket(1)).conj()),
        np.eye(4, dtype=complex).reshape(2, 2, 2, 2),
    )
    for b in blocks:
        b.flags.writeable = False
    return blocks


_SS, _E00, _E11, _CROSS, _UNITS = _pair_blocks()
# the copy-pair map's blocks and the entry of x = rho_A (or rho_B), flat
# index ij -> 2i + j, that weights each; |s><s| carries both populations,
# and the cross sum is real, so its transpose is its adjoint
_PAIR = np.stack((_E00, _E11, _SS, _SS, _CROSS, _CROSS.T))
_PAIR.flags.writeable = False
_PAIR_ENTRY = (0, 3, 0, 3, 1, 2)


def _copy_one(x: np.ndarray, lmbda) -> np.ndarray:
    """The single-copy map Lambda(x) = mu x + lambda tr(x) I, on a
    (..., 2, 2) stack; an array of lambda broadcasts with its stack axes."""
    tr = x[..., 0, 0] + x[..., 1, 1]
    return np.expand_dims(1 - 2 * lmbda, (-2, -1)) * x + (lmbda * tr)[..., None, None] * np.eye(2)


def _copy_pair(x: np.ndarray, lmbda) -> np.ndarray:
    """The formal one-qubit -> copy-pair map of the two-parameter copier, on
    a (..., 2, 2) stack: x00 (mu |00><00| + lambda |s><s|) + x11 (mu |11><11|
    + lambda |s><s|) + (mu / 2) (x01 C + x10 C^T), C the cross sum, as one
    weighted sum over the read-only blocks (lambda: a number or an array).

    Completely positive only for lambda >= 1/6 (where the machine exists);
    applied as a linear map elsewhere.
    """
    mu = 1 - 2 * lmbda
    w = x.reshape(x.shape[:-2] + (4,))[..., _PAIR_ENTRY] * np.stack([mu, mu, lmbda, lmbda, mu / 2, mu / 2], -1)
    return np.sum(w[..., None, None] * _PAIR, axis=-3, initial=0)


def broadcast_channel_matrices(amplitudes, lmbda) -> Dict[str, np.ndarray]:
    """Same outputs from the copier's single-copy and copy-pair maps, for
    one input or a stack, with one lambda or one per input of the stack.

    (Lambda x Lambda)(rho) = sum_ij Lambda(|i><j|) x Lambda(rho_ij), where
    rho_ij = |psi_i><psi_j| is the (i, j) block over subsystem A (psi_i the
    B ket at A = i); it equals mu^2 rho + mu lambda (rho_A x I + I x rho_B)
    + lambda^2 tr(rho) I.  Each output entry of either map is a sum of at
    most two nonzero products, added from +0, so the result has the bits of
    the same maps applied block by block with kron products.
    """
    COPIER_LAMBDA.check(lmbda)
    amps = input_amps(amplitudes)
    batch = amps.shape[:-1]
    rows = amps.reshape(batch + (2, 2))
    lam = np.reshape(lmbda, np.shape(lmbda) + (1, 1))  # per input, broadcast over the (i, j) blocks
    blocks = _copy_one(rows[..., :, None, :, None] * rows.conj()[..., None, :, None, :], lam)
    units = _copy_one(_UNITS, lam)
    # [..., i, j, i', a, j', b]: the kron of the (i, j) terms, summed over i, j
    terms = units[..., :, :, :, None, :, None] * blocks[..., :, :, None, :, None, :]
    ab = np.sum(terms, axis=(-6, -5), initial=0).reshape(batch + (4, 4))
    pair = _copy_pair(np.stack([reduce_ket(amps, (2, 2), [k]) for k in (0, 1)]), lmbda)
    return {"AB'": ab, "A'B": ab, "AA'": pair[0], "BB'": pair[1]}


def broadcast_machine_matrices(amplitudes, lmbda: float) -> Dict[str, np.ndarray]:
    """Output matrices of the genuine Gram-realized machine applied to both
    qubits (requires lambda >= 1/6), for one input or a stack."""
    machine = build_machine(MachineSpec("bh", (lmbda,)))
    amps, dims = input_amps(amplitudes), [2, 2]
    amps, dims = _apply_machine_at(amps, dims, 0, machine)
    # layout now A, A', M_A, B
    amps, dims = _apply_machine_at(amps, dims, 3, machine)
    # layout A, A', M_A, B, B', M_B
    keeps = {"AB'": [0, 4], "A'B": [1, 3], "AA'": [0, 1], "BB'": [3, 4]}
    return {name: reduce_ket(amps, dims, keep) for name, keep in keeps.items()}


def broadcast_outputs_machine(amplitudes, lmbda: float) -> Dict[str, DensityOperator]:
    """The machine's output operators for one input (requires lambda >= 1/6)."""
    mats = _one_input(broadcast_machine_matrices(amplitudes, lmbda))
    return {name: _derived((2, 2), m) for name, m in mats.items()}


def _apply_machine_at(amps: np.ndarray, dims, idx: int, machine: MachineIsometry):
    """Apply a one-subsystem isometry to a ket or to each ket of a (..., d)
    stack, expanding dims at idx."""
    dims = list(dims)
    batch = amps.shape[:-1]
    # the stack axes lead, so they fold into the subsystems before idx
    t = amps.reshape(-1, dims[idx], math.prod(dims[idx + 1 :]))
    out = np.tensordot(machine.matrix, t, axes=([1], [1]))  # (dout, pre, post)
    out = np.transpose(out, (1, 0, 2)).reshape(batch + (-1,))
    new_dims = dims[:idx] + list(machine.out_dims) + dims[idx + 1 :]
    return out, new_dims


# ---------------------------------------------------------------------------
# separability intervals and fidelity


def insep_interval(lmbda: float) -> Interval:
    """alpha^2 interval where the nonlocal outputs are inseparable."""
    INTERVAL_LAMBDA.check(lmbda)
    mu = 1 - 2 * lmbda
    disc = mu**4 - 4 * lmbda**2 * (1 - lmbda) ** 2
    if disc < 0:
        raise ValueError(f"no inseparable interval at lambda = {lmbda}")
    half = math.sqrt(disc) / (2 * mu**2)
    return Interval(0.5 - half, 0.5 + half, "Inseparable")


def sep_interval(lmbda: float) -> Interval:
    """alpha^2 interval where the local outputs are separable."""
    INTERVAL_LAMBDA.check(lmbda)
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


def _bisect(flag, lo, hi, tol: float) -> np.ndarray:
    """Midpoints of the last brackets of bisections in lockstep: bracket k
    runs from ``lo[k]``, where ``flag`` is False, to ``hi[k]``, where it is
    True (either may be larger).  Every bracket is halved until the widest
    is within ``tol``, so brackets of one start width end as separate
    bisections would.

    The next SECTION halvings of a bracket can only land on its
    2**SECTION-section points, so one call of ``flag``, which maps an (n, m)
    array of points to an (n, m) array of bools, flags all inner points of
    every bracket, and the halvings are replayed on those flags.  The points
    are the bisection's midpoints bit for bit while the bracket ends are
    dyadic fractions of few bits, as every bracket from 0 or 1 to 1/2 is."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    halvings, width = 0, np.abs(hi - lo).max()
    while width > tol:
        halvings, width = halvings + 1, width / 2
    rows = np.arange(len(lo))
    while halvings:
        k = min(SECTION, halvings)
        halvings -= k
        m = 1 << k
        points = lo[:, None] + (hi - lo)[:, None] * (np.arange(m + 1) / m)
        up = flag(points[:, 1:-1])
        a, b = np.zeros(len(lo), dtype=int), np.full(len(lo), m)
        for _ in range(k):
            mid = (a + b) // 2
            at = up[rows, mid - 1]
            a, b = np.where(at, a, mid), np.where(at, mid, b)
        lo, hi = points[rows, a], points[rows, b]
    return (lo + hi) / 2


def intervals_by_bisection(lmbdas, which: str) -> list[Interval]:
    """Locate the closed-form interval endpoints for every lambda in
    ``lmbdas`` from the PPT test of the corresponding output; an end is 0 or
    1 when the predicate holds there.  ``which`` is "insep" (nonlocal output
    AB') or "sep" (local output AA').  One stacked PPT test of the tested
    output takes the midpoint and both ends of every lambda; all open ends
    are then bisected in lockstep, SECTION halvings per stacked test."""
    if which not in ("insep", "sep"):
        raise ValueError(f"which must be 'insep' or 'sep', got {which!r}")
    lmbdas = [INTERVAL_LAMBDA.check(float(lmbda)) for lmbda in lmbdas]

    def predicate(alpha2: np.ndarray, lmbda: np.ndarray) -> np.ndarray:
        zero = np.zeros_like(alpha2)
        amps = (np.sqrt(alpha2), np.sqrt(1 - alpha2), zero, zero)
        if which == "insep":
            return is_npt(_assemble(_nonlocal_terms(*amps, lmbda), "C"))
        return ~is_npt(_assemble(_local_terms(*amps, lmbda, "A"), "K"))

    n = len(lmbdas)
    lam = np.array(lmbdas * 3)  # every lambda thrice: its midpoint, its lower end, its upper end
    holds = predicate(np.repeat([0.5, 0.0, 1.0], n), lam)
    if not holds[:n].all():
        bad = lmbdas[int(np.argmin(holds[:n]))]
        raise ValueError(f"midpoint does not satisfy the predicate at lambda = {bad}; no interval")
    ends = np.repeat([0.0, 1.0], n)
    open_ = ~holds[n:]
    if open_.any():
        lam_open = lam[n:][open_, None]
        ends[open_] = _bisect(
            lambda x: predicate(x, lam_open), ends[open_], np.full(len(lam_open), 0.5), BISECT_TOL
        )
    kind = "Inseparable" if which == "insep" else "Separable"
    return [Interval(float(ends[k]), float(ends[n + k]), kind) for k in range(n)]


def interval_by_bisection(lmbda: float, which: str) -> Interval:
    """:func:`intervals_by_bisection` for one lambda."""
    return intervals_by_bisection([lmbda], which)[0]


def broadcast_fidelity(alpha2: float, lmbda: float, sign: int = -1) -> float:
    """Overlap of the nonlocal output with the input entangled state.

    ``sign=-1`` is the variant consistent with the universal-copier special
    case; ``sign=+1`` evaluates the alternative printed in one table header.
    """
    COPIER_LAMBDA.check(lmbda)
    ALPHA2.check(alpha2)
    return (1 - lmbda) ** 2 + sign * 4 * alpha2 * (1 - alpha2) * lmbda * (1 - 2 * lmbda)


def avg_broadcast_fidelity(lmbda: float, sign: int = -1) -> float:
    """:func:`broadcast_fidelity` averaged over alpha^2 uniform in [0, 1]."""
    COPIER_LAMBDA.check(lmbda)
    return (1 - lmbda) ** 2 + sign * (2 / 3) * lmbda * (1 - 2 * lmbda)


# ---------------------------------------------------------------------------
# six-qubit three-party protocol

BRANCHES = ("Q0Q0", "Q0Q1", "Q1Q0", "Q1Q1")


class ProtocolState(NamedTuple):
    branch: str
    probability: float
    state: StateVector  # qubits 1,2,5 + machine, 3,4,6 + machine
    labels: tuple
    # reduced operators: rho_146 keeps qubits 1, 4, 6, in that order
    rho_146: DensityOperator
    rho_325: DensityOperator
    rho_16: DensityOperator
    rho_14: DensityOperator
    rho_46: DensityOperator
    rho_25: DensityOperator
    rho_12: DensityOperator
    rho_15: DensityOperator


def _alpha_weight(alpha) -> float:
    """|alpha|^2 of a protocol input alpha|00> + beta|11>, checked."""
    return ALPHA2.check(abs(complex(alpha)) ** 2, "|alpha|^2")


def three_qubit_protocol(alpha, branch: str = "Q0Q0") -> ProtocolState:
    """Clone both halves of alpha|00> + beta|11>, measure both machines,
    clone the fresh copies again, and collect the reduced operators."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    alpha = complex(alpha)
    beta = math.sqrt(1 - _alpha_weight(alpha))
    machine = build_machine(MachineSpec("bh-opt"))
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = alpha, beta
    # first round: clone qubits 1 and 3; layout q1, q2, mA, q3, q4, mB
    amps, dims = _apply_machine_at(amps, [2, 2], 0, machine)
    amps, dims = _apply_machine_at(amps, dims, 3, machine)
    # measure both machines in the computational (Q0/Q1) basis; layout q1..q4
    t = np.take(np.take(amps.reshape(dims), int(branch[3]), axis=5), int(branch[1]), axis=2)
    amps = t.reshape(-1)
    prob = float(np.linalg.norm(amps) ** 2)
    amps = amps / math.sqrt(prob)
    # second round: clone qubits 2 and 4
    amps, dims = _apply_machine_at(amps, [2, 2, 2, 2], 1, machine)
    amps, dims = _apply_machine_at(amps, dims, 5, machine)
    labels = ("q1", "q2", "q5", "mA2", "q3", "q4", "q6", "mB2")
    ops = []
    for name in ProtocolState._fields[4:]:
        keep = [labels.index("q" + q) for q in name[4:]]
        ops.append(_derived((2,) * len(keep), reduce_ket(amps, dims, keep)))
    return ProtocolState(branch, prob, _derived_ket(tuple(dims), amps), labels, *ops)


def _rho_146_terms():
    """The alpha-independent operators of rho_146_closed, read-only: the
    alpha^2 term, the two coherence sums and the beta^2 term.  The six
    projectors of the beta^2 term have disjoint supports, so adding their
    weighted sum at once gives the same bits as adding them one by one."""
    z = np.kron(ket(0), np.kron(ket(0), ket(0)))
    o = np.kron(ket(1), np.kron(ket(1), ket(1)))
    zpsi = np.kron(ket(0), PSI_PLUS)
    opsi = np.kron(ket(1), PSI_PLUS)
    z11 = np.kron(ket(0), np.kron(ket(1), ket(1)))
    o00 = np.kron(ket(1), np.kron(ket(0), ket(0)))
    terms = (
        (2 / 3) * np.outer(z, z) + (1 / 3) * np.outer(zpsi, zpsi),
        np.outer(z, opsi) + np.outer(zpsi, o),
        np.outer(o, zpsi) + np.outer(opsi, z),
        sum(np.outer(v, v) for v in (z11, zpsi, z, o, opsi, o00)),
    )
    for t in terms:
        t.flags.writeable = False
    return terms


_RHO_146_A2, _RHO_146_UP, _RHO_146_DOWN, _RHO_146_B2 = _rho_146_terms()


# The closed-form protocol operators are X states, checked with the tests
# and tolerance of check_densities, no eigensolve: rho_146 on its scalars,
# a two-qubit one on its X entries, which it carries (qcore._derived_x).  The
# matrix is divided by norm in numpy, which multiplies by 1 / norm; dividing
# the Python scalars instead would move some entries by their last bit.


def rho_146_closed(alpha) -> DensityOperator:
    """Closed-form three-qubit operator of the both-machines-in-the-first-
    branch outcome (qubit order 1, 4, 6).

    It is the direct sum of two 2x2 blocks, on {|000>, |1>psi+} and
    {|0>psi+, |111>}, each with a coherence of modulus |alpha beta| sqrt(2)
    / 27 / norm, of the weight w = beta^2 / 54 / norm on |011> and on
    |100>, and of zero on |0>psi- and |1>psi-."""
    alpha = complex(alpha)
    a2 = _alpha_weight(alpha)
    beta2 = 1 - a2
    beta = math.sqrt(beta2)
    norm = (3 * a2 + 1) / 9
    ab = alpha * np.conj(beta)
    a = 4 * a2 / 9
    up = (np.conj(ab) / 9) * (math.sqrt(2) / 3)
    down = (ab / 9) * (math.sqrt(2) / 3)
    w = (beta2 / 36) * (2 / 3)  # each of the six projectors of the beta^2 term
    c_up, c_down = complex(up) / norm, complex(down) / norm
    _check_x_state(
        (a * (2 / 3) + w) / norm,  # |000>
        (a * (1 / 3) + w) / norm,  # |0>psi+
        w / norm,  # |111>
        w / norm,  # |1>psi+
        c_up,
        c_down,
        c_up,
        c_down,
        w / norm,  # |011>
        w / norm,  # |100>
    )
    m = a * _RHO_146_A2
    m += up * _RHO_146_UP
    m += down * _RHO_146_DOWN
    m += w * _RHO_146_B2
    return _derived((2, 2, 2), m / norm)


def rho_16_closed(alpha) -> DensityOperator:
    alpha = complex(alpha)
    a2 = _alpha_weight(alpha)
    beta = math.sqrt(1 - a2)
    norm = (3 * a2 + 1) / 9
    p0, p1 = (4 * a2 / 9) * (5 / 6), (4 * a2 / 9) * (1 / 6)
    c = 2 * alpha * beta / 27  # the |00><11| coherence
    d = (1 - a2) / 36  # the white-noise share of every diagonal entry
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = p0
    m[1, 1] = p1
    m[0, 3] = c
    m[3, 0] = c.conjugate()
    m += d * np.eye(4)
    return _derived_x(m / norm)


def rho_46_closed(alpha) -> DensityOperator:
    a2 = _alpha_weight(alpha)
    b2 = 1 - a2
    norm = (3 * a2 + 1) / 9
    p0 = (4 * a2 / 9) * (2 / 3) + (b2 / 36) * (4 / 3)
    p3 = (b2 / 36) * (4 / 3)
    f = (4 * a2 / 9) * (1 / 6) + (b2 / 36) * (2 / 3)  # every entry of the {|01>, |10>} block
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = p0
    m[3, 3] = p3
    m[1:3, 1:3] = f
    return _derived_x(m / norm)


def rho_12_closed(alpha) -> DensityOperator:
    a2 = _alpha_weight(alpha)
    norm = (3 * a2 + 1) / 9
    a, b = 4 * a2 / 9, (1 - a2) / 36
    p = (a * (5 / 6) + b * (1 / 3), a * (1 / 6) + b * (5 / 3), b * (5 / 3), b * (1 / 3))
    c = b * (4 / 3)  # the |01><10| coherence
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p
    m[1, 2] = m[2, 1] = c
    return _derived_x(m / norm)


class Boundary(NamedTuple):
    alpha2: float
    entangled_above: bool  # NPT above alpha2 and PPT below, or the reverse


# Each pair operator is an X state, PPT iff rho_11 rho_44 >= |rho_23|^2 and
# rho_22 rho_33 >= |rho_14|^2 (Yu & Eberly, QIC 7, 459, 2007): quadratics in
# alpha^2 with these roots; X0 solves 37 x^2 - 18 x - 3 = 0.  alpha^2 -> 1 - alpha^2
# with Q0Q0 <-> Q1Q1, Q0Q1 <-> Q1Q0 is an exact symmetry that swaps the sides.
X0 = (3 + 2 * math.sqrt(3)) / (7 + 2 * math.sqrt(3))
_R3 = math.sqrt(3) / 2
_UP, _DOWN = True, False
_COLUMNS = (("rho_16", "rho_14"), ("rho_46",), ("rho_25",), ("rho_12", "rho_15"))
PROTOCOL_BOUNDARIES = {
    (branch, op): Boundary(*cell)
    for branch, row in {
        "Q0Q0": ((9 / 49, _UP), (X0, _UP), (X0, _UP), (3 / 11, _DOWN)),
        "Q0Q1": ((1 / 3, _UP), (1 - _R3, _DOWN), (_R3, _UP), (3 / 5, _DOWN)),
        "Q1Q0": ((2 / 3, _DOWN), (_R3, _UP), (1 - _R3, _DOWN), (2 / 5, _UP)),
        "Q1Q1": ((40 / 49, _DOWN), (1 - X0, _DOWN), (1 - X0, _DOWN), (8 / 11, _UP)),
    }.items()
    for ops, cell in zip(_COLUMNS, row)
    for op in ops
}


def protocol_boundary(branch: str, operator: str) -> Boundary:
    """Exact PPT boundary of a pair operator (a ProtocolState field) of a branch."""
    if (branch, operator) not in PROTOCOL_BOUNDARIES:
        raise ValueError(f"no protocol boundary for branch {branch!r}, operator {operator!r}")
    return PROTOCOL_BOUNDARIES[branch, operator]


def certify_boundary(branch: str, operator: str, fn=None) -> bool:
    """True when, between alpha^2 = boundary -/+ CERTIFY_OFFSET, the smallest
    partial-transpose eigenvalue goes from positive to below -PPT_TOL toward
    its entangled side (so is_npt flips too).  The operator is the six-qubit
    simulation's unless ``fn`` (alpha^2 -> DensityOperator) is given."""
    x, up = protocol_boundary(branch, operator)
    fn = fn or (lambda a2: getattr(three_qubit_protocol(math.sqrt(a2), branch), operator))
    below, above = (fn(x + s * CERTIFY_OFFSET).mat for s in (-1, 1))
    sep, ent = (below, above) if up else (above, below)
    return min_pt_eigenvalue(sep) > 0 and is_npt(ent)


# branch_broadcastable: the three-qubit operators are closed entangled states
# and the first-round local pairs are separable
BROADCAST_ENTANGLED = ("rho_16", "rho_14", "rho_46", "rho_25")
BROADCAST_SEPARABLE = ("rho_12", "rho_15")


def branch_broadcastable(alpha2: float, branch: str) -> bool:
    """Three-qubit broadcasting condition, from the simulated operators."""
    out = three_qubit_protocol(math.sqrt(alpha2), branch)
    return all(is_npt(getattr(out, op).mat) for op in BROADCAST_ENTANGLED) and not any(
        is_npt(getattr(out, op).mat) for op in BROADCAST_SEPARABLE
    )


def branch_range(
    branch: str, entangled=BROADCAST_ENTANGLED, separable=BROADCAST_SEPARABLE
) -> Optional[Interval]:
    """The exact open alpha^2 interval of a branch where every operator in
    ``entangled`` is NPT and every one in ``separable`` is PPT, from the
    boundary table; None when it is empty.  The defaults give the range of
    :func:`branch_broadcastable`."""
    lo, hi = 0.0, 1.0
    for ops, want_npt in ((entangled, True), (separable, False)):
        for op in ops:
            x, up = protocol_boundary(branch, op)
            lo, hi = (max(lo, x), hi) if up == want_npt else (lo, min(hi, x))
    return Interval(lo, hi, "Broadcastable") if lo < hi else None


# ---------------------------------------------------------------------------
# entanglement swapping with corrections

# outcome -> (the Bell state measured, the Pauli correction of qubit 7)
_SWAP_OUTCOMES = {
    "B1+": ("phi+", PAULI_Z @ PAULI_X),
    "B1-": ("phi-", PAULI_X),
    "B2+": ("psi+", PAULI_Z),
    "B2-": ("psi-", np.eye(2, dtype=complex)),
}
_SINGLET = StateVector((2, 2), bell_state("psi-")).density()  # the pair shared by swap_extend


def swap_extend(rho_325: DensityOperator, outcome: str):
    """Teleport qubit 2 of a (3,2,5) state onto a fresh qubit 7 via a shared
    singlet and a Bell measurement, then undo the outcome's Pauli error.

    Returns (probability, corrected DensityOperator on (3,5,7)); a
    zero-probability branch returns (0.0, None).
    """
    if outcome not in _SWAP_OUTCOMES:
        raise ValueError(f"outcome must be one of {sorted(_SWAP_OUTCOMES)}")
    bell, u = _SWAP_OUTCOMES[outcome]
    if rho_325.dims != (2, 2, 2):
        raise ValueError("expected a three-qubit operator")
    # layout: 3, 2, 5, 8, 7
    joint = tensor(rho_325, _SINGLET)
    prob, post = bell_project(joint, (1, 3), bell)
    if post is None:
        return 0.0, None
    # remaining layout: 3, 5, 7
    full = np.kron(np.eye(4, dtype=complex), u)
    corrected = _derived(post.dims, full @ post.mat @ full.conj().T)
    return prob, corrected


def relabel_325_to_357(rho_325: DensityOperator) -> DensityOperator:
    """The target of the swap: qubit 2 renamed to 7, layout (3, 5, 7)."""
    return permute_subsystems(rho_325, [0, 2, 1])
