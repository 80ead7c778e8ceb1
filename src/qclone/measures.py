"""Distance and entanglement measures for small density operators.

A note on "fidelity": the result formulas in the cloning/deletion literature
use the plain overlap <psi|rho|psi>.  The square-rooted quantity
sqrt(<psi|rho|psi>) is also exposed (``fidelity_pure``), but every table in
this package is computed from ``overlap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    DensityOperator,
    PAULI_Y,
    StateVector,
    apply_isometry,
    partial_trace,
    partial_transpose,
)

_CLAMP = 1e-12

# Peres-Horodecki threshold: a state is NPT, hence entangled, when the
# smallest eigenvalue of its partial transpose lies below -PPT_TOL.
PPT_TOL = 1e-9

# sigma_y x sigma_y: real, symmetric and unitary, a read-only constant
_YY = np.kron(PAULI_Y, PAULI_Y)
_YY.flags.writeable = False


@dataclass(frozen=True)
class SeparabilityVerdict:
    verdict: str  # "Separable" | "Inseparable" | "Unknown"
    min_pt_eigenvalue: float
    w2: float
    w3: float
    w4: float


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root; eigenvalues below the clamp threshold are
    zeroed so numerical PSD violations cannot seed square-root noise."""
    evals, evecs = np.linalg.eigh(mat)
    evals = np.where(evals < _CLAMP * max(1.0, evals[-1]), 0.0, evals)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def fidelity_mixed(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity Tr sqrt(rho^1/2 sigma rho^1/2), in [0, 1]."""
    if rho.dims != sigma.dims:
        raise ValueError("density operators live on different spaces")
    r = _psd_sqrt(rho.mat)
    inner = r @ sigma.mat @ r
    evals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(1.0, np.sum(np.sqrt(evals))))


def overlap(psi: StateVector, rho: DensityOperator) -> float:
    """<psi|rho|psi>, the working 'fidelity' of all result formulas here."""
    if psi.dims != rho.dims:
        raise ValueError("state and operator live on different spaces")
    return float(np.real(psi.amps.conj() @ rho.mat @ psi.amps))


def fidelity_pure(psi: StateVector, rho: DensityOperator) -> float:
    """sqrt(<psi|rho|psi>)."""
    return float(np.sqrt(max(0.0, overlap(psi, rho))))


def hs_distance(rho, sigma) -> float:
    """Hilbert-Schmidt distance Tr[(rho - sigma)^2]; inputs Hermitian."""
    a = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)
    b = sigma.mat if isinstance(sigma, DensityOperator) else np.asarray(sigma)
    if a.shape != b.shape:
        raise ValueError("operators live on different spaces")
    d = a - b
    return float(np.real(np.trace(d @ d)))


def von_neumann_entropy(rho: DensityOperator, base: float = 2.0) -> float:
    """-Tr(rho log rho); base 2 by default, pass numpy.e for nats."""
    evals = np.linalg.eigvalsh(rho.mat)
    evals = evals[evals > _CLAMP]
    return float(-np.sum(evals * np.log(evals)) / np.log(base))


def entropy_of_entanglement(ket: StateVector, split, base: float = 2.0) -> float:
    rho_a = partial_trace(ket, split)
    return von_neumann_entropy(rho_a, base=base)


def concurrence_2q(rho: DensityOperator) -> float:
    """Wootters concurrence of a two-qubit density operator.

    The square roots of the eigenvalues of sqrt(rho) rho~ sqrt(rho) are the
    singular values of sqrt(rho~) sqrt(rho), which is numerically stabler
    for nearly pure states.  With rho~ = YY rho* YY and YY real, symmetric
    and unitary, sqrt(rho~) = YY sqrt(rho)* YY, and the leading unitary YY
    leaves the singular values alone: one eigensolve serves both roots.
    """
    if rho.dims != (2, 2):
        raise ValueError("concurrence_2q requires a two-qubit state")
    root = _psd_sqrt(rho.mat)
    lam = np.linalg.svd(root.conj() @ _YY @ root, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_pure(ket: StateVector) -> float:
    """2 sqrt(lambda1 lambda2) from the Schmidt coefficients of a 2-qubit ket."""
    if ket.dims != (2, 2):
        raise ValueError("concurrence_pure requires a two-qubit ket")
    a = ket.amps
    return float(2 * abs(a[0] * a[3] - a[1] * a[2]))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of the concurrence."""
    if c < -_CLAMP or c > 1 + _CLAMP:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(1.0, max(0.0, c))
    x = (1 + np.sqrt(1 - c**2)) / 2
    return float(_binary_entropy(x))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * np.log2(x) - (1 - x) * np.log2(1 - x)


def negativity(rho: DensityOperator, split) -> float:
    """2 sum max(0,-mu) for qubit pairs; (||rho^T||_1 - 1)/(d-1) in general."""
    mu = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims, split))
    d_a = math.prod([rho.dims[i] for i in set(split)])
    d_b = rho.dim // d_a
    d = min(d_a, d_b)
    if d == 2:
        return float(2 * np.sum(np.clip(-mu, 0.0, None)))
    return float((np.sum(np.abs(mu)) - 1.0) / (d - 1))


def min_pt_eigenvalue(mat, dims=(2, 2), split=(1,)) -> float:
    """Smallest eigenvalue of the partial transpose of ``mat`` over ``split``."""
    return float(np.linalg.eigvalsh(partial_transpose(mat, dims, split))[0])


def is_npt(mat, dims=(2, 2), split=(1,)) -> bool:
    """Peres-Horodecki test: True when the partial transpose over ``split``
    has an eigenvalue below -PPT_TOL, so the state is entangled.  ``mat`` is
    a raw matrix; the defaults are a two-qubit state split after qubit 0."""
    return min_pt_eigenvalue(mat, dims, split) < -PPT_TOL


def ppt_verdict(rho: DensityOperator, split=(1,)) -> SeparabilityVerdict:
    """Peres-Horodecki test; necessary and sufficient only for 2x2 systems.

    W2-W4 come from the same partial transpose: on two qubits ``split``
    names one qubit, and the transposes over either qubit are transposes of
    each other, so their leading principal minors agree with
    ``w_determinants``.
    """
    if rho.dims == (2, 2) and len(set(split)) != 1:
        raise ValueError(f"a two-qubit split names one qubit, got {tuple(split)}")
    pt = partial_transpose(rho.mat, rho.dims, split)
    min_eig = float(np.linalg.eigvalsh(pt)[0])
    if rho.dims == (2, 2):
        w2, w3, w4 = _leading_minors(pt)
    else:
        w2 = w3 = w4 = float("nan")
    if min_eig < -PPT_TOL:
        verdict = "Inseparable"
    elif rho.dims == (2, 2):
        verdict = "Separable"
    else:
        verdict = "Unknown"
    return SeparabilityVerdict(verdict, min_eig, w2, w3, w4)


def w_determinants(rho: DensityOperator):
    """Determinants (W2, W3, W4) of the leading principal submatrices of the
    partial transpose of a two-qubit state, in basis order 00, 01, 10, 11."""
    if rho.dims != (2, 2):
        raise ValueError("w_determinants requires a two-qubit state")
    return _leading_minors(partial_transpose(rho.mat, rho.dims, (1,)))


def _leading_minors(w: np.ndarray):
    """Real parts of the 2x2, 3x3 and 4x4 leading principal minors of w."""
    w2 = float((w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]).real)
    w3 = float(np.linalg.det(w[:3, :3]).real)
    w4 = float(np.linalg.det(w).real)
    return w2, w3, w4


def herbert_ensembles():
    """Bob's two-qubit ensembles under a hypothetical perfect cloner.

    Alice measures sigma_x or sigma_z on her half of a shared singlet; Bob
    perfectly clones his collapsed qubit.  Returns (rho_x, rho_z, hs_gap);
    the positive gap is the flawed superluminal-signalling signature.
    """
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)

    def perfect_clone_mix(states):
        mats = [np.outer(np.kron(s, s), np.kron(s, s).conj()) for s in states]
        return DensityOperator((2, 2), sum(mats) / len(mats))

    rho_x = perfect_clone_mix([plus, minus])
    rho_z = perfect_clone_mix([zero, one])
    gap = hs_distance(rho_x, rho_z)
    return rho_x, rho_z, gap


def herbert_gap_with_machine(machine) -> float:
    """HS gap between Bob's ensembles when a physical (isometric) cloning
    machine replaces the perfect cloner; zero for any linear machine."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)

    def clone_mix(states):
        total = None
        for s in states:
            out = apply_isometry(machine, StateVector((2,), s))
            pair = partial_trace(out, [0, 1])
            total = pair.mat if total is None else total + pair.mat
        return total / len(states)

    gx = clone_mix([plus, minus])
    gz = clone_mix([zero, one])
    d = gx - gz
    return float(np.real(np.trace(d @ d)))
