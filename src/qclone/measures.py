"""Distance and entanglement measures for small density operators.

A note on "fidelity": the result formulas in the cloning/deletion literature
use the plain overlap <psi|rho|psi>.  The square-rooted quantity
sqrt(<psi|rho|psi>) is also exposed (``fidelity_pure``), but every table in
this package is computed from ``overlap``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qcore import (
    DensityOperator,
    PAULI_Y,
    StateVector,
    _x_min_eigenvalue,
    _x_state,
    domain,
    partial_trace,
    partial_transpose,
    reduce_ket,
)

_CLAMP = 1e-12

CONCURRENCE = domain("concurrence", -_CLAMP, 1 + _CLAMP)  # with _CLAMP of rounding

# Peres-Horodecki threshold: a state is NPT, hence entangled, when the
# smallest eigenvalue of its partial transpose lies below -PPT_TOL.
PPT_TOL = 1e-9

# sigma_y x sigma_y: real, symmetric and unitary, a read-only constant
_YY = np.kron(PAULI_Y, PAULI_Y)
_YY.flags.writeable = False


class SeparabilityVerdict(NamedTuple):
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


def overlap(psi, rho):
    """<psi|rho|psi>, the working 'fidelity' of all result formulas here: a
    float for one ket and one operator, an array for raw arrays with a stack
    among them, an (..., d) ket stack against a (d, d) matrix or a stack
    whose leading axes broadcast with the kets', or one (d,) ket against an
    (..., d, d) stack."""
    if isinstance(psi, StateVector) and isinstance(rho, DensityOperator) and psi.dims != rho.dims:
        raise ValueError("state and operator live on different spaces")
    a = psi.amps if isinstance(psi, StateVector) else np.asarray(psi)
    m = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)
    if a.ndim == 1:
        ov = (a.conj() @ m @ a).real
    else:
        ov = (a.conj()[..., None, :] @ m @ a[..., :, None])[..., 0, 0].real
    return float(ov) if ov.ndim == 0 else ov


def fidelity_pure(psi: StateVector, rho: DensityOperator) -> float:
    """sqrt(<psi|rho|psi>)."""
    return float(np.sqrt(max(0.0, overlap(psi, rho))))


def hs_distance(rho, sigma):
    """Hilbert-Schmidt distance Tr[(rho - sigma)^2]; inputs Hermitian.

    A float for two operators, an array of distances for two (..., d, d)
    stacks of raw matrices whose leading axes broadcast.
    """
    a = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)
    b = sigma.mat if isinstance(sigma, DensityOperator) else np.asarray(sigma)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError("operators live on different spaces")
    d = a - b
    dist = (d @ d).trace(axis1=-2, axis2=-1).real
    return float(dist) if dist.ndim == 0 else dist


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
    leaves the singular values alone: one eigensolve serves both roots.  An
    X state needs none, and one built as such carries the numbers that
    C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33)) reads.
    """
    if rho.dims != (2, 2):
        raise ValueError("concurrence_2q requires a two-qubit state")
    x = rho._x or _x_state(rho.mat)
    if x is not None:
        p00, p11, p22, p33, c03, c12 = x
        # a diagonal entry may lie below zero by the density tolerance
        return 2 * max(0.0, c03 - math.sqrt(max(0.0, p11 * p22)), c12 - math.sqrt(max(0.0, p00 * p33)))
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
    CONCURRENCE.check(c)
    c = min(1.0, max(0.0, c))
    x = (1 + np.sqrt(1 - c**2)) / 2
    return float(_binary_entropy(x))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * np.log2(x) - (1 - x) * np.log2(1 - x)


def negativity(rho: DensityOperator, split) -> float:
    """2 sum max(0,-mu) for qubit pairs; (||rho^T||_1 - 1)/(d-1) in general.

    ``split`` names a proper nonempty subset of the subsystems."""
    pt = partial_transpose(rho.mat, rho.dims, split)  # checks the selection
    d_a = math.prod([rho.dims[i] for i in set(split)])
    d = min(d_a, rho.dim // d_a)
    if d == 1:
        raise ValueError(f"a negativity split names a proper subset of the subsystems, got {tuple(split)}")
    mu = np.linalg.eigvalsh(pt)
    if d == 2:
        return float(2 * np.sum(np.clip(-mu, 0.0, None)))
    return float((np.sum(np.abs(mu)) - 1.0) / (d - 1))


def min_pt_eigenvalue(mat, dims=(2, 2), split=(1,)):
    """Smallest eigenvalue of the partial transpose of ``mat`` over ``split``:
    a float for one (d, d) matrix, an array of them for a (..., d, d) stack
    (one batched eigensolve, none for X states split into two qubits)."""
    x = _x_state(mat) if _qubit_split(dims, split) else None
    if x is None:
        evals = np.linalg.eigvalsh(partial_transpose(mat, dims, split))
        return float(evals[0]) if evals.ndim == 1 else evals[..., 0]
    least = _x_pt_min(x)
    return float(least) if least.ndim == 0 else least


def _qubit_split(dims, split) -> bool:
    """True when ``split`` names one qubit of a two-qubit ``dims``."""
    return tuple(dims) == (2, 2) and tuple(split) in ((0,), (1,))


def _x_pt_min(x):
    """Smallest partial-transpose eigenvalue of an X state over either qubit,
    from :func:`_x_state` entries: the transpose swaps the coherences, so
    the blocks are ({0, 3}, |rho_12|) and ({1, 2}, |rho_03|)."""
    p00, p11, p22, p33, c03, c12 = x
    return _x_min_eigenvalue(p00, p11, p22, p33, c12, c03)


def _x_minors(x):
    """``_leading_minors`` of the partial transpose of one X state, from
    its :func:`_x_state` floats."""
    p00, p11, p22, p33, c03, c12 = x
    block = p11 * p22 - c03 * c03
    return p00 * p11, p00 * block, (p00 * p33 - c12 * c12) * block


def is_npt(mat, dims=(2, 2), split=(1,)):
    """Peres-Horodecki test: True when the partial transpose over ``split``
    has an eigenvalue below -PPT_TOL, so the state is entangled.  ``mat`` is
    a raw matrix, or a stack of them for a bool array; the defaults are a
    two-qubit state split after qubit 0."""
    return min_pt_eigenvalue(mat, dims, split) < -PPT_TOL


def ppt_verdict(rho: DensityOperator, split=(1,)) -> SeparabilityVerdict:
    """Peres-Horodecki test; necessary and sufficient only for 2x2 systems.

    W2-W4 come from the same partial transpose: on two qubits ``split``
    names one qubit, and the transposes over either qubit are transposes of
    each other, so their leading principal minors agree with
    ``w_determinants``.  An X state takes both from closed forms, on its carried moduli if any.
    """
    if rho.dims == (2, 2) and len(set(split)) != 1:
        raise ValueError(f"a two-qubit split names one qubit, got {tuple(split)}")
    x = (rho._x or _x_state(rho.mat)) if _qubit_split(rho.dims, split) else None
    if x is not None:
        min_eig = float(_x_pt_min(x))
        w2, w3, w4 = _x_minors(x)
    else:
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
    partial transpose of a two-qubit state, in basis order 00, 01, 10, 11:
    for an X state rho_00 rho_11, rho_00 b and (rho_00 rho_33 - |rho_12|^2) b
    with b = rho_11 rho_22 - |rho_03|^2."""
    if rho.dims != (2, 2):
        raise ValueError("w_determinants requires a two-qubit state")
    x = rho._x or _x_state(rho.mat)
    if x is not None:
        return _x_minors(x)
    return _leading_minors(partial_transpose(rho.mat, rho.dims, (1,)))


def _leading_minors(w: np.ndarray):
    """Real parts of the 2x2, 3x3 and 4x4 leading principal minors of w."""
    w2 = float((w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]).real)
    w3 = float(np.linalg.det(w[:3, :3]).real)
    w4 = float(np.linalg.det(w).real)
    return w2, w3, w4


# Bob's qubit after Alice measures sigma_x (|+>, |->) or sigma_z (|0>, |1>)
# on her half of a shared singlet, one ket per outcome
_HERBERT_KETS = np.vstack([np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2)]).astype(complex)


def _herbert_mixes(outs, dims):
    """(rho_x, rho_z): Bob's clone pair, reduced from the kets ``outs`` that his
    cloner makes of the _HERBERT_KETS rows, mixed over each of Alice's bases."""
    pairs = reduce_ket(outs, dims, [0, 1])
    return pairs[:2].mean(0), pairs[2:].mean(0)


def herbert_ensembles():
    """Bob's two-qubit ensembles under a hypothetical perfect cloner.

    Alice measures sigma_x or sigma_z on her half of a shared singlet; Bob
    perfectly clones his collapsed qubit.  Returns (rho_x, rho_z, hs_gap);
    the positive gap is the flawed superluminal-signalling signature.
    """
    clones = np.stack([np.kron(s, s) for s in _HERBERT_KETS])  # |s>|s>
    rho_x, rho_z = (DensityOperator((2, 2), m) for m in _herbert_mixes(clones, (2, 2)))
    return rho_x, rho_z, hs_distance(rho_x, rho_z)


def herbert_gap_with_machine(machine) -> float:
    """HS gap between Bob's ensembles when a physical (isometric) cloning
    machine replaces the perfect cloner; zero for any linear machine."""
    if machine.in_dims != (2,):
        raise ValueError(f"input dims (2,) do not match machine {machine.in_dims}")
    return hs_distance(*_herbert_mixes(_HERBERT_KETS @ machine.matrix.T, machine.out_dims))
