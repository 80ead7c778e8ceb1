"""Probabilistic combinations of two cloning machines with an orthogonal flag.

A hybrid machine runs machine 1 with probability ``lmbda`` and machine 2
with probability ``1 - lmbda``; the flag qubit (appended as the least
significant output factor) records which branch fired, so the reduced clone
outputs are the convex mixture of the component outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloners import XI, MachineSpec, build_machine
from .qcore import ALPHA2, PROBABILITY, MachineIsometry, domain

BHBH_LAMBDA = domain("lambda", 0.0, 1.0, "(]")  # bhbh_state_dependent divides by it


@dataclass(frozen=True)
class HybridSpec:
    m1: MachineSpec
    m2: MachineSpec
    lmbda: float


def hybrid_machine(spec: HybridSpec) -> MachineIsometry:
    """Superpose two component machines with weights lmbda and 1 - lmbda; an array of
    lmbda or a component stack (array parameters), one stack length, gives a stack."""
    lam = PROBABILITY.check(spec.lmbda, "lambda")
    v1 = build_machine(spec.m1)
    v2 = build_machine(spec.m2)
    if v1.in_dims != v2.in_dims:
        raise ValueError("component machines take different inputs")
    if v1.out_dims[:-1] != v2.out_dims[:-1]:
        raise ValueError("component machines produce different clone spaces")
    clone_dim = math.prod(v1.out_dims[:-1])
    mdim = max(v1.out_dims[-1], v2.out_dims[-1])
    din = math.prod(v1.in_dims)
    w1, w2 = np.sqrt(lam)[..., None, None, None], np.sqrt(1 - lam)[..., None, None, None]
    m1, m2 = (v.matrix.reshape(v.matrix.shape[:-2] + (clone_dim, -1, din)) for v in (v1, v2))
    batch = w1.shape[:-3] or m1.shape[:-3] or m2.shape[:-3]
    cols = np.zeros(batch + (clone_dim, mdim, 2, din), dtype=complex)  # clones, machine, flag, input
    cols[..., : m1.shape[-2], 0, :] = w1 * m1
    cols[..., : m2.shape[-2], 1, :] = w2 * m2
    out_dims = v1.out_dims[:-1] + (mdim, 2)
    return MachineIsometry(v1.in_dims, out_dims, cols.reshape(batch + (-1, din)))


# ---------------------------------------------------------------------------
# closed forms for the two-component hybrids


def _check_two_copiers(alpha2: float, xi: float, xi_prime: float, lmbda: float) -> None:
    """The domains of the two-copier hybrid's closed forms."""
    ALPHA2.check(alpha2)
    XI.check(xi)
    XI.check(xi_prime, "xi'")
    PROBABILITY.check(lmbda, "lambda")


def f_hcm(alpha2: float, xi: float, xi_prime: float, lmbda: float) -> float:
    """Single-clone overlap of the two-component hybrid (eta_i = 1 - 2 xi_i)."""
    _check_two_copiers(alpha2, xi, xi_prime, lmbda)
    a2, b2 = alpha2, 1 - alpha2
    eta = 1 - 2 * xi
    eta_p = 1 - 2 * xi_prime
    quad = (1 - xi_prime) - lmbda * (xi - xi_prime)
    cross = xi_prime + lmbda * (xi - xi_prime) + eta_p + lmbda * (eta - eta_p)
    return (a2**2 + b2**2) * quad + 2 * a2 * b2 * cross


def dab_two_mode(alpha2: float, xi: float, xi_prime: float, lmbda: float) -> float:
    """HS distance between the joint clone output and the ideal product,
    for the hybrid of two copiers with parameters xi and xi' (eta = 1-2xi)."""
    _check_two_copiers(alpha2, xi, xi_prime, lmbda)
    a2, b2 = alpha2, 1 - alpha2
    a = math.sqrt(a2)
    b = math.sqrt(b2)
    eta = 1 - 2 * xi
    eta_p = 1 - 2 * xi_prime
    shrink = lmbda * (1 - 2 * xi) + (1 - lmbda) * (1 - 2 * xi_prime)
    coh = lmbda * eta / 2 + (1 - lmbda) * eta_p / 2
    u11 = a2**2 - a2 * shrink
    u12 = math.sqrt(2) * a**3 * b - math.sqrt(2) * a * b * coh
    u13 = a2 * b2
    u22 = 2 * a2 * b2 - (2 * xi * lmbda + 2 * xi_prime * (1 - lmbda))
    u23 = math.sqrt(2) * a * b**3 - math.sqrt(2) * a * b * coh
    u33 = b2**2 - b2 * shrink
    return u11**2 + 2 * u12**2 + 2 * u13**2 + u22**2 + 2 * u23**2 + u33**2


def bhbh_state_dependent(alpha2: float, lmbda: float):
    """Distortion-minimizing machine parameter for the two-copier hybrid
    with the second component fixed universal (xi' = 1/6).

    Returns (xi_star, D_min, F_hcm, admissible lambda range).  The range
    keeps 0 <= xi_star <= 1/2: the lower end is where xi_star is 0 or 1/2.
    Only xi_star < 0 is rejected here; a lambda below the range that gives
    xi_star > 1/2 is returned as computed, and the caller checks the range.
    """
    ALPHA2.check(alpha2)
    BHBH_LAMBDA.check(lmbda)
    ab2 = alpha2 * (1 - alpha2)
    lo = max(0.0, 1 - 9 * ab2 / 2, (9 * ab2 - 2) / 4)
    xi_star = (9 * ab2 - 2 * (1 - lmbda)) / (12 * lmbda)
    if xi_star < -1e-12:
        raise ValueError(
            f"lambda = {lmbda} outside the admissible range [{lo:.6g}, 1] "
            f"for alpha^2 = {alpha2} (machine parameter would be negative)"
        )
    xi_star = max(0.0, xi_star)
    d_min = 2 * ab2 - 4.5 * ab2**2
    f = 1 - 0.75 * ab2
    return xi_star, d_min, f, (lo, 1.0)


def universal_hybrid_lambda(xi: float, xi_prime: float):
    """Mixing weight making the two-copier hybrid universal; fidelity 5/6."""
    XI.check(xi)
    XI.check(xi_prime, "xi'")
    if abs(xi - xi_prime) < 1e-12:
        raise ValueError("xi and xi' must differ")
    if abs(xi_prime - 1 / 6) < 1e-12:
        raise ValueError("xi' = 1/6 is the plain universal copier")
    lmbda = (6 * xi_prime - 1) / (6 * (xi_prime - xi))
    if not 0.0 < lmbda < 1.0:
        raise ValueError(f"resulting lambda = {lmbda} is not a probability")
    return lmbda, 5 / 6


def bh_pc_hybrid(lmbda: float, xi: float) -> float:
    """Fidelity of the copier/equatorial-copier hybrid at fixed xi."""
    PROBABILITY.check(lmbda, "lambda")
    XI.check(xi)
    base = 0.5 + 1 / math.sqrt(8)
    return base + lmbda * (0.5 - 1 / math.sqrt(8) - xi)


def bh_pc_hybrid_state_dependent(lmbda: float, alpha2: float) -> float:
    """Same fidelity with the copier parameter tied to the input,
    xi(alpha^2) = 3 alpha^2 (1 - alpha^2) / 4."""
    ALPHA2.check(alpha2)
    return bh_pc_hybrid(lmbda, 0.75 * alpha2 * (1 - alpha2))


def bh_pauli_table(p: float, lmbda: float):
    """Fidelities of the two asymmetric clones of the symmetric/asymmetric
    hybrid; never both above 5/6."""
    PROBABILITY.check(p)
    PROBABILITY.check(lmbda, "lambda")
    den = p * p - p + 1
    f1 = 5 / 6 + (lmbda / 2) * ((p * p + 1) / den - 5 / 3)
    f2 = 5 / 6 + (lmbda / 2) * ((p * p - 2 * p + 2) / den - 5 / 3)
    return f1, f2


def bh_anti_hybrid(lmbda: float):
    """Fidelities of the parallel and antiparallel outputs of the
    copier/anti-copier hybrid."""
    PROBABILITY.check(lmbda, "lambda")
    f_a = 5 * lmbda / 6 + 2 * (1 - lmbda) / 3
    f_b = 5 * lmbda / 6 + (1 - lmbda) / 3
    return f_a, f_b
