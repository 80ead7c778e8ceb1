"""Clone-then-delete pipelines.

The canonical composition follows the source's bookkeeping: the copier's
machine kets act as orthogonal branch labels whose weights multiply the
branch amplitudes, the identical-copies branch hands its label to the
deleter machine, and the joint state is renormalized by 1/sqrt(1 + 2 xi).
A fully physical composition (unitary after unitary, machines kept) is a
different channel and is exposed separately for comparison.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cloners import FAMILIES, XI, MachineSpec, build_machine
from .deleters import (
    GL_INPUTS,
    GL_WEIGHTS,
    PB_MIXING,
    DeleterSpec,
    _spec_blank,
    build_deleter,
    real_inputs,
    sdep_weights,
)
from .measures import hs_distance, overlap
from .qcore import ALPHA2, family_entry, reduce_kets

CONDITIONAL_DELETERS = ("pb", "sdep")  # the deleters a pipeline composes


class PipelineSpec(NamedTuple):
    cloner: MachineSpec
    deleter: DeleterSpec


def _cloner_xi(spec: MachineSpec) -> float:
    if spec.family not in ("wz", "bh", "bh-opt"):
        raise ValueError(
            "pipelines are defined for the basis copier (wz) and the "
            f"two-parameter copier family (bh), not {spec.family!r}"
        )
    family_entry(FAMILIES, spec, "machine")  # its parameter count; one copier: no array xi
    if spec.family == "wz":
        return 0.0
    if spec.family == "bh":
        return XI.check(float(spec.params[0]))
    return 1 / 6


def _check_deleter(spec: DeleterSpec) -> None:
    if spec.family not in CONDITIONAL_DELETERS:
        raise ValueError(f"pipelines use the conditional deleter families ({', '.join(CONDITIONAL_DELETERS)})")


def _deleter_action(spec: DeleterSpec):
    """Deleter columns on |00>, |11> and on |01> + |10>."""
    _check_deleter(spec)
    machine = build_deleter(spec)
    v = machine.matrix
    return machine, v[:, 0], v[:, 3], v[:, 1] + v[:, 2]


def _pipeline_kets(spec: PipelineSpec, psi: np.ndarray):
    """(dims, one renormalized post-deletion ket per input) of the canonical
    pipeline, on an (n, 2) stack of :func:`real_inputs` (alpha, beta).
    Subsystems: kept qubit, deleted qubit, deleter machine, branch label
    (identical branch, then the two pass-through labels carrying sqrt(xi))."""
    xi = _cloner_xi(spec.cloner)
    machine, ident0, ident1, passthrough = _deleter_action(spec.deleter)
    mdim = machine.out_dims[-1]
    amps = np.zeros((len(psi), 4 * mdim, 3), dtype=complex)
    amps[:, :, 0] = psi[:, :1] * ident0 + psi[:, 1:] * ident1
    amps[:, :, 1] = math.sqrt(xi) * psi[:, :1] * passthrough
    amps[:, :, 2] = math.sqrt(xi) * psi[:, 1:] * passthrough
    kets = amps.reshape(len(psi), -1)
    return (2, 2, mdim, 3), kets / np.linalg.norm(kets, axis=1, keepdims=True)


def _scores(kets: np.ndarray, dims, psi: np.ndarray, spec: PipelineSpec):
    """(distortion of the kept qubit, deletion fidelity) per ket of a batch
    of normalized kets, whose marginals need no check, made from the inputs psi."""
    rho_x, rho_y = np.moveaxis(reduce_kets(kets, dims, [[0], [1]]), -3, 0)
    distortion = hs_distance(rho_x, psi[:, :, None] * psi[:, None, :])
    return distortion, overlap(_spec_blank(spec.deleter).vec, rho_y)


def run_pipeline(spec: PipelineSpec, alpha2: float):
    """(distortion of the kept qubit, deletion fidelity) at one input."""
    psi = real_inputs([alpha2])
    dims, kets = _pipeline_kets(spec, psi)
    d, f = _scores(kets, dims, psi, spec)
    return float(d[0]), float(f[0])


def pipeline_averages(spec: PipelineSpec):
    """Quadrature averages of (distortion, deletion fidelity) over alpha^2,
    all 64 nodes in one batched pass."""
    dims, kets = _pipeline_kets(spec, GL_INPUTS)
    d, f = _scores(kets, dims, GL_INPUTS, spec)
    return float(GL_WEIGHTS @ d), float(GL_WEIGHTS @ f)


# ---------------------------------------------------------------------------
# closed forms


def _sdep_gh(spec: DeleterSpec):
    """(|g|^2, |h|^2) of a pipeline's deleter; the conditional deleter is the
    state-dependent deleter at identity mixing."""
    _check_deleter(spec)
    return sdep_weights(*(spec.params[:4] if spec.family == "sdep" else PB_MIXING))


def _closed_form_terms(spec: PipelineSpec):
    """(xi, |g|^2, |h|^2, norm, deletion fidelity) of the canonical pipeline;
    the fidelity does not depend on alpha^2."""
    xi = _cloner_xi(spec.cloner)
    gg, hh = _sdep_gh(spec.deleter)
    norm = 1 + (gg + hh) * xi
    m2 = abs(_spec_blank(spec.deleter).m2) ** 2
    return xi, gg, hh, norm, (1 + xi * m2 * (gg - hh) + xi * hh) / norm


def closed_form_pointwise(spec: PipelineSpec, alpha2: float):
    """Closed-form (distortion, fidelity) of the canonical pipeline."""
    ALPHA2.check(alpha2)
    xi, gg, hh, norm, fidelity = _closed_form_terms(spec)
    beta2 = 1 - alpha2
    distortion = 2 * alpha2 * beta2 + 2 * xi**2 * (gg * beta2 - hh * alpha2) ** 2 / norm**2
    return distortion, fidelity


def closed_form_averages(spec: PipelineSpec):
    """Closed-form averages over alpha^2 of the canonical pipeline."""
    xi, gg, hh, norm, avg_f = _closed_form_terms(spec)
    avg_d = 1 / 3 + 2 * xi**2 * (gg**2 + hh**2 - gg * hh) / (3 * norm**2)
    return avg_d, avg_f


def bh_pb_distortion(xi: float, alpha2: float) -> float:
    XI.check(xi)
    ALPHA2.check(alpha2)
    ab2 = alpha2 * (1 - alpha2)
    return (2 * xi**2 + 2 * ab2 * (1 + 4 * xi)) / (1 + 2 * xi) ** 2


def bh_pb_avg_distortion(xi: float) -> float:
    XI.check(xi)
    return (6 * xi**2 + 4 * xi + 1) / (3 * (1 + 2 * xi) ** 2)


def bh_pb_fidelity(xi: float) -> float:
    XI.check(xi)
    return (1 + xi) / (1 + 2 * xi)


# ---------------------------------------------------------------------------
# the fully physical composition, for comparison


def run_pipeline_physical(spec: PipelineSpec, alpha2: float):
    """Unitary-after-unitary composition with all machines kept and traced.

    Requires a realizable copier (xi >= 1/6 in the two-parameter family, or
    the basis copier).
    """
    cloner = build_machine(spec.cloner)
    deleter = build_deleter(spec.deleter)
    out = cloner.matrix @ real_inputs(alpha2)  # (x, y, M_c)
    mdim_c = cloner.out_dims[-1]
    full = deleter.matrix @ out.reshape(4, mdim_c)  # (x y M_d, M_c)
    dims = deleter.out_dims + (mdim_c,)
    d, f = _scores(full.reshape(1, -1), dims, real_inputs([alpha2]), spec)
    return float(d[0]), float(f[0])
