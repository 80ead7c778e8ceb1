import math

import numpy as np
import pytest

from qclone import concat, deleters
from qclone.cloners import MachineSpec
from qclone.deleters import BlankState, DeleterSpec
from qclone.qcore import partial_trace


WZ_PB = concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("pb"))
BH_PB = concat.PipelineSpec(MachineSpec("bh", (1 / 6,)), DeleterSpec("pb"))
SDEP_PARAMS = (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2)
BH_SDEP = concat.PipelineSpec(MachineSpec("bh", (1 / 6,)), DeleterSpec("sdep", SDEP_PARAMS))
WZ_SDEP = concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("sdep", SDEP_PARAMS))


def test_basis_copier_pipeline():
    for a2 in np.linspace(0, 1, 11):
        d, f = concat.run_pipeline(WZ_PB, a2)
        assert abs(f - 1.0) < 1e-12
        assert abs(d - 2 * a2 * (1 - a2)) < 1e-12
    avg_d, avg_f = concat.pipeline_averages(WZ_PB)
    assert abs(avg_d - 1 / 3) < 1e-9
    assert abs(avg_f - 1.0) < 1e-12


def test_two_parameter_pipeline_values():
    for a2 in (0.2, 0.5, 0.9):
        d, f = concat.run_pipeline(BH_PB, a2)
        assert abs(f - 7 / 8) < 1e-12
        assert abs(d - concat.bh_pb_distortion(1 / 6, a2)) < 1e-12
    avg_d, avg_f = concat.pipeline_averages(BH_PB)
    assert abs(avg_d - 11 / 32) < 1e-9
    assert abs(avg_f - 7 / 8) < 1e-12
    assert abs(concat.bh_pb_avg_distortion(1 / 6) - 11 / 32) < 1e-12
    assert abs(concat.bh_pb_fidelity(1 / 6) - 7 / 8) < 1e-12


def test_xi_zero_degenerates_to_basis_case():
    spec = concat.PipelineSpec(MachineSpec("bh", (0.0,)), DeleterSpec("pb"))
    avg_d, avg_f = concat.closed_form_averages(spec)
    assert abs(avg_d - 1 / 3) < 1e-12
    assert abs(avg_f - 1.0) < 1e-12
    assert abs(concat.bh_pb_avg_distortion(0.0) - 1 / 3) < 1e-12


def test_state_dependent_deleter_matches_conditional():
    # |g|^2 = |h|^2 = 1 reproduces the conditional-deleter pipeline exactly
    for a2 in (0.1, 0.5, 0.7):
        d1, f1 = concat.run_pipeline(BH_PB, a2)
        d2, f2 = concat.run_pipeline(BH_SDEP, a2)
        assert abs(d1 - d2) < 1e-12 and abs(f1 - f2) < 1e-12
    avg_d, avg_f = concat.pipeline_averages(WZ_SDEP)
    assert abs(avg_d - 1 / 3) < 1e-9 and abs(avg_f - 1.0) < 1e-12


def test_sdep_fidelity_independent_of_blank_when_balanced():
    # with |g|^2 = |h|^2 = 1 the deletion fidelity is 7/8 for any blank
    for m1 in (1.0, 0.6, 1 / math.sqrt(2)):
        blank = BlankState(m1, math.sqrt(1 - m1 * m1))
        spec = concat.PipelineSpec(
            MachineSpec("bh", (1 / 6,)), DeleterSpec("sdep", SDEP_PARAMS + (blank,))
        )
        _, avg_f = concat.closed_form_averages(spec)
        assert abs(avg_f - 7 / 8) < 1e-12


def test_quadrature_matches_closed_forms():
    for spec in (WZ_PB, BH_PB, BH_SDEP):
        qd, qf = concat.pipeline_averages(spec)
        cd, cf = concat.closed_form_averages(spec)
        assert abs(qd - cd) < 1e-9
        assert abs(qf - cf) < 1e-9


def test_batched_pipeline_averages_match_per_node_loop():
    # reference: one full density matrix per Gauss-Legendre node, then traced
    x, w = np.polynomial.legendre.leggauss(64)
    blank = np.array([1.0, 0.0])  # the default blank of both deleters
    for spec in (WZ_PB, BH_PB, BH_SDEP):
        d_ref = f_ref = 0.0
        for a2, wi in zip((x + 1) / 2, w / 2):
            rho = concat.pipeline_state(spec, a2).density()
            psi = np.array([math.sqrt(a2), math.sqrt(1 - a2)])
            diff = partial_trace(rho, [0]).mat - np.outer(psi, psi)
            d_ref += wi * np.trace(diff @ diff).real
            f_ref += wi * (blank @ partial_trace(rho, [1]).mat @ blank).real
        avg_d, avg_f = concat.pipeline_averages(spec)
        assert abs(avg_d - d_ref) < 1e-12 and abs(avg_f - f_ref) < 1e-12


def test_normalization_factor_emerges():
    from qclone.concat import _deleter_action

    xi = 1 / 6
    machine, i0, i1, p = _deleter_action(DeleterSpec("pb"))
    alpha, beta = math.sqrt(0.4), math.sqrt(0.6)
    amps = np.zeros((12, 3), dtype=complex)
    amps[:, 0] = alpha * i0 + beta * i1
    amps[:, 1] = math.sqrt(xi) * alpha * p
    amps[:, 2] = math.sqrt(xi) * beta * p
    assert abs(np.linalg.norm(amps) ** 2 - (1 + 2 * xi)) < 1e-12


def test_physical_composition_differs():
    # the fully physical channel gives F = 1 - xi instead of (1 + xi)/(1 + 2 xi)
    for a2 in (0.3, 0.6):
        _, f = concat.run_pipeline_physical(BH_PB, a2)
        assert abs(f - (1 - 1 / 6)) < 1e-9
    _, f_paper = concat.run_pipeline(BH_PB, 0.3)
    assert abs(f_paper - 7 / 8) < 1e-12
    assert abs(f_paper - f) > 0.01


def test_pipeline_validation():
    with pytest.raises(ValueError):
        concat.run_pipeline(WZ_PB, 1.5)
    with pytest.raises(ValueError):
        concat.run_pipeline(
            concat.PipelineSpec(MachineSpec("pc2"), DeleterSpec("pb")), 0.5
        )
    with pytest.raises(ValueError):
        concat.run_pipeline(
            concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("qiu", (1.0,))), 0.5
        )


ALPHA2_EVALUATORS = {
    "closed_form_pointwise": lambda a2: concat.closed_form_pointwise(BH_PB, a2),
    "sdep_pointwise": lambda a2: deleters.sdep_pointwise(*deleters.SDEP_EXAMPLE, 1.0, a2),
    "conv_f1": lambda a2: deleters.conv_f1(0.2, a2),
    "pb_transformer_fidelity": lambda a2: deleters.pb_transformer_fidelity(0.6, 0.8, a2),
    "conv_f3_limit": deleters.conv_f3_limit,
}


@pytest.mark.parametrize("alpha2", [1.5, -0.1, float("nan")])
@pytest.mark.parametrize("fn", ALPHA2_EVALUATORS.values(), ids=ALPHA2_EVALUATORS.keys())
def test_closed_form_evaluators_reject_alpha2_outside_unit_interval(fn, alpha2):
    with pytest.raises(ValueError, match=r"alpha\^2 must lie in \[0, 1\], got"):
        fn(alpha2)


@pytest.mark.parametrize("fn", ALPHA2_EVALUATORS.values(), ids=ALPHA2_EVALUATORS.keys())
def test_closed_form_evaluators_accept_alpha2_ends(fn):
    for alpha2 in (0.0, 1.0):
        assert np.all(np.isfinite(fn(alpha2)))
