import math

import numpy as np
import pytest

from qclone import cloners, measures
from qclone.cloners import MachineSpec, build_machine, clone_report
from qclone.qcore import StateVector, UnrealizableSpec, apply_isometry, ket, kron_all, partial_trace


RNG = np.random.default_rng(2024)


def rand_ket(d=2):
    v = RNG.normal(size=d) + 1j * RNG.normal(size=d)
    return v / np.linalg.norm(v)


ALL_SPECS = [
    MachineSpec("wz"),
    MachineSpec("wz-n", (3,)),
    MachineSpec("bh", (1 / 6,)),
    MachineSpec("bh", (0.35,)),
    MachineSpec("bh-opt"),
    MachineSpec("gm-1m", (2,)),
    MachineSpec("gm-1m", (4,)),
    MachineSpec("gm-1m", (6,)),
    MachineSpec("uqcm-d", (2,)),
    MachineSpec("uqcm-d", (4,)),
    MachineSpec("pc2"),
    MachineSpec("pc-d", (2,)),
    MachineSpec("pc-d", (3,)),
    MachineSpec("kr", (0.3,)),
    MachineSpec("econ", (2, 0)),
    MachineSpec("econ", (3, 2)),
    MachineSpec("pauli-asym", (0.0,)),
    MachineSpec("pauli-asym", (0.7,)),
    MachineSpec("heis-asym", (2, 0.5)),
    MachineSpec("heis-asym", (4, 0.3)),
    MachineSpec("anti"),
    MachineSpec("mixed-23"),
    MachineSpec("mixed-2m", (3,)),
    MachineSpec("mixed-2m", (5,)),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_every_machine_is_an_isometry(spec):
    assert build_machine(spec).isometry_defect() < 1e-9


def test_bh_opt_explicit_amplitudes():
    m = build_machine(MachineSpec("bh-opt"))
    col0 = m.matrix[:, 0]
    expected = math.sqrt(2 / 3) * kron_all(ket(0), ket(0), ket(0)) + math.sqrt(1 / 6) * (
        kron_all(ket(0), ket(1), ket(1)) + kron_all(ket(1), ket(0), ket(1))
    )
    assert np.max(np.abs(col0 - expected)) < 1e-12


def test_bh_equals_bh_opt_at_one_sixth():
    """The Gram-realized machine at xi = 1/6 reproduces the optimal outputs."""
    gram_machine = build_machine(MachineSpec("bh", (1 / 6,)))
    for _ in range(5):
        v = rand_ket()
        out = apply_isometry(gram_machine, StateVector((2,), v)).density()
        clones = partial_trace(out, [0, 1])
        rep = clone_report(MachineSpec("bh-opt"), StateVector((2,), v))
        assert np.max(np.abs(clones.mat - rep.rho_out.mat)) < 1e-9


def test_bh_unrealizable_below_one_sixth():
    with pytest.raises(UnrealizableSpec):
        cloners.build_bh(0.1)


def test_bh_family_distortion():
    # D_a = 2 xi^2 for the eta = 1 - 2 xi family
    for xi in (1 / 6, 0.25, 0.4):
        for _ in range(3):
            rep = clone_report(MachineSpec("bh", (xi,)), StateVector((2,), rand_ket()))
            assert abs(rep.D_a - 2 * xi**2) < 1e-9


def test_universality_of_universal_families():
    specs = [
        MachineSpec("bh-opt"),
        MachineSpec("uqcm-d", (3,)),
        MachineSpec("gm-1m", (3,)),
        MachineSpec("heis-asym", (3, 0.4)),
    ]
    for spec in specs:
        d = spec.params[0] if spec.family in ("uqcm-d", "heis-asym") else 2
        f_as, f_bs = [], []
        for _ in range(50):
            rep = clone_report(spec, StateVector((d,), rand_ket(d)))
            f_as.append(rep.F_a)
            f_bs.append(rep.F_b)
        assert np.std(f_as) < 1e-9 and np.std(f_bs) < 1e-9


def test_pauli_asym_table_values():
    rep = clone_report(MachineSpec("pauli-asym", (0.5,)), StateVector((2,), rand_ket()))
    assert abs(rep.F_a - 5 / 6) < 1e-9 and abs(rep.F_b - 5 / 6) < 1e-9
    plus = StateVector((2,), np.array([1, 1]) / math.sqrt(2))
    rep = clone_report(MachineSpec("pauli-asym", (0.0,)), plus)
    assert abs(rep.F_a - 0.5) < 1e-12 and abs(rep.F_b - 1.0) < 1e-12


def test_econ_unitary_structure():
    m = build_machine(MachineSpec("econ", (2, 0)))
    assert m.out_dims == (2, 2)
    assert np.max(np.abs(m.matrix[:, 0] - kron_all(ket(0), ket(0)))) < 1e-12
    sym = (kron_all(ket(1), ket(0)) + kron_all(ket(0), ket(1))) / math.sqrt(2)
    assert np.max(np.abs(m.matrix[:, 1] - sym)) < 1e-12


def test_phase_covariance():
    for spec, d in ((MachineSpec("pc2"), 2), (MachineSpec("econ", (2, 0)), 2), (MachineSpec("pc-d", (3,)), 3)):
        ref = None
        for _ in range(6):
            phases = RNG.uniform(0, 2 * np.pi, size=d)
            v = np.exp(1j * phases) / math.sqrt(d)
            rep = clone_report(spec, StateVector((d,), v))
            if ref is None:
                ref = rep.F_a
            assert abs(rep.F_a - ref) < 1e-9


def test_pc2_copies_separable_on_equator():
    for phi in np.linspace(0, 2 * np.pi, 8):
        v = np.array([1, np.exp(1j * phi)]) / math.sqrt(2)
        rep = clone_report(MachineSpec("pc2"), StateVector((2,), v))
        assert measures.ppt_verdict(rep.rho_out).verdict == "Separable"


def test_kr_against_closed_form():
    for mu in (0.2, 1 / math.sqrt(6), 0.5):
        for theta in (0.3, 1.1, math.pi / 2):
            v = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(0.9j)])
            rep = clone_report(MachineSpec("kr", (mu,)), StateVector((2,), v))
            assert abs(rep.F_a - cloners.kr_fidelity(mu, theta)) < 1e-9
    # mu = 1/sqrt(6) reduces to the universal copier
    assert abs(cloners.kr_fidelity(1 / math.sqrt(6), 0.77) - 5 / 6) < 1e-12
    # optimal mu beats fixed choices at its own angle
    theta = 0.9
    mu_star = math.sqrt(cloners.kr_optimal_mu2(theta))
    f_star = cloners.kr_fidelity(mu_star, theta)
    for mu in (mu_star - 0.02, mu_star + 0.02):
        assert cloners.kr_fidelity(mu, theta) <= f_star + 1e-12


def test_mixed_2m_scaling_law():
    for m_copies in (3, 4):
        machine = cloners.build_mixed_2m(m_copies)
        eta = cloners.mixed_2m_scaling(m_copies)
        for _ in range(3):
            v = rand_ket()
            out = machine.matrix @ np.kron(v, v)
            from qclone.qcore import DensityOperator

            full = DensityOperator(machine.out_dims, np.outer(out, out.conj()))
            single = partial_trace(full, [0]).mat
            expected = eta * np.outer(v, v.conj()) + (1 - eta) / 2 * np.eye(2)
            assert np.max(np.abs(single - expected)) < 1e-9


def test_mixed_23_composite_overlap():
    for _ in range(5):
        got = cloners.mixed_23_composite_overlap(StateVector((2,), rand_ket()))
        assert abs(got - 79 / 108) < 1e-9


def test_clone_report_wz_indices():
    rep = clone_report(MachineSpec("wz"), StateVector((2,), [math.sqrt(0.5), math.sqrt(0.5)]))
    assert abs(rep.D_a - 0.5) < 1e-12
    assert abs(rep.D_ab1 - rep.D_a**2) < 1e-12
    assert abs(rep.D_ab2 - 2 * rep.D_a) < 1e-12
    assert abs(rep.D_ab3 - rep.D_a * (2 - rep.D_a)) < 1e-12


def test_ying_indices_uniform_and_basis():
    for n in (2, 3, 4):
        gap = cloners.ying_bound_gap(n)
        d_a, d1, d2, d3 = cloners.ying_indices(n, np.full(n, 1 / math.sqrt(n)))
        assert abs((d1 - d_a**2) + gap) < 1e-9
        basis = np.zeros(n)
        basis[0] = 1
        d_a, d1, d2, d3 = cloners.ying_indices(n, basis)
        assert abs(d1 - d_a**2) < 1e-12
    with pytest.raises(ValueError):
        cloners.ying_indices(3, [1.0, 1.0, 1.0])


def test_cerf_reparam():
    out = cloners.cerf_reparam([1, 0, 0, 0], "RB_AC")
    assert np.allclose(out, [0.5, 0.5, 0.5, 0.5])
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    v /= np.linalg.norm(v)
    out = cloners.cerf_reparam(v, "RB_AC")
    assert abs(np.linalg.norm(out) - 1) < 1e-9
    again = cloners.cerf_reparam(out, "RB_AC")
    assert np.max(np.abs(again - v)) < 1e-9
    # closed matrix (the qudit formula at d = 2) agrees with the projection
    assert np.max(np.abs(cloners.rb_ac_matrix() @ v - out)) < 1e-9
    beta = cloners.heis_beta_from_alpha(v, 2)
    # Bell-label order phi+, phi-, psi+, psi- maps to (m,n) = 00, 01, 10, 11
    assert np.max(np.abs(beta.reshape(4) - out)) < 1e-9
    out_c = cloners.cerf_reparam(v, "RC_AB")
    assert abs(np.linalg.norm(out_c) - 1) < 1e-9
    with pytest.raises(ValueError):
        cloners.cerf_reparam([1, 0, 0, 0], "XX")
    with pytest.raises(ValueError):
        cloners.cerf_reparam([1, 1, 0, 0], "RB_AC")


def test_prob_clone_success():
    ga, gb, gt = cloners.prob_clone_success(0.0, 0.0, 2)
    assert gt == 1.0
    s, m = 0.35, 3
    ga, gb, gt = cloners.prob_clone_success(s, 1.0, m)
    assert abs(gt - (1 - s) / (1 - s**m)) < 1e-12
    assert abs(gt - ga) < 1e-12
    ga, gb, gt = cloners.prob_clone_success(0.5, 0.5, 2)
    assert abs(gt - (1 - 0.25) / (1 - 0.25)) < 1e-12
    # two-step protocol identity: gamma_B + (1 - gamma_B) gamma_A = gamma_tot
    for s, t, m in ((0.5, 0.8, 2), (0.3, 0.6, 4), (0.7, 0.2, 3)):
        ga, gb, gt = cloners.prob_clone_success(s, t, m)
        assert abs(gb + (1 - gb) * ga - gt) < 1e-12
    with pytest.raises(ValueError):
        cloners.prob_clone_success(1.0, 0.5, 2)


def test_linearly_independent():
    k0 = StateVector((2,), [1, 0])
    k1 = StateVector((2,), [0, 1])
    plus = StateVector((2,), np.array([1, 1]) / math.sqrt(2))
    assert cloners.linearly_independent([k0, k1])
    assert not cloners.linearly_independent([k0, k0])
    assert not cloners.linearly_independent([k0, k1, plus])
    with pytest.raises(ValueError):
        cloners.linearly_independent([])


def test_closed_form_values():
    assert abs(cloners.gm_fidelity(1, 2) - 5 / 6) < 1e-12
    assert abs(cloners.gm_fidelity(1, 3) - 7 / 9) < 1e-12
    assert abs(cloners.gm_fidelity(2, 3) - 11 / 12) < 1e-12
    assert abs(cloners.fan_nmd_fidelity(1, 2, 2) - 5 / 6) < 1e-12
    assert abs(cloners.fan_nmd_fidelity(1, 2, 3) - cloners.heis_symmetric_fidelity(3)) < 1e-12
    assert abs(cloners.pc2_fidelity() - (0.5 + math.sqrt(1 / 8))) < 1e-15
    assert abs(cloners.pc_d_fidelity(2) - cloners.pc2_fidelity()) < 1e-12
    assert abs(cloners.pc_d_fidelity(3) - (5 + math.sqrt(17)) / 12) < 1e-12
    assert abs(cloners.econ_fidelity(2) - cloners.pc2_fidelity()) < 1e-12
    assert abs(cloners.pc_fidelity(1, 2) - cloners.pc2_fidelity()) < 1e-12
    assert abs(cloners.pc_fidelity(1, 3) - 5 / 6) < 1e-12
    # N = 1 specials: even and odd target counts
    assert abs(cloners.pc_fidelity(1, 4) - (0.5 + math.sqrt(4 * 6) / 16)) < 1e-12
    assert abs(cloners.pc_fidelity(1, 5) - (0.5 + 6 / 20)) < 1e-12
    assert abs(cloners.pc_limit_fidelity(1) - 0.75) < 1e-12
    assert abs(cloners.bdefms_fidelity(0.5) - 0.987) < 5e-4
    assert abs(cloners.rastegin_mixed_upper_bound(1.0) - 1.0) < 1e-12
    assert abs(cloners.uqcm_fidelity(2) - 5 / 6) < 1e-12
    f1, f2 = cloners.pauli_fidelities(0.5)
    assert abs(f1 - 5 / 6) < 1e-12 and abs(f2 - 5 / 6) < 1e-12
    with pytest.raises(ValueError):
        cloners.closed_form_fidelity("nope")
    assert abs(cloners.closed_form_fidelity("gm", 1, 2) - 5 / 6) < 1e-12


def test_pc_limit_matches_large_m():
    for n in (1, 2, 3):
        lim = cloners.pc_limit_fidelity(n)
        big = cloners.pc_fidelity(n, 4000 + n)
        assert abs(big - lim) < 1e-3


def test_anti_cloner_outputs():
    for _ in range(5):
        rep = clone_report(MachineSpec("anti"), StateVector((2,), rand_ket()))
        assert abs(rep.F_a - 2 / 3) < 1e-9
        assert abs(rep.F_b - 1 / 3) < 1e-9


def test_machine_spec_errors():
    with pytest.raises(ValueError):
        build_machine(MachineSpec("nope"))
    with pytest.raises(ValueError):
        cloners.build_gm_1m(9)
    with pytest.raises(ValueError):
        cloners.build_pauli_asym(1.5)
    with pytest.raises(ValueError):
        cloners.build_heis_asym(2, 1.5)
    with pytest.raises(ValueError):
        cloners.build_kr(0.9)


def test_cached_machine_matrix_is_read_only():
    machine = build_machine(MachineSpec("bh", (0.35,)))
    with pytest.raises(ValueError):
        machine.matrix[0, 0] = 1.0
    assert build_machine(MachineSpec("bh", (0.35,))) is machine


def test_machine_cache_is_keyed_by_parameter_types():
    build_machine.cache_clear()
    with pytest.raises(TypeError):
        build_machine(MachineSpec("wz-n", (3.0,)))
    assert build_machine(MachineSpec("wz-n", (3,))).out_dims == (3, 3, 3)
    with pytest.raises(TypeError):
        build_machine(MachineSpec("wz-n", (3.0,)))
