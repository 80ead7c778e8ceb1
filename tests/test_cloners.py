import itertools
import math
import re

import numpy as np
import pytest

from qclone import cloners, measures
from qclone.cloners import MachineSpec, build_machine, clone_report
from qclone.qcore import (
    BELL_LABELS,
    StateVector,
    UnrealizableSpec,
    apply_isometry,
    bell_state,
    ket,
    partial_trace,
)
from test_qcore import kron_all


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


@pytest.mark.parametrize("mu", [2.0, 0.9, -0.9, math.sqrt(0.5) + 1e-9, math.nan, math.inf])
def test_kr_fidelity_and_build_kr_reject_the_same_mu(mu):
    for reject in (cloners.build_kr, lambda mu: cloners.kr_fidelity(mu, 0.0)):
        with pytest.raises(ValueError, match=re.escape(f"mu^2 must lie in {cloners.MU2}, got ")):
            reject(mu)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_kr_fidelity_rejects_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match=re.escape("theta must lie in (-inf, inf), got ")):
        cloners.kr_fidelity(0.5, theta)


def test_kr_fidelity_accepts_the_end_of_the_mu_range():
    # nu = 0 (within build_kr's 1e-12 slack): F = 1/2 at every angle
    for mu in (math.sqrt(0.5), -math.sqrt(0.5), math.sqrt(0.5 + 1e-13)):
        cloners.build_kr(mu)
        assert abs(cloners.kr_fidelity(abs(mu), 0.0) - 0.5) < 1e-9


def _optimal_universal_qubit_copier() -> np.ndarray:
    """|j> -> sqrt(2/3)|jj>|j> + sqrt(1/6)(|jk> + |kj>)|k>, written out."""
    cols = np.zeros((8, 2), dtype=complex)
    for j, k in ((0, 1), (1, 0)):
        pair = kron_all(ket(j), ket(k), ket(k)) + kron_all(ket(k), ket(j), ket(k))
        cols[:, j] = math.sqrt(2 / 3) * kron_all(ket(j), ket(j), ket(j)) + math.sqrt(1 / 6) * pair
    return cols


@pytest.mark.parametrize(
    "spec",
    [
        MachineSpec("bh-opt"),
        MachineSpec("gm-1m", (2,)),
        MachineSpec("uqcm-d", (2,)),
        MachineSpec("kr", (1 / math.sqrt(6),)),
        MachineSpec("heis-asym", (2, 0.5)),
    ],
    ids=str,
)
def test_optimal_universal_copier_is_a_point_of_five_families(spec):
    machine = build_machine(spec)
    assert machine.in_dims == (2,) and machine.out_dims == (2, 2, 2)
    assert np.max(np.abs(machine.matrix - _optimal_universal_qubit_copier())) <= 1e-15
    assert np.max(np.abs(machine.matrix - build_machine(MachineSpec("bh-opt")).matrix)) <= 1e-15


@pytest.mark.parametrize("n", range(2, 7))
def test_wz_n_is_the_basis_copier_point_of_the_one_to_two_kernel(n):
    # the Wootters-Zurek copier written out: |k> -> |kk>|k>
    expected = np.zeros((n**3, n), dtype=complex)
    for k in range(n):
        expected[:, k] = kron_all(ket(k, n), ket(k, n), ket(k, n))
    machine = cloners.build_wz_n(n)
    assert machine.in_dims == (n,) and machine.out_dims == (n, n, n)
    assert np.array_equal(machine.matrix, expected)


def test_pc2_is_kr_at_one_half():
    assert np.array_equal(cloners.build_pc2().matrix, cloners.build_kr(0.5).matrix)


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
def test_pauli_asym_is_heis_asym_in_two_dimensions(p):
    machine = cloners.build_pauli_asym(p)
    assert np.array_equal(machine.matrix, cloners.build_heis_asym(2, p).matrix)
    # the Pauli form written out: |j> -> (|jjj> + p|jkk> + q|kjk>) / sqrt(1 + p^2 + q^2)
    q = 1 - p
    expected = np.zeros((8, 2), dtype=complex)
    for j, k in ((0, 1), (1, 0)):
        expected[:, j] = (
            kron_all(ket(j), ket(j), ket(j))
            + p * kron_all(ket(j), ket(k), ket(k))
            + q * kron_all(ket(k), ket(j), ket(k))
        ) / math.sqrt(1 + p**2 + q**2)
    assert np.max(np.abs(machine.matrix - expected)) <= 1e-15


@pytest.mark.parametrize(
    "build, param, message",
    [
        (cloners.build_uqcm_d, -1, "dimension must lie in [2, inf), got"),
        (cloners.build_uqcm_d, 1, "dimension must lie in [2, inf), got"),
        (cloners.build_pc_d, 1, "dimension must lie in [2, inf), got"),
        (cloners.build_pc_d, 0, "dimension must lie in [2, inf), got"),
        (cloners.build_wz_n, 1, "dimension must lie in [2, inf), got"),
        (cloners.build_pauli_asym, 1.5, "p must lie in [0, 1]"),
        (cloners.build_pauli_asym, math.nan, "p must lie in [0, 1]"),
    ],
)
def test_shared_builders_check_each_family_domain_first(build, param, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(param)


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


def test_mixed_23_composite_overlap_takes_its_machines_from_the_cache(monkeypatch):
    psi = StateVector((2,), rand_ket())
    expected = cloners.mixed_23_composite_overlap(psi)

    def rebuilt(*args):
        raise AssertionError("a machine was built again")

    monkeypatch.setattr(cloners, "build_gm_1m", rebuilt)
    monkeypatch.setattr(cloners, "build_mixed_23", rebuilt)
    assert cloners.mixed_23_composite_overlap(psi) == expected
    with pytest.raises(ValueError, match=re.escape("input dims (3,) do not match machine (2,)")):
        cloners.mixed_23_composite_overlap(StateVector((3,), np.eye(3)[0]))


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
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        cloners.cerf_reparam([math.nan, 0, 0, 0], "RB_AC")  # once returned a NaN vector


def _double_bell_by_loops(amps, pair_a, pair_b):
    """Reference: sum_i amps[i] |Bell_i>_pair_a |Bell_i>_pair_b, entry by entry."""
    state = np.zeros((2, 2, 2, 2), dtype=complex)
    for c, label in zip(amps, BELL_LABELS):
        bell = bell_state(label).reshape(2, 2)
        for i1, i2, j1, j2 in itertools.product(range(2), repeat=4):
            bits = [0] * 4
            bits[pair_a[0]], bits[pair_a[1]] = i1, i2
            bits[pair_b[0]], bits[pair_b[1]] = j1, j2
            state[tuple(bits)] += c * bell[i1, i2] * bell[j1, j2]
    return state.reshape(16)


def _heis_beta_by_loops(alpha, d):
    """Reference: beta_{m,n} = (1/d) sum_{x,y} exp(2 pi i (n x - m y)/d) alpha_{x,y}, term by term."""
    alpha = np.asarray(alpha, dtype=complex).reshape(d, d)
    beta = np.zeros_like(alpha)
    for m, n, x, y in itertools.product(range(d), repeat=4):
        beta[m, n] += np.exp(2j * np.pi * (n * x - m * y) / d) * alpha[x, y]
    return beta / d


EPS = np.finfo(float).eps


@pytest.mark.parametrize("pairs", [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))])
def test_double_bell_basis_matches_the_index_loops(pairs):
    rng = np.random.default_rng(11)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    # four terms, each a product of three factors of modulus at most 1
    got = cloners._double_bell_basis(*pairs) @ v
    assert np.max(np.abs(got - _double_bell_by_loops(v, *pairs))) <= 16 * EPS


@pytest.mark.parametrize("d", [2, 3, 5])
def test_heis_beta_matches_the_index_loops(d):
    rng = np.random.default_rng(d)
    alpha = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    alpha /= np.linalg.norm(alpha)
    # d^2 terms, each phase rounded from an argument below 2 pi d
    got = cloners.heis_beta_from_alpha(alpha, d)
    assert np.max(np.abs(got - _heis_beta_by_loops(alpha, d))) <= 8 * d * d * EPS


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


# ---------------------------------------------------------------------------
# batched reports

def test_clone_reports_make_no_eigensolve(monkeypatch):
    spec = MachineSpec("uqcm-d", (3,))
    build_machine(spec)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    for n in (1, 7, 40):
        cloners.clone_reports(spec, np.tile(np.eye(3)[0], (n, 1)))
    assert calls == []  # the marginals are reductions of checked kets


@pytest.mark.parametrize("spec, dims", [(MachineSpec("mixed-23"), (3,)), (MachineSpec("mixed-2m", (3,)), (2, 2))])
def test_clone_report_names_a_two_to_m_family(spec, dims):
    psi = StateVector(dims, np.eye(math.prod(dims))[0])
    with pytest.raises(ValueError, match=f"{spec.family} is a 2->M copier; the clone report takes 1->M copiers only"):
        clone_report(spec, psi)
    with pytest.raises(ValueError, match="takes 1->M copiers only"):
        cloners.clone_reports(spec, psi.amps[None])


def test_clone_reports_reject_a_mismatched_or_empty_stack():
    for amps in (np.zeros((0, 2)), np.eye(3), np.eye(2)[0]):
        with pytest.raises(ValueError, match="incompatible with bh-opt"):
            cloners.clone_reports(MachineSpec("bh-opt"), amps)
    with pytest.raises(ValueError, match="not normalized"):
        cloners.clone_reports(MachineSpec("bh-opt"), [[1.0, 1.0]])
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        cloners.clone_reports(MachineSpec("bh-opt"), [[1.0, 0.0], [math.nan, 0.0]])


def test_ying_indices_reject_complex_and_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="amplitudes must be real"):
        cloners.ying_indices(2, np.array([0.6, 0.8j]))
    with pytest.raises(ValueError, match="state vector is not normalized"):
        cloners.ying_indices(2, [[0.6, 0.8], [1.0, 1.0]])
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        cloners.ying_indices(2, [math.nan, 1.0])
    with pytest.raises(ValueError, match="need n >= 2 real amplitudes"):
        cloners.ying_indices(3, np.ones((2, 2, 3)) / math.sqrt(3))
    # a real ket held in a complex array is accepted
    assert cloners.ying_indices(2, np.array([0.6, 0.8 + 0j])) == cloners.ying_indices(2, [0.6, 0.8])


def test_nan_parameter_is_rejected_at_construction():
    with pytest.raises(ValueError, match="mu"):
        build_machine(MachineSpec("kr", (math.nan,)))
