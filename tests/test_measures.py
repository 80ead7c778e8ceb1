import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qclone import cloners, measures
from qclone.qcore import (
    PAULI_Y,
    DensityOperator,
    StateVector,
    apply_isometry,
    bell_state,
    partial_trace,
)


def random_density(rng, dims=(2, 2)):
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityOperator(dims, m / np.trace(m))


def random_pure(rng, d=4):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def projector(v, dims):
    return DensityOperator(dims, np.outer(v, np.conj(v)))


def test_fidelity_mixed_basics():
    rng = np.random.default_rng(0)
    rho = random_density(rng)
    assert abs(measures.fidelity_mixed(rho, rho) - 1) < 1e-9
    zero = DensityOperator((2,), np.diag([1.0, 0.0]))
    one = DensityOperator((2,), np.diag([0.0, 1.0]))
    assert measures.fidelity_mixed(zero, one) < 1e-12
    half = DensityOperator((2,), np.eye(2) / 2)
    assert abs(measures.fidelity_mixed(zero, half) - 1 / math.sqrt(2)) < 1e-12


def test_fidelity_mixed_dim_mismatch():
    a = DensityOperator((2,), np.eye(2) / 2)
    b = DensityOperator((3,), np.eye(3) / 3)
    with pytest.raises(ValueError):
        measures.fidelity_mixed(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fidelity_symmetric(seed):
    rng = np.random.default_rng(seed)
    rho, sigma = random_density(rng), random_density(rng)
    assert abs(measures.fidelity_mixed(rho, sigma) - measures.fidelity_mixed(sigma, rho)) < 1e-12


def test_overlap_and_fidelity_pure():
    psi = StateVector((2,), [1, 0])
    assert abs(measures.overlap(psi, projector(psi.amps, (2,))) - 1) < 1e-12
    half = DensityOperator((2,), np.eye(2) / 2)
    assert abs(measures.overlap(psi, half) - 0.5) < 1e-12
    assert abs(measures.fidelity_pure(psi, half) - math.sqrt(0.5)) < 1e-12


def test_overlap_bh_optimal_output():
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = random_pure(rng, 2)
        rep = cloners.clone_report(cloners.MachineSpec("bh-opt"), StateVector((2,), v))
        assert abs(measures.overlap(StateVector((2,), v), rep.rho_a) - 5 / 6) < 1e-12


def test_hs_distance():
    rng = np.random.default_rng(1)
    rho = random_density(rng)
    assert measures.hs_distance(rho, rho) < 1e-14
    # copy quality of the basis copier at the equator
    rep = cloners.clone_report(
        cloners.MachineSpec("wz"), StateVector((2,), [math.sqrt(0.5), math.sqrt(0.5)])
    )
    assert abs(rep.D_a - 0.5) < 1e-12
    # universal copier: constant 1/18
    rep = cloners.clone_report(cloners.MachineSpec("bh-opt"), StateVector((2,), random_pure(rng, 2)))
    assert abs(rep.D_a - 1 / 18) < 1e-12


def test_von_neumann_entropy():
    pure = DensityOperator((2,), np.diag([1.0, 0.0]))
    assert measures.von_neumann_entropy(pure) < 1e-12
    mixed = DensityOperator((2,), np.eye(2) / 2)
    assert abs(measures.von_neumann_entropy(mixed, base=2) - 1) < 1e-12
    # base conversion
    rng = np.random.default_rng(2)
    rho = random_density(rng, (2,))
    s2 = measures.von_neumann_entropy(rho, base=2)
    se = measures.von_neumann_entropy(rho, base=np.e)
    assert abs(se - s2 * math.log(2)) < 1e-12


def test_copier_entropy_value():
    # direct evaluation at d = 2: ln 3 - (2 ln 2)/3
    expected = math.log(3) - 2 * math.log(2) / 3
    assert abs(cloners.copier_entropy(2) - expected) < 1e-12
    assert abs(expected - 0.6365) < 5e-4
    # the entropy is the copies/copier entanglement of the universal copier
    psi = StateVector((2,), [1, 0])
    out = apply_isometry(cloners.build_uqcm_d(2), psi).density()
    machine = partial_trace(out, [2])
    assert abs(measures.von_neumann_entropy(machine, base=np.e) - expected) < 1e-9


def test_entropy_of_entanglement():
    ket = StateVector((2, 2), bell_state("psi-"))
    assert abs(measures.entropy_of_entanglement(ket, [0]) - 1) < 1e-12
    prod = StateVector((2, 2), [0, 1, 0, 0])
    assert measures.entropy_of_entanglement(prod, [0]) < 1e-12
    alpha2 = 0.8
    amps = np.zeros(4)
    amps[0], amps[3] = math.sqrt(alpha2), math.sqrt(1 - alpha2)
    h2 = -0.8 * math.log2(0.8) - 0.2 * math.log2(0.2)
    got = measures.entropy_of_entanglement(StateVector((2, 2), amps), [0])
    assert abs(got - h2) < 1e-12
    assert abs(h2 - 0.7219) < 5e-4
    # S(tr_B) = S(tr_A)
    rng = np.random.default_rng(3)
    v = random_pure(rng, 4)
    ket = StateVector((2, 2), v)
    assert abs(
        measures.entropy_of_entanglement(ket, [0]) - measures.entropy_of_entanglement(ket, [1])
    ) < 1e-9


def test_concurrence_values():
    psi_plus = projector(bell_state("psi+"), (2, 2))
    assert abs(measures.concurrence_2q(psi_plus) - 1) < 1e-9
    sep = DensityOperator((2, 2), np.diag([0.4, 0.1, 0.3, 0.2]))
    assert measures.concurrence_2q(sep) < 1e-9
    alpha2 = 0.8
    amps = np.zeros(4)
    amps[0], amps[3] = math.sqrt(alpha2), math.sqrt(1 - alpha2)
    ket = StateVector((2, 2), amps)
    assert abs(measures.concurrence_pure(ket) - 2 * math.sqrt(0.8 * 0.2)) < 1e-12
    assert abs(measures.concurrence_pure(ket) - 0.8) < 1e-12
    assert measures.concurrence_pure(StateVector((2, 2), [1, 0, 0, 0])) < 1e-12
    uniform = StateVector((2, 2), bell_state("phi+"))
    assert abs(measures.concurrence_pure(uniform) - 1) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_concurrence_pure_consistency(seed):
    rng = np.random.default_rng(seed)
    v = random_pure(rng, 4)
    ket = StateVector((2, 2), v)
    c_pure = measures.concurrence_pure(ket)
    # mixed-state formula on the projector
    assert abs(measures.concurrence_2q(projector(v, (2, 2))) - c_pure) < 1e-9
    # purity form sqrt(2 (1 - Tr rho_A^2))
    rho_a = partial_trace(projector(v, (2, 2)), [0]).mat
    purity_form = math.sqrt(max(0.0, 2 * (1 - np.trace(rho_a @ rho_a).real)))
    assert abs(purity_form - c_pure) < 1e-9
    # negativity equals concurrence for pure two-qubit states
    assert abs(measures.negativity(ket.density(), [0]) - c_pure) < 1e-9


def test_eof():
    assert abs(measures.eof_from_concurrence(1.0) - 1.0) < 1e-12
    assert measures.eof_from_concurrence(0.0) < 1e-12
    assert abs(measures.eof_from_concurrence(1 / 3) - 0.1873) < 5e-4
    assert abs(measures.eof_from_concurrence(2 / 3) - 0.55) < 5e-3
    with pytest.raises(ValueError):
        measures.eof_from_concurrence(1.5)
    grid = np.linspace(0, 1, 20)
    vals = [measures.eof_from_concurrence(c) for c in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_negativity_values():
    phi = projector(bell_state("phi+"), (2, 2))
    assert abs(measures.negativity(phi, [0]) - 1) < 1e-9
    sep = DensityOperator((2, 2), np.diag([0.4, 0.1, 0.3, 0.2]))
    assert measures.negativity(sep, [0]) < 1e-12


def test_ppt_verdict():
    psi = projector(bell_state("psi+"), (2, 2))
    assert measures.ppt_verdict(psi).verdict == "Inseparable"
    mixed = DensityOperator((2, 2), np.eye(4) / 4)
    assert measures.ppt_verdict(mixed).verdict == "Separable"
    # larger dims: PPT alone is inconclusive
    big = DensityOperator((2, 3), np.eye(6) / 6)
    assert measures.ppt_verdict(big).verdict == "Unknown"


def test_is_npt_threshold_and_split():
    # Werner state p |psi-><psi-| + (1 - p) I/4: smallest PT eigenvalue (1 - 3p)/4
    singlet = projector(bell_state("psi-"), (2, 2)).mat
    for min_eig, npt in ((-2 * measures.PPT_TOL, True), (-measures.PPT_TOL / 2, False), (0.0, False)):
        p = (1 - 4 * min_eig) / 3
        rho = p * singlet + (1 - p) * np.eye(4) / 4
        assert abs(measures.min_pt_eigenvalue(rho) - min_eig) < 1e-13
        assert measures.is_npt(rho) == npt
        verdict = measures.ppt_verdict(DensityOperator((2, 2), rho)).verdict
        assert verdict == ("Inseparable" if npt else "Separable")
    # a singlet on qubits 0 and 2 of three, qubit 1 in |0>
    three = np.kron(singlet, np.diag([1.0, 0.0])).reshape([2] * 6)
    three = three.transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
    assert measures.is_npt(three, (2, 2, 2), (2,))
    assert measures.is_npt(three, (2, 2, 2), (0, 1))
    assert not measures.is_npt(three, (2, 2, 2), (1,))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_ppt_verdict_agrees_with_concurrence(seed, rank, noise):
    # PPT is exact on two qubits: inseparable iff the concurrence is positive.
    # Within 1e-7 of zero rounding alone may flip either sign, so such states
    # are skipped (a clipped concurrence of exactly 0 is a definite answer).
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = a @ a.conj().T
    rho = DensityOperator((2, 2), (1 - noise) * m / np.trace(m).real + noise * np.eye(4) / 4)
    verdict = measures.ppt_verdict(rho)
    c = measures.concurrence_2q(rho)
    assume(abs(verdict.min_pt_eigenvalue) >= 1e-7 and not 0 < c < 1e-7)
    assert (verdict.verdict == "Inseparable") == (c > 0)


def test_w_determinants_bh_output():
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = random_pure(rng, 2)
        rep = cloners.clone_report(cloners.MachineSpec("bh-opt"), StateVector((2,), v))
        w2, w3, w4 = measures.w_determinants(rep.rho_out)
        assert abs(w4 - (-1 / 6**4)) < 1e-12
        assert w2 >= -1e-12
        assert measures.ppt_verdict(rep.rho_out).verdict == "Inseparable"
    prod = DensityOperator((2, 2), np.diag([1.0, 0, 0, 0]))
    assert all(w >= -1e-12 for w in measures.w_determinants(prod))


def test_ppt_and_w_determinants_agree():
    """Full-PPT and the determinant test agree on 1000 random states."""
    rng = np.random.default_rng(11)
    disagreements = 0
    for k in range(1000):
        if k % 2 == 0:
            # random mixture of a few pure states
            n = rng.integers(1, 4)
            m = np.zeros((4, 4), dtype=complex)
            for _ in range(n):
                v = random_pure(rng, 4)
                m += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
            rho = DensityOperator((2, 2), m / np.trace(m))
        else:
            # random separable construction
            m = np.zeros((4, 4), dtype=complex)
            for _ in range(rng.integers(1, 5)):
                a = random_pure(rng, 2)
                b = random_pure(rng, 2)
                v = np.kron(a, b)
                m += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
            rho = DensityOperator((2, 2), m / np.trace(m))
        verdict = measures.ppt_verdict(rho)
        w2, w3, w4 = measures.w_determinants(rho)
        w_inseparable = (w3 < -1e-10 or w4 < -1e-10) and w2 >= -1e-10
        ppt_inseparable = verdict.verdict == "Inseparable" and verdict.min_pt_eigenvalue < -1e-10
        if w_inseparable != ppt_inseparable:
            disagreements += 1
    assert disagreements == 0


def test_w_determinants_broadcast_output():
    from qclone import broadcast as bc

    mats = bc.broadcast_output_matrices((math.sqrt(0.5), math.sqrt(0.5)), 1 / 6)
    rho = DensityOperator((2, 2), mats["AB'"])
    w2, w3, w4 = measures.w_determinants(rho)
    assert w4 < 0
    assert measures.ppt_verdict(rho).verdict == "Inseparable"


def _psd_sqrt_reference(mat):
    evals, evecs = np.linalg.eigh(mat)
    evals = np.where(evals < 1e-12 * max(1.0, evals[-1]), 0.0, evals)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def _concurrence_reference(mat):
    """Wootters' concurrence with separate square roots of rho and rho~:
    two eigensolves, a kron and an svd per call."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    rho_tilde = yy @ mat.conj() @ yy
    lam = np.linalg.svd(_psd_sqrt_reference(rho_tilde) @ _psd_sqrt_reference(mat), compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 1e-9, 3e-9]),
)
def test_concurrence_2q_matches_two_eigensolve_form(seed, rank, noise):
    # tiny noise leaves the state nearly rank-deficient, where the two
    # square roots are most sensitive to rounding
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = a @ a.conj().T
    rho = DensityOperator((2, 2), (1 - noise) * m / np.trace(m).real + noise * np.eye(4) / 4)
    assert abs(measures.concurrence_2q(rho) - _concurrence_reference(rho.mat)) < 1e-12


def test_ppt_verdict_determinants_on_either_split():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_density(rng)
        ref = measures.w_determinants(rho)
        for split in ((0,), (1,)):
            v = measures.ppt_verdict(rho, split)
            assert np.allclose((v.w2, v.w3, v.w4), ref, rtol=0.0, atol=1e-15)
    for split in ((), (0, 1)):
        with pytest.raises(ValueError, match="names one qubit"):
            measures.ppt_verdict(rho, split)


def test_pauli_yy_constant_is_read_only():
    with pytest.raises(ValueError):
        measures._YY[0, 3] = 1.0


def test_herbert_ensembles():
    rho_x, rho_z, gap = measures.herbert_ensembles()
    assert abs(rho_x.mat[0, 3] - 0.25) < 1e-12
    assert np.allclose(np.diag(rho_z.mat), [0.5, 0, 0, 0.5])
    assert gap > 0.01
    for family in ("bh-opt", "wz", "pc2"):
        machine = cloners.build_machine(cloners.MachineSpec(family))
        assert measures.herbert_gap_with_machine(machine) < 1e-9


# Parameters of every catalog family with a qubit input, each in the
# family's domain (the dimension families at d = 2).
NO_SIGNALLING_PARAMS = {
    "wz": st.just(()),
    "wz-n": st.just((2,)),
    "bh": st.tuples(st.floats(1 / 6, 0.5)),
    "bh-opt": st.just(()),
    "gm-1m": st.tuples(st.integers(2, 6)),
    "uqcm-d": st.just((2,)),
    "pc2": st.just(()),
    "pc-d": st.just((2,)),
    "kr": st.tuples(st.floats(0.0, 1 / math.sqrt(2))),
    "econ": st.tuples(st.just(2), st.integers(0, 1)),
    "pauli-asym": st.tuples(st.floats(0.0, 1.0)),
    "heis-asym": st.tuples(st.just(2), st.floats(0.0, 1.0)),
    "anti": st.just(()),
}
QUBIT_MACHINES = st.sampled_from(sorted(NO_SIGNALLING_PARAMS)).flatmap(
    lambda f: NO_SIGNALLING_PARAMS[f].map(lambda params: cloners.MachineSpec(f, params))
)


@settings(max_examples=60, deadline=None)
@given(QUBIT_MACHINES)
def test_no_signalling_across_the_cloner_catalog(spec):
    # a new qubit-input family fails here until it has a strategy
    assert set(NO_SIGNALLING_PARAMS) == set(cloners.FAMILIES) - {"mixed-23", "mixed-2m"}
    assert measures.herbert_gap_with_machine(cloners.build_machine(spec)) < 1e-9
