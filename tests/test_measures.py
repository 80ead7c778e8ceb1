import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qclone import broadcast as bc
from qclone import cloners, measures
from qclone.qcore import (
    ALPHA2,
    PAULI_Y,
    DensityOperator,
    StateVector,
    apply_isometry,
    bell_state,
    _x_state,
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
    with pytest.raises(ValueError, match="different spaces"):
        measures.overlap(StateVector((4,), [1, 0, 0, 0]), DensityOperator((2, 2), np.eye(4) / 4))


def test_overlap_bh_optimal_output():
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = random_pure(rng, 2)
        rep = cloners.clone_report(cloners.MachineSpec("bh-opt"), StateVector((2,), v))
        assert abs(measures.overlap(StateVector((2,), v), rep.rho_a) - 5 / 6) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 10_000))
def test_overlap_of_stacks_equals_the_overlap_of_each_row(d, n, seed):
    rng = np.random.default_rng(seed)
    kets = np.stack([random_pure(rng, d) for _ in range(n)])
    rhos = [random_density(rng, (d,)) for _ in range(n)]
    mats = np.stack([rho.mat for rho in rhos])
    one_ket, one_rho = StateVector((d,), kets[0]), rhos[0]
    pairs = {
        "ket stack, operator stack": (kets, mats, zip(kets, rhos)),
        "ket stack, one operator": (kets, one_rho.mat, ((k, one_rho) for k in kets)),
        "one ket, operator stack": (kets[0], mats, ((kets[0], rho) for rho in rhos)),
    }
    for name, (psi, rho, rows) in pairs.items():
        want = [measures.overlap(StateVector((d,), k), r) for k, r in rows]
        got = measures.overlap(psi, rho)
        assert got.shape == (n,), name
        assert np.array_equal(got, want), name
    single = measures.overlap(one_ket, one_rho)
    assert type(single) is float and single == measures.overlap(kets[0], one_rho.mat)


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
    for bad in (1.5, float("nan")):
        with pytest.raises(ValueError):
            measures.eof_from_concurrence(bad)
    grid = np.linspace(0, 1, 20)
    vals = [measures.eof_from_concurrence(c) for c in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_negativity_values():
    phi = projector(bell_state("phi+"), (2, 2))
    assert abs(measures.negativity(phi, [0]) - 1) < 1e-9
    sep = DensityOperator((2, 2), np.diag([0.4, 0.1, 0.3, 0.2]))
    assert measures.negativity(sep, [0]) < 1e-12


def test_negativity_rejects_a_split_with_a_trivial_side():
    phi = projector(bell_state("phi+"), (2, 2))
    three = DensityOperator((2, 2, 2), np.eye(8) / 8)
    for rho, split in ((phi, (0, 1)), (phi, [1, 0]), (three, (0, 1, 2))):
        with pytest.raises(ValueError, match="names a proper subset"):
            measures.negativity(rho, split)
    assert measures.negativity(three, (0, 2)) < 1e-12


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


def test_is_npt_on_a_stack_is_per_matrix():
    singlet = projector(bell_state("psi-"), (2, 2)).mat
    stack = np.array([p * singlet + (1 - p) * np.eye(4) / 4 for p in (0.0, 0.3, 1 / 3, 0.34, 1.0)])
    least = measures.min_pt_eigenvalue(stack)
    assert least.shape == (5,)
    assert list(least) == [measures.min_pt_eigenvalue(m) for m in stack]
    assert list(measures.is_npt(stack)) == [False, False, False, True, True]
    assert type(measures.min_pt_eigenvalue(singlet)) is float
    assert type(measures.is_npt(singlet)) is bool


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


# Oracles for two-qubit states that share no code with the package: Wootters'
# concurrence from the eigenvalues of rho rho~, the partial transpose by an
# explicit index swap, and the W minors by np.linalg.det.


def _wootters_by_eigvals(m):
    yy = np.kron(PAULI_Y, PAULI_Y)
    mu = np.linalg.eigvals(m @ yy @ m.conj() @ yy).real
    lam = np.sort(np.sqrt(np.clip(mu, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _explicit_pt(m, qubit):
    axes = (0, 3, 2, 1) if qubit == 1 else (2, 1, 0, 3)
    return m.reshape(2, 2, 2, 2).transpose(axes).reshape(4, 4)


def _minors_by_det(m):
    pt = _explicit_pt(m, 1)
    return tuple(float(np.linalg.det(pt[:k, :k]).real) for k in (2, 3, 4))


def _psd_block(e1, e2, theta, phi):
    """U diag(e1, e2) U^dag for a qubit rotation U: a PSD 2x2 block with a
    complex coherence."""
    u = np.array(
        [[math.cos(theta), -np.exp(-1j * phi) * math.sin(theta)], [np.exp(1j * phi) * math.sin(theta), math.cos(theta)]]
    )
    return (u * [e1, e2]) @ u.conj().T


# Block eigenvalues stay at or above 1e-2 before normalization, so the
# eigenvalues of rho rho~ stay above about 1e-6 and the square roots in the
# Wootters oracle add under 1e-12 of rounding.
_EIGENVALUE = st.floats(min_value=1e-2, max_value=1.0)
_BLOCK = st.tuples(_EIGENVALUE, _EIGENVALUE, st.floats(0.0, math.pi / 2), st.floats(0.0, 2 * math.pi))
_OFF_X_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4) if i + j != 3]


def _x_matrix(outer, inner):
    """X state with the block ``outer`` on {0, 3} and ``inner`` on {1, 2}."""
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_([0, 3], [0, 3])] = _psd_block(*outer)
    m[np.ix_([1, 2], [1, 2])] = _psd_block(*inner)
    return m / np.trace(m).real


def _assert_measures_meet_oracles(m, tol):
    rho = DensityOperator((2, 2), m)
    assert abs(measures.concurrence_2q(rho) - _wootters_by_eigvals(m)) < tol
    least = {q: np.linalg.eigvalsh(_explicit_pt(m, q))[0] for q in (0, 1)}
    for q in (0, 1):
        assert abs(measures.min_pt_eigenvalue(m, (2, 2), (q,)) - least[q]) < tol
        stacked = measures.min_pt_eigenvalue(np.stack([m, m.conj()]), (2, 2), (q,))
        assert stacked.shape == (2,) and np.abs(stacked - least[q]).max() < tol
        verdict = measures.ppt_verdict(rho, (q,))
        assert abs(verdict.min_pt_eigenvalue - least[q]) < tol
        assert verdict.verdict == ("Inseparable" if least[q] < -measures.PPT_TOL else "Separable")
        assert np.abs(np.subtract((verdict.w2, verdict.w3, verdict.w4), _minors_by_det(m))).max() < tol
    assert np.abs(np.subtract(measures.w_determinants(rho), _minors_by_det(m))).max() < tol
    # a transpose of both qubits has the spectrum of rho
    full = measures.min_pt_eigenvalue(m, (2, 2), (0, 1))
    assert abs(full - np.linalg.eigvalsh(m)[0]) < 1e-12


@settings(max_examples=200, deadline=None)
@given(_BLOCK, _BLOCK, st.sampled_from(_OFF_X_PAIRS))
def test_x_state_closed_forms_meet_independent_oracles(outer, inner, pair):
    m = _x_matrix(outer, inner)
    assert _x_state(m) is not None
    _assert_measures_meet_oracles(m, 1e-12)
    # one off-X pair at 1e-13 is no X state: the general path serves it
    near = m.copy()
    near[pair] = near[pair[::-1]] = 1e-13
    assert _x_state(near) is None
    _assert_measures_meet_oracles(near, 1e-9)


# ---------------------------------------------------------------------------
# X states built as one carry their moduli (qcore._derived_x)


def _alpha(a2, phase):
    return math.sqrt(a2) * complex(math.cos(phase), math.sin(phase))


# every producer of a carried X state, from a point (alpha^2, phase, lambda)
X_PRODUCERS = {
    "rho_16_closed": lambda a2, phase, lam: [bc.rho_16_closed(_alpha(a2, phase))],
    "rho_46_closed": lambda a2, phase, lam: [bc.rho_46_closed(_alpha(a2, phase))],
    "rho_12_closed": lambda a2, phase, lam: [bc.rho_12_closed(_alpha(a2, phase))],
    # (alpha1, beta1) with alpha1 = cos(phase): AB', A'B (the same), AA', BB'
    "broadcast_outputs": lambda a2, phase, lam: list(
        bc.broadcast_outputs((math.cos(phase), math.sin(phase)), lam).values()
    ),
}


def _all_measures(rho):
    """concurrence_2q, w_determinants and ppt_verdict on either qubit, the numbers by their bits."""
    verdicts = [measures.ppt_verdict(rho, (q,)) for q in (0, 1)]
    numbers = [measures.concurrence_2q(rho), *measures.w_determinants(rho), *(x for v in verdicts for x in v[1:])]
    return [float(x).hex() for x in numbers] + [v.verdict for v in verdicts]


@pytest.mark.parametrize("name", X_PRODUCERS)
@settings(max_examples=60, deadline=None)
@given(
    a2=st.floats(ALPHA2.least, ALPHA2.most),
    phase=st.floats(0.0, 2 * math.pi),
    lam=st.floats(bc.COPIER_LAMBDA.least, bc.COPIER_LAMBDA.most),
)
def test_a_carried_x_state_gives_the_measures_of_its_matrix(name, a2, phase, lam):
    for op in X_PRODUCERS[name](a2, phase, lam):
        assert op._x is not None
        built = DensityOperator(op.dims, op.mat.copy())  # recognised from its matrix
        assert built._x is None and _x_state(built.mat) == op._x
        assert _all_measures(op) == _all_measures(built)


@pytest.mark.parametrize("name", X_PRODUCERS)
@settings(max_examples=60, deadline=None)
@given(
    a2=st.floats(ALPHA2.least, ALPHA2.most),
    phase=st.floats(0.0, 2 * math.pi),
    lam=st.floats(bc.COPIER_LAMBDA.least, bc.COPIER_LAMBDA.most),
)
# the squares and roots of one X state in libm pow moved its least eigenvalue
# off its element of a stack: rho_16_closed, rho_46_closed, rho_12_closed
@example(a2=0.19457688761579417, phase=0.0, lam=0.2)
@example(a2=0.23009289560526314, phase=0.0, lam=0.2)
@example(a2=0.2428518596136473, phase=0.0, lam=0.2)
def test_one_x_state_gives_the_pt_eigenvalue_of_its_element_of_a_stack(name, a2, phase, lam):
    mats = [op.mat for op in X_PRODUCERS[name](a2, phase, lam)]
    for split in ((0,), (1,)):
        least = measures.min_pt_eigenvalue(np.stack(mats), split=split)
        npt = measures.is_npt(np.stack(mats), split=split)
        for i, mat in enumerate(mats):
            assert measures.min_pt_eigenvalue(mat, split=split).hex() == float(least[i]).hex()
            assert measures.is_npt(mat, split=split) == npt[i]


def test_a_closed_form_sweep_recognises_no_state(monkeypatch):
    """The five closed-form states that the closed_forms benchmark measures
    take the measures from the numbers they carry."""
    calls = []
    x_state = measures._x_state
    monkeypatch.setattr(measures, "_x_state", lambda mats: calls.append(mats.shape) or x_state(mats))
    outputs = bc.broadcast_outputs((math.sqrt(0.3), math.sqrt(0.7)), 0.19)
    alpha = 0.6 + 0.3j
    states = [outputs["AB'"], outputs["AA'"], *(fn(alpha) for fn in (bc.rho_16_closed, bc.rho_46_closed, bc.rho_12_closed))]
    for rho in states:
        for measure in (measures.concurrence_2q, measures.ppt_verdict, measures.w_determinants):
            measure(rho)
    assert calls == []
    # a caller-built copy is recognised from its matrix by the measure
    # alone: its check takes the general tests
    measures.w_determinants(DensityOperator((2, 2), states[0].mat))
    assert calls == [(4, 4)]


def test_a_carried_x_state_is_read_only_and_carries_nothing_on():
    rho = bc.rho_16_closed(0.6)
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[1, 2] += 0.1
    assert not rho.mat.flags.writeable
    # a replaced or caller-built operator is checked and carries nothing
    assert rho._replace(mat=rho.mat.copy())._x is None
    assert DensityOperator(rho.dims, rho.mat)._x is None
    assert isinstance(rho, DensityOperator) and repr(rho) == "DensityOperator(dims=(2, 2))"
    with pytest.raises(AttributeError):
        DensityOperator(rho.dims, rho.mat)._x = rho._x
    dims, mat = rho
    assert dims == (2, 2) and mat is rho.mat
    # a copy or an unpickled twin is read-only too, and carries the same moduli
    for twin in (copy.copy(rho), copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert twin._x == rho._x and np.array_equal(twin.mat, rho.mat)
        with pytest.raises(ValueError, match="read-only"):
            twin.mat[0, 3] = 0.0


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
    with pytest.raises(ValueError, match=r"input dims \(2,\) do not match machine \(3,\)"):
        measures.herbert_gap_with_machine(cloners.build_machine(cloners.MachineSpec("mixed-23")))


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
    assert set(NO_SIGNALLING_PARAMS) == set(cloners.FAMILIES) - set(cloners.TWO_TO_M)
    assert measures.herbert_gap_with_machine(cloners.build_machine(spec)) < 1e-9
