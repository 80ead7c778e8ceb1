import math

import numpy as np
import pytest

from qclone import broadcast as bc
from qclone import measures
from qclone.qcore import DensityOperator, bell_state, partial_trace, partial_transpose


RNG = np.random.default_rng(404)


def test_lambda_star():
    assert abs(bc.sd_cloner_lambda_star(0.25) - 0.140625) < 1e-12
    assert abs(bc.sd_cloner_lambda_star(0.01) - 0.007425) < 1e-12
    assert bc.sd_cloner_lambda_star(0.0) == 0.0
    assert bc.sd_cloner_lambda_star(1.0) == 0.0
    assert max(bc.sd_cloner_lambda_star(t) for t in np.linspace(0, 1, 101)) <= 3 / 16 + 1e-12
    with pytest.raises(ValueError):
        bc.sd_cloner_lambda_star(1.5)


def test_closed_forms_match_channel_simulation():
    for lam in (0.02, 0.1, 1 / 6, 0.18):
        for _ in range(5):
            v = RNG.normal(size=4)
            v /= np.linalg.norm(v)
            cf = bc.broadcast_output_matrices(v, lam)
            ch = bc.broadcast_channel_matrices(v, lam)
            for key in cf:
                assert np.max(np.abs(cf[key] - ch[key])) < 1e-9
                assert abs(np.trace(cf[key]) - 1) < 1e-12


def test_closed_forms_match_machine_path():
    for lam in (1 / 6, 0.17, 3 / 16):
        for _ in range(3):
            v = RNG.normal(size=4)
            v /= np.linalg.norm(v)
            cf = bc.broadcast_output_matrices(v, lam)
            mm = bc.broadcast_outputs_machine(v, lam)
            for key in cf:
                assert np.max(np.abs(cf[key] - mm[key].mat)) < 1e-9


def test_special_family_local_output():
    # alpha|00> + beta|11>: the local pair has the published diagonal form
    lam = 0.12
    a2 = 0.3
    a1, b1 = math.sqrt(a2), math.sqrt(1 - a2)
    mats = bc.broadcast_output_matrices((a1, b1), lam)
    k = mats["AA'"]
    mu = 1 - 2 * lam
    expected = np.zeros((4, 4))
    expected[0, 0] = a2 * mu
    expected[3, 3] = (1 - a2) * mu
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = lam
    assert np.max(np.abs(k - expected)) < 1e-12
    assert np.max(np.abs(mats["AA'"] - mats["BB'"])) < 1e-12
    assert np.max(np.abs(mats["AB'"] - mats["A'B"])) < 1e-12


def test_buzek_case_known_entries():
    # lambda = 1/6, alpha^2 = 1/2: the local pair is the clone-pair mixture
    mats = bc.broadcast_output_matrices((math.sqrt(0.5), math.sqrt(0.5)), 1 / 6)
    k = mats["AA'"]
    assert abs(k[0, 0] - 2 * 0.5 / 3) < 1e-12
    assert abs(k[1, 1] + k[1, 2] + k[2, 1] + k[2, 2] - 2 / 3) < 1e-12
    assert abs(k[3, 3] - 2 * 0.5 / 3) < 1e-12


def test_product_input_nonlocal_outputs_separable():
    # without initial entanglement nothing nonlocal is broadcast; the local
    # clone pairs are still entangled (clone pairs always are)
    outs = bc.broadcast_outputs((1.0, 0.0), 1 / 6)
    assert measures.ppt_verdict(outs["AB'"]).verdict == "Separable"
    assert measures.ppt_verdict(outs["A'B"]).verdict == "Separable"
    assert measures.ppt_verdict(outs["AA'"]).verdict == "Inseparable"
    assert abs(measures.concurrence_2q(outs["AA'"]) - 1 / 3) < 1e-9


def test_intervals_closed_forms():
    iv = bc.insep_interval(1 / 6)
    assert abs(iv.lo - (0.5 - math.sqrt(39) / 16)) < 1e-12
    assert abs(iv.hi - (0.5 + math.sqrt(39) / 16)) < 1e-12
    sv = bc.sep_interval(1 / 6)
    assert abs(sv.lo - (0.5 - math.sqrt(48) / 16)) < 1e-12
    assert abs(sv.hi - (0.5 + math.sqrt(48) / 16)) < 1e-12
    common = bc.broadcast_interval(1 / 6)
    assert abs(common.lo - iv.lo) < 1e-12 and abs(common.hi - iv.hi) < 1e-12
    with pytest.raises(ValueError):
        bc.sep_interval(0.3)
    with pytest.raises(ValueError):
        bc.insep_interval(0.25)


def test_intervals_by_bisection():
    for lam in (0.007, 0.141, 1 / 6):
        iv = bc.insep_interval(lam)
        ib = bc.interval_by_bisection(lam, "insep")
        assert abs(iv.lo - ib.lo) < 1e-6 and abs(iv.hi - ib.hi) < 1e-6
        sv = bc.sep_interval(lam)
        sb = bc.interval_by_bisection(lam, "sep")
        assert abs(sv.lo - sb.lo) < 1e-6 and abs(sv.hi - sb.hi) < 1e-6
    with pytest.raises(ValueError):
        bc.interval_by_bisection(0.1, "bogus")


def test_broadcast_fidelity():
    # the universal special case
    for a2 in (0.1, 0.5, 0.9):
        got = bc.broadcast_fidelity(a2, 1 / 6)
        assert abs(got - (25 / 36 - 4 * a2 * (1 - a2) / 9)) < 1e-12
    assert abs(bc.avg_broadcast_fidelity(1 / 6) - 67 / 108) < 1e-12
    # the fidelity is the overlap of the nonlocal output with the input
    for lam in (0.05, 0.141, 1 / 6):
        for a2 in (0.2, 0.7):
            a1, b1 = math.sqrt(a2), math.sqrt(1 - a2)
            psi = bc.input_ket((a1, b1))
            mats = bc.broadcast_output_matrices((a1, b1), lam)
            got = float(np.real(psi.amps.conj() @ mats["AB'"] @ psi.amps))
            assert abs(got - bc.broadcast_fidelity(a2, lam)) < 1e-12
    # the plus-sign variant differs away from the endpoints
    assert bc.broadcast_fidelity(0.5, 0.141, sign=+1) > bc.broadcast_fidelity(0.5, 0.141)
    for a2, lam in ((1.3, 0.1), (-0.1, 0.1), (0.5, 0.6)):
        with pytest.raises(ValueError):
            bc.broadcast_fidelity(a2, lam)


def test_three_qubit_protocol_closed_forms():
    for a2 in (0.25, 0.62, 0.9):
        a = math.sqrt(a2)
        out = bc.three_qubit_protocol(a, "Q0Q0")
        assert np.max(np.abs(out.rho_146.mat - bc.rho_146_closed(a).mat)) < 1e-9
        assert np.max(np.abs(out.rho_16.mat - bc.rho_16_closed(a).mat)) < 1e-9
        assert np.max(np.abs(out.rho_14.mat - bc.rho_16_closed(a).mat)) < 1e-9
        assert np.max(np.abs(out.rho_46.mat - bc.rho_46_closed(a).mat)) < 1e-9
        assert np.max(np.abs(out.rho_12.mat - bc.rho_12_closed(a).mat)) < 1e-9
        assert np.max(np.abs(out.rho_15.mat - bc.rho_12_closed(a).mat)) < 1e-9
        # the two three-qubit operators coincide on this branch
        assert np.max(np.abs(out.rho_146.mat - out.rho_325.mat)) < 1e-9
        # branch probability equals the published normalization
        assert abs(out.probability - (3 * a2 + 1) / 9) < 1e-12


def test_branch_probabilities_sum():
    for a2 in (0.3, 0.8):
        total = sum(
            bc.three_qubit_protocol(math.sqrt(a2), b).probability for b in bc.BRANCHES
        )
        assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("lam", [-0.1, float("nan"), 0.5])
@pytest.mark.parametrize("interval", [bc.insep_interval, bc.sep_interval])
def test_interval_lambda_outside_domain(interval, lam):
    with pytest.raises(ValueError, match="lambda must lie in"):
        interval(lam)


def test_protocol_boundaries():
    b16 = bc.ppt_boundary(lambda a2: bc.rho_16_closed(math.sqrt(a2)), 0.05, 0.5)
    assert abs(b16 - 0.18) <= 0.01
    b46 = bc.ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.3, 0.95)
    assert abs(b46 - 0.61) <= 0.01
    b12 = bc.ppt_boundary(
        lambda a2: bc.rho_12_closed(math.sqrt(a2)), 0.05, 0.9, entangled_above=False
    )
    assert abs(b12 - 0.27) <= 0.01
    # rho_46 is entangled above its boundary, so the opposite orientation and
    # a bracket without a boundary are both rejected
    with pytest.raises(ValueError):
        bc.ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.3, 0.95, False)
    with pytest.raises(ValueError):
        bc.ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.7, 0.95)


def _simulated(branch, op):
    return lambda a2: getattr(bc.three_qubit_protocol(math.sqrt(a2), branch), op)


@pytest.mark.parametrize(
    "branch, op, lo, hi, entangled_above, printed",
    [
        ("Q1Q1", "rho_46", 0.2, 0.6, False, 0.38),
        ("Q1Q1", "rho_12", 0.5, 0.9, True, 0.73),
        ("Q0Q1", "rho_12", 0.4, 0.8, False, 0.6),
        ("Q1Q0", "rho_12", 0.2, 0.6, True, 0.4),
        ("Q1Q0", "rho_25", 0.02, 0.3, False, 0.14),
    ],
)
def test_branch_boundary_values(branch, op, lo, hi, entangled_above, printed):
    # test oracle: bisect the PPT boundary of the simulated pair operator
    found = bc.ppt_boundary(_simulated(branch, op), lo, hi, entangled_above)
    assert abs(found - printed) <= 0.01
    exact = bc.PROTOCOL_BOUNDARIES[branch, op]
    assert abs(found - exact.alpha2) <= 1e-4
    assert exact.entangled_above == entangled_above


EXACT_BOUNDARIES = {
    "Q0Q0": (9 / 49, 9 / 49, bc.X0, bc.X0, 3 / 11, 3 / 11),
    "Q0Q1": (1 / 3, 1 / 3, 1 - math.sqrt(3) / 2, math.sqrt(3) / 2, 3 / 5, 3 / 5),
    "Q1Q0": (2 / 3, 2 / 3, math.sqrt(3) / 2, 1 - math.sqrt(3) / 2, 2 / 5, 2 / 5),
    "Q1Q1": (40 / 49, 40 / 49, 1 - bc.X0, 1 - bc.X0, 8 / 11, 8 / 11),
}
PAIRS = ("rho_16", "rho_14", "rho_46", "rho_25", "rho_12", "rho_15")
MIRROR = {"Q0Q0": "Q1Q1", "Q0Q1": "Q1Q0", "Q1Q0": "Q0Q1", "Q1Q1": "Q0Q0"}


def test_boundary_table_values():
    assert abs(37 * bc.X0**2 - 18 * bc.X0 - 3) < 1e-14
    assert len(bc.PROTOCOL_BOUNDARIES) == 24
    for branch, row in EXACT_BOUNDARIES.items():
        for op, x in zip(PAIRS, row):
            assert abs(bc.PROTOCOL_BOUNDARIES[branch, op].alpha2 - x) < 1e-15


@pytest.mark.parametrize("branch, op", sorted(bc.PROTOCOL_BOUNDARIES))
def test_boundary_is_a_simulated_sign_change(branch, op):
    # the six-qubit simulation switches between PPT and NPT within
    # CERTIFY_OFFSET of the exact value, toward the table's entangled side
    x, entangled_above = bc.PROTOCOL_BOUNDARIES[branch, op]
    d = bc.CERTIFY_OFFSET
    below, above = (_simulated(branch, op)(x + s * d).mat for s in (-1, 1))
    ent, sep = (above, below) if entangled_above else (below, above)
    assert measures.min_pt_eigenvalue(sep) > 0 > measures.min_pt_eigenvalue(ent)
    assert measures.is_npt(ent) and not measures.is_npt(sep)
    assert bc.certify_boundary(branch, op)


def test_certify_boundary_rejects_a_wrong_entry(monkeypatch):
    def closed(a2):
        return bc.rho_46_closed(math.sqrt(a2))

    x, up = bc.PROTOCOL_BOUNDARIES["Q0Q0", "rho_46"]
    assert bc.certify_boundary("Q0Q0", "rho_46", closed)
    for wrong in (bc.Boundary(x + 1e-3, up), bc.Boundary(x - 1e-3, up), bc.Boundary(x, not up)):
        monkeypatch.setitem(bc.PROTOCOL_BOUNDARIES, ("Q0Q0", "rho_46"), wrong)
        assert not bc.certify_boundary("Q0Q0", "rho_46")
        assert not bc.certify_boundary("Q0Q0", "rho_46", closed)


@pytest.mark.parametrize("branch, op", sorted(bc.PROTOCOL_BOUNDARIES))
def test_boundary_mirror(branch, op):
    # alpha^2 -> 1 - alpha^2 with Q0Q0 <-> Q1Q1 and Q0Q1 <-> Q1Q0 maps each
    # boundary onto its mirror and swaps the entangled side ...
    x, up = bc.PROTOCOL_BOUNDARIES[branch, op]
    mx, mup = bc.PROTOCOL_BOUNDARIES[MIRROR[branch], op]
    assert abs(mx - (1 - x)) < 1e-15 and mup == (not up)
    # ... because the simulated operators are mirror images (flipping every
    # qubit is a local unitary, so the partial-transpose spectrum is kept)
    for a2 in (x - 0.05, x, x + 0.05):
        if 0 < a2 < 1:
            ev = np.linalg.eigvalsh(partial_transpose(_simulated(branch, op)(a2).mat, (2, 2), (1,)))
            mirrored = _simulated(MIRROR[branch], op)(1 - a2).mat
            mev = np.linalg.eigvalsh(partial_transpose(mirrored, (2, 2), (1,)))
            assert np.max(np.abs(ev - mev)) < 1e-12


def test_branch_mirror_symmetry():
    # flipping every bit and alpha^2 -> 1 - alpha^2 exchanges the branches
    for a2 in (0.3, 0.7):
        q01 = bc.three_qubit_protocol(math.sqrt(a2), "Q0Q1")
        q10 = bc.three_qubit_protocol(math.sqrt(1 - a2), "Q1Q0")
        c1 = measures.concurrence_2q(q01.rho_16)
        c2 = measures.concurrence_2q(q10.rho_16)
        assert abs(c1 - c2) < 1e-9


def test_broadcastable_ranges():
    assert bc.branch_broadcastable(0.7, "Q0Q0")
    assert not bc.branch_broadcastable(0.5, "Q0Q0")
    assert bc.branch_broadcastable(0.3, "Q1Q1")
    assert not bc.branch_broadcastable(0.5, "Q1Q1")
    assert bc.branch_range("Q0Q0") == bc.Interval(bc.X0, 1.0, "Broadcastable")
    assert bc.branch_range("Q0Q1") is None
    assert bc.branch_range("Q1Q0") is None
    assert bc.branch_range("Q1Q1") == bc.Interval(0.0, 1 - bc.X0, "Broadcastable")
    # the simulated predicate holds just inside each range and fails outside
    spots = (("Q0Q0", (0.62, 0.99), (0.61,)), ("Q1Q1", (0.01, 0.38), (0.39,)))
    for branch, inside, outside in spots:
        assert all(bc.branch_broadcastable(a2, branch) for a2 in inside)
        assert not any(bc.branch_broadcastable(a2, branch) for a2 in outside)
    for branch in ("Q0Q1", "Q1Q0"):
        assert not any(bc.branch_broadcastable(a2, branch) for a2 in np.linspace(0.05, 0.95, 7))
    # the readings under which the printed asymmetric ranges hold
    q01 = bc.branch_range("Q0Q1", ("rho_16", "rho_14"), ("rho_12", "rho_15"))
    q10 = bc.branch_range("Q1Q0", ("rho_16", "rho_14"), ("rho_12", "rho_15", "rho_25"))
    assert (q01.lo, q01.hi) == (3 / 5, 1.0)
    assert (q10.lo, q10.hi) == (1 - math.sqrt(3) / 2, 2 / 5)
    with pytest.raises(ValueError, match="no protocol boundary"):
        bc.branch_range("Q2Q0")
    with pytest.raises(ValueError, match="no protocol boundary"):
        bc.protocol_boundary("Q0Q0", "rho_146")


@pytest.mark.parametrize(
    "alpha", [2.0, -1.5, 1.0000001, 1 + 1j, float("nan"), float("inf"), complex("nan")]
)
@pytest.mark.parametrize(
    "fn",
    [
        lambda alpha: bc.three_qubit_protocol(alpha, "Q0Q0"),
        bc.rho_146_closed,
        bc.rho_16_closed,
        bc.rho_46_closed,
        bc.rho_12_closed,
    ],
    ids=["three_qubit_protocol", "rho_146_closed", "rho_16_closed", "rho_46_closed", "rho_12_closed"],
)
def test_three_qubit_protocol_rejects_out_of_domain_alpha(fn, alpha):
    with pytest.raises(ValueError, match=r"\|alpha\|\^2 must be finite and lie in \[0, 1\]"):
        fn(alpha)


def test_three_qubit_protocol_domain_ends():
    for alpha, branch in ((1.0, "Q0Q0"), (0.0, "Q1Q1"), (-1j, "Q0Q0")):
        out = bc.three_qubit_protocol(alpha, branch)
        assert 0.0 < out.probability <= 1.0


def test_swap_extend_recovers_state():
    out = bc.three_qubit_protocol(math.sqrt(0.8), "Q0Q0")
    target = bc.relabel_325_to_357(out.rho_325)
    total = 0.0
    for outcome in ("B1+", "B1-", "B2+", "B2-"):
        p, rho = bc.swap_extend(out.rho_325, outcome)
        total += p
        assert np.max(np.abs(rho.mat - target.mat)) < 1e-9
        assert abs(p - 0.25) < 1e-12
    assert abs(total - 1.0) < 1e-12
    with pytest.raises(ValueError):
        bc.swap_extend(out.rho_325, "B5")


def test_swap_extend_pure_toy_case():
    # phi+ on (3,2) with a spectator |0> on 5 reduces to plain swapping
    phi = bell_state("phi+")
    rho32 = np.outer(phi, phi.conj())
    rho = DensityOperator((2, 2, 2), np.kron(rho32, np.diag([1.0, 0.0])))
    for outcome in ("B1+", "B2-"):
        p, rho357 = bc.swap_extend(rho, outcome)
        rho37 = partial_trace(rho357, [0, 2])
        assert abs(measures.concurrence_2q(rho37) - 1) < 1e-9


def test_swap_outcome_probabilities_uniform():
    # the appended singlet makes every Bell outcome equally likely for any
    # input (the measured pair always has a maximally mixed half)
    rho = DensityOperator((2, 2, 2), np.diag([1.0] + [0.0] * 7))
    for outcome in ("B1+", "B1-", "B2+", "B2-"):
        p, post = bc.swap_extend(rho, outcome)
        assert abs(p - 0.25) < 1e-12
        assert post is not None
