import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclone import broadcast as bc
from qclone import measures, tables
from qclone.qcore import DensityOperator, bell_state, partial_trace, partial_transpose
from qclone.qcore import ket
from families import within


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


def _scalar_bisect(flag, lo, hi, tol):
    # reference: one bracket at a time, as the oracle bisected before the
    # lockstep loop
    while abs(hi - lo) > tol:
        mid = (lo + hi) / 2
        if flag(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def ppt_boundary(fn, lo, hi, entangled_above=True):
    """Test oracle: bisect alpha^2 in (lo, hi) for the boundary above which
    the two-qubit operator fn(alpha^2) is entangled (or separable, if not
    entangled_above)."""

    def flag(a2):
        return measures.is_npt(fn(a2).mat) == entangled_above

    if flag(lo) or not flag(hi):
        raise ValueError(f"no boundary in ({lo}, {hi}) with entangled_above={entangled_above}")
    return _scalar_bisect(flag, lo, hi, bc.BISECT_TOL)


def _scalar_interval(lmbda, which):
    key = "AB'" if which == "insep" else "AA'"

    def predicate(alpha2):
        mats = bc.broadcast_output_matrices((math.sqrt(alpha2), math.sqrt(1 - alpha2)), lmbda)
        return measures.is_npt(mats[key]) == (which == "insep")

    if not predicate(0.5):
        raise ValueError("no interval")
    lo = 0.0 if predicate(0.0) else _scalar_bisect(predicate, 0.0, 0.5, bc.BISECT_TOL)
    hi = 1.0 if predicate(1.0) else _scalar_bisect(predicate, 1.0, 0.5, bc.BISECT_TOL)
    return bc.Interval(lo, hi, "Inseparable" if which == "insep" else "Separable")


@pytest.mark.parametrize("which", ["insep", "sep"])
def test_lockstep_bisection_equals_scalar_bisection(which):
    lams = list(tables._T32_PRINTED)
    assert bc.intervals_by_bisection(lams, which) == [_scalar_interval(lam, which) for lam in lams]
    assert bc.interval_by_bisection(1 / 6, which) == _scalar_interval(1 / 6, which)
    assert bc.intervals_by_bisection([], which) == []


@pytest.mark.parametrize("lam", [0, 0.007, 0.05, 1 / 6, 0.2, 0.24, 0.25, 0.3, 0.4, 0.45])
@pytest.mark.parametrize("which", ["insep", "sep"])
def test_interval_by_bisection_matches_scalar_or_raises_alike(lam, which):
    try:
        expected = _scalar_interval(lam, which)
    except ValueError:
        with pytest.raises(ValueError):
            bc.interval_by_bisection(lam, which)
    else:
        assert bc.interval_by_bisection(lam, which) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(within(bc.INTERVAL_LAMBDA), max_size=6),
    st.sampled_from(["insep", "sep"]),
)
def test_intervals_by_bisection_equal_scalar_bisections_or_raise_alike(lams, which):
    try:
        expected = [_scalar_interval(lam, which) for lam in lams]
    except ValueError:
        with pytest.raises(ValueError, match="no interval"):
            bc.intervals_by_bisection(lams, which)
    else:
        assert bc.intervals_by_bisection(lams, which) == expected


@pytest.mark.parametrize("lams", [[1 / 6], list(tables._T32_PRINTED)], ids=["one", "nine"])
@pytest.mark.parametrize("which", ["insep", "sep"])
def test_intervals_by_bisection_take_five_stacked_ppt_tests(monkeypatch, lams, which):
    # the midpoint and both ends in one test, then ceil(19 / SECTION) tests
    # for the 19 halvings of a bracket of width 1/2 down to BISECT_TOL
    calls = []

    def counting(mat, *args):
        calls.append(mat)
        return measures.is_npt(mat, *args)

    monkeypatch.setattr(bc, "is_npt", counting)
    bc.intervals_by_bisection(lams, which)
    assert 1 <= len(calls) <= 5


def test_interval_error_names_the_lambda():
    with pytest.raises(ValueError, match="at lambda = 0.3;"):
        bc.intervals_by_bisection([0.1, 0.3], "insep")
    with pytest.raises(ValueError, match="lambda must lie in"):
        bc.intervals_by_bisection([0.1, 0.5], "sep")


def test_ppt_boundary_values_are_unchanged():
    # the values the scalar bisection loop gave, to the last bit
    b16 = ppt_boundary(lambda a2: bc.rho_16_closed(math.sqrt(a2)), 0.05, 0.5)
    b46 = ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.3, 0.95)
    b12 = ppt_boundary(lambda a2: bc.rho_12_closed(math.sqrt(a2)), 0.05, 0.9, False)
    assert (b16, b46, b12) == (0.18367314338684082, 0.617740797996521, 0.2727272272109985)
    assert all(type(b) is float for b in (b16, b46, b12))


def _copy_maps_built_per_call(amplitudes, lmbda):
    # reference: the single-copy and copy-pair maps with every operator
    # built inside the call
    psi = bc.input_ket(amplitudes)
    mu = 1 - 2 * lmbda

    def chan(x):
        return mu * x + lmbda * np.trace(x) * np.eye(2)

    ab = np.zeros((4, 4), dtype=complex)
    rows = psi.amps.reshape(2, 2)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            ab += np.kron(chan(eij), chan(np.outer(rows[i], rows[j].conj())))
    s = np.kron(ket(0), ket(1)) + np.kron(ket(1), ket(0))
    ss = np.outer(s, s.conj())
    e00 = np.outer(np.kron(ket(0), ket(0)), np.kron(ket(0), ket(0)).conj())
    e11 = np.outer(np.kron(ket(1), ket(1)), np.kron(ket(1), ket(1)).conj())
    cross01 = (mu / 2) * (
        np.outer(np.kron(ket(0), ket(0)), s.conj()) + np.outer(s, np.kron(ket(1), ket(1)).conj())
    )
    blocks = {
        (0, 0): mu * e00 + lmbda * ss,
        (1, 1): mu * e11 + lmbda * ss,
        (0, 1): cross01,
        (1, 0): cross01.conj().T,
    }

    def pair(x):
        out = np.zeros((4, 4), dtype=complex)
        for (i, j), block in blocks.items():
            out += x[i, j] * block
        return out

    rho_a = partial_trace(psi, [0]).mat
    rho_b = partial_trace(psi, [1]).mat
    return {"AB'": ab, "A'B": ab, "AA'": pair(rho_a), "BB'": pair(rho_b)}


def test_copy_map_constants_are_read_only_and_change_no_bit():
    for const in (bc._SS, bc._E00, bc._E11, bc._CROSS, bc._UNITS):
        with pytest.raises(ValueError):
            const[(0,) * const.ndim] = 1.0
    for k in range(60):
        v = RNG.normal(size=2 if k % 2 else 4)
        v /= np.linalg.norm(v)
        lam = float(RNG.uniform(0, 0.5))
        got = bc.broadcast_channel_matrices(v, lam)
        want = _copy_maps_built_per_call(v, lam)
        assert all(got[key].tobytes() == want[key].tobytes() for key in want)


_AMPLITUDES = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n) for n in (2, 4)
).filter(lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=200, deadline=None)
@given(amps=_AMPLITUDES, lam=within(bc.COPIER_LAMBDA))
@example(amps=[0.6, 0.8], lam=0.0)
@example(amps=[0.6, 0.8], lam=0.5)
@example(amps=[0.5, 0.5, -0.5, 0.5], lam=0.0)
@example(amps=[0.5, 0.5, -0.5, 0.5], lam=0.5)
def test_channel_matrices_match_the_block_by_block_kron_sum(amps, lam):
    v = np.asarray(amps) / np.linalg.norm(amps)
    got = bc.broadcast_channel_matrices(v, lam)
    want = _copy_maps_built_per_call(v, lam)
    assert got.keys() == want.keys()
    for key in want:
        assert np.max(np.abs(got[key] - want[key])) <= 1e-15, key


@pytest.mark.parametrize(
    "bad, message",
    [(np.array([0.6, 0.7]), "state vector is not normalized"), (np.array([math.nan, 0.8]), "amplitudes must be finite")],
    ids=["unnormalized", "nan"],
)
@pytest.mark.parametrize(
    "fn",
    [
        bc.input_amps,
        lambda amps: bc.broadcast_output_matrices(amps, 0.2),
        lambda amps: bc.broadcast_channel_matrices(amps, 0.2),
        lambda amps: bc.broadcast_machine_matrices(amps, 0.2),
        lambda amps: bc.nonlocal_coefficients(amps, 0.2),
    ],
    ids=[
        "input_amps",
        "broadcast_output_matrices",
        "broadcast_channel_matrices",
        "broadcast_machine_matrices",
        "nonlocal_coefficients",
    ],
)
def test_a_stack_with_one_bad_row_is_rejected(fn, bad, message):
    good = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]])
    for stack in (np.vstack([good, bad]), np.vstack([bad, good])):
        with pytest.raises(ValueError, match=message):
            fn(stack)
        with pytest.raises(ValueError, match=message):
            fn(np.hstack([stack, np.zeros((4, 2))]))
    for shape in ((3, 3), (0, 2)):
        with pytest.raises(ValueError, match=r"need \(alpha1, beta1\)"):
            fn(np.ones(shape) / math.sqrt(3))


def test_the_operator_forms_take_one_input():
    v = np.array([[0.6, 0.0, 0.0, 0.8]] * 2)
    for fn in (bc.broadcast_outputs, bc.broadcast_outputs_machine):
        with pytest.raises(ValueError, match="need one input, not a stack"):
            fn(v, 0.2)


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
    b16 = ppt_boundary(lambda a2: bc.rho_16_closed(math.sqrt(a2)), 0.05, 0.5)
    assert abs(b16 - 0.18) <= 0.01
    b46 = ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.3, 0.95)
    assert abs(b46 - 0.61) <= 0.01
    b12 = ppt_boundary(
        lambda a2: bc.rho_12_closed(math.sqrt(a2)), 0.05, 0.9, entangled_above=False
    )
    assert abs(b12 - 0.27) <= 0.01
    # rho_46 is entangled above its boundary, so the opposite orientation and
    # a bracket without a boundary are both rejected
    with pytest.raises(ValueError):
        ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.3, 0.95, False)
    with pytest.raises(ValueError):
        ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.7, 0.95)


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
    found = ppt_boundary(_simulated(branch, op), lo, hi, entangled_above)
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


def _rho_146_reference(alpha):
    """rho_146 by Kronecker kets and outer products built per call, term by
    term: the form the constant operators must reproduce bit for bit."""
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2
    beta2 = 1 - a2
    beta = math.sqrt(beta2)
    psi = bell_state("psi+")
    z = np.kron(ket(0), np.kron(ket(0), ket(0)))
    o = np.kron(ket(1), np.kron(ket(1), ket(1)))
    zpsi, opsi = np.kron(ket(0), psi), np.kron(ket(1), psi)
    z11 = np.kron(ket(0), np.kron(ket(1), ket(1)))
    o00 = np.kron(ket(1), np.kron(ket(0), ket(0)))
    m = np.zeros((8, 8), dtype=complex)
    m += (4 * a2 / 9) * ((2 / 3) * np.outer(z, z) + (1 / 3) * np.outer(zpsi, zpsi))
    ab = alpha * np.conj(beta)
    m += (np.conj(ab) / 9) * (math.sqrt(2) / 3) * (np.outer(z, opsi) + np.outer(zpsi, o))
    m += (ab / 9) * (math.sqrt(2) / 3) * (np.outer(o, zpsi) + np.outer(opsi, z))
    for v in (z11, zpsi, z, o, opsi, o00):
        m += (beta2 / 36) * (2 / 3) * np.outer(v, v)
    return m / ((3 * a2 + 1) / 9)


@pytest.mark.parametrize("alpha", [0, 0.3, 0.6 + 0.2j, 1j, 1])
def test_rho_146_closed_equals_per_call_construction(alpha):
    assert np.array_equal(bc.rho_146_closed(alpha).mat, _rho_146_reference(alpha))


def _rho_146_first(alpha):
    """rho_146 as its constant-operator form first built it: the four
    alpha-independent operators, built here, weighted and summed in numpy."""
    z = np.kron(ket(0), np.kron(ket(0), ket(0)))
    o = np.kron(ket(1), np.kron(ket(1), ket(1)))
    zpsi, opsi = np.kron(ket(0), bell_state("psi+")), np.kron(ket(1), bell_state("psi+"))
    z11 = np.kron(ket(0), np.kron(ket(1), ket(1)))
    o00 = np.kron(ket(1), np.kron(ket(0), ket(0)))
    a2_term = (2 / 3) * np.outer(z, z) + (1 / 3) * np.outer(zpsi, zpsi)
    up, down = np.outer(z, opsi) + np.outer(zpsi, o), np.outer(o, zpsi) + np.outer(opsi, z)
    b2_term = sum(np.outer(v, v) for v in (z11, zpsi, z, o, opsi, o00))
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2
    beta2 = 1 - a2
    beta = math.sqrt(beta2)
    norm = (3 * a2 + 1) / 9
    ab = alpha * np.conj(beta)
    m = (4 * a2 / 9) * a2_term
    m += (np.conj(ab) / 9) * (math.sqrt(2) / 3) * up
    m += (ab / 9) * (math.sqrt(2) / 3) * down
    m += (beta2 / 36) * (2 / 3) * b2_term
    return m / norm


def _pair_operators_first(alpha):
    """rho_16, rho_46 and rho_12 as first built: numpy matrices filled entry
    by entry, with the identity or the {|01>, |10>} block added as arrays,
    and divided by norm in numpy."""
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2
    b2 = 1 - a2
    beta = math.sqrt(b2)
    norm = (3 * a2 + 1) / 9
    m16 = np.zeros((4, 4), dtype=complex)
    m16[0, 0] = (4 * a2 / 9) * (5 / 6)
    m16[1, 1] = (4 * a2 / 9) * (1 / 6)
    m16[0, 3] = 2 * alpha * beta / 27
    m16[3, 0] = np.conj(m16[0, 3])
    m16 += (1 - a2) / 36 * np.eye(4)
    s = np.zeros((4, 4))
    s[1:3, 1:3] = 1.0
    m46 = np.zeros((4, 4), dtype=complex)
    m46[0, 0] += (4 * a2 / 9) * (2 / 3) + (b2 / 36) * (4 / 3)
    m46[3, 3] += (b2 / 36) * (4 / 3)
    m46 += ((4 * a2 / 9) * (1 / 6) + (b2 / 36) * (2 / 3)) * s
    m12 = np.zeros((4, 4), dtype=complex)
    m12[0, 0] = (4 * a2 / 9) * (5 / 6) + (b2 / 36) * (1 / 3)
    m12[1, 1] = (4 * a2 / 9) * (1 / 6) + (b2 / 36) * (5 / 3)
    m12[2, 2] = (b2 / 36) * (5 / 3)
    m12[3, 3] = (b2 / 36) * (1 / 3)
    m12[1, 2] = m12[2, 1] = (b2 / 36) * (4 / 3)
    return {"rho_16": m16 / norm, "rho_46": m46 / norm, "rho_12": m12 / norm}


def _bit_alphas():
    """The ends and signed zeros of the alpha domain, and fresh complex alphas."""
    rng = np.random.default_rng(146)
    fresh = np.sqrt(rng.uniform(0, 1, 300)) * np.exp(2j * math.pi * rng.uniform(0, 1, 300))
    edges = [0, 1, -1, 1j, -1j, -0.6, 0.6, complex(0.6, -0.0), complex(-0.0, 0.6), complex(-0.6, -0.0)]
    return edges + fresh.tolist() + fresh.real.tolist()


def test_the_closed_form_protocol_operators_keep_their_bits():
    """The oracles run on the numpy at hand, so the bits are those that
    numpy gives the first construction."""
    for alpha in _bit_alphas():
        assert bc.rho_146_closed(alpha).mat.tobytes() == _rho_146_first(alpha).tobytes(), alpha
        for name, m in _pair_operators_first(alpha).items():
            assert getattr(bc, name + "_closed")(alpha).mat.tobytes() == m.tobytes(), (name, alpha)


def _broadcast_first(amplitudes, lmbda):
    """The AB', AA' and BB' matrices as first built: the C and K coefficients
    in numpy float64 scalars, assembled one by one."""
    a = bc._coerce_input(amplitudes)  # (4,): *a gives numpy scalars
    return (
        bc._assemble(bc._nonlocal_terms(*a, lmbda), "C"),
        bc._assemble(bc._local_terms(*a, lmbda, "A"), "K"),
        bc._assemble(bc._local_terms(*a, lmbda, "B"), "K"),
    )


def test_the_broadcast_outputs_keep_their_bits():
    rng = np.random.default_rng(30)
    cases = [((0.6, 0.8), 0.0), ((0.6, -0.8), 0.5), ((1.0, 0.0), 0.05), ((0.0, -1.0, 0.0, 0.0), 0.2)]
    for _ in range(200):
        t = rng.uniform(0, 2 * math.pi)
        pair = (math.cos(t), math.sin(t))
        cases += [(pair, rng.uniform(0, 0.5)), (pair + (0.0, 0.0), rng.uniform(0, 0.5))]
        v = rng.normal(size=4)
        cases.append((v / np.linalg.norm(v), rng.uniform(1 / 6, 0.5)))
    for amps, lam in cases:
        first = _broadcast_first(amps, lam)
        ops = bc.broadcast_outputs(amps, lam)
        mats = bc.broadcast_output_matrices(amps, lam)
        for got in (ops, mats):
            got = [getattr(got[key], "mat", got[key]) for key in ("AB'", "A'B", "AA'", "BB'")]
            assert [m.tobytes() for m in got] == [m.tobytes() for m in (first[0],) + first], (amps, lam)


@pytest.mark.parametrize(
    "fn",
    [
        bc.input_amps,
        bc.input_ket,
        lambda k: bc.broadcast_outputs(k, 0.2),
        lambda k: bc.broadcast_output_matrices(k, 0.2),
        lambda k: bc.nonlocal_coefficients(k, 0.2),
    ],
    ids=["input_amps", "input_ket", "broadcast_outputs", "broadcast_output_matrices", "nonlocal_coefficients"],
)
def test_complex_amplitudes_are_rejected_not_cast(fn):
    """A cast to float would drop 0.05j and pass 0.6|00> + 0.8|11>, although
    |psi|^2 = 1.0025; a complex array with zero imaginary parts is real."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning either
        for bad in (np.array([0.6, 0.8 + 0.05j]), [0.6, 0.8 + 0.05j], np.array([[0.6, 0.8], [0.6, 0.8 + 0.05j]])):
            with pytest.raises(ValueError, match="^amplitudes must be real$"):
                fn(bad)
        fn(np.array([0.6 + 0j, 0.8 + 0j]))
    assert np.array_equal(bc.input_amps(np.array([0.6 + 0j, 0.8])), bc.input_amps([0.6, 0.8]))


def test_rho_146_constant_operators_are_read_only():
    for term in (bc._RHO_146_A2, bc._RHO_146_UP, bc._RHO_146_DOWN, bc._RHO_146_B2):
        with pytest.raises(ValueError):
            term[0, 0] = 1.0


def test_broadcast_outputs_share_the_nonlocal_operator():
    outs = bc.broadcast_outputs((math.sqrt(0.3), math.sqrt(0.7)), 0.2)
    assert list(outs) == ["AB'", "A'B", "AA'", "BB'"]
    assert outs["AB'"] is outs["A'B"]


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
    with pytest.raises(ValueError, match=r"\|alpha\|\^2 must lie in \[0, 1\], got "):
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


@pytest.mark.parametrize(
    "fn",
    [
        lambda amps: bc.broadcast_output_matrices(amps, 0.2),
        lambda amps: bc.nonlocal_coefficients(amps, 0.2),
        lambda amps: bc.local_coefficients(amps, 0.2),
        lambda amps: bc.input_ket(amps),
    ],
    ids=["broadcast_output_matrices", "nonlocal_coefficients", "local_coefficients", "input_ket"],
)
def test_closed_forms_reject_nan_amplitudes(fn):
    for amps in ([math.nan, 0.5], [0.6, 0.0, math.nan, 0.8], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            fn(amps)


def test_avg_broadcast_fidelity_rejects_lambda_outside_its_domain():
    for lam in (3.0, -0.1, 0.5 + 1e-9, math.nan):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1/2\]"):
            bc.avg_broadcast_fidelity(lam)
    # the domain ends are kept, as in broadcast_fidelity
    assert bc.avg_broadcast_fidelity(0.0) == 1.0
    assert bc.avg_broadcast_fidelity(0.5) == 0.25


def test_interval_rejects_nan_ends():
    for lo, hi in ((math.nan, 0.5), (0.2, math.nan), (math.nan, math.nan), (0.6, 0.5)):
        with pytest.raises(ValueError, match="empty interval"):
            bc.Interval(lo, hi, "Broadcastable")
    assert bc.Interval(0.5, 0.5, "Broadcastable").contains(0.5)


def test_channel_matrices_reject_lambda_outside_the_copier_domain():
    # outside [0, 1/2] the copy maps are not positive: lambda = 3 gives AA' an eigenvalue of -5
    amps = [0.6, 0.0, 0.0, 0.8]
    for lam in (math.nan, 3.0, -0.1):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1/2\]"):
            bc.broadcast_channel_matrices(amps, lam)
    # both ends of the machine's domain are kept, as in broadcast_outputs_machine
    for lam in (0.0, 0.5):
        mats = bc.broadcast_channel_matrices(amps, lam)
        assert all(abs(np.trace(m) - 1) < 1e-12 for m in mats.values())


def test_closed_form_outputs_take_the_copier_domain():
    # lambda = 1/2 is the copier's end, not only the intervals' open end
    amps = [0.6, 0.0, 0.0, 0.8]
    closed = bc.broadcast_output_matrices(amps, 0.5)
    checked = bc.broadcast_outputs(amps, 0.5)
    channel = bc.broadcast_channel_matrices(amps, 0.5)
    machine = bc.broadcast_outputs_machine(amps, 0.5)
    for name in ("AB'", "A'B", "AA'", "BB'"):
        assert np.max(np.abs(closed[name] - channel[name])) <= 1e-12, name
        assert np.max(np.abs(closed[name] - machine[name].mat)) <= 1e-12, name
        assert np.array_equal(checked[name].mat, closed[name]), name
    for lam in (math.nan, -0.1, 0.51):
        for fn in (bc.broadcast_output_matrices, bc.broadcast_outputs):
            with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1/2\]"):
                fn(amps, lam)
