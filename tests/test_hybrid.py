import math

import numpy as np
import pytest

from qclone import hybrid, tables
from qclone.cloners import MachineSpec
from qclone.hybrid import HybridSpec, hybrid_machine
from qclone.measures import overlap
from qclone.qcore import StateVector, apply_isometry, partial_trace


RNG = np.random.default_rng(31)


def rand_ket():
    v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    return v / np.linalg.norm(v)


def reduced_fidelities(spec, psi):
    machine = hybrid_machine(spec)
    rho = apply_isometry(machine, psi).density()
    return (
        overlap(psi, partial_trace(rho, [0])),
        overlap(psi, partial_trace(rho, [1])),
    )


def test_hybrid_machine_is_isometry_and_convex():
    m1 = MachineSpec("pauli-asym", (0.2,))
    m2 = MachineSpec("bh-opt")
    for lam in (0.0, 0.35, 1.0):
        spec = HybridSpec(m1, m2, lam)
        machine = hybrid_machine(spec)
        assert machine.isometry_defect() < 1e-9
        psi = StateVector((2,), rand_ket())
        from qclone.cloners import build_machine

        rho = apply_isometry(machine, psi).density()
        clones = partial_trace(rho, [0, 1]).mat
        out1 = apply_isometry(build_machine(m1), psi).density()
        out2 = apply_isometry(build_machine(m2), psi).density()
        mix = lam * partial_trace(out1, [0, 1]).mat + (1 - lam) * partial_trace(out2, [0, 1]).mat
        assert np.max(np.abs(clones - mix)) < 1e-9


def test_hybrid_endpoints():
    psi = StateVector((2,), rand_ket())
    spec = HybridSpec(MachineSpec("pauli-asym", (0.3,)), MachineSpec("bh-opt"), 1.0)
    f1, f2 = reduced_fidelities(spec, psi)
    from qclone.cloners import pauli_fidelities

    ref1, ref2 = pauli_fidelities(0.3)
    assert abs(f1 - ref1) < 1e-9 and abs(f2 - ref2) < 1e-9
    spec = HybridSpec(MachineSpec("pauli-asym", (0.3,)), MachineSpec("bh-opt"), 0.0)
    f1, f2 = reduced_fidelities(spec, psi)
    assert abs(f1 - 5 / 6) < 1e-9 and abs(f2 - 5 / 6) < 1e-9


def test_hybrid_mismatched_components():
    with pytest.raises(ValueError):
        hybrid_machine(HybridSpec(MachineSpec("wz-n", (3,)), MachineSpec("bh-opt"), 0.5))


def test_bh_pauli_closed_vs_simulation():
    for p in (0.1, 0.5, 0.8):
        for lam in (0.2, 0.7):
            spec = HybridSpec(MachineSpec("pauli-asym", (p,)), MachineSpec("bh-opt"), lam)
            f1, f2 = reduced_fidelities(spec, StateVector((2,), rand_ket()))
            c1, c2 = hybrid.bh_pauli_table(p, lam)
            assert abs(f1 - c1) < 1e-9 and abs(f2 - c2) < 1e-9


def test_bh_pauli_table_values():
    assert np.allclose(hybrid.bh_pauli_table(0.5, 0.4), (5 / 6, 5 / 6))
    assert np.allclose(hybrid.bh_pauli_table(0.9, 0.0), (5 / 6, 5 / 6))
    f1, f2 = hybrid.bh_pauli_table(0.1, 0.9)
    assert abs(f1 - 0.58) < 0.01 and abs(f2 - 0.98) < 0.01


def test_mutual_exclusion_grid():
    for p in np.linspace(0, 1, 21):
        for lam in np.linspace(0, 1, 21):
            f1, f2 = hybrid.bh_pauli_table(p, lam)
            assert not (f1 > 5 / 6 + 1e-9 and f2 > 5 / 6 + 1e-9)
            if lam > 1e-12:
                assert (f1 > 5 / 6 + 1e-9) == (p > 0.5)


def test_bh_anti_closed_vs_simulation():
    for lam in (0.0, 0.5, 0.9, 1.0):
        spec = HybridSpec(MachineSpec("bh-opt"), MachineSpec("anti"), lam)
        f_a, f_b = reduced_fidelities(spec, StateVector((2,), rand_ket()))
        c_a, c_b = hybrid.bh_anti_hybrid(lam)
        assert abs(f_a - c_a) < 1e-9 and abs(f_b - c_b) < 1e-9
    assert np.allclose(hybrid.bh_anti_hybrid(0.0), (2 / 3, 1 / 3))
    assert np.allclose(hybrid.bh_anti_hybrid(1.0), (5 / 6, 5 / 6))
    f_a, f_b = hybrid.bh_anti_hybrid(0.5)
    assert abs(f_a - 0.75) < 1e-12 and abs(f_b - 0.58333333) < 1e-7
    # both fidelities increase with lambda
    grid = np.linspace(0, 1, 11)
    fas, fbs = zip(*(hybrid.bh_anti_hybrid(l) for l in grid))
    assert all(b > a for a, b in zip(fas, fas[1:])) and all(b > a for a, b in zip(fbs, fbs[1:]))


def test_bhbh_state_dependent():
    xi, d_min, f, rng = hybrid.bhbh_state_dependent(0.5, 0.8)
    assert abs(d_min - (2 * 0.25 - 4.5 * 0.25**2)) < 1e-12
    assert abs(f - (1 - 0.75 * 0.25)) < 1e-12
    assert abs(round(d_min, 2) - 0.22) < 1e-12
    assert abs(round(f, 2) - 0.81) < 1e-12
    # the distortion evaluated at xi* equals the closed minimum for any
    # admissible lambda
    for a2 in (0.1, 0.3, 0.5):
        for lam in (0.7, 0.9):
            try:
                xi, d_min, f, _ = hybrid.bhbh_state_dependent(a2, lam)
            except ValueError:
                continue
            d_at = hybrid.dab_two_mode(a2, xi, 1 / 6, lam)
            assert abs(d_at - d_min) < 1e-9
            # local minimum in xi
            assert d_at <= hybrid.dab_two_mode(a2, xi + 0.01, 1 / 6, lam) + 1e-12
            assert d_at <= hybrid.dab_two_mode(a2, max(0, xi - 0.01), 1 / 6, lam) + 1e-12
    # the five table 2.2 rows, each inside its admissible range: halfway
    # from its lower end to 1, or at 0.9 where the range is all of (0, 1]
    for row in tables.generate_table("2.2").rows:
        a2, lam_lo = row.inputs["alpha2"], row.outputs["lambda_lo"]
        lam = (lam_lo + 1) / 2 if lam_lo > 0 else 0.9
        xi = hybrid.bhbh_state_dependent(a2, lam)[0]
        d_at = hybrid.dab_two_mode(a2, xi, 1 / 6, lam)
        assert abs(d_at - row.outputs["D_min"]) < 1e-9
        assert abs(hybrid.f_hcm(a2, xi, 1 / 6, lam) - row.outputs["F"]) < 1e-9
        assert d_at <= hybrid.dab_two_mode(a2, xi + 0.01, 1 / 6, lam) + 1e-12
        assert d_at <= hybrid.dab_two_mode(a2, max(0, xi - 0.01), 1 / 6, lam) + 1e-12
    # illustration: alpha^2 = 0.1, lambda = 0.6 -> xi about 0.0014, F = 0.93
    xi, _, f, rng = hybrid.bhbh_state_dependent(0.1, 0.6)
    assert abs(xi - 0.0014) < 1e-4
    assert abs(f - 0.93) < 5e-3
    assert abs(rng[0] - 0.595) < 1e-12
    with pytest.raises(ValueError):
        hybrid.bhbh_state_dependent(0.1, 0.5)  # below the admissible range
    # near alpha^2 = 1/2 the range ends where xi* reaches 1/2, the largest
    # parameter of a copier; below it xi* is returned and lies above 1/2
    xi, _, _, rng = hybrid.bhbh_state_dependent(0.5, 0.0625)
    assert rng == (0.0625, 1.0) and abs(xi - 0.5) < 1e-12
    assert hybrid.bhbh_state_dependent(0.5, 0.05)[0] > 0.5
    # classical inputs are cloned perfectly (admissible only at lambda = 1)
    xi, d_min, f, _ = hybrid.bhbh_state_dependent(0.0, 1.0)
    assert d_min == 0 and f == 1 and xi == 0


def test_four_state_family_invariance():
    # the closed fidelity depends only on alpha^2 beta^2, so the four states
    # alpha|0> +- beta|1>, alpha|1> +- beta|0> share it
    lam = 0.8
    for a2 in (0.2, 0.45):
        xi, _, f, _ = hybrid.bhbh_state_dependent(a2, lam)
        vals = {
            hybrid.f_hcm(a2, xi, 1 / 6, lam),
            hybrid.f_hcm(1 - a2, xi, 1 / 6, lam),
        }
        assert max(vals) - min(vals) < 1e-9
        assert abs(next(iter(vals)) - f) < 1e-9


def test_universal_hybrid():
    lam, f = hybrid.universal_hybrid_lambda(0.1, 0.2)
    assert abs(lam - 1 / 3) < 1e-12
    assert abs(f - 5 / 6) < 1e-12
    # alpha-independence of the joint distortion at the returned lambda
    d_vals = [hybrid.dab_two_mode(a2, 0.1, 0.2, lam) for a2 in np.linspace(0, 1, 9)]
    assert np.ptp(d_vals) < 1e-9
    # finite differences vanish
    h = 1e-5
    grad = (hybrid.dab_two_mode(0.37 + h, 0.1, 0.2, lam) - hybrid.dab_two_mode(0.37, 0.1, 0.2, lam)) / h
    assert abs(grad) < 1e-6
    # fidelity constancy across the input grid
    f_vals = [hybrid.f_hcm(a2, 0.1, 0.2, lam) for a2 in np.linspace(0, 1, 9)]
    assert np.ptp(f_vals) < 1e-9 and abs(f_vals[0] - 5 / 6) < 1e-12
    with pytest.raises(ValueError):
        hybrid.universal_hybrid_lambda(0.2, 0.2)
    with pytest.raises(ValueError):
        hybrid.universal_hybrid_lambda(0.3, 1 / 6)
    with pytest.raises(ValueError):
        hybrid.universal_hybrid_lambda(0.4, 0.3)  # lambda outside (0, 1)


def test_dab_two_mode_reference():
    # at xi = xi' = 1/6 the joint distortion is the universal 2/9 everywhere
    for a2 in (0.0, 0.3, 0.5, 1.0):
        assert abs(hybrid.dab_two_mode(a2, 1 / 6, 1 / 6, 0.4) - 2 / 9) < 1e-12
    # it also matches the direct simulation for the realizable machine
    from qclone.cloners import MachineSpec, clone_report

    for xi in (1 / 6, 0.3):
        for a2 in (0.2, 0.6):
            psi = StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)])
            rep = clone_report(MachineSpec("bh", (xi,)), psi)
            assert abs(hybrid.dab_two_mode(a2, xi, xi, 0.5) - rep.D_ab2) < 1e-9


@pytest.mark.parametrize("alpha2", [1.5, -0.1, float("nan")])
@pytest.mark.parametrize("fn", [hybrid.f_hcm, hybrid.dab_two_mode])
def test_closed_forms_reject_alpha2_outside_domain(fn, alpha2):
    with pytest.raises(ValueError, match=r"alpha\^2 must lie in \[0, 1\]"):
        fn(alpha2, 0.1, 0.2, 0.5)
    for edge in (0.0, 1.0):
        assert math.isfinite(fn(edge, 0.1, 0.2, 0.5))


def test_bh_pc_hybrid():
    assert abs(hybrid.bh_pc_hybrid(0.0, 0.3) - (0.5 + 1 / math.sqrt(8))) < 1e-12
    assert abs(hybrid.bh_pc_hybrid(1.0, 1 / 6) - 5 / 6) < 1e-12
    got = hybrid.bh_pc_hybrid(1.0, 0.75 * 0.25)
    assert abs(got - hybrid.bh_pc_hybrid_state_dependent(1.0, 0.5)) < 1e-12
    assert abs(got - (1 - 0.1875)) < 1e-12
    with pytest.raises(ValueError):
        hybrid.bh_pc_hybrid(1.2, 0.1)
