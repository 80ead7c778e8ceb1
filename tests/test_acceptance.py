"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 9's printed concurrence ranges (0.17-0.29 and 0.08-0.15) cannot be
reproduced from the source's own displayed operators, which this package
reproduces to machine precision.  test_c09_concurrence_ranges_as_printed pins
the computed ranges and keeps the printed ones as a record that `qclone
verify` reports as its one expected finding; see the README section "Known
finding" for the analysis.
"""

import math

import numpy as np
import pytest

from qclone import broadcast as bc
from qclone import cloners, concat, deleters, hybrid, measures, tables, verify
from qclone.cloners import MachineSpec
from qclone.deleters import BlankState, DeleterSpec
from qclone.qcore import (
    DensityOperator,
    GramSpec,
    StateVector,
    UnrealizableSpec,
    apply_isometry,
    partial_trace,
    realize_gram,
)


def _report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE PASS [{criterion}] {detail}")


RNG = np.random.default_rng(20260809)


def rand_ket(d=2):
    v = RNG.normal(size=d) + 1j * RNG.normal(size=d)
    return v / np.linalg.norm(v)


def test_c01_optimal_copier_constants():
    for _ in range(20):
        rep = cloners.clone_report(MachineSpec("bh-opt"), StateVector((2,), rand_ket()))
        assert abs(rep.F_a - 5 / 6) < 1e-9
        assert abs(rep.F_b - 5 / 6) < 1e-9
        assert abs(rep.D_a - 1 / 18) < 1e-9
        assert abs(rep.D_ab2 - 2 / 9) < 1e-9
    _report("1", "F_a = F_b = 5/6, D_a = 1/18, D_ab2 = 2/9 over 20 random inputs")


def test_c02_clone_ancilla_entanglement():
    out = apply_isometry(cloners.build_bh_opt(), StateVector((2,), [1, 0])).density()
    rho_ab = partial_trace(out, [0, 1])
    rho_ax = partial_trace(out, [0, 2])
    c_ab = measures.concurrence_2q(rho_ab)
    c_ax = measures.concurrence_2q(rho_ax)
    assert abs(c_ab - 1 / 3) < 1e-9
    assert abs(c_ax - 2 / 3) < 1e-9
    assert abs(measures.eof_from_concurrence(c_ab) - 0.1873) < 5e-3
    assert abs(measures.eof_from_concurrence(c_ax) - 0.55) < 5e-3
    _report("2", "C_ab = 1/3, C_ax = 2/3, EoF = 0.1873 / 0.55")


def test_c03_closed_form_spot_grid():
    result = verify.check_closed_form_grid()
    assert result.passed, result.detail
    assert abs(cloners.mixed_23_composite_overlap(StateVector((2,), rand_ket())) - 79 / 108) < 1e-6
    _report("3", "closed forms + simulations incl. 79/108 composite")


def test_c04_index_identities_and_bounds():
    result = verify.check_ying_indices()
    assert result.passed, result.detail
    _report("4", "n = 2 identities and n in {2,3,4} bounds on 50 random vectors")


def test_c05_chapter2_tables():
    for tid in ("2.1", "2.2", "2.3", "2.4"):
        for mode in ("closed_form", "simulate"):
            t = tables.generate_table(tid, mode)
            assert t.all_match(), f"table {tid} ({mode})"
    _report("5", "tables 2.1-2.4 at printed precision, both modes")


def test_c06_mutual_exclusion_grid():
    for p in np.linspace(0, 1, 21):
        for lam in np.linspace(0, 1, 21):
            f1, f2 = hybrid.bh_pauli_table(p, lam)
            assert not (f1 > 5 / 6 + 1e-9 and f2 > 5 / 6 + 1e-9)
    _report("6", "never both clone fidelities above 5/6 on the 21x21 grid")


def test_c07_broadcast_intervals_and_tables():
    iv = bc.insep_interval(1 / 6)
    assert abs(iv.lo - (0.5 - math.sqrt(39) / 16)) < 1e-12
    assert abs(iv.hi - (0.5 + math.sqrt(39) / 16)) < 1e-12
    sv = bc.sep_interval(1 / 6)
    assert abs(sv.lo - (0.5 - math.sqrt(48) / 16)) < 1e-12
    ib = bc.interval_by_bisection(1 / 6, "insep")
    sb = bc.interval_by_bisection(1 / 6, "sep")
    assert max(abs(ib.lo - iv.lo), abs(ib.hi - iv.hi)) < 1e-6
    assert max(abs(sb.lo - sv.lo), abs(sb.hi - sv.hi)) < 1e-6
    for tid in ("3.1", "3.2", "3.3"):
        assert tables.generate_table(tid).all_match(), f"table {tid}"
    assert abs(bc.avg_broadcast_fidelity(1 / 6) - 67 / 108) < 1e-9
    _report("7", "intervals (closed + bisection), tables 3.1-3.3, average 67/108")


def test_c08_closed_form_vs_simulation_grid():
    rng = np.random.default_rng(88)
    for lam in (0.05, 0.12, 1 / 6, 0.175, 0.1875):
        for _ in range(5):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            cf = bc.broadcast_output_matrices(v, lam)
            ch = bc.broadcast_channel_matrices(v, lam)
            for key in cf:
                assert np.max(np.abs(cf[key] - ch[key])) < 1e-9
            if lam >= 1 / 6:
                mm = bc.broadcast_outputs_machine(v, lam)
                for key in cf:
                    assert np.max(np.abs(cf[key] - mm[key].mat)) < 1e-9
    _report("8", "coefficient matrices equal the simulation on the 25-point grid")


def test_c09_protocol_boundaries():
    b16 = bc.ppt_boundary(lambda a2: bc.rho_16_closed(math.sqrt(a2)), 0.05, 0.5)
    b46 = bc.ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.3, 0.95)
    b12 = bc.ppt_boundary(
        lambda a2: bc.rho_12_closed(math.sqrt(a2)), 0.05, 0.9, entangled_above=False
    )
    assert abs(b16 - 0.18) <= 0.01
    assert abs(b46 - 0.61) <= 0.01
    assert abs(b12 - 0.27) <= 0.01
    _report("9a", f"PPT boundaries {b16:.3f}, {b46:.3f}, {b12:.3f}")


def test_c09_branch_ranges():
    result = verify.check_branch_ranges()
    assert result.passed, result.detail
    _report("9b", result.detail)


# Analytic concurrences of the displayed operators.  rho_16 and rho_46 are
# X states, so C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22),
# |rho_12| - sqrt(rho_00 rho_33)) / trace; with a = alpha^2 and b = 1 - a the
# entries of rho_16_closed and rho_46_closed reduce to the two forms below.
def _c16_analytic(a):
    b = 1 - a
    num = math.sqrt(b) * (8 * math.sqrt(a) - math.sqrt(3 * (5 * a + 3)))
    return max(0.0, num / (6 * (3 * a + 1)))


def _c46_analytic(a):
    b = 1 - a
    return max(0.0, (3 * a + 1 - 2 * math.sqrt((7 * a + 1) * b)) / (3 * (3 * a + 1)))


def test_c09_concurrence_ranges_as_printed():
    """The concurrence ranges of rho_16 and rho_46 over the broadcastable
    interval, and the record of the source's printed ranges.

    The interval starts at the rho_46 PPT boundary x0, the root of
    37 x^2 - 18 x - 3 = 0.  Over [x0, 1) C(1,6) falls from about 0.0727 to 0
    and C(4,6) rises from 0 to 1/3, the clone/clone concurrence of the
    optimal copier.  The printed 0.17-0.29 and 0.08-0.15 do not follow from
    the displayed operators; `qclone verify` reports them as its one expected
    finding, and this test pins that classification too.
    """
    x0 = (3 + 2 * math.sqrt(3)) / (7 + 2 * math.sqrt(3))
    assert abs(37 * x0**2 - 18 * x0 - 3) < 1e-12
    b46 = bc.ppt_boundary(lambda a2: bc.rho_46_closed(math.sqrt(a2)), 0.3, 0.95)
    assert abs(b46 - x0) < 1e-6

    xs = np.linspace(x0, 1, 41, endpoint=False)
    c16 = np.array([measures.concurrence_2q(bc.rho_16_closed(math.sqrt(x))) for x in xs])
    c46 = np.array([measures.concurrence_2q(bc.rho_46_closed(math.sqrt(x))) for x in xs])
    assert np.max(np.abs(c16 - [_c16_analytic(x) for x in xs])) < 1e-9
    assert np.max(np.abs(c46 - [_c46_analytic(x) for x in xs])) < 1e-9
    assert np.all(np.diff(c16) < 0)
    assert np.all(np.diff(c46) > 0)

    # endpoints: C(4,6) vanishes at its own PPT boundary x0, C(1,6) at
    # alpha^2 = 1, where beta = 0
    c16_x0 = measures.concurrence_2q(bc.rho_16_closed(math.sqrt(x0)))
    c46_x0 = measures.concurrence_2q(bc.rho_46_closed(math.sqrt(x0)))
    c16_1 = measures.concurrence_2q(bc.rho_16_closed(1.0))
    c46_1 = measures.concurrence_2q(bc.rho_46_closed(1.0))
    assert abs(c16_x0 - _c16_analytic(x0)) < 1e-9
    assert abs(c16_x0 - 0.072730) < 5e-7
    assert abs(c46_x0) < 1e-9
    assert abs(c16_1) < 1e-9
    assert abs(c46_1 - 1 / 3) < 1e-9

    # second path: the reductions of the six-qubit protocol state
    for x in (0.7, 0.8, 0.9):
        out = bc.three_qubit_protocol(math.sqrt(x), "Q0Q0")
        assert abs(measures.concurrence_2q(out.rho_16) - _c16_analytic(x)) < 1e-9
        assert abs(measures.concurrence_2q(out.rho_46) - _c46_analytic(x)) < 1e-9

    # the source's printed ranges, kept as its record: no printed endpoint is
    # within 0.01 of the computed endpoint it names, and C(1,6) stays below
    # the printed start for every alpha^2 in (0, 1)
    printed16, printed46 = (0.17, 0.29), (0.08, 0.15)
    computed16, computed46 = (c16_1, c16_x0), (c46_x0, c46_1)
    for printed, computed in ((printed16, computed16), (printed46, computed46)):
        for p, c in zip(printed, computed):
            assert abs(p - c) > 0.01
    assert min(printed16) > max(computed16) + 0.01
    assert max(_c16_analytic(x) for x in np.linspace(0.001, 0.999, 999)) < min(printed16) - 0.01

    result = verify.check_protocol_concurrences()
    assert not result.passed
    assert result.name in verify.EXPECTED_FINDINGS
    # its note reports the ranges over the whole interval [x0, 1]
    assert "C(1,6) in [0.0000, 0.0727]" in result.notes[0]
    assert "C(4,6) in [0.0000, 0.3333]" in result.notes[0]
    summ = verify.summary([result])
    assert summ["expected_findings"] == [result.name]
    assert summ["unexpected_failures"] == []
    _report(
        "9c",
        f"C(1,6) in [0, {c16_x0:.6f}], C(4,6) in [0, 1/3] from x0 = {x0:.6f}; "
        "printed ranges kept as the expected finding",
    )


def test_c09_swap_corrections():
    out = bc.three_qubit_protocol(math.sqrt(0.7), "Q0Q0")
    target = bc.relabel_325_to_357(out.rho_325)
    total = 0.0
    for outcome in ("B1+", "B1-", "B2+", "B2-"):
        p, rho = bc.swap_extend(out.rho_325, outcome)
        total += p
        assert np.max(np.abs(rho.mat - target.mat)) < 1e-9
    assert abs(total - 1.0) < 1e-12
    _report("9d", "all four corrections restore the three-qubit state")


def test_c10_deletion():
    rep = deleters.delete_report(
        DeleterSpec("pb"), StateVector((2,), [math.sqrt(0.5), math.sqrt(0.5)])
    )
    assert abs(rep.F_1 - 0.5) < 1e-9 and abs(rep.F_2 - 0.75) < 1e-9
    assert abs(rep.avg_F_1 - 2 / 3) < 1e-9 and abs(rep.avg_F_2 - 5 / 6) < 1e-9
    # input-independent universal deleter
    f2s = [
        deleters.delete_report(
            DeleterSpec("qiu", (1.0,)), StateVector((2,), [math.sqrt(t), math.sqrt(1 - t)])
        ).F_2
        for t in np.linspace(0, 1, 9)
    ]
    assert np.ptp(f2s) < 1e-9 and abs(f2s[0] - 0.5) < 1e-9
    # plain deleter: F_2 = 1/2 for every lambda and blank
    for lam in (0.0, 0.25, 0.49):
        for m1 in (1.0, 0.6):
            spec = DeleterSpec("conv", (lam, BlankState(m1, math.sqrt(1 - m1 * m1))))
            for t in (0.2, 0.8):
                rep = deleters.delete_report(spec, StateVector((2,), [math.sqrt(t), math.sqrt(1 - t)]))
                assert abs(rep.F_2 - 0.5) < 1e-9
    # one- and two-transformer tables and limits
    for tid in ("4.1", "4.2"):
        for mode in ("closed_form", "simulate"):
            assert tables.generate_table(tid, mode).all_match(), f"table {tid} {mode}"
    blank = BlankState(1 / math.sqrt(2), 1 / math.sqrt(2))
    devs = []
    for eps in (1e-3, 1e-6):
        spec = DeleterSpec("conv", (0.5 - eps, blank))
        rep = deleters.delete_report(spec, StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)]), 1)
        devs.append(abs(rep.F_2 - 0.75))
        if eps == 1e-6:
            assert abs(rep.F_2 - 0.75) < 5e-3
            assert abs(rep.avg_F_1 - 0.77) < 8e-3
            assert abs(rep.avg_F_1 - deleters.conv_avg_f3_limit()) < 5e-3
    assert devs[1] < devs[0], "convergence to the limit is not monotone"
    # conditional deleter + transformer: 0.8536 input-independent
    blank = BlankState(1 / math.sqrt(2), -1 / math.sqrt(2))
    f2s = []
    for t in np.linspace(0, 1, 7):
        _, f2 = deleters.pb_with_transformer(blank, StateVector((2,), [math.sqrt(t), math.sqrt(1 - t)]))
        f2s.append(f2)
    assert np.ptp(f2s) < 1e-9
    assert abs(f2s[0] - (0.5 + 1 / (2 * math.sqrt(2)))) < 1e-9
    # machine overlap equals Y^2, input-independent
    overlaps = []
    spec = DeleterSpec("conv", (0.2,))
    for t in np.linspace(0.05, 0.95, 20):
        rep = deleters.delete_report(spec, StateVector((2,), [math.sqrt(t), math.sqrt(1 - t)]))
        overlaps.append(rep.machine_overlap)
    assert np.std(overlaps) < 1e-9
    assert abs(overlaps[0] - deleters.conv_max_y(0.2) ** 2) < 1e-7
    _report("10", "deletion fidelities, averages, limits and machine overlap")


def test_c11_concatenation():
    avg_d, avg_f = concat.pipeline_averages(
        concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("pb"))
    )
    assert abs(avg_f - 1.0) < 1e-9 and abs(avg_d - 1 / 3) < 1e-9
    bh_pb = concat.PipelineSpec(MachineSpec("bh", (1 / 6,)), DeleterSpec("pb"))
    avg_d, avg_f = concat.pipeline_averages(bh_pb)
    assert abs(avg_d - 11 / 32) < 1e-9 and abs(avg_f - 7 / 8) < 1e-9
    bh_sdep = concat.PipelineSpec(
        MachineSpec("bh", (1 / 6,)),
        DeleterSpec("sdep", (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2)),
    )
    avg_d2, avg_f2 = concat.pipeline_averages(bh_sdep)
    assert abs(avg_d2 - avg_d) < 1e-9 and abs(avg_f2 - avg_f) < 1e-9
    for spec in (bh_pb, bh_sdep):
        qd, qf = concat.pipeline_averages(spec)
        cd, cf = concat.closed_form_averages(spec)
        assert abs(qd - cd) < 1e-9 and abs(qf - cf) < 1e-9
    _report("11", "pipelines: (1/3, 1), (11/32, 7/8), balanced deleter identical")


def test_c12_signalling_demo():
    result = verify.check_herbert()
    assert result.passed, result.detail
    _report("12", result.detail)


def test_c13_structural():
    result = verify.check_structural()
    assert result.passed, result.detail
    with pytest.raises(UnrealizableSpec):
        cloners.build_bh(0.1)
    _report("13", "isometries, Gram round trips, Schwarz rejection")


def test_runtime_sanity():
    # the suite is desk-scale: the largest state in the codebase is the
    # six-qubit-plus-machines protocol state (8 two-level systems)
    out = bc.three_qubit_protocol(math.sqrt(0.5), "Q0Q0")
    assert out.state.dim == 256
    _report("runtime", "largest constructed state is 256-dimensional")
