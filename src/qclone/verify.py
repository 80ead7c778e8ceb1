"""The full regression suite: every reproduced result run as a checked
criterion, with machine-readable outcomes.

Each check returns a CheckResult; ``run`` collects them per scope.  Known
source defects are asserted as printed and allowed to fail with an
explanatory note (see the repository notes), so a clean build reports
exactly the expected finding set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from . import broadcast as bc
from . import cloners, concat, deleters, hybrid, measures, tables
from .cloners import MachineSpec
from .deleters import BlankState, DeleterSpec
from .qcore import (
    GramSpec,
    StateVector,
    UnrealizableSpec,
    apply_isometry,
    partial_trace,
    realize_gram,
)

TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    notes: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.passed = bool(self.passed)


def _normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Standard normal draws of the given shape.  The checks draw from
    seeded stdlib generators: importing numpy.random would cost a cold run
    more than the checks spend on their draws."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def _rand_kets(n: int, d: int = 2, seed: int = 12345):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        v = _normal(rng, d) + 1j * _normal(rng, d)
        out.append(v / np.linalg.norm(v))
    return out


# ---------------------------------------------------------------------------
# criterion 1: optimal universal copier


def check_bh_optimal() -> CheckResult:
    reps = cloners.clone_reports(MachineSpec("bh-opt"), _rand_kets(20))
    worst = max(
        np.abs(index - ref).max()
        for index, ref in ((reps.F_a, 5 / 6), (reps.F_b, 5 / 6), (reps.D_a, 1 / 18), (reps.D_ab2, 2 / 9))
    )
    return CheckResult(
        "optimal copier: F = 5/6, D_a = 1/18, D_ab2 = 2/9 over 20 random inputs",
        worst < TOL,
        f"max deviation {worst:.2e}",
    )


# criterion 2: clone/ancilla entanglement


def check_clone_ancilla_entanglement() -> CheckResult:
    out = apply_isometry(cloners.build_bh_opt(), StateVector((2,), [1, 0]))
    rho_ab, rho_ax = (partial_trace(out, keep) for keep in ([0, 1], [0, 2]))
    c_ab = measures.concurrence_2q(rho_ab)
    c_ax = measures.concurrence_2q(rho_ax)
    e_ab = measures.eof_from_concurrence(c_ab)
    e_ax = measures.eof_from_concurrence(c_ax)
    ok = (
        abs(c_ab - 1 / 3) < TOL
        and abs(c_ax - 2 / 3) < TOL
        and abs(e_ab - 0.1873) < 5e-3
        and abs(e_ax - 0.55) < 5e-3
    )
    return CheckResult(
        "clone/clone and clone/ancilla entanglement (1/3, 2/3; 0.1873, 0.55)",
        ok,
        f"C_ab={c_ab:.6f} C_ax={c_ax:.6f} EoF=({e_ab:.4f},{e_ax:.4f})",
    )


# criterion 3: closed-form fidelity spot grid


def check_closed_form_grid() -> CheckResult:
    failures = []

    def expect(name, got, ref, tol=TOL):
        if abs(got - ref) > tol:
            failures.append(f"{name}: {got} != {ref}")

    expect("GM(1,2)", cloners.gm_fidelity(1, 2), 5 / 6)
    expect("GM(2,3)", cloners.gm_fidelity(2, 3), 11 / 12)
    expect("PC2", cloners.pc2_fidelity(), 0.5 + math.sqrt(1 / 8))
    expect("PC_D(3)", cloners.pc_d_fidelity(3), (5 + math.sqrt(17)) / 12)
    expect("ECON(2)", cloners.econ_fidelity(2), cloners.pc2_fidelity())
    for d in (2, 3, 5):
        expect(f"HEIS sym d={d}", cloners.heis_symmetric_fidelity(d), (d + 3) / (2 * (d + 1)))
        fa, fb = cloners.heis_fidelities(d, 0.5)
        expect(f"HEIS(d={d}, p=1/2)", fa, (d + 3) / (2 * (d + 1)))
        expect(f"HEIS(d={d}, p=1/2) F_B", fb, fa)
    expect("BDEFMS(1/2)", cloners.bdefms_fidelity(0.5), 0.987, tol=5e-4)
    # simulation matches where a machine exists
    sims = [
        ("gm-1m(2)", MachineSpec("gm-1m", (2,)), 2, cloners.gm_fidelity(1, 2), None),
        ("uqcm-d(3)", MachineSpec("uqcm-d", (3,)), 3, cloners.uqcm_fidelity(3), None),
        ("pc-d(3)", MachineSpec("pc-d", (3,)), 3, cloners.pc_d_fidelity(3), "equatorial"),
        ("pc2", MachineSpec("pc2"), 2, cloners.pc2_fidelity(), "equatorial"),
        ("econ(2)", MachineSpec("econ", (2, 0)), 2, cloners.econ_fidelity(2), "equatorial"),
        ("heis(3,1/2)", MachineSpec("heis-asym", (3, 0.5)), 3, cloners.heis_symmetric_fidelity(3), None),
        ("heis(5,1/2)", MachineSpec("heis-asym", (5, 0.5)), 5, cloners.heis_symmetric_fidelity(5), None),
    ]
    rng = random.Random(7)
    for name, spec, d, ref, family in sims:
        if family == "equatorial":
            phases = np.array([rng.uniform(0, 2 * np.pi) for _ in range(d)])
            v = np.exp(1j * phases) / math.sqrt(d)
        else:
            v = _normal(rng, d) + 1j * _normal(rng, d)
            v /= np.linalg.norm(v)
        rep = cloners.clone_report(spec, StateVector((d,), v))
        if abs(rep.F_a - ref) > 1e-7:
            failures.append(f"sim {name}: {rep.F_a} != {ref}")
    # GM(2,3) via the 2->M machine on identical pure inputs
    m23 = cloners.build_mixed_2m(3)
    v = _rand_kets(1, seed=3)[0]
    out = StateVector(m23.out_dims, m23.matrix @ np.kron(v, v))
    f = float(np.real(v.conj() @ partial_trace(out, [0]).mat @ v))
    if abs(f - cloners.gm_fidelity(2, 3)) > 1e-7:
        failures.append(f"sim 2->3: {f} != {cloners.gm_fidelity(2, 3)}")
    # recloning two clones of the 1->3 copier
    comp = cloners.mixed_23_composite_overlap(StateVector((2,), _rand_kets(1, seed=5)[0]))
    if abs(comp - 79 / 108) > 1e-6:
        failures.append(f"recloned 1->3 overlap: {comp} != {79/108}")
    return CheckResult(
        "closed-form fidelity spot grid with simulation cross-checks",
        not failures,
        "; ".join(failures) or "all closed forms and simulations agree",
    )


# criterion 4: basis-copier entanglement indices


def check_ying_indices() -> CheckResult:
    """One batched run per dimension n: rows 0-49 are random inputs, row 50
    the uniform and row 51 the basis equality case; for n = 2 the rows
    after them are the alpha^2 grid of the identities."""
    failures = []
    grid = np.linspace(0.02, 0.98, 9)
    rng = random.Random(99)
    for n in (2, 3, 4):
        gap = cloners.ying_bound_gap(n)
        amps = _normal(rng, 50, n)
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        rows = [amps, np.full((1, n), 1 / math.sqrt(n)), np.eye(1, n)]
        if n == 2:
            rows.append(np.stack([np.sqrt(grid), np.sqrt(1 - grid)], axis=1))
        d_a, d1, d2, d3 = cloners.ying_indices(n, np.vstack(rows))
        r_a, r1, r2, r3 = d_a[:50], d1[:50], d2[:50], d3[:50]
        ok = (
            (r_a * r_a - gap - TOL <= r1) & (r1 <= r_a * r_a + TOL)
            & (2 * r_a - gap - TOL <= r2) & (r2 <= 2 * r_a + TOL)
            & (2 * r_a - r1 - gap - TOL <= r3) & (r3 <= 2 * r_a - r1 + TOL)
        )
        if not ok.all():
            failures.append(f"bounds fail n={n}")
        if abs((d1[50] - d_a[50] ** 2) + gap) > TOL:
            failures.append(f"uniform minimum fails n={n}")
        if abs(d1[51] - d_a[51] ** 2) > TOL:
            failures.append(f"basis maximum fails n={n}")
        for a2, e_a, e1, e2, e3 in zip(grid, d_a[52:], d1[52:], d2[52:], d3[52:]):
            if abs(e1 - e_a**2) > TOL or abs(e2 - 2 * e_a) > TOL or abs(e3 - e_a * (2 - e_a)) > TOL:
                failures.append(f"n=2 identities fail at alpha^2={a2}")
    return CheckResult(
        "basis-copier index identities and n-dim bounds",
        not failures,
        "; ".join(failures) or "identities, bounds and equality cases hold",
    )


# criterion 5: tables 2.1-2.4


def _unmatched_tables(table_ids, modes=("closed_form", "simulate")) -> List[str]:
    """A failure label per table and mode whose cells miss their printed values."""
    return [
        f"table {tid} ({mode})"
        for tid in table_ids
        for mode in modes
        if not tables.generate_table(tid, mode).all_match()
    ]


def check_tables_ch2() -> CheckResult:
    failures = _unmatched_tables(("2.1", "2.2", "2.3", "2.4"))
    return CheckResult(
        "tables 2.1-2.4 reproduced at printed precision",
        not failures,
        "; ".join(failures) or "all cells match",
    )


# criterion 6: mutual exclusion


def check_mutual_exclusion() -> CheckResult:
    bad = []
    for p in np.linspace(0, 1, 21):
        for lam in np.linspace(0, 1, 21):
            f1, f2 = hybrid.bh_pauli_table(p, lam)
            if f1 > 5 / 6 + TOL and f2 > 5 / 6 + TOL:
                bad.append((p, lam))
            if lam > 1e-12 and (f1 > 5 / 6 + TOL) != (p > 0.5):
                bad.append((p, lam, "direction"))
    return CheckResult(
        "asymmetric hybrid: clone fidelities never both exceed 5/6",
        not bad,
        f"{len(bad)} grid violations" if bad else "21x21 grid clean",
    )


# criterion 7: broadcasting intervals, tables, average fidelity


def check_broadcast_intervals() -> CheckResult:
    failures = []
    iv = bc.insep_interval(1 / 6)
    sv = bc.sep_interval(1 / 6)
    if abs(iv.lo - (0.5 - math.sqrt(39) / 16)) > 1e-12 or abs(
        iv.hi - (0.5 + math.sqrt(39) / 16)
    ) > 1e-12:
        failures.append("inseparable interval closed form")
    if abs(sv.lo - (0.5 - math.sqrt(48) / 16)) > 1e-12:
        failures.append("separable interval closed form")
    ib = bc.interval_by_bisection(1 / 6, "insep")
    sb = bc.interval_by_bisection(1 / 6, "sep")
    if max(abs(ib.lo - iv.lo), abs(ib.hi - iv.hi)) > 1e-6:
        failures.append("inseparable bisection")
    if max(abs(sb.lo - sv.lo), abs(sb.hi - sv.hi)) > 1e-6:
        failures.append("separable bisection")
    failures += _unmatched_tables(("3.1", "3.2", "3.3"), ("closed_form",))
    if abs(bc.avg_broadcast_fidelity(1 / 6) - 67 / 108) > TOL:
        failures.append("average broadcast fidelity")
    notes = [
        "one table header prints the fidelity cross term with a plus sign; "
        "the minus-sign form reproduces both the universal special case and "
        "every printed row (plus-sign variant exposed via sign=+1)"
    ]
    return CheckResult(
        "broadcasting intervals and tables 3.1-3.3",
        not failures,
        "; ".join(failures) or "closed forms, bisection oracle and tables agree",
        notes,
    )


# criterion 8: closed form vs generic simulation


def check_broadcast_equivalence() -> CheckResult:
    rng = random.Random(21)
    worst = 0.0
    lams = (0.05, 0.12, 1 / 6, 0.175, 0.1875)
    for lam in lams:
        # five inputs per lambda, one stack per path
        v = _normal(rng, 5, 4)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        cf = bc.broadcast_output_matrices(v, lam)
        paths = [bc.broadcast_channel_matrices(v, lam)]
        if lam >= 1 / 6:
            paths.append(bc.broadcast_machine_matrices(v, lam))
        worst = max(worst, *(np.max(np.abs(cf[k] - path[k])) for path in paths for k in cf))
    notes = [
        "the copier's machine-vector Gram violates the Schwarz bound for "
        "lambda < 1/6, so the isometry path exists only above it; the "
        "copy-pair map is applied as a formal linear map below"
    ]
    return CheckResult(
        "broadcast coefficient matrices equal the local-copier simulation",
        worst < TOL,
        f"max entrywise deviation {worst:.2e} on a 25-point grid",
        notes,
    )


# criterion 9: three-qubit protocol


def _certified_boundary(branch: str, op: str, printed: float, fn=None):
    """(passed, text) for one exact protocol boundary: within 0.01 of the
    printed value, and certified by the PPT sign change at +/- CERTIFY_OFFSET
    (on ``fn`` when given, else on the six-qubit simulation)."""
    x = bc.protocol_boundary(branch, op).alpha2
    certified = bc.certify_boundary(branch, op, fn)
    text = f"{branch} {op} {x:.6f} (printed {printed}, off {abs(x - printed):.4f})"
    return certified and abs(x - printed) <= 0.01, text + ("" if certified else " NOT CERTIFIED")


def check_three_qubit_boundaries() -> CheckResult:
    closed = {"rho_16": bc.rho_16_closed, "rho_46": bc.rho_46_closed, "rho_12": bc.rho_12_closed}
    results = [
        _certified_boundary("Q0Q0", op, printed, lambda a2, f=closed[op]: f(math.sqrt(a2)))
        for op, printed in (("rho_16", 0.18), ("rho_46", 0.61), ("rho_12", 0.27))
    ]
    return CheckResult(
        "three-qubit protocol separability boundaries (0.18, 0.61, 0.27)",
        all(ok for ok, _ in results),
        "exact, certified on the closed forms: " + "; ".join(text for _, text in results),
    )


def _range_text(iv) -> str:
    return "empty" if iv is None else f"({iv.lo:.6f}, {iv.hi:.6f})"


def check_branch_ranges() -> CheckResult:
    notes = [
        "the two asymmetric branches are exact mirrors, so their printed "
        "ranges cannot both hold under one definition.  Q1Q1's printed ends "
        "are its rho_46 and rho_12 boundaries; its broadcastable range is "
        f"{_range_text(bc.branch_range('Q1Q1'))}.  Q0Q1's printed range is "
        "where rho_16 and rho_14 are entangled and rho_12 and rho_15 "
        "separable; Q1Q0's also needs rho_25 separable.  Under the full "
        "broadcasting conjunction both asymmetric branches are empty"
    ]
    results = [
        _certified_boundary("Q1Q1", "rho_46", 0.38),
        _certified_boundary("Q1Q1", "rho_12", 0.73),
        _certified_boundary("Q0Q1", "rho_12", 0.6),
        _certified_boundary("Q1Q0", "rho_25", 0.14),
        _certified_boundary("Q1Q0", "rho_12", 0.4),
    ]
    # the asymmetric ranges under the readings in the note; Q0Q1's nonlocal
    # pairs are still entangled near its upper end, alpha^2 = 1
    q01 = bc.branch_range("Q0Q1", ("rho_16", "rho_14"), ("rho_12", "rho_15"))
    q10 = bc.branch_range("Q1Q0", ("rho_16", "rho_14"), ("rho_12", "rho_15", "rho_25"))
    top = bc.three_qubit_protocol(math.sqrt(0.999), "Q0Q1")
    top_npt = measures.is_npt(top.rho_16.mat) and measures.is_npt(top.rho_14.mat)
    ends_ok = top_npt and all(
        iv is not None and abs(iv.lo - lo) <= 0.01 and abs(iv.hi - hi) <= 0.01
        for iv, (lo, hi) in ((q01, (0.6, 1.0)), (q10, (0.14, 0.4)))
    )
    return CheckResult(
        "branch ranges (0.38, 0.73), (0.6, 1), (0.14, 0.4) as boundaries",
        all(ok for ok, _ in results) and ends_ok,
        f"Q0Q1 {_range_text(q01)}, Q1Q0 {_range_text(q10)}; exact ends, certified on "
        "the six-qubit simulation: " + "; ".join(text for _, text in results),
        notes,
    )


def check_protocol_concurrences() -> CheckResult:
    """The printed concurrence ranges, asserted as printed.

    It samples the broadcastable interval [x0, 1]; x0 = (3 + 2 sqrt 3) /
    (7 + 2 sqrt 3), the root of 37 x^2 - 18 x - 3, is the rho_46 PPT
    boundary.  The displayed three-qubit operators (reproduced here to
    machine precision from the six-qubit construction) give different
    values, so this check documents a source defect and is expected to fail.
    """
    x0 = bc.X0
    xs = np.linspace(x0, 1.0, 41)
    c16 = [measures.concurrence_2q(bc.rho_16_closed(math.sqrt(x))) for x in xs]
    c46 = [measures.concurrence_2q(bc.rho_46_closed(math.sqrt(x))) for x in xs]
    got = (min(c16), max(c16), min(c46), max(c46))
    ok = (
        abs(min(c16) - 0.17) <= 0.01
        and abs(max(c16) - 0.29) <= 0.01
        and abs(min(c46) - 0.08) <= 0.01
        and abs(max(c46) - 0.15) <= 0.01
    )
    notes = [
        "source defect: the printed ranges (0.17-0.29 and 0.08-0.15) do not "
        "follow from the displayed operators, which are reproduced exactly "
        f"by direct construction; over alpha^2 in [x0, 1], x0 = {x0:.6f} (the "
        "rho_46 PPT boundary), the actual ranges are "
        f"C(1,6) in [{min(c16):.4f}, {max(c16):.4f}] and "
        f"C(4,6) in [{min(c46):.4f}, {max(c46):.4f}]"
    ]
    return CheckResult(
        "printed concurrence ranges over the broadcastable interval",
        ok,
        f"computed extrema {tuple(round(g, 4) for g in got)}",
        notes,
    )


def check_swap_corrections() -> CheckResult:
    out = bc.three_qubit_protocol(math.sqrt(0.7), "Q0Q0")
    target = bc.relabel_325_to_357(out.rho_325)
    total = 0.0
    worst = 0.0
    for oc in ("B1+", "B1-", "B2+", "B2-"):
        p, rho = bc.swap_extend(out.rho_325, oc)
        total += p
        worst = max(worst, np.max(np.abs(rho.mat - target.mat)))
    ok = worst < TOL and abs(total - 1.0) < 1e-12
    notes = [
        "the printed correction for the first outcome acts on the wrong "
        "qubit (it flips the cross-term signs); the implemented correction "
        "is the Pauli product on the teleported qubit, which restores the "
        "state exactly"
    ]
    return CheckResult(
        "entanglement swap: every outcome restores the three-qubit state",
        ok,
        f"max deviation {worst:.2e}, outcome probabilities sum to {total:.12f}",
        notes,
    )


# criterion 10: deletion machines


def check_deletion() -> CheckResult:
    failures = []
    pb = DeleterSpec("pb")
    rep = deleters.delete_report(pb, StateVector((2,), [math.sqrt(0.5), math.sqrt(0.5)]))
    if abs(rep.F_1 - 0.5) > TOL or abs(rep.F_2 - 0.75) > TOL:
        failures.append("conditional deleter at alpha^2 = 1/2")
    if abs(rep.avg_F_1 - 2 / 3) > TOL or abs(rep.avg_F_2 - 5 / 6) > TOL:
        failures.append("conditional deleter averages")
    f2s = deleters.delete_reports(
        DeleterSpec("qiu", (1.0,)), deleters.real_inputs(np.linspace(0.0, 1.0, 9))
    ).F_2
    if np.std(f2s) > TOL or abs(np.mean(f2s) - 0.5) > TOL:
        failures.append("universal deleter F_2 = 1/2")
    rng = random.Random(17)
    for lam in (0.0, 0.2, 0.45):
        for m1 in (1.0, 0.7, 0.3):
            blank = BlankState(m1, math.sqrt(1 - m1 * m1))
            spec = DeleterSpec("conv", (lam, blank))
            reps = deleters.delete_reports(spec, deleters.real_inputs([rng.random() for _ in range(8)]))
            if not np.all(np.abs(reps.F_2 - 0.5) <= TOL):
                failures.append(f"F_2 != 1/2 at lam={lam}, m1={m1}")
            overlaps = reps.machine_overlap
            y = deleters.conv_max_y(lam)
            if np.std(overlaps) > TOL or abs(overlaps[0] - y * y) > 1e-7:
                failures.append(f"machine overlap != Y^2 at lam={lam}")
    failures += _unmatched_tables(("4.1", "4.2"))
    # limits at the half blank with monotone convergence
    blank = BlankState(1 / math.sqrt(2), 1 / math.sqrt(2))
    devs = []
    for eps in (1e-3, 1e-6):
        spec = DeleterSpec("conv", (0.5 - eps, blank))
        rep = deleters.delete_report(spec, StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)]), 1)
        devs.append(abs(rep.F_2 - 0.75))
        if eps == 1e-6:
            if abs(rep.F_2 - 0.75) > 5e-3:
                failures.append("one-transformer limit 3/4")
            avg = rep.avg_F_1
            if abs(avg - deleters.conv_avg_f3_limit()) > 5e-3 or abs(avg - 0.77) > 8e-3:
                failures.append("one-transformer average 0.77")
    if not devs[1] < devs[0]:
        failures.append("convergence not monotone across eps")
    # conditional deleter plus transformer
    blank = BlankState(1 / math.sqrt(2), -1 / math.sqrt(2))
    f2s = deleters.delete_reports(DeleterSpec("pb", (blank,)), _rand_kets(6, seed=41), 1).F_2
    if np.std(f2s) > TOL or abs(f2s[0] - (0.5 + 1 / (2 * math.sqrt(2)))) > TOL:
        failures.append("conditional deleter + transformer 0.8536")
    return CheckResult(
        "deletion machines: fidelities, averages, limits, machine overlap",
        not failures,
        "; ".join(failures) or "all deletion criteria hold",
    )


# criterion 11: concatenation


def check_concatenation() -> CheckResult:
    failures = []
    wz_pb = concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("pb"))
    for a2 in np.linspace(0.02, 0.98, 7):
        _, f = concat.run_pipeline(wz_pb, a2)
        if abs(f - 1.0) > TOL:
            failures.append("basis copier + conditional deleter F != 1")
            break
    ad, af = concat.pipeline_averages(wz_pb)
    if abs(ad - 1 / 3) > TOL or abs(af - 1.0) > TOL:
        failures.append("basis-copier averages")
    bh_pb = concat.PipelineSpec(MachineSpec("bh", (1 / 6,)), DeleterSpec("pb"))
    ad, af = concat.pipeline_averages(bh_pb)
    if abs(ad - 11 / 32) > TOL or abs(af - 7 / 8) > TOL:
        failures.append("two-parameter copier + conditional deleter (11/32, 7/8)")
    bh_sdep = concat.PipelineSpec(
        MachineSpec("bh", (1 / 6,)), DeleterSpec("sdep", deleters.SDEP_EXAMPLE)
    )
    ad2, af2 = concat.pipeline_averages(bh_sdep)
    if abs(ad2 - ad) > TOL or abs(af2 - af) > TOL:
        failures.append("state-dependent deleter with |g|=|h|=1 differs")
    for spec in (wz_pb, bh_pb, bh_sdep):
        qd, qf = concat.pipeline_averages(spec)
        cd, cf = concat.closed_form_averages(spec)
        if abs(qd - cd) > TOL or abs(qf - cf) > TOL:
            failures.append("quadrature vs closed forms")
            break
    return CheckResult(
        "clone-then-delete pipelines and averages",
        not failures,
        "; ".join(failures) or "all pipeline criteria hold",
    )


# criterion 12: signalling demo


def check_herbert() -> CheckResult:
    rho_x, rho_z, gap = measures.herbert_ensembles()
    ref_x = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3)]:
        ref_x[i, j] = 0.25
    ref_z = np.zeros((4, 4))
    ref_z[0, 0] = ref_z[3, 3] = 0.5
    failures = []
    if np.max(np.abs(rho_x.mat - ref_x)) > 1e-12 or np.max(np.abs(rho_z.mat - ref_z)) > 1e-12:
        failures.append("perfect-cloner ensembles")
    if not gap > 0.01:
        failures.append("perfect-cloner gap")
    for spec in (
        MachineSpec("bh-opt"),
        MachineSpec("wz"),
        MachineSpec("pauli-asym", (0.3,)),
        MachineSpec("pc2"),
        MachineSpec("anti"),
        MachineSpec("kr", (0.4,)),
    ):
        g = measures.herbert_gap_with_machine(cloners.build_machine(spec))
        if g > TOL:
            failures.append(f"machine {spec} signals (gap {g:.2e})")
    return CheckResult(
        "signalling demo: perfect cloner distinguishes, real machines do not",
        not failures,
        "; ".join(failures) or f"perfect-cloner gap {gap:.4f}; all machines gap < 1e-9",
    )


# criterion 13: structural properties


def check_structural() -> CheckResult:
    failures = []
    catalog = [
        MachineSpec("wz"),
        MachineSpec("wz-n", (3,)),
        MachineSpec("wz-n", (4,)),
        MachineSpec("bh", (1 / 6,)),
        MachineSpec("bh", (0.3,)),
        MachineSpec("bh-opt"),
        MachineSpec("gm-1m", (3,)),
        MachineSpec("gm-1m", (5,)),
        MachineSpec("uqcm-d", (3,)),
        MachineSpec("pc2"),
        MachineSpec("pc-d", (3,)),
        MachineSpec("kr", (0.35,)),
        MachineSpec("econ", (2, 0)),
        MachineSpec("econ", (3, 1)),
        MachineSpec("pauli-asym", (0.25,)),
        MachineSpec("heis-asym", (3, 0.6)),
        MachineSpec("anti"),
        MachineSpec("mixed-23"),
        MachineSpec("mixed-2m", (4,)),
    ]
    differ = set(cloners.FAMILIES) ^ {spec.family for spec in catalog}
    if differ:
        failures.append(f"catalog and cloners.FAMILIES differ in {sorted(differ)}")
    for spec in catalog:
        if spec.family not in cloners.FAMILIES:
            continue  # reported above
        defect = cloners.build_machine(spec).isometry_defect()
        if defect > TOL:
            failures.append(f"{spec} isometry defect {defect:.2e}")
    for spec in (
        DeleterSpec("pb"),
        DeleterSpec("qiu", (1.0,)),
        DeleterSpec("conv", (0.3,)),
        DeleterSpec("sdep", deleters.SDEP_EXAMPLE),
    ):
        defect = deleters.build_deleter(spec).isometry_defect()
        if defect > TOL:
            failures.append(f"{spec} isometry defect {defect:.2e}")
    # gram round trips
    rng = random.Random(5)
    for _ in range(5):
        m = _normal(rng, 4, 6)
        g = GramSpec(tuple("abcd"), m @ m.T)
        vecs = realize_gram(g)
        regram = vecs.conj().T @ vecs
        if np.max(np.abs(regram - g.gram)) > TOL:
            failures.append("gram round trip")
            break
    for xi in (1 / 6, 0.25, 0.4):
        vecs = realize_gram(cloners.bh_gram(xi))
        regram = vecs.conj().T @ vecs
        if np.max(np.abs(regram - cloners.bh_gram(xi).gram)) > TOL:
            failures.append(f"copier gram round trip xi={xi}")
    raised = False
    try:
        cloners.build_bh(0.1)
    except UnrealizableSpec:
        raised = True
    if not raised:
        failures.append("Schwarz-violating spec not rejected")
    return CheckResult(
        "structural: isometry checks, Gram round trips, Schwarz rejection",
        not failures,
        "; ".join(failures) or "all structural properties hold",
    )


# ---------------------------------------------------------------------------

_SCOPES: Dict[str, List[Callable[[], CheckResult]]] = {
    "cloners": [
        check_bh_optimal,
        check_clone_ancilla_entanglement,
        check_closed_form_grid,
        check_ying_indices,
    ],
    "hybrid": [check_tables_ch2, check_mutual_exclusion],
    "broadcast": [
        check_broadcast_intervals,
        check_broadcast_equivalence,
        check_three_qubit_boundaries,
        check_branch_ranges,
        check_protocol_concurrences,
        check_swap_corrections,
    ],
    "deleters": [check_deletion],
    "concat": [check_concatenation],
    "measures": [check_herbert],
    "qcore": [check_structural],
}

EXPECTED_FINDINGS = ("printed concurrence ranges over the broadcastable interval",)


def run(scope: str = "all") -> List[CheckResult]:
    """Run the criteria for one module scope (or everything)."""
    if scope == "all":
        checks = [fn for fns in _SCOPES.values() for fn in fns]
    elif scope in _SCOPES:
        checks = _SCOPES[scope]
    else:
        raise KeyError(f"unknown scope {scope!r}; choose from {sorted(_SCOPES)} or 'all'")
    return [fn() for fn in checks]


def summary(results: List[CheckResult]) -> Dict:
    return {
        "passed": int(sum(r.passed for r in results)),
        "failed": int(sum(not r.passed for r in results)),
        "expected_findings": [
            r.name for r in results if not r.passed and r.name in EXPECTED_FINDINGS
        ],
        "unexpected_failures": [
            r.name for r in results if not r.passed and r.name not in EXPECTED_FINDINGS
        ],
    }
