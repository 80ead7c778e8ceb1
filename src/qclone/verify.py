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
from typing import Callable, Dict, List, NamedTuple

import numpy as np

from . import broadcast as bc
from . import cloners, concat, deleters, hybrid, measures, tables
from .cloners import MachineSpec
from .deleters import BlankState, DeleterSpec
from .qcore import (
    Checked,
    GramSpec,
    StateVector,
    UnrealizableSpec,
    apply_isometry,
    partial_trace,
    realize_gram,
    reduce_ket,
)

# Every comparison goes through _Expect.close with one of these tolerances,
# one per reason; broadcast.BISECT_TOL bounds the bisection oracle.
TOL = 1e-9  # closed forms against simulations, identities and exact values
EXACT_TOL = 1e-12  # closed forms exact up to rounding
SIM_TOL = 1e-7  # a machine simulation: MachineIsometry admits 1e-7 in V^dag V - I
CHAIN_TOL = 1e-6  # a simulation through two machines in turn
PRINTED_TOL = 0.01  # a value the source prints to two decimals
EOF_TOL = 5e-3  # the printed entanglements of formation 0.1873 and 0.55
BDEFMS_TOL = 5e-4  # the printed 0.987, half a unit of its last digit
LIMIT_TOL = 5e-3  # a deletion limit simulated at lambda = 1/2 - 1e-6
TRUNCATED_TOL = 8e-3  # the printed 0.77, which truncates 0.7777
SIGNAL_GAP = 0.01  # the perfect cloner's signal must exceed it


class _CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    notes: List[str]


class CheckResult(Checked, _CheckResult):
    __slots__ = ()

    def __new__(cls, name, passed, detail="", notes=()):
        return tuple.__new__(cls, (name, bool(passed), detail, list(notes)))


class _Expect:
    """One check's comparisons: the label of each that failed, and the
    largest deviation ``close`` has seen (a NaN deviation, once seen, stays)."""

    def __init__(self):
        self.failures: List[str] = []
        self.worst = 0.0

    def close(self, label: str, got, ref, tol: float = TOL) -> None:
        """Fail ``label`` unless max |got - ref| over a scalar, a tuple or an
        array is at most ``tol``; a NaN deviation is not, so NaN fails."""
        dev = float(np.max(np.abs(np.subtract(got, ref))))
        if dev > self.worst or dev != dev:
            self.worst = dev
        if not dev <= tol:
            self.failures.append(f"{label}: off by {dev:.2e}")

    @staticmethod
    def exceeds(got, ref, tol: float = TOL) -> np.ndarray:
        """Where ``got`` lies above ``ref`` by more than ``tol``; NaN does."""
        return ~(np.asarray(got) <= ref + tol)

    def true(self, label: str, ok) -> bool:
        if not ok:
            self.failures.append(label)
        return bool(ok)

    def result(self, name: str, ok_detail: str, notes=()) -> CheckResult:
        """The check's result: its failure labels as the detail, or ``ok_detail``."""
        detail = "; ".join(self.failures) or ok_detail
        return CheckResult(name, not self.failures, detail, list(notes))


def _normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Standard normal draws of the given shape.  The checks draw from
    seeded stdlib generators: importing numpy.random would cost a cold run
    more than the checks spend on their draws."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def _rand_kets(n: int, d: int = 2, seed: int = 12345):
    rng = random.Random(seed)
    kets = [_normal(rng, d) + 1j * _normal(rng, d) for _ in range(n)]
    return [v / np.linalg.norm(v) for v in kets]


# ---------------------------------------------------------------------------
# criterion 1: optimal universal copier


def check_bh_optimal() -> CheckResult:
    reps = cloners.clone_reports(MachineSpec("bh-opt"), _rand_kets(20))
    e = _Expect()
    e.close("F_a, F_b = 5/6", (reps.F_a, reps.F_b), 5 / 6)
    e.close("D_a = 1/18", reps.D_a, 1 / 18)
    e.close("D_ab2 = 2/9", reps.D_ab2, 2 / 9)
    return e.result(
        "optimal copier: F = 5/6, D_a = 1/18, D_ab2 = 2/9 over 20 random inputs",
        f"max deviation {e.worst:.2e}",
    )


# criterion 2: clone/ancilla entanglement


def check_clone_ancilla_entanglement() -> CheckResult:
    out = apply_isometry(cloners.build_bh_opt(), StateVector((2,), [1, 0]))
    rho_ab, rho_ax = (partial_trace(out, keep) for keep in ([0, 1], [0, 2]))
    c_ab = measures.concurrence_2q(rho_ab)
    c_ax = measures.concurrence_2q(rho_ax)
    e_ab = measures.eof_from_concurrence(c_ab)
    e_ax = measures.eof_from_concurrence(c_ax)
    e = _Expect()
    e.close("concurrences (1/3, 2/3)", (c_ab, c_ax), (1 / 3, 2 / 3))
    e.close("entanglements of formation (0.1873, 0.55)", (e_ab, e_ax), (0.1873, 0.55), EOF_TOL)
    return e.result(
        "clone/clone and clone/ancilla entanglement (1/3, 2/3; 0.1873, 0.55)",
        f"C_ab={c_ab:.6f} C_ax={c_ax:.6f} EoF=({e_ab:.4f},{e_ax:.4f})",
    )


# criterion 3: closed-form fidelity spot grid


def check_closed_form_grid() -> CheckResult:
    e = _Expect()
    e.close("GM(1,2)", cloners.gm_fidelity(1, 2), 5 / 6)
    e.close("GM(2,3)", cloners.gm_fidelity(2, 3), 11 / 12)
    e.close("PC2", cloners.pc2_fidelity(), 0.5 + math.sqrt(1 / 8))
    e.close("PC_D(3)", cloners.pc_d_fidelity(3), (5 + math.sqrt(17)) / 12)
    e.close("ECON(2)", cloners.econ_fidelity(2), cloners.pc2_fidelity())
    for d in (2, 3, 5):
        e.close(f"HEIS sym d={d}", cloners.heis_symmetric_fidelity(d), (d + 3) / (2 * (d + 1)))
        fa, fb = cloners.heis_fidelities(d, 0.5)
        e.close(f"HEIS(d={d}, p=1/2)", fa, (d + 3) / (2 * (d + 1)))
        e.close(f"HEIS(d={d}, p=1/2) F_B", fb, fa)
    e.close("BDEFMS(1/2)", cloners.bdefms_fidelity(0.5), 0.987, BDEFMS_TOL)
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
        e.close(f"sim {name}", cloners.clone_report(spec, StateVector((d,), v)).F_a, ref, SIM_TOL)
    # GM(2,3) via the 2->M machine on identical pure inputs
    m23 = cloners.build_mixed_2m(3)
    v = _rand_kets(1, seed=3)[0]
    f = measures.overlap(v, reduce_ket(m23.matrix @ np.kron(v, v), m23.out_dims, [0]))
    e.close("sim 2->3", f, cloners.gm_fidelity(2, 3), SIM_TOL)
    # recloning two clones of the 1->3 copier
    comp = cloners.mixed_23_composite_overlap(StateVector((2,), _rand_kets(1, seed=5)[0]))
    e.close("recloned 1->3 overlap", comp, 79 / 108, CHAIN_TOL)
    return e.result(
        "closed-form fidelity spot grid with simulation cross-checks",
        "all closed forms and simulations agree",
    )


# criterion 4: basis-copier entanglement indices


def check_ying_indices() -> CheckResult:
    """One batched run per dimension n: rows 0-49 are random inputs, row 50
    the uniform and row 51 the basis equality case; for n = 2 the rows
    after them are the alpha^2 grid of the identities."""
    e = _Expect()
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
        # each index lies in [bound - gap, bound]; its distance from the
        # clipped value is how far outside it lies
        got, bound = np.stack((r1, r2, r3)), np.stack((r_a * r_a, 2 * r_a, 2 * r_a - r1))
        e.close(f"bounds fail n={n}", got, np.clip(got, bound - gap, bound))
        e.close(f"uniform minimum fails n={n}", d1[50] - d_a[50] ** 2, -gap)
        e.close(f"basis maximum fails n={n}", d1[51], d_a[51] ** 2)
        if n == 2:
            e_a = d_a[52:]
            identities = (e_a**2, 2 * e_a, e_a * (2 - e_a))
            e.close("n=2 identities fail", (d1[52:], d2[52:], d3[52:]), identities)
    return e.result(
        "basis-copier index identities and n-dim bounds",
        "identities, bounds and equality cases hold",
    )


# criterion 5: tables 2.1-2.4


def _match_tables(e: _Expect, table_ids, modes=("closed_form", "simulate")) -> None:
    """A failure per table and mode whose cells miss their printed values."""
    for tid in table_ids:
        for mode in modes:
            e.true(f"table {tid} ({mode})", tables.generate_table(tid, mode).all_match())


def check_tables_ch2() -> CheckResult:
    e = _Expect()
    _match_tables(e, ("2.1", "2.2", "2.3", "2.4"))
    return e.result("tables 2.1-2.4 reproduced at printed precision", "all cells match")


# criterion 6: mutual exclusion


def check_mutual_exclusion() -> CheckResult:
    p, lam = np.meshgrid(np.linspace(0, 1, 21), np.linspace(0, 1, 21), indexing="ij")
    e = _Expect()
    f1, f2 = hybrid.bh_pauli_table(p, lam)
    above1, above2 = e.exceeds(f1, 5 / 6), e.exceeds(f2, 5 / 6)
    # a violation: both clones above 5/6, or, where lambda > 0, clone 1
    # above it on the wrong side of p = 1/2
    bad = np.count_nonzero(above1 & above2) + np.count_nonzero((above1 != (p > 0.5))[lam > 0])
    e.true(f"{bad} grid violations", bad == 0)
    return e.result("asymmetric hybrid: clone fidelities never both exceed 5/6", "21x21 grid clean")


# criterion 7: broadcasting intervals, tables, average fidelity


def check_broadcast_intervals() -> CheckResult:
    e = _Expect()
    iv = bc.insep_interval(1 / 6)
    sv = bc.sep_interval(1 / 6)
    insep_ends = (0.5 - math.sqrt(39) / 16, 0.5 + math.sqrt(39) / 16)
    e.close("inseparable interval closed form", (iv.lo, iv.hi), insep_ends, EXACT_TOL)
    e.close("separable interval closed form", sv.lo, 0.5 - math.sqrt(48) / 16, EXACT_TOL)
    ib = bc.interval_by_bisection(1 / 6, "insep")
    sb = bc.interval_by_bisection(1 / 6, "sep")
    e.close("inseparable bisection", (ib.lo, ib.hi), (iv.lo, iv.hi), bc.BISECT_TOL)
    e.close("separable bisection", (sb.lo, sb.hi), (sv.lo, sv.hi), bc.BISECT_TOL)
    _match_tables(e, ("3.1", "3.2", "3.3"), ("closed_form",))
    e.close("average broadcast fidelity", bc.avg_broadcast_fidelity(1 / 6), 67 / 108)
    notes = [
        "one table header prints the fidelity cross term with a plus sign; "
        "the minus-sign form reproduces both the universal special case and "
        "every printed row (plus-sign variant exposed via sign=+1)"
    ]
    return e.result(
        "broadcasting intervals and tables 3.1-3.3",
        "closed forms, bisection oracle and tables agree",
        notes,
    )


# criterion 8: closed form vs generic simulation


def check_broadcast_equivalence() -> CheckResult:
    rng = random.Random(21)
    e = _Expect()
    for lam in (0.05, 0.12, 1 / 6, 0.175, 0.1875):
        # five inputs per lambda, one stack per path
        v = _normal(rng, 5, 4)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        cf = bc.broadcast_output_matrices(v, lam)
        paths = [("copy-pair map", bc.broadcast_channel_matrices(v, lam))]
        if lam >= 1 / 6:
            paths.append(("isometry", bc.broadcast_machine_matrices(v, lam)))
        for path, mats in paths:
            e.close(f"{path} at lambda={lam}", [mats[k] for k in cf], list(cf.values()))
    notes = [
        "the copier's machine-vector Gram violates the Schwarz bound for "
        "lambda < 1/6, so the isometry path exists only above it; the "
        "copy-pair map is applied as a formal linear map below"
    ]
    return e.result(
        "broadcast coefficient matrices equal the local-copier simulation",
        f"max entrywise deviation {e.worst:.2e} on a 25-point grid",
        notes,
    )


# criterion 9: three-qubit protocol


def _certified_boundary(e: _Expect, branch: str, op: str, printed: float, fn=None) -> str:
    """The text of one exact protocol boundary, expected within PRINTED_TOL
    of the printed value and certified by the PPT sign change at
    +/- CERTIFY_OFFSET (on ``fn`` when given, else on the six-qubit
    simulation)."""
    x = bc.protocol_boundary(branch, op).alpha2
    e.true(f"{branch} {op} NOT CERTIFIED", bc.certify_boundary(branch, op, fn))
    e.close(f"{branch} {op} against the printed {printed}", x, printed, PRINTED_TOL)
    return f"{branch} {op} {x:.6f} (printed {printed}, off {abs(x - printed):.4f})"


def check_three_qubit_boundaries() -> CheckResult:
    closed = {"rho_16": bc.rho_16_closed, "rho_46": bc.rho_46_closed, "rho_12": bc.rho_12_closed}
    e = _Expect()
    texts = [
        _certified_boundary(e, "Q0Q0", op, printed, lambda a2, f=closed[op]: f(math.sqrt(a2)))
        for op, printed in (("rho_16", 0.18), ("rho_46", 0.61), ("rho_12", 0.27))
    ]
    return e.result(
        "three-qubit protocol separability boundaries (0.18, 0.61, 0.27)",
        "exact, certified on the closed forms: " + "; ".join(texts),
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
    e = _Expect()
    texts = [
        _certified_boundary(e, "Q1Q1", "rho_46", 0.38),
        _certified_boundary(e, "Q1Q1", "rho_12", 0.73),
        _certified_boundary(e, "Q0Q1", "rho_12", 0.6),
        _certified_boundary(e, "Q1Q0", "rho_25", 0.14),
        _certified_boundary(e, "Q1Q0", "rho_12", 0.4),
    ]
    # the asymmetric ranges under the readings in the note; Q0Q1's nonlocal
    # pairs are still entangled near its upper end, alpha^2 = 1
    q01 = bc.branch_range("Q0Q1", ("rho_16", "rho_14"), ("rho_12", "rho_15"))
    q10 = bc.branch_range("Q1Q0", ("rho_16", "rho_14"), ("rho_12", "rho_15", "rho_25"))
    top = bc.three_qubit_protocol(math.sqrt(0.999), "Q0Q1")
    top_npt = measures.is_npt(top.rho_16.mat) and measures.is_npt(top.rho_14.mat)
    e.true("Q0Q1 entangled near alpha^2 = 1", top_npt)
    for branch, iv, ends in (("Q0Q1", q01, (0.6, 1.0)), ("Q1Q0", q10, (0.14, 0.4))):
        if e.true(f"{branch} range empty", iv is not None):
            e.close(f"{branch} range ends", (iv.lo, iv.hi), ends, PRINTED_TOL)
    return e.result(
        "branch ranges (0.38, 0.73), (0.6, 1), (0.14, 0.4) as boundaries",
        f"Q0Q1 {_range_text(q01)}, Q1Q0 {_range_text(q10)}; exact ends, certified on "
        "the six-qubit simulation: " + "; ".join(texts),
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
    e = _Expect()
    e.close("printed concurrence ranges", got, (0.17, 0.29, 0.08, 0.15), PRINTED_TOL)
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
        not e.failures,
        f"computed extrema {tuple(round(g, 4) for g in got)}",
        notes,
    )


def check_swap_corrections() -> CheckResult:
    out = bc.three_qubit_protocol(math.sqrt(0.7), "Q0Q0")
    target = bc.relabel_325_to_357(out.rho_325)
    e = _Expect()
    total = 0.0
    for oc in ("B1+", "B1-", "B2+", "B2-"):
        p, rho = bc.swap_extend(out.rho_325, oc)
        total += p
        e.close(f"outcome {oc} correction", rho.mat, target.mat)
    worst = e.worst  # over the corrections only
    e.close("outcome probabilities sum to 1", total, 1.0, EXACT_TOL)
    notes = [
        "the printed correction for the first outcome acts on the wrong "
        "qubit (it flips the cross-term signs); the implemented correction "
        "is the Pauli product on the teleported qubit, which restores the "
        "state exactly"
    ]
    return e.result(
        "entanglement swap: every outcome restores the three-qubit state",
        f"max deviation {worst:.2e}, outcome probabilities sum to {total:.12f}",
        notes,
    )


# criterion 10: deletion machines


def check_deletion() -> CheckResult:
    e = _Expect()
    pb = DeleterSpec("pb")
    rep = deleters.delete_report(pb, StateVector((2,), [math.sqrt(0.5), math.sqrt(0.5)]))
    e.close("conditional deleter at alpha^2 = 1/2", (rep.F_1, rep.F_2), (0.5, 0.75))
    e.close("conditional deleter averages", (rep.avg_F_1, rep.avg_F_2), (2 / 3, 5 / 6))
    f2s = deleters.delete_reports(
        DeleterSpec("qiu", (1.0,)), deleters.real_inputs(np.linspace(0.0, 1.0, 9))
    ).F_2
    e.close("universal deleter F_2 = 1/2", (np.std(f2s), np.mean(f2s)), (0.0, 0.5))
    rng = random.Random(17)
    m1s = np.array([1.0, 0.7, 0.3])
    for lam in (0.0, 0.2, 0.45):
        # the three blanks' deleters as one stack, eight inputs each
        spec = DeleterSpec("conv", (lam, BlankState(m1s, np.sqrt(1 - m1s * m1s))))
        inputs = deleters.real_inputs([[rng.random() for _ in range(8)] for _ in m1s])
        reps = deleters.delete_reports(spec, inputs)
        y = deleters.conv_max_y(lam)
        for m1, f2, overlaps in zip(m1s.tolist(), reps.F_2, reps.machine_overlap):
            e.close(f"F_2 != 1/2 at lam={lam}, m1={m1}", f2, 0.5)
            e.close(f"machine overlap varies at lam={lam}, m1={m1}", np.std(overlaps), 0.0)
            e.close(f"machine overlap != Y^2 at lam={lam}, m1={m1}", overlaps[0], y * y, SIM_TOL)
    _match_tables(e, ("4.1", "4.2"))
    # limits at the half blank with monotone convergence
    blank = BlankState(1 / math.sqrt(2), 1 / math.sqrt(2))
    psi = StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)])
    far, near = (
        deleters.delete_report(DeleterSpec("conv", (0.5 - eps, blank)), psi, 1)
        for eps in (1e-3, 1e-6)
    )
    e.close("one-transformer limit 3/4", near.F_2, 0.75, LIMIT_TOL)
    limit = deleters.conv_avg_f3_limit()
    e.close("one-transformer average at its limit", near.avg_F_1, limit, LIMIT_TOL)
    e.close("one-transformer average 0.77", near.avg_F_1, 0.77, TRUNCATED_TOL)
    offs = np.abs(np.subtract((far.F_2, near.F_2), 0.75))
    e.true("convergence not monotone across eps", offs[1] < offs[0])
    # conditional deleter plus transformer
    blank = BlankState(1 / math.sqrt(2), -1 / math.sqrt(2))
    f2s = deleters.delete_reports(DeleterSpec("pb", (blank,)), _rand_kets(6, seed=41), 1).F_2
    ref = (0.0, 0.5 + 1 / (2 * math.sqrt(2)))
    e.close("conditional deleter + transformer 0.8536", (np.std(f2s), f2s[0]), ref)
    return e.result(
        "deletion machines: fidelities, averages, limits, machine overlap",
        "all deletion criteria hold",
    )


# criterion 11: concatenation


def check_concatenation() -> CheckResult:
    e = _Expect()
    wz_pb = concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("pb"))
    f = [concat.run_pipeline(wz_pb, a2)[1] for a2 in np.linspace(0.02, 0.98, 7)]
    e.close("basis copier + conditional deleter F != 1", f, 1.0)
    bh_pb = concat.PipelineSpec(MachineSpec("bh", (1 / 6,)), DeleterSpec("pb"))
    bh_sdep = concat.PipelineSpec(
        MachineSpec("bh", (1 / 6,)), DeleterSpec("sdep", deleters.SDEP_EXAMPLE)
    )
    specs = (wz_pb, bh_pb, bh_sdep)
    quad = [concat.pipeline_averages(spec) for spec in specs]
    e.close("basis-copier averages", quad[0], (1 / 3, 1.0))
    e.close("two-parameter copier + conditional deleter (11/32, 7/8)", quad[1], (11 / 32, 7 / 8))
    e.close("state-dependent deleter with |g|=|h|=1 differs", quad[2], quad[1])
    closed = [concat.closed_form_averages(spec) for spec in specs]
    e.close("quadrature vs closed forms", quad, closed)
    return e.result("clone-then-delete pipelines and averages", "all pipeline criteria hold")


# criterion 12: signalling demo


def check_herbert() -> CheckResult:
    rho_x, rho_z, gap = measures.herbert_ensembles()
    ref_x = 0.25 * (np.eye(4) + np.eye(4)[::-1])  # the diagonal and the anti-diagonal
    ref_z = np.diag([0.5, 0.0, 0.0, 0.5])
    e = _Expect()
    e.close("perfect-cloner ensembles", (rho_x.mat, rho_z.mat), (ref_x, ref_z), EXACT_TOL)
    e.true("perfect-cloner gap", gap > SIGNAL_GAP)
    for spec in (
        MachineSpec("bh-opt"),
        MachineSpec("wz"),
        MachineSpec("pauli-asym", (0.3,)),
        MachineSpec("pc2"),
        MachineSpec("anti"),
        MachineSpec("kr", (0.4,)),
    ):
        g = measures.herbert_gap_with_machine(cloners.build_machine(spec))
        e.close(f"machine {spec} signals", g, 0.0)
    return e.result(
        "signalling demo: perfect cloner distinguishes, real machines do not",
        f"perfect-cloner gap {gap:.4f}; all machines gap < 1e-9",
    )


# criterion 13: structural properties


def _regram(vecs: np.ndarray) -> np.ndarray:
    return vecs.conj().T @ vecs


def check_structural() -> CheckResult:
    e = _Expect()
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
    deleter_catalog = [
        DeleterSpec("pb"),
        DeleterSpec("qiu", (1.0,)),
        DeleterSpec("conv", (0.3,)),
        DeleterSpec("sdep", deleters.SDEP_EXAMPLE),
    ]
    for table, name, build, specs in (
        (cloners.FAMILIES, "cloners.FAMILIES", cloners.build_machine, catalog),
        (deleters.DELETERS, "deleters.DELETERS", deleters.build_deleter, deleter_catalog),
    ):
        differ = set(table) ^ {spec.family for spec in specs}
        e.true(f"catalog and {name} differ in {sorted(differ)}", not differ)
        for spec in specs:
            if spec.family in table:  # else reported above
                e.close(f"{spec} isometry defect", build(spec).isometry_defect(), 0.0)
    # gram round trips
    rng = random.Random(5)
    grams = [GramSpec(tuple("abcd"), m @ m.T) for m in (_normal(rng, 4, 6) for _ in range(5))]
    e.close("gram round trip", [_regram(realize_gram(g)) for g in grams], [g.gram for g in grams])
    for xi in (1 / 6, 0.25, 0.4):
        g = cloners.bh_gram(xi)
        e.close(f"copier gram round trip xi={xi}", _regram(realize_gram(g)), g.gram)
    try:
        cloners.build_bh(0.1)
        rejected = False
    except UnrealizableSpec:
        rejected = True
    e.true("Schwarz-violating spec not rejected", rejected)
    return e.result(
        "structural: isometry checks, Gram round trips, Schwarz rejection",
        "all structural properties hold",
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
        raise ValueError(f"unknown scope {scope!r}; choose from {sorted(_SCOPES)} or 'all'")
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
