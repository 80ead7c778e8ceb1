"""Regeneration of the source tables as machine-checkable regression rows.

Every table row carries the computed values, the printed reference values,
and per-cell match flags.  Matching tolerance is one unit in the last
printed digit (the source mixes rounding and truncation, so half-ulp
matching is impossible; see the decision record).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import broadcast as bc
from . import deleters, hybrid
from .cloners import MachineSpec
from .deleters import BlankState, DeleterSpec
from .qcore import StateVector, apply_isometry, partial_trace
from .measures import overlap

TABLE_IDS = ("2.1", "2.2", "2.3", "2.4", "3.1", "3.2", "3.3", "4.1", "4.2")


@dataclass
class ReportRow:
    inputs: Dict[str, float]
    outputs: Dict[str, float]
    expected: Dict[str, Optional[float]]
    decimals: Dict[str, int]
    provenance: str = "PaperClosedForm"

    def matches(self, tol: Optional[float] = None) -> Dict[str, bool]:
        """Per-cell comparison against the printed value; the default
        tolerance is one unit in the last printed digit."""
        flags = {}
        for key, ref in self.expected.items():
            if ref is None:
                flags[key] = True
                continue
            cell_tol = tol if tol is not None else 10.0 ** (-self.decimals[key]) + 1e-9
            flags[key] = abs(self.outputs[key] - ref) <= cell_tol
        return flags

    def all_match(self, tol: Optional[float] = None) -> bool:
        return all(self.matches(tol).values())


@dataclass
class TableResult:
    table_id: str
    title: str
    rows: List[ReportRow] = field(default_factory=list)

    def all_match(self) -> bool:
        return all(r.all_match() for r in self.rows)


def _simulated_pauli(p: float):
    rep_input = StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)])
    from .cloners import clone_report

    rep = clone_report(MachineSpec("pauli-asym", (p,)), rep_input)
    return rep.F_a, rep.F_b


_T21_PRINTED = {
    0.0: (0.50, 1.00, 0.50),
    0.1: (0.55, 0.99, 0.44),
    0.2: (0.62, 0.98, 0.36),
    0.3: (0.69, 0.94, 0.25),
    0.4: (0.76, 0.89, 0.13),
    0.5: (0.83, 0.83, 0.00),
    0.6: (0.89, 0.76, 0.13),
    0.7: (0.94, 0.69, 0.25),
    0.8: (0.98, 0.62, 0.36),
    0.9: (0.99, 0.55, 0.44),
    1.0: (1.00, 0.50, 0.50),
}


def table_2_1(mode: str = "closed_form") -> TableResult:
    """Fidelities of the two asymmetric copies versus the asymmetry p."""
    t = TableResult("2.1", "asymmetric copier fidelities")
    for p, (f1_ref, f2_ref, diff_ref) in _T21_PRINTED.items():
        if mode == "simulate":
            f1, f2 = _simulated_pauli(p)
            prov = "Simulation"
        else:
            from .cloners import pauli_fidelities

            f1, f2 = pauli_fidelities(p)
            prov = "PaperClosedForm"
        diff = abs(round(f1, 2) - round(f2, 2))
        t.rows.append(
            ReportRow(
                {"p": p},
                {"F1": f1, "F2": f2, "diff": diff},
                {"F1": f1_ref, "F2": f2_ref, "diff": diff_ref},
                {"F1": 2, "F2": 2, "diff": 2},
                prov,
            )
        )
    return t


_T22_PRINTED = {
    0.1: (0.595, 0.0675, 0.14, 0.93),
    0.2: (0.280, 0.1200, 0.21, 0.88),
    0.3: (0.055, 0.1575, 0.22, 0.84),
    0.4: (0.000, 0.1800, 0.22, 0.82),
    0.5: (0.000, 0.1875, 0.22, 0.81),
}


def table_2_2(mode: str = "closed_form") -> TableResult:
    """Distortion-minimizing two-copier hybrid versus the input parameter."""
    t = TableResult("2.2", "state-dependent hybrid quality")
    for a2, (lam_lo_ref, xi_hi_ref, d_ref, f_ref) in _T22_PRINTED.items():
        ab2 = a2 * (1 - a2)
        lam_lo = max(0.0, 1 - 9 * ab2 / 2)
        xi_hi = 0.75 * ab2  # xi at lambda = 1
        d_min = 2 * ab2 - 4.5 * ab2**2
        f = 1 - 0.75 * ab2
        if mode == "simulate":
            # evaluate the joint-output distortion at an admissible point
            lam = (lam_lo + 1) / 2 if lam_lo > 0 else 0.9
            xi_star, d_min, f_chk, _ = hybrid.bhbh_state_dependent(a2, lam)
            d_min = hybrid.dab_two_mode(a2, xi_star, 1 / 6, lam)
            f = hybrid.f_hcm(a2, xi_star, 1 / 6, lam)
            prov = "Simulation"
        else:
            prov = "PaperClosedForm"
        t.rows.append(
            ReportRow(
                {"alpha2": a2},
                {"lambda_lo": lam_lo, "xi_hi": xi_hi, "D_min": d_min, "F": f},
                {"lambda_lo": lam_lo_ref, "xi_hi": xi_hi_ref, "D_min": d_ref, "F": f_ref},
                {"lambda_lo": 3, "xi_hi": 4, "D_min": 2, "F": 2},
                prov,
            )
        )
    return t


_T23_PRINTED = {
    # p: (F1 at lam 0.1, F1 at 0.9, F2 at 0.1, F2 at 0.9)
    0.0: (0.80, 0.53, 0.85, 0.98),
    0.1: (0.81, 0.58, 0.85, 0.98),
    0.2: (0.81, 0.64, 0.85, 0.96),
    0.3: (0.82, 0.70, 0.84, 0.93),
    0.4: (0.83, 0.77, 0.84, 0.89),
    0.6: (0.84, 0.89, 0.83, 0.77),
    0.7: (0.84, 0.93, 0.82, 0.70),
    0.8: (0.85, 0.96, 0.81, 0.64),
    0.9: (0.85, 0.98, 0.81, 0.58),
}


def _hybrid_pauli_sim(p: float, lam: float):
    spec = hybrid.HybridSpec(MachineSpec("pauli-asym", (p,)), MachineSpec("bh-opt"), lam)
    machine = hybrid.hybrid_machine(spec)
    psi = StateVector((2,), [math.sqrt(0.42), math.sqrt(0.58)])
    out = apply_isometry(machine, psi)
    f1 = overlap(psi, partial_trace(out, [0]))
    f2 = overlap(psi, partial_trace(out, [1]))
    return f1, f2


def table_2_3(mode: str = "closed_form") -> TableResult:
    """Symmetric/asymmetric hybrid fidelity endpoints at lambda = 0.1, 0.9."""
    t = TableResult("2.3", "asymmetric hybrid fidelities")
    compute = _hybrid_pauli_sim if mode == "simulate" else hybrid.bh_pauli_table
    prov = "Simulation" if mode == "simulate" else "PaperClosedForm"
    # the all-p lambda = 0 row and the all-lambda p = 0.5 row are symmetric
    f1, f2 = compute(0.3, 0.0)
    t.rows.append(
        ReportRow(
            {"p": 0.3, "lambda": 0.0},
            {"F1": f1, "F2": f2},
            {"F1": 0.83, "F2": 0.83},
            {"F1": 2, "F2": 2},
            prov,
        )
    )
    for lam in (0.1, 0.9):
        f1, f2 = compute(0.5, lam)
        t.rows.append(
            ReportRow(
                {"p": 0.5, "lambda": lam},
                {"F1": f1, "F2": f2},
                {"F1": 0.83, "F2": 0.83},
                {"F1": 2, "F2": 2},
                prov,
            )
        )
    for p, (f1_lo, f1_hi, f2_lo, f2_hi) in _T23_PRINTED.items():
        for lam, f1_ref, f2_ref in ((0.1, f1_lo, f2_lo), (0.9, f1_hi, f2_hi)):
            f1, f2 = compute(p, lam)
            t.rows.append(
                ReportRow(
                    {"p": p, "lambda": lam},
                    {"F1": f1, "F2": f2},
                    {"F1": f1_ref, "F2": f2_ref},
                    {"F1": 2, "F2": 2},
                    prov,
                )
            )
    return t


_T24_PRINTED = {
    0.0: (0.67, 0.33, 0.34),
    0.1: (0.68, 0.38, 0.30),
    0.2: (0.70, 0.43, 0.27),
    0.3: (0.72, 0.48, 0.24),
    0.4: (0.73, 0.53, 0.20),
    0.5: (0.75, 0.58, 0.17),
    0.6: (0.77, 0.63, 0.14),
    0.7: (0.78, 0.68, 0.10),
    0.8: (0.80, 0.73, 0.07),
    0.9: (0.82, 0.78, 0.04),
    1.0: (0.83, 0.83, 0.00),
}


def _hybrid_anti_sim(lam: float):
    spec = hybrid.HybridSpec(MachineSpec("bh-opt"), MachineSpec("anti"), lam)
    machine = hybrid.hybrid_machine(spec)
    psi = StateVector((2,), [math.sqrt(0.42), math.sqrt(0.58)])
    out = apply_isometry(machine, psi)
    f_a = overlap(psi, partial_trace(out, [0]))
    f_b = overlap(psi, partial_trace(out, [1]))
    return f_a, f_b


def table_2_4(mode: str = "closed_form") -> TableResult:
    """Copier/anti-copier hybrid fidelities versus lambda.

    The printed difference column subtracts the already-rounded fidelities.
    """
    t = TableResult("2.4", "hybrid anti-copier fidelities")
    compute = _hybrid_anti_sim if mode == "simulate" else hybrid.bh_anti_hybrid
    prov = "Simulation" if mode == "simulate" else "PaperClosedForm"
    for lam, (fa_ref, fb_ref, diff_ref) in _T24_PRINTED.items():
        f_a, f_b = compute(lam)
        diff = abs(round(f_a, 2) - round(f_b, 2))
        t.rows.append(
            ReportRow(
                {"lambda": lam},
                {"F_a": f_a, "F_b": f_b, "diff": diff},
                {"F_a": fa_ref, "F_b": fb_ref, "diff": diff_ref},
                {"F_a": 2, "F_b": 2, "diff": 2},
                prov,
            )
        )
    return t


_T31_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

_T31_PRINTED = {
    0.1: (0.007, 0.000098),
    0.2: (0.029, 0.001682),
    0.3: (0.061, 0.007442),
    0.4: (0.101, 0.020402),
    0.5: (0.141, 0.039762),
    0.6: (0.173, 0.059858),
    0.7: (0.187, 0.069938),
    0.8: (0.173, 0.059858),
    0.9: (0.115, 0.026450),
}


def table_3_1(mode: str = "closed_form") -> TableResult:
    """Input-tuned copier parameter and distortion (source rounds lambda to
    three decimals before squaring)."""
    t = TableResult("3.1", "state-dependent copier quality")
    for a in _T31_ALPHAS:
        lam_ref, d_ref = _T31_PRINTED[a]
        lam = bc.sd_cloner_lambda_star(a * a)
        lam_rounded = round(lam, 3)
        d_a = 2 * lam_rounded**2
        t.rows.append(
            ReportRow(
                {"alpha": a},
                {"lambda": lam, "D_a": d_a},
                {"lambda": lam_ref, "D_a": d_ref},
                {"lambda": 3, "D_a": 6},
                "PaperClosedForm",
            )
        )
    return t


_T32_PRINTED = {
    0.007: ((0.00005, 0.99994), (0.00005, 0.99994)),
    0.029: ((0.00101, 0.99899), (0.00094, 0.99905)),
    0.061: ((0.00555, 0.99444), (0.00485, 0.99514)),
    0.101: ((0.02076, 0.97923), (0.01628, 0.98371)),
    0.115: ((0.03038, 0.96961), (0.02282, 0.97717)),
    0.141: ((0.05863, 0.94136), (0.04017, 0.95982)),
    0.159: ((0.09091, 0.90908), (0.05768, 0.94231)),
    0.173: ((0.12836, 0.87163), (0.07570, 0.92429)),
    0.187: ((0.18458, 0.81541), (0.09904, 0.90095)),
}


def table_3_2(mode: str = "closed_form") -> TableResult:
    """Inseparability / separability intervals per machine parameter."""
    t = TableResult("3.2", "broadcasting intervals")
    for lam, ((i_lo, i_hi), (s_lo, s_hi)) in _T32_PRINTED.items():
        if mode == "simulate":
            insep = bc.interval_by_bisection(lam, "insep")
            sep = bc.interval_by_bisection(lam, "sep")
            prov = "Simulation"
        else:
            insep = bc.insep_interval(lam)
            sep = bc.sep_interval(lam)
            prov = "PaperClosedForm"
        t.rows.append(
            ReportRow(
                {"lambda": lam},
                {
                    "insep_lo": insep.lo,
                    "insep_hi": insep.hi,
                    "sep_lo": sep.lo,
                    "sep_hi": sep.hi,
                    "common_lo": max(insep.lo, sep.lo),
                    "common_hi": min(insep.hi, sep.hi),
                },
                {
                    "insep_lo": i_lo,
                    "insep_hi": i_hi,
                    "sep_lo": s_lo,
                    "sep_hi": s_hi,
                    "common_lo": i_lo,
                    "common_hi": i_hi,
                },
                dict.fromkeys(
                    ("insep_lo", "insep_hi", "sep_lo", "sep_hi", "common_lo", "common_hi"), 5
                ),
                prov,
            )
        )
    return t


_T33_PRINTED = {
    0.1: 0.99,
    0.2: 0.94,
    0.3: 0.86,
    0.4: 0.76,
    0.5: 0.66,
    0.6: 0.58,
    0.7: 0.54,
    0.8: 0.58,
    0.9: 0.72,
}


def table_3_3(mode: str = "closed_form") -> TableResult:
    """Broadcast fidelity at the input-tuned machine parameter."""
    t = TableResult("3.3", "broadcast fidelity")
    for a, f_ref in _T33_PRINTED.items():
        lam = round(bc.sd_cloner_lambda_star(a * a), 3)
        if mode == "simulate":
            mats = bc.broadcast_channel_matrices((a, math.sqrt(1 - a * a)), lam)
            psi = bc.input_ket((a, math.sqrt(1 - a * a)))
            f = float(np.real(psi.amps.conj() @ mats["AB'"] @ psi.amps))
            prov = "Simulation"
        else:
            f = bc.broadcast_fidelity(a * a, lam)
            prov = "PaperClosedForm"
        t.rows.append(
            ReportRow(
                {"alpha": a, "lambda": lam},
                {"F": f},
                {"F": f_ref},
                {"F": 2},
                prov,
            )
        )
    return t


_T41_PRINTED = {
    0.0: (0.85, None),
    0.1: (0.93, 0.63),
    0.2: (0.91, 0.51),
    0.3: (0.87, 0.41),
    0.4: (0.81, 0.32),
    0.5: (0.75, None),
    0.6: (0.67, 0.18),
    0.7: (0.58, 0.12),
    0.8: (0.48, 0.08),
    0.9: (0.36, 0.06),
    1.0: (0.14, None),
}

_T42_PRINTED = {
    0.0: (0.57, None),
    0.1: (0.48, 0.63),
    0.2: (0.44, 0.64),
    0.3: (0.41, 0.64),
    0.4: (0.39, 0.63),
    0.5: (0.37, None),
    0.6: (0.36, 0.60),
    0.7: (0.35, 0.58),
    0.8: (0.35, 0.55),
    0.9: (0.36, 0.51),
    1.0: (0.42, None),
}


def _limit_table(table_id: str, n_transformers: int, printed, mode: str) -> TableResult:
    t = TableResult(table_id, f"deletion limits, {n_transformers} transformer(s)")
    eps = 1e-6
    for m1sq, (f_pos_ref, f_neg_ref) in printed.items():
        m1 = math.sqrt(m1sq)
        m2 = math.sqrt(1 - m1sq)
        out = {}
        for sign, label in ((1.0, "F_pos"), (-1.0, "F_neg")):
            blank = BlankState(m1, sign * m2)
            if mode == "simulate":
                spec = DeleterSpec("conv", (0.5 - eps, blank))
                rep = deleters.delete_report(
                    spec, StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)]), n_transformers
                )
                out[label] = rep.F_2
            else:
                out[label] = deleters.limiting_deletion_fidelity(n_transformers, blank)
        prov = "Simulation" if mode == "simulate" else "PaperClosedForm"
        t.rows.append(
            ReportRow(
                {"m1sq": m1sq},
                out,
                {"F_pos": f_pos_ref, "F_neg": f_neg_ref},
                {"F_pos": 2, "F_neg": 2},
                prov,
            )
        )
    return t


def table_4_1(mode: str = "closed_form") -> TableResult:
    return _limit_table("4.1", 1, _T41_PRINTED, mode)


def table_4_2(mode: str = "closed_form") -> TableResult:
    return _limit_table("4.2", 2, _T42_PRINTED, mode)


_TABLES = {
    "2.1": table_2_1,
    "2.2": table_2_2,
    "2.3": table_2_3,
    "2.4": table_2_4,
    "3.1": table_3_1,
    "3.2": table_3_2,
    "3.3": table_3_3,
    "4.1": table_4_1,
    "4.2": table_4_2,
}


def generate_table(table_id: str, mode: str = "closed_form") -> TableResult:
    if table_id not in _TABLES:
        raise KeyError(f"unknown table id {table_id!r}; choose from {TABLE_IDS}")
    if mode not in ("closed_form", "simulate", "both"):
        raise ValueError("mode must be closed_form, simulate or both")
    return _TABLES[table_id](mode if mode != "both" else "closed_form")
