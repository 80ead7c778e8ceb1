"""Seeded operations of the three workloads and their correctness gate.

An operation is plain data, generated from ``(seed, pass_index)``.  ``run``
executes it against the package and returns a result; ``check`` compares
that result with an independent reference and returns a list of failure
messages.  Only ``run`` is timed, and only ``run`` is traced.

Every qclone function is looked up through its module at call time, so the
tracer's rebinding of module globals is seen.

Tolerances are the ones the package's own acceptance checks use for the same
comparison: 1e-7 for a simulated clone fidelity against its closed form
(``verify.check_closed_form_grid``), ``verify.TOL`` = 1e-9 for deletion,
broadcast, pipeline, hybrid and protocol comparisons, and 1e-7 for the
machine overlap of the Gram-parameterized deleter (``verify.check_deletion``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from qclone import broadcast as bc
from qclone import cli, cloners, concat, deleters, hybrid, measures, qcore, tables

TOL = 1e-9
TOL_CLONE = 1e-7
TOL_MACHINE_OVERLAP = 1e-7
# The Wootters reference takes square roots of eigenvalues of a non-Hermitian
# product, so it is only good to about the square root of machine precision.
TOL_CONCURRENCE = 1e-6
# Within this band of zero, concurrence and the PPT eigenvalue may disagree on
# the sign by rounding alone, so the verdict is not compared there.
AMBIGUOUS = 1e-7

EXPECTED_FINDINGS = ["printed concurrence ranges over the broadcastable interval"]
EXPECTED_VERIFY_PASSES = 15

GL_NODES = 64

# Point-query kinds, one per package entry point the researcher's stream
# names.  No data in the repository says how often each is asked, so every
# pass holds the same number of each.
POINT_KINDS = (
    "clone",
    "delete",
    "protocol",
    "broadcast_machine",
    "pipeline",
    "pipeline_physical",
    "hybrid",
)

CLONE_FAMILIES = (
    "bh-opt", "gm-1m", "uqcm-d", "heis-asym", "pauli-asym", "pc2", "pc-d",
    "econ", "kr", "bh", "wz", "anti",
)


def rng_for(seed: int, pass_index: int):
    return np.random.default_rng([seed, pass_index + 1])


# ---------------------------------------------------------------------------
# generators


def _ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _equatorial(rng, d):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)) / math.sqrt(d)


def _real_pair(rng):
    a2 = float(rng.uniform(0.0, 1.0))
    return a2, np.array([math.sqrt(a2), math.sqrt(1 - a2)], dtype=complex)


def _blank(rng):
    m1 = float(rng.uniform(0.0, 1.0))
    return m1, float(rng.choice((1.0, -1.0))) * math.sqrt(1 - m1 * m1)


def _unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return complex(q[0, 0]), complex(q[0, 1]), complex(q[1, 0]), complex(q[1, 1])


def _gen_clone(rng, k):
    family = CLONE_FAMILIES[k % len(CLONE_FAMILIES)]
    d = 2
    if family == "gm-1m":
        params = (int(rng.integers(2, 6)),)
    elif family in ("uqcm-d", "pc-d"):
        d = int(rng.integers(2, 5))
        params = (d,)
    elif family == "heis-asym":
        d = int(rng.integers(2, 5))
        params = (d, float(rng.uniform()))
    elif family == "pauli-asym":
        params = (float(rng.uniform()),)
    elif family == "econ":
        d = int(rng.integers(2, 5))
        params = (d, int(rng.integers(d)))
    elif family == "kr":
        params = (float(rng.uniform(0.0, math.sqrt(0.5))),)
    elif family == "bh":
        params = (float(rng.uniform(1 / 6, 0.5)),)
    else:
        params = ()
    theta = None
    if family in ("pc2", "pc-d", "econ"):
        amps = _equatorial(rng, d)
    elif family == "kr":
        theta = float(rng.uniform(0, math.pi))
        phi = rng.uniform(0, 2 * math.pi)
        amps = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
    elif family in ("bh", "wz"):
        amps = _real_pair(rng)[1]
    else:
        amps = _ket(rng, d)
    return ("clone", family, params, amps, theta)


def _gen_delete(rng, k):
    family = ("pb", "qiu", "conv", "sdep")[k % 4]
    blank = _blank(rng)
    if family == "pb":
        params = (blank,)
    elif family == "qiu":
        params = (float(rng.choice((1.0, -1.0))),)
    elif family == "conv":
        params = (float(rng.uniform(0.0, 0.49)), blank)
    else:
        params = _unitary(rng) + (blank,)
    a2, _ = _real_pair(rng)
    return ("delete", family, params, a2, int(rng.integers(3)))


def _gen_protocol(rng, k):
    branch = bc.BRANCHES[int(rng.integers(4))]
    return ("protocol", branch, float(rng.uniform(0.05, 0.999)))


def _gen_broadcast_machine(rng, k):
    v = rng.normal(size=4)
    return ("broadcast_machine", tuple(v / np.linalg.norm(v)), float(rng.uniform(1 / 6, 0.45)))


def _gen_pipeline(rng, k, physical=False):
    if physical:
        cloner = ("bh", (float(rng.uniform(1 / 6, 0.5)),)) if rng.uniform() < 0.75 else ("wz", ())
    else:
        cloner = ("bh", (float(rng.uniform(0.0, 0.5)),)) if rng.uniform() < 0.75 else ("wz", ())
    blank = _blank(rng)
    if rng.uniform() < 0.5:
        deleter = ("pb", (blank,))
    else:
        deleter = ("sdep", _unitary(rng) + (blank,))
    a2, _ = _real_pair(rng)
    kind = "pipeline_physical" if physical else "pipeline"
    return (kind, cloner, deleter, a2)


def _gen_hybrid(rng, k):
    kind = ("pauli", "anti", "bhbh")[int(rng.integers(3))]
    lam = float(rng.uniform())
    if kind == "pauli":
        return ("hybrid", kind, (float(rng.uniform()),), lam, _ket(rng, 2))
    if kind == "anti":
        return ("hybrid", kind, (), lam, _ket(rng, 2))
    xi, xi_p = (float(x) for x in rng.uniform(1 / 6, 0.5, size=2))
    a2, amps = _real_pair(rng)
    return ("hybrid", kind, (xi, xi_p, a2), lam, amps)


_GENERATORS = {
    "clone": _gen_clone,
    "delete": _gen_delete,
    "protocol": _gen_protocol,
    "broadcast_machine": _gen_broadcast_machine,
    "pipeline": _gen_pipeline,
    "pipeline_physical": lambda rng, k: _gen_pipeline(rng, k, physical=True),
    "hybrid": _gen_hybrid,
}


def point_queries(seed: int, pass_index: int, n_ops: int):
    """``n_ops // 7`` queries of each kind in seeded order.  Within a kind the
    clone and deleter families are taken in turn, continuing across passes,
    so passes differ in parameters but not in their mix of cheap and costly
    queries."""
    rng = rng_for(seed, pass_index)
    per_kind = n_ops // len(POINT_KINDS)
    kinds = [k for k in POINT_KINDS for _ in range(per_kind)]
    rng.shuffle(kinds)
    seen = dict.fromkeys(POINT_KINDS, pass_index * per_kind)
    ops = []
    for kind in kinds:
        ops.append(_GENERATORS[kind](rng, seen[kind]))
        seen[kind] += 1
    return ops


def closed_forms(seed: int, pass_index: int, n_ops: int):
    rng = rng_for(seed, pass_index)
    ops = []
    for _ in range(n_ops):
        m1, m2 = _blank(rng)
        ops.append(
            (
                "sweep",
                {
                    "a2": float(rng.uniform(0.01, 0.99)),
                    "alpha": float(rng.uniform(0.05, 0.999)),
                    "p": float(rng.uniform()),
                    "lam": float(rng.uniform(0.01, 0.99)),
                    "xi": float(rng.uniform(0.0, 0.5)),
                    "xi_p": float(rng.uniform(0.0, 0.5)),
                    "mu": float(rng.uniform(0.0, math.sqrt(0.5))),
                    "theta": float(rng.uniform(0.05, 1.5)),
                    "lam_del": float(rng.uniform(0.0, 0.5)),
                    "lam_bc": float(rng.uniform(1 / 6, 0.21)),
                    "s": float(rng.uniform(0.05, 0.95)),
                    "t": float(rng.uniform(0.0, 1.0)),
                    "d": int(rng.integers(2, 7)),
                    "n": int(rng.integers(1, 4)),
                    "m": int(rng.integers(2, 7)),
                    "blank": (m1, m2),
                    "u": _unitary(rng),
                    "amps4": tuple(rng.normal(size=4)),
                },
            )
        )
    return ops


def regression():
    """verify all plus the nine tables in --mode both: the maintainer's run.

    Its inputs are the package's own acceptance data, so the seed does not
    change them.
    """
    ops = [("cli", ("verify", "all", "--format", "json"))]
    ops += [("cli", ("table", "--id", tid, "--mode", "both", "--format", "json")) for tid in tables.TABLE_IDS]
    return ops


# ---------------------------------------------------------------------------
# execution (timed)


def _deleter_spec(family, params):
    if family in ("pb", "conv", "sdep"):  # the blank comes last, as (m1, m2)
        return deleters.DeleterSpec(family, params[:-1] + (qcore.BlankState(*params[-1]),))
    return deleters.DeleterSpec(family, params)


def _pipeline_spec(cloner, deleter):
    return concat.PipelineSpec(cloners.MachineSpec(*cloner), _deleter_spec(*deleter))


def _hybrid_spec(kind, params, lam):
    ms = cloners.MachineSpec
    if kind == "pauli":
        return hybrid.HybridSpec(ms("pauli-asym", params), ms("bh-opt"), lam)
    if kind == "anti":
        return hybrid.HybridSpec(ms("bh-opt"), ms("anti"), lam)
    return hybrid.HybridSpec(ms("bh", (params[0],)), ms("bh", (params[1],)), lam)


def run(op):
    kind = op[0]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op[1]))
        return code, out.getvalue()
    if kind == "clone":
        _, family, params, amps, _ = op
        psi = qcore.StateVector((amps.size,), amps)
        return cloners.clone_report(cloners.MachineSpec(family, params), psi)
    if kind == "delete":
        _, family, params, a2, n_t = op
        psi = qcore.StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)])
        return deleters.delete_report(_deleter_spec(family, params), psi, n_t)
    if kind == "protocol":
        _, branch, alpha = op
        out = bc.three_qubit_protocol(alpha, branch)
        pairs = (out.rho_16, out.rho_46, out.rho_12)
        return out, [
            (measures.concurrence_2q(r), measures.ppt_verdict(r)) for r in pairs
        ]
    if kind == "broadcast_machine":
        _, amps, lam = op
        return bc.broadcast_outputs_machine(amps, lam)
    if kind == "pipeline":
        _, cloner, deleter, a2 = op
        return concat.run_pipeline(_pipeline_spec(cloner, deleter), a2)
    if kind == "pipeline_physical":
        _, cloner, deleter, a2 = op
        return concat.run_pipeline_physical(_pipeline_spec(cloner, deleter), a2)
    if kind == "hybrid":
        _, hkind, params, lam, amps = op
        machine = hybrid.hybrid_machine(_hybrid_spec(hkind, params, lam))
        psi = qcore.StateVector((2,), amps)
        rho = qcore.apply_isometry(machine, psi).density()
        return (
            measures.overlap(psi, qcore.partial_trace(rho, [0])),
            measures.overlap(psi, qcore.partial_trace(rho, [1])),
        )
    if kind == "sweep":
        return _sweep(op[1])
    raise ValueError(f"unknown operation kind {kind!r}")


def _sweep(x):
    """Every closed form at one point, and the measures on closed-form operators."""
    a2, alpha, p, lam, xi, xi_p = x["a2"], x["alpha"], x["p"], x["lam"], x["xi"], x["xi_p"]
    d, n, m = x["d"], x["n"], x["m"]
    blank = qcore.BlankState(*x["blank"])
    a0, a1, b0, b1 = x["u"]
    amps4 = np.asarray(x["amps4"]) / np.linalg.norm(x["amps4"])
    r = {}
    c = cloners
    r["gm"] = c.gm_fidelity(n, n + m)
    r["fan"] = c.fan_nmd_fidelity(n, n + m, d)
    r["fan2"] = c.fan_nmd_fidelity(n, n + m, 2)
    r["uqcm"] = c.uqcm_fidelity(d)
    r["uqcm_scaling"] = c.uqcm_scaling(d)
    r["entropy"] = c.copier_entropy(d)
    r["pc2"] = c.pc2_fidelity()
    r["pc_d"] = c.pc_d_fidelity(d)
    r["pc_d2"] = c.pc_d_fidelity(2)
    r["pc"] = c.pc_fidelity(n, n + m)
    r["pc12"] = c.pc_fidelity(1, 2)
    r["pc_limit"] = c.pc_limit_fidelity(n)
    r["econ"] = c.econ_fidelity(d)
    r["econ2"] = c.econ_fidelity(2)
    r["kr"] = c.kr_fidelity(x["mu"], x["theta"])
    r["kr_eq"] = c.kr_fidelity(0.5, math.pi / 2)
    r["kr_mu2"] = c.kr_optimal_mu2(x["theta"])
    r["heis"] = c.heis_fidelities(d, p)
    r["heis2"] = c.heis_fidelities(2, p)
    r["heis_half"] = c.heis_fidelities(d, 0.5)
    r["heis_sym"] = c.heis_symmetric_fidelity(d)
    r["pauli"] = c.pauli_fidelities(p)
    r["anti"] = c.anti_fidelities()
    r["bdefms"] = c.bdefms_fidelity(x["s"])
    r["rastegin"] = c.rastegin_mixed_upper_bound(x["t"])
    r["mixed_scaling"] = c.mixed_2m_scaling(m)
    r["wz_quality"] = c.wz_copy_quality(a2)
    r["ying_gap"] = c.ying_bound_gap(d)
    r["prob_clone"] = c.prob_clone_success(x["s"], x["t"], m)
    r["closed_form_fidelity"] = c.closed_form_fidelity("gm", n, n + m)

    dl = deleters
    r["conv_f1"] = dl.conv_f1(x["lam_del"], a2)
    r["conv_f3_limit"] = dl.conv_f3_limit(a2)
    r["conv_avg_f3_limit"] = dl.conv_avg_f3_limit()
    r["limit1"] = dl.limiting_deletion_fidelity(1, blank)
    r["limit2"] = dl.limiting_deletion_fidelity(2, blank)
    r["t41"] = dl.table_41_fidelity(blank.m1, blank.m2)
    r["t42"] = dl.table_42_fidelity(blank.m1, blank.m2)
    r["pb_transformer"] = dl.pb_transformer_fidelity(blank.m1, blank.m2, a2)
    r["song"] = dl.song_optimal_fidelity(p, x["theta"], 0.3, 0.1)
    r["sdep_pointwise"] = dl.sdep_pointwise(a0, a1, b0, b1, blank.m2, a2)
    r["sdep_averages"] = dl.sdep_averages(a0, a1, b0, b1, blank.m2)

    h = hybrid
    r["f_hcm"] = h.f_hcm(a2, xi, xi_p, lam)
    r["f_hcm_universal"] = h.f_hcm(a2, 1 / 6, 1 / 6, lam)
    r["dab_two_mode"] = h.dab_two_mode(a2, xi, xi_p, lam)
    bh_lam = max(lam, 1 - 4.5 * a2 * (1 - a2) + 1e-3)
    r["bhbh"] = h.bhbh_state_dependent(a2, min(1.0, bh_lam))
    r["universal_lambda"] = h.universal_hybrid_lambda(0.05, 0.3)
    r["bh_pc"] = h.bh_pc_hybrid(lam, xi)
    r["bh_pc_sd"] = h.bh_pc_hybrid_state_dependent(lam, a2)
    r["bh_pauli"] = h.bh_pauli_table(p, lam)
    r["bh_pauli_0"] = h.bh_pauli_table(p, 0.0)
    r["bh_pauli_1"] = h.bh_pauli_table(p, 1.0)
    r["bh_anti"] = h.bh_anti_hybrid(lam)
    r["bh_anti_0"] = h.bh_anti_hybrid(0.0)

    lam_bc = x["lam_bc"]
    amps2 = (math.sqrt(a2), math.sqrt(1 - a2))
    r["lambda_star"] = bc.sd_cloner_lambda_star(a2)
    r["nonlocal"] = bc.nonlocal_coefficients(amps4, lam_bc)
    r["local_a"] = bc.local_coefficients(amps4, lam_bc, "A")
    r["local_b"] = bc.local_coefficients(amps4, lam_bc, "B")
    r["insep"] = bc.insep_interval(lam_bc)
    r["sep"] = bc.sep_interval(lam_bc)
    r["bcast_interval"] = bc.broadcast_interval(lam_bc)
    r["bcast_fidelity"] = bc.broadcast_fidelity(a2, lam_bc)
    r["bcast_avg"] = bc.avg_broadcast_fidelity(lam_bc)
    r["bcast_ops"] = bc.broadcast_outputs(amps2, lam_bc)
    r["bcast_mats"] = bc.broadcast_output_matrices(amps2, lam_bc)
    r["rho_146"] = bc.rho_146_closed(alpha)
    r["rho_16"] = bc.rho_16_closed(alpha)
    r["rho_46"] = bc.rho_46_closed(alpha)
    r["rho_12"] = bc.rho_12_closed(alpha)
    r["rho_16_of_146"] = qcore.partial_trace(r["rho_146"], [0, 2])
    r["ppt_146"] = measures.ppt_verdict(r["rho_146"], (2,))

    cc = concat
    bh_pb = cc.PipelineSpec(cloners.MachineSpec("bh", (xi,)), deleters.DeleterSpec("pb", (blank,)))
    bh_sdep = cc.PipelineSpec(
        cloners.MachineSpec("bh", (xi,)), deleters.DeleterSpec("sdep", (a0, a1, b0, b1, blank))
    )
    r["pointwise_pb"] = cc.closed_form_pointwise(bh_pb, a2)
    r["pointwise_sdep"] = cc.closed_form_pointwise(bh_sdep, a2)
    r["averages_pb"] = cc.closed_form_averages(bh_pb)
    r["averages_sdep"] = cc.closed_form_averages(bh_sdep)
    r["bh_pb_distortion"] = cc.bh_pb_distortion(xi, a2)
    r["bh_pb_avg_distortion"] = cc.bh_pb_avg_distortion(xi)
    r["bh_pb_fidelity"] = cc.bh_pb_fidelity(xi)

    r["states"] = states = {
        "AB'": r["bcast_ops"]["AB'"],
        "AA'": r["bcast_ops"]["AA'"],
        "rho_16": r["rho_16"],
        "rho_46": r["rho_46"],
        "rho_12": r["rho_12"],
    }
    r["measures"] = {
        key: (
            measures.concurrence_2q(rho),
            measures.ppt_verdict(rho),
            measures.w_determinants(rho),
        )
        for key, rho in states.items()
    }
    r["tables"] = {tid: tables.generate_table(tid, "closed_form") for tid in tables.TABLE_IDS}
    return r


# ---------------------------------------------------------------------------
# digests: everything an operation produced, for bit-identity checks


def digest(result, h):
    """Feed a result into a hashlib object (floats by their exact hex form)."""
    if result is None:
        h.update(b"N")
    elif isinstance(result, str):
        h.update(b"S" + result.encode())
    elif isinstance(result, (bool, int, np.integer)):
        h.update(b"I%d" % int(result))
    elif isinstance(result, (float, complex, np.floating, np.complexfloating)):
        z = complex(result)
        h.update(("F" + z.real.hex() + z.imag.hex()).encode())
    elif isinstance(result, np.ndarray):
        h.update(b"A" + repr(result.shape).encode())
        h.update(np.ascontiguousarray(result, dtype=complex).tobytes())
    elif isinstance(result, dict):
        for key in sorted(result):
            h.update(b"K" + str(key).encode())
            digest(result[key], h)
    elif isinstance(result, (list, tuple)):
        h.update(b"L%d" % len(result))
        for item in result:
            digest(item, h)
    elif hasattr(result, "__dataclass_fields__"):
        for name in result.__dataclass_fields__:
            digest(getattr(result, name), h)
    else:
        raise TypeError(f"cannot digest {type(result)!r}")


# ---------------------------------------------------------------------------
# references (untimed, untraced)


class Gate:
    """Collects failures of one operation."""

    def __init__(self):
        self.failures = []

    def close(self, name, got, ref, tol):
        got = np.asarray(got, dtype=complex)
        ref = np.asarray(ref, dtype=complex)
        dev = float(np.max(np.abs(got - ref))) if got.size else 0.0
        if not dev <= tol:
            self.failures.append(f"{name}: deviation {dev:.3g} > {tol:g}")

    def true(self, name, cond):
        if not cond:
            self.failures.append(name)


def _reduce(amps, dims, keep):
    """Reduced density matrix of a ket on the kept subsystems, in ``keep`` order."""
    n = len(dims)
    t = np.asarray(amps).reshape(dims)
    rest = [i for i in range(n) if i not in keep]
    t = np.transpose(t, list(keep) + rest)
    d_keep = int(np.prod([dims[k] for k in keep]))
    m = t.reshape(d_keep, -1)
    return m @ m.conj().T


def _wootters(mat):
    yy = np.kron(qcore.PAULI_Y, qcore.PAULI_Y)
    r = mat @ yy @ mat.conj() @ yy
    ev = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    return max(0.0, ev[0] - ev[1] - ev[2] - ev[3])


def _verdict_agrees(g, name, conc, verdict):
    """On 2x2 states PPT is exact: inseparable iff the concurrence is positive."""
    if min(abs(conc), abs(verdict.min_pt_eigenvalue)) < AMBIGUOUS:
        return
    g.true(f"{name}: PPT verdict {verdict.verdict} vs concurrence {conc:.3g}",
           (verdict.verdict == "Inseparable") == (conc > 0))


def _deleter_reference(family, params, amps, n_t):
    """(F_1, F_2) from the machine columns by direct contraction."""
    spec = _deleter_spec(family, params)
    machine = deleters.build_deleter(spec)
    if family == "conv":
        bl = qcore.BlankState(*params[1])
        target = (bl.vec + bl.perp) / math.sqrt(2)
    elif family in ("pb", "sdep"):
        target = qcore.BlankState(*params[-1]).vec
    else:
        target = np.array([1.0, 0.0], dtype=complex)
    t_n = np.linalg.matrix_power(deleters.transformer(), n_t)
    # amps: (k, 2) batch of single-qubit kets
    pairs = np.einsum("ka,kb->kab", amps, amps).reshape(len(amps), 4)
    out = pairs @ machine.matrix.T  # (k, 4 * m)
    mdim = out.shape[1] // 4
    out = np.einsum("ij,kjm->kim", t_n, out.reshape(len(amps), 4, mdim)).reshape(-1, 2, 2, mdim)
    rho_1 = np.einsum("kabm,kcbm->kac", out, out.conj())
    rho_2 = np.einsum("kabm,kacm->kbc", out, out.conj())
    f1 = np.einsum("ka,kac,kc->k", amps.conj(), rho_1, amps).real
    f2 = np.einsum("a,kac,c->k", target.conj(), rho_2, target).real
    return f1, f2


def check(op, result):
    g = Gate()
    kind = op[0]
    if kind == "cli":
        _check_cli(g, op[1], result)
    elif kind == "clone":
        _check_clone(g, op, result)
    elif kind == "delete":
        _check_delete(g, op, result)
    elif kind == "protocol":
        _check_protocol(g, op, result)
    elif kind == "broadcast_machine":
        _, amps, lam = op
        ref = bc.broadcast_output_matrices(amps, lam)
        for key, mat in ref.items():
            g.close(f"broadcast {key}", result[key].mat, mat, TOL)
    elif kind == "pipeline":
        _, cloner, deleter, a2 = op
        ref = concat.closed_form_pointwise(_pipeline_spec(cloner, deleter), a2)
        g.close("pipeline vs closed_form_pointwise", result, ref, TOL)
    elif kind == "pipeline_physical":
        _check_physical(g, op, result)
    elif kind == "hybrid":
        _check_hybrid(g, op, result)
    elif kind == "sweep":
        _check_sweep(g, op[1], result)
    return g.failures


def _check_cli(g, argv, result):
    code, stdout = result
    if argv[0] == "verify":
        g.true(f"verify all exit code {code} != 1", code == 1)
        summary = json.loads(stdout)["meta"]["summary"]
        g.true(f"expected findings {summary['expected_findings']}",
               summary["expected_findings"] == EXPECTED_FINDINGS)
        g.true(f"unexpected failures {summary['unexpected_failures']}",
               summary["unexpected_failures"] == [])
        g.true(f"verify passes {summary['passed']} != {EXPECTED_VERIFY_PASSES}",
               summary["passed"] == EXPECTED_VERIFY_PASSES)
    else:
        g.true(f"table {argv[2]} exit code {code} != 0", code == 0)
        rows = json.loads(stdout)["rows"]
        g.true(f"table {argv[2]} has no rows", bool(rows))
        bad = [k for row in rows for k, v in row.items() if k.endswith("_match") and v is not True]
        g.true(f"table {argv[2]} mismatched cells {bad[:3]}", not bad)


def _check_clone(g, op, rep):
    _, family, params, amps, theta = op
    c = cloners
    if family == "bh-opt":
        ref = (c.gm_fidelity(1, 2),) * 2
    elif family == "gm-1m":
        ref = (c.gm_fidelity(1, params[0]),) * 2
    elif family == "uqcm-d":
        ref = (c.uqcm_fidelity(params[0]),) * 2
    elif family == "heis-asym":
        ref = c.heis_fidelities(*params)
    elif family == "pauli-asym":
        ref = c.pauli_fidelities(*params)
    elif family == "pc2":
        ref = (c.pc2_fidelity(),) * 2
    elif family == "pc-d":
        ref = (c.pc_d_fidelity(params[0]),) * 2
    elif family == "econ":
        ref = (c.econ_fidelity(params[0]),) * 2
    elif family == "kr":
        ref = (c.kr_fidelity(params[0], theta),) * 2
    elif family == "bh":
        a2 = abs(amps[0]) ** 2
        ref = (hybrid.f_hcm(a2, params[0], params[0], 1.0),) * 2
    elif family == "wz":
        a2 = abs(amps[0]) ** 2
        g.close("wz D_a vs wz_copy_quality", rep.D_a, c.wz_copy_quality(a2), TOL_CLONE)
        ref = (1 - c.wz_copy_quality(a2),) * 2
    else:  # anti
        ref = c.anti_fidelities()
    g.close(f"clone {family}{params} (F_a, F_b)", (rep.F_a, rep.F_b), ref, TOL_CLONE)


def _check_delete(g, op, rep):
    _, family, params, a2, n_t = op
    amps = np.array([[math.sqrt(a2), math.sqrt(1 - a2)]], dtype=complex)
    f1, f2 = _deleter_reference(family, params, amps, n_t)
    g.close(f"delete {family} T{n_t} (F_1, F_2) vs contraction", (rep.F_1, rep.F_2),
            (f1[0], f2[0]), TOL)
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    t = (x + 1) / 2
    nodes = np.stack([np.sqrt(t), np.sqrt(1 - t)], axis=1).astype(complex)
    q1, q2 = _deleter_reference(family, params, nodes, n_t)
    g.close(f"delete {family} T{n_t} averages vs batched quadrature",
            (rep.avg_F_1, rep.avg_F_2), (w @ q1 / 2, w @ q2 / 2), TOL)
    ab2 = a2 * (1 - a2)
    if family == "conv" and n_t == 0:
        lam = params[0]
        g.close("conv F_2 = 1/2", rep.F_2, 0.5, TOL)
        g.close("conv F_1 = conv_f1", rep.F_1, deleters.conv_f1(lam, a2), TOL)
        g.close("conv averages", (rep.avg_F_1, rep.avg_F_2), ((1 - lam) + (2 * lam - 1) / 3, 0.5), TOL)
        g.close("conv machine overlap = Y_max^2", rep.machine_overlap, (1 - 2 * lam) / 3,
                TOL_MACHINE_OVERLAP)
    elif family == "qiu" and n_t == 0:
        g.close("qiu F_2 = 1/2", rep.F_2, 0.5, TOL)
    elif family == "pb" and n_t == 0:
        g.close("pb (F_1, F_2)", (rep.F_1, rep.F_2), (1 - 2 * ab2, 1 - ab2), TOL)
        g.close("pb averages", (rep.avg_F_1, rep.avg_F_2), (2 / 3, 5 / 6), TOL)
    elif family == "pb" and n_t == 1:
        m1, m2 = params[0]
        g.close("pb + transformer F_2", rep.F_2, deleters.pb_transformer_fidelity(m1, m2, a2), TOL)
    elif family == "sdep" and n_t == 0:
        a0, a1, b0, b1, (m1, m2) = params
        d1, f = deleters.sdep_pointwise(a0, a1, b0, b1, m2, a2)
        psi = amps[0]
        diff = rep.rho_1.mat - np.outer(psi, psi.conj())
        g.close("sdep (D_1, F_2) vs sdep_pointwise",
                (np.trace(diff @ diff).real, rep.F_2), (d1, f), TOL)


def _check_protocol(g, op, result):
    _, branch, alpha = op
    out, measured = result
    amps, dims, labels = out.state.amps, out.state.dims, list(out.labels)
    for attr, names in (
        ("rho_146", ("q1", "q4", "q6")),
        ("rho_325", ("q3", "q2", "q5")),
        ("rho_16", ("q1", "q6")),
        ("rho_14", ("q1", "q4")),
        ("rho_46", ("q4", "q6")),
        ("rho_25", ("q2", "q5")),
        ("rho_12", ("q1", "q2")),
        ("rho_15", ("q1", "q5")),
    ):
        ref = _reduce(amps, dims, [labels.index(nm) for nm in names])
        g.close(f"protocol {branch} {attr} vs ket reduction", getattr(out, attr).mat, ref, TOL)
    if branch == "Q0Q0":
        for attr, closed in (("rho_16", bc.rho_16_closed), ("rho_46", bc.rho_46_closed),
                             ("rho_12", bc.rho_12_closed)):
            g.close(f"protocol Q0Q0 {attr} vs closed form", getattr(out, attr).mat,
                    closed(alpha).mat, TOL)
    for attr, (conc, verdict) in zip(("rho_16", "rho_46", "rho_12"), measured):
        mat = getattr(out, attr).mat
        g.close(f"{attr} concurrence vs Wootters", conc, _wootters(mat), TOL_CONCURRENCE)
        _verdict_agrees(g, attr, conc, verdict)


def _check_physical(g, op, result):
    _, cloner, deleter, a2 = op
    spec = _pipeline_spec(cloner, deleter)
    cl = cloners.build_machine(spec.cloner)
    de = deleters.build_deleter(spec.deleter)
    psi = np.array([math.sqrt(a2), math.sqrt(1 - a2)], dtype=complex)
    mc = cl.out_dims[-1]
    full = de.matrix @ (cl.matrix @ psi).reshape(4, mc)  # (x y M_d, M_c)
    full = full.reshape(2, 2, -1, mc)
    rho_x = np.einsum("abmc,dbmc->ad", full, full.conj())
    rho_y = np.einsum("abmc,admc->bd", full, full.conj())
    diff = rho_x - np.outer(psi, psi.conj())
    target = qcore.BlankState(*deleter[1][-1]).vec
    ref = (np.trace(diff @ diff).real, (target.conj() @ rho_y @ target).real)
    g.close("physical pipeline vs contraction", result, ref, TOL)


def _check_hybrid(g, op, result):
    _, hkind, params, lam, amps = op
    if hkind == "pauli":
        ref = hybrid.bh_pauli_table(params[0], lam)
    elif hkind == "anti":
        ref = hybrid.bh_anti_hybrid(lam)
    else:
        xi, xi_p, a2 = params
        f = hybrid.f_hcm(a2, xi, xi_p, lam)
        ref = (f, f)
    g.close(f"hybrid {hkind} vs closed form", result, ref, TOL)


def _check_sweep(g, x, r):
    d, a2, lam = x["d"], x["a2"], x["lam"]
    g.close("heis_fidelities(d, 1/2) = heis_symmetric_fidelity(d)", r["heis_half"],
            (r["heis_sym"],) * 2, TOL)
    g.close("heis_fidelities(2, p) = pauli_fidelities(p)", r["heis2"], r["pauli"], TOL)
    g.close("fan_nmd_fidelity(N, M, 2) = gm_fidelity(N, M)", r["fan2"], r["gm"], TOL)
    g.close("closed_form_fidelity('gm') = gm_fidelity", r["closed_form_fidelity"], r["gm"], TOL)
    g.close("pc_d_fidelity(2) = pc2_fidelity", r["pc_d2"], r["pc2"], TOL)
    g.close("econ_fidelity(2) = pc2_fidelity", r["econ2"], r["pc2"], TOL)
    g.close("pc_fidelity(1, 2) = pc2_fidelity", r["pc12"], r["pc2"], TOL)
    g.close("kr_fidelity(1/2, pi/2) = pc2_fidelity", r["kr_eq"], r["pc2"], TOL)
    g.close("uqcm_fidelity from its scaling", r["uqcm"],
            (r["uqcm_scaling"] * (d - 1) + 1) / d, TOL)
    g.close("bh_pb_distortion = closed_form_pointwise distortion", r["bh_pb_distortion"],
            r["pointwise_pb"][0], TOL)
    g.close("bh_pb_fidelity = closed_form_pointwise fidelity", r["bh_pb_fidelity"],
            r["pointwise_pb"][1], TOL)
    g.close("bh_pb_avg_distortion = closed_form_averages", r["bh_pb_avg_distortion"],
            r["averages_pb"][0], TOL)
    g.close("f_hcm(1/6, 1/6) = 5/6", r["f_hcm_universal"], 5 / 6, TOL)
    g.close("bh_pauli_table(p, 0) = 5/6", r["bh_pauli_0"], (5 / 6, 5 / 6), TOL)
    g.close("bh_pauli_table(p, 1) = pauli_fidelities(p)", r["bh_pauli_1"], r["pauli"], TOL)
    g.close("bh_anti_hybrid(0) = anti_fidelities", r["bh_anti_0"], r["anti"], TOL)
    g.close("bh_pc_hybrid_state_dependent", r["bh_pc_sd"],
            hybrid.bh_pc_hybrid(lam, 0.75 * a2 * (1 - a2)), TOL)
    x_gl, w_gl = np.polynomial.legendre.leggauss(GL_NODES)
    a0, a1, b0, b1 = x["u"]
    m2 = x["blank"][1]
    quad = np.array([deleters.sdep_pointwise(a0, a1, b0, b1, m2, t) for t in (x_gl + 1) / 2])
    g.close("sdep_averages = quadrature of sdep_pointwise", r["sdep_averages"], w_gl @ quad / 2, TOL)
    g.close("limiting_deletion_fidelity(1) = table_41_fidelity", r["limit1"], r["t41"], TOL)
    g.close("limiting_deletion_fidelity(2) = table_42_fidelity", r["limit2"], r["t42"], TOL)
    psi = bc.input_ket((math.sqrt(a2), math.sqrt(1 - a2)))
    g.close("broadcast_fidelity = <psi|rho_AB'|psi>", r["bcast_fidelity"],
            (psi.amps.conj() @ r["bcast_mats"]["AB'"] @ psi.amps).real, TOL)
    g.close("broadcast_outputs = broadcast_output_matrices",
            r["bcast_ops"]["AB'"].mat, r["bcast_mats"]["AB'"], TOL)
    g.close("rho_146_closed traced to (1,6) = rho_16_closed", r["rho_16_of_146"].mat,
            r["rho_16"].mat, TOL)
    insep = r["insep"]
    if min(abs(a2 - insep.lo), abs(a2 - insep.hi)) > 1e-6:
        verdict = r["measures"]["AB'"][1].verdict
        g.true(f"AB' verdict {verdict} at alpha^2 = {a2:.4f} vs interval {insep}",
               (verdict == "Inseparable") == insep.contains(a2))
    for key, (conc, verdict, (_, _, w4)) in r["measures"].items():
        mat = r["states"][key].mat
        g.close(f"{key} concurrence vs Wootters", conc, _wootters(mat), TOL_CONCURRENCE)
        _verdict_agrees(g, key, conc, verdict)
        pt = mat.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)
        g.close(f"{key} W4 = det of the partial transpose", w4, np.prod(np.linalg.eigvalsh(pt)), TOL)
    for tid, table in r["tables"].items():
        g.true(f"table {tid} (closed_form) does not match the printed values", table.all_match())
