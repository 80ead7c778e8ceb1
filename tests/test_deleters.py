import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclone import deleters
from qclone.deleters import BlankState, DeleterSpec, build_deleter, delete_report, transformer
from qclone.qcore import (
    DensityOperator,
    StateVector,
    bell_state,
    ket,
    partial_trace,
    realize_gram,
)
from test_qcore import kron_all


RNG = np.random.default_rng(77)

SPECS = [
    DeleterSpec("pb"),
    DeleterSpec("pb", (BlankState(0.6, 0.8),)),
    DeleterSpec("qiu", (1.0,)),
    DeleterSpec("qiu", (-1.0,)),
    DeleterSpec("conv", (0.0,)),
    DeleterSpec("conv", (0.3,)),
    DeleterSpec("conv", (0.3, BlankState(0.6, 0.8))),
    DeleterSpec("conv", (0.5 - 1e-6,)),
    DeleterSpec("sdep", (1.0, 0.0, 0.0, 1.0)),
    DeleterSpec("sdep", (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2)),
]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_every_deleter_is_an_isometry(spec):
    assert build_deleter(spec).isometry_defect() < 1e-9


def test_transformer_definition_and_unitarity():
    t = transformer()
    assert np.max(np.abs(t.conj().T @ t - np.eye(4))) < 1e-12
    assert np.max(np.abs(t @ kron_all(ket(0), ket(0)) - bell_state("psi+"))) < 1e-12
    # applying twice to |01>: T|11> = |00>
    twice = t @ (t @ kron_all(ket(0), ket(1)))
    assert np.max(np.abs(twice - kron_all(ket(0), ket(0)))) < 1e-12


def test_pb_passthrough_and_values():
    machine = build_deleter(DeleterSpec("pb"))
    col01 = machine.matrix[:, 1]
    assert np.max(np.abs(col01 - kron_all(ket(0), ket(1), ket(0, 3)))) < 1e-12
    rep = delete_report(DeleterSpec("pb"), StateVector((2,), [math.sqrt(0.5), math.sqrt(0.5)]))
    assert abs(rep.F_1 - 0.5) < 1e-12
    assert abs(rep.F_2 - 0.75) < 1e-12
    assert abs(rep.avg_F_1 - 2 / 3) < 1e-9
    assert abs(rep.avg_F_2 - 5 / 6) < 1e-9
    # classical bits are retained and deleted perfectly
    for amps in ([1, 0], [0, 1]):
        rep = delete_report(DeleterSpec("pb", (BlankState(1.0, 0.0),)), StateVector((2,), amps))
        if amps == [1, 0]:
            assert abs(rep.F_1 - 1) < 1e-12 and abs(rep.F_2 - 1) < 1e-12
        else:
            assert abs(rep.F_1 - 1) < 1e-12


def test_pb_closed_forms_across_inputs():
    for a2 in np.linspace(0, 1, 9):
        rep = delete_report(DeleterSpec("pb"), StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)]))
        ab2 = a2 * (1 - a2)
        assert abs(rep.F_1 - (1 - 2 * ab2)) < 1e-12
        assert abs(rep.F_2 - (1 - ab2)) < 1e-12


def _reference_pb(blank):
    """The conditional deleter's columns written out; the machine kets A
    (pass-through), A0, A1 are orthonormal."""
    a, a0, a1 = ket(0, 3), ket(1, 3), ket(2, 3)
    cols = np.zeros((4 * 3, 4), dtype=complex)
    cols[:, 0] = kron_all(ket(0), blank.vec, a0)
    cols[:, 1] = kron_all(ket(0), ket(1), a)
    cols[:, 2] = kron_all(ket(1), ket(0), a)
    cols[:, 3] = kron_all(ket(1), blank.vec, a1)
    return cols


@pytest.mark.parametrize(
    "blank",
    [
        BlankState(1.0, 0.0),
        BlankState(0.6, 0.8),
        BlankState(0.0, 1.0),
        BlankState(1 / math.sqrt(2), -1j / math.sqrt(2)),
    ],
    ids=str,
)
def test_pb_equals_its_column_definition(blank):
    machine = build_deleter(DeleterSpec("pb", (blank,)))
    assert machine.out_dims == (2, 2, 3)
    assert np.array_equal(machine.matrix, _reference_pb(blank))


def test_deletion_target_reads_the_blank_of_every_family():
    blank = BlankState(0.6, 0.8)
    r2 = math.sqrt(2)
    cases = [
        (DeleterSpec("pb", (blank,)), [0.6, 0.8]),
        (DeleterSpec("conv", (0.3, blank, 0.2)), [-0.2 / r2, 1.4 / r2]),
        (DeleterSpec("sdep", deleters.SDEP_EXAMPLE + (blank,)), [0.6, 0.8]),
        (DeleterSpec("qiu", (1.0,)), [1.0, 0.0]),
        # no blank among the parameters: the default |0>
        (DeleterSpec("pb"), [1.0, 0.0]),
        (DeleterSpec("conv", (0.3,)), [1 / r2, 1 / r2]),
        (DeleterSpec("sdep", deleters.SDEP_EXAMPLE), [1.0, 0.0]),
    ]
    for spec, expected in cases:
        assert np.allclose(deleters.deletion_target(spec), expected, atol=1e-15), spec


def test_qiu_deleter():
    spec = DeleterSpec("qiu", (1.0,))
    machine = build_deleter(spec)
    # pass-through branch
    col = machine.matrix[:, 1]
    assert np.max(np.abs(col - kron_all(ket(0), ket(1)))) < 1e-12
    for a2 in np.linspace(0, 1, 7):
        rep = delete_report(spec, StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)]))
        assert abs(rep.F_2 - 0.5) < 1e-12
    with pytest.raises(ValueError):
        deleters.build_qiu(0.6)


def test_conv_column_norms_at_quarter():
    machine = build_deleter(DeleterSpec("conv", (0.25,)))
    norms = np.linalg.norm(machine.matrix, axis=0)
    assert np.max(np.abs(norms - 1)) < 1e-9


def test_conv_f2_universal():
    for lam in (0.1, 0.3, 0.45):
        for m1 in (1.0, 0.8, 1 / math.sqrt(2)):
            blank = BlankState(m1, math.sqrt(1 - m1 * m1))
            spec = DeleterSpec("conv", (lam, blank))
            for a2 in (0.1, 0.5, 0.9):
                rep = delete_report(spec, StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)]))
                assert abs(rep.F_2 - 0.5) < 1e-9
                assert abs(rep.F_1 - deleters.conv_f1(lam, a2)) < 1e-9


def test_conv_machine_overlap_is_y_squared():
    lam = 0.2
    y = deleters.conv_max_y(lam)
    assert abs(y - math.sqrt((1 - 2 * lam) / 3)) < 1e-7
    overlaps = []
    spec = DeleterSpec("conv", (lam,))
    for a2 in np.linspace(0.05, 0.95, 10):
        rep = delete_report(spec, StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)]))
        overlaps.append(rep.machine_overlap)
    assert np.std(overlaps) < 1e-9
    assert abs(overlaps[0] - y * y) < 1e-7
    # explicit Y is honored
    spec = DeleterSpec("conv", (lam, BlankState(1.0, 0.0), 0.2))
    rep = delete_report(spec, StateVector((2,), [math.sqrt(0.4), math.sqrt(0.6)]))
    assert abs(rep.machine_overlap - 0.04) < 1e-9


def _bisect_max_y(lam, steps=30):
    """Oracle: the largest Y keeping conv_gram PSD, by bisection on [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if np.linalg.eigvalsh(deleters.conv_gram(lam, mid).gram)[0] >= 0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.2, 0.45, 0.49, 0.5])
def test_conv_max_y_closed_form_matches_bisection(lam):
    assert abs(deleters.conv_max_y(lam) - _bisect_max_y(lam)) < 1e-9


def test_conv_max_y_domain():
    for lam in (-0.1, 0.6):
        with pytest.raises(ValueError):
            deleters.conv_max_y(lam)


def _loop_average_fidelities(spec, n_transformers):
    """Oracle: one density matrix per Gauss-Legendre node, transformers
    applied as T rho T^dag on the full space, then traced."""
    machine = build_deleter(spec)
    # T^n on the two data qubits, the leading factors, times the identity on the machine, if any
    t_n = np.linalg.matrix_power(transformer(), n_transformers)
    t_full = np.kron(t_n, np.eye(math.prod(machine.out_dims[2:])))
    target = deleters.deletion_target(spec)
    x, w = np.polynomial.legendre.leggauss(64)
    f1 = f2 = 0.0
    for a2, wi in zip((x + 1) / 2, w / 2):
        psi = np.array([math.sqrt(a2), math.sqrt(1 - a2)], dtype=complex)
        out = machine.matrix @ np.kron(psi, psi)
        rho = DensityOperator(machine.out_dims, t_full @ np.outer(out, out.conj()) @ t_full.conj().T)
        f1 += wi * np.real(psi.conj() @ partial_trace(rho, [0]).mat @ psi)
        f2 += wi * np.real(target.conj() @ partial_trace(rho, [1]).mat @ target)
    return f1, f2


AVERAGE_SPECS = [
    DeleterSpec("pb", (BlankState(0.6, 0.8),)),
    DeleterSpec("qiu", (1.0,)),
    DeleterSpec("conv", (0.3, BlankState(0.6, 0.8))),
    DeleterSpec("sdep", (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2, BlankState(0.6, 0.8))),
]


@pytest.mark.parametrize("n_transformers", [0, 1, 2])
@pytest.mark.parametrize("spec", AVERAGE_SPECS, ids=str)
def test_batched_average_fidelities_match_per_node_loop(spec, n_transformers):
    got = deleters.average_fidelities(spec, n_transformers)
    ref = _loop_average_fidelities(spec, n_transformers)
    assert max(abs(g - r) for g, r in zip(got, ref)) < 1e-12


def test_one_transformer_limits():
    blank = BlankState(1 / math.sqrt(2), 1 / math.sqrt(2))
    # exact limit evaluators agree with the closed form
    for m1sq in (0.1, 0.5, 0.9):
        m1, m2 = math.sqrt(m1sq), math.sqrt(1 - m1sq)
        for sign in (1, -1):
            b = BlankState(m1, sign * m2)
            lim = deleters.limiting_deletion_fidelity(1, b)
            assert abs(lim - deleters.table_41_fidelity(m1, sign * m2)) < 1e-12
    # epsilon simulation converges monotonically to the limit
    devs = []
    for eps in (1e-3, 1e-6):
        spec = DeleterSpec("conv", (0.5 - eps, blank))
        rep = delete_report(spec, StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)]), 1)
        devs.append(abs(rep.F_2 - 0.75))
    assert devs[1] < devs[0]
    assert devs[1] < 5e-3
    # retained-mode fidelity and its average in the limit
    spec = DeleterSpec("conv", (0.5 - 1e-6, blank))
    rep = delete_report(spec, StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)]), 1)
    assert abs(rep.F_1 - deleters.conv_f3_limit(0.3)) < 1e-5
    assert abs(rep.avg_F_1 - deleters.conv_avg_f3_limit()) < 1e-5
    assert abs(deleters.conv_avg_f3_limit() - 0.77) < 8e-3


def test_two_transformer_limit_state():
    blank = BlankState(0.6, 0.8)
    lim = deleters.limiting_deletion_fidelity(2, blank)
    assert abs(lim - deleters.table_42_fidelity(0.6, 0.8)) < 1e-12
    # input independence at lambda near 1/2
    spec = DeleterSpec("conv", (0.5 - 1e-6, blank))
    f2s = [
        delete_report(spec, StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)]), 2).F_2
        for a2 in (0.1, 0.5, 0.9)
    ]
    assert np.ptp(f2s) < 1e-5
    assert abs(f2s[0] - lim) < 1e-5
    with pytest.raises(ValueError):
        deleters.limiting_deletion_fidelity(3, blank)


@pytest.mark.parametrize("n_transformers", [1, 2])
def test_limiting_deletion_fidelity_equals_matrix_form(n_transformers):
    # Re(t^dag rho_2 t), t = (|Sigma> + |Sigma_perp>)/sqrt2, with rho_2 the
    # deleted mode of T^n (|01> + |10>)/sqrt2
    amps = (np.linalg.matrix_power(transformer(), n_transformers) @ bell_state("psi+")).reshape(2, 2)
    rho_2 = amps.T @ amps.conj()
    rng = np.random.default_rng(41 + n_transformers)
    for theta, phi in rng.uniform(0, 2 * math.pi, size=(200, 2)):
        blank = BlankState(math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
        t = (blank.vec + blank.perp) / math.sqrt(2)
        ref = float(np.real(t.conj() @ rho_2 @ t))
        assert abs(deleters.limiting_deletion_fidelity(n_transformers, blank) - ref) < 1e-15


def test_two_transformer_output_matrix():
    # the limiting deleted-mode state approaches the fixed matrix entrywise
    target = np.array(
        [
            [5 / 8, (1 / math.sqrt(2) - 1) / 4],
            [(1 / math.sqrt(2) - 1) / 4, 3 / 8],
        ]
    )
    devs = []
    for eps in (1e-3, 1e-6):
        spec = DeleterSpec("conv", (0.5 - eps, BlankState(1.0, 0.0)))
        rho_2 = deleters.delete_reports(spec, [[math.sqrt(0.3), math.sqrt(0.7)]], 2).rho_2[0]
        devs.append(np.max(np.abs(rho_2 - target)))
    assert devs[1] < devs[0]
    assert devs[1] < 1e-5


def test_pb_with_transformer():
    blank = BlankState(1 / math.sqrt(2), -1 / math.sqrt(2))
    expected = 0.5 + 1 / (2 * math.sqrt(2))
    for a2 in (0.0, 0.5, 1.0):
        _, f2 = deleters.pb_with_transformer(blank, StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)]))
        assert abs(f2 - expected) < 1e-9
    # the formula path matches the simulation for a generic real blank
    blank = BlankState(0.8, 0.6)
    for a2 in (0.2, 0.7, 1.0):
        _, f2 = deleters.pb_with_transformer(blank, StateVector((2,), [math.sqrt(a2), math.sqrt(1 - a2)]))
        assert abs(f2 - deleters.pb_transformer_fidelity(0.8, 0.6, a2)) < 1e-9


def test_song_optimal_fidelity():
    assert abs(deleters.song_optimal_fidelity(0.0, 0.7, 0.1, 0.4) - 1.0) < 1e-12
    assert abs(deleters.song_optimal_fidelity(0.5, math.pi / 4, 0.0, 0.0) - 0.5) < 1e-12
    assert abs(deleters.song_optimal_fidelity(0.5, 0.25, 0.8, 0.3) - 1.0) < 1e-12  # sin term 0
    with pytest.raises(ValueError):
        deleters.song_optimal_fidelity(1.5, 0, 0, 0)


@pytest.mark.parametrize(
    "angles", [(math.nan, 0.0, 0.0), (0.1, math.inf, 0.0), (0.1, 0.0, -math.inf)]
)
def test_song_optimal_fidelity_rejects_non_finite_angles(angles):
    # max(0.0, nan) is 0.0, so a NaN angle once gave a valid-looking 0.5
    with pytest.raises(ValueError, match=r"must lie in \(-inf, inf\), got "):
        deleters.song_optimal_fidelity(0.5, *angles)


BLANK_EVALUATORS = {
    "table_41_fidelity": deleters.table_41_fidelity,
    "table_42_fidelity": deleters.table_42_fidelity,
    "pb_transformer_fidelity": lambda m1, m2: deleters.pb_transformer_fidelity(m1, m2, 0.3),
}


@pytest.mark.parametrize("blank", [(2.0, 0.0), (math.nan, 0.5), (0.6, 0.6), (0.6, math.inf)])
@pytest.mark.parametrize("fn", BLANK_EVALUATORS.values(), ids=BLANK_EVALUATORS.keys())
def test_blank_amplitude_evaluators_reject_an_invalid_blank(fn, blank):
    with pytest.raises(ValueError, match="blank state must satisfy"):
        fn(*blank)


@pytest.mark.parametrize("fn", BLANK_EVALUATORS.values(), ids=BLANK_EVALUATORS.keys())
def test_blank_amplitude_evaluators_accept_normalized_blanks(fn):
    for m1 in (0.0, 0.3, 1.0):
        for sign in (1.0, -1.0):
            assert math.isfinite(fn(m1, sign * math.sqrt(1 - m1 * m1)))


@pytest.mark.parametrize("overlap", [1.5, -1.0000001, math.nan])
def test_sdep_closed_forms_reject_a_blank_overlap_outside_unit_interval(overlap):
    with pytest.raises(ValueError, match=r"blank overlap must lie in \[-1, 1\], got"):
        deleters.sdep_averages(*deleters.SDEP_EXAMPLE, overlap)
    with pytest.raises(ValueError, match=r"blank overlap must lie in \[-1, 1\], got"):
        deleters.sdep_pointwise(*deleters.SDEP_EXAMPLE, overlap, 0.3)


def test_sdep_closed_forms_accept_blank_overlap_ends():
    for overlap in (-1.0, 0.0, 1.0):
        assert np.all(np.isfinite(deleters.sdep_averages(*deleters.SDEP_EXAMPLE, overlap)))
        assert np.all(np.isfinite(deleters.sdep_pointwise(*deleters.SDEP_EXAMPLE, overlap, 0.3)))


def test_sdep_averages_and_quadrature():
    a0, a1, b0, b1 = math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2
    d_avg, f_avg = deleters.sdep_averages(a0, a1, b0, b1, 0.0)
    assert abs(d_avg - 1 / 3) < 1e-12
    assert abs(f_avg - 5 / 6) < 1e-12
    # quadrature of the pointwise forms reproduces the closed averages
    x, w = np.polynomial.legendre.leggauss(64)
    t = (x + 1) / 2
    w = w / 2
    for m in (0.0, 0.5):
        d_acc = f_acc = 0.0
        for ti, wi in zip(t, w):
            d, f = deleters.sdep_pointwise(a0, a1, b0, b1, m, ti)
            d_acc += wi * d
            f_acc += wi * f
        d_ref, f_ref = deleters.sdep_averages(a0, a1, b0, b1, m)
        assert abs(d_acc - d_ref) < 1e-9
        assert abs(f_acc - f_ref) < 1e-9
    # deletion-fidelity average from the simulation (blank |0>, M = 0)
    spec = DeleterSpec("sdep", (a0, a1, b0, b1))
    _, af2 = deleters.average_fidelities(spec)
    assert abs(af2 - f_avg) < 1e-9
    with pytest.raises(ValueError, match="columns are not orthonormal"):
        deleters.build_sdep(1.0, 1.0, 0.0, 0.0)  # violates pairwise orthogonality


def test_delete_report_validation():
    with pytest.raises(ValueError):
        delete_report(DeleterSpec("pb"), StateVector((2,), [1, 0]), n_transformers=3)
    with pytest.raises(ValueError):
        build_deleter(DeleterSpec("nope"))


# ---------------------------------------------------------------------------
# input-independent work done once: conv assembly, per-spec caches, constants


def _kron_conv_parts(lmbda, blank, y):
    """Reference: the conv columns assembled with kron and pad."""
    vecs = realize_gram(deleters.conv_gram(lmbda, y))
    rank = vecs.shape[0]
    mdim = max(rank, 2)
    a, a0, a1, b0, b1, c0, d0 = (np.pad(vecs[:, i], (0, mdim - rank)) for i in range(7))
    sigma, sigma_p = blank.vec, blank.perp
    s01 = np.kron(ket(0), ket(1))
    s10 = np.kron(ket(1), ket(0))
    sym = s01 + s10
    cols = np.zeros((4 * mdim, 4), dtype=complex)
    cols[:, 0] = np.kron(np.kron(ket(0), sigma), a0) + np.kron(sym, b0)
    cols[:, 1] = np.kron(np.kron(ket(0), sigma_p), d0) + np.kron(s10, c0)
    cols[:, 2] = np.kron(np.kron(ket(1), sigma), d0) + np.kron(s01, c0)
    cols[:, 3] = np.kron(np.kron(ket(1), sigma_p), a1) + np.kron(sym, b1)
    return cols, a


@settings(max_examples=60, deadline=None)
@given(
    lmbda=st.floats(0.0, 0.5),
    theta=st.floats(0.0, math.pi / 2),
    phi=st.floats(0.0, 2 * math.pi),
    y_frac=st.none() | st.floats(0.0, 1.0),
)
@example(lmbda=0.1, theta=0.0, phi=0.0, y_frac=None)
@example(lmbda=0.2, theta=0.7, phi=1.3, y_frac=None)
def test_conv_assembly_by_index_matches_kron_reference(lmbda, theta, phi, y_frac):
    blank = BlankState(math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
    y_max = deleters.conv_max_y(lmbda)
    y = None if y_frac is None else y_frac * y_max
    machine, a = deleters._conv_parts(lmbda, blank, y)
    cols, a_ref = _kron_conv_parts(lmbda, blank, y_max if y is None else y)
    assert machine.matrix.shape == cols.shape
    assert np.max(np.abs(machine.matrix - cols)) <= 1e-15
    assert np.max(np.abs(a - a_ref)) <= 1e-15


def _clear_deleter_caches():
    deleters._deleter_parts.cache_clear()
    deleters.average_fidelities.cache_clear()


def test_cold_conv_delete_report_realizes_the_gram_once(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec)
        return realize_gram(spec)

    _clear_deleter_caches()
    monkeypatch.setattr(deleters, "realize_gram", counting)
    psi = StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)])
    delete_report(DeleterSpec("conv", (0.2, BlankState(0.6, 0.8))), psi, 1)
    assert len(calls) == 1


def test_cached_deleter_and_transformer_arrays_are_read_only():
    for spec in (DeleterSpec("pb"), DeleterSpec("conv", (0.3,))):
        with pytest.raises(ValueError):
            build_deleter(spec).matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        transformer()[0, 0] = 1.0


def test_invalid_deleter_spec_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            build_deleter(DeleterSpec("conv", (0.7,)))
        with pytest.raises(ValueError):
            build_deleter(DeleterSpec("qiu", (0.5,)))


@pytest.mark.parametrize("n_transformers", [0, 1, 2])
@pytest.mark.parametrize("spec", AVERAGE_SPECS, ids=str)
def test_warm_delete_report_equals_cold(spec, n_transformers):
    psi = StateVector((2,), [math.sqrt(0.3), math.sqrt(0.7)])
    _clear_deleter_caches()
    cold = delete_report(spec, psi, n_transformers)
    warm = delete_report(spec, psi, n_transformers)
    for name in ("F_1", "F_2", "machine_overlap", "avg_F_1", "avg_F_2"):
        assert getattr(warm, name) == getattr(cold, name)
    for name in ("rho_1", "rho_2", "rho_3"):
        c, w = getattr(cold, name), getattr(warm, name)
        assert (c is None and w is None) or np.array_equal(c.mat, w.mat)


# ---------------------------------------------------------------------------
# batched reports


@st.composite
def blanks(draw):
    m1 = draw(st.floats(0.0, 1.0))
    phase = draw(st.floats(0.0, 2 * math.pi))
    return BlankState(m1, math.sqrt(1 - m1 * m1) * complex(math.cos(phase), math.sin(phase)))


@st.composite
def sdep_params(draw):
    t, phi, chi = (draw(st.floats(0.0, 2 * math.pi)) for _ in range(3))
    a0, b0 = math.cos(t), complex(math.cos(phi), math.sin(phi)) * math.sin(t)
    rot = complex(math.cos(chi), math.sin(chi))
    a1, b1 = -rot * b0.conjugate(), rot * a0  # (a1, b1) orthogonal to (a0, b0)
    return (a0, a1, b0, b1, draw(blanks()))


# parameter strategy of every deleter family
DELETER_PARAMS = {
    "pb": st.one_of(st.just(()), st.tuples(blanks())),
    "qiu": st.tuples(st.sampled_from([1.0, -1.0])),
    "conv": st.tuples(st.floats(0.0, 0.5), blanks()),
    "sdep": sdep_params(),
}


def test_batched_property_covers_every_deleter_family():
    assert set(DELETER_PARAMS) == set(deleters.DELETERS)


@st.composite
def deleter_cases(draw):
    family = draw(st.sampled_from(sorted(DELETER_PARAMS)))
    spec = DeleterSpec(family, draw(DELETER_PARAMS[family]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), 2)
    kets = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return spec, kets / np.linalg.norm(kets, axis=1, keepdims=True), draw(st.sampled_from([0, 1, 2]))


@settings(max_examples=80, deadline=None)
@given(deleter_cases())
def test_delete_reports_equal_the_per_input_loop(case):
    spec, kets, n_transformers = case
    reps = deleters.delete_reports(spec, kets, n_transformers)
    has_machine = len(build_deleter(spec).out_dims) > 2
    assert (reps.rho_3 is not None) == has_machine and (reps.machine_overlap is not None) == has_machine
    # 1e-15, not bit for bit: a complex BLAS product such as amps @ V.T may
    # round a batch of one otherwise than a larger batch (see qcore.DENSITY_TOL)
    for i, v in enumerate(kets):
        rep = delete_report(spec, StateVector((2,), v), n_transformers)
        names = ("F_1", "F_2", "machine_overlap") if has_machine else ("F_1", "F_2")
        for name in names:
            assert abs(getattr(reps, name)[i] - getattr(rep, name)) <= 1e-15, name
        for name in ("rho_1", "rho_2", "rho_3") if has_machine else ("rho_1", "rho_2"):
            assert np.max(np.abs(getattr(reps, name)[i] - getattr(rep, name).mat)) <= 1e-15


@pytest.mark.parametrize("spec", [DeleterSpec("conv", (0.2,)), DeleterSpec("pb"), DeleterSpec("qiu", (1.0,))], ids=str)
def test_delete_reports_make_no_eigensolve(monkeypatch, spec):
    build_deleter(spec)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    for n in (1, 7, 40):
        deleters.delete_reports(spec, deleters.real_inputs(np.linspace(0, 1, n)), 1)
    assert calls == []  # the marginals are reductions of checked input pairs


def test_delete_reports_leave_the_averages_to_the_spec():
    spec = DeleterSpec("conv", (0.3, BlankState(0.6, 0.8)))
    reps = deleters.delete_reports(spec, deleters.real_inputs(deleters.GL_ALPHA2), 1)
    avg = deleters.average_fidelities(spec, 1)
    assert abs(avg[0] - deleters.GL_WEIGHTS @ reps.F_1) < 1e-15
    assert abs(avg[1] - deleters.GL_WEIGHTS @ reps.F_2) < 1e-15
    assert not hasattr(reps, "avg_F_1")


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([0, 1, 2]),
    st.booleans(),
)
# a one-ket overlap spelled apart from the stacked one moved F_2 by its last bit
@example(0.0, 0, 2, 3, 0, True)
def test_delete_reports_of_a_blank_stack_are_those_of_each_deleter(lam, seed, n_machines, n, n_transformers, shared):
    """One pass over a stack of conv deleters, on one input stack for every
    machine or one per machine, gives each machine's one-machine pass bit
    for bit."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_machines, 2)) + 1j * rng.normal(size=(n_machines, 2))
    z = z / np.linalg.norm(z, axis=1, keepdims=True) * np.exp(-1j * np.angle(z[:, :1]))
    m1, m2 = z[:, 0].real, z[:, 1]
    shape = (n, 2) if shared else (n_machines, n, 2)
    kets = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    reps = deleters.delete_reports(DeleterSpec("conv", (lam, BlankState(m1, m2))), kets, n_transformers)
    for i in range(n_machines):
        spec = DeleterSpec("conv", (lam, BlankState(float(m1[i]), complex(m2[i]))))
        one = deleters.delete_reports(spec, kets if shared else kets[i], n_transformers)
        for name in deleters.DeletionReports._fields:
            assert np.array_equal(getattr(reps, name)[i], getattr(one, name)), name


def test_delete_report_rejects_a_stack_spec_before_any_pass(monkeypatch):
    passes = []
    marginals = deleters._marginal_fidelities
    monkeypatch.setattr(deleters, "_marginal_fidelities", lambda *args: passes.append(args[1]) or marginals(*args))
    psi = StateVector((2,), [0.6, 0.8])
    stack = DeleterSpec("conv", (0.3, BlankState(np.array([0.6, 1.0]), np.array([0.8, 0.0]))))
    with pytest.raises(ValueError, match="^the conv spec builds a stack of deleters: use delete_reports$"):
        delete_report(stack, psi)
    assert passes == []
    delete_report(DeleterSpec("conv", (0.3, BlankState(0.6, 0.8))), psi)
    assert passes and all(machine.matrix.ndim == 2 for machine in passes)


def test_delete_reports_reject_a_stack_of_wrong_shape():
    for amps in (np.zeros((0, 2)), np.eye(4), np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match=r"\(n, 2\) stack"):
            deleters.delete_reports(DeleterSpec("pb"), amps)


def test_nan_blank_is_rejected_before_any_average():
    with pytest.raises(ValueError, match="blank state must satisfy"):
        deleters.average_fidelities(DeleterSpec("pb", (BlankState(math.nan, 0.0),)), 0)


@pytest.mark.parametrize(
    "spec, message",
    [
        (DeleterSpec("qiu", (math.nan,)), "r1 = nan"),
        (DeleterSpec("sdep", (math.nan, 0.0, 0.0, 1.0)), r"V\^dag V deviates by nan"),
        (DeleterSpec("sdep", (1.0, math.nan, 0.0, 1.0)), r"V\^dag V deviates by nan"),
    ],
    ids=str,
)
def test_nan_deleter_parameter_is_rejected_by_name(spec, message):
    with pytest.raises(ValueError, match=message):
        build_deleter(spec)


def test_the_written_out_quadrature_rule_is_leggauss_64_and_symmetric():
    x, w = np.polynomial.legendre.leggauss(64)
    assert np.abs(deleters._GL_X - x).max() <= 1e-15
    assert np.abs(deleters._GL_W - w).max() <= 1e-15
    assert np.array_equal(deleters._GL_X, -deleters._GL_X[::-1])
    assert np.array_equal(deleters._GL_W, deleters._GL_W[::-1])
    assert np.array_equal(deleters.GL_ALPHA2, (deleters._GL_X + 1) / 2)
    assert np.array_equal(deleters.GL_WEIGHTS, deleters._GL_W / 2)
