"""Every machine builder writes its columns by index into one
(outputs..., input) array.  These tests pin each builder to a local copy of
the tensor-product construction it replaced, entry for entry
(``np.array_equal``, so only the signs of zeros may differ), and check that
no builder calls ``np.kron`` or ``np.pad``."""

import inspect
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclone import cli, cloners, concat, deleters, qcore, tables
from qclone.cloners import FAMILIES, MachineSpec, bh_gram, build_machine
from qclone.hybrid import hybrid_machine
from qclone.qcore import BlankState, GramSpec, StateVector, bell_state, ket, realize_gram, symmetric_basis_state
from families import HYBRID_KINDS, probabilities, within


# ---------------------------------------------------------------------------
# the tensor-product constructions, as they were written before


def _symmetric_by_loop(n_qubits, n_ones):
    v = np.zeros(2**n_qubits, dtype=complex)
    for bits in product((0, 1), repeat=n_qubits):
        if sum(bits) == n_ones:
            v[int("".join(map(str, bits)), 2)] = 1.0
    return v / np.linalg.norm(v)


def _realize_gram_by_loop(spec):
    evals, evecs = np.linalg.eigh(spec.gram)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = int(np.sum(evals > 1e-9))
    evals, evecs = evals[:rank], evecs[:, :rank]
    for k in range(rank):
        col = evecs[:, k]
        j = np.argmax(np.abs(col) > 1e-12)
        evecs[:, k] = col / (col[j] / abs(col[j]))
    return np.sqrt(evals)[:, None] * evecs.conj().T


def _bh_by_kron(xi):
    vecs = realize_gram(bh_gram(xi))
    rank = vecs.shape[0]
    mdim = max(rank, 2)
    q0, q1, y0, y1 = (np.pad(vecs[:, i], (0, mdim - rank)) for i in range(4))
    s01 = np.kron(ket(0), ket(1)) + np.kron(ket(1), ket(0))
    cols = np.zeros((4 * mdim, 2), dtype=complex)
    cols[:, 0] = np.kron(np.kron(ket(0), ket(0)), q0) + np.kron(s01, y0)
    cols[:, 1] = np.kron(np.kron(ket(1), ket(1)), q1) + np.kron(s01, y1)
    return cols


def _sdep_by_kron(a0, a1, b0, b1, blank):
    q, qa0, qa1 = ket(0, 3), ket(1, 3), ket(2, 3)
    s01 = np.kron(ket(0), ket(1))
    s10 = np.kron(ket(1), ket(0))
    cols = np.zeros((12, 4), dtype=complex)
    cols[:, 0] = np.kron(np.kron(ket(0), blank.vec), qa0)
    cols[:, 1] = np.kron(a0 * s01 + b0 * s10, q)
    cols[:, 2] = np.kron(a1 * s01 + b1 * s10, q)
    cols[:, 3] = np.kron(np.kron(ket(1), blank.vec), qa1)
    return cols


def _econ_by_kron(d, blank):
    cols = np.zeros((d * d, d), dtype=complex)
    for k in range(d):
        if k == blank:
            cols[:, k] = np.kron(ket(k, d), ket(k, d))
        else:
            cols[:, k] = (np.kron(ket(k, d), ket(blank, d)) + np.kron(ket(blank, d), ket(k, d))) / math.sqrt(2)
    return cols


def _gm_1m_by_kron(M):
    alphas = np.sqrt([2 * (M - j) / (M * (M + 1)) for j in range(M)])
    cols = np.zeros((2**M * M, 2), dtype=complex)
    for j in range(M):
        cols[:, 0] += alphas[j] * np.kron(_symmetric_by_loop(M, j), ket(j, M))
        cols[:, 1] += alphas[j] * np.kron(_symmetric_by_loop(M, M - j), ket(M - 1 - j, M))
    return cols


def _mixed_column_by_kron(M, j, sector_state):
    col = np.zeros(2**M * (M - 1), dtype=complex)
    for k in range(M - 1):
        col += cloners._mixed_alpha(j, k, M) * np.kron(sector_state(M, j + k), ket(k, M - 1))
    return col


def _antisymmetric_by_kron(M, n_ones):
    return np.kron(bell_state("psi-"), _symmetric_by_loop(M - 2, n_ones - 1))


def _mixed_2m_by_kron(M):
    sym_0, sym_1, sym_2 = (_mixed_column_by_kron(M, j, _symmetric_by_loop) for j in range(3))
    anti = _mixed_column_by_kron(M, 1, _antisymmetric_by_kron)
    root2 = math.sqrt(2)
    return np.stack([sym_0, (sym_1 + anti) / root2, (sym_1 - anti) / root2, sym_2], axis=1)


def _anti_by_kron():
    phase = np.exp(1j * math.acos(1 / math.sqrt(3)))
    r6, r2 = 1 / math.sqrt(6), 1 / math.sqrt(2)
    up, down, right, left = (ket(i, 4) for i in range(4))
    k00, k01, k10, k11 = (np.kron(ket(i), ket(j)) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    cols = np.zeros((16, 2), dtype=complex)
    cols[:, 0] = (
        r6 * np.kron(k00, up) + np.kron(r2 * phase * k01 - r6 * k10, right) + r6 * np.kron(k11, left)
    )
    cols[:, 1] = (
        r6 * np.kron(k11, right) + np.kron(r2 * phase * k10 - r6 * k01, up) + r6 * np.kron(k00, down)
    )
    return cols


def _qiu_by_kron(r1):
    a = np.array([r1, 0.0], dtype=complex)
    b = np.array([0.0, -r1], dtype=complex)
    cols = np.zeros((4, 4), dtype=complex)
    cols[:, 0] = (np.kron(ket(0), a) + np.kron(ket(1), b)) / math.sqrt(2)
    cols[:, 3] = 1j * (np.kron(ket(1), b) - np.kron(ket(0), a)) / math.sqrt(2)
    cols[:, 1] = np.kron(ket(0), ket(1))
    cols[:, 2] = np.kron(ket(1), ket(0))
    return cols


def _hybrid_by_columns(spec):
    v1, v2 = build_machine(spec.m1), build_machine(spec.m2)
    clone_dim = math.prod(v1.out_dims[:-1])
    m1_dim, m2_dim = v1.out_dims[-1], v2.out_dims[-1]
    mdim = max(m1_dim, m2_dim)
    din = math.prod(v1.in_dims)
    cols = np.zeros((clone_dim * mdim * 2, din), dtype=complex)
    for i in range(din):
        out = np.zeros((clone_dim, mdim, 2), dtype=complex)
        out[:, :m1_dim, 0] = math.sqrt(spec.lmbda) * v1.matrix[:, i].reshape(clone_dim, m1_dim)
        out[:, :m2_dim, 1] = math.sqrt(1 - spec.lmbda) * v2.matrix[:, i].reshape(clone_dim, m2_dim)
        cols[:, i] = out.reshape(-1)
    return cols


# ---------------------------------------------------------------------------
# random parameters


def _blank_and_unitary(seed):
    """A random complex blank (m1 real) and the amplitudes (a0, a1, b0, b1)
    of a random 2x2 unitary, whose columns are (a0, b0) and (a1, b1)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z) * np.exp(-1j * np.angle(z[0]))
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return BlankState(float(z[0].real), complex(z[1])), (u[0, 0], u[0, 1], u[1, 0], u[1, 1])


# ---------------------------------------------------------------------------
# each builder equals its tensor-product construction


@settings(max_examples=60, deadline=None)
@given(within(cloners.XI, least=1 / 6))  # the Gram is realizable from xi = 1/6
@example(1 / 6)  # rank 2: the optimal universal copier
@example(0.5)  # rank 2: Q0 = Q1 = 0
def test_bh_equals_kron_construction(xi):
    machine = cloners.build_bh(xi)
    assert np.array_equal(machine.matrix, _bh_by_kron(xi))
    assert machine.out_dims == (2, 2, max(realize_gram(bh_gram(xi)).shape[0], 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sdep_and_pb_equal_kron_construction(seed):
    blank, (a0, a1, b0, b1) = _blank_and_unitary(seed)
    assert np.array_equal(deleters.build_sdep(a0, a1, b0, b1, blank).matrix, _sdep_by_kron(a0, a1, b0, b1, blank))
    assert np.array_equal(deleters.build_pb(blank).matrix, _sdep_by_kron(*deleters.PB_MIXING, blank))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=5))
def test_econ_equals_kron_construction(d, blank):
    blank %= d
    assert np.array_equal(cloners.build_econ(d, blank).matrix, _econ_by_kron(d, blank))


@pytest.mark.parametrize("m_copies", range(2, 7))
def test_gm_1m_equals_kron_construction(m_copies):
    assert np.array_equal(cloners.build_gm_1m(m_copies).matrix, _gm_1m_by_kron(m_copies))


@pytest.mark.parametrize("m_copies", range(3, 7))
def test_mixed_2m_equals_kron_construction(m_copies):
    assert np.array_equal(cloners.build_mixed_2m(m_copies).matrix, _mixed_2m_by_kron(m_copies))


def test_mixed_23_equals_kron_construction():
    cols = np.stack([_mixed_column_by_kron(3, j, _symmetric_by_loop) for j in range(3)], axis=1)
    assert np.array_equal(cloners.build_mixed_23().matrix, cols)


def test_anti_and_qiu_equal_kron_construction():
    assert np.array_equal(cloners.build_anti().matrix, _anti_by_kron())
    for r1 in (1.0, -1.0):
        assert np.array_equal(deleters.build_qiu(r1).matrix, _qiu_by_kron(r1))


@pytest.mark.parametrize("kind", sorted(HYBRID_KINDS))
@settings(max_examples=20, deadline=None)
@given(p=probabilities, lam=probabilities)
def test_hybrid_machine_equals_column_loop(kind, p, lam):
    spec = HYBRID_KINDS[kind](p, lam)
    assert np.array_equal(hybrid_machine(spec).matrix, _hybrid_by_columns(spec))


@pytest.mark.parametrize("n_qubits", range(1, 8))
def test_symmetric_basis_state_equals_bit_string_loop(n_qubits):
    for n_ones in range(n_qubits + 1):
        assert np.array_equal(symmetric_basis_state(n_qubits, n_ones), _symmetric_by_loop(n_qubits, n_ones))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7), st.integers(0, 2**32 - 1))
def test_realize_gram_phases_equal_column_loop(n, rank, seed):
    # a random PSD Gram matrix of rank <= n, so that some columns are dropped
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(min(rank, n), n)) + 1j * rng.normal(size=(min(rank, n), n))
    spec = GramSpec(tuple(range(n)), vecs.conj().T @ vecs)
    assert realize_gram(spec).tobytes() == _realize_gram_by_loop(spec).tobytes()


# ---------------------------------------------------------------------------
# no builder calls np.kron or np.pad


def test_builders_need_neither_kron_nor_pad(monkeypatch):
    parser = cli.build_parser()
    defaults = parser.parse_args(["clone", "--family", "wz"])  # every `qclone clone` option
    clone_specs = [
        MachineSpec(family, tuple(getattr(defaults, name) for name in options))
        for family, (_, options, _) in FAMILIES.items()
    ]
    delete_options = dict(vars(parser.parse_args(["delete", "--family", "pb"])), blank=deleters.DEFAULT_BLANK)
    deleter_specs = [cli._deleter_spec(family, delete_options) for family in deleters.DELETERS]

    def forbidden(*args, **kwargs):
        raise AssertionError("a builder called np.kron or np.pad")

    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(np, "pad", forbidden)
    build_machine.cache_clear()
    deleters._deleter_parts.cache_clear()
    try:
        for spec in clone_specs:
            build_machine(spec)
        for spec in deleter_specs:
            deleters.build_deleter(spec)
        for make in HYBRID_KINDS.values():
            hybrid_machine(make(0.3, 0.4))
    finally:
        build_machine.cache_clear()
        deleters._deleter_parts.cache_clear()


# ---------------------------------------------------------------------------
# the catalog tables: each entry names its builder's parameters, and a
# parameter may be an array exactly where the entry says


CATALOGS = {"machine": (cloners.FAMILIES, MachineSpec), "deleter": (deleters.DELETERS, deleters.DeleterSpec)}
ENTRIES = [(kind, family) for kind, (table, _) in CATALOGS.items() for family in table]


@pytest.mark.parametrize("kind, family", ENTRIES, ids=[family for _, family in ENTRIES])
def test_each_entry_names_its_builders_parameters(kind, family):
    entry = CATALOGS[kind][0][family]
    assert entry.params == tuple(inspect.signature(entry.build).parameters)
    assert set(entry.stack) <= set(entry.params)


# ---------------------------------------------------------------------------
# a stack spec given where the table allows none, or to a single-spec driver


_P_STACK = MachineSpec("pauli-asym", (np.array([0.2, 0.3]),))
_BLANKS = BlankState(np.array([1.0, 0.6]), np.array([0.0, 0.8]))
_PSI = StateVector((2,), [0.6, 0.8])
_BLANK_STACK = {
    "conv": deleters.DeleterSpec("conv", (0.3, _BLANKS)),
    "pb": deleters.DeleterSpec("pb", (_BLANKS,)),
    "sdep": deleters.DeleterSpec("sdep", deleters.SDEP_EXAMPLE + (_BLANKS,)),
}


# a call given a stack where its table or its driver allows none, and the family it must name
NOT_A_STACK = {
    "clone_report-pauli-asym": (lambda: cloners.clone_report(_P_STACK, _PSI), "pauli-asym"),
    "delete_report-conv": (lambda: deleters.delete_report(_BLANK_STACK["conv"], _PSI), "conv"),
    "build_deleter-pb": (lambda: deleters.build_deleter(_BLANK_STACK["pb"]), "pb"),
    "delete_reports-pb": (lambda: deleters.delete_reports(_BLANK_STACK["pb"], _PSI.amps[None]), "pb"),
    "build_deleter-sdep": (lambda: deleters.build_deleter(_BLANK_STACK["sdep"]), "sdep"),
    "delete_reports-sdep": (lambda: deleters.delete_reports(_BLANK_STACK["sdep"], _PSI.amps[None]), "sdep"),
    "build_machine-gm-1m": (lambda: build_machine(MachineSpec("gm-1m", (np.array([3, 4]),))), "gm-1m"),
    "build_machine-heis-asym": (
        lambda: build_machine(MachineSpec("heis-asym", (np.array([2, 3]), 0.5))),
        "heis-asym",
    ),
    "run_pipeline-bh": (
        lambda: concat.run_pipeline(
            concat.PipelineSpec(MachineSpec("bh", (np.array([0.2, 0.3]),)), deleters.DeleterSpec("pb")), 0.5
        ),
        "bh",
    ),
}
# the stack forms of the two single-spec driver cases, which must still work
STACK_FORMS = {
    "clone_report-pauli-asym": lambda: [
        cloners.clone_reports(_P_STACK, _PSI.amps[None]),
        tables.generate_table("2.1", "simulate"),
        tables.generate_table("2.3", "simulate"),
    ],
    "delete_report-conv": lambda: [
        deleters.delete_reports(_BLANK_STACK["conv"], _PSI.amps[None]),
        tables.generate_table("4.1", "simulate"),
        tables.generate_table("4.2", "simulate"),
    ],
}


@pytest.mark.parametrize("case", NOT_A_STACK)
def test_a_stack_where_none_is_allowed_is_a_value_error(case):
    call, family = NOT_A_STACK[case]
    with pytest.raises(ValueError) as exc:
        call()
    message = str(exc.value)
    assert f"{family} " in message and "[" not in message  # names the family, prints no array
    tables._BUILT.clear()  # build the simulated tables, not find them
    for result in STACK_FORMS.get(case, lambda: [])():
        rows = getattr(result, "rows", [])
        assert all(all(row.matches(None).values()) for row in rows)


def test_a_stack_spec_is_built_per_call_and_a_single_spec_once():
    stack_spec = MachineSpec("pauli-asym", (np.array([0.2, 0.7]),))
    first = build_machine(stack_spec)
    assert first.matrix.shape == (2, 8, 2)
    assert build_machine(stack_spec) is not first
    assert not first.matrix.flags.writeable
    single = MachineSpec("pauli-asym", (0.2,))
    assert build_machine(single) is build_machine(single)
    blanks = BlankState(np.array([1.0, 0.6]), np.array([0.0, 0.8]))
    conv = deleters.DeleterSpec("conv", (0.3, blanks))
    assert deleters.build_deleter(conv) is not deleters.build_deleter(conv)


def test_a_stack_spec_with_inputs_of_the_wrong_shape_names_its_family_and_size():
    with pytest.raises(ValueError) as exc:
        cloners.clone_reports(_P_STACK, np.ones(3))
    message = str(exc.value)
    assert "a stack of 2 pauli-asym machines" in message and "[" not in message


# ---------------------------------------------------------------------------
# a spec with more parameters than its builder takes, or fewer than it needs


# a call given such a spec, and the message it must raise
WRONG_COUNT = {
    "build_machine-wz": (lambda: build_machine(MachineSpec("wz", (5,))), "wz takes 0 parameters, got 1"),
    "build_deleter-qiu": (
        lambda: deleters.build_deleter(deleters.DeleterSpec("qiu", (1.0, 2.0))),
        "qiu takes 0 to 1 parameters (r1), got 2",
    ),
    "run_pipeline-wz": (
        lambda: concat.run_pipeline(concat.PipelineSpec(MachineSpec("wz", (5,)), deleters.DeleterSpec("pb")), 0.5),
        "wz takes 0 parameters, got 1",
    ),
    "build_machine-bh": (lambda: build_machine(MachineSpec("bh")), "bh takes 1 parameter (xi), got 0"),
    "build_deleter-conv": (
        lambda: deleters.build_deleter(deleters.DeleterSpec("conv")),
        "conv takes 1 to 3 parameters (lam, blank, y), got 0",
    ),
}


@pytest.mark.parametrize("case", WRONG_COUNT)
def test_a_wrong_parameter_count_is_a_value_error_naming_the_family(case):
    call, message = WRONG_COUNT[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("kind, family", ENTRIES, ids=[family for _, family in ENTRIES])
def test_each_entry_takes_what_its_builder_takes(kind, family):
    table, spec_type = CATALOGS[kind]
    parameters = inspect.signature(table[family].build).parameters.values()
    least = sum(p.default is inspect.Parameter.empty for p in parameters)
    for count in range(len(parameters) + 2):
        spec = spec_type(family, (0.5,) * count)
        if least <= count <= len(parameters):
            assert qcore.family_entry(table, spec, kind) is table[family]
        else:
            with pytest.raises(ValueError, match=f"^{family} takes "):
                qcore.family_entry(table, spec, kind)
