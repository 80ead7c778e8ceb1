"""reduce_kets against the transpose/reshape/matmul reduction it replaced.

The reference functions below are the earlier constructions, kept as
oracles: one ket reduction per selection, and np.tensordot for a machine
applied to one subsystem.  Every comparison is by ``.tobytes()``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclone import broadcast as bc, cloners, concat, deleters, qcore
from qclone.cloners import MachineSpec, build_machine
from qclone.deleters import BlankState, DeleterSpec
from qclone.measures import hs_distance, overlap
from qclone.qcore import reduce_ket, reduce_kets


def reference_reduce_ket(amps, dims, keep):
    """One ket reduction: transpose the kept subsystems to the front, reshape, M M^dag."""
    dims = tuple(dims)
    n = len(dims)
    keep = list(keep)
    if not keep or len(set(keep)) < len(keep) or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem selection {keep} for {n} subsystems")
    amps = np.asarray(amps, dtype=complex)
    batch = amps.shape[:-1]
    if amps.shape[-1] != math.prod(dims):
        raise ValueError(f"ket of length {amps.shape[-1]} does not match dims {dims}")
    order = keep + [i for i in range(n) if i not in keep]
    lead = list(range(len(batch)))
    t = np.transpose(amps.reshape(batch + dims), lead + [len(batch) + i for i in order])
    d_keep = math.prod([dims[k] for k in keep])
    m = t.reshape(batch + (d_keep, -1))
    return m @ m.conj().swapaxes(-1, -2)


def reference_apply_at(amps, dims, idx, machine):
    """A one-subsystem isometry on a ket or a (..., d) stack, by np.tensordot."""
    dims = list(dims)
    batch = amps.shape[:-1]
    t = amps.reshape(-1, dims[idx], math.prod(dims[idx + 1 :]))
    out = np.tensordot(machine.matrix, t, axes=([1], [1]))  # (dout, pre, post)
    out = np.transpose(out, (1, 0, 2)).reshape(batch + (-1,))
    return out, dims[:idx] + list(machine.out_dims) + dims[idx + 1 :]


def same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the kernel


@st.composite
def layouts(draw):
    """(dims, selections of one kept size, kets): at most 8 subsystems of
    dimension 1 to 4 and 256 amplitudes, unsorted selections, and a batch
    of shape (), (n,) or (m, n)."""
    dims = []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.integers(1, 4))
        if math.prod(dims + [d]) > 256:
            break
        dims.append(d)
    n = len(dims)
    selection = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    first = draw(selection)
    size = math.prod(dims[k] for k in first)
    others = [s for s in draw(st.lists(selection, max_size=6)) if math.prod(dims[k] for k in s) == size]
    batch = draw(st.sampled_from([(), (draw(st.integers(1, 3)),), (2, draw(st.integers(1, 3)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + (math.prod(dims),)
    kets = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return tuple(dims), [first, *others], kets / np.linalg.norm(kets, axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_reduce_kets_keeps_the_bits_of_one_reduction_per_selection(case):
    dims, keeps, kets = case
    got = reduce_kets(kets, dims, keeps)
    assert got.shape[: kets.ndim - 1] == kets.shape[:-1] and got.shape[-3] == len(keeps)
    for i, keep in enumerate(keeps):
        ref = reference_reduce_ket(kets, dims, keep)
        assert same_bits(got[..., i, :, :], ref), keep
        assert same_bits(reduce_ket(kets, dims, keep), ref), keep


def test_an_unsorted_selection_keeps_its_order():
    rng = np.random.default_rng(5)
    dims = (2, 3, 2, 2, 3)
    kets = rng.normal(size=(2, 4, 72)) + 1j * rng.normal(size=(2, 4, 72))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    keeps = [[4, 1, 2], [2, 4, 1], [1, 4, 0]]
    got = reduce_kets(kets, dims, keeps)
    assert got.shape == (2, 4, 3, 18, 18)
    for i, keep in enumerate(keeps):
        assert same_bits(got[..., i, :, :], reference_reduce_ket(kets, dims, keep))


@pytest.mark.parametrize(
    "keep, length",
    [([], 8), ([0, 0], 8), ([3], 8), ([-1], 8), ([], 6), ([1, 1], 7), ([3], 0), ([0], 6), ([2, 1], 16)],
)
def test_an_invalid_selection_or_ket_length_raises_the_reference_error(keep, length):
    dims, amps = (2, 2, 2), np.full(length, 1 / math.sqrt(max(length, 1)), dtype=complex)
    with pytest.raises(ValueError) as ref:
        reference_reduce_ket(amps, dims, keep)
    for call in (lambda: reduce_ket(amps, dims, keep), lambda: reduce_kets(amps, dims, [keep, keep])):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(ref.value)


def test_selections_of_different_kept_sizes_are_refused():
    amps = np.full(12, 1 / math.sqrt(12), dtype=complex)
    with pytest.raises(ValueError, match="one total dimension"):
        reduce_kets(amps, (2, 3, 2), [[0], [1]])
    with pytest.raises(ValueError, match="one total dimension"):
        reduce_kets(amps, (2, 3, 2), [])
    # a ket too short for its dims is found only once the selections are valid
    with pytest.raises(ValueError, match="one total dimension"):
        reduce_kets(amps[:6], (2, 3, 2), [[0], [1]])


def test_the_layout_cache_is_bounded_and_read_only():
    rng = np.random.default_rng(9)
    layouts = [((2,) * n, keep) for n in range(1, 9) for keep in itertools.permutations(range(n), min(n, 2))]
    assert len(layouts) > 2 * qcore.LAYOUT_CACHE_SIZE
    for dims, keep in layouts:
        ket = rng.normal(size=2 ** len(dims)) + 0j
        assert same_bits(reduce_ket(ket, dims, keep), reference_reduce_ket(ket, dims, keep))
        assert qcore._gather_index.cache_info().currsize <= qcore.LAYOUT_CACHE_SIZE
    index = qcore._gather_index((2, 2, 2), ((2, 0), (1, 2)))
    assert index.shape == (2, 4, 2)
    with pytest.raises(ValueError, match="read-only"):
        index[0, 0, 0] = 1


# ---------------------------------------------------------------------------
# how many reductions each caller makes


@pytest.fixture
def reductions(monkeypatch):
    """The keeps of every ket reduction made through qcore.reduce_kets, under
    whatever name a qclone module binds it."""
    calls = []
    kernel = qcore.reduce_kets

    def counting(amps, dims, keeps):
        calls.append([list(k) for k in keeps])
        return kernel(amps, dims, keeps)

    for module in (qcore, bc, cloners, deleters, concat):
        if hasattr(module, "reduce_kets"):
            monkeypatch.setattr(module, "reduce_kets", counting)
    return calls


def test_the_protocol_makes_one_reduction_per_kept_size(reductions):
    bc.three_qubit_protocol(math.sqrt(0.3), "Q1Q0")
    assert [len(k) for k in reductions] == [2, 6]  # not one per operator, eight


def test_the_broadcast_machine_makes_one_reduction(reductions):
    bc.broadcast_machine_matrices((math.sqrt(0.3), math.sqrt(0.7)), 0.2)
    assert reductions == [[[0, 4], [1, 3], [0, 1], [3, 4]]]  # not one per output, four


def test_the_deletion_marginals_come_from_one_reduction(reductions):
    spec = DeleterSpec("pb")
    deleters._marginal_fidelities(spec, deleters.build_deleter(spec), deleters.real_inputs([0.3, 0.6]), 1)
    assert reductions == [[[0], [1]]]  # not one per marginal, two


def test_clone_reports_and_pipelines_take_both_marginals_in_one_reduction(reductions):
    cloners.clone_reports(MachineSpec("bh", (0.2,)), np.eye(2))
    concat.run_pipeline(concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("pb")), 0.4)
    assert reductions == [[[0, 1]], [[0], [1]], [[0], [1]]]


# ---------------------------------------------------------------------------
# the callers keep their bits


def reference_protocol(alpha, branch):
    """(probability, ket, the eight reduced operators) of three_qubit_protocol, one reduction each."""
    beta = math.sqrt(1 - abs(complex(alpha)) ** 2)
    machine = build_machine(MachineSpec("bh-opt"))
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = alpha, beta
    amps, dims = reference_apply_at(amps, [2, 2], 0, machine)
    amps, dims = reference_apply_at(amps, dims, 3, machine)
    t = np.take(np.take(amps.reshape(dims), int(branch[3]), axis=5), int(branch[1]), axis=2)
    amps = t.reshape(-1)
    prob = float(np.linalg.norm(amps) ** 2)
    amps = amps / math.sqrt(prob)
    amps, dims = reference_apply_at(amps, [2, 2, 2, 2], 1, machine)
    amps, dims = reference_apply_at(amps, dims, 5, machine)
    labels = ("q1", "q2", "q5", "mA2", "q3", "q4", "q6", "mB2")
    ops = {}
    for name in bc.ProtocolState._fields[4:]:
        ops[name] = reference_reduce_ket(amps, dims, [labels.index("q" + q) for q in name[4:]])
    return prob, amps, ops


@pytest.mark.parametrize("branch", bc.BRANCHES)
@pytest.mark.parametrize("alpha", [0.3, math.sqrt(0.7), 0.8 * complex(math.cos(1.1), math.sin(1.1))])
def test_protocol_operators_keep_their_bits(branch, alpha):
    out = bc.three_qubit_protocol(alpha, branch)
    prob, amps, ops = reference_protocol(alpha, branch)
    assert out.probability == prob and same_bits(out.state.amps, amps)
    for name, ref in ops.items():
        assert same_bits(getattr(out, name).mat, ref), name


@pytest.mark.parametrize("n", [None, 5])
def test_broadcast_machine_and_channel_matrices_keep_their_bits(n):
    rng = np.random.default_rng(17)
    v = rng.normal(size=(n or 1, 4))
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    v = v if n else v[0]
    for lam in (1 / 6, 0.31, 0.5):
        machine = build_machine(MachineSpec("bh", (lam,)))
        amps, dims = reference_apply_at(bc.input_amps(v), [2, 2], 0, machine)
        amps, dims = reference_apply_at(amps, dims, 3, machine)
        got = bc.broadcast_machine_matrices(v, lam)
        for name, keep in {"AB'": [0, 4], "A'B": [1, 3], "AA'": [0, 1], "BB'": [3, 4]}.items():
            assert same_bits(got[name], reference_reduce_ket(amps, dims, keep)), name
        pair = bc._copy_pair(np.stack([reference_reduce_ket(bc.input_amps(v), (2, 2), [k]) for k in (0, 1)]), lam)
        channel = bc.broadcast_channel_matrices(v, lam)
        assert same_bits(channel["AA'"], pair[0]) and same_bits(channel["BB'"], pair[1])


def reference_clone_reports(machine, amps):
    """cloners._clone_reports with one reduction per marginal."""
    dims = machine.out_dims
    d = amps.shape[-1]
    out = amps @ machine.matrix.swapaxes(-1, -2)
    clones = reference_reduce_ket(out, dims, [0, 1])
    rho_a, rho_b = (reference_reduce_ket(out, dims, [k]) for k in (0, 1))
    id_mat = amps[..., :, None] * amps.conj()[..., None, :]
    prod_out = (rho_a[..., :, None, :, None] * rho_b[..., None, :, None, :]).reshape(clones.shape)
    prod_id = (id_mat[..., :, None, :, None] * id_mat[..., None, :, None, :]).reshape(*amps.shape[:-1], d * d, -1)
    return (
        clones,
        rho_a,
        rho_b,
        overlap(amps, rho_a),
        overlap(amps, rho_b),
        hs_distance(rho_a, id_mat),
        hs_distance(rho_b, id_mat),
        hs_distance(clones, prod_out),
        hs_distance(clones, prod_id),
        hs_distance(prod_id, prod_out),
    )


@pytest.mark.parametrize(
    "spec",
    [
        MachineSpec("bh", (0.2,)),
        MachineSpec("wz"),
        MachineSpec("pauli-asym", (0.3,)),
        MachineSpec("pauli-asym", (np.array([0.2, 0.7, 1.0]),)),
        MachineSpec("bh-opt"),
    ],
    ids=str,
)
def test_clone_reports_keep_their_bits(spec):
    machine = cloners._copier(spec)
    rng = np.random.default_rng(23)
    (d,) = machine.in_dims
    amps = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    got = cloners.clone_reports(spec, amps)
    for name, g, ref in zip(cloners.CloneReports._fields, got, reference_clone_reports(machine, amps)):
        assert same_bits(g, ref), name
    if machine.matrix.ndim == 2:
        one = cloners.clone_report(spec, qcore.StateVector((d,), amps[0]))
        assert same_bits(one.rho_a.mat, got.rho_a[0]) and one.F_b == float(got.F_b[0])


def reference_delete_reports(spec, psi, n_transformers):
    """deleters._delete_reports with one reduction per marginal."""
    machine, a_vec = deleters._deleter_parts(spec)
    pairs = (psi[..., :, None] * psi[..., None, :]).reshape(psi.shape[:-1] + (4,))
    kets = deleters._transform(pairs @ machine.matrix.swapaxes(-1, -2), n_transformers)
    rho_1, rho_2 = (reference_reduce_ket(kets, machine.out_dims, [k]) for k in (0, 1))
    target = deleters.deletion_target(spec)
    target = target if target.ndim == 1 else target[:, None]
    rho_3 = overlap_m = None
    if len(machine.out_dims) > 2:
        rho_3 = reference_reduce_ket(kets, machine.out_dims, [2])
        overlap_m = overlap(a_vec, rho_3)
    return rho_1, rho_2, rho_3, overlap(psi, rho_1), overlap(target, rho_2), overlap_m


@pytest.mark.parametrize(
    "spec",
    [
        DeleterSpec("pb"),
        DeleterSpec("qiu", (-1.0,)),
        DeleterSpec("conv", (0.3, BlankState(0.6, 0.8))),
        DeleterSpec("conv", (0.2, BlankState(np.array([0.6, 1.0]), np.array([0.8j, 0.0])))),
        DeleterSpec("sdep", (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2)),
    ],
    ids=str,
)
@pytest.mark.parametrize("n_transformers", [0, 1, 2])
def test_delete_reports_and_averages_keep_their_bits(spec, n_transformers):
    rng = np.random.default_rng(29)
    psi = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    got = deleters.delete_reports(spec, psi, n_transformers)
    for name, g, ref in zip(deleters.DeletionReports._fields, got, reference_delete_reports(spec, psi, n_transformers)):
        assert (g is None and ref is None) or same_bits(g, ref), name
    if got.F_1.ndim == 1:  # one machine: the quadrature over the 64 nodes
        ref = reference_delete_reports(spec, deleters.real_inputs(deleters.GL_ALPHA2), n_transformers)
        averages = (float(deleters.GL_WEIGHTS @ ref[3]), float(deleters.GL_WEIGHTS @ ref[4]))
        assert deleters.average_fidelities(spec, n_transformers) == averages


def reference_pipeline_scores(spec, alpha2s):
    """concat._pipeline_kets and concat._scores from alpha^2 values, one reduction per marginal."""
    psi = deleters.real_inputs(alpha2s)
    xi = concat._cloner_xi(spec.cloner)
    machine, ident0, ident1, passthrough = concat._deleter_action(spec.deleter)
    mdim = machine.out_dims[-1]
    amps = np.zeros((len(alpha2s), 4 * mdim, 3), dtype=complex)
    amps[:, :, 0] = psi[:, :1] * ident0 + psi[:, 1:] * ident1
    amps[:, :, 1] = math.sqrt(xi) * psi[:, :1] * passthrough
    amps[:, :, 2] = math.sqrt(xi) * psi[:, 1:] * passthrough
    kets = amps.reshape(len(alpha2s), -1)
    kets = kets / np.linalg.norm(kets, axis=1, keepdims=True)
    dims = (2, 2, mdim, 3)
    rho_x, rho_y = (reference_reduce_ket(kets, dims, [k]) for k in (0, 1))
    distortion = hs_distance(rho_x, psi[:, :, None] * psi[:, None, :])
    return distortion, overlap(deleters._spec_blank(spec.deleter).vec, rho_y)


@pytest.mark.parametrize(
    "spec",
    [
        concat.PipelineSpec(MachineSpec("wz"), DeleterSpec("pb")),
        concat.PipelineSpec(MachineSpec("bh", (0.3,)), DeleterSpec("pb", (BlankState(0.6, 0.8),))),
        concat.PipelineSpec(MachineSpec("bh-opt"), DeleterSpec("sdep", (math.sqrt(3) / 2, 0.5j, 0.5j, math.sqrt(3) / 2))),
    ],
    ids=str,
)
def test_run_pipeline_and_pipeline_averages_keep_their_bits(spec):
    for a2 in (0.0, 0.37, 1.0):
        d, f = reference_pipeline_scores(spec, [a2])
        assert concat.run_pipeline(spec, a2) == (float(d[0]), float(f[0]))
    d, f = reference_pipeline_scores(spec, deleters.GL_ALPHA2)
    assert concat.pipeline_averages(spec) == (float(deleters.GL_WEIGHTS @ d), float(deleters.GL_WEIGHTS @ f))


def test_the_quadrature_inputs_are_a_read_only_constant():
    assert same_bits(deleters.GL_INPUTS, deleters.real_inputs(deleters.GL_ALPHA2))
    with pytest.raises(ValueError, match="read-only"):
        deleters.GL_INPUTS[0, 0] = 1.0
