import functools
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclone.qcore import (
    DENSITY_TOL,
    BlankState,
    DensityOperator,
    GramSpec,
    MachineIsometry,
    StateVector,
    UnrealizableSpec,
    apply_isometry,
    bell_project,
    _derived_x,
    _trace_axes,
    _x_state,
    bell_state,
    check_densities,
    check_kets,
    hermitian_eigvals,
    ket,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    realize_gram,
    reduce_ket,
    schmidt,
    spec_cache,
    tensor,
)
from qclone import broadcast as bc
from qclone.cloners import MachineSpec, bh_gram, build_bh_opt, build_wz
from qclone.deleters import DeleterSpec
from qclone.verify import CheckResult


def kron_all(*factors) -> np.ndarray:
    """The tensor product of kets or matrices, leftmost factor most significant."""
    return functools.reduce(np.kron, factors)


def random_density(rng, dims):
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityOperator(dims, m / np.trace(m))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector((2,), [1.0, 1.0])  # unnormalized
    with pytest.raises(ValueError):
        StateVector((2, 2), [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        StateVector((2,), [np.nan, 0.0])


def test_state_vector_normalization_meets_the_density_tolerance():
    # |psi|^2 is the trace of every reduction, so it is held to DENSITY_TOL
    with pytest.raises(ValueError, match="not normalized"):
        StateVector((2,), [1 + 4e-7, 0.0])
    near = StateVector((2, 2), np.array([1.0, 1.0, 1.0, 1.0]) / 2 * math.sqrt(1 + 1e-8))
    assert abs(np.vdot(near.amps, near.amps).real - 1) <= 1e-8
    assert near.density().dims == (2, 2)
    assert partial_trace(near, [1]).dims == (2,)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator((2,), np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator((2,), np.diag([0.9, 0.9]))  # trace != 1
    with pytest.raises(ValueError):
        DensityOperator((2,), np.diag([1.5, -0.5]))  # negative eigenvalue


def test_tensor_identity_and_basis_ordering():
    i2 = DensityOperator((2,), np.eye(2) / 2)
    i4 = tensor(i2, i2)
    assert np.allclose(i4.mat, np.eye(4) / 4)
    # |0> x |1> is basis index 1: left factor most significant
    k0 = StateVector((2,), [1, 0])
    k1 = StateVector((2,), [0, 1])
    prod = tensor(k0, k1)
    assert np.allclose(prod.amps, [0, 1, 0, 0])


def test_tensor_psi_plus_with_ground():
    psi = bell_state("psi+")
    rho = DensityOperator((2, 2), np.outer(psi, psi.conj()))
    zero = DensityOperator((2,), np.diag([1.0, 0.0]))
    out = tensor(rho, zero)
    assert out.mat.shape == (8, 8)
    assert abs(np.trace(out.mat) - 1) < 1e-12
    assert np.linalg.matrix_rank(out.mat, tol=1e-12) == 1


def test_partial_trace_maximally_entangled():
    psi = bell_state("psi+")
    rho = DensityOperator((2, 2), np.outer(psi, psi.conj()))
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.mat, np.eye(2) / 2)


def test_partial_trace_product():
    rho = DensityOperator((2, 2), np.diag([1.0, 0, 0, 0]))
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.mat, np.diag([1.0, 0.0]))


def test_partial_trace_wz_output():
    # copier output on alpha|0> + beta|1> with orthonormal machine kets
    alpha2 = 0.3
    psi = StateVector((2,), [math.sqrt(alpha2), math.sqrt(1 - alpha2)])
    out = apply_isometry(build_wz(), psi)
    rho_ab = partial_trace(out.density(), [0, 1])
    assert np.allclose(rho_ab.mat, np.diag([alpha2, 0, 0, 1 - alpha2]), atol=1e-12)


def test_partial_trace_invalid_index():
    rho = DensityOperator((2, 2), np.eye(4) / 4)
    with pytest.raises(ValueError):
        partial_trace(rho, [5])
    with pytest.raises(ValueError):
        partial_trace(rho, [])


def test_partial_transpose_bell_eigenvalues():
    phi = bell_state("phi+")
    rho = DensityOperator((2, 2), np.outer(phi, phi.conj()))
    pt = partial_transpose(rho.mat, rho.dims, (1,))
    evals = hermitian_eigvals(pt)
    assert np.allclose(evals, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_partial_transpose_diagonal_invariance():
    rho = DensityOperator((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))
    assert np.allclose(partial_transpose(rho.mat, rho.dims, (1,)), rho.mat)


def _swap_entries(mat, dims, split):
    """Partial transpose entry by entry: <i|PT|j> = <i'|mat|j'>, where i', j'
    exchange the digits of i and j on the subsystems in ``split``."""
    out = np.empty_like(mat)
    digits = list(product(*(range(d) for d in dims)))
    for r, i in enumerate(digits):
        for c, j in enumerate(digits):
            i2 = tuple(j[k] if k in split else i[k] for k in range(len(dims)))
            j2 = tuple(i[k] if k in split else j[k] for k in range(len(dims)))
            out[r, c] = mat[digits.index(i2), digits.index(j2)]
    return out


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=10_000),
)
def test_partial_transpose_involution_and_trace(dims, mask, seed):
    # a random Hermitian matrix and a random split S: the transpose of S
    # matches the entrywise definition, keeps the trace, is the identity when
    # done twice, and transposing it whole gives the transpose of the
    # complement of S; an empty selection raises
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a + a.conj().T
    split = [i for i in range(len(dims)) if mask >> i & 1]
    rest = [i for i in range(len(dims)) if i not in split]
    if not split:
        with pytest.raises(ValueError, match="invalid subsystem selection"):
            partial_transpose(h, dims, split)
        return
    pt = partial_transpose(h, dims, split)
    assert np.array_equal(pt, _swap_entries(h, dims, split))
    assert abs(np.trace(pt) - np.trace(h)) < 1e-12
    assert np.array_equal(partial_transpose(pt, dims, split), h)
    if rest:
        assert np.array_equal(pt.T, partial_transpose(h, dims, rest))


def test_partial_transpose_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(77)
    stack = rng.normal(size=(3, 2, 8, 8)) + 1j * rng.normal(size=(3, 2, 8, 8))
    for dims, split in (((2, 4), (0,)), ((2, 2, 2), (0, 2)), ((4, 2), (1,))):
        got = partial_transpose(stack, dims, split)
        assert got.shape == stack.shape
        for idx in np.ndindex(3, 2):
            assert np.array_equal(got[idx], partial_transpose(stack[idx], dims, split))


def test_partial_transpose_invalid_subsystem():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4) / 4, (2, 2), (2,))


@pytest.mark.parametrize("subsystems", [[0, 0], [1, 0, 1], [], [-1], [2]])
def test_partial_transpose_rejects_bad_selection(subsystems):
    # a repeated index used to be taken once: [0, 0] gave the [0] transpose,
    # where transposing twice is the identity
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.1
    with pytest.raises(ValueError, match=r"invalid subsystem selection .* for 2 subsystems"):
        partial_transpose(rho, (2, 2), subsystems)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_partial_trace_of_tensor_recovers_factor(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (2,))
    sigma = random_density(rng, (3,))
    joint = tensor(rho, sigma)
    left = partial_trace(joint, [0])
    assert np.max(np.abs(left.mat - rho.mat)) < 1e-12


@st.composite
def kets_on_subsystems(draw):
    """A batch of 1-4 random kets on subsystems of dimension 2 or 3 (at most
    256 in total), plus a random nonempty selection of subsystems to keep."""
    dims = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        d = draw(st.sampled_from((2, 3)))
        if np.prod(dims + [d]) > 256:
            break
        dims.append(d)
    keep = draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, unique=True))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=4))
    kets = rng.normal(size=(n, int(np.prod(dims)))) + 1j * rng.normal(size=(n, int(np.prod(dims))))
    return tuple(dims), keep, kets / np.linalg.norm(kets, axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(kets_on_subsystems())
def test_reduce_ket_equals_trace_of_outer_product(case):
    # keep is drawn in random order: reduce_ket keeps that order, while
    # _trace_axes and partial_trace keep the subsystems sorted
    dims, keep, kets = case
    in_sorted = sorted(keep)
    order = [in_sorted.index(k) for k in keep]
    for v in kets:
        traced = DensityOperator(
            tuple(dims[k] for k in in_sorted), _trace_axes(np.outer(v, v.conj()), dims, keep)
        )
        ref = permute_subsystems(traced, order).mat
        assert np.max(np.abs(reduce_ket(v, dims, keep) - ref)) <= 1e-12
        sorted_trace = partial_trace(StateVector(dims, v), keep)
        assert sorted_trace.dims == traced.dims
        assert np.max(np.abs(sorted_trace.mat - traced.mat)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(kets_on_subsystems())
def test_reduce_ket_batched_equals_per_ket(case):
    dims, keep, kets = case
    batched = reduce_ket(kets, dims, keep)
    assert batched.shape[0] == len(kets)
    for v, rho in zip(kets, batched):
        assert np.max(np.abs(rho - reduce_ket(v, dims, keep))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(kets_on_subsystems())
def test_reduce_ket_output_is_a_density_matrix(case):
    dims, keep, kets = case
    for rho in reduce_ket(kets, dims, keep):
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_partial_trace_of_ket_matches_density_path():
    rng = np.random.default_rng(8)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = StateVector((2, 3, 2), v / np.linalg.norm(v))
    for keep in ([0], [1], [2], [0, 2], [2, 1]):
        via_ket = partial_trace(psi, keep)
        via_rho = partial_trace(psi.density(), keep)
        assert via_ket.dims == via_rho.dims == tuple(psi.dims[k] for k in sorted(keep))
        assert np.max(np.abs(via_ket.mat - via_rho.mat)) < 1e-12
    # reduce_ket keeps the listed order: qubit 2 first, then the qutrit
    ordered = reduce_ket(psi.amps, psi.dims, [2, 1])
    swapped = permute_subsystems(partial_trace(psi, [1, 2]), [1, 0])
    assert np.max(np.abs(ordered - swapped.mat)) < 1e-12
    with pytest.raises(ValueError):
        partial_trace(psi, [3])
    with pytest.raises(ValueError):
        reduce_ket(psi.amps[:6], psi.dims, [0])
    with pytest.raises(ValueError, match="invalid subsystem selection"):
        reduce_ket(psi.amps, psi.dims, [1, 1])


def test_check_densities_rejects_any_bad_member():
    good = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(complex)
    check_densities(good)
    off = 10 * DENSITY_TOL
    bad_members = (
        np.diag([1.0 + off, 0.0]),  # trace
        np.array([[0.5, off], [0.0, 0.5]]),  # Hermiticity
        np.diag([1.0 + off, -off]),  # positivity
    )
    for bad in bad_members:
        with pytest.raises(ValueError):
            check_densities(np.stack([good[0], bad]))
        with pytest.raises(ValueError):
            DensityOperator((2,), bad)
    # deviations inside the tolerance pass the stacked and the single check
    near = np.diag([1.0 + DENSITY_TOL / 2, -DENSITY_TOL / 2])
    check_densities(np.stack([good[0], near]))
    DensityOperator((2,), near)


def _x_with_inner_eigenvalue(least, phase=0.7):
    """Maximally mixed diagonal with a {1, 2} coherence of modulus
    1/4 - least, so that block's smaller eigenvalue is ``least``."""
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = (0.25 - least) * np.exp(1j * phase)
    m[2, 1] = np.conj(m[1, 2])
    return m


def test_check_densities_on_one_x_state_takes_one_eigensolve(monkeypatch):
    general = random_density(np.random.default_rng(3), (2, 2)).mat
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    bad = _x_with_inner_eigenvalue(-1e-6)
    near = _x_with_inner_eigenvalue(-DENSITY_TOL / 2)
    assert _x_state(bad) is not None
    # one matrix, X state or not, takes the stack's tests: one eigensolve
    with pytest.raises(ValueError, match="density operator has a significantly negative eigenvalue"):
        check_densities(bad)
    check_densities(near)
    DensityOperator((2, 2), near)
    assert calls == [(4, 4), (4, 4), (4, 4)]
    # a NaN coherence fails, first in the Hermitian test, before any eigensolve
    for pair in ((0, 3), (1, 2)):
        nan = near.copy()
        nan[pair] = nan[pair[::-1]] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            check_densities(nan)
    assert len(calls) == 3
    # a stack, of X states or not, takes one batched eigensolve, which
    # gives each member its verdict
    with pytest.raises(ValueError, match="density operator has a significantly negative eigenvalue"):
        check_densities(np.stack([near, bad]))
    check_densities(np.stack([near, near.T]))
    mixed = np.stack([near, general, bad])
    assert _x_state(mixed) is None
    with pytest.raises(ValueError, match="significantly negative eigenvalue"):
        check_densities(mixed)
    assert calls[3:] == [(2, 4, 4), (2, 4, 4), (3, 4, 4)]


def _verdict(check, m):
    """None if ``check`` accepts a copy of ``m``, else its message."""
    try:
        check(m.copy())
    except ValueError as exc:
        return str(exc)
    return None


def test_the_scalar_x_state_check_fails_with_the_general_messages():
    # a closed-form X state is checked on its diagonal and anti-diagonal in
    # Python scalars (_derived_x); check_densities takes the general tests on
    # the same matrix, so the two must agree
    near = _x_with_inner_eigenvalue(-DENSITY_TOL / 2)
    imag_diagonal = near.copy()
    imag_diagonal[2, 2] += 1e-6j
    outer = near.copy()
    outer[0, 3], outer[3, 0] = 0.1, 0.1j  # not a conjugate pair
    inner = near.copy()
    inner[1, 2] += 1e-6  # rho_12 no longer the conjugate of rho_21
    trace = near.copy()
    trace[3, 3] += 10 * DENSITY_TOL
    psd = _x_with_inner_eigenvalue(-1e-6)
    cases = [
        (imag_diagonal, "not Hermitian (deviation 2e-06)"),
        (outer, "not Hermitian (deviation 0.141)"),
        (inner, "not Hermitian (deviation 1e-06)"),
        (trace, "trace deviates from 1 by 1e-06"),
        (psd, "significantly negative eigenvalue"),
    ]
    for m, message in cases:
        assert _x_state(m) is not None
        assert message in _verdict(_derived_x, m)
        assert _verdict(_derived_x, m) == _verdict(check_densities, m)
    # a NaN entry fails the Hermitian test, with the deviation that
    # ndarray.max reports, wherever it sits among the eight; so does an
    # infinite coherence (an infinite diagonal entry makes the general
    # test warn on inf - inf, so it is left out here)
    coherences = [(0, 3), (3, 0), (1, 2), (2, 1)]
    x_entries = [(i, i) for i in range(4)] + coherences
    bad_entries = [(index, bad) for index in x_entries for bad in (np.nan, complex(0.0, np.nan))]
    bad_entries += [(index, np.inf) for index in coherences]
    for index, bad in bad_entries:
        m = near.copy()
        m[index] = bad
        assert _x_state(m) is not None
        assert "not Hermitian" in _verdict(_derived_x, m), (index, bad)
        assert _verdict(_derived_x, m) == _verdict(check_densities, m), (index, bad)


def _x_matrix(p, outer, inner):
    """The two-qubit X state with diagonal p and coherences rho_03 = outer, rho_12 = inner."""
    m = np.diag(p).astype(complex)
    m[0, 3], m[1, 2] = outer, inner
    m[3, 0], m[2, 1] = np.conj(outer), np.conj(inner)
    return m


@st.composite
def _boundary_x_states(draw):
    """An X state whose boundary block has its smaller eigenvalue within
    rounding (1e-15) of -DENSITY_TOL, where check_densities' verdict turns,
    and whose other block has a coherence of any admissible modulus."""
    weight = st.floats(0.01, 1.0)
    p = np.array([draw(weight) for _ in range(4)])
    p /= p.sum()
    least = -DENSITY_TOL + draw(st.floats(-1e-15, 1e-15))
    phase = st.floats(0.0, 2 * math.pi)
    boundary, other = ((1, 2), (0, 3)) if draw(st.booleans()) else ((0, 3), (1, 2))
    # the modulus at which the boundary block's smaller eigenvalue is least
    c = {boundary: math.sqrt(max(0.0, (p[boundary[0]] - least) * (p[boundary[1]] - least)))}
    c[other] = draw(st.floats(0.0, 1.0)) * math.sqrt(p[other[0]] * p[other[1]])
    outer, inner = (c[pair] * np.exp(1j * draw(phase)) for pair in ((0, 3), (1, 2)))
    return _x_matrix(p, outer, inner)


@settings(max_examples=200, deadline=None)
@given(_boundary_x_states())
# eigvalsh's least eigenvalue, -1.00000000003e-7, fails the tolerance; the
# closed-form block eigenvalue, -9.99999998919e-8, passes it
@example(
    _x_matrix(
        [0.07455132616725414, 0.4327081617362663, 0.19041807126985127, 0.3023224408266283],
        0.0,
        0.2205829437642053 - 0.183680921201668j,
    )
)
def test_one_x_state_has_the_verdict_of_a_stack_of_one(m):
    """check_densities passes or fails an X state at the PSD boundary alone
    as in a stack of one, with the same message."""
    assert _x_state(m) is not None
    assert _verdict(check_densities, m) == _verdict(check_densities, m[None])


def test_check_kets_rejects_any_bad_row():
    good = np.array([[1.0, 0.0], [0.6, 0.8j]])
    check_kets(good)
    check_kets(good[0])
    check_kets(np.stack([good, good]))  # any leading shape
    # a norm^2 inside the tolerance passes, one outside fails
    check_kets(np.array([[1.0, 0.0], [math.sqrt(1 + DENSITY_TOL / 2), 0.0]]))
    with pytest.raises(ValueError, match="not normalized"):
        check_kets(np.array([[1.0, 0.0], [math.sqrt(1 + 2 * DENSITY_TOL), 0.0]]))
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            check_kets(np.array([[1.0, 0.0], [bad, 0.0]]))


def test_check_kets_solves_no_eigenproblem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    check_kets(np.eye(4, dtype=complex))
    StateVector((2, 2), np.eye(4)[1]).density()


@st.composite
def density_stacks(draw):
    """dims of one to three subsystems of dimension 2 or 3, and an (n, d, d)
    stack of random density matrices of random rank on them, n in 1..4."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3)))
    d = math.prod(dims)
    n = draw(st.integers(min_value=1, max_value=4))
    rank = draw(st.integers(min_value=1, max_value=d))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.normal(size=(n, d, rank)) + 1j * rng.normal(size=(n, d, rank))
    m = a @ a.conj().swapaxes(-1, -2)
    return dims, m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]


def _corrupt(m, kind, rng):
    """A copy of the density matrix m that fails one density check."""
    bad = m.copy()
    if kind == "hermitian":
        bad[0, -1] += 1e-3
    elif kind == "trace":
        bad *= 1 + 1e-3
    elif kind == "negative":
        evals, evecs = np.linalg.eigh(m)
        evals[-1] += evals[0] + 1e-3
        evals[0] = -1e-3
        bad = (evecs * evals) @ evecs.conj().T
    else:
        bad[tuple(rng.integers(0, len(m), size=2))] = np.nan
    return bad


@settings(max_examples=80, deadline=None)
@given(density_stacks(), st.sampled_from((None, "hermitian", "trace", "negative", "nan")), st.data())
def test_stacked_check_raises_what_the_single_check_raises(case, kind, data):
    dims, stack = case
    if kind is None:
        check_densities(stack)
        for m in stack:
            DensityOperator(dims, m)
        return
    i = data.draw(st.integers(min_value=0, max_value=len(stack) - 1))
    stack = stack.copy()
    stack[i] = _corrupt(stack[i], kind, np.random.default_rng(i))
    with pytest.raises(ValueError) as single:
        DensityOperator(dims, stack[i])
    with pytest.raises(ValueError) as stacked:
        check_densities(stack)
    assert str(stacked.value) == str(single.value)


def test_hermitian_eigvals_basics():
    assert np.allclose(hermitian_eigvals(np.eye(2)), [1, 1])
    assert np.allclose(hermitian_eigvals(np.diag([0.3, 0.7])), [0.7, 0.3])
    with pytest.raises(ValueError):
        hermitian_eigvals(np.array([[0, 1], [0, 0]]))


def test_realize_gram_identity():
    g = GramSpec(("a", "b", "c"), np.eye(3))
    vecs = realize_gram(g)
    assert vecs.shape == (3, 3)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)


def test_realize_gram_copier_vectors():
    spec = bh_gram(1 / 6)
    vecs = realize_gram(spec)
    regram = vecs.conj().T @ vecs
    assert np.max(np.abs(regram - spec.gram)) < 1e-9
    # the optimal copier needs only a rank-2 machine space
    assert vecs.shape[0] == 2


def test_realize_gram_schwarz_violation():
    g = bh_gram(1 / 6).gram.copy()
    g[0, 3] = g[3, 0] = 0.45  # exceeds sqrt(xi (1 - 2 xi))
    with pytest.raises(UnrealizableSpec) as err:
        realize_gram(GramSpec(("Q0", "Q1", "Y0", "Y1"), g))
    assert err.value.min_eigenvalue < -1e-9


def test_realize_gram_deterministic():
    spec = bh_gram(0.3)
    v1 = realize_gram(spec)
    v2 = realize_gram(spec)
    assert np.array_equal(v1, v2)


def test_apply_isometry_wz_on_basis():
    out = apply_isometry(build_wz(), StateVector((2,), [1, 0]))
    expected = kron_all(ket(0), ket(0), ket(0, 2))
    assert np.allclose(out.amps, expected)


def test_apply_isometry_identity():
    v = MachineIsometry((2,), (2,), np.eye(2))
    rho = DensityOperator((2,), np.diag([0.25, 0.75]))
    assert np.allclose(apply_isometry(v, rho).mat, rho.mat)


def test_apply_isometry_bh_opt_mixture():
    psi = StateVector((2,), [math.sqrt(0.5), math.sqrt(0.5)])
    out = apply_isometry(build_bh_opt(), psi).density()
    rho_a = partial_trace(out, [0])
    perp = np.array([math.sqrt(0.5), -math.sqrt(0.5)])
    expected = 5 / 6 * np.outer(psi.amps, psi.amps.conj()) + 1 / 6 * np.outer(perp, perp)
    assert np.max(np.abs(rho_a.mat - expected)) < 1e-12


def test_apply_isometry_dim_mismatch():
    with pytest.raises(ValueError):
        apply_isometry(build_wz(), StateVector((3,), [1, 0, 0]))


def test_schmidt_examples():
    alpha2 = 0.8
    amps = np.zeros(4)
    amps[0], amps[3] = math.sqrt(alpha2), math.sqrt(1 - alpha2)
    lam = schmidt(StateVector((2, 2), amps), [0])
    assert np.allclose(lam, [0.8, 0.2])
    lam = schmidt(StateVector((2, 2), [0, 1, 0, 0]), [0])
    assert np.allclose(lam, [1.0])
    lam = schmidt(StateVector((2, 2), bell_state("psi-")), [0])
    assert np.allclose(lam, [0.5, 0.5])


@pytest.mark.parametrize("split", [[0, 0], [1, 1, 2], [], [3], [-1]])
def test_schmidt_rejects_bad_selection(split):
    # a repeated index used to be taken once: [0, 0] gave the [0] split
    psi = StateVector((2, 2, 2), np.full(8, 1 / math.sqrt(8)))
    with pytest.raises(ValueError, match=r"invalid subsystem selection .* for 3 subsystems"):
        schmidt(psi, split)


def test_schmidt_rejects_split_without_complement():
    with pytest.raises(ValueError, match="proper nonempty bipartition"):
        schmidt(StateVector((2, 2), bell_state("psi-")), [1, 0])


def test_schmidt_concurrence_consistency():
    from qclone.measures import concurrence_pure

    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        ket_ = StateVector((2, 2), v)
        lam = schmidt(ket_, [0])
        lam = np.pad(lam, (0, 2 - lam.size))
        assert abs(2 * math.sqrt(lam[0] * lam[1]) - concurrence_pure(ket_)) < 1e-9


def test_bell_project_swapping():
    phi = bell_state("phi+")
    pair = np.kron(phi, phi)
    rho = DensityOperator((2, 2, 2, 2), np.outer(pair, pair.conj()))
    probs = []
    for label in ("phi+", "phi-", "psi+", "psi-"):
        p, post = bell_project(rho, (1, 2), label)
        probs.append(p)
        assert post is not None
        # the remaining qubits 1 and 4 are maximally entangled
        lam = np.linalg.eigvalsh(post.mat)
        assert lam[-1] > 1 - 1e-9
    assert np.allclose(probs, [0.25] * 4)
    # the phi+ outcome leaves phi+ on the outer pair
    p, post = bell_project(rho, (1, 2), "phi+")
    target = np.outer(phi, phi.conj())
    assert np.max(np.abs(post.mat - target)) < 1e-12


def test_bell_project_zero_branch():
    rho = DensityOperator((2, 2), np.diag([1.0, 0, 0, 0]))
    p, post = bell_project(rho, (0, 1), "psi-")
    assert p == 0.0 and post is None


def test_bell_project_distinct_indices():
    rho = DensityOperator((2, 2), np.eye(4) / 4)
    with pytest.raises(ValueError):
        bell_project(rho, (1, 1), "phi+")


@pytest.mark.parametrize("selection", [(), (0, 0), (0, 3), (-1, 0), (1, 1)])
def test_one_subsystem_selection_check(selection):
    # reduce_ket, partial_trace (of a ket and of an operator) and bell_project
    # reject empty, repeated and out-of-range selections alike
    psi = StateVector((2, 2, 2), np.full(8, 1 / math.sqrt(8)))
    rho = psi.density()
    calls = (
        lambda: reduce_ket(psi.amps, psi.dims, selection),
        lambda: partial_trace(psi, selection),
        lambda: partial_trace(rho, selection),
    )
    if len(selection) == 2:
        calls += (lambda: bell_project(rho, selection, "phi+"),)
    for call in calls:
        with pytest.raises(ValueError, match=r"invalid subsystem selection .* for 3 subsystems"):
            call()


def test_permute_subsystems():
    rng = np.random.default_rng(0)
    a = random_density(rng, (2,))
    b = random_density(rng, (3,))
    ab = tensor(a, b)
    ba = permute_subsystems(ab, [1, 0])
    assert ba.dims == (3, 2)
    assert np.max(np.abs(ba.mat - np.kron(b.mat, a.mat))) < 1e-12


def test_blank_state():
    blank = BlankState(0.6, 0.8)
    assert abs(np.vdot(blank.vec, blank.perp)) < 1e-12
    with pytest.raises(ValueError):
        BlankState(1.0, 0.5)


def test_isometry_rejects_bad_columns():
    with pytest.raises(ValueError):
        MachineIsometry((2,), (2, 2), np.ones((4, 2)))


def _isometry(rng, dout, din):
    """A random (dout, din) isometry: the Q factor of a random complex matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din)))
    return q


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from((((2,), (2, 2)), ((2,), (2, 2, 2)), ((3,), (3, 3)), ((2, 2), (2, 2, 3)))),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_an_isometry_stack_is_checked_as_its_worst_element(n, dims, seed, data):
    in_dims, out_dims = dims
    din, dout = math.prod(in_dims), math.prod(out_dims)
    rng = np.random.default_rng(seed)
    stack = np.stack([_isometry(rng, dout, din) for _ in range(n)])
    stack[:, 0, 0] += rng.uniform(-1e-9, 1e-9, size=n)  # element defects of up to about 2e-9
    elements = [MachineIsometry(in_dims, out_dims, m) for m in stack]
    assert MachineIsometry(in_dims, out_dims, stack).isometry_defect() == max(e.isometry_defect() for e in elements)
    # one element perturbed beyond the 1e-7 tolerance fails the whole stack
    k = data.draw(st.integers(0, n - 1))
    stack[k, 0, 0] += 1e-5
    with pytest.raises(ValueError, match="columns are not orthonormal"):
        MachineIsometry(in_dims, out_dims, stack)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((2, 2), (4, 2), (8, 2), (9, 3))), st.integers(0, 2**32 - 1), st.floats(0.0, 1e-3))
def test_a_single_isometry_is_checked_as_before(shape, seed, eps):
    dout, din = shape
    m = _isometry(np.random.default_rng(seed), dout, din)
    m[-1, -1] += eps
    # the (dout, din) defect as it was computed before stacks
    before = float(np.abs(m.conj().T @ m - np.eye(m.shape[1])).max())
    if before <= 1e-7:
        assert MachineIsometry((din,), (dout,), m).isometry_defect() == before
    else:
        with pytest.raises(ValueError, match=f"columns are not orthonormal \\(V\\^dag V deviates by {before:.3g}\\)"):
            MachineIsometry((din,), (dout,), m)


def test_an_isometry_matrix_must_be_one_map_or_a_stack_of_maps():
    for matrix in (np.eye(2)[0], np.eye(2)[None, None]):
        with pytest.raises(ValueError, match="does not match dims"):
            MachineIsometry((2,), (2,), matrix)


def test_a_blank_stack_is_its_blanks():
    m1, m2 = np.array([1.0, 0.6, 0.0]), np.array([0.0, -0.8j, 1.0])
    stack = BlankState(m1, m2)
    for i in range(3):
        one = BlankState(float(m1[i]), complex(m2[i]))
        assert np.array_equal(stack.vec[i], one.vec) and np.array_equal(stack.perp[i], one.perp)
    for bad in (np.array([0.0, 0.9j, 1.0]), np.array([0.0, math.nan, 1.0])):
        with pytest.raises(ValueError, match="blank state must satisfy"):
            BlankState(m1, bad)


def test_nan_fails_every_validation():
    good = np.eye(2, dtype=complex) / 2
    for i, j in product(range(2), repeat=2):
        bad = good.copy()
        bad[i, j] = np.nan
        with pytest.raises(ValueError):
            check_densities(np.stack([good, good, bad]))
        with pytest.raises(ValueError):
            DensityOperator((2,), bad)
    with pytest.raises(ValueError):
        check_densities(np.full((3, 2, 2), np.nan))
    with pytest.raises(ValueError, match="blank state must satisfy"):
        BlankState(math.nan, 0.0)
    with pytest.raises(ValueError, match="blank state must satisfy"):
        BlankState(1.0, complex(math.nan, 0.0))
    with pytest.raises(ValueError, match="not orthonormal"):
        MachineIsometry((2,), (2,), np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="Hermitian"):
        GramSpec(("a", "b"), np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        GramSpec(("a",), np.array([[np.nan]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigvals(np.full((2, 2), np.nan))


# ---------------------------------------------------------------------------
# the records are NamedTuples; the checked ones check in __new__


# a valid record of each checked type, and a field value that fails its check
CHECKED = {
    "StateVector": (lambda: StateVector((2,), [1.0, 0.0]), "amps", [1.0, 1.0]),
    "DensityOperator": (lambda: DensityOperator((2,), np.eye(2) / 2), "mat", np.eye(2)),
    "MachineIsometry": (lambda: MachineIsometry((2,), (2,), np.eye(2)), "matrix", np.ones((2, 2))),
    "GramSpec": (lambda: GramSpec(("a",), [[1.0]]), "gram", [[1.0, 0.0]]),
    "BlankState": (lambda: BlankState(1.0, 0.0), "m2", 0.5),
    "Interval": (lambda: bc.Interval(0.1, 0.2, "Separable"), "lo", 0.3),
    "CheckResult": (lambda: CheckResult("name", 1), "passed", 0),
}


@pytest.mark.parametrize("name", CHECKED)
def test_a_checked_record_rechecks_on_replace(name):
    make, field, value = CHECKED[name]
    record = make()
    assert type(record).__name__ == name and isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    if name == "CheckResult":  # its one normalization: passed is a bool
        assert record.passed is True and record._replace(passed=0).passed is False
        return
    with pytest.raises(ValueError):
        record._replace(**{field: value})


def test_a_checked_record_repr_leaves_out_its_arrays():
    assert repr(DensityOperator((2,), np.eye(2) / 2)) == "DensityOperator(dims=(2,))"
    assert repr(bc.Interval(0.1, 0.2, "Separable")) == "Interval(lo=0.1, hi=0.2, kind='Separable')"


def test_the_spec_cache_keeps_equal_specs_of_two_types_apart():
    # a MachineSpec and a DeleterSpec of equal fields are equal tuples
    machine, deleter = MachineSpec("pb", (1,)), DeleterSpec("pb", (1,))
    assert machine == deleter and hash(machine) == hash(deleter)
    kind = spec_cache(lambda spec: type(spec).__name__)
    assert [kind(machine), kind(deleter), kind(machine)] == ["MachineSpec", "DeleterSpec", "MachineSpec"]
