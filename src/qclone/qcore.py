"""Dense complex linear algebra for small multi-qubit/qudit systems.

Everything is a plain numpy array wrapped in a thin dataclass that remembers
the subsystem dimensions.  Index convention throughout the package:
row-major, with the *leftmost* tensor factor most significant, matching
``numpy.kron``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9  # realize_gram: PSD tolerance and rank cut-off

# Hermiticity, unit-trace and PSD tolerance of every density-operator check,
# single (DensityOperator) or stacked (check_densities), and the |psi|^2
# tolerance of every ket check (check_kets).
DENSITY_TOL = 1e-7

HERMITIAN_TOL = 1e-8  # hermitian_eigvals: anti-Hermitian part, relative to max entry
ZERO_BRANCH_TOL = 1e-12  # bell_project: smaller branch probabilities count as zero

SPEC_CACHE_SIZE = 128  # spec_cache: entries kept per cached function

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class UnrealizableSpec(ValueError):
    """A Gram matrix of prescribed inner products has no vector realization."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


def _as_dims(dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
    return dims


@dataclass(frozen=True)
class StateVector:
    """Pure state on an ordered product of finite-dimensional subsystems."""

    dims: tuple
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        object.__setattr__(self, "amps", amps)
        if amps.size != math.prod(self.dims):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match dims {self.dims}"
            )
        check_kets(amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityOperator":
        return _derived(self.dims, np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, PSD matrix with an ordered subsystem-dim list.

    Built from caller data, the matrix is checked here; an operator that the
    package derives from checked operands comes from :func:`_derived`.
    """

    dims: tuple
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        d = math.prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {self.dims}")
        check_densities(mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _derived(dims: tuple, mat: np.ndarray) -> DensityOperator:
    """Wrap a (d, d) matrix derived from checked operands, without a check.

    The one unchecked constructor, for a matrix that a PSD- and
    trace-preserving map made from a checked ket, operator or isometry: a
    ket reduction M M^dag, a partial trace, a tensor product, a subsystem
    permutation, V rho V^dag, a normalized Bell-projection branch.  Such a
    matrix is a density operator by construction, so it is never checked
    again; ``dims`` must already be valid.
    """
    rho = object.__new__(DensityOperator)
    object.__setattr__(rho, "dims", dims)
    object.__setattr__(rho, "mat", mat)
    return rho


def check_alpha2(alpha2: float) -> None:
    """Raise ValueError unless alpha^2 lies in [0, 1]; NaN fails too."""
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError(f"alpha^2 must lie in [0, 1], got {alpha2}")


def check_kets(amps: np.ndarray) -> None:
    """Raise ValueError unless every ket of a (..., d) stack is finite and
    has |psi|^2 within DENSITY_TOL of 1.

    |psi|^2 is the trace of every reduction of the ket, so the reductions of
    a ket that passes meet the density check without an eigensolve.
    """
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    norm2 = (amps.real**2 + amps.imag**2).sum(-1)
    worst = np.abs(norm2 - 1.0).max()
    if not worst <= DENSITY_TOL:
        raise ValueError(f"state vector is not normalized (|psi|^2 deviates from 1 by {worst:.3g})")


def check_densities(mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a (..., d, d) stack is
    Hermitian, unit-trace and PSD to within DENSITY_TOL.

    One batched eigensolve covers the whole stack.
    """
    # ndarray methods rather than np.max/np.min: those cost microseconds
    # per call, and every checked DensityOperator runs this.  Each test is
    # written so that a NaN fails it (every comparison with NaN is False).
    skew = np.abs(mats - mats.conj().swapaxes(-1, -2)).max()
    if not skew <= DENSITY_TOL:
        raise ValueError(f"density operator is not Hermitian (deviation {skew:.3g})")
    worst = np.abs(mats.diagonal(0, -2, -1).sum(-1).real - 1.0).max()
    if not worst <= DENSITY_TOL:
        raise ValueError(f"density operator trace deviates from 1 by {worst:.3g}")
    if not np.linalg.eigvalsh(mats)[..., 0].min() >= -DENSITY_TOL:
        raise ValueError("density operator has a significantly negative eigenvalue")


@dataclass(frozen=True)
class MachineIsometry:
    """Inner-product-preserving map: one output column per input basis index."""

    in_dims: tuple
    out_dims: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "in_dims", _as_dims(self.in_dims))
        object.__setattr__(self, "out_dims", _as_dims(self.out_dims))
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        din = math.prod(self.in_dims)
        dout = math.prod(self.out_dims)
        if m.shape != (dout, din):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.in_dims}->{self.out_dims}")
        if dout < din:
            raise ValueError("output space smaller than input space")
        defect = self.isometry_defect()
        if not defect <= 1e-7:  # NaN fails
            raise ValueError(f"columns are not orthonormal (V^dag V deviates by {defect:.3g})")

    def isometry_defect(self) -> float:
        """max |V^dag V - I|, by ndarray methods as in :func:`check_densities`."""
        m = self.matrix
        return float(np.abs(m.conj().T @ m - np.eye(m.shape[1])).max())


@dataclass(frozen=True)
class GramSpec:
    """Prescribed Hermitian matrix of machine-vector inner products."""

    labels: tuple
    gram: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        g = np.asarray(self.gram, dtype=complex)
        object.__setattr__(self, "gram", g)
        n = len(self.labels)
        if g.shape != (n, n):
            raise ValueError("gram matrix shape does not match labels")
        if not np.max(np.abs(g - g.conj().T)) <= 1e-10:  # NaN fails
            raise ValueError("gram matrix must be Hermitian")
        if np.any(np.diag(g).real < -1e-12):
            raise ValueError("gram diagonal must be nonnegative")


@dataclass(frozen=True)
class BlankState:
    """Qubit blank |Sigma> = m1|0> + m2|1> with m1 real."""

    m1: float
    m2: complex

    def __post_init__(self):
        if not abs(self.m1**2 + abs(self.m2) ** 2 - 1.0) <= 1e-9:  # NaN fails
            raise ValueError("blank state must satisfy m1^2 + |m2|^2 = 1")

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.m1, self.m2], dtype=complex)

    @property
    def perp(self) -> np.ndarray:
        """|Sigma_perp> = -m2* |0> + m1 |1>."""
        return np.array([-np.conj(self.m2), self.m1], dtype=complex)


def spec_cache(fn):
    """Cache ``fn(spec, ...)`` per spec, SPEC_CACHE_SIZE entries at most.

    The key holds the types of ``spec.params`` beside the spec, because equal
    numbers of different types hash alike: ``MachineSpec("wz-n", (3.0,))``
    must not be served the machine of ``(3,)``; the spec must be hashable.
    Exceptions are not cached, so an invalid spec raises on every call.
    Every hit returns the same object, so ``fn`` must return read-only
    arrays.  The result is a plain function with the name of ``fn`` and a
    ``cache_clear`` attribute, not an ``lru_cache`` object, so that
    ``bench/tracer.py`` (which wraps plain functions only) still traces it.
    """

    @functools.lru_cache(maxsize=SPEC_CACHE_SIZE, typed=True)
    def cached(spec, param_types, *args, **kwargs):
        return fn(spec, *args, **kwargs)

    @functools.wraps(fn)
    def lookup(spec, *args, **kwargs):
        return cached(spec, tuple(map(type, spec.params)), *args, **kwargs)

    lookup.cache_clear = cached.cache_clear
    return lookup


# ---------------------------------------------------------------------------
# construction helpers


def ket(index: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def qubit(alpha, beta) -> np.ndarray:
    v = np.array([alpha, beta], dtype=complex)
    return v / np.linalg.norm(v)


def kron_all(*factors) -> np.ndarray:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def bell_state(label: str) -> np.ndarray:
    s = np.zeros(4, dtype=complex)
    if label == "phi+":
        s[0] = s[3] = 1
    elif label == "phi-":
        s[0], s[3] = 1, -1
    elif label == "psi+":
        s[1] = s[2] = 1
    elif label == "psi-":
        s[1], s[2] = 1, -1
    else:
        raise ValueError(f"unknown Bell label {label!r}")
    return s / np.sqrt(2)


# ---------------------------------------------------------------------------
# core operations


def tensor(a, b):
    """Tensor product of two StateVectors or two DensityOperators."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.dims + b.dims, np.kron(a.amps, b.amps))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return _derived(a.dims + b.dims, np.kron(a.mat, b.mat))
    raise TypeError("tensor expects two StateVectors or two DensityOperators")


def _check_selection(keep, n: int) -> list:
    """``keep`` as a list; ValueError if it is empty, repeats an index or
    names one outside range(n)."""
    keep = list(keep)
    if not keep or len(set(keep)) < len(keep) or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem selection {keep} for {n} subsystems")
    return keep


def _trace_axes(mat: np.ndarray, dims, keep):
    n = len(dims)
    keep = sorted(_check_selection(keep, n))
    t = mat.reshape(list(dims) * 2)
    # contract traced-out row/col axis pairs, highest index first
    for ax in reversed([i for i in range(n) if i not in keep]):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = math.prod([dims[k] for k in keep])
    return t.reshape(d_keep, d_keep)


def reduce_ket(amps, dims, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the subsystems ``keep``.

    ``amps`` is one ket of shape (d,) or a batch of kets of shape (n, d); the
    result is (d_keep, d_keep) or (n, d_keep, d_keep), with the kept
    subsystems in the order ``keep`` lists them.  Reshape -> transpose ->
    M M^dag: the same matrix as tracing the outer product, which is never
    formed, and then reordering the kept subsystems.
    """
    dims = tuple(dims)
    n = len(dims)
    keep = _check_selection(keep, n)
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


def partial_trace(state, keep) -> DensityOperator:
    """Trace out all subsystems except ``keep`` (kept in original order).

    ``state`` is a DensityOperator or a StateVector; a pure state is reduced
    by :func:`reduce_ket` without forming its full density matrix.
    """
    keep = sorted(keep)  # reduce_ket and _trace_axes check the selection
    if isinstance(state, StateVector):
        reduced = reduce_ket(state.amps, state.dims, keep)
    else:
        reduced = _trace_axes(state.mat, state.dims, keep)
    return _derived(tuple(state.dims[k] for k in keep), reduced)


def partial_transpose(mat, dims, subsystems) -> np.ndarray:
    """Transpose the given subsystems of a raw (d, d) matrix on ``dims``, or
    of every matrix of a (..., d, d) stack; a Hermitian input gives a
    Hermitian result, which may be non-PSD.  An empty, repeated or
    out-of-range selection raises ValueError."""
    n = len(dims)
    batch = mat.shape[:-2]
    b = len(batch)
    t = mat.reshape(batch + tuple(dims) * 2)
    for s in _check_selection(subsystems, n):
        t = t.swapaxes(b + s, b + s + n)
    return t.reshape(mat.shape)


def hermitian_eigvals(mat: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    mat = np.asarray(mat, dtype=complex)
    if not np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_TOL * max(1.0, np.max(np.abs(mat))):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(mat)[::-1]


def realize_gram(spec: GramSpec) -> np.ndarray:
    """Concrete vectors (columns) reproducing the prescribed inner products.

    Deterministic: eigendecomposition restricted to eigenvalues > DEFAULT_TOL,
    each eigenvector's first nonzero component rotated to be real positive.
    Raises UnrealizableSpec when the Gram matrix is not PSD within DEFAULT_TOL.
    """
    g = spec.gram
    evals, evecs = np.linalg.eigh(g)
    if evals[0] < -DEFAULT_TOL:
        raise UnrealizableSpec(
            f"gram matrix for {spec.labels} is not PSD "
            f"(most negative eigenvalue {evals[0]:.3g})",
            min_eigenvalue=float(evals[0]),
        )
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = int(np.sum(evals > DEFAULT_TOL))
    evals, evecs = evals[:rank], evecs[:, :rank]
    # the first entry above 1e-12 of every column, divided out by its phase
    lead = evecs[(np.abs(evecs) > 1e-12).argmax(0), np.arange(rank)]
    evecs = evecs / (lead / np.abs(lead))
    # columns v_i of sqrt(L) U^dag satisfy <v_i|v_j> = G_ij
    return (np.sqrt(evals)[:, None] * evecs.conj().T)


def apply_isometry(v: MachineIsometry, state):
    """Apply V to a StateVector (-> StateVector) or DensityOperator (-> V rho V^dag)."""
    if isinstance(state, StateVector):
        if state.dims != v.in_dims:
            raise ValueError(f"input dims {state.dims} do not match machine {v.in_dims}")
        return StateVector(v.out_dims, v.matrix @ state.amps)
    if isinstance(state, DensityOperator):
        if state.dims != v.in_dims:
            raise ValueError(f"input dims {state.dims} do not match machine {v.in_dims}")
        return _derived(v.out_dims, v.matrix @ state.mat @ v.matrix.conj().T)
    raise TypeError("expected StateVector or DensityOperator")


def schmidt(ket: StateVector, split) -> np.ndarray:
    """Descending Schmidt coefficients lambda_i (squared singular values) of
    the split ``split`` | rest; the selection is checked as in
    :func:`partial_transpose`, and the rest must be nonempty."""
    n = len(ket.dims)
    left = sorted(_check_selection(split, n))
    right = [i for i in range(n) if i not in left]
    if not right:
        raise ValueError("split must be a proper nonempty bipartition")
    t = ket.amps.reshape(ket.dims)
    t = np.transpose(t, left + right)
    m = t.reshape(math.prod([ket.dims[i] for i in left]), -1)
    s = np.linalg.svd(m, compute_uv=False)
    lam = np.sort(s**2)[::-1]
    return lam[lam > 1e-14]


def permute_subsystems(rho: DensityOperator, order) -> DensityOperator:
    """Reorder subsystems so the new layout is dims[order[0]], dims[order[1]], ..."""
    order = list(order)
    n = len(rho.dims)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of subsystem indices")
    t = rho.mat.reshape(list(rho.dims) * 2)
    t = np.transpose(t, order + [i + n for i in order])
    dims = tuple(rho.dims[i] for i in order)
    return _derived(dims, t.reshape(rho.mat.shape))


def bell_project(rho: DensityOperator, pair, outcome: str):
    """Bell measurement of two qubit subsystems.

    Returns (probability, post-measurement DensityOperator on the remaining
    subsystems).  A branch of weight below ZERO_BRANCH_TOL returns (0.0, None).
    """
    n = len(rho.dims)
    i, j = _check_selection(pair, n)
    if rho.dims[i] != 2 or rho.dims[j] != 2:
        raise ValueError("bell_project requires qubit subsystems")
    bell = bell_state(outcome)
    # <bell|_{ij} rho |bell>_{ij} without building the full projector
    t = rho.mat.reshape(list(rho.dims) * 2)
    b = bell.reshape(2, 2)
    # contract ket-side axes (i, j) and bra-side axes (i+n, j+n)
    t = np.tensordot(b.conj(), t, axes=([0, 1], [i, j]))
    t = np.tensordot(b, t, axes=([0, 1], [i + n - 2, j + n - 2]))
    keep = [k for k in range(n) if k not in (i, j)]
    d_keep = math.prod([rho.dims[k] for k in keep])
    reduced = t.reshape(d_keep, d_keep)
    prob = float(np.trace(reduced).real)
    if prob < ZERO_BRANCH_TOL:
        return 0.0, None
    post = _derived(tuple(rho.dims[k] for k in keep), reduced / prob)
    return prob, post


def operator_on(op: np.ndarray, subsystems, dims) -> np.ndarray:
    """Embed an operator acting on the given subsystems into the full space."""
    subsystems = list(subsystems)
    dims = list(dims)
    n = len(dims)
    d_op = math.prod([dims[s] for s in subsystems])
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_op, d_op):
        raise ValueError("operator shape does not match selected subsystems")
    rest = [i for i in range(n) if i not in subsystems]
    d_rest = math.prod([dims[i] for i in rest])
    full = np.kron(op, np.eye(d_rest))
    # kron put (subsystems..., rest...); permute back to the original layout
    cur = subsystems + rest
    perm = [cur.index(i) for i in range(n)]
    t = full.reshape([dims[i] for i in cur] * 2)
    t = np.transpose(t, perm + [p + n for p in perm])
    return t.reshape(math.prod(dims), math.prod(dims))


def symmetric_basis_state(n_qubits: int, n_ones: int) -> np.ndarray:
    """Normalized symmetric n-qubit state with the given number of 1s."""
    if not 0 <= n_ones <= n_qubits:
        raise ValueError("n_ones out of range")
    ones = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits) & 1).sum(1)  # popcounts
    v = (ones == n_ones).astype(complex)
    return v / np.linalg.norm(v)
