"""Dense complex linear algebra for small multi-qubit/qudit systems.

Everything is a plain numpy array wrapped in a thin NamedTuple that remembers
the subsystem dimensions.  Index convention throughout the package:
row-major, with the *leftmost* tensor factor most significant, matching
``numpy.kron``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9  # realize_gram: PSD tolerance and rank cut-off

# Hermiticity, unit-trace and PSD tolerance of every density-operator check
# (check_densities) and |psi|^2 tolerance of every ket check (check_kets, BlankState).
# A stack needs no tolerance against its elements: an elementwise kernel gives each
# element the bits of its one-value call.  The one exception is a complex BLAS product
# (amps @ V.T), whose rounding may differ between a batch of one and a larger batch.
DENSITY_TOL = 1e-7

HERMITIAN_TOL = 1e-8  # hermitian_eigvals: anti-Hermitian part, relative to max entry
ZERO_BRANCH_TOL = 1e-12  # bell_project: smaller branch probabilities count as zero

SPEC_CACHE_SIZE = 128  # spec_cache: entries kept per cached function
LAYOUT_CACHE_SIZE = 64  # _gather_index: (dims, selections) layouts whose flat positions are kept

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class UnrealizableSpec(ValueError):
    """A Gram matrix of prescribed inner products has no vector realization."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class Domain(NamedTuple):
    """A parameter's interval, made by :func:`domain`: printed ends ``lo``,
    ``hi`` in brackets ``ends``; accepted extremes ``least``, ``most``, an
    open end moved one float inward so that a check is one comparison."""

    name: str
    lo: float
    hi: float
    ends: str
    least: float
    most: float

    def __str__(self):
        return f"{self.ends[0]}{_printed_end(self.lo)}, {_printed_end(self.hi)}{self.ends[1]}"

    def check(self, x, name=None):
        """x if every entry lies in the domain, else raise ValueError("NAME must
        lie in DOMAIN, got V") for the first entry V outside it; NaN lies in none."""
        if isinstance(x, np.ndarray):
            outside = x[~((self.least <= x) & (x <= self.most))]
            if not outside.size:
                return x
            x = outside.flat[0]
        elif self.least <= x <= self.most:
            return x
        raise ValueError(f"{name or self.name} must lie in {self}, got {x}")


def domain(name: str, lo: float, hi: float, ends: str = "[]") -> Domain:
    """The interval of parameter ``name``; a round bracket in ``ends`` marks an open end."""
    least = math.nextafter(lo, math.inf) if ends[0] == "(" else lo
    most = math.nextafter(hi, -math.inf) if ends[1] == ")" else hi
    return Domain(name, lo, hi, ends, least, most)


def _printed_end(v) -> str:
    """An interval end as printed: 0, 1/2, -1, inf, or in full."""
    from fractions import Fraction  # error messages only
    f = Fraction(v).limit_denominator(12) if math.isfinite(v) else v
    return str(f) if float(f) == v else repr(v)


# the domains that several modules share
ALPHA2 = domain("alpha^2", 0.0, 1.0)
PROBABILITY = domain("p", 0.0, 1.0)  # also a fidelity or an overlap in [0, 1]
DIMENSION = domain("dimension", 2, math.inf, "[)")
FINITE = domain("angle", -math.inf, math.inf, "()")  # an angle or a phase


def _as_dims(dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("need at least one subsystem")
    DIMENSION.check(min(dims), "subsystem dimension")
    return dims


class Checked:
    """Mixin of a record whose ``__new__`` checks and normalizes its fields.

    Such a record is a private NamedTuple of the fields, subclassed by the
    public class with ``__slots__ = ()`` and that ``__new__``, which ends in
    ``tuple.__new__(cls, fields)``.  Here ``_make``, and so ``_replace``,
    goes through ``__new__``; the repr names the public class, without arrays.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __repr__(self):
        shown = (f"{k}={v!r}" for k, v in zip(self._fields, self) if not isinstance(v, np.ndarray))
        name = next(c.__name__ for c in type(self).__mro__ if not c.__name__.startswith("_"))
        return f"{name}({', '.join(shown)})"


class _StateVector(NamedTuple):
    dims: tuple
    amps: np.ndarray


class StateVector(Checked, _StateVector):
    """Pure state on an ordered product of finite-dimensional subsystems."""

    __slots__ = ()

    def __new__(cls, dims, amps):
        dims = _as_dims(dims)
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(f"amplitude vector of length {amps.size} does not match dims {dims}")
        check_kets(amps)
        return tuple.__new__(cls, (dims, amps))

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityOperator":
        return _derived(self.dims, np.outer(self.amps, self.amps.conj()))


class _DensityOperator(NamedTuple):
    dims: tuple
    mat: np.ndarray


class DensityOperator(Checked, _DensityOperator):
    """Hermitian, unit-trace, PSD matrix with an ordered subsystem-dim list.

    Built from caller data, the matrix is checked here; an operator that the
    package derives from checked operands comes from :func:`_derived`.
    """

    __slots__ = ()
    _x = None  # the _x_moduli of an X state built as one (see _XOperator)

    def __new__(cls, dims, mat):
        rho = tuple.__new__(cls, (_as_dims(dims), np.asarray(mat, dtype=complex)))
        rho.__post_init__()
        return rho

    def __post_init__(self):
        """The check of every operator built from caller data.  It is looked
        up on the class at each construction, so that ``bench/tracer.py``
        can wrap it to count and time the checks."""
        d = math.prod(self.dims)
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} does not match dims {self.dims}")
        check_densities(self.mat)

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
    return tuple.__new__(DensityOperator, (dims, mat))


class _XOperator(DensityOperator):
    """A DensityOperator with an instance dict, for :func:`_derived_x`: a
    closed-form X state, derived from checked scalars and never checked."""

    def __reduce__(self):  # a copy or an unpickled twin is read-only and carries its own moduli
        return _derived_x, (self.mat,)


def _derived_x(mat: np.ndarray) -> DensityOperator:
    """:func:`_derived` for a closed form's two-qubit X state, built from
    checked scalars: no check.  The matrix is made read-only, so that the
    :func:`_x_moduli` of its X entries, which it carries, cannot go stale."""
    rho = tuple.__new__(_XOperator, ((2, 2), mat))
    rho._x = _x_moduli(*mat.reshape(16)[_X_ENTRIES].tolist())
    mat.flags.writeable = False
    return rho


def _derived_ket(dims: tuple, amps: np.ndarray) -> StateVector:
    """:func:`_derived` for a (d,) ket derived from checked operands (V|psi>,
    a tensor product, a normalized measurement branch): no check."""
    return tuple.__new__(StateVector, (dims, amps))


def check_kets(amps: np.ndarray) -> None:
    """Raise ValueError unless every ket of a real or complex (..., d) stack
    is finite and has |psi|^2 within DENSITY_TOL of 1: the check of every
    ket a caller hands in.  |psi|^2 is the trace of every reduction of the
    ket, so the reductions of a ket that passes meet the density check
    without an eigensolve.  A NaN or inf fails the norm test first.
    """
    sq = amps.real**2 + amps.imag**2 if amps.dtype.kind == "c" else amps * amps
    dev = np.add.reduce(sq, -1) - 1.0  # the reduction ndarray.sum makes, without its wrapper
    # one ket in Python floats: ndarray.max costs microseconds on a 0-d result
    worst = abs(float(dev)) if amps.ndim == 1 else abs(dev).max()
    if not worst <= DENSITY_TOL:
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        raise ValueError(f"state vector is not normalized (|psi|^2 deviates from 1 by {worst:.3g})")


def _real_amplitudes(amplitudes) -> np.ndarray:
    """``amplitudes`` as a float array.  A complex array whose imaginary
    parts are all zero is taken as real; any other raises ValueError, where
    a cast would drop the imaginary parts with only a ComplexWarning."""
    a = np.asarray(amplitudes)
    if a.dtype.kind == "c":
        if (a.imag != 0).any():
            raise ValueError("amplitudes must be real")
        a = a.real
    return a.astype(float, copy=False)


_NOT_HERMITIAN = "density operator is not Hermitian (deviation {:.3g})"
_BAD_TRACE = "density operator trace deviates from 1 by {:.3g}"
_NOT_PSD = "density operator has a significantly negative eigenvalue"


def check_densities(mats: np.ndarray) -> None:
    """Raise ValueError unless one (d, d) matrix or every matrix of a
    (..., d, d) stack is Hermitian, unit-trace and PSD to within DENSITY_TOL,
    by one batched eigensolve: one matrix has its verdict in a stack."""
    # ndarray methods rather than np.max/np.min: those cost microseconds
    # per call, and every checked DensityOperator runs this.  Each test is
    # written so that a NaN fails it (every comparison with NaN is False).
    skew = np.abs(mats - mats.conj().swapaxes(-1, -2)).max()
    if not skew <= DENSITY_TOL:
        raise ValueError(_NOT_HERMITIAN.format(skew))
    worst = np.abs(mats.diagonal(0, -2, -1).sum(-1).real - 1.0).max()
    if not worst <= DENSITY_TOL:
        raise ValueError(_BAD_TRACE.format(worst))
    least = np.linalg.eigvalsh(mats)[..., 0].min()
    if not least >= -DENSITY_TOL:
        raise ValueError(_NOT_PSD)


# flat indices of the entries of a 4x4 matrix off its diagonal and
# anti-diagonal, and of rho_00, rho_11, rho_22, rho_33, rho_03, rho_30,
# rho_12, rho_21
_OFF_X = np.flatnonzero(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))
_X_ENTRIES = np.array([0, 5, 10, 15, 3, 12, 6, 9])
_OFF_X.flags.writeable = False
_X_ENTRIES.flags.writeable = False


def _x_state(mats: np.ndarray):
    """The :func:`_x_moduli` of a stack of two-qubit X states, or None.

    For a (..., 4, 4) stack whose entries off the diagonal and the
    anti-diagonal are all exactly zero, returns the six moduli: Python
    floats for one matrix, arrays over the stack otherwise; for any other
    input, None.  Such a matrix is the direct sum of its blocks on {0, 3}
    and {1, 2}, so these numbers give its measures in closed form.  The test
    is exact zero, not a tolerance: a square root is only Hoelder-1/2, so
    an off-X entry of 1e-12 could move a concurrence by about 1e-6.
    """
    if mats.shape[-2:] != (4, 4):
        return None
    if mats.ndim == 2:
        # 1-d indexing and Python scalars cost a fraction of the stacked path
        flat = mats.reshape(16)
        if np.count_nonzero(flat[_OFF_X]):
            return None
        return _x_moduli(*flat[_X_ENTRIES].tolist())
    flat = mats.reshape(mats.shape[:-2] + (16,))
    if np.count_nonzero(flat[..., _OFF_X]):
        return None
    x = flat[..., _X_ENTRIES]
    return _x_moduli(*(x[..., i] for i in range(8)))


def _x_moduli(p00, p11, p22, p33, r03, r30, r12, r21):
    """(rho_00, rho_11, rho_22, rho_33, |rho_03|, |rho_12|) from the eight
    X entries of one X state or an X stack.  The diagonal's real part and
    rho_30 and rho_21 are what ``eigvalsh`` reads, so a matrix that is
    Hermitian only to within a tolerance gives the eigensolver's eigenvalues."""
    if isinstance(r30, np.ndarray):  # numpy's complex abs is not the hypot that a Python complex's is
        r30, r21 = np.hypot(r30.real, r30.imag), np.hypot(r21.real, r21.imag)
    return p00.real, p11.real, p22.real, p33.real, abs(r30), abs(r21)


def _x_block_minima(p00, p11, p22, p33, c_outer, c_inner):
    """The smaller eigenvalues of the blocks {0, 3} and {1, 2} of an X
    matrix with diagonal p and coherence moduli c_outer and c_inner, for
    floats or arrays: the smaller eigenvalue of [[a, z], [z*, d]] is
    (a+d)/2 - sqrt((a-d)^2/4 + |z|^2), by products and sqrt (a float's ``**`` is libm pow)."""
    sqrt = np.sqrt if isinstance(p00, np.ndarray) else math.sqrt
    outer = (p00 + p33) / 2 - sqrt((p00 - p33) * (p00 - p33) / 4 + c_outer * c_outer)
    inner = (p11 + p22) / 2 - sqrt((p11 - p22) * (p11 - p22) / 4 + c_inner * c_inner)
    return outer, inner


class _MachineIsometry(NamedTuple):
    in_dims: tuple
    out_dims: tuple
    matrix: np.ndarray


class MachineIsometry(Checked, _MachineIsometry):
    """Inner-product-preserving map: one output column per input basis index;
    an (n, dout, din) ``matrix`` is a stack of n maps, checked in one call."""

    __slots__ = ()

    def __new__(cls, in_dims, out_dims, matrix):
        in_dims, out_dims = _as_dims(in_dims), _as_dims(out_dims)
        m = np.asarray(matrix, dtype=complex)
        din = math.prod(in_dims)
        dout = math.prod(out_dims)
        if m.ndim > 3 or m.shape[-2:] != (dout, din):
            raise ValueError(f"matrix shape {m.shape} does not match dims {in_dims}->{out_dims}")
        if dout < din:
            raise ValueError("output space smaller than input space")
        v = tuple.__new__(cls, (in_dims, out_dims, m))
        defect = v.isometry_defect()
        if not defect <= 1e-7:  # NaN fails
            raise ValueError(f"columns are not orthonormal (V^dag V deviates by {defect:.3g})")
        return v

    def isometry_defect(self) -> float:
        """max |V^dag V - I| over the map or stack, by ndarray methods as in :func:`check_densities`."""
        m = self.matrix
        return float(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max())


class _GramSpec(NamedTuple):
    labels: tuple
    gram: np.ndarray


class GramSpec(Checked, _GramSpec):
    """Prescribed Hermitian matrix of machine-vector inner products."""

    __slots__ = ()

    def __new__(cls, labels, gram):
        labels = tuple(labels)
        g = np.asarray(gram, dtype=complex)
        n = len(labels)
        if g.shape != (n, n):
            raise ValueError("gram matrix shape does not match labels")
        if not np.max(np.abs(g - g.conj().T)) <= 1e-10:  # NaN fails
            raise ValueError("gram matrix must be Hermitian")
        if np.any(np.diag(g).real < -1e-12):
            raise ValueError("gram diagonal must be nonnegative")
        return tuple.__new__(cls, (labels, g))


class _BlankState(NamedTuple):
    m1: float
    m2: complex


class BlankState(Checked, _BlankState):
    """Qubit blank |Sigma> = m1|0> + m2|1> with m1 real; (n,) arrays m1, m2 make a stack."""

    __slots__ = ()

    def __new__(cls, m1, m2):
        dev = abs(m1 * m1 + abs(m2) * abs(m2) - 1.0)  # an array for a stack; products, as in _x_block_minima
        if not (dev.max() if isinstance(dev, np.ndarray) else dev) <= DENSITY_TOL:  # NaN fails
            raise ValueError("blank state must satisfy m1^2 + |m2|^2 = 1")
        return tuple.__new__(cls, (m1, m2))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.m1, self.m2], dtype=complex).T

    @property
    def perp(self) -> np.ndarray:
        """|Sigma_perp> = -m2* |0> + m1 |1>."""
        return np.array([-np.conj(self.m2), self.m1], dtype=complex).T


def spec_cache(fn):
    """Cache ``fn(spec, ...)`` per spec, SPEC_CACHE_SIZE entries at most.

    The key holds the types of ``spec.params`` beside the spec, because equal
    numbers of different types hash alike: ``MachineSpec("wz-n", (3.0,))``
    must not be served the machine of ``(3,)``.  A spec with array
    parameters, a stack, is unhashable: it is built on every call, uncached.
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
        try:
            hash(spec)
        except TypeError:  # a stack
            return fn(spec, *args, **kwargs)
        return cached(spec, tuple(map(type, spec.params)), *args, **kwargs)

    lookup.cache_clear = cached.cache_clear
    return lookup


# a catalog entry: the builder, its parameter names in order, and the names
# of the parameters that may be arrays, for a stack of machines
Family = NamedTuple("Family", [("build", Callable), ("params", tuple), ("stack", tuple)])


def family_entry(table: dict, spec, kind: str) -> Family:
    """The entry of ``spec.family`` in the ``kind`` catalog ``table``.  An
    unknown family, a parameter count the builder does not take (its
    trailing parameters with defaults may be left out), or an array (or a
    blank stack) given to a parameter the entry does not list as a stack
    parameter, raises ValueError."""
    if spec.family not in table:
        raise ValueError(f"unknown {kind} family {spec.family!r}")
    entry = table[spec.family]
    most = len(entry.params)
    # a wrapped builder (deleters._starting_in_zero) keeps its defaults on __wrapped__
    least = most - len(getattr(entry.build, "__wrapped__", entry.build).__defaults__ or ())
    if not least <= len(spec.params) <= most:
        count = f"{least} to {most}" if least < most else str(most)
        names = f" ({', '.join(entry.params)})" if most else ""
        raise ValueError(
            f"{spec.family} takes {count} parameter{'' if count == '1' else 's'}{names}, got {len(spec.params)}"
        )
    for name, value in zip(entry.params, spec.params):
        if name not in entry.stack and isinstance(getattr(value, "m1", value), np.ndarray):
            raise ValueError(f"{spec.family} parameter {name} must be one value, not an array")
    return entry


# ---------------------------------------------------------------------------
# construction helpers


def ket(index: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


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
        return _derived_ket(a.dims + b.dims, np.kron(a.amps, b.amps))
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


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _gather_index(dims: tuple, keeps: tuple) -> np.ndarray:
    """Read-only (len(keeps), d_keep, d_rest) flat positions on ``dims``, of
    a ket's amplitudes or an operator's rows and columns: entry (k, i, r)
    is where the subsystems of ``keeps[k]``, in its order, read i and the
    others, in theirs, read r.  Each selection is checked as by :func:`_check_selection`."""
    n = len(dims)
    keeps = [_check_selection(keep, n) for keep in keeps]
    sizes = {math.prod([dims[k] for k in keep]) for keep in keeps}
    if len(sizes) != 1:
        raise ValueError(f"selections {keeps} must keep subsystems of one total dimension")
    (d_keep,) = sizes
    flat = np.arange(math.prod(dims)).reshape(dims)
    index = np.stack([flat.transpose(k + [i for i in range(n) if i not in k]).reshape(d_keep, -1) for k in keeps])
    index.flags.writeable = False
    return index


def reduce_kets(amps, dims, keeps) -> np.ndarray:
    """Reduced density matrices (..., len(keeps), d_keep, d_keep) of one ket (d,)
    or a batch (..., d) on each selection of ``keeps``, in the order it lists
    its subsystems, all of one kept dimension d_keep: M M^dag for the (d_keep,
    d_rest) matrices M of one gather, the partial trace of the unformed outer product."""
    dims = tuple(dims)
    index = _gather_index(dims, tuple(map(tuple, keeps)))
    amps = np.asarray(amps, dtype=complex)
    if amps.shape[-1] != math.prod(dims):
        raise ValueError(f"ket of length {amps.shape[-1]} does not match dims {dims}")
    m = amps.take(index, axis=-1)  # C-ordered, where amps[..., index] may lead with the index axes
    return m @ m.conj().swapaxes(-1, -2)


def reduce_ket(amps, dims, keep) -> np.ndarray:
    """:func:`reduce_kets` on one selection: (..., d_keep, d_keep)."""
    return reduce_kets(amps, dims, (keep,))[..., 0, :, :]


def partial_trace(state, keep) -> DensityOperator:
    """Trace out all subsystems except ``keep`` (kept in original order).

    A StateVector is reduced by :func:`reduce_ket`, without its full density
    matrix.  A DensityOperator's entries are gathered at the positions of
    :func:`_gather_index` as (d_keep, d_keep, d_rest) and summed over the rest.
    """
    keep = sorted(keep)  # _gather_index checks the selection
    if isinstance(state, StateVector):
        reduced = reduce_ket(state.amps, state.dims, keep)
    else:
        (index,) = _gather_index(state.dims, (tuple(keep),))
        reduced = state.mat[index[:, None, :], index[None, :, :]].sum(-1)
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
    """Apply one V to a StateVector (-> StateVector) or DensityOperator (-> V rho V^dag)."""
    if v.matrix.ndim > 2:
        raise ValueError(f"apply_isometry takes one machine, not a stack of {len(v.matrix)}")
    if isinstance(state, StateVector):
        if state.dims != v.in_dims:
            raise ValueError(f"input dims {state.dims} do not match machine {v.in_dims}")
        return _derived_ket(v.out_dims, v.matrix @ state.amps)
    if isinstance(state, DensityOperator):
        if state.dims != v.in_dims:
            raise ValueError(f"input dims {state.dims} do not match machine {v.in_dims}")
        return _derived(v.out_dims, v.matrix @ state.mat @ v.matrix.conj().T)
    raise TypeError("expected StateVector or DensityOperator")


def schmidt(ket: StateVector, split) -> np.ndarray:
    """Descending Schmidt coefficients lambda_i (squared singular values) of
    the split ``split`` | rest: of the (d_split, d_rest) matrix of amplitudes
    that :func:`_gather_index` gathers.  The selection is checked as in
    :func:`partial_transpose`, and the rest must be nonempty."""
    (index,) = _gather_index(ket.dims, (tuple(sorted(split)),))
    if index.shape[1] == 1:  # no subsystem is left outside the split
        raise ValueError("split must be a proper nonempty bipartition")
    s = np.linalg.svd(ket.amps[index], compute_uv=False)
    lam = np.sort(s**2)[::-1]
    return lam[lam > 1e-14]


def permute_subsystems(rho: DensityOperator, order) -> DensityOperator:
    """Reorder subsystems so the new layout is dims[order[0]], dims[order[1]], ..."""
    order = list(order)
    n = len(rho.dims)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of subsystem indices")
    index = _gather_index(rho.dims, (tuple(order),)).reshape(-1)
    return _derived(tuple(rho.dims[i] for i in order), rho.mat[index[:, None], index])


def bell_project(rho: DensityOperator, pair, outcome: str):
    """Bell measurement of the two qubit subsystems ``pair`` of an operator
    with at least one other subsystem.

    Returns (probability, post-measurement DensityOperator on the remaining
    subsystems).  The branch contracts the Bell ket with the entries at the
    (pair, rest) positions of :func:`_gather_index`, rows first, without the
    full projector.  A branch of weight below ZERO_BRANCH_TOL returns (0.0, None).
    """
    n = len(rho.dims)
    pair = _check_selection(pair, n)
    if len(pair) != 2:
        raise ValueError(f"bell_project measures a pair of subsystems, not {pair}")
    i, j = pair
    if rho.dims[i] != 2 or rho.dims[j] != 2:
        raise ValueError("bell_project requires qubit subsystems")
    if n == 2:
        raise ValueError("bell_project needs a subsystem outside the measured pair")
    bell = bell_state(outcome)
    (index,) = _gather_index(rho.dims, ((i, j),))
    pairs = rho.mat[index[:, None, :, None], index[None, :, None, :]].reshape(4, -1)  # (4, 4 d_rest^2)
    # <bell| rho |bell> on the pair: two vector-matrix products, its rows first
    reduced = (bell @ (bell.conj() @ pairs).reshape(4, -1)).reshape(index.shape[1], -1)
    prob = float(np.trace(reduced).real)
    if prob < ZERO_BRANCH_TOL:
        return 0.0, None
    return prob, _derived(tuple(d for k, d in enumerate(rho.dims) if k not in (i, j)), reduced / prob)


def symmetric_basis_state(n_qubits: int, n_ones: int) -> np.ndarray:
    """Normalized symmetric n-qubit state with the given number of 1s."""
    domain("n_ones", 0, n_qubits).check(n_ones)
    ones = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits) & 1).sum(1)  # popcounts
    v = (ones == n_ones).astype(complex)
    return v / np.linalg.norm(v)
