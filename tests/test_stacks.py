"""One property for every stack function: element i of a stack call has the
bits of the one-value call on element i.

The thesis's tables each sweep one machine parameter (p in table 2.1, lambda
in tables 2.3 and 2.4, the blank in tables 4.1 and 4.2); qclone computes each
sweep as one stack of machines, so every reproduced row rests on this rule.
An entry of ``STACKS`` holds a strategy of a stack call's arguments, the
function, each element's arguments, the one-value call, the split of the
stack's value into its elements and the number of drawn examples; the
property compares the ``.tobytes()`` of every array and number, and the
verdict and message of a check.  One cause earns a tolerance: a complex BLAS
product (``amps @ V.T``) rounds a batch of one otherwise than a larger
batch, so the three entries that hold a one-input report to its row of a
batch allow BLAS_TOL.

The guard: every ``stack`` parameter of ``cloners.FAMILIES`` and
``deleters.DELETERS`` has an entry, and so has every ``broadcast`` function
that reads its input through ``_coerce_input`` or ``input_amps``, unless it
takes one input only and rejects a stack.
"""

import ast
import functools
import inspect
import math
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclone import broadcast as bc
from qclone import cloners, deleters, measures
from qclone.cloners import MachineSpec, build_machine
from qclone.deleters import CONV_LAMBDA, BlankState, DeleterSpec
from qclone.hybrid import HybridSpec, hybrid_machine
from qclone.qcore import DENSITY_TOL, DIMENSION, DensityOperator, MachineIsometry, StateVector, _x_state, bell_state
from qclone.qcore import check_densities, check_kets, partial_transpose, reduce_ket, reduce_kets
from families import DELETER_PARAMS, HYBRID_KINDS, ONE_TO_M_PARAMS, angles, blank_states, deleter_cases, integers
from families import kets, one_to_m_cases, probabilities, random_kets, seeds, within
from test_measures import X_PRODUCERS
from test_qcore import _isometry, _verdict, kets_on_subsystems

BLAS_TOL = 1e-15
EXAMPLES = 10  # Hypothesis examples per entry, each drawing examples // EXAMPLES argument sets


def _leaves(value):
    """The arrays, numbers, strings and Nones of a value, in order: the
    fields of a tuple, the keys and values of a dict, an operator's matrix."""
    if isinstance(value, dict):
        return [leaf for key, v in value.items() for leaf in (key, *_leaves(v))]
    if hasattr(value, "mat"):  # a DensityOperator
        return [value.mat]
    if isinstance(value, (tuple, list)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def _rows_of(*ranks):
    """Each element's arguments: row i of every argument with more axes than
    its one-value rank in ``ranks`` (leading axes flattened, a 0-d row as a
    Python number); an argument of rank None, or of its rank, all share."""

    def each(*args):
        stacked = {
            k: a.reshape((-1,) + a.shape[a.ndim - r :])
            for k, (a, r) in enumerate(zip(args, ranks))
            if r is not None and np.ndim(a) > r
        }
        n = len(next(iter(stacked.values())))
        rows = [{k: a[i].item() if a.ndim == 1 else a[i] for k, a in stacked.items()} for i in range(n)]
        return [tuple(row.get(k, a) for k, a in enumerate(args)) for row in rows]

    return each


def _rows(value, wants):
    """Each element's value: every array of the stack's value over its
    leading axes, left of the shape of the element's leaf; a number, string
    or None is every element's."""
    leaves = _leaves(value)
    assert len(leaves) == len(wants[0])
    cut = [x.reshape((-1,) + x.shape[x.ndim - np.ndim(w) :]) if isinstance(x, np.ndarray) else x for x, w in zip(leaves, wants[0])]
    assert all(len(x) == len(wants) for x in cut if isinstance(x, np.ndarray))
    return [[x[i] if isinstance(x, np.ndarray) else x for x in cut] for i in range(len(wants))]


def _whole(value, wants):
    return [value]  # an aggregate: the stack's value is that of its one element


class Entry(NamedTuple):
    args: st.SearchStrategy  # the stack call's arguments
    fn: Callable
    elements: Callable  # stack arguments -> each element's arguments
    one: Optional[Callable] = None  # the one-value call, if not fn
    split: Callable = _rows  # (stack value, each element's leaves) -> each element's value
    tol: float = 0.0
    cases: tuple = ()  # the arguments of pinned counterexamples
    examples: int = 40  # argument sets drawn


def _same(got, want, tol):
    if got is None or want is None or isinstance(got, str) or isinstance(want, str):
        return got == want
    g, w = np.asarray(got), np.asarray(want)
    if tol:
        return g.shape == w.shape and np.abs(g - w).max(initial=0.0) <= tol
    return (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def _assert_elements(entry, args):
    wants = [_leaves((entry.one or entry.fn)(*one_args)) for one_args in entry.elements(*args)]
    assert not any(isinstance(w, np.generic) for want in wants for w in want)  # a number of one value is Python's
    values = entry.split(entry.fn(*args), wants)
    assert len(values) == len(wants)
    for i, (value, want) in enumerate(zip(values, wants)):
        got = _leaves(value)
        assert len(got) == len(want), i
        for k, (g, w) in enumerate(zip(got, want)):
            assert _same(g, w, entry.tol), f"element {i}, leaf {k}: {g!r} != {w!r}"


# ---------------------------------------------------------------------------
# qcore and measures


def _checks(check):
    """A check's entry fields: a stack's verdict and message are those of its one failing row."""

    def first(*rows):
        return next(filter(None, (_verdict(check, row) for row in rows)), None)

    return dict(fn=functools.partial(_verdict, check), elements=lambda stack: [tuple(stack)], one=first, split=_whole)


@st.composite
def _one_bad_row(draw, stacks, spoil):
    """A stack of ``stacks`` with at most one row spoiled by ``spoil(row, draw)``."""
    stack = draw(stacks)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(stack) - 1))
        stack[i] = spoil(stack[i], draw)
    return (stack,)


def _spoil_ket(amps, draw):
    """The ket off the norm tolerance (or just within it), or with an entry not finite."""
    bad = draw(st.sampled_from(("norm", math.nan, math.inf)))
    if bad == "norm":
        return amps * math.sqrt(1 + draw(st.floats(-4 * DENSITY_TOL, 4 * DENSITY_TOL)))
    amps[draw(st.integers(0, len(amps) - 1))] = bad
    return amps


def _corrupt(m, draw):
    """A copy of the density matrix m that fails one density check."""
    kind, bad = draw(st.sampled_from(("hermitian", "trace", "negative", "nan"))), m.copy()
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
        bad[draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))] = np.nan
    return bad


def _densities(rng, n, d, rank):
    a = rng.normal(size=(n, d, rank)) + 1j * rng.normal(size=(n, d, rank))
    m = a @ a.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]


@st.composite
def density_stacks(draw, least_systems=1):
    """dims of one to three subsystems of dimension 2 or 3, and an (n, d, d)
    stack of random density matrices of random rank on them, n in 1..4."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=least_systems, max_size=3)))
    d = math.prod(dims)
    return dims, _densities(np.random.default_rng(draw(seeds)), draw(st.integers(1, 4)), d, draw(st.integers(1, d)))


def _x_matrix(p, outer, inner):
    """The two-qubit X state with diagonal p and coherences rho_03 = outer, rho_12 = inner."""
    m = np.diag(p).astype(complex)
    m[0, 3], m[1, 2] = outer, inner
    m[3, 0], m[2, 1] = np.conj(outer), np.conj(inner)
    return m


@st.composite
def _boundary_x_states(draw):
    """A stack of one X state whose boundary block has its smaller
    eigenvalue within rounding (1e-15) of -DENSITY_TOL, where the verdict
    turns, and whose other block has a coherence of any admissible modulus."""
    p = np.array([draw(st.floats(0.01, 1.0)) for _ in range(4)])
    p /= p.sum()
    least = -DENSITY_TOL + draw(st.floats(-1e-15, 1e-15))
    boundary, other = ((1, 2), (0, 3)) if draw(st.booleans()) else ((0, 3), (1, 2))
    # the modulus at which the boundary block's smaller eigenvalue is least
    c = {boundary: math.sqrt(max(0.0, (p[boundary[0]] - least) * (p[boundary[1]] - least)))}
    c[other] = draw(st.floats(0.0, 1.0)) * math.sqrt(p[other[0]] * p[other[1]])
    m = _x_matrix(p, *(c[pair] * np.exp(1j * draw(angles)) for pair in ((0, 3), (1, 2))))
    assert _x_state(m) is not None
    return (m[None],)


# eigvalsh's least eigenvalue of this X state, -1.00000000003e-7, fails the
# tolerance; the closed-form block eigenvalue of an X branch,
# -9.99999998919e-8, passed it alone but not in a stack of one
X_BOUNDARY = _x_matrix(
    [0.07455132616725414, 0.4327081617362663, 0.19041807126985127, 0.3023224408266283],
    0.0,
    0.2205829437642053 - 0.183680921201668j,
)


@st.composite
def _isometries(draw):
    """A stack of isometries, element defects of up to about 2e-9."""
    dims = draw(st.sampled_from((((2,), (2, 2)), ((2,), (2, 2, 2)), ((3,), (3, 3)), ((2, 2), (2, 2, 3)))))
    rng, n = np.random.default_rng(draw(seeds)), draw(st.integers(1, 5))
    stack = np.stack([_isometry(rng, math.prod(dims[1]), math.prod(dims[0])) for _ in range(n)])
    stack[:, 0, 0] += rng.uniform(-1e-9, 1e-9, size=n)
    return (*dims, stack)


def _defect(in_dims, out_dims, matrix):
    return MachineIsometry(in_dims, out_dims, matrix).isometry_defect()


def _conv_parts(spec):
    """A conv spec's machine matrix and initial machine ket, each + 0.0 (a
    -0.0 made 0.0): the spec cache serves an equal spec's build, and a blank
    of -0.0 equals one of 0.0 but builds zeros of the other sign."""
    return deleters.build_deleter(spec).matrix + 0.0, deleters._deleter_parts(spec)[1] + 0.0


def _blank_stack(blanks):
    return BlankState(np.array([b.m1 for b in blanks]), np.array([b.m2 for b in blanks]))


@st.composite
def _operand_stacks(draw):
    """An (n, d) ket stack and two (n, d, d) density stacks."""
    dims, mats = draw(density_stacks())
    n, d, rng = len(mats), math.prod(dims), np.random.default_rng(draw(seeds))
    return random_kets(rng, (n, d)), mats, _densities(rng, n, d, d)


def _closed_form_x_states(a2, phase, lam, split):
    """The X states of every closed form at one point, each carried and read-only."""
    return np.stack([op.mat for make in X_PRODUCERS.values() for op in make(a2, phase, lam)]), (2, 2), split


SPLITS = st.sampled_from(((0,), (1,)))
X_STACKS = st.builds(_closed_form_x_states, probabilities, angles, within(bc.COPIER_LAMBDA), SPLITS)


@st.composite
def _pt_stacks(draw):
    """Werner states or random densities on 2 or 3 subsystems, and a split."""
    if draw(st.booleans()):
        ps = np.array(draw(st.lists(probabilities, min_size=1, max_size=5)))[:, None, None]
        return ps * np.outer(*[bell_state("psi-")] * 2) + (1 - ps) * np.eye(4) / 4, (2, 2), draw(SPLITS)
    dims, mats = draw(density_stacks(least_systems=2))
    return mats, dims, draw(st.lists(st.sampled_from(range(len(dims))), min_size=1, max_size=len(dims) - 1, unique=True))


def _pt(mats, dims, split):
    return measures.min_pt_eigenvalue(mats, dims, split), measures.is_npt(mats, dims, split)


# the squares and roots of one X state in libm pow moved its least
# eigenvalue off its element of a stack: rho_16_closed, rho_46_closed, rho_12_closed
X_PINNED = tuple(
    _closed_form_x_states(a2, 0.0, 0.2, split)
    for a2 in (0.19457688761579417, 0.23009289560526314, 0.2428518596136473)
    for split in ((0,), (1,))
)


# ---------------------------------------------------------------------------
# machine stacks and reports


def _is_stack(param):
    return isinstance(param.m1 if isinstance(param, BlankState) else param, np.ndarray)


def _specs_of(spec):
    """The one-value specs of a stack spec, its stack's values as Python numbers or blanks."""
    at = next(i for i, param in enumerate(spec.params) if _is_stack(param))
    stack = spec.params[at]
    values = [*map(BlankState, stack.m1.tolist(), stack.m2.tolist())] if isinstance(stack, BlankState) else stack.tolist()
    return [spec._replace(params=spec.params[:at] + (v,) + spec.params[at + 1 :]) for v in values]


def _stack_specs(table, spec_type, params, family, name):
    """Specs of the family's strategy with a stack of 1 to 4 of its values at ``name``."""
    at = table[family].params.index(name)

    def spec(base, values):
        stack = _blank_stack(values) if isinstance(values[0], BlankState) else np.array(values)
        return spec_type(family, base[:at] + (stack,) + base[at + 1 :])

    return st.builds(spec, params[family], st.lists(params[family].map(lambda p: p[at]), min_size=1, max_size=4))


def _family_entry(specs, build, **fields):
    """A stack parameter's entry: a stack spec against the spec of each of its values."""
    return Entry(st.tuples(specs), build, lambda spec: [(one,) for one in _specs_of(spec)], **fields)


HEIS_STACKS = _stack_specs(cloners.FAMILIES, MachineSpec, ONE_TO_M_PARAMS, "heis-asym", "p")


# p = 0.9229477291654931 has p**2 != p * p: an element built with ** on one
# float once differed from its stack's (p * p) by 1.1e-16
P_SQUARE = 0.9229477291654931
P_SQUARE_CASES = tuple((MachineSpec("heis-asym", (5, np.array(ps))),) for ps in ([0.0, P_SQUARE], [P_SQUARE, 0.0]))


@st.composite
def _hybrids(draw):
    """A hybrid stack along lambda, or of a pauli-asym stack with one lambda or one per machine."""
    lams = st.lists(probabilities, min_size=1, max_size=4)
    if draw(st.booleans()):
        return (HYBRID_KINDS[draw(st.sampled_from(sorted(HYBRID_KINDS)))](draw(probabilities), np.array(draw(lams))),)
    ps = draw(lams)
    lam = draw(st.one_of(probabilities, st.lists(probabilities, min_size=len(ps), max_size=len(ps)).map(np.array)))
    return (HybridSpec(MachineSpec("pauli-asym", (np.array(ps),)), MachineSpec("bh-opt"), lam),)


def _hybrids_of(spec):
    """The one-value hybrids of a stack of components, of lambdas, or of both."""
    lams = spec.lmbda.tolist() if _is_stack(spec.lmbda) else None
    m1s = _specs_of(spec.m1) if any(map(_is_stack, spec.m1.params)) else [spec.m1] * len(lams)
    return [(spec._replace(m1=m1, lmbda=lam),) for m1, lam in zip(m1s, lams or [spec.lmbda] * len(m1s))]


def _per_machine(spec, amps, *rest):
    """Each machine on the shared (n, d) inputs, or on its own of (n_machines, n, d) ones."""
    return [(one, amps if amps.ndim == 2 else amps[i], *rest) for i, one in enumerate(_specs_of(spec))]


@st.composite
def _clone_stacks(draw):
    spec = draw(HEIS_STACKS)
    (d, ps), n = spec.params, draw(st.integers(1, 4))
    return spec, draw(kets((n, d) if draw(st.booleans()) else (len(ps), n, d)))


def _delete_stacks(lam, seed, machines, n, n_transformers, shared):
    """A conv spec of a stack of random blanks, m1 real, and random inputs, from one seed."""
    rng = np.random.default_rng(seed)
    z = random_kets(rng, (machines, 2))
    z *= np.exp(-1j * np.angle(z[:, :1]))
    amps = random_kets(rng, (n, 2) if shared else (machines, n, 2))
    return DeleterSpec("conv", (lam, BlankState(z[:, 0].real, z[:, 1]))), amps, n_transformers


def _real_rows(widths):
    """A stack of 1 to 5 random real unit rows, of a width drawn from ``widths``."""
    rows = st.builds(lambda seed, k, w: np.random.default_rng(seed).normal(size=(k, w)), seeds, st.integers(1, 5), widths)
    return rows.map(lambda a: a / np.linalg.norm(a, axis=1, keepdims=True))


transformers = st.sampled_from([0, 1, 2])


# ---------------------------------------------------------------------------
# broadcast


def _inputs(lams=None):
    """An (n, 2) or (n, 4) stack of real inputs, then with ``lams(n)`` a lambda or one per input."""
    amps = _real_rows(st.sampled_from((2, 4)))
    return amps.map(lambda a: (a,)) if lams is None else amps.flatmap(lambda a: st.tuples(st.just(a), lams(len(a))))


def _broadcast(lams, fn, **fields):
    return Entry(_inputs(lams), fn, _rows_of(1, 0), **fields)


def _lambdas(n):
    """One lambda for every input, or one per input (as intervals_by_bisection assembles them)."""
    one = within(bc.COPIER_LAMBDA)
    return st.one_of(one, st.lists(one, min_size=n, max_size=n).map(np.array))


# an input whose coefficients, at lambda = 0.2, once left the stack's bits,
# when a square on one input's floats was ** 2
V0 = np.array([-0.7050896431718554, -0.43022162015528964, 0.15101915135293786, -0.543094069722163])
V0_CASES = ((np.stack([V0, V0[::-1]]), 0.2),)


STACKS = {
    # qcore
    "qcore.reduce_ket": Entry(kets_on_subsystems().map(lambda c: (c[2], c[0], c[1])), reduce_ket, _rows_of(1), examples=60),
    "qcore.reduce_kets": Entry(
        kets_on_subsystems().map(lambda c: (c[2], c[0], [c[1], c[1][::-1]])), reduce_kets, _rows_of(1)
    ),
    "qcore.partial_transpose": Entry(  # a stack with two leading axes
        st.one_of(_pt_stacks(), X_STACKS).map(lambda a: (a[0][None], *a[1:])), partial_transpose, _rows_of(2)
    ),
    "qcore.check_kets": Entry(
        _one_bad_row(st.tuples(st.integers(1, 4), st.integers(2, 4)).flatmap(kets), _spoil_ket), **_checks(check_kets)
    ),
    "qcore.check_densities": Entry(
        _one_bad_row(density_stacks().map(lambda c: c[1]), _corrupt), **_checks(check_densities), examples=80
    ),
    "qcore.check_densities at the PSD boundary": Entry(
        _boundary_x_states(), **_checks(check_densities), cases=((X_BOUNDARY[None],),), examples=200
    ),
    "qcore.MachineIsometry.isometry_defect": Entry(
        _isometries(),
        _defect,
        lambda in_dims, out_dims, stack: [tuple((in_dims, out_dims, m) for m in stack)],
        lambda *machines: max(_defect(*m) for m in machines),  # the worst element's
        _whole,
    ),
    "qcore.BlankState": Entry(
        st.lists(blank_states(), min_size=1, max_size=4).map(lambda blanks: tuple(_blank_stack(blanks))),
        lambda m1, m2: (BlankState(m1, m2).vec, BlankState(m1, m2).perp),
        _rows_of(0, 0),
    ),
    # measures: a ket stack with an operator stack or with one operator, one ket with an operator stack
    "measures.overlap": Entry(
        _operand_stacks().flatmap(lambda c: st.sampled_from([c[:2], (c[0], c[1][0]), (c[0][0], c[1])])),
        measures.overlap,
        _rows_of(1, 2),
        lambda a, m: measures.overlap(StateVector((len(a),), a), DensityOperator((len(a),), m)),  # typed
    ),
    "measures.hs_distance": Entry(
        _operand_stacks().flatmap(lambda c: st.sampled_from([c[1:], (c[1], c[2][0])])), measures.hs_distance, _rows_of(2, 2)
    ),
    "measures.min_pt_eigenvalue, is_npt": Entry(_pt_stacks(), _pt, _rows_of(2)),
    # every closed form's X states at one point: 60 points per split
    "measures.min_pt_eigenvalue, is_npt of closed-form X states": Entry(
        X_STACKS, _pt, _rows_of(2), cases=X_PINNED, examples=120
    ),
    # every stack parameter of a family, built through build_machine and build_deleter
    "pauli-asym p": _family_entry(
        _stack_specs(cloners.FAMILIES, MachineSpec, ONE_TO_M_PARAMS, "pauli-asym", "p"),
        lambda spec: build_machine(spec).matrix,
    ),
    "heis-asym p": _family_entry(HEIS_STACKS, lambda spec: build_machine(spec).matrix, cases=P_SQUARE_CASES),
    "conv blank": _family_entry(  # the machine matrix and the initial machine ket, one for a stack
        _stack_specs(deleters.DELETERS, DeleterSpec, DELETER_PARAMS, "conv", "blank"),
        _conv_parts,
        split=lambda arrays, wants: [(m, arrays[1]) for m in arrays[0]],
    ),
    "hybrid.hybrid_machine": Entry(_hybrids(), lambda spec: hybrid_machine(spec).matrix, _hybrids_of, examples=120),
    # reports
    "cloners.clone_reports per input": Entry(
        one_to_m_cases(),
        cloners.clone_reports,
        _rows_of(None, 1),
        lambda spec, amps: cloners.clone_report(spec, StateVector(amps.shape, amps)),
        tol=BLAS_TOL,
        examples=80,
    ),
    "cloners.clone_reports per machine": Entry(_clone_stacks(), cloners.clone_reports, _per_machine),
    "deleters.delete_reports per input": Entry(
        deleter_cases(),
        deleters.delete_reports,
        _rows_of(None, 1, None),
        lambda spec, amps, n: deleters.delete_report(spec, StateVector((2,), amps), n)[:6],  # the per-input fields
        tol=BLAS_TOL,
        examples=80,
    ),
    "deleters.delete_reports per deleter": Entry(
        st.builds(_delete_stacks, within(CONV_LAMBDA), seeds, *[st.integers(1, 4)] * 2, transformers, st.booleans()),
        deleters.delete_reports,
        _per_machine,
        # a one-ket overlap spelled apart from the stacked one moved F_2 by its last bit
        cases=(_delete_stacks(0.0, 0, 2, 3, 0, True),),
    ),
    "cloners.ying_indices": Entry(
        integers(DIMENSION, 4).flatmap(lambda n: st.tuples(st.just(n), _real_rows(st.just(n)))),
        cloners.ying_indices,
        _rows_of(None, 1),
        tol=BLAS_TOL,
    ),
    # broadcast
    "broadcast._coerce_input": Entry(_inputs(), bc._coerce_input, _rows_of(1)),
    "broadcast.input_amps": Entry(_inputs(), bc.input_amps, _rows_of(1)),
    "broadcast.nonlocal_coefficients": _broadcast(_lambdas, bc.nonlocal_coefficients, cases=V0_CASES, examples=60),
    "broadcast.local_coefficients": Entry(
        _inputs(_lambdas).flatmap(lambda a: st.sampled_from([(*a, "A"), (*a, "B")])),
        bc.local_coefficients,
        _rows_of(1, 0),
        examples=60,
    ),
    "broadcast.broadcast_output_matrices": _broadcast(_lambdas, bc.broadcast_output_matrices, cases=V0_CASES),
    "broadcast.broadcast_channel_matrices": _broadcast(_lambdas, bc.broadcast_channel_matrices),
    "broadcast.broadcast_machine_matrices": _broadcast(  # lambda: the xi of a realizable bh copier
        lambda n: within(cloners.XI, least=1 / 6), bc.broadcast_machine_matrices
    ),
}


@pytest.mark.parametrize("name", STACKS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_every_stack_element_is_its_one_value_call(name, data):
    entry = STACKS[name]
    for _ in range(entry.examples // EXAMPLES):
        _assert_elements(entry, data.draw(entry.args))


@pytest.mark.parametrize("name, args", [(name, args) for name, entry in STACKS.items() for args in entry.cases])
def test_every_pinned_case_is_its_one_value_call(name, args):
    _assert_elements(STACKS[name], args)


# the broadcast forms of one input, each with its arguments after the input
ONE_INPUT = {"input_ket": (), "broadcast_outputs": (0.2,)}


def _callers(module, names):
    """The functions of ``module`` whose body calls one of ``names``."""
    return {
        node.name
        for node in ast.parse(inspect.getsource(module)).body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) in names for c in ast.walk(node))
    }


def test_every_stack_function_has_an_entry():
    tables = (cloners.FAMILIES, deleters.DELETERS)
    params = [f"{family} {name}" for table in tables for family, entry in table.items() for name in entry.stack]
    assert params and [p for p in params if p not in STACKS] == []
    readers = _callers(bc, {"_coerce_input", "input_amps"}) - set(ONE_INPUT)
    entries = {key.split()[0].removeprefix("broadcast.") for key in STACKS}
    assert readers and sorted(readers - entries) == []
    for fn, rest in ONE_INPUT.items():  # a form of one input rejects a stack
        with pytest.raises(ValueError, match="need one input, not a stack"):
            getattr(bc, fn)(np.array([[0.6, 0.8], [1.0, 0.0]]), *rest)
