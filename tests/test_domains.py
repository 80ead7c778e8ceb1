"""Every parameter domain is declared once and checked by one kernel.

The property reads each declared domain's ends from its declaration, so a
domain that widens or narrows moves the tested points with it; a domain
declared without a library entry point here fails it, as a copier family
without a strategy fails tests/test_invariants.py.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qclone import broadcast as bc
from qclone import cli, cloners, concat, deleters, hybrid, measures, qcore
from qclone.qcore import Domain

MODULES = (qcore, measures, cloners, deleters, hybrid, bc, concat, cli)


def _declared() -> dict:
    """module.NAME -> Domain, each declaration once under the module that
    makes it (the others import it)."""
    seen = {}
    for module in MODULES:
        for attr, value in vars(module).items():
            if isinstance(value, Domain) and not any(value is d for d in seen.values()):
                seen[f"{module.__name__.rsplit('.', 1)[1]}.{attr}"] = value
    return seen


DECLARED = _declared()

# module.NAME -> (the owning library entry point, taking one value of the
# domain, and the parameter name its message gives)
LIBRARY = {
    "qcore.ALPHA2": (deleters.conv_f3_limit, "alpha^2"),
    "qcore.PROBABILITY": (lambda v: cloners.build_heis_asym(3, v), "p"),
    "qcore.DIMENSION": (cloners.uqcm_fidelity, "dimension"),
    "qcore.FINITE": (cloners.kr_optimal_mu2, "theta"),
    "measures.CONCURRENCE": (measures.eof_from_concurrence, "concurrence"),
    "cloners.XI": (cloners.bh_gram, "xi"),
    "cloners.MU2": (lambda v: cloners.build_kr(math.sqrt(v)), "mu^2"),
    "cloners.GM_COPIES": (cloners.build_gm_1m, "copies"),
    "cloners.MIXED_COPIES": (cloners.build_mixed_2m, "copies"),
    "cloners.BDEFMS_OVERLAP": (cloners.bdefms_fidelity, "S"),
    "cloners.PROB_OVERLAP": (lambda v: cloners.prob_clone_success(v, 0.5, 2), "state overlap"),
    "cloners.PROB_COPIES": (lambda v: cloners.prob_clone_success(0.5, 0.5, v), "copies"),
    "cloners.PC_INPUTS": (cloners.pc_limit_fidelity, "input copies"),
    "cloners.SCALING_COPIES": (cloners.mixed_2m_scaling, "copies"),
    "deleters.CONV_LAMBDA": (deleters.conv_max_y, "lambda"),
    "deleters.BLANK_OVERLAP": (lambda v: deleters.sdep_averages(*deleters.SDEP_EXAMPLE, v), "blank overlap"),
    "hybrid.BHBH_LAMBDA": (lambda v: hybrid.bhbh_state_dependent(0.5, v), "lambda"),
    "broadcast.COPIER_LAMBDA": (bc.avg_broadcast_fidelity, "lambda"),
    "broadcast.INTERVAL_LAMBDA": (bc.insep_interval, "lambda"),
}

# the CLI's own domains; every other domain an option reaches is the library's
CLI_ONLY = {"cli.DIM", "cli.TOL"}

# (module.NAME, argv up to the option that takes a value of the domain)
CLI_OPTIONS = [
    ("qcore.ALPHA2", ["clone", "--family", "bh-opt", "--alpha2"]),
    ("qcore.ALPHA2", ["delete", "--family", "pb", "--alpha2"]),
    ("qcore.ALPHA2", ["hybrid", "--kind", "bhbh", "--alpha2"]),
    ("qcore.ALPHA2", ["hybrid", "--kind", "pc", "--alpha2"]),
    ("qcore.ALPHA2", ["broadcast", "--lam", "0.2", "--alpha2"]),
    ("qcore.ALPHA2", ["concat", "--alpha2"]),
    ("qcore.PROBABILITY", ["clone", "--family", "heis-asym", "--p"]),
    ("qcore.PROBABILITY", ["clone", "--family", "pauli-asym", "--p"]),
    ("qcore.PROBABILITY", ["hybrid", "--kind", "pauli", "--p"]),
    ("qcore.PROBABILITY", ["hybrid", "--kind", "pauli", "--lam"]),
    ("qcore.PROBABILITY", ["hybrid", "--kind", "anti", "--lam"]),
    ("qcore.PROBABILITY", ["hybrid", "--kind", "pc", "--lam"]),
    ("qcore.FINITE", ["clone", "--family", "pc2", "--phase"]),
    ("cloners.XI", ["clone", "--family", "bh", "--xi"]),
    ("cloners.XI", ["hybrid", "--kind", "pc", "--xi"]),
    ("cloners.XI", ["concat", "--xi"]),
    ("cloners.MU2", ["clone", "--family", "kr", "--mu"]),
    ("cloners.GM_COPIES", ["clone", "--family", "gm-1m", "--copies"]),
    ("deleters.CONV_LAMBDA", ["delete", "--family", "conv", "--lam"]),
    ("hybrid.BHBH_LAMBDA", ["hybrid", "--kind", "bhbh", "--lam"]),
    ("broadcast.COPIER_LAMBDA", ["broadcast", "--lam"]),
    ("broadcast.INTERVAL_LAMBDA", ["broadcast", "--interval", "--lam"]),
    ("cli.TOL", ["table", "--id", "2.1", "--mode", "closed_form", "--tol"]),
] + [("cli.DIM", ["clone", "--family", family, "--dim"]) for family in ("wz-n", "uqcm-d", "pc-d", "econ", "heis-asym")]


def _points(dom: Domain):
    """(value, accepted) for each end, the point just outside each finite
    end, and NaN."""
    points = [(math.nan, False)]
    for end, closed, outward in ((dom.lo, dom.ends[0] == "[", -math.inf), (dom.hi, dom.ends[1] == "]", math.inf)):
        points.append((end, closed))
        if math.isfinite(end):
            points.append((math.nextafter(end, outward), False))
    return points


def test_every_declared_domain_has_an_entry_point():
    assert set(DECLARED) == set(LIBRARY) | CLI_ONLY
    assert {key for key, _ in CLI_OPTIONS} >= CLI_ONLY


@pytest.mark.parametrize("key", sorted(LIBRARY))
def test_library_entry_point_accepts_the_domain_and_rejects_its_outside(key):
    dom = DECLARED[key]
    entry, name = LIBRARY[key]
    for value, accepted in _points(dom):
        if key == "cloners.MU2" and value < 0:
            continue  # no real mu has mu^2 < 0
        if accepted:
            entry(value)
            continue
        with pytest.raises(ValueError) as exc:
            entry(value)
        shown = math.sqrt(value) ** 2 if key == "cloners.MU2" else value
        assert str(exc.value) == f"{name} must lie in {dom}, got {shown}", (key, value)


def _cli_values(dom: Domain):
    """The rejected points of the domain as option values: integers for an
    integer option, every other value as printed."""
    if isinstance(dom.lo, int) and isinstance(dom.hi, int):
        return [dom.lo - 1, dom.hi + 1]
    return [value for value, accepted in _points(dom) if not accepted]


@pytest.mark.parametrize("key, argv", CLI_OPTIONS, ids=[" ".join(argv) for _, argv in CLI_OPTIONS])
def test_cli_option_outside_its_domain_exits_2_with_one_error_line(capsys, key, argv):
    dom = DECLARED[key]
    for value in _cli_values(dom):
        if key == "cloners.MU2":
            if value < 0:
                continue
            value = math.sqrt(value)
        *head, option = argv
        code = cli.main([*head, f"{option}={value}"])
        err = capsys.readouterr().err
        assert code == 2, (argv, value)
        assert err.count("error:") == 1 and err.endswith("\n") and err.count("\n") == 1, err
        assert f"must lie in {dom}, got " in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (hybrid.f_hcm, (0.5, 5, 0.2, 0.5), "xi must lie in [0, 1/2], got 5"),
        (hybrid.f_hcm, (0.5, 0.2, 5, 0.5), "xi' must lie in [0, 1/2], got 5"),
        (hybrid.f_hcm, (0.5, 0.2, 0.2, 3), "lambda must lie in [0, 1], got 3"),
        (hybrid.dab_two_mode, (0.5, math.nan, 0.2, 0.5), "xi must lie in [0, 1/2], got nan"),
        (cloners.heis_fidelities, (2, 2.0), "p must lie in [0, 1], got 2.0"),
        (cloners.heis_fidelities, (2, math.nan), "p must lie in [0, 1], got nan"),
        (cloners.pauli_fidelities, (2.0,), "p must lie in [0, 1], got 2.0"),
        (cloners.pauli_fidelities, (math.nan,), "p must lie in [0, 1], got nan"),
        (deleters.conv_f1, (3.0, 0.5), "lambda must lie in [0, 1/2], got 3.0"),
        (cloners.rastegin_mixed_upper_bound, (2.0,), "f must lie in [0, 1], got 2.0"),
        (cloners.pc_d_fidelity, (1,), "dimension must lie in [2, inf), got 1"),
        (cloners.econ_fidelity, (1,), "dimension must lie in [2, inf), got 1"),
        (cloners.uqcm_fidelity, (0,), "dimension must lie in [2, inf), got 0"),
        (cloners.kr_optimal_mu2, (math.nan,), "theta must lie in (-inf, inf), got nan"),
        (cloners.copier_entropy, (0,), "dimension must lie in [2, inf), got 0"),
        (cloners.ying_bound_gap, (1,), "dimension must lie in [2, inf), got 1"),
        (cloners.heis_symmetric_fidelity, (0,), "dimension must lie in [2, inf), got 0"),
        (cloners.pc_limit_fidelity, (0,), "input copies must lie in [1, inf), got 0"),
        (cloners.mixed_2m_scaling, (1,), "copies must lie in [2, inf), got 1"),
        (bc.nonlocal_coefficients, ((1, 0), 0.9), "lambda must lie in [0, 1/2], got 0.9"),
        (bc.local_coefficients, ((1, 0), 0.9), "lambda must lie in [0, 1/2], got 0.9"),
        (hybrid.universal_hybrid_lambda, (-1, 0.3), "xi must lie in [0, 1/2], got -1"),
        (hybrid.universal_hybrid_lambda, (0.05, 0.6), "xi' must lie in [0, 1/2], got 0.6"),
        (concat.bh_pb_fidelity, (5,), "xi must lie in [0, 1/2], got 5"),
        (concat.bh_pb_avg_distortion, (-3,), "xi must lie in [0, 1/2], got -3"),
        (concat.bh_pb_distortion, (5, 0.5), "xi must lie in [0, 1/2], got 5"),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_closed_forms_check_their_domain(fn, args, message):
    # each of these once returned a number outside its domain (or divided by 0)
    with pytest.raises(ValueError) as exc:
        fn(*args)
    assert str(exc.value) == message


def test_kernel_checks_scalars_and_arrays_with_open_and_closed_ends():
    half_open = qcore.domain("lambda", 0.0, 0.5, "[)")
    assert str(half_open) == "[0, 1/2)"
    assert half_open.check(0.0) == 0.0 and half_open.check(np.float64(0.25)) == 0.25
    for bad in (0.5, -0.0001, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^lambda must lie in \[0, 1/2\), got "):
            half_open.check(bad)
    assert str(qcore.domain("n", 1, 3, "(]")) == "(1, 3]"
    grid = np.linspace(0.0, 1.0, 5)
    assert qcore.ALPHA2.check(grid) is grid
    cases = [
        ([0.2, 1.5, 2.0], "1.5"),
        ([0.2, math.nan], "nan"),
        (1.5, "1.5"),
        ([1.5], "1.5"),  # once printed as "[1.5]"
        ([[1.5]], "1.5"),
    ]
    for bad, shown in cases:
        with pytest.raises(ValueError) as exc:
            qcore.ALPHA2.check(np.asarray(bad))
        assert str(exc.value) == f"alpha^2 must lie in [0, 1], got {shown}"
    assert qcore.ALPHA2.check(0.3) == 0.3
    with pytest.raises(ValueError, match=r"^--alpha2 must lie in \[0, 1\], got -1$"):
        qcore.ALPHA2.check(-1, "--alpha2")


RANGE_PHRASES = ("must lie in", "must be <=", "must be >=")


def _range_messages(path: Path):
    """(line, text) of each raise in a module whose message states a range,
    outside the kernel ``Domain``, and the count of those inside it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kernel = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Domain":
            kernel = {id(n) for n in ast.walk(node)}
    outside, inside = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = ast.unparse(node.exc)
            if any(phrase in text for phrase in RANGE_PHRASES):
                if id(node) in kernel:
                    inside += 1
                else:
                    outside.append((node.lineno, text))
    return outside, inside


def test_no_range_check_is_written_outside_the_kernel():
    # a hand-written interval test states its range in its own message;
    # every range message comes from Domain.check instead
    src = Path(qcore.__file__).parent
    found, kernel = [], 0
    for path in sorted(src.glob("*.py")):
        outside, inside = _range_messages(path)
        found += [f"{path.name}:{line}: {text}" for line, text in outside]
        kernel += inside
    assert found == []
    assert kernel == 1
