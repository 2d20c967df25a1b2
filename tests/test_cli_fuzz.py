"""Fuzz of the numeric CLI options, of ``perturb --target`` files and of
metric text against the exit-code contract: every run ends in a
documented exit code (0/2/3/4/10/11), prints no traceback and raises no
Python warning; a verdict or result on stdout (exit 0, 10 or 11) is
strict JSON, and an error (exit 2, 3 or 4) leaves stdout empty."""

import json
import os
import tempfile
import warnings
from functools import lru_cache

import numpy as np

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcwcheck.bivectors import random_weyl_operator
from lcwcheck.cli import main

EXIT_CODES = {0, 2, 3, 4, 10, 11}

runner = CliRunner()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_contract(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning becomes an exception: exit 1
        r = runner.invoke(main, args)
    assert r.exit_code in EXIT_CODES, (args, r.exit_code, r.exception)
    assert "Traceback" not in r.output and "Warning" not in r.stderr, args
    if r.exit_code in (0, 10, 11):  # a verdict or a result
        json.loads(r.stdout, parse_constant=_reject_constant)
    else:
        assert r.stdout == "", args


def junk():
    """Option text that is out of range, not finite or not a number."""
    return st.one_of(
        st.integers(-(2**70), 2**70).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["0", "-0.0", "-1", "1e-320", "1e308", "-1e308", "nan", "inf", "-inf", "", "1,2", "abc"]),
        st.text(max_size=6),
    )


def option(valid, invalid=None):
    """Unset, valid (three times as likely) or junk, so that most runs
    reach the computation."""
    return st.one_of(st.none(), valid, valid, valid, junk() if invalid is None else invalid)


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


SEEDS = option(st.integers(0, 2**64).map(str))
# each start is a row of the search batch: valid counts stay small, and
# junk that click would read as a count above 200 is left out
STARTS = option(st.integers(0, 200).map(str), junk().filter(lambda t: not (t.strip().isdecimal() and int(t) > 200)))
TOLS = option(floats(1e-300, 1.0))


def points(dim):
    """A point of the metric's dimension, or coordinates that are out of
    range, not finite or of the wrong count."""
    any_float = st.floats(allow_nan=True, allow_infinity=True)
    right = st.lists(st.floats(-0.3, 0.3), min_size=dim, max_size=dim)
    wrong = st.lists(st.one_of(st.floats(-0.3, 0.3), any_float), min_size=0, max_size=dim + 1)
    return option(st.one_of(right, right, wrong).map(lambda xs: ",".join(map(repr, xs))))


def with_options(metrics, *options):
    """(metric name, option values...) with points of the metric's dimension."""
    return st.sampled_from(metrics).flatmap(
        lambda m: st.tuples(st.just(m[0]), *(points(m[1]) if o == "point" else o for o in options))
    )


def _option(name, value):
    # --name=value keeps option text that starts with "-" a value
    return [] if value is None else [f"--{name}={value}"]


def _args(command, names, values):
    args = list(command)
    for name, value in zip(names, values):
        args += _option(name, value)
    return args


CHECK_METRICS = [("nil", 3), ("sol", 3), ("product4_nil", 4), ("product4_sphere3", 4), ("cp2_chart", 4)]


@settings(max_examples=150, deadline=None)
@given(case=with_options(CHECK_METRICS, SEEDS, STARTS, TOLS, "point"))
@example(case=("product4_nil", "-1", None, None, None))
def test_check_numeric_options_keep_the_contract(case):
    name, *values = case
    assert_contract(_args(["check", "--metric", name], ("seed", "starts", "tol", "point"), values))


@settings(max_examples=50, deadline=None)
@given(case=with_options([("nil", 3), ("product4_nil", 4)], SEEDS, option(floats(-10.0, 10.0)), option(floats(1e-3, 10.0)), "point"))
@example(case=("nil", "-1", None, None, None))
@example(case=("nil", None, None, "6.3e51", None))
@example(case=("nil", "100000", "1.169959471020082e+308", None, None))
@example(case=("sol", "2", "1.5e308", None, None))
@example(case=("nil", None, None, "4.25879500690793e-124", None))
def test_perturb_numeric_options_keep_the_contract(case):
    name, *values = case
    command = ["perturb", "--metric", name, "--target", "random", "--out", os.devnull]
    assert_contract(_args(command, ("seed", "amplitude", "radius", "point"), values))


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(-1, 8).map(str), sub=st.sampled_from(["sample", "phi"]), seed=SEEDS, tol=TOLS)
@example(dim="5", sub="sample", seed="-1", tol=None)
def test_weyl_space_numeric_options_keep_the_contract(dim, sub, seed, tol):
    assert_contract(_args(["weyl-space", "--dim", dim, sub], ("seed", "tol"), (seed, tol)))


# --- perturb --target files ------------------------------------------------------

SCALES = st.sampled_from([0.01, 1e-3, 0.0, 1.0, 1e3, 1e150, 1e300])
SHIFTS = st.sampled_from([0.0, 0.0, 1e-12, 1e-3, 1.0])  # off the Weyl operators, or off traceless


def _weyl(seed, scale, shift):
    """A random Weyl operator in dim 4 times ``scale``, plus ``shift``
    times the identity (a curvature operator with a Ricci contraction)."""
    return (scale * random_weyl_operator(4, np.random.default_rng(seed)).mat + shift * np.eye(6)).tolist()


def _cy(seed, scale, shift):
    """A random symmetric traceless 3x3 matrix times ``scale``, plus
    ``shift`` times the identity."""
    d = np.random.default_rng(seed).standard_normal((3, 3))
    d = d + d.T
    return (scale * (d - np.trace(d) / 3.0 * np.eye(3)) + shift * np.eye(3)).tolist()


CELLS = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([1e308, -1e308, 1e-320]),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
)


def _matrices(m):
    """m x m lists of numbers or junk, or ragged lists of them."""
    regular = st.lists(st.lists(CELLS, min_size=m, max_size=m), min_size=m, max_size=m)
    return st.one_of(regular, st.lists(st.lists(CELLS, max_size=m + 1), max_size=m + 1))


TARGET_KINDS = [("sol", "cy", _cy, 3), ("product4_nil", "weyl", _weyl, 6)]
JUNK_FILES = st.one_of(
    st.sampled_from(["", "not json", "[1, 2]", "null", '{"cy": ', '{"weyl": Infinity}']),
    st.text(max_size=12),
)


@st.composite
def target_files(draw):
    """(metric, target file text): mostly a document with the metric's key
    over a tensor of its kind, on or off the targets; else a wrong key, a
    ragged, junk or wrong-size matrix, or text that is not such a document."""
    metric, key, tensor, m = draw(st.sampled_from(TARGET_KINDS))
    tensors = st.builds(tensor, st.integers(0, 2**16), SCALES, SHIFTS)
    value = draw(tensors if draw(st.booleans()) else st.one_of(_matrices(m), _matrices(9 - m), CELLS))
    other = "cy" if key == "weyl" else "weyl"
    doc = json.dumps({draw(st.sampled_from([key, key, key, other, "other"])): value})
    return metric, doc if draw(st.sampled_from([True, True, False])) else draw(JUNK_FILES)


@settings(max_examples=60, deadline=None)
@given(case=target_files())
@example(case=("product4_nil", json.dumps({"weyl": np.eye(6).tolist()})))
@example(case=("product4_nil", '{"weyl": [[1, 2], [3]]}'))
@example(case=("sol", '{"cy": [[1e308, 0, 0], [0, -1e308, 0], [0, 0, 0]]}'))
def test_perturb_target_files_keep_the_contract(case):
    metric, content = case
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "target.json")
        with open(target, "w", encoding="utf-8") as f:
            f.write(content)
        assert_contract(["perturb", "--metric", metric, "--target", target, "--out", os.devnull])


# --- metric text -------------------------------------------------------------------

# literals: mostly in [-10, 10], now and then from below the normal range to
# near the float maximum
LITERALS = st.one_of(*[st.floats(-10.0, 10.0).map(repr)] * 7, st.sampled_from(["0", "2e35", "1e105", "1e300", "1e308", "1e-200", "1e-320"]))
COEFFICIENTS = st.sampled_from(["0.05", "0.05", "0.05", "0.3", "1", "1e-200", "2e35", "1e105", "1e300"])
UNITS = ["{}"] * 6 + ["exp({})", "log(1 + ({})^2)", "sin({})", "cos({})", "sinh({})", "cosh({})", "sqrt(1 + ({})^2)",
                      "log({})", "sqrt({})", "({})^2", "({})^3", "({})^-1", "({})^0", "({})^100000000", "-{}",
                      "smoothbump({}, 0, 1)", "smoothbump({}, -1, 0.25)"]
OPERATORS = st.sampled_from([" + ", " - ", "*", " + ", " - ", "*", "/"])
# a line out of place or malformed: each exits 2
MISPLACED = ["let s0 = 1", "g11 = 1", "junk", "let x1 = 2", "g12 = smoothbump(x1, 1, 1)", "g22 = 1e400", "g11 = x7"]


@lru_cache(maxsize=None)
def expressions(dim, lets):
    """Text of one to three units joined by operators over the variables
    of ``dim`` (now and then one past it), ``lets`` let names and
    literals; a unit is an atom alone, in a function, a power or
    smoothbump.  Let lines nest them."""
    names = [f"x{k}" for k in range(1, dim + 1)] * 12 + [f"x{dim + 1}"] + [f"s{k}" for k in range(lets)] * 4
    unit = st.tuples(st.sampled_from(UNITS), st.one_of(st.sampled_from(names), LITERALS)).map(lambda t: t[0].format(t[1]))
    return st.tuples(unit, st.lists(st.tuples(OPERATORS, unit), max_size=2)).map(
        lambda t: t[0] + "".join(op + u for op, u in t[1])
    )


def _generic(i, j, dim):
    """Entry ij of a near-flat metric with no flag and, off the origin, a
    Cotton-York tensor of nonzero determinant: "fails" unless the fuzz
    outweighs it."""
    a, b, c = (i + j) % dim + 1, (i * j) % dim + 1, (2 * i + j) % dim + 1
    return f"{int(i == j)} + 0.1*x{a}*x{b} + 0.05*x{c}^3 + 0.07*x{i}*x{c}"


@st.composite
def metric_texts(draw):
    """(dim, text) of a metric file of dim 3 to 5: up to three let lines,
    each diagonal entry mostly a generic near-flat entry plus a coefficient
    times an expression, some off-diagonal entries, and one time in ten a
    misplaced line."""
    dim = draw(st.sampled_from([3, 4, 5]))
    lets = draw(st.integers(0, 3))
    lines = [f"dim = {dim}"] + [f"let s{k} = {draw(expressions(dim, k))}" for k in range(lets)]
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            if i == j or draw(st.integers(0, 3)) == 3:
                expr = draw(expressions(dim, lets))
                scaled = draw(st.integers(0, 5)) < 5
                lines.append(f"g{i}{j} = " + (f"{_generic(i, j, dim)} + {draw(COEFFICIENTS)}*({expr})" if scaled else expr))
    if draw(st.integers(0, 9)) == 9:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MISPLACED)))
    return dim, "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _right_points(dim):
    return st.lists(st.floats(-0.3, 0.3), min_size=dim, max_size=dim).map(lambda xs: ",".join(map(repr, xs)))


def metric_cases(*rest):
    """(text, point, *rest): no point (the origin) or a point of the
    metric's dimension (the numeric options fuzz the others)."""
    return metric_texts().flatmap(lambda m: st.tuples(st.just(m[1]), st.one_of(st.none(), _right_points(m[0])), *rest))


def _contract_on_metric_file(command, text, *options):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.metric")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        assert_contract([command, "--metric", path, "--format", "json", *options])


# A Weyl tensor near 1e-200 (it read as vanishing: exit 0) and Cotton-York
# tensors near 1e105 (||CY||^3 raised OverflowError: exit 1); the suite
# found the others, each a numpy warning: an overflowing norm of the frame
# Cotton-York matrix, inf - inf in the Weyl tensor, an overflowing
# condition number, and inf - inf in the Riemann tensor of ``tensors``.
TINY_WEYL = (
    "dim = 4\ng11 = 1 + 1e-200*(x2^2 - 3*x3*x4 + 2*x2*x3)\ng22 = 1 + 1e-200*(x1^2 + x3*x4 - 2*x1*x4)\n"
    "g33 = 1 + 1e-200*(3*x1*x2 - x4^2 + x1*x4)\ng44 = 1 + 1e-200*(x2*x3 + 2*x1^2 - x1*x3)\n"
    "g12 = 1e-200*(x3^2 + x1*x4 - 2*x2*x4)\n"
)
SCALED_SOL = "dim = 3\ng11 = exp(2e35*x3)\ng22 = exp(-2e35*x3)\ng33 = 1\n"
HUGE_CY_RANK_2 = "dim = 3\ng11 = 1\ng22 = 1 + 1e105*x1^3 + x3^2*x1\ng33 = 1\n"
HUGE_CY_DET = "dim = 3\ng11 = 1 + 1e105*x2^3\ng22 = 1 + 1e105*x3^3\ng33 = 1 + 1e105*x1^3\n"
HUGE_CY_NORM = "dim = 3\ng11 = 1 + 0.05*(x2)\ng12 = 0 + 1e105*(x2)\ng22 = 1 + 0.05*(x1)\ng33 = 1 + 0.05*(x1)\n"
WEYL_NOT_FINITE = "dim = 4\ng11 = 1 + 0.05*(x1)\ng22 = 1 + 0.05*(x1)\ng33 = 1 + 0.05*(x1)\ng44 = 1 + 1e300*(x1)\n"
CONDITION_OVERFLOWS = "dim = 4\ng11 = 1 + 0.05*(x1)\ng22 = x2\ng33 = 1 + 0.05*(x1)\ng44 = 1 + 0.05*((x2)^-1)\n"
RIEMANN_NOT_FINITE = "dim = 4\ng11 = exp(x1)\ng12 = x1\ng13 = x1\ng14 = x1\ng22 = 1 + x1\ng33 = 1 + x1\ng44 = 1 + (x1*1e105)\n"


@settings(max_examples=120, deadline=None)
@given(case=metric_cases(st.sampled_from(["auto"] * 8 + ["eigenflag", "cotton-york"])))
@example(case=(TINY_WEYL, None, "auto"))
@example(case=(SCALED_SOL, None, "auto"))
@example(case=(HUGE_CY_RANK_2, None, "cotton-york"))
@example(case=(HUGE_CY_DET, None, "auto"))
@example(case=(HUGE_CY_NORM, None, "auto"))
@example(case=(WEYL_NOT_FINITE, None, "auto"))
@example(case=(CONDITION_OVERFLOWS, "0.0,3.3345295263929984e-167,0.0,0.0", "auto"))
def test_check_on_metric_text_keeps_the_contract(case):
    text, point, test = case
    _contract_on_metric_file("check", text, "--test", test, *_option("point", point))


@settings(max_examples=80, deadline=None)
@given(case=metric_cases())
@example(case=(SCALED_SOL, None))
@example(case=(HUGE_CY_DET, None))
@example(case=(RIEMANN_NOT_FINITE, None))
def test_tensors_on_metric_text_keeps_the_contract(case):
    text, point = case
    _contract_on_metric_file("tensors", text, *_option("point", point))
