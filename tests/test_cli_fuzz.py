"""Fuzz of the numeric CLI options and of ``perturb --target`` files
against the exit-code contract: every run ends in a documented exit code
(0/2/3/4/10/11) and prints no traceback; a verdict or result on stdout
(exit 0, 10 or 11) is strict JSON, and an error (exit 2, 3 or 4) leaves
stdout empty."""

import json
import os
import tempfile

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
    r = runner.invoke(main, args)
    assert r.exit_code in EXIT_CODES, (args, r.exit_code, r.exception)
    assert "Traceback" not in r.output, args
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
