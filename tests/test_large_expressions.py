"""Expressions far deeper than the Python stack, batched evaluation, and the
CLI on a metric with a 3000-term entry."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from lcwcheck.cli import main
from lcwcheck.dsl import (
    eval_expr,
    eval_expr_many,
    eval_num,
    eval_num_many,
    expr_to_text,
    max_var_index,
    parse_expr,
    substitute,
    used_vars,
    Var,
)
from lcwcheck.errors import ParseError
from lcwcheck.jets import jet_space

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# --- depth -----------------------------------------------------------------------


def test_sum_of_1e5_nodes_parses_evaluates_and_round_trips():
    terms = 50_000  # 1 + x1 + ... + x1: 50 000 leaves and 49 999 Add nodes
    text = "1" + " + x1" * (terms - 1)
    e = parse_expr(text)
    assert max_var_index(e) == 0 and used_vars(e) == {0}
    assert eval_num(e, (0.5, 0.25)) == 1 + 0.5 * (terms - 1)
    jet = eval_expr(e, (0.5, 0.25))
    assert jet[0] == 1 + 0.5 * (terms - 1)
    assert np.array_equal(jet[jet_space(2).unit], [terms - 1, 0.0])
    printed = expr_to_text(e)
    assert printed == text
    assert expr_to_text(parse_expr(printed)) == printed
    # substitution stays iterative too: x1 -> x2 everywhere
    moved = substitute(e, {0: Var(1)})
    assert used_vars(moved) == {1}
    assert eval_num(moved, (0.25, 0.5)) == 1 + 0.5 * (terms - 1)


@pytest.mark.parametrize("text", ["(" * 2000 + "x1" + ")" * 2000, "-" * 5000 + "x1"])
def test_nesting_past_the_recursion_limit_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_deep_nesting_in_a_metric_file_exits_2(tmp_path):
    src = tmp_path / "deep.metric"
    src.write_text("dim = 3\ng11 = " + "(" * 2000 + "1" + ")" * 2000 + "\ng22 = 1\ng33 = 1\n")
    r = invoke("check", "--metric", str(src))
    assert r.exit_code == 2
    assert r.stdout == ""


# --- batched evaluation ----------------------------------------------------------

BATCH_EXPRS = [
    "smoothbump(x1^2 + x2^2 + x3^2, 0.25, 1)",
    "smoothbump(x1^2 + x2^2, 0.25, 1) * (x1 - x2*x3)",
    "smoothbump(0.5, 0.25, 1) + x1",
    "(1 + x1*x2) / (2 + x3^2) - 3 / (2 - x1)",
    "(1.5 + x1 + x2^2)^-3 + x3^-2",
    "exp(x1 - x2) + log(2 + x3) + sqrt(3 + x1*x2)",
    "sin(x1*x3) * cos(x2) - sinh(x1) / cosh(x3)",
    "-(x1^2) * 7",
]


@pytest.mark.parametrize("dim", [3, 6])
def test_batched_jets_equal_single_point_jets_bit_for_bit(dim):
    rng = np.random.default_rng(11)
    directions = rng.standard_normal((48, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = directions * np.linspace(0.05, 1.4, 48)[:, None] + 0.3
    r2 = (points[:, :3] ** 2).sum(axis=1)
    # the smoothbump cases see its plateau, its ramp and its zero side
    assert (r2 <= 0.25).any() and ((0.25 < r2) & (r2 < 1)).any() and (r2 >= 1).any()
    exprs = [parse_expr(t) for t in BATCH_EXPRS]
    batched = eval_expr_many(exprs, points)
    assert batched.shape[:2] == (len(exprs), len(points))
    for k, e in enumerate(exprs):
        for b, p in enumerate(points):
            assert np.array_equal(batched[k, b], eval_expr(e, p)), (BATCH_EXPRS[k], p)
        assert np.array_equal(eval_num_many(e, points), [eval_num(e, p) for p in points])


# --- the CLI on a metric with a 3000-term entry ---------------------------------


@pytest.fixture
def long_metric(tmp_path):
    """(f(x1) dx1^2 + h(x1) dx2^2) + dx3^2: a surface times a line, so the
    line is a flag and the necessary condition passes; f has 3000 terms."""
    src = tmp_path / "long.metric"
    src.write_text("dim = 3\ng11 = 1" + " + x1^2" * 2999 + "\ng22 = 1 + x1^2\ng33 = 1\n")
    return src


def test_long_entry_check_and_tensors(long_metric):
    r = invoke("check", "--metric", str(long_metric), "--point", "0.01,0.2,-0.1")
    assert r.exit_code == 0
    assert strict_json(r.output)["verdict"] == "passes_necessary"
    r = invoke("tensors", "--metric", str(long_metric), "--point", "0.01,0.2,-0.1", "--format", "json")
    assert r.exit_code == 0
    doc = strict_json(r.output)
    assert doc["g"][0][0] == pytest.approx(1 + 2999 * 0.01**2, rel=1e-14)


def test_long_entry_perturb(long_metric, tmp_path):
    out = tmp_path / "bumped.metric"
    r = invoke(
        "perturb", "--metric", str(long_metric), "--point", "0,0,0",
        "--target", "random", "--seed", "3", "--radius", "0.05", "--out", str(out),
    )
    assert r.exit_code == 0
    doc = strict_json(r.output)
    assert doc["target_error"] <= 1e-6
    assert out.read_text().startswith("dim = 3\n")
