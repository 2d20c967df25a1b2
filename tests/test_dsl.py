"""Expression and metric-file parsing, printing round trips, evaluation."""

import copy
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcwcheck.catalog import get_entry, product_with_line, random_metric_near_flat
from lcwcheck.dsl import (
    COORDS,
    Add,
    Call,
    Div,
    Expr,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    _Program,
    _walk,
    eval_expr,
    expr_to_text,
    metric_from_components,
    metric_to_text,
    parse_expr,
    parse_metric,
)
from lcwcheck.errors import DomainError, ParseError
from lcwcheck.perturbation import CottonPrescription, prescribe_cotton_york


def _value(e, point):
    """The value of ``e`` at ``point``: its order-0 jet, the evaluation the
    positivity grid runs."""
    return _Program([e]).run(np.array([point], dtype=float), 0)[0, 0, 0]

SOL_TEXT = """
dim = 3
name = "sol"
g11 = exp(2*x3)
g22 = exp(-2*x3)
g33 = 1
"""

NIL_TEXT = """
# left-invariant metric on the Heisenberg group
dim = 3
g11 = 1
g22 = 1 + x1^2
g23 = -x1
g33 = 1
"""


def test_parse_sol():
    m = parse_metric(SOL_TEXT)
    assert m.dim == 3
    assert m.name == "sol"
    z = 0.37
    g = m.eval_matrix_many([(0.0, 0.0, z)])[0]
    assert g[0, 0] == pytest.approx(np.exp(2 * z), rel=1e-15)
    assert g[1, 1] == pytest.approx(np.exp(-2 * z), rel=1e-15)
    assert g[2, 2] == 1.0
    assert g[0, 1] == 0.0


def test_parse_nil():
    m = parse_metric(NIL_TEXT)
    x = -0.8
    g = m.eval_matrix_many([(x, 1.0, 2.0)])[0]
    # dx^2 + dy^2 + (dz - x dy)^2 expanded
    expected = np.array([[1, 0, 0], [0, 1 + x * x, -x], [0, -x, 1]])
    assert np.allclose(g, expected, atol=1e-15)
    # off-diagonal symmetry is structural
    assert m.components[1][2] == m.components[2][1]


def test_parse_error_trailing_operator():
    with pytest.raises(ParseError):
        parse_metric("dim = 3\ng11 = x1 +\ng22 = 1\ng33 = 1\n")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_metric("dim = 3\ng11 = 1\ng22 = 1 + )\ng33 = 1\n")
    assert err.value.line == 3


def test_dimension_mismatch():
    with pytest.raises(ParseError) as err:
        parse_metric("dim = 2\ng11 = x3\ng22 = 1\n")
    assert err.value.line == 2


def test_programmatic_variable_past_dim_is_refused_at_its_first_evaluation():
    one = Num(1.0)
    m = metric_from_components([[one, None, None, None], [None, one, None, None], [None, None, one, None], [None, None, None, Var(4)]])
    with pytest.raises(DomainError, match="x5 out of range for dim 4"):
        m.eval_jets(np.zeros(4))


def test_out_of_range_entry():
    with pytest.raises(ParseError):
        parse_metric("dim = 2\ng13 = 1\ng11 = 1\ng22 = 1\n")


def test_asymmetric_entries_rejected():
    bad = "dim = 2\ng11 = 1\ng22 = 1\ng12 = x1\ng21 = x2\n"
    with pytest.raises(ParseError):
        parse_metric(bad)


def test_symmetric_duplicate_accepted():
    m = parse_metric("dim = 2\ng11 = 1\ng22 = 1\ng12 = x1\ng21 = x1\n")
    assert m.components[0][1] == m.components[1][0]


def test_missing_diagonal_rejected():
    with pytest.raises(ParseError):
        parse_metric("dim = 3\ng11 = 1\ng22 = 1\n")


def test_missing_dim_header():
    with pytest.raises(ParseError):
        parse_metric("g11 = 1\n")


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expr("foo(x1)")
    with pytest.raises(ParseError):
        parse_expr("x7")


@pytest.mark.parametrize("text", ["1e400", "x1 + 2*1e400", "-1e309", "smoothbump(x1, 1, 1e400)", "smoothbump(x1, -1e400, 1)"])
def test_out_of_range_literal_rejected(text):
    with pytest.raises(ParseError):
        parse_expr(text)


@pytest.mark.parametrize("text", ["smoothbump(x1^2, 1, 0)", "smoothbump(x1, 0.5, 0.5)", "smoothbump(x1, -0, 0)"])
def test_smoothbump_without_u0_below_u1_rejected(text):
    """u0 >= u1 has no ramp: it would evaluate as a jump whose derivatives read 0."""
    with pytest.raises(ParseError, match="u0 < u1"):
        parse_expr(text)


def test_metric_round_trip():
    m = parse_metric(SOL_TEXT)
    text = metric_to_text(m)
    m2 = parse_metric(text)
    assert m2.components == m.components
    assert metric_to_text(m2) == text


def test_grammar_precedence():
    # '-' binds inside '^' per the grammar: -x1^2 is (-x1)^2
    e = parse_expr("-x1^2")
    assert e == Pow(Neg(Var(0)), 2)
    assert _value(e, (3.0,)) == 9.0
    assert _value(parse_expr("-(x1^2)"), (3.0,)) == -9.0
    assert _value(parse_expr("2 + 3 * 4"), (0.0,)) == 14.0
    assert _value(parse_expr("2 * 3 ^ 2"), (0.0,)) == 18.0
    assert _value(parse_expr("8 / 4 / 2"), (0.0,)) == 1.0


def test_negative_exponent():
    assert _value(parse_expr("x1^-2"), (2.0,)) == 0.25


# --- random expression trees for the printer round trip ------------------------


def _exprs(depth):
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=-4, max_value=4, allow_nan=False).map(float)),
        st.builds(Var, st.integers(min_value=0, max_value=2)),
    )
    if depth == 0:
        return leaves
    sub = _exprs(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(min_value=-3, max_value=3)),
        st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(["exp", "sin", "cos", "sinh", "cosh"]), sub),
    )


@settings(max_examples=150, deadline=None)
@given(_exprs(3))
def test_printer_round_trip(tree):
    # parse(print(parse(print(tree)))) agrees with parse(print(tree)):
    # printing is a stable fixpoint of text
    text = expr_to_text(tree)
    parsed = parse_expr(text)
    assert expr_to_text(parsed) == text
    assert parse_expr(expr_to_text(parsed)) == parsed


def test_smoothbump_round_trip_and_junctions():
    e = parse_expr("smoothbump(x1^2 + x2^2, 0.25, 1)")
    assert parse_expr(expr_to_text(e)) == e
    # plateau, decay region, outside
    assert _value(e, (0.1, 0.0)) == 1.0
    assert _value(e, (2.0, 0.0)) == 0.0
    mid = _value(e, (0.7, 0.0))
    assert 0.0 < mid < 1.0
    # order-3 jets agree across the inner junction (C^3 matching)
    inner = np.sqrt(0.25)
    left = eval_expr(e, (inner - 1e-12, 0.0))
    right = eval_expr(e, (inner + 1e-12, 0.0))
    assert np.abs(left - right).max() <= 1e-9


# --- let bindings -------------------------------------------------------------


LET_TEXT = """dim = 2
let s1 = exp(x1) + sin(x2)*x1
let s2 = s1*s1 + 1
g11 = s2
g22 = s2 + s1
"""


def test_let_names_share_one_expression():
    m = parse_metric(LET_TEXT)
    s2 = m.components[0][0]
    assert m.components[1][1].a is s2
    assert s2.a.a is s2.a.b is m.components[1][1].b
    p = (0.3, -0.7)
    s1 = np.exp(0.3) + np.sin(-0.7) * 0.3
    assert _value(m.components[1][1], p) == pytest.approx(s1 * s1 + 1 + s1, rel=1e-15)


def test_let_sharing_survives_a_round_trip():
    shared = parse_expr("exp(x1)*sin(x2) + x1^2*x2^3 + cos(x1 + x2)")
    m = parse_metric("dim = 2\ng11 = 1\ng22 = 1\n")
    m = type(m)(dim=2, components=((Add(shared, Num(1.0)), shared), (shared, Mul(shared, shared))))
    text = metric_to_text(m)
    assert text.count("let ") == 1 and text.count("exp(") == 1
    back = parse_metric(text)
    assert back.components == m.components
    assert back.components[0][0].a is back.components[0][1] is back.components[1][1].a
    assert metric_to_text(back) == text


@pytest.mark.parametrize(
    "text",
    [
        "dim = 2\nlet x1 = 2\ng11 = 1\ng22 = 1\n",  # reserved: a variable
        "dim = 2\nlet exp = 2\ng11 = 1\ng22 = 1\n",  # reserved: a function
        "dim = 2\nlet g12 = 2\ng11 = 1\ng22 = 1\n",  # reserved: an entry
        "dim = 2\nlet dim = 2\ng11 = 1\ng22 = 1\n",
        "dim = 2\nlet a = 2\nlet a = 3\ng11 = a\ng22 = 1\n",  # duplicate
        "dim = 2\ng11 = a\nlet a = 2\ng22 = 1\n",  # used before it is bound
        "dim = 2\nlet a = b\nlet b = 2\ng11 = a\ng22 = 1\n",
        "dim = 2\nlet a = x3\ng11 = 1\ng22 = 1\n",  # variable out of range
        "let a = 2\ndim = 2\ng11 = a\ng22 = 1\n",  # before the header
    ],
)
def test_bad_let_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_metric(text)


def test_files_without_sharing_print_no_let():
    text = "dim = 2\ng11 = exp(x1)*sin(x2) + x1^2*x2^3 + cos(x1 + x2) + 1\ng22 = 1 + x1^2*x2^2*exp(x1 + x2)\n"
    assert metric_to_text(parse_metric(text)) == text


# --- node layout: slotted nodes, one node per coordinate ---------------------------

EVERY_NODE_TEXT = """
dim = 3
g11 = exp(2*x3) + x1^2
g22 = 1 - x1/(2 + x2)
g33 = 1 + -x2*smoothbump(x1^2, 0.25, 1)
g12 = 0.1*sin(x3)
"""


def _nodes(metric):
    return _walk([e for row in metric.components for e in row])


def test_no_expression_node_has_an_instance_dict():
    nodes = _nodes(parse_metric(EVERY_NODE_TEXT))
    assert {type(e) for e in nodes} == set(Expr)
    assert not any(hasattr(e, "__dict__") for e in nodes)


def _built_metrics():
    rng = np.random.default_rng(7)
    cy = np.diag([1.0, 1.0, -2.0]) * 1e-3
    perturbed = prescribe_cotton_york(CottonPrescription(base=get_entry("sl2r").metric, point=np.zeros(3), target_cy=cy))
    assert not perturbed.unchanged
    return {
        "parsed": parse_metric(EVERY_NODE_TEXT),
        "random": random_metric_near_flat(5, rng),
        "product": product_with_line(parse_metric(NIL_TEXT)),
        "perturbed": perturbed.metric,
    }


@pytest.mark.parametrize("name", ["parsed", "random", "product", "perturbed"])
def test_the_builders_use_one_node_per_coordinate(name):
    coords = [e for e in _nodes(_built_metrics()[name]) if type(e) is Var]
    uses = Counter(e.index for e in coords)
    assert uses and set(uses.values()) == {1}, uses
    assert all(e is COORDS[e.index] for e in coords)


@pytest.mark.parametrize("copier", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("name", ["parsed", "product"])
def test_a_metric_survives_pickle_and_deepcopy_with_the_same_jets(name, copier):
    metric = _built_metrics()[name]
    point = np.linspace(0.1, 0.3, metric.dim)
    jets = metric.eval_jets(point)
    back = copier(metric)
    assert back is not metric and back == metric
    assert back.eval_jets(point).tobytes() == jets.tobytes()
