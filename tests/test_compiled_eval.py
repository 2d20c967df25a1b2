"""The compiled expression program against the node-at-a-time evaluator it
replaced, kept here as the reference: order-3 jets and values (order-0
jets) must be equal (``np.array_equal``) on catalog, random and perturbed
metrics and on random DAGs, and the error paths must raise the same
DomainError."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from click.testing import CliRunner

from lcwcheck import catalog, dsl
from lcwcheck.cli import main
from lcwcheck.dsl import (
    UNARY_FUNCS,
    Add,
    Call,
    Div,
    MetricDef,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    _walk,
    eval_expr_many,
    eval_num_many,
    parse_expr,
    parse_metric,
)
from lcwcheck.errors import DomainError
from lcwcheck.jets import jet_add, jet_apply, jet_inverse, jet_mul, jet_power, jet_space

# --- the reference: one Python step per node ----------------------------------

_BINARY = (Add, Sub, Mul, Div)


def _smoothstep_down_jet(space, t):
    """1 - t^4 (35 + t (-84 + t (70 - 20 t))) on jets, one value-algebra
    call per operation, in the order Python evaluates the polynomial."""
    inner = jet_add(70.0, -(t * 20.0))
    inner = jet_add(jet_mul(space, t, inner), -84.0)
    inner = jet_add(jet_mul(space, t, inner), 35.0)
    return jet_add(1.0, -jet_mul(space, jet_power(space, t, 4), inner))


def _jet_array(v, shape):
    if not isinstance(v, float):
        return v
    out = np.zeros(shape)
    out[..., 0] = v
    return out


def _smoothbump_jet(space, u, u0, u1):
    uc = u[:, 0]
    out = np.zeros_like(u)
    out[uc <= u0, 0] = 1.0
    ramp = ~(uc <= u0) & ~(uc >= u1)
    if ramp.any():
        out[ramp] = _smoothstep_down_jet(space, jet_add(u[ramp], -u0) / (u1 - u0))
    return out


def reference_evaluate(roots, points, order=3):
    """Jets of ``order`` of ``roots`` at the (N, dim) ``points``: floats
    for constants, else arrays (N, size)."""
    npts, dim = points.shape
    space = jet_space(dim, order)
    # x_k at the points: the value, and 1 in the slot of its first derivative
    lifted = np.zeros((dim, npts, space.size))
    lifted[..., 0] = points.T
    for k, slot in enumerate(space.unit):
        lifted[k, :, slot] = 1.0
    values = {}
    for e in _walk(roots):
        t = type(e)
        if t is Num:
            v = float(e.value)
        elif t is Var:
            if e.index >= dim:
                raise DomainError(f"variable x{e.index + 1} out of range for dim {dim}")
            v = lifted[e.index]
        elif t in _BINARY:
            a, b = values[id(e.a)], values[id(e.b)]
            if t is Add:
                v = jet_add(a, b)
            elif t is Sub:
                v = jet_add(a, -b)
            elif t is Mul:
                v = jet_mul(space, a, b)
            else:
                v = jet_mul(space, a, jet_inverse(space, b))
        elif t is Pow:
            v = jet_power(space, values[id(e.base)], e.exponent)
        elif t is Neg:
            v = -values[id(e.a)]
        elif e.func == "smoothbump":
            u, u0, u1 = values[id(e.args[0])], e.args[1].value, e.args[2].value
            v = _smoothbump_jet(space, _jet_array(u, lifted.shape[1:]), u0, u1)
        else:
            v = jet_apply(space, e.func, values[id(e.args[0])])
        values[id(e)] = v
    return [values[id(r)] for r in roots]


def reference_jets(exprs, points, order=3):
    shape = (len(points), jet_space(points.shape[1], order).size)
    return np.array([_jet_array(v, shape) for v in reference_evaluate(exprs, points, order)])


def reference_numbers(exprs, points):
    """The values (len(exprs), N): slot 0 of the order-0 jets."""
    return reference_jets(exprs, points, 0)[..., 0]


def entries(metric):
    return [metric.components[i][j] for i in range(metric.dim) for j in range(i, metric.dim)]


def same_bits(a, b):
    """Equal arrays, down to the sign of every zero."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_metric_same(metric, points):
    points = np.asarray(points, dtype=float)
    want_jets, want_num = reference_jets(entries(metric), points), reference_numbers(entries(metric), points)
    for k, p in enumerate(points):
        got = metric.eval_jets(p)
        upper = [got[i, j] for i in range(metric.dim) for j in range(i, metric.dim)]
        assert same_bits(upper, want_jets[:, k])
    g = metric.eval_matrix_many(points)
    iu = np.triu_indices(metric.dim)
    assert same_bits(g[:, iu[0], iu[1]].T, want_num)
    assert same_bits(g, g.transpose(0, 2, 1))


# --- metrics ---------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog.list_catalog())
def test_catalog_metrics_match_the_reference(name):
    entry = catalog.get_entry(name)
    points = entry.sample_points(np.random.default_rng(5), 6)
    assert_metric_same(entry.metric, points)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_random_metrics_and_products_with_a_line_match_the_reference(dim, rng):
    for _ in range(3):
        points = rng.uniform(-0.3, 0.3, (5, dim))
        assert_metric_same(catalog.random_metric_near_flat(dim, rng), points)
        line = catalog.product_with_line(catalog.random_metric_near_flat(dim - 1, rng))
        assert_metric_same(line, points)


def test_perturb_output_file_matches_the_reference(tmp_path):
    out = tmp_path / "bumped.metric"
    r = CliRunner().invoke(
        main,
        ["perturb", "--metric", "nil", "--point", "0.1,0.2,0.3", "--target", "random", "--seed", "4",
         "--radius", "0.5", "--out", str(out)],
    )
    assert r.exit_code == 0, r.output
    text = out.read_text()
    assert "let " in text and "smoothbump" in text
    metric = parse_metric(text)
    dirs = np.random.default_rng(8).standard_normal((12, 3))
    points = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * np.linspace(0.0, 0.6, 12)[:, None]
    assert_metric_same(metric, points)


# --- random DAGs -------------------------------------------------------------------

_FUNCS = UNARY_FUNCS + ("smoothbump",)


@st.composite
def dags(draw, dim=3):
    """A list of roots over a pool of nodes that later nodes reuse, so
    subtrees are shared; constants and constant subtrees included."""
    pool = [Var(k) for k in range(dim)] + [Num(draw(st.sampled_from([0.5, 1.0, 2.0, -1.5, 3.0])))]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["add", "sub", "mul", "div", "pow", "neg", "func", "num", "var"]))
        pick = st.sampled_from(pool)
        if kind == "num":
            node = Num(draw(st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 2))))
        elif kind == "var":
            node = Var(draw(st.integers(0, dim - 1)))
        elif kind in ("add", "sub", "mul", "div"):
            node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](draw(pick), draw(pick))
        elif kind == "pow":  # exponents past int64 included
            node = Pow(draw(pick), draw(st.integers(-3, 4) | st.sampled_from([2**63, -(2**63) - 1, 10**20])))
        elif kind == "neg":
            node = Neg(draw(pick))
        else:
            func = draw(st.sampled_from(_FUNCS))
            if func == "smoothbump":
                node = Call(func, (draw(pick), Num(0.25), Num(1.0)))
            else:
                node = Call(func, (draw(pick),))
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return fn()
    except DomainError:
        return DomainError
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(roots=dags(), seed=st.integers(0, 2**16))
def test_random_dags_match_the_reference(roots, seed):
    points = np.random.default_rng(seed).uniform(-1.2, 1.2, (4, 3))
    for derivatives in (True, False):
        ref = reference_jets if derivatives else reference_numbers
        run = eval_expr_many if derivatives else (lambda es, p: np.array([eval_num_many(e, p) for e in es]))
        want, got = _outcome(lambda: ref(roots, points)), _outcome(lambda: run(roots, points))
        if isinstance(want, type):
            assert got is want
        else:  # the same bits, the payload of a nan aside
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert same_bits(np.where(np.isnan(got), 0.0, got), np.where(np.isnan(want), 0.0, want))


@settings(max_examples=100, deadline=None)
@given(roots=dags(), seed=st.integers(0, 2**16))
def test_random_dags_at_order_2_are_the_order_3_prefix(roots, seed):
    """One program run at order 2, 1 or 0 gives the first C(dim+order,
    order) coefficients of its order-3 run, bit for bit, or raises the same
    error: a value is the constant term of the order-3 jet."""
    points = np.random.default_rng(seed).uniform(-1.2, 1.2, (4, 3))
    program = dsl._Program(roots)
    high = _outcome(lambda: program.run(points, 3))
    for order in (2, 1, 0):
        low = _outcome(lambda: program.run(points, order))
        if isinstance(high, type):
            assert low is high
        else:
            prefix = high[..., : jet_space(3, order).size]
            assert np.array_equal(np.isnan(low), np.isnan(prefix))
            assert same_bits(np.where(np.isnan(low), 0.0, low), np.where(np.isnan(prefix), 0.0, prefix))


# --- error paths -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, point, derivatives",
    [
        ("1 / (x1 - x1)", (0.3, 0.1), True),
        ("x2 / (x1 - 0.3)", (0.3, 0.1), True),
        ("x2 / (x1 - 0.3)", (0.3, 0.1), False),
        ("1 / (2 - 2)", (0.3, 0.1), True),
        ("1 / (2 - 2) + x1", (0.3, 0.1), False),
        ("x1 / (2 - 2)", (0.3, 0.1), True),
        ("x1 / (2 - 2)", (0.3, 0.1), False),
        ("log(x1 - 1)", (0.3, 0.1), True),
        ("log(x1 - 1)", (0.3, 0.1), False),
        ("sqrt(-x2)", (0.3, 0.1), True),
        ("sqrt(-x2)", (0.3, 0.1), False),
        ("log(0) * x1", (0.3, 0.1), True),
        ("sqrt(-1)", (0.3, 0.1), False),
        ("x1 * x3", (0.3, 0.1), True),
        ("x1 * x3", (0.3, 0.1), False),
    ],
)
def test_error_paths_raise_the_same_domain_error(text, point, derivatives):
    """Order-3 jets with ``derivatives``, else values (order-0 jets)."""
    e = parse_expr(text)
    points = np.asarray([point], dtype=float)
    with pytest.raises(DomainError) as want:
        reference_evaluate([e], points, 3 if derivatives else 0)
    with pytest.raises(DomainError) as got:
        eval_expr_many([e], points) if derivatives else eval_num_many(e, points)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("exponent", [2**63, 10**20, -(2**64)])
def test_exponents_past_int64_evaluate_as_node_by_node(exponent):
    roots = [parse_expr(f"1 + x1^{exponent}"), parse_expr(f"x2 * (x1 + 1.5)^{exponent}")]
    points = np.array([[0.5, 0.25], [-0.75, 2.0]])
    with np.errstate(all="ignore"):
        assert same_bits(eval_expr_many(roots, points), reference_jets(roots, points))
        got = np.array([eval_num_many(e, points) for e in roots])
        assert same_bits(got, reference_numbers(roots, points))


def test_check_on_an_exponent_past_int64_reports_a_verdict(tmp_path):
    src = tmp_path / "pow.metric"
    src.write_text(f"dim = 3\ng11 = 1 + x1^{2**63}\ng22 = 1 + x2^{10**20}\ng33 = 1\n")
    r = CliRunner().invoke(main, ["check", "--metric", str(src), "--point", "0.1,0.2,0.3"])
    assert r.exit_code == 0, r.output
    assert json.loads(r.stdout)["verdict"] == "passes_necessary"


@pytest.mark.parametrize("text", ["x1 / (2 - 2)", "1 / (2 - 2) + x1", "log(0) * x1", "sqrt(-1) + x1", "x2 / (x1 - x1)"])
def test_numbers_at_no_points_raise_what_every_run_raises(text):
    """A run at no points raises the error of a folded constant or of a
    zero constant divisor, as at any batch size, and no error that only a
    value at a point would give."""
    e = parse_expr(text)
    points = np.zeros((0, 2))
    want = _outcome(lambda: reference_numbers([e], points)[0])
    got = _outcome(lambda: eval_num_many(e, points))
    assert got is want if isinstance(want, type) else same_bits(got, want)
    assert (want is DomainError) == (text != "x2 / (x1 - x1)")


def test_a_point_batch_of_the_wrong_width_raises_domain_error():
    m = parse_metric("dim = 3\ng11 = 1 + x3^2\ng22 = 1\ng33 = 1\n")
    with pytest.raises(DomainError):
        m.eval_jets((0.1, 0.2))
    with pytest.raises(DomainError):
        m.eval_matrix_many(np.zeros((4, 2)))
    with pytest.raises(DomainError):
        m.eval_jets(np.zeros(7))  # no jet space of dimension 7


# --- the program is compiled once and stays outside the fields ---------------------


def test_a_metric_compiles_once_and_keeps_eq_hash_repr_and_pickle(monkeypatch):
    m = catalog.get_entry("sol").metric
    before = (repr(m), hash(m), pickle.dumps(m))
    compiled = []
    real = dsl._Program

    def counting(*args):
        compiled.append(1)
        return real(*args)

    monkeypatch.setattr(dsl, "_Program", counting)
    fresh = MetricDef(m.dim, m.components, m.name, m.chart)
    for p in ([0.1, 0.2, 0.3], [0.0, -0.4, 0.2]):
        fresh.eval_jets(p)
        fresh.eval_matrix(p)
    assert len(compiled) == 1
    assert fresh == m and hash(fresh) == before[1] and repr(fresh) == before[0]
    assert pickle.dumps(fresh) == pickle.dumps(MetricDef(m.dim, m.components, m.name, m.chart))
    back = pickle.loads(pickle.dumps(fresh))
    assert back == fresh and np.array_equal(back.eval_matrix([0.1, 0.2, 0.3]), fresh.eval_matrix([0.1, 0.2, 0.3]))
