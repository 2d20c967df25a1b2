"""Jet arithmetic against independent oracles: a standalone polynomial
calculus for exact Taylor coefficients, and Richardson-extrapolated finite
differences for smooth functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcwcheck.dsl import eval_expr, parse_expr
from lcwcheck.errors import DomainError
from lcwcheck.jets import jet_add, jet_apply, jet_inverse, jet_mul, jet_power, jet_space


def _constant(value, sp):
    """The coefficients of a constant jet."""
    c = np.zeros(sp.size)
    c[0] = value
    return c


def _coordinate(sp, k, value):
    """The coefficients of the coordinate x_k at a point where it is ``value``."""
    c = _constant(value, sp)
    c[sp.unit[k]] = 1.0
    return c


# --- independent polynomial oracle (no jet code involved) --------------------


class Poly:
    """Exact multivariate polynomial as {exponent tuple: coefficient}."""

    def __init__(self, dim, coeffs=None):
        self.dim = dim
        self.coeffs = dict(coeffs or {})

    @staticmethod
    def const(c, dim):
        return Poly(dim, {(0,) * dim: c})

    @staticmethod
    def var(k, dim):
        e = [0] * dim
        e[k] = 1
        return Poly(dim, {tuple(e): 1.0})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Poly(self.dim, out)

    def __mul__(self, other):
        out = {}
        for a, va in self.coeffs.items():
            for b, vb in other.coeffs.items():
                k = tuple(x + y for x, y in zip(a, b))
                out[k] = out.get(k, 0.0) + va * vb
        return Poly(self.dim, out)

    def deriv(self, k):
        out = {}
        for a, v in self.coeffs.items():
            if a[k] > 0:
                b = list(a)
                b[k] -= 1
                out[tuple(b)] = out.get(tuple(b), 0.0) + v * a[k]
        return Poly(self.dim, out)

    def eval(self, point):
        total = 0.0
        for a, v in self.coeffs.items():
            term = v
            for x, e in zip(point, a):
                term *= x**e
            total += term
        return total

    def taylor_coefficient(self, alpha, point):
        p = self
        fact = 1.0
        for k, e in enumerate(alpha):
            for _ in range(e):
                p = p.deriv(k)
            fact *= math.factorial(e)
        return p.eval(point) / fact


def _random_poly_pair(rng, dim, nterms=5):
    """Matching (Expr, Poly) built from the same random monomials."""
    from lcwcheck.dsl import Add, Mul, Num, Var

    expr = None
    poly = Poly.const(0.0, dim)
    for _ in range(nterms):
        c = rng.uniform(-2, 2)
        e_node = Num(c)
        p_node = Poly.const(c, dim)
        for _ in range(int(rng.integers(0, 4))):
            k = int(rng.integers(0, dim))
            e_node = Mul(e_node, Var(k))
            p_node = p_node * Poly.var(k, dim)
        expr = e_node if expr is None else Add(expr, e_node)
        poly = poly + p_node
    return expr, poly


# --- spec'd examples ----------------------------------------------------------


def test_jet_lift_origin():
    j = eval_expr(parse_expr("x2"), (0.0, 0.0, 0.0))
    assert j[0] == 0.0
    assert j[jet_space(3).index_of[(0, 1, 0)]] == 1.0
    assert np.count_nonzero(j) == 1


def test_jet_lift_point():
    j = eval_expr(parse_expr("x1"), (2.0, 5.0))
    assert j[0] == 2.0
    assert j[jet_space(2).index_of[(1, 0)]] == 1.0


def _richardson_derivs(f, x, h):
    """First three derivatives by central differences with extrapolation."""

    def d1(h):
        return (f(x + h) - f(x - h)) / (2 * h)

    def d2(h):
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

    def d3(h):
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)

    out = []
    for d in (d1, d2, d3):
        a, b = d(h), d(h / 10)
        out.append((100 * b - a) / 99)  # cancel the O(h^2) error term
    return out


def test_exp_jet_matches_finite_differences():
    # coefficients of exp at 0 are 1, 1, 1/2, 1/6
    sp = jet_space(2)
    j = jet_apply(sp, "exp", _coordinate(sp, 0, 0.0))
    got = [
        j[sp.index_of[(0, 0)]],
        j[sp.index_of[(1, 0)]],
        j[sp.index_of[(2, 0)]],
        j[sp.index_of[(3, 0)]],
    ]
    assert got == [1.0, 1.0, 0.5, 1.0 / 6.0]
    d1, d2, d3 = _richardson_derivs(math.exp, 0.0, 1e-2)
    assert abs(got[1] - d1) <= 1e-6
    assert abs(got[2] - d2 / 2) <= 1e-6
    assert abs(got[3] - d3 / 6) <= 1e-6


def test_expr_x1sq_x2():
    j = eval_expr(parse_expr("x1^2 * x2"), (1.0, 1.0, 0.5))
    sp = jet_space(3)
    assert j[0] == 1.0
    assert np.allclose(j[sp.unit], [2.0, 1.0, 0.0])
    # Taylor coefficient for (2,1,0) = third mixed derivative / 2! = 1
    assert j[sp.index_of[(2, 1, 0)]] == 1.0


def test_expr_constant():
    j = eval_expr(parse_expr("7"), (0.3, -0.4))
    assert j[0] == 7.0
    assert np.count_nonzero(j) == 1


def test_expr_exp_2x3():
    j = eval_expr(parse_expr("exp(2*x3)"), (0.0, 0.0, 0.0))
    sp = jet_space(3)
    assert j[0] == 1.0
    assert j[sp.index_of[(0, 0, 1)]] == pytest.approx(2.0, abs=1e-15)
    assert j[sp.index_of[(0, 0, 2)]] == pytest.approx(2.0, abs=1e-15)
    assert j[sp.index_of[(0, 0, 3)]] == pytest.approx(4.0 / 3.0, abs=1e-15)


# --- properties ---------------------------------------------------------------


def test_polynomial_exactness(rng):
    for dim in (2, 3, 4):
        for _ in range(20):
            expr, poly = _random_poly_pair(rng, dim)
            point = rng.uniform(-1, 1, dim)
            jet = eval_expr(expr, point)
            sp = jet_space(dim)
            for idx, alpha in enumerate(sp.indices):
                want = poly.taylor_coefficient(alpha, point)
                got = jet[idx]
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (alpha, got, want)


SMOOTH_CASES = [
    ("exp(x1) * sin(x2)", (0.3, -0.7)),
    ("log(2 + x1) / cosh(x2)", (0.5, 0.2)),
    ("sqrt(1 + x1^2 + x2^2)", (0.4, -0.3)),
    ("sinh(x1 - x2) + cos(3*x1)", (0.1, 0.6)),
    ("exp(sin(x1)*x2)", (-0.2, 0.8)),
]


@pytest.mark.parametrize("text,point", SMOOTH_CASES)
def test_smooth_derivatives_match_finite_differences(text, point):
    expr = parse_expr(text)
    jet = eval_expr(expr, point)
    sp = jet_space(2)
    from lcwcheck.dsl import _Program

    program = _Program([expr])
    for k in range(2):
        def f(t, k=k):
            p = list(point)
            p[k] = t
            return program.run(np.array([p]), 0)[0, 0, 0]

        d1, d2, d3 = _richardson_derivs(f, point[k], 1e-2)
        alpha1 = tuple(1 if i == k else 0 for i in range(2))
        alpha2 = tuple(2 if i == k else 0 for i in range(2))
        alpha3 = tuple(3 if i == k else 0 for i in range(2))
        for want, alpha in ((d1, alpha1), (d2, alpha2), (d3, alpha3)):
            got = sp.derivative(jet, alpha)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (alpha, got, want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_ring_homomorphism(dim, seed):
    from lcwcheck.dsl import Add, Mul

    rng = np.random.default_rng(seed)
    a, _ = _random_poly_pair(rng, dim, nterms=3)
    b, _ = _random_poly_pair(rng, dim, nterms=3)
    point = rng.uniform(-1, 1, dim)
    sp = jet_space(dim)
    ja, jb = eval_expr(a, point), eval_expr(b, point)
    assert np.array_equal(eval_expr(Mul(a, b), point), jet_mul(sp, ja, jb))
    assert np.array_equal(eval_expr(Add(a, b), point), jet_add(ja, jb))
    # commutativity is exact up to summation order in the convolution
    ab, ba = jet_mul(sp, ja, jb), jet_mul(sp, jb, ja)
    assert np.abs(ab - ba).max() <= 1e-14 * max(1.0, np.abs(ab).max())


def test_division_inverts_multiplication(rng):
    for _ in range(20):
        a, _ = _random_poly_pair(rng, 3, nterms=3)
        point = rng.uniform(-1, 1, 3)
        ja = eval_expr(a, point)
        if abs(ja[0]) < 0.1:
            continue
        sp = jet_space(3)
        recovered = jet_mul(sp, jet_mul(sp, ja, ja), jet_inverse(sp, ja))
        assert np.abs(recovered - ja).max() <= 1e-12 * max(1.0, np.abs(ja).max())


def test_division_by_zero_constant_term():
    sp = jet_space(2)
    z = _coordinate(sp, 0, 0.0)
    with pytest.raises(DomainError):
        jet_mul(sp, _constant(1.0, sp), jet_inverse(sp, z))


def test_log_sqrt_domain():
    sp = jet_space(2)
    neg = _constant(-1.0, sp)
    with pytest.raises(DomainError):
        jet_apply(sp, "log", neg)
    with pytest.raises(DomainError):
        jet_apply(sp, "sqrt", neg)


def test_coefficient_count():
    for dim in range(2, 7):
        assert jet_space(dim).size == math.comb(dim + 3, 3)


def test_integer_powers(rng):
    point = rng.uniform(0.5, 1.5, 2)
    j = eval_expr(parse_expr("1 + x1 + x2"), point)
    sp = jet_space(2)
    assert np.abs(jet_power(sp, j, 3) - jet_mul(sp, jet_mul(sp, j, j), j)).max() <= 1e-12
    inv2 = jet_power(sp, j, -2)
    direct = jet_mul(sp, _constant(1.0, sp), jet_inverse(sp, jet_mul(sp, j, j)))
    assert np.abs(inv2 - direct).max() <= 1e-12
