"""Built-in geometries with ground-truth expectations.

The eight three-dimensional model geometries, a product family R x Sigma
with a configurable conformal factor on the surface, the complex projective
plane (as algebraic curvature data at a point, plus an optional affine
chart), and dimension-4 products euclidean-line x (3d entry).

Each entry carries a chart domain within which random evaluation points are
well conditioned, and an ``expected`` record of independently computed
values the tensor pipeline must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsl import (
    Add,
    Call,
    MetricDef,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
    eval_expr,
    metric_from_components,
    parse_expr,
    parse_metric,
    substitute,
    used_vars,
)
from .errors import DimensionError, UnknownEntry


@dataclass
class AlgebraicPointData:
    """Curvature data at a single point, with no chart: a (0,4) tensor in
    an orthonormal frame."""

    dim: int
    r4: np.ndarray
    g: np.ndarray


@dataclass
class CatalogEntry:
    name: str
    dim: int
    metric: MetricDef | None = None
    algebraic: AlgebraicPointData | None = None
    sample_box: tuple = ()  # per-coordinate (lo, hi) for random points
    expected: dict = field(default_factory=dict)
    optional: bool = False
    note: str = ""

    def sample_points(self, rng, count):
        lo = np.array([b[0] for b in self.sample_box])
        hi = np.array([b[1] for b in self.sample_box])
        return [lo + (hi - lo) * rng.random(self.dim) for _ in range(count)]


# -- metric definitions (exercised through the file-format parser) -------------

_SOL_TEXT = """
dim = 3
name = "sol"
chart = "solvable geometry, global coordinates"
g11 = exp(2*x3)
g22 = exp(-2*x3)
g33 = 1
"""

_NIL_TEXT = """
dim = 3
name = "nil"
chart = "Heisenberg group, global coordinates"
g11 = 1
g22 = 1 + x1^2
g23 = -x1
g33 = 1
"""

_SL2R_TEXT = """
dim = 3
name = "sl2r"
chart = "Iwasawa coordinates (rotation angle, diagonal, upper nilpotent); keep |x2|, |x3| < 2"
g11 = (4*x3^2 + 1)*exp(2*x2) + ((x3^2 - 1)*exp(x2) + exp(-x2))^2
g12 = ((x3^2 - 1)*exp(x2) + exp(-x2))*x3 + 2*x3*exp(x2)
g13 = (x3^2 - 1)*exp(x2) + exp(-x2)
g22 = x3^2 + 1
g23 = x3
g33 = 1
"""

_EUCLIDEAN3_TEXT = """
dim = 3
name = "euclidean3"
g11 = 1
g22 = 1
g33 = 1
"""

_SPHERE3_TEXT = """
dim = 3
name = "sphere3"
chart = "stereographic; conformally flat, curvature +1"
g11 = 4/(1 + x1^2 + x2^2 + x3^2)^2
g22 = 4/(1 + x1^2 + x2^2 + x3^2)^2
g33 = 4/(1 + x1^2 + x2^2 + x3^2)^2
"""

_HYPERBOLIC3_TEXT = """
dim = 3
name = "hyperbolic3"
chart = "Poincare ball; keep |x| < 0.8"
g11 = 4/(1 - x1^2 - x2^2 - x3^2)^2
g22 = 4/(1 - x1^2 - x2^2 - x3^2)^2
g33 = 4/(1 - x1^2 - x2^2 - x3^2)^2
"""

_S2XR_TEXT = """
dim = 3
name = "s2xr"
chart = "line times round sphere in stereographic surface coordinates"
g11 = 1
g22 = 4/(1 + x2^2 + x3^2)^2
g33 = 4/(1 + x2^2 + x3^2)^2
"""

_H2XR_TEXT = """
dim = 3
name = "h2xr"
chart = "line times hyperbolic plane in the disc model; keep x2^2+x3^2 < 0.5"
g11 = 1
g22 = 4/(1 - x2^2 - x3^2)^2
g33 = 4/(1 - x2^2 - x3^2)^2
"""


def r_cross_surface(f) -> MetricDef:
    """Product of a line with a surface in isothermal coordinates:
    g = dx1^2 + e^f (dx2^2 + dx3^2), f a function of x2, x3."""
    if isinstance(f, str):
        f = parse_expr(f)
    bad = used_vars(f) - {1, 2}
    if bad:
        raise DimensionError(
            f"conformal factor may use x2, x3 only, found x{min(bad) + 1}"
        )
    ef = Call("exp", (f,))
    return metric_from_components(
        [
            [Num(1.0), Num(0.0), Num(0.0)],
            [None, ef, Num(0.0)],
            [None, None, ef],
        ],
        name="r_cross_surface",
        chart="line times conformal surface",
    )


def r_cross_surface_cy(f, point) -> np.ndarray:
    """Closed-form Cotton-York tensor of r_cross_surface(f): the only
    nonzero entries are

        CY_12 = -1/4 (Lap f d3 f - d3 Lap f) e^{-f}
        CY_13 = +1/4 (Lap f d2 f - d2 Lap f) e^{-f}

    computed from exact jet derivatives of f.  Independent of the tensor
    pipeline (no Christoffel symbols, no curvature)."""
    if isinstance(f, str):
        f = parse_expr(f)
    jet = eval_expr(f, np.asarray(point, dtype=float))
    d2 = jet.derivative((0, 1, 0))
    d3 = jet.derivative((0, 0, 1))
    lap = jet.derivative((0, 2, 0)) + jet.derivative((0, 0, 2))
    d2lap = jet.derivative((0, 3, 0)) + jet.derivative((0, 1, 2))
    d3lap = jet.derivative((0, 0, 3)) + jet.derivative((0, 2, 1))
    emf = np.exp(-jet.value)
    cy = np.zeros((3, 3))
    cy[0, 1] = cy[1, 0] = -0.25 * (lap * d3 - d3lap) * emf
    cy[0, 2] = cy[2, 0] = 0.25 * (lap * d2 - d2lap) * emf
    return cy


def product_with_line(base: MetricDef, name=None) -> MetricDef:
    """dim+1 product metric dx1^2 + base(x2, ..., x_{dim+1})."""
    n = base.dim
    if n + 1 > 6:
        raise DimensionError("product exceeds the supported dimension")
    shift = {k: Var(k + 1) for k in range(n)}
    comp = [[Num(0.0)] * (n + 1) for _ in range(n + 1)]
    comp[0][0] = Num(1.0)
    for i in range(n):
        for j in range(i, n):
            comp[i + 1][j + 1] = comp[j + 1][i + 1] = substitute(base.components[i][j], shift)
    return MetricDef(
        dim=n + 1,
        components=tuple(tuple(row) for row in comp),
        name=name or f"line_x_{base.name}",
        chart=f"product of a euclidean line with {base.name}",
    )


# -- ground-truth evaluators ----------------------------------------------------


def nil_expected_tensors(point) -> dict:
    """Closed-form Ricci, scalar, Schouten and Cotton-York of the nil
    entry; x is the first coordinate."""
    x = float(point[0])
    ric = np.array(
        [
            [-0.5, 0.0, 0.0],
            [0.0, 0.5 * x * x - 0.5, -0.5 * x],
            [0.0, -0.5 * x, 0.5],
        ]
    )
    schouten = np.array(
        [
            [-3.0 / 8.0, 0.0, 0.0],
            [0.0, 5.0 / 8.0 * x * x - 3.0 / 8.0, -5.0 / 8.0 * x],
            [0.0, -5.0 / 8.0 * x, 5.0 / 8.0],
        ]
    )
    cy = np.array(
        [
            [0.5, 0.0, 0.0],
            [0.0, -x * x + 0.5, x],
            [0.0, x, -1.0],
        ]
    )
    return {"ricci": ric, "scalar": -0.5, "schouten": schouten, "cotton_york": cy}


def sl2r_full_tensors(point) -> dict:
    """Closed-form Ricci, scalar, Schouten and Cotton-York components of
    the sl2r entry in its Iwasawa chart; an oracle independent of the
    tensor pipeline.  Coordinates: (angle, t, s)."""
    _, t, s = (float(c) for c in point)
    et, emt = np.exp(t), np.exp(-t)
    e2t, em2t = np.exp(2 * t), np.exp(-2 * t)
    ric = np.array(
        [
            [-8.0 * s * s * e2t, -4.0 * s * et, 0.0],
            [-4.0 * s * et, -2.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    schouten = np.array(
        [
            [
                -8.0 * s * s * e2t
                + 0.5 * (4 * s * s + 1) * e2t
                + 0.5 * ((s * s - 1) * et + emt) ** 2,
                (0.5 * s**3 - 3.5 * s) * et + 0.5 * emt * s,
                0.5 * (s * s - 1) * et + 0.5 * emt,
            ],
            [0.0, -1.5 + 0.5 * s * s, 0.5 * s],
            [0.0, 0.0, 0.5],
        ]
    )
    schouten = np.triu(schouten) + np.triu(schouten, 1).T
    cy = np.array(
        [
            [
                4 * s**4 * e2t
                - 28 * s**2 * e2t
                + 8 * s**2
                + 8 * e2t
                + 4 * em2t
                - 12,
                4 * s**3 * et + 4 * s * emt - 14 * s * et,
                4 * s**2 * et + 4 * emt - 6 * et,
            ],
            [0.0, 4 * s**2 - 4, 4 * s],
            [0.0, 0.0, 4.0],
        ]
    )
    cy = np.triu(cy) + np.triu(cy, 1).T
    return {"ricci": ric, "scalar": -2.0, "schouten": schouten, "cotton_york": cy}


def cp2_curvature() -> AlgebraicPointData:
    """Curvature tensor of the Fubini-Study metric at a point, in an
    orthonormal frame adapted to the complex structure (e2 = J e1,
    e4 = J e3): sectional curvatures 4 on complex lines, 1 on totally real
    planes, mixed components R(e1,e2,e3,e4) = 2, R(e1,e3,e2,e4) = 1,
    R(e1,e4,e2,e3) = -1."""
    r4 = np.zeros((4, 4, 4, 4))

    def put(i, j, k, l, v):
        i, j, k, l = i - 1, j - 1, k - 1, l - 1
        for a, b, s1 in ((i, j, 1.0), (j, i, -1.0)):
            for c, d, s2 in ((k, l, 1.0), (l, k, -1.0)):
                r4[a, b, c, d] = s1 * s2 * v
                r4[c, d, a, b] = s1 * s2 * v

    put(1, 2, 1, 2, 4.0)
    put(3, 4, 3, 4, 4.0)
    put(1, 3, 1, 3, 1.0)
    put(1, 4, 1, 4, 1.0)
    put(2, 3, 2, 3, 1.0)
    put(2, 4, 2, 4, 1.0)
    put(1, 2, 3, 4, 2.0)
    put(1, 3, 2, 4, 1.0)
    put(1, 4, 2, 3, -1.0)
    return AlgebraicPointData(dim=4, r4=r4, g=np.eye(4))


def cp2_chart_metric() -> MetricDef:
    """Affine chart of the Fubini-Study metric (holomorphic sectional
    curvature 4), realified with z1 = x1 + i x2, z2 = x3 + i x4.  Included
    as an optional cross-check of the algebraic entry."""
    from .dsl import Div

    z1sq = Add(Pow(Var(0), 2), Pow(Var(1), 2))
    z2sq = Add(Pow(Var(2), 2), Pow(Var(3), 2))
    rho = Add(Num(1.0), Add(z1sq, z2sq))
    rho2 = Pow(rho, 2)
    r11 = Div(Sub(rho, z1sq), rho2)
    r22 = Div(Sub(rho, z2sq), rho2)
    r12 = Div(Mul(Num(-1.0), Add(Mul(Var(0), Var(2)), Mul(Var(1), Var(3)))), rho2)
    i12 = Div(Mul(Num(-1.0), Sub(Mul(Var(0), Var(3)), Mul(Var(1), Var(2)))), rho2)
    neg_i12 = Mul(Num(-1.0), i12)
    comp = [
        [r11, Num(0.0), r12, i12],
        [None, r11, neg_i12, r12],
        [None, None, r22, Num(0.0)],
        [None, None, None, r22],
    ]
    return metric_from_components(
        comp, name="cp2_chart", chart="affine chart; real coordinates of (z1, z2)"
    )


# -- random metric factories (shared by tests and the CLI sampler) --------------


def random_polynomial(dim, rng, amplitude=0.05, degree=3, terms=6):
    """Random polynomial expression of bounded degree and small amplitude."""
    out = None
    for _ in range(terms):
        c = amplitude * rng.standard_normal()
        mono = Num(c)
        for _ in range(int(rng.integers(1, degree + 1))):
            mono = Mul(mono, Var(int(rng.integers(0, dim))))
        out = mono if out is None else Add(out, mono)
    return out


def random_metric_near_flat(dim, rng, amplitude=0.05, degree=3) -> MetricDef:
    """Identity plus small random polynomial perturbations; positive
    definite near the origin."""
    comp = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            base = Num(1.0) if i == j else Num(0.0)
            comp[i][j] = Add(base, random_polynomial(dim, rng, amplitude, degree))
    return metric_from_components(comp, name="random_near_flat")


DEFAULT_SURFACE_FACTOR = "sin(x2)*cosh(2*x3)"


def _build_registry():
    entries = {}

    def add(entry):
        entries[entry.name] = entry

    box3 = ((-1.0, 1.0),) * 3
    add(
        CatalogEntry(
            name="euclidean3",
            dim=3,
            metric=parse_metric(_EUCLIDEAN3_TEXT),
            sample_box=box3,
            expected={
                "lcw": "exists",
                "conformally_flat": True,
                "det_cy": 0.0,
                "cy_zero": True,
                "provenance": "flat metric; every curvature tensor vanishes",
            },
        )
    )
    add(
        CatalogEntry(
            name="sphere3",
            dim=3,
            metric=parse_metric(_SPHERE3_TEXT),
            sample_box=((-0.4, 0.4),) * 3,
            expected={
                "lcw": "exists",
                "conformally_flat": True,
                "det_cy": 0.0,
                "cy_zero": True,
                "sectional": 1.0,
                "provenance": "round sphere in a conformally flat chart",
            },
        )
    )
    add(
        CatalogEntry(
            name="hyperbolic3",
            dim=3,
            metric=parse_metric(_HYPERBOLIC3_TEXT),
            sample_box=((-0.35, 0.35),) * 3,
            expected={
                "lcw": "exists",
                "conformally_flat": True,
                "det_cy": 0.0,
                "cy_zero": True,
                "sectional": -1.0,
                "provenance": "hyperbolic space in the ball model",
            },
        )
    )
    add(
        CatalogEntry(
            name="s2xr",
            dim=3,
            metric=parse_metric(_S2XR_TEXT),
            sample_box=((-1.0, 1.0), (-0.5, 0.5), (-0.5, 0.5)),
            expected={
                "lcw": "exists",
                "conformally_flat": True,
                "det_cy": 0.0,
                "cy_zero": True,
                "provenance": "constant surface curvature makes the Cotton-York tensor vanish",
            },
        )
    )
    add(
        CatalogEntry(
            name="h2xr",
            dim=3,
            metric=parse_metric(_H2XR_TEXT),
            sample_box=((-1.0, 1.0), (-0.35, 0.35), (-0.35, 0.35)),
            expected={
                "lcw": "exists",
                "conformally_flat": True,
                "det_cy": 0.0,
                "cy_zero": True,
                "provenance": "constant surface curvature makes the Cotton-York tensor vanish",
            },
        )
    )
    add(
        CatalogEntry(
            name="sol",
            dim=3,
            metric=parse_metric(_SOL_TEXT),
            sample_box=box3,
            expected={
                "lcw": "exists",
                "conformally_flat": False,
                "det_cy": 0.0,
                "cy_zero": False,
                "provenance": (
                    "the rescaling by exp(-2 x3) splits off the first "
                    "coordinate, so a weight exists; the Cotton-York tensor "
                    "is nonzero with zero determinant"
                ),
            },
        )
    )
    add(
        CatalogEntry(
            name="nil",
            dim=3,
            metric=parse_metric(_NIL_TEXT),
            sample_box=box3,
            expected={
                "lcw": "none",
                "conformally_flat": False,
                "det_cy": -0.25,
                "cy_zero": False,
                "tensors": nil_expected_tensors,
                "provenance": (
                    "closed-form tensors of the left-invariant metric; the "
                    "Cotton-York determinant is -1/4 identically (product of "
                    "eigenvalues of the displayed matrix)"
                ),
            },
        )
    )
    add(
        CatalogEntry(
            name="sl2r",
            dim=3,
            metric=parse_metric(_SL2R_TEXT),
            sample_box=((-1.0, 1.0), (-1.5, 1.5), (-1.5, 1.5)),
            expected={
                "lcw": "none",
                "conformally_flat": False,
                "cy_zero": False,
                "cy_at_origin": np.array(
                    [[0.0, 0.0, -2.0], [0.0, -4.0, 0.0], [-2.0, 0.0, 4.0]]
                ),
                "det_cy_at_origin": 16.0,
                "tensors": sl2r_full_tensors,
                "provenance": "closed-form tensors of the left-invariant metric",
            },
        )
    )
    add(
        CatalogEntry(
            name="r_cross_surface",
            dim=3,
            metric=r_cross_surface(DEFAULT_SURFACE_FACTOR),
            sample_box=((-1.0, 1.0), (-0.8, 0.8), (-0.8, 0.8)),
            expected={
                "lcw": "exists",
                "surface_factor": DEFAULT_SURFACE_FACTOR,
                "cy_closed_form": True,
                "provenance": (
                    "product of a line with a surface; the Cotton-York tensor "
                    "has the two-component closed form"
                ),
            },
            note="factory entry; use r_cross_surface(f) for other conformal factors",
        )
    )
    add(
        CatalogEntry(
            name="cp2_algebraic",
            dim=4,
            algebraic=cp2_curvature(),
            expected={
                "lcw": "none",
                "operator_eigenvalues": [6.0, 0.0, 0.0, 2.0, 2.0, 2.0],
                "wplus_diag": [4.0, -2.0, -2.0],
                "wminus_zero": True,
                "einstein": True,
                "scalar": 24.0,
                "eigenflag": False,
                "provenance": "curvature component table of the Fubini-Study metric",
            },
        )
    )
    add(
        CatalogEntry(
            name="cp2_chart",
            dim=4,
            metric=cp2_chart_metric(),
            sample_box=((-0.3, 0.3),) * 4,
            optional=True,
            expected={
                "lcw": "none",
                "eigenflag": False,
                "provenance": (
                    "affine-chart realification of the Fubini-Study metric; "
                    "cross-checked against the algebraic entry at the origin"
                ),
            },
            note="optional chart entry behind the algebraic one",
        )
    )
    sol = entries["sol"].metric
    nil = entries["nil"].metric
    sphere3 = entries["sphere3"].metric
    add(
        CatalogEntry(
            name="product4_sol",
            dim=4,
            metric=product_with_line(sol, "product4_sol"),
            sample_box=((-1.0, 1.0),) + box3,
            expected={
                "lcw": "exists",
                "eigenflag": True,
                "witness": [1.0, 0.0, 0.0, 0.0],
                "provenance": "product metric; the line direction is parallel",
            },
        )
    )
    add(
        CatalogEntry(
            name="product4_nil",
            dim=4,
            metric=product_with_line(nil, "product4_nil"),
            sample_box=((-1.0, 1.0),) + box3,
            expected={
                "lcw": "exists",
                "eigenflag": True,
                "witness": [1.0, 0.0, 0.0, 0.0],
                "provenance": "product metric; the line direction is parallel",
            },
        )
    )
    add(
        CatalogEntry(
            name="product4_sphere3",
            dim=4,
            metric=product_with_line(sphere3, "product4_sphere3"),
            sample_box=((-1.0, 1.0),) + ((-0.4, 0.4),) * 3,
            expected={
                "lcw": "exists",
                "eigenflag": True,
                "witness": [1.0, 0.0, 0.0, 0.0],
                "provenance": "product metric; the line direction is parallel",
            },
        )
    )
    return entries


_REGISTRY = None


def _registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


THURSTON_NAMES = (
    "euclidean3",
    "sphere3",
    "hyperbolic3",
    "s2xr",
    "h2xr",
    "sol",
    "nil",
    "sl2r",
)


def list_catalog(include_optional=True):
    names = [n for n, e in _registry().items() if include_optional or not e.optional]
    return names


def get_entry(name) -> CatalogEntry:
    try:
        return _registry()[name]
    except KeyError:
        raise UnknownEntry(
            f"unknown catalog entry {name!r}; available: {', '.join(list_catalog())}"
        ) from None


def expected_truth(name) -> dict:
    """Stored ground-truth record for an entry (UnknownEntry if absent)."""
    entry = get_entry(name)
    return dict(entry.expected)
