"""Built-in geometries with ground-truth expectations.

The eight three-dimensional model geometries, a product family R x Sigma
with a configurable conformal factor on the surface, the complex projective
plane in an affine chart, and dimension-4 products euclidean-line x (3d
entry).

Every entry is a coordinate metric, whose name and dim are the entry's.
Each carries a chart domain within which random evaluation points are
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
    Var,
    eval_expr,
    metric_from_components,
    parse_expr,
    parse_metric,
    substitute,
    used_vars,
)
from .errors import DimensionError, UnknownEntry
from .jets import jet_space


@dataclass
class CatalogEntry:
    metric: MetricDef
    sample_box: tuple  # per-coordinate (lo, hi) for random points
    expected: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.metric.name

    @property
    def dim(self) -> int:
        return self.metric.dim

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


# Fubini-Study metric (holomorphic sectional curvature 4) in an affine chart,
# realified with z1 = x1 + i x2, z2 = x3 + i x4.  At the origin the
# coordinate frame is orthonormal and adapted to the complex structure, so
# the Riemann tensor there is the ``cp2_curvature`` table.
_CP2_TEXT = """
dim = 4
name = "cp2_chart"
chart = "affine chart; real coordinates of (z1, z2)"
let z1 = x1^2 + x2^2
let z2 = x3^2 + x4^2
let rho = 1 + (z1 + z2)
let rho2 = rho^2
let r11 = (rho - z1)/rho2
let r22 = (rho - z2)/rho2
let r12 = -1*(x1*x3 + x2*x4)/rho2
let i12 = -1*(x1*x4 - x2*x3)/rho2
g11 = r11
g13 = r12
g14 = i12
g22 = r11
g23 = -1*i12
g24 = r12
g33 = r22
g44 = r22
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
    d = jet_space(3).derivative
    d2 = d(jet, (0, 1, 0))
    d3 = d(jet, (0, 0, 1))
    lap = d(jet, (0, 2, 0)) + d(jet, (0, 0, 2))
    d2lap = d(jet, (0, 3, 0)) + d(jet, (0, 1, 2))
    d3lap = d(jet, (0, 0, 3)) + d(jet, (0, 2, 1))
    emf = np.exp(-jet[0])
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


def cp2_curvature() -> np.ndarray:
    """Curvature (0,4) tensor of the Fubini-Study metric at a point, in an
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
    return r4


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
    box3 = ((-1.0, 1.0),) * 3
    flat = {"lcw": "exists", "conformally_flat": True, "det_cy": 0.0}
    surface = "constant surface curvature makes the Cotton-York tensor vanish"
    entries = [
        CatalogEntry(
            parse_metric(_EUCLIDEAN3_TEXT), box3,
            {**flat, "provenance": "flat metric; every curvature tensor vanishes"},
        ),
        CatalogEntry(
            parse_metric(_SPHERE3_TEXT), ((-0.4, 0.4),) * 3,
            {**flat, "sectional": 1.0, "provenance": "round sphere in a conformally flat chart"},
        ),
        CatalogEntry(
            parse_metric(_HYPERBOLIC3_TEXT), ((-0.35, 0.35),) * 3,
            {**flat, "sectional": -1.0, "provenance": "hyperbolic space in the ball model"},
        ),
        CatalogEntry(parse_metric(_S2XR_TEXT), ((-1.0, 1.0), (-0.5, 0.5), (-0.5, 0.5)), {**flat, "provenance": surface}),
        CatalogEntry(parse_metric(_H2XR_TEXT), ((-1.0, 1.0), (-0.35, 0.35), (-0.35, 0.35)), {**flat, "provenance": surface}),
        CatalogEntry(
            parse_metric(_SOL_TEXT), box3,
            {
                "lcw": "exists",
                "conformally_flat": False,
                "det_cy": 0.0,
                "provenance": (
                    "the rescaling by exp(-2 x3) splits off the first "
                    "coordinate, so a weight exists; the Cotton-York tensor "
                    "is nonzero with zero determinant"
                ),
            },
        ),
        CatalogEntry(
            parse_metric(_NIL_TEXT), box3,
            {
                "lcw": "none",
                "conformally_flat": False,
                "det_cy": -0.25,
                "tensors": nil_expected_tensors,
                "provenance": (
                    "closed-form tensors of the left-invariant metric; the "
                    "Cotton-York determinant is -1/4 identically (product of "
                    "eigenvalues of the displayed matrix)"
                ),
            },
        ),
        CatalogEntry(
            parse_metric(_SL2R_TEXT), ((-1.0, 1.0), (-1.5, 1.5), (-1.5, 1.5)),
            {
                "lcw": "none",
                "conformally_flat": False,
                "cy_at_origin": np.array([[0.0, 0.0, -2.0], [0.0, -4.0, 0.0], [-2.0, 0.0, 4.0]]),
                "det_cy_at_origin": 16.0,
                "tensors": sl2r_full_tensors,
                "provenance": "closed-form tensors of the left-invariant metric",
            },
        ),
        CatalogEntry(
            r_cross_surface(DEFAULT_SURFACE_FACTOR), ((-1.0, 1.0), (-0.8, 0.8), (-0.8, 0.8)),
            {
                "lcw": "exists",
                "surface_factor": DEFAULT_SURFACE_FACTOR,
                "cy_closed_form": True,
                "provenance": (
                    "product of a line with a surface; the Cotton-York tensor "
                    "has the two-component closed form"
                ),
            },
        ),
        CatalogEntry(
            parse_metric(_CP2_TEXT), ((-0.3, 0.3),) * 4,
            {
                "lcw": "none",
                "operator_eigenvalues": [6.0, 0.0, 0.0, 2.0, 2.0, 2.0],
                "wplus_diag": [4.0, -2.0, -2.0],
                "wminus_zero": True,
                "einstein": True,
                "scalar": 24.0,
                "eigenflag": False,
                "provenance": (
                    "affine-chart realification of the Fubini-Study metric; "
                    "at the origin its curvature is the component table "
                    "cp2_curvature()"
                ),
            },
        ),
    ]
    entries = {e.name: e for e in entries}
    for base in ("sol", "nil", "sphere3"):
        entry = entries[base]
        entries["product4_" + base] = CatalogEntry(
            product_with_line(entry.metric, "product4_" + base),
            ((-1.0, 1.0),) + entry.sample_box,
            {
                "lcw": "exists",
                "eigenflag": True,
                "witness": [1.0, 0.0, 0.0, 0.0],
                "provenance": "product metric; the line direction is parallel",
            },
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


def list_catalog():
    return list(_registry())


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
