"""Curvature and Cotton-York prescription by compactly supported bumps.

Both constructions work in a normal-coordinate chart at the chosen point
(g(0) = identity, vanishing Christoffel symbols) and modify the metric by a
polynomial bump times a C^3 radial cutoff:

* quadratic bump  g'_ij = g_ij - 1/3 sum_{h,k} R*_{ihjk} y^h y^k phi(y)
  shifts the curvature at the point by exactly R* while keeping the
  Christoffel symbols zero there;
* cubic bump      g'_ij = g_ij + sum A_ij^{klm} y^k y^l y^m phi(y)
  leaves g, dg, d^2g at the point unchanged and shifts the Cotton tensor
  by the linear image 6 L(A) (the 6 = 3! from differentiating the cubic
  three times), which is what the solver inverts.

The bump coefficients live in the 60-dimensional space A indexed by
(unordered pair {i,j}, unordered triple {k,l,m}); the linear map L onto
algebraic Cotton tensors has rank 5, so any symmetric traceless
Cotton-York target is reachable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bivectors import _check_curvature_symmetries
from .dsl import (
    Add,
    Call,
    MetricDef,
    Mul,
    Num,
    Pow,
    Var,
    eval_expr,
    substitute,
)
from .errors import (
    ConstraintViolation,
    DimensionError,
    LinearSolveFailure,
    NotPositiveDefinite,
    SymmetryViolation,
)
from .jets import jet_space
from .pipeline import EPS3, JetPipeline

GRID_RADIAL = 10
GRID_ANGULAR = 64
_GRID_SEED = 20240311  # fixed: positivity grids must be reproducible


# -- expression helpers --------------------------------------------------------


def _poly_expr(terms):
    """Sum of coefficient * monomial terms; terms = [(coeff, (i, j, ...))].
    Zero coefficients are dropped; returns None if everything vanishes."""
    out = None
    for coeff, vars_ in terms:
        coeff = float(coeff)
        if coeff == 0.0:
            continue
        mono = None
        counts = {}
        for v in vars_:
            counts[v] = counts.get(v, 0) + 1
        for v, p in sorted(counts.items()):
            f = Var(v) if p == 1 else Pow(Var(v), p)
            mono = f if mono is None else Mul(mono, f)
        term = Num(coeff) if mono is None else Mul(Num(coeff), mono)
        out = term if out is None else Add(out, term)
    return out


def _radius_sq_expr(n):
    out = Pow(Var(0), 2)
    for k in range(1, n):
        out = Add(out, Pow(Var(k), 2))
    return out


def _cutoff_expr(n, radius):
    """phi = 1 for |y| <= radius/2, 0 for |y| >= radius, C^3 junction."""
    return Call(
        "smoothbump",
        (_radius_sq_expr(n), Num((radius / 2.0) ** 2), Num(radius**2)),
    )


# -- normal coordinates --------------------------------------------------------


@dataclass
class NormalChart:
    """Coordinate change y -> x centered at ``center`` with g(0) = identity
    and Gamma(0) = 0 in the new coordinates."""

    metric: MetricDef
    center: np.ndarray
    frame: np.ndarray  # columns: g-orthonormal frame at the center
    gamma_frame: np.ndarray  # frame-transformed Christoffel symbols at center
    radius: float


def normal_coordinates(metric: MetricDef, point, radius=1.0) -> NormalChart:
    """Build the chart x = p + E y - 1/2 E Ghat(y, y): linear normalization
    of g(p) to the identity plus the quadratic correction cancelling the
    Christoffel symbols at p."""
    point = np.asarray(point, dtype=float)
    n = metric.dim
    pl = JetPipeline(metric, point)
    g = pl.g
    L = np.linalg.cholesky(g)
    e = np.linalg.inv(L).T  # E^T g E = I
    einv = L.T
    gamma = pl.gamma()
    ghat = np.einsum("ai,ijk,jb,kc->abc", einv, gamma, e, e)
    flat = bool(np.abs(ghat).max() < 1e-14)

    x_exprs = []
    for i in range(n):
        terms = [(point[i], ())]
        for a in range(n):
            terms.append((e[i, a], (a,)))
        if not flat:
            for b in range(n):
                for c in range(b, n):
                    coeff = -sum(e[i, a] * ghat[a, b, c] for a in range(n))
                    if b != c:
                        coeff *= 2.0  # both orders of the symmetric sum
                    terms.append((0.5 * coeff, (b, c)))
        x_exprs.append(_poly_expr(terms))
    mapping = dict(enumerate(x_exprs))

    jac = [[None] * n for _ in range(n)]  # J[i][a] = dx^i/dy^a
    for i in range(n):
        for a in range(n):
            terms = [(e[i, a], ())]
            if not flat:
                for b in range(n):
                    coeff = -sum(e[i, c] * ghat[c, a, b] for c in range(n))
                    terms.append((coeff, (b,)))
            jac[i][a] = _poly_expr(terms)

    comp = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            acc = None
            for i in range(n):
                for j in range(n):
                    gij = metric.components[i][j]
                    if gij == Num(0.0) or jac[i][a] is None or jac[j][b] is None:
                        continue
                    term = Mul(Mul(jac[i][a], jac[j][b]), substitute(gij, mapping))
                    acc = term if acc is None else Add(acc, term)
            comp[a][b] = acc if acc is not None else Num(0.0)
            comp[b][a] = comp[a][b]
    name = f"{metric.name}:normal" if metric.name else "normal-chart"
    chart_note = f"normal coordinates centered at {point.tolist()}"
    new_metric = MetricDef(
        dim=n,
        components=tuple(tuple(row) for row in comp),
        name=name,
        chart=chart_note,
    )
    return NormalChart(
        metric=new_metric, center=point, frame=e, gamma_frame=ghat, radius=radius
    )


# -- shared bump machinery -----------------------------------------------------


def _grid_points(n, radius):
    rng = np.random.default_rng(_GRID_SEED)
    dirs = rng.standard_normal((GRID_ANGULAR, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.linspace(radius / GRID_RADIAL, radius, GRID_RADIAL)
    return np.concatenate([r * dirs for r in radii])


def _check_positivity(metric: MetricDef, points):
    g = metric.eval_matrix_many(points)
    w = np.linalg.eigvalsh(g)
    worst = int(np.argmin(w[:, 0]))
    if w[worst, 0] <= 0.0:
        raise NotPositiveDefinite(
            f"perturbed metric loses positivity at {points[worst].tolist()} "
            f"(min eigenvalue {w[worst, 0]:g}); shrink the target or the radius"
        )


def _ck_norm(bump_exprs, points, n, order, stride=12):
    """sup over a grid subsample of sum_{|alpha| <= order} |d^alpha(bump)|
    using exact jet derivatives."""
    sp = jet_space(n)
    weights = np.where(sp.degrees <= order, sp.factorials, 0.0)
    sup = 0.0
    for p in points[::stride]:
        for e in bump_exprs:
            if e is None:
                continue
            jet = eval_expr(e, p)
            sup = max(sup, float(np.abs(jet.c * weights).sum()))
    return sup


def _add_bump(chart_metric: MetricDef, bump_polys, cutoff):
    n = chart_metric.dim
    comp = [list(row) for row in chart_metric.components]
    for i in range(n):
        for j in range(i, n):
            poly = bump_polys[i][j]
            if poly is None:
                continue
            comp[i][j] = Add(comp[i][j], Mul(poly, cutoff))
            comp[j][i] = comp[i][j]
    return MetricDef(
        dim=n,
        components=tuple(tuple(row) for row in comp),
        name=f"{chart_metric.name}:bumped",
        chart=chart_metric.chart,
    )


@dataclass
class PerturbResult:
    metric: MetricDef
    chart: NormalChart
    target_error: float  # achieved-vs-target, relative
    norm_ratio: float  # ||g' - g||_{C^k} / ||shift||, measured on the grid
    shift_norm: float
    unchanged: bool
    evaluation_point: np.ndarray  # where to test the output metric (origin)


# -- curvature prescription (dim >= 4 path, works in dim 3 too) ----------------


@dataclass
class CurvaturePrescription:
    base: MetricDef
    point: np.ndarray
    target_r4: np.ndarray  # algebraic curvature tensor in the chart frame
    radius: float = 1.0


def _check_r4_symmetries(r4, tol=1e-9):
    _check_curvature_symmetries(r4, tol)
    scale = max(np.abs(r4).max(), 1.0)
    bianchi = r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)
    if np.abs(bianchi).max() > tol * scale:
        raise SymmetryViolation("target tensor violates the first Bianchi identity")


def prescribe_curvature(cp: CurvaturePrescription) -> PerturbResult:
    """Metric equal to the base outside the bump whose curvature at the
    chart origin is exactly the target.

    The quadratic coefficient is -1/3 (not -1/4): differentiating the bump
    twice produces both index orders of each x-pair, and with the full
    curvature symmetries the resulting shift is 3/4 of the naive
    single-order count.  The -1/3 normalization makes the shift equal to
    R* exactly, matching the classical normal-coordinate expansion
    g_ij = delta_ij - 1/3 R_ihjk x^h x^k + O(|x|^3).
    """
    n = cp.base.dim
    r0 = np.asarray(cp.target_r4, dtype=float)
    if r0.shape != (n, n, n, n):
        raise DimensionError("target curvature has the wrong shape")
    _check_r4_symmetries(r0)
    chart = normal_coordinates(cp.base, cp.point, cp.radius)
    base_snapshot = JetPipeline(chart.metric, np.zeros(n))
    r_here = base_snapshot.riemann()
    rstar = r0 - r_here
    shift = float(np.linalg.norm(rstar))
    origin = np.zeros(n)
    if shift <= 1e-13 * max(np.linalg.norm(r0), 1.0):
        return PerturbResult(
            metric=chart.metric,
            chart=chart,
            target_error=float(np.linalg.norm(r_here - r0) / max(np.linalg.norm(r0), 1.0)),
            norm_ratio=0.0,
            shift_norm=shift,
            unchanged=True,
            evaluation_point=origin,
        )

    bump_polys = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            terms = []
            for h in range(n):
                for k in range(h, n):
                    if h == k:
                        c = -(1.0 / 3.0) * rstar[i, h, j, k]
                    else:
                        c = -(1.0 / 3.0) * (rstar[i, h, j, k] + rstar[i, k, j, h])
                    terms.append((c, (h, k)))
            bump_polys[i][j] = _poly_expr(terms)
    cutoff = _cutoff_expr(n, cp.radius)
    bumped = _add_bump(chart.metric, bump_polys, cutoff)

    grid = _grid_points(n, cp.radius)
    _check_positivity(bumped, grid)
    achieved = JetPipeline(bumped, origin).riemann()
    target_error = float(
        np.linalg.norm(achieved - r0) / max(np.linalg.norm(r0), 1e-30)
    )
    bump_exprs = [
        Mul(bump_polys[i][j], cutoff)
        for i in range(n)
        for j in range(i, n)
        if bump_polys[i][j] is not None
    ]
    c2 = _ck_norm(bump_exprs, grid, n, order=2)
    return PerturbResult(
        metric=bumped,
        chart=chart,
        target_error=target_error,
        norm_ratio=c2 / shift,
        shift_norm=shift,
        unchanged=False,
        evaluation_point=origin,
    )


# -- Cotton-York prescription (dim 3) ------------------------------------------

_PAIRS_IJ = tuple((i, j) for i in range(3) for j in range(i, 3))
_TRIPLES = tuple(
    (k, l, m)
    for k in range(3)
    for l in range(k, 3)
    for m in range(l, 3)
)
A_SPACE_DIM = len(_PAIRS_IJ) * len(_TRIPLES)  # 60


def a_index(i, j, k, l, m):
    """Index into the 60-dim coefficient space (0-based tensor indices)."""
    pij = tuple(sorted((i, j)))
    tkl = tuple(sorted((k, l, m)))
    return _PAIRS_IJ.index(pij) * len(_TRIPLES) + _TRIPLES.index(tkl)


def a_full(avec):
    """Expand the 60-vector into the fully symmetric A[i,j,k,l,m] lookup."""
    af = np.empty((3, 3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    for m in range(3):
                        af[i, j, k, l, m] = avec[a_index(i, j, k, l, m)]
    return af


def _coerce_a(a):
    a = np.asarray(a, dtype=float)
    if a.shape == (A_SPACE_DIM,):
        return a
    if a.shape == (3, 3, 3, 3, 3):
        avec = np.empty(A_SPACE_DIM)
        seen = np.zeros(A_SPACE_DIM, dtype=bool)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        for m in range(3):
                            q = a_index(i, j, k, l, m)
                            if seen[q]:
                                if abs(avec[q] - a[i, j, k, l, m]) > 1e-12 * max(
                                    1.0, np.abs(a).max()
                                ):
                                    raise SymmetryViolation(
                                        "coefficient tensor is not symmetric under "
                                        "i<->j and permutations of (k,l,m)"
                                    )
                            else:
                                avec[q] = a[i, j, k, l, m]
                                seen[q] = True
        return avec
    raise DimensionError("coefficients must be a 60-vector or a (3,3,3,3,3) array")


def cotton_L_map(a) -> np.ndarray:
    """Linear map from bump coefficients to algebraic Cotton tensors:

    L(A)[n,a,b] = 1/2 (A_ka^{knb} - A_kn^{kab} - A_ab^{kkn} + A_nb^{kka})
                - 1/4 (A_ki^{kin} - A_kk^{iin}) delta_ab
                + 1/4 (A_ki^{kia} - A_kk^{iia}) delta_nb.

    The output always satisfies the four Cotton identities with the
    identity metric.
    """
    avec = _coerce_a(a)
    af = a_full(avec)
    out = np.zeros((3, 3, 3))
    tr1 = np.zeros(3)  # sum_{k,i} (A_ki^{kin} - A_kk^{iin})
    for nn in range(3):
        tr1[nn] = sum(
            af[k, i, k, i, nn] - af[k, k, i, i, nn]
            for k in range(3)
            for i in range(3)
        )
    for nn in range(3):
        for aa in range(3):
            for bb in range(3):
                s = sum(
                    af[k, aa, k, nn, bb]
                    - af[k, nn, k, aa, bb]
                    - af[aa, bb, k, k, nn]
                    + af[nn, bb, k, k, aa]
                    for k in range(3)
                )
                v = 0.5 * s
                if aa == bb:
                    v -= 0.25 * tr1[nn]
                if nn == bb:
                    v += 0.25 * tr1[aa]
                out[nn, aa, bb] = v
    return out


def _l_matrix():
    cols = []
    for q in range(A_SPACE_DIM):
        e = np.zeros(A_SPACE_DIM)
        e[q] = 1.0
        cols.append(cotton_L_map(e).reshape(-1))
    return np.array(cols).T  # 27 x 60


_L_MATRIX_CACHE = None


def l_matrix():
    global _L_MATRIX_CACHE
    if _L_MATRIX_CACHE is None:
        _L_MATRIX_CACHE = _l_matrix()
    return _L_MATRIX_CACHE


def cy_to_cotton(cy) -> np.ndarray:
    """Invert the Cotton -> Cotton-York conversion at the identity metric:
    C[a, b, i] = sum_j eps(a, b, j) CY[j, i]."""
    cy = np.asarray(cy, dtype=float)
    return np.einsum("abj,ji->abi", EPS3, cy)


@dataclass
class CottonPrescription:
    base: MetricDef
    point: np.ndarray
    target_cy: np.ndarray  # symmetric traceless 3x3 in the chart frame
    radius: float = 1.0
    coefficients: np.ndarray | None = None  # filled by the solver


def prescribe_cotton_york(cp: CottonPrescription) -> PerturbResult:
    """Metric equal to the base outside the bump whose Cotton-York tensor
    at the chart origin is the target (dim 3).

    Solves 6 L(A) = Cotton shift by minimum-norm least squares (the actual
    third derivatives of the cubic bump carry the 3! factor), then applies
    the cubic bump with the C^3 cutoff.
    """
    if cp.base.dim != 3:
        raise DimensionError("Cotton-York prescription needs dim 3")
    cy0 = np.asarray(cp.target_cy, dtype=float)
    if cy0.shape != (3, 3):
        raise DimensionError("target must be a 3x3 matrix")
    scale = max(np.abs(cy0).max(), 1.0)
    if np.abs(cy0 - cy0.T).max() > 1e-10 * scale:
        raise SymmetryViolation("target Cotton-York tensor must be symmetric")
    if abs(np.trace(cy0)) > 1e-10 * scale:
        raise ConstraintViolation("target Cotton-York tensor must be traceless")

    chart = normal_coordinates(cp.base, cp.point, cp.radius)
    origin = np.zeros(3)
    pl = JetPipeline(chart.metric, origin)
    c_target = cy_to_cotton(cy0)
    dc = c_target - pl.cotton()
    shift = float(np.linalg.norm(cy0 - pl.cotton_york()))
    if shift <= 1e-13 * max(np.linalg.norm(cy0), 1.0):
        return PerturbResult(
            metric=chart.metric,
            chart=chart,
            target_error=shift,
            norm_ratio=0.0,
            shift_norm=shift,
            unchanged=True,
            evaluation_point=origin,
        )

    lmat = l_matrix()
    avec, residuals, rank, _ = np.linalg.lstsq(6.0 * lmat, dc.reshape(-1), rcond=None)
    if rank < 5:
        raise LinearSolveFailure(f"Cotton prescription matrix has rank {rank} < 5")
    err = np.linalg.norm(6.0 * lmat @ avec - dc.reshape(-1))
    if err > 1e-9 * max(1.0, np.linalg.norm(dc)):
        raise LinearSolveFailure(
            f"Cotton shift not reachable (residual {err:g}); "
            "the target is not an algebraic Cotton tensor"
        )
    cp.coefficients = avec

    af = a_full(avec)
    bump_polys = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            terms = []
            for k, l, m in _TRIPLES:
                count = len(set(itertools.permutations((k, l, m))))
                terms.append((af[i, j, k, l, m] * count, (k, l, m)))
            bump_polys[i][j] = _poly_expr(terms)
    cutoff = _cutoff_expr(3, cp.radius)
    bumped = _add_bump(chart.metric, bump_polys, cutoff)

    grid = _grid_points(3, cp.radius)
    _check_positivity(bumped, grid)
    achieved = JetPipeline(bumped, origin).cotton_york()
    target_error = float(
        np.linalg.norm(achieved - cy0) / max(np.linalg.norm(cy0), 1e-30)
    )
    bump_exprs = [
        Mul(bump_polys[i][j], cutoff)
        for i in range(3)
        for j in range(i, 3)
        if bump_polys[i][j] is not None
    ]
    c3 = _ck_norm(bump_exprs, grid, 3, order=3)
    return PerturbResult(
        metric=bumped,
        chart=chart,
        target_error=target_error,
        norm_ratio=c3 / shift,
        shift_norm=shift,
        unchanged=False,
        evaluation_point=origin,
    )
