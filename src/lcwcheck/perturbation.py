"""Curvature and Cotton-York prescription by compactly supported bumps.

Both constructions work in a normal-coordinate chart at the chosen point
(g(0) = identity, vanishing Christoffel symbols) and modify the metric by a
polynomial bump times a C^3 radial cutoff:

* quadratic bump  g'_ij = g_ij - 1/3 sum_{h,k} R*_{ihjk} y^h y^k phi(y)
  shifts the curvature at the point by exactly R* while keeping the
  Christoffel symbols zero there;
* cubic bump      g'_ij = g_ij + sum A_ij^{klm} y^k y^l y^m phi(y)
  leaves g, dg, d^2g at the point unchanged and shifts the Cotton-York
  tensor by T for the closed form A = A(T) of ``prescribe_cotton_york``.

The chart is a ``PulledBackMetric``: the base metric, the chart map
x(y) = p + E y - 1/2 E Ghat(y, y) as the arrays (p, E, Ghat), and the bump
as its coefficient tensor and cutoff radius; ``normal_coordinates`` returns
it without a bump, E and Ghat read from the frame kernel.  One batched
composition gives its jets at points y0 (order 3, or 2 for a curvature
prescription): the base jets at x(y0) composed with the jets of x(y)
(truncated Taylor composition), then J^T g J plus the bump, all in jet
arithmetic; values at any points are its order-0 case.  A chart keeps its
own origin jets, composed once, and ``with_bump`` adds the bump's.  It
also keeps its order-3 pipeline at the origin, built on first use
(``origin_pipeline``): the Cotton-York prescription measures the bumped
chart with it, and ``compute_snapshot`` (so ``auto_test``) of the result at
its origin reads the same one, so each chart is analysed once.  No
expression is built on this path: the expression form (``components``) is
made on first use, for printing the metric.  Both prescriptions run the
same steps (measure at the origin, bump, check positivity, measure again);
they differ only in the tensor they measure (R by the frame kernel, CY by
the chart's origin pipeline) and the closed-form bump of its shift, for
CY one cached linear map of the shift (``_cy_bump_map``).  Positivity is
decided by one batched Cholesky on a fixed grid of 640 points (10 radii
times 64 directions): x(y) and J(y) in closed form, the base metric at
x(y), and the bump.  The bump times its cutoff is linear in its sorted
coefficients, so its jets at the grid points are one cached map per dim,
bump degree, jet order, radius and stride (``_bump_map``): the grid reads
its values at every point, the C^k norm its jets at every 12th point, and
each bump is one product with them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bivectors import CurvatureOperator, _lex_pair_matrix, bianchi_project, operator_to_0_4
from .dsl import (
    COORDS,
    Add,
    Call,
    MetricDef,
    Mul,
    Num,
    Pow,
    _pair_index,
    _smoothbump_jet,
    _upper,
    substitute,
)
from .errors import (
    ConstraintViolation,
    DimensionError,
    DomainError,
    NotPositiveDefinite,
)
from .jets import jet_space
from .obstructions import _frame_curvature
from .pipeline import EPS3, INPUT_TOL, JetPipeline, _check_curvature_symmetries, _frozen, _require_small

GRID_RADIAL = 10
GRID_ANGULAR = 64
CK_STRIDE = 12  # the C^k norm samples every CK_STRIDE-th positivity grid point
_GRID_SEED = 20240311  # fixed: positivity grids must be reproducible


# -- polynomials as coefficient tensors ------------------------------------------------


@lru_cache(maxsize=None)
def _monomials(n):
    """Per degree j = 0..3: the jet slots of degree j, the variables of
    each slot's monomial (j index arrays, sorted) and its multinomial
    factor j!/alpha!."""
    sp = jet_space(n)
    out = []
    for j in range(4):
        slots = [s for s, alpha in enumerate(sp.indices) if sum(alpha) == j]
        variables = [[k for k in range(n) for _ in range(sp.indices[s][k])] for s in slots]
        idx = tuple(np.array(col) for col in zip(*variables))
        mult = np.array([math.factorial(j) / sp.factorials[s] for s in slots])
        out.append((np.array(slots), idx, mult))
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or nan; callers check finiteness
def _poly_taylor(coeffs, points, order=3):
    """Jets (N, *lead, size) of ``order`` at the (N, n) ``points`` of the
    polynomials sum_d c_d(y, ..., y), where ``coeffs[d]`` is None or an
    array (*lead, n, ..., n) symmetric in its d trailing axes.

    The coefficient of t^alpha (|alpha| = j) in c_d(y + t, ...) is
    C(d, j) j!/alpha! c_d(alpha, y, ..., y).  Each contraction sums one
    axis of length n in a fixed order, so a point's bits do not depend on
    its batch.  At the one point y = 0 only j = d is not zero: each c_d is
    gathered into its slots, and no zero is summed (same bits if finite)."""
    points = np.asarray(points, dtype=float)
    npts, n = points.shape
    table = _monomials(n)
    origin = npts == 1 and not points.any()
    out = None
    for d, c in enumerate(coeffs):
        if c is None:
            continue
        t = np.asarray(c, dtype=float)[None]
        if out is None:
            lead = t.shape[1 : t.ndim - d]
            out = np.zeros((npts, *lead, jet_space(n, order).size))
        for j in range(d, -1, -1):
            if j == 0:
                out[..., 0] += t
            elif j <= order:
                slots, idx, mult = table[j]
                out[..., slots] += math.comb(d, j) * mult * t[(..., *idx)]
            if origin or j == 0:
                break
            y = points.reshape(npts, *[1] * (t.ndim - 2), n)
            acc = t[..., 0] * y[..., 0]
            for k in range(1, n):
                acc += t[..., k] * y[..., k]
            t = acc
    return out


def _poly_expr(coeffs, lead=()):
    """Expression of the polynomial sum_d c_d[lead](y, ..., y) (see
    ``_poly_taylor``): one term per monomial, its coefficient times the
    number of orderings of the monomial's variables, zero terms dropped;
    None if every term is zero."""
    out = None
    for d, c in enumerate(coeffs):
        if c is None:
            continue
        c = np.asarray(c)[lead]
        for mono in itertools.combinations_with_replacement(range(c.shape[-1] if d else 1), d):
            counts = {k: mono.count(k) for k in sorted(set(mono))}
            coeff = float(c[mono]) * math.factorial(d) / math.prod(map(math.factorial, counts.values()))
            if coeff == 0.0:
                continue
            term = None if coeff == 1.0 else Num(coeff)
            for k, p in counts.items():
                f = COORDS[k] if p == 1 else Pow(COORDS[k], p)
                term = f if term is None else Mul(term, f)
            term = Num(coeff) if term is None else term
            out = term if out is None else Add(out, term)
    return out


def _cutoff_bounds(radius):
    """(u0, u1) = ((r/2)^2, r^2) of the cutoff radius r, refused unless
    0 < u0 < u1 < inf: a square that underflows to 0 leaves no bump."""
    u0, u1 = (0.5 * radius) * (0.5 * radius), radius * radius
    if not 0.0 < u0 < u1 < math.inf:
        raise DomainError(f"bump radius {radius:g} out of range: (r/2)^2 and r^2 must be positive and finite")
    return u0, u1


def _bump_jets(coeffs, radius, points, order=3):
    """Jets (N, *lead, size) of ``order`` at the (N, n) points of the
    polynomials ``coeffs`` times the cutoff phi(|y|^2) of ``radius``: phi
    is 1 or 0 off the ramp u0 < |y|^2 < u1, where only a product is made."""
    n = points.shape[1]
    sp = jet_space(n, order)
    u0, u1 = _cutoff_bounds(radius)
    r2 = _poly_taylor([None, None, np.eye(n)], points, order=order)  # |y|^2
    out = _poly_taylor(coeffs, points, order=order)
    out[r2[:, 0] >= u1] = 0.0
    ramp = (r2[:, 0] > u0) & (r2[:, 0] < u1)
    out[ramp] = sp.mul(out[ramp], _smoothbump_jet(sp, r2[ramp], u0, u1)[:, None])
    return out


# -- the metric in a chart ---------------------------------------------------------------


@dataclass(eq=False)
class PulledBackMetric:
    """(x^* g)(y) + bump(y) phi(|y|^2) for the base metric g and the chart
    x(y) = p + E y - 1/2 E Ghat(y, y).

    ``bump`` is None or a coefficient tensor (n, n, n, ..., n) symmetric in
    its first two axes and in its d >= 1 trailing ones: bump_ij(y) =
    sum bump[i, j, k_1, ..., k_d] y^k_1 ... y^k_d.  The cutoff phi is 1 for
    |y| <= radius/2 and 0 for |y| >= radius.  The base is a ``MetricDef``
    or another ``PulledBackMetric``.  ``origin_jets`` are its own jets at
    y = 0, if known, of the order their size gives."""

    base: MetricDef
    center: np.ndarray  # p
    frame: np.ndarray  # E
    gamma_frame: np.ndarray  # Ghat
    bump: np.ndarray | None = None
    radius: float = 1.0
    name: str = ""
    chart: str = ""
    origin_jets: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.dim
        self._upper = _upper_pairs(n)
        self._pair = _pair_index(n)  # (i, j) -> index into the upper pairs
        quad = -0.5 * (self.frame @ self.gamma_frame.reshape(n, n * n)).reshape(n, n, n)
        self._x = [self.center, self.frame, quad]  # x(y)
        self._jac = [self.frame, 2.0 * quad]  # J[i, a] = dx^i/dy^a
        self._bump = None
        if self.bump is not None:
            b = self.bump[tuple(self._upper)]
            self._bump = [None] * (b.ndim - 1) + [b]
            self._sorted_bump = b[(slice(None), *_sorted_indices(n, b.ndim - 1))]  # (pairs, M)

    @property
    def dim(self):
        return self.base.dim

    def with_bump(self, coeffs):
        """This bump in place of the metric's own, named ``<name>:bumped``:
        kept origin jets of an unbumped metric plus the bump's, as ``_jets``
        adds them."""
        out = dataclasses.replace(self, bump=np.asarray(coeffs, dtype=float), name=f"{self.name}:bumped", origin_jets=None)
        if self.bump is None and self.origin_jets is not None:
            _cutoff_bounds(out.radius)  # refuses a radius out of range; at y = 0 the cutoff is 1
            order = int(jet_space(self.dim).degrees[self.origin_jets.shape[-1] - 1])
            bump = _poly_taylor(out._bump, np.zeros((1, self.dim)), order)[0, self._pair]
            out.origin_jets = self.origin_jets + bump
        return out

    def _jets(self, points, order):
        """Jets (N, dim, dim, size) of ``order`` of the entries at the (N,
        dim) ``points``; at order 0 they are the values.  At the origin
        alone, the prefix of kept origin jets that reach ``order``."""
        kept, size = self.origin_jets, jet_space(self.dim, order).size
        if len(points) == 1 and kept is not None and kept.shape[-1] >= size and not points.any():
            return kept[None, ..., :size].copy()
        return self._compose(points, order)

    @np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or nan; callers check finiteness
    def _compose(self, points, order, base=None):
        """``_jets`` composed from the base's jets at x(points), ``base``."""
        npts, n = points.shape
        sp = jet_space(n, order)
        x = _poly_taylor(self._x, points, order=order)
        c = (self.base._jets(x[..., 0], order) if base is None else base)[..., : sp.size]
        # g(x(y)) = sum_alpha c_alpha h^alpha with h = x(y) - x(y0)
        h = x.copy()
        h[..., 0] = 0.0
        powers = np.zeros((npts, sp.size, sp.size))
        powers[:, 0, 0] = 1.0
        for slots, idx, _ in _monomials(n)[1 : order + 1]:
            m = h[:, idx[0]]
            for k in idx[1:]:
                m = sp.mul(m, h[:, k])
            powers[:, slots] = m
        g = (c[..., None] * powers[:, None, None]).sum(axis=-2)
        # (J^T g J)_ab on the upper pairs
        jac = _poly_taylor(self._jac, points, order=order)
        a, b = self._upper
        t = sp.mul(g[..., None, :], jac[:, None]).sum(axis=-3)  # t_ib = g_ij J_jb
        out = sp.mul(jac[:, :, a], t[:, :, b]).sum(axis=-3)
        if self._bump is not None:
            out = out + _bump_jets(self._bump, self.radius, points, order)
        return out[:, self._pair]

    eval_jets = MetricDef.eval_jets  # both read ``_jets``
    eval_matrix_many = MetricDef.eval_matrix_many

    @cached_property
    def origin_pipeline(self):
        """The order-3 ``JetPipeline`` at y = 0, built on first use and kept
        (it holds no reference to the chart): ``chart_cotton_york`` and
        ``compute_snapshot`` at the origin read it."""
        return JetPipeline(self, np.zeros(self.dim))

    @np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or nan; callers check finiteness
    def grid_matrices(self) -> np.ndarray:
        """(P, dim, dim) matrices at the P points of ``_grid_points(dim,
        radius)``: x(y) and J(y) in closed form, the base metric's values at
        x(y), J^T g J as a BLAS matmul (no output is written from it), and
        the bump as one product with the cached ``_bump_map``."""
        n, y = self.dim, _grid_points(self.dim, self.radius)
        ky = (y @ self._jac[1].reshape(n * n, n).T).reshape(-1, n, n)  # 2 quad(., y)
        x = self.center + y @ self.frame.T + (0.5 * ky @ y[..., None])[..., 0]
        jac = self.frame + ky
        out = (jac.swapaxes(1, 2) @ self.base.eval_matrix_many(x) @ jac)[(slice(None), *self._upper)]
        if self._bump is not None:
            m = _bump_map(n, len(self._bump) - 1, 0, self.radius, 1)
            out += (self._sorted_bump @ m[..., 0]).T
        return out[:, self._pair]

    @cached_property
    def components(self):
        """The same metric as expressions, for printing: x(y) substituted
        once into each base entry, J^T g J, then the bump."""
        n = self.dim
        mapping = {i: _poly_expr(self._x, i) for i in range(n)}
        jac = [[_poly_expr(self._jac, (i, a)) for a in range(n)] for i in range(n)]
        zero = Num(0.0)
        g = {}
        for i, j in zip(*self._upper):
            gij = self.base.components[i][j]
            g[i, j] = g[j, i] = None if gij == zero else substitute(gij, mapping)

        def dot(pairs):
            acc = None
            for u, v in pairs:
                if u is not None and v is not None:
                    acc = Mul(u, v) if acc is None else Add(acc, Mul(u, v))
            return acc

        t = [[dot((g[i, j], jac[j][b]) for j in range(n)) for b in range(n)] for i in range(n)]
        cutoff = Call("smoothbump", (_poly_expr([None, None, np.eye(n)]), *map(Num, _cutoff_bounds(self.radius))))
        comp = [[None] * n for _ in range(n)]
        for p, (a, b) in enumerate(zip(*self._upper)):
            bump = None if self._bump is None else _poly_expr(self._bump, p)
            e = dot([(jac[i][a], t[i][b]) for i in range(n)] + [(bump, cutoff)])
            comp[a][b] = comp[b][a] = zero if e is None else e
        return tuple(tuple(row) for row in comp)


# -- normal coordinates --------------------------------------------------------


def normal_coordinates(metric: MetricDef, point, radius=1.0, order=3) -> PulledBackMetric:
    """The metric in the chart x = p + E y - 1/2 E Ghat(y, y): linear
    normalization of g(p) to the identity plus the quadratic correction
    cancelling the Christoffel symbols at p (dropped when below 1e-14, so a
    flat base gets an affine chart), hence g(0) = identity and Gamma(0) = 0.
    The chart keeps ``radius`` for the bump and its own jets at the origin
    of ``order``, the highest its users read there, composed once from the
    base jets at p that built the chart, whose 2-jet gives E and Ghat."""
    point = np.asarray(point, dtype=float)
    jets = metric.eval_jets(point, order)
    e, ghat, _, _ = _frame_curvature(jets, point)
    chart = PulledBackMetric(
        base=metric,
        center=point,
        frame=e,
        gamma_frame=np.zeros_like(ghat) if np.abs(ghat).max() < 1e-14 else ghat,
        radius=radius,
        name=f"{metric.name}:normal" if metric.name else "normal-chart",
        chart=f"normal coordinates centered at {point.tolist()}",
    )
    chart.origin_jets = chart._compose(np.zeros((1, metric.dim)), order, jets[None])[0]
    return chart


def chart_riemann(chart):
    """The Riemann tensor at the chart's origin: the frame kernel on its 2-jet."""
    return _frame_curvature(chart.eval_jets(np.zeros(chart.dim), 2), np.zeros(chart.dim))[2]


def chart_cotton_york(chart):
    """The Cotton-York tensor at the chart's origin, read-only: its kept order-3 pipeline's."""
    return chart.origin_pipeline.cotton_york()


# -- shared bump machinery -----------------------------------------------------


@lru_cache(maxsize=16)
def _grid_points(n, radius):
    """The positivity grid, read-only: GRID_RADIAL radii up to ``radius``
    times GRID_ANGULAR fixed unit directions, radius-major."""
    dirs = np.random.default_rng(_GRID_SEED).standard_normal((GRID_ANGULAR, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return _frozen((np.linspace(radius / GRID_RADIAL, radius, GRID_RADIAL)[:, None, None] * dirs).reshape(-1, n))


@lru_cache(maxsize=None)
def _upper_pairs(n):
    """(2, n(n + 1) / 2), read-only: the rows and the columns of the pairs i <= j."""
    return _frozen(np.array(_upper(n)).T)


@lru_cache(maxsize=None)
def _sorted_indices(n, degree):
    """The M multi-indices k_1 <= ... <= k_degree < n, as index arrays."""
    return tuple(np.array(k) for k in zip(*itertools.combinations_with_replacement(range(n), degree)))


def _monomial_basis(n, degree):
    """The M sorted monomials of ``degree`` times their numbers of
    orderings, as coefficients (1 at every ordering): a bump's
    ``_sorted_bump`` are its coordinates in this basis."""
    idx = _sorted_indices(n, degree)
    basis = np.zeros((len(idx[0]), *(n,) * degree))
    for m, variables in enumerate(zip(*idx)):
        for k in itertools.permutations(variables):
            basis[(m, *k)] = 1.0
    return [None] * degree + [basis]


@lru_cache(maxsize=16)
def _bump_map(n, degree, order, radius, stride):
    """(M, P, size), read-only: ``_bump_jets`` of ``order`` of the monomial basis times
    alpha! at every ``stride``-th grid point (the grid: order 0, stride 1; ``_ck_norm``: CK_STRIDE)."""
    jets = _bump_jets(_monomial_basis(n, degree), radius, _grid_points(n, radius)[::stride], order)
    return _frozen(np.moveaxis(jets * jet_space(n, order).factorials, 1, 0).copy())


def _check_positivity(metric):
    """On the positivity grid, one batched Cholesky decides: it completes
    on matrices within a backward error of order n eps ||g|| of positive
    definite ones (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 10), the level at which eigvalsh's smallest eigenvalue is
    accurate.  Only on a failure does eigvalsh run: its smallest eigenvalue
    decides and names the point."""
    g = metric.grid_matrices()
    if not np.isfinite(g).all():
        raise DomainError("perturbed metric is not finite on the positivity grid; shrink the radius")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(g)[:, 0]
        worst = int(np.argmin(w))
        if w[worst] <= 0.0:
            raise NotPositiveDefinite(
                f"perturbed metric loses positivity at {_grid_points(metric.dim, metric.radius)[worst].tolist()} "
                f"(min eigenvalue {w[worst]:g}); shrink the target or the radius"
            ) from None


@np.errstate(over="ignore", invalid="ignore")  # a tiny radius overflows the cutoff's jets; refused below
def _ck_norm(metric: PulledBackMetric, order):
    """sup over every CK_STRIDE-th point of the positivity grid of
    sum_{|alpha| <= order} |d^alpha(bump)|, exact jet derivatives from the
    cached ``_bump_map``; a DomainError if it is not finite."""
    m = _bump_map(metric.dim, len(metric._bump) - 1, order, metric.radius, CK_STRIDE)
    jets = metric._sorted_bump @ m.reshape(len(m), -1)  # (pairs, P * size)
    norm = float(np.abs(jets).reshape(len(jets), -1, m.shape[-1]).sum(axis=-1).max(initial=0.0))
    if not math.isfinite(norm):
        raise DomainError("the bump's C^k norm is not a finite number; enlarge the radius")
    return norm


def _finite_norms(target, shift):
    """||target|| and ||shift||, refusing overflow: an infinite norm would
    read as an unchanged metric (inf <= 1e-13 * inf)."""
    with np.errstate(over="ignore"):
        norms = float(np.linalg.norm(target)), float(np.linalg.norm(shift))
    if not np.isfinite(norms).all():
        raise DomainError("target tensor is too large: its norm is not a finite number")
    return norms


@dataclass
class PerturbResult:
    metric: PulledBackMetric
    target_error: float  # achieved-vs-target, relative
    norm_ratio: float  # ||g' - g||_{C^k} / ||shift||, measured on the grid
    shift_norm: float
    unchanged: bool
    evaluation_point: np.ndarray  # where to test the output metric (origin)


def _prescribe(chart, current, target, bump_of, measure, order) -> PerturbResult:
    """The steps both prescriptions share, on a normal chart whose tensor at
    the origin is ``current``: the chart itself if it has the target, else
    the chart plus the bump ``bump_of(target - current)``, refused unless
    positive on the grid, then ``measure``d again at the origin (``chart_riemann`` or
    ``chart_cotton_york``); the C^k norm is of jet ``order``."""
    origin = np.zeros(chart.dim)
    delta = target - current
    target_norm, shift = _finite_norms(target, delta)
    if shift <= 1e-13 * target_norm:
        return PerturbResult(chart, shift / max(target_norm, 1e-30), 0.0, shift, True, origin)
    bumped = chart.with_bump(bump_of(delta))
    _check_positivity(bumped)
    achieved = measure(bumped)
    target_error = float(np.linalg.norm(achieved - target) / max(target_norm, 1e-30))
    return PerturbResult(bumped, target_error, _ck_norm(bumped, order) / shift, shift, False, origin)


def algebraic_part(t):
    """Algebraic part of a measured R (n, n, n, n) or CY (3, 3) at a normal chart's origin (g = I): the measured
    tensor's rounding scales with the terms it sums, not with it (a flat chart's R is all rounding), so a target
    built on it, which is checked to INPUT_TOL of its own size, is built on this part."""
    if t.shape == (3, 3):
        return 0.5 * t + 0.5 * t.T - np.trace(t) / 3.0 * np.eye(3)
    m = _lex_pair_matrix(t)
    op = CurvatureOperator(len(t), 0.5 * m + 0.5 * m.T)
    return operator_to_0_4(CurvatureOperator(op.dim, op.mat - bianchi_project(op).mat))


# -- curvature prescription (dim >= 4 path, works in dim 3 too) ----------------


@dataclass
class CurvaturePrescription:
    base: MetricDef
    point: np.ndarray
    target_r4: np.ndarray  # algebraic curvature tensor in the chart frame
    radius: float = 1.0


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
    chart = normal_coordinates(cp.base, cp.point, cp.radius, order=2)
    return prescribe_curvature_in(chart, cp.target_r4, chart_riemann(chart))


def prescribe_curvature_in(chart, target_r4, r) -> PerturbResult:
    """``prescribe_curvature`` on the normal chart ``chart`` (of order 2 or 3), whose Riemann
    tensor at the origin is ``r``; a target built on ``r`` is built on ``algebraic_part(r)``."""
    n = chart.dim
    r0 = np.asarray(target_r4, dtype=float)
    if r0.shape != (n, n, n, n):
        raise DimensionError("target curvature has the wrong shape")
    _check_curvature_symmetries(r0, bianchi=True)

    def bump_of(shift):
        # bump_ij(y) = -1/3 sum_{h,k} R*_ihjk y^h y^k, symmetrized in (h, k)
        quad = -(1.0 / 3.0) * shift.transpose(0, 2, 1, 3)
        return 0.5 * (quad + quad.swapaxes(2, 3))

    return _prescribe(chart, r, r0, bump_of, chart_riemann, 2)


# -- Cotton-York prescription (dim 3) ------------------------------------------

@lru_cache(maxsize=None)
def _cy_bump_map():
    """(map, index), read-only: A(108 t) of ``prescribe_cotton_york`` is
    (map @ t.ravel())[index].  The (60, 9) map holds the entries (i <= j,
    k <= l <= m) of the sums for each unit t, integers whose absolute row
    sums are at most 12, so no partial sum of a finite T overflows; ``index``
    (3, 3, 3, 3, 3) reads every entry at its sorted indices, so the bump is
    exactly symmetric in (i, j) and in (k, l, m)."""
    t, eye = np.eye(9).reshape(9, 3, 3), np.eye(3)
    a = np.einsum("ika,qaj,lm->qijklm", EPS3, t, eye) - np.einsum("ik,jla,qam->qijklm", eye, EPS3, t)
    a = a + a.swapaxes(1, 2)
    a = sum(a.transpose(0, 1, 2, *p) for p in itertools.permutations((3, 4, 5)))
    ij, klm = np.sort(np.indices((3, 3)), axis=0), np.sort(np.indices((3, 3, 3)), axis=0)
    key = np.ravel_multi_index((*ij[:, :, :, None, None, None], *klm[:, None, None]), (3,) * 5)
    entries, index = np.unique(key, return_inverse=True)
    return _frozen(a.reshape(9, -1)[:, entries].T.copy()), _frozen(index.reshape((3,) * 5))


@dataclass
class CottonPrescription:
    base: MetricDef
    point: np.ndarray
    target_cy: np.ndarray  # symmetric traceless 3x3 in the chart frame
    radius: float = 1.0


def prescribe_cotton_york(cp: CottonPrescription) -> PerturbResult:
    """Metric equal to the base outside the bump whose Cotton-York tensor
    at the chart origin is the target (dim 3).

    The cubic bump for the shift T = target - CY (g = I at the origin) is

        A(T)_ijklm = Sym_(ij) Sym_(klm) [eps_ika T_aj delta_lm - delta_ik eps_jla T_am] / 9,

    times the C^3 cutoff.  It is the bump of least Frobenius norm with this
    shift.  The linear map from bumps to shifts commutes with rotations, so
    the least-norm bump, which lies in the image of the map's adjoint, is a
    rotation-equivariant linear function of T (Schur's lemma).  The two
    symmetrised terms span those functions; their difference is the one in
    that image, and 1/9 makes the shift exactly T.  The bits are symmetric
    in (i, j) and in (k, l, m), because positivity and jets contract the
    full tensor while the written metric reads only its sorted entries.
    """
    chart = normal_coordinates(cp.base, cp.point, cp.radius)
    return prescribe_cotton_york_in(chart, cp.target_cy, chart_cotton_york(chart))


def prescribe_cotton_york_in(chart, target_cy, cy) -> PerturbResult:
    """``prescribe_cotton_york`` on the order-3 normal chart ``chart``, whose Cotton-York tensor
    at the origin is ``cy``; a target built on ``cy`` is built on ``algebraic_part(cy)``."""
    if chart.dim != 3:
        raise DimensionError("Cotton-York prescription needs dim 3")
    cy0 = np.asarray(target_cy, dtype=float)
    if cy0.shape != (3, 3):
        raise DimensionError("target must be a 3x3 matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # a target past the float range gives inf or nan; the gates refuse it
        _require_small(cy0 - cy0.T, INPUT_TOL, cy0, "target Cotton-York tensor must be symmetric")
        _require_small(np.trace(cy0), INPUT_TOL, cy0, "target Cotton-York tensor must be traceless", ConstraintViolation)

    def bump_of(shift):
        bump_map, index = _cy_bump_map()
        return (bump_map @ (shift.ravel() / 108.0))[index]

    return _prescribe(chart, cy, cy0, bump_of, chart_cotton_york, 3)
