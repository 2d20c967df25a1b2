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

The chart is a ``PulledBackMetric``: the base metric, the chart map
x(y) = p + E y - 1/2 E Ghat(y, y) as the arrays (p, E, Ghat), and the bump
as its coefficient tensor and cutoff radius; ``normal_coordinates`` returns
it without a bump.  One batched composition gives its jets at points y0
(order 3, or 2 for a curvature prescription): the base jets at x(y0)
composed with the jets of x(y) (truncated Taylor composition), then J^T g J
plus the bump, all in jet arithmetic; values at any points are its order-0
case.  A chart keeps its own origin jets, composed once, and ``with_bump``
adds the bump's.  No expression is built on this path: the expression form
(``components``) is made on first use, for printing the metric.  Both
prescriptions run the same steps (measure at the origin, bump, check
positivity, measure again); they differ only in the tensor they measure and
the bump coefficients.  Positivity is decided by one batched Cholesky on 10
radii times 64 fixed directions: x(y), J(y) and the bump are homogeneous by
parts, so they are evaluated at the 64 directions and scaled by powers of
the radius, and only the base metric runs at all 640 points.

The bump coefficients live in the 60-dimensional space A indexed by
(unordered pair {i,j}, unordered triple {k,l,m}); the linear map L onto
algebraic Cotton tensors has rank 5, so any symmetric traceless
Cotton-York target is reachable.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dsl import (
    Add,
    Call,
    MetricDef,
    Mul,
    Num,
    Pow,
    Var,
    _pair_index,
    _smoothbump_jet,
    substitute,
)
from .errors import (
    ConstraintViolation,
    DimensionError,
    DomainError,
    LinearSolveFailure,
    NotPositiveDefinite,
    SymmetryViolation,
)
from .jets import jet_space
from .pipeline import EPS3, JetPipeline, _check_bianchi, _check_curvature_symmetries

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
                f = Var(k) if p == 1 else Pow(Var(k), p)
                term = f if term is None else Mul(term, f)
            term = Num(coeff) if term is None else term
            out = term if out is None else Add(out, term)
    return out


# -- the metric in a chart ---------------------------------------------------------------


@dataclass(eq=False)
class PulledBackMetric:
    """(x^* g)(y) + bump(y) phi(|y|^2) for the base metric g and the chart
    x(y) = p + E y - 1/2 E Ghat(y, y).

    ``bump`` is None or a coefficient tensor (n, n, n, ..., n) symmetric in
    its first two axes and in its trailing ones: bump_ij(y) =
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
        self._upper = np.array([(i, j) for i in range(n) for j in range(i, n)]).T
        self._pair = _pair_index(n)  # (i, j) -> index into the upper pairs
        quad = -0.5 * np.einsum("ia,abc->ibc", self.frame, self.gamma_frame)
        self._x = [self.center, self.frame, quad]  # x(y)
        self._jac = [self.frame, 2.0 * quad]  # J[i, a] = dx^i/dy^a
        self._r2 = [None, None, np.eye(n)]  # |y|^2
        self._bump = None
        if self.bump is not None:
            b = self.bump[tuple(self._upper)]
            self._bump = [None] * (b.ndim - 1) + [b]

    @property
    def dim(self):
        return self.base.dim

    def with_bump(self, coeffs, radius, name):
        """This bump in place of the metric's own: kept origin jets of an
        unbumped metric plus the bump's, as ``_jets`` adds them."""
        out = dataclasses.replace(self, bump=np.asarray(coeffs, dtype=float), radius=radius, name=name, origin_jets=None)
        if self.bump is None and self.origin_jets is not None:
            out._cutoff_bounds()  # refuses a radius out of range; at y = 0 the cutoff is 1
            order = int(jet_space(self.dim).degrees[self.origin_jets.shape[-1] - 1])
            bump = _poly_taylor(out._bump, np.zeros((1, self.dim)), order)[0, self._pair]
            out.origin_jets = self.origin_jets + bump
        return out

    def _cutoff_bounds(self):
        """(u0, u1) = ((r/2)^2, r^2) of the cutoff radius r, refused unless
        0 < u0 < u1 < inf: a square that underflows to 0 leaves no bump."""
        u0, u1 = (0.5 * self.radius) * (0.5 * self.radius), self.radius * self.radius
        if not 0.0 < u0 < u1 < math.inf:
            raise DomainError(f"bump radius {self.radius:g} out of range: (r/2)^2 and r^2 must be positive and finite")
        return u0, u1

    def _bump_jets(self, points, order=3):
        """Jets (N, pairs, size) of ``order`` of bump_ij * phi at the points.
        phi is the constant 1 or 0 off the ramp u0 < |y|^2 < u1, so only
        ramp points need a product."""
        sp = jet_space(self.dim, order)
        u0, u1 = self._cutoff_bounds()
        r2 = _poly_taylor(self._r2, points, order=order)
        out = _poly_taylor(self._bump, points, order=order)
        out[r2[:, 0] >= u1] = 0.0
        ramp = (r2[:, 0] > u0) & (r2[:, 0] < u1)
        out[ramp] = sp.mul(out[ramp], _smoothbump_jet(sp, r2[ramp], u0, u1)[:, None])
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
            out = out + self._bump_jets(points, order)
        return out[:, self._pair]

    def eval_jets(self, point, order=3):
        """(dim, dim, size) Taylor coefficients of ``order`` of the entries
        at ``point``."""
        return self._jets(np.asarray(point, dtype=float)[None], order)[0]

    def eval_matrix(self, point) -> np.ndarray:
        """Metric matrix at ``point``."""
        return self.eval_matrix_many(np.asarray(point, dtype=float)[None, :])[0]

    def eval_matrix_many(self, points) -> np.ndarray:
        """(N, dim, dim) metric matrices at an (N, dim) batch of points,
        from order-0 jets."""
        return self._jets(np.asarray(points, dtype=float), 0)[..., 0]

    @np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or nan; callers check finiteness
    def grid_matrices(self, radii, directions) -> np.ndarray:
        """(R * A, dim, dim) matrices at each of the R ``radii`` times each of
        the A unit ``directions``, radius-major.  x(y), J(y) and the bump are
        sums of homogeneous parts, evaluated at the directions and scaled by
        powers of r, the cutoff at the radii; only the base metric and J^T g J
        (a BLAS matmul, as no output is written from it) run at every point."""
        n, r = self.dim, radii[:, None, None]
        ku = (directions @ self._jac[1].reshape(n * n, n).T).reshape(-1, n, n)  # 2 quad(., u)
        x = self.center + r * (directions @ self.frame.T) + (r * r) * (0.5 * ku @ directions[..., None])[..., 0]
        jac = (self.frame + r[..., None] * ku).reshape(-1, n, n)
        out = (jac.swapaxes(1, 2) @ self.base._jets(x.reshape(-1, n), 0)[..., 0] @ jac)[(slice(None), *self._upper)]
        if self._bump is not None:
            phi = _smoothbump_jet(jet_space(n, 0), (radii * radii)[:, None], *self._cutoff_bounds())[:, 0]
            bump = _poly_taylor(self._bump, directions, order=0)[..., 0]
            out += ((radii ** (len(self._bump) - 1) * phi)[:, None, None] * bump).reshape(len(out), -1)
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
        cutoff = Call("smoothbump", (_poly_expr(self._r2), *map(Num, self._cutoff_bounds())))
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
    base jets at p that built the chart."""
    point = np.asarray(point, dtype=float)
    pl = JetPipeline(metric, point, order)
    L = np.linalg.cholesky(pl.g)
    e = np.linalg.inv(L).T  # E^T g E = I
    ghat = np.einsum("ai,ijk,jb,kc->abc", L.T, pl.gamma(), e, e)
    chart = PulledBackMetric(
        base=metric,
        center=point,
        frame=e,
        gamma_frame=np.zeros_like(ghat) if np.abs(ghat).max() < 1e-14 else ghat,
        radius=radius,
        name=f"{metric.name}:normal" if metric.name else "normal-chart",
        chart=f"normal coordinates centered at {point.tolist()}",
    )
    chart.origin_jets = chart._compose(np.zeros((1, metric.dim)), order, pl.g_jets[None])[0]
    return chart


# -- shared bump machinery -----------------------------------------------------


@lru_cache(maxsize=None)
def _grid_directions(n):
    dirs = np.random.default_rng(_GRID_SEED).standard_normal((GRID_ANGULAR, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs.setflags(write=False)  # shared by every grid in dim n
    return dirs


def _grid(n, radius):
    """The positivity grid's GRID_RADIAL radii up to ``radius`` and its directions."""
    return np.linspace(radius / GRID_RADIAL, radius, GRID_RADIAL), _grid_directions(n)


def _grid_points(n, radius):
    radii, directions = _grid(n, radius)
    return (radii[:, None, None] * directions).reshape(-1, n)


def _check_positivity(metric, points):
    """On ``points`` = ``_grid_points(dim, metric.radius)``, one batched
    Cholesky decides: it completes on matrices within a backward error of
    order n eps ||g|| of positive definite ones (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10), the level at which
    eigvalsh's smallest eigenvalue is accurate.  Only on a failure does
    eigvalsh run: its smallest eigenvalue decides and names the point."""
    g = metric.grid_matrices(*_grid(metric.dim, metric.radius))
    if not np.isfinite(g).all():
        raise DomainError("perturbed metric is not finite on the positivity grid; shrink the radius")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(g)[:, 0]
        worst = int(np.argmin(w))
        if w[worst] <= 0.0:
            raise NotPositiveDefinite(
                f"perturbed metric loses positivity at {points[worst].tolist()} "
                f"(min eigenvalue {w[worst]:g}); shrink the target or the radius"
            ) from None


@np.errstate(over="ignore", invalid="ignore")  # a tiny radius overflows the cutoff's jets; refused below
def _ck_norm(metric: PulledBackMetric, points, order):
    """sup over every CK_STRIDE-th grid point of sum_{|alpha| <= order}
    |d^alpha(bump)| using exact jet derivatives, from one batched
    evaluation of jets of ``order``; a DomainError if it is not finite."""
    jets = metric._bump_jets(points[::CK_STRIDE], order)
    norm = float(np.abs(jets * jet_space(metric.dim, order).factorials).sum(axis=-1).max(initial=0.0))
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


def _prescribe(pl, measure, target, bump_of) -> PerturbResult:
    """The steps both prescriptions share: ``measure`` (a tensor of a
    pipeline) by ``pl`` at the origin of its chart; the chart itself if it
    already has the target, else the chart plus the bump coefficients
    ``bump_of(pl)``, refused unless positive on the grid, then measured
    again."""
    chart, order, origin = pl.metric, pl.order, pl.point
    target_norm, shift = _finite_norms(target, target - measure(pl))
    if shift <= 1e-13 * max(target_norm, 1.0):
        return PerturbResult(chart, shift / max(target_norm, 1.0), 0.0, shift, True, origin)
    bumped = chart.with_bump(bump_of(pl), chart.radius, f"{chart.name}:bumped")
    grid = _grid_points(chart.dim, chart.radius)
    _check_positivity(bumped, grid)
    achieved = measure(JetPipeline(bumped, origin, order))
    target_error = float(np.linalg.norm(achieved - target) / max(target_norm, 1e-30))
    return PerturbResult(bumped, target_error, _ck_norm(bumped, grid, order) / shift, shift, False, origin)


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
    return prescribe_curvature_in(JetPipeline(chart, np.zeros(chart.dim), 2), cp.target_r4)


def prescribe_curvature_in(pl, target_r4) -> PerturbResult:
    """``prescribe_curvature`` on the chart with order-2 origin pipeline ``pl``."""
    n = pl.n
    r0 = np.asarray(target_r4, dtype=float)
    if r0.shape != (n, n, n, n):
        raise DimensionError("target curvature has the wrong shape")
    _check_curvature_symmetries(r0, 1e-9)
    _check_bianchi(r0, 1e-9)

    def bump_of(pl):
        # bump_ij(y) = -1/3 sum_{h,k} R*_ihjk y^h y^k, symmetrized in (h, k)
        quad = -(1.0 / 3.0) * (r0 - pl.riemann()).transpose(0, 2, 1, 3)
        return 0.5 * (quad + quad.swapaxes(2, 3))

    return _prescribe(pl, JetPipeline.riemann, r0, bump_of)


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


# a_index of every entry of the full (3, 3, 3, 3, 3) tensor
_A_INDEX = np.array([a_index(*t) for t in itertools.product(range(3), repeat=5)]).reshape((3,) * 5)


def a_full(avec):
    """Expand the 60-vector into the fully symmetric A[i,j,k,l,m] lookup
    (trailing axes of ``avec`` carry over)."""
    return np.asarray(avec, dtype=float)[_A_INDEX]


def _cotton_of_full(af):
    """L(A) of fully expanded coefficients af[i, j, k, l, m, ...]; trailing
    axes carry over."""
    tr1 = np.einsum("kikic...->c...", af) - np.einsum("kkiic...->c...", af)
    out = 0.5 * (
        np.einsum("kakcb...->cab...", af)
        - np.einsum("kckab...->cab...", af)
        - np.einsum("abkkc...->cab...", af)
        + np.einsum("cbkka...->cab...", af)
    )
    eye = np.eye(3)
    out -= 0.25 * np.einsum("ab,c...->cab...", eye, tr1)
    out += 0.25 * np.einsum("cb,a...->cab...", eye, tr1)
    return out


@lru_cache(maxsize=None)
def l_matrix():
    """The linear map L from bump coefficients to algebraic Cotton tensors,

    L(A)[n,a,b] = 1/2 (A_ka^{knb} - A_kn^{kab} - A_ab^{kkn} + A_nb^{kka})
                - 1/4 (A_ki^{kin} - A_kk^{iin}) delta_ab
                + 1/4 (A_ki^{kia} - A_kk^{iia}) delta_nb,

    as a 27 x 60 matrix: the images of the 60 unit coefficient vectors, all
    at once.  Every image satisfies the four Cotton identities with the
    identity metric."""
    return _cotton_of_full(a_full(np.eye(A_SPACE_DIM))).reshape(27, A_SPACE_DIM)


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


def prescribe_cotton_york(cp: CottonPrescription) -> PerturbResult:
    """Metric equal to the base outside the bump whose Cotton-York tensor
    at the chart origin is the target (dim 3).

    Solves 6 L(A) = Cotton shift by minimum-norm least squares (the actual
    third derivatives of the cubic bump carry the 3! factor), then applies
    the cubic bump with the C^3 cutoff.
    """
    chart = normal_coordinates(cp.base, cp.point, cp.radius)
    return prescribe_cotton_york_in(JetPipeline(chart, np.zeros(chart.dim)), cp.target_cy)


def prescribe_cotton_york_in(pl, target_cy) -> PerturbResult:
    """``prescribe_cotton_york`` on the chart with order-3 origin pipeline ``pl``."""
    if pl.n != 3:
        raise DimensionError("Cotton-York prescription needs dim 3")
    cy0 = np.asarray(target_cy, dtype=float)
    if cy0.shape != (3, 3):
        raise DimensionError("target must be a 3x3 matrix")
    scale = max(np.abs(cy0).max(), 1.0)
    if np.abs(cy0 - cy0.T).max() > 1e-10 * scale:
        raise SymmetryViolation("target Cotton-York tensor must be symmetric")
    if abs(np.trace(cy0)) > 1e-10 * scale:
        raise ConstraintViolation("target Cotton-York tensor must be traceless")

    def bump_of(pl):
        dc = (cy_to_cotton(cy0) - pl.cotton()).reshape(-1)
        lmat = 6.0 * l_matrix()
        avec, _, rank, _ = np.linalg.lstsq(lmat, dc, rcond=None)
        if rank < 5:
            raise LinearSolveFailure(f"Cotton prescription matrix has rank {rank} < 5")
        with np.errstate(over="ignore"):  # a huge target's norms overflow; positivity then refuses it
            err = np.linalg.norm(lmat @ avec - dc)
            dc_norm = np.linalg.norm(dc)
        if err > 1e-9 * max(1.0, dc_norm):
            raise LinearSolveFailure(
                f"Cotton shift not reachable (residual {err:g}); "
                "the target is not an algebraic Cotton tensor"
            )
        return a_full(avec)

    return _prescribe(pl, JetPipeline.cotton_york, cy0, bump_of)
