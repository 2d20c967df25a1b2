"""Decision procedures for the algebraic obstructions to limiting Carleman
weights.

Dimension >= 4: a metric that admits an LCW near p has a Weyl operator
leaving some v ^ v-perp invariant ("eigenflag" direction).  The residual

    F(v) = || proj_{Lambda^2(v-perp)} o W o proj_{v ^ v-perp} ||_F^2

is a smooth completion-independent function on the unit sphere, zero exactly
at flag directions; the test minimizes it from many starts.  A verdict of
False certifies that no LCW exists near the point.  A verdict of True only
says the necessary condition holds; it never asserts existence.

Dimension 3: the necessary condition is det(CY) = 0 for the Cotton-York
tensor, tested scale-invariantly, with the degenerate plane recovered from
the eigendecomposition when the test passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bivectors import (
    CurvatureOperator,
    hodge_star_matrix,
    lex_pairs,
    operator_from_0_4,
    orthonormal_frame,
    pm_split,
)
from .dsl import MetricDef
from .errors import DimensionError, PreconditionViolation
from .pipeline import JetPipeline, compute_snapshot, format_json


@dataclass
class ObstructionConfig:
    """Tunable tolerances; every report echoes the values it used."""

    tol_rel: float = 1e-8
    starts: int = 64
    seed: int = 0
    grad_tol: float = 1e-12
    max_iter: int = 400
    inconclusive_factor: float = 10.0
    cy_abs_floor: float = 1e-9
    spectral_precheck: bool = True


@dataclass
class ObstructionReport:
    """Outcome of one necessary-condition test.

    ``verdict`` True means the necessary condition holds (NOT an existence
    claim); False certifies non-existence of an LCW near the point; None is
    the inconclusive band around the tolerance.
    """

    dim: int
    test: str
    verdict: bool | None
    witness: np.ndarray | None = None
    residual: float | None = None
    det_cy: float | None = None
    eigen_data: dict | None = None
    plane: np.ndarray | None = None
    tolerances: dict = field(default_factory=dict)
    note: str = ""

    @property
    def verdict_string(self):
        if self.verdict is True:
            return "passes_necessary"
        if self.verdict is False:
            return "fails_lcw_necessary"
        return "inconclusive"

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "test": self.test,
            "verdict": self.verdict_string,
            "witness": self.witness,
            "residual": self.residual,
            "det_cy": self.det_cy,
            "plane": self.plane,
            "eigen_data": self.eigen_data,
            "tolerances": self.tolerances,
            "note": self.note,
        }

    def to_json(self, float_digits=17):
        return format_json(self.to_json_dict(), float_digits)


_PASS_NOTE = (
    "necessary condition holds; this does NOT certify that a limiting "
    "Carleman weight exists"
)
_FAIL_NOTE = "necessary condition fails: no limiting Carleman weight exists near this point"


# -- eigenflag residual and its minimization ----------------------------------


def _pair_embedding(n):
    """P2[a, i, j]: lex-pair basis vector a as an antisymmetric matrix."""
    pairs = lex_pairs(n)
    p2 = np.zeros((len(pairs), n, n))
    for a, (i, j) in enumerate(pairs):
        p2[a, i, j] = 1.0
        p2[a, j, i] = -1.0
    return p2


def _lambda2_projection(v_batch, n):
    """Q[b]: matrix of the projection of Lambda^2 onto Lambda^2(v-perp)
    for each unit vector v in the batch (second compound of I - v v^T)."""
    s = np.eye(n)[None, :, :] - np.einsum("bi,bj->bij", v_batch, v_batch)
    pairs = lex_pairs(n)
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    q = (
        s[:, ii[:, None], ii[None, :]] * s[:, jj[:, None], jj[None, :]]
        - s[:, ii[:, None], jj[None, :]] * s[:, jj[:, None], ii[None, :]]
    )
    return q, s


class _ResidualContext:
    """Per-operator constants for the batched residual/gradient evaluation."""

    def __init__(self, w, n):
        self.n = n
        self.w = w
        self.w2 = w @ w
        self.p2 = _pair_embedding(n)


def _residual_batch_ctx(ctx, v_batch):
    """F(v) = tr(Q W^2) - tr(Q W Q W) per start, plus ambient gradients.

    Fixed-shape matmul/tensordot chain; no per-call contraction planning.
    """
    q, s = _lambda2_projection(v_batch, ctx.n)
    f1 = np.tensordot(q, ctx.w2, axes=([1, 2], [0, 1]))
    qw = q @ ctx.w
    f2 = np.einsum("bij,bji->b", qw, qw)
    f = f1 - f2
    wqw = np.matmul(np.matmul(ctx.w[None, :, :], q), ctx.w[None, :, :])
    g = ctx.w2[None, :, :] - 2.0 * wqw
    # grad F = -2 Y v with Y[i,k] = Gtilde[i,j,k,l] S[j,l]; contract the
    # pair indices of G through the pair-embedding tensors
    t = np.tensordot(g, ctx.p2, axes=([1], [0]))  # (b, c, i, j)
    u = np.matmul(t, s[:, None, :, :])  # (b, c, i, l)
    y = np.einsum("bcil,ckl->bik", u, ctx.p2)
    grad = -2.0 * np.einsum("bik,bk->bi", y, v_batch)
    return f, grad


def _residual_batch(w, v_batch):
    n = int((1 + np.sqrt(1 + 8 * w.shape[0])) / 2)
    return _residual_batch_ctx(_ResidualContext(w, n), v_batch)


def eigenflag_residual(op: CurvatureOperator, v) -> float:
    """Flag-invariance defect of the unit vector v; zero iff W leaves
    v ^ v-perp invariant.  Independent of how v is completed to a frame."""
    if op.dim < 4:
        raise DimensionError("eigenflag residual needs dim >= 4")
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-10:
        raise PreconditionViolation("v must be a unit vector")
    f, _ = _residual_batch(op.mat, v[None, :] / nv)
    return max(float(f[0]), 0.0)  # cancellation can leave a tiny negative


def _eigen_candidate_starts(w, n):
    """Factor (near-)simple eigenvectors of W into plane vectors; these are
    high-quality starting points for the flag search."""
    vals, vecs = np.linalg.eigh(w)
    pairs = lex_pairs(n)
    out = []
    for col in range(vecs.shape[1]):
        a = np.zeros((n, n))
        for idx, (i, j) in enumerate(pairs):
            a[i, j] = vecs[idx, col]
            a[j, i] = -vecs[idx, col]
        u, s, vt = np.linalg.svd(a)
        out.append(u[:, 0])
        out.append(u[:, 1])
    return out


def _minimize_residual(w, n, config):
    """Multi-start projected gradient descent on the sphere.

    Returns (best residual, best v, iterations used, converged flag).
    Deterministic for a fixed seed: ties break on the lowest start index.
    Exits early once the running minimum is decisively below the acceptance
    level (after polishing the winning start) or once every start has
    stalled far above the inconclusive band.
    """
    rng = np.random.default_rng(config.seed)
    starts = rng.standard_normal((config.starts, n))
    extra = _eigen_candidate_starts(w, n)
    v = np.vstack([starts] + [np.asarray(e)[None, :] for e in extra])
    v = v / np.linalg.norm(v, axis=1, keepdims=True)

    scale = max(np.linalg.norm(w) ** 2, 1e-300)
    accept = config.tol_rel * scale
    band_top = accept * config.inconclusive_factor
    ctx = _ResidualContext(w, n)

    f, grad = _residual_batch_ctx(ctx, v)
    rgrad = grad - np.einsum("bi,bi->b", grad, v)[:, None] * v
    step = np.full(v.shape[0], 0.5 / scale)
    active = np.ones(v.shape[0], dtype=bool)
    it = 0
    best_hist = float(f.min())
    stall = 0
    while it < config.max_iter and active.any():
        it += 1
        gn = np.linalg.norm(rgrad, axis=1)
        active &= gn > config.grad_tol * scale
        active &= step > 1e-18 / scale
        if not active.any():
            break
        fmin = float(f.min())
        if fmin <= 0.3 * accept:
            # verdict already determined; polish only the current winner
            keep = np.zeros_like(active)
            keep[int(np.argmin(f))] = True
            active &= keep
            if fmin <= 1e-6 * accept:
                break
        elif fmin > 100.0 * band_top:
            # far from the decision band: stop once progress stalls
            if best_hist - fmin <= 1e-4 * best_hist:
                stall += 1
            else:
                stall = 0
                best_hist = fmin
            if stall >= 30 and it >= 60:
                break
        idx = np.flatnonzero(active)
        trial = v[idx] - step[idx, None] * rgrad[idx]
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        ft, gradt = _residual_batch_ctx(ctx, trial)
        improved = ft <= f[idx]
        take = idx[improved]
        step[take] *= 1.3
        step[idx[~improved]] *= 0.4
        v[take] = trial[improved]
        f[take] = ft[improved]
        grad[take] = gradt[improved]
        rgrad[take] = grad[take] - np.einsum(
            "bi,bi->b", grad[take], v[take]
        )[:, None] * v[take]
    best = int(np.argmin(f))
    gn = np.linalg.norm(rgrad[best])
    return max(float(f[best]), 0.0), v[best].copy(), it, bool(gn <= config.grad_tol * scale)


def eigenflag_test(op: CurvatureOperator, config: ObstructionConfig | None = None) -> ObstructionReport:
    """Decide whether the Weyl operator admits a flag direction.

    Multi-start minimization of the residual over the unit sphere; verdict
    True iff the minimum is below tol_rel * ||W||^2, with an inconclusive
    band one factor of ``inconclusive_factor`` wide above that.  In dim 4 a
    spectral pre-check (the self-dual and anti-self-dual blocks of a
    flag-invariant operator are isospectral) certifies most negatives
    without optimization.
    """
    if op.dim < 4:
        raise DimensionError("eigenflag test needs dim >= 4")
    config = config or ObstructionConfig()
    w = op.mat
    wnorm = float(np.linalg.norm(w))
    tolerances = {
        "tol_rel": config.tol_rel,
        "starts": config.starts,
        "seed": config.seed,
        "grad_tol": config.grad_tol,
        "inconclusive_factor": config.inconclusive_factor,
    }
    eigen_data = {"eigenvalues": np.linalg.eigvalsh(w)}
    if wnorm == 0.0:
        return ObstructionReport(
            dim=op.dim,
            test="eigenflag",
            verdict=True,
            residual=0.0,
            eigen_data=eigen_data,
            tolerances=tolerances,
            note="Weyl operator vanishes; every direction is invariant. " + _PASS_NOTE,
        )

    if op.dim == 4 and config.spectral_precheck:
        split = pm_split(op)
        sp = np.sort(np.linalg.eigvalsh(split.wplus))
        sm = np.sort(np.linalg.eigvalsh(split.wminus))
        mismatch = float(np.abs(sp - sm).max())
        spectral_tol = np.sqrt(config.tol_rel * config.inconclusive_factor) * wnorm
        tolerances["spectral_tol"] = spectral_tol
        eigen_data["plus_spectrum"] = sp
        eigen_data["minus_spectrum"] = sm
        if mismatch > spectral_tol:
            return ObstructionReport(
                dim=4,
                test="eigenflag",
                verdict=False,
                residual=None,
                eigen_data=eigen_data,
                tolerances=tolerances,
                note=(
                    "self-dual and anti-self-dual spectra differ by "
                    f"{mismatch:.3e} > {spectral_tol:.3e}; a flag-invariant "
                    "operator must have isospectral blocks. " + _FAIL_NOTE
                ),
            )

    fmin, vbest, iters, converged = _minimize_residual(w, op.dim, config)
    rel = fmin / wnorm**2
    threshold = config.tol_rel
    if rel <= threshold:
        verdict = True
        note = f"minimum residual {fmin:.3e} <= {threshold:.1e} * ||W||^2. " + _PASS_NOTE
    elif rel <= threshold * config.inconclusive_factor:
        verdict = None
        note = (
            f"minimum residual {fmin:.3e} lies within a factor "
            f"{config.inconclusive_factor:g} of the tolerance; inconclusive"
        )
    else:
        verdict = False
        note = f"minimum residual {fmin:.3e} over {config.starts} starts. " + _FAIL_NOTE
    return ObstructionReport(
        dim=op.dim,
        test="eigenflag",
        verdict=verdict,
        witness=vbest if verdict is True else None,
        residual=fmin,
        eigen_data=eigen_data,
        tolerances=tolerances,
        note=note + f" ({iters} iterations, converged={converged})",
    )


# -- simplicity classification (dim 4) ----------------------------------------


@dataclass
class SimplicityRecord:
    eigenvalue: float
    multiplicity: int
    simple: bool | None  # None for degenerate eigenspaces
    contains_simple: bool
    wedge_square_range: tuple


def classify_simplicity(op: CurvatureOperator, tol=1e-8):
    """Per eigenvector of a dim-4 operator, decide whether it is simple
    (omega ^ omega = 0, the Pluecker condition).  Degenerate eigenspaces
    report whether they contain a simple direction, which follows from the
    sign range of omega ^ omega on the eigenspace."""
    if op.dim != 4:
        raise DimensionError("simplicity classification needs dim 4")
    vals, vecs = np.linalg.eigh(op.mat)
    # omega ^ omega = 2 q(omega) vol with q = <omega, star omega>/2
    qform = hodge_star_matrix(dim=4) / 2.0
    scale = max(np.abs(vals).max(), 1.0)
    groups = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[start] > tol * scale * 10:
            groups.append((start, i))
            start = i
    out = []
    for a, b in groups:
        sub = vecs[:, a:b]
        qsub = sub.T @ qform @ sub
        mu = np.linalg.eigvalsh(qsub)
        lo, hi = float(mu[0]), float(mu[-1])
        mult = b - a
        if mult == 1:
            simple = bool(abs(lo) <= tol)
            contains = simple
        else:
            simple = None
            contains = bool(lo <= tol and hi >= -tol)
        out.append(
            SimplicityRecord(
                eigenvalue=float(vals[a:b].mean()),
                multiplicity=mult,
                simple=simple,
                contains_simple=contains,
                wedge_square_range=(lo, hi),
            )
        )
    return out


# -- dimension 3: Cotton-York determinant test --------------------------------


def plane_from_traceless_degenerate(a, tol=1e-8):
    """Given a symmetric 3x3 matrix with trace and determinant (near) zero,
    return (plane, normal) with <A p, p'> = 0 for p, p' in the plane and
    <A w, w> = 0 for the normal.

    Eigenvalues are (lam, -lam, 0); the plane is spanned by the sum of the
    two opposite-eigenvalue directions and the kernel direction, the normal
    is their difference.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise DimensionError("expected a 3x3 matrix")
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([0.0, 0.0, 1.0])
    if abs(np.trace(a)) > tol * max(norm, 1.0):
        raise PreconditionViolation(f"trace {np.trace(a):g} not within tolerance of zero")
    if abs(np.linalg.det(a)) > tol * max(norm**3, 1.0):
        raise PreconditionViolation(
            f"determinant {np.linalg.det(a):g} not within tolerance of zero"
        )
    vals, vecs = np.linalg.eigh(a)
    k = int(np.argmin(np.abs(vals)))
    rest = [i for i in range(3) if i != k]
    vp = vecs[:, rest[int(np.argmax(vals[rest]))]]
    vm = vecs[:, rest[int(np.argmin(vals[rest]))]]
    v3 = vecs[:, k]
    p1 = (vp + vm) / np.linalg.norm(vp + vm)
    normal = (vp - vm) / np.linalg.norm(vp - vm)
    return np.vstack([p1, v3]), normal


def cotton_york_test(metric: MetricDef, point, config: ObstructionConfig | None = None) -> ObstructionReport:
    """Dimension-3 necessary condition: det(CY) = 0, decided on the
    g-orthonormal frame components with the scale-invariant ratio
    |det| / ||CY||^3.  A vanishing CY (conformally flat point) passes via an
    absolute floor.  When the test passes with CY != 0 the degenerate plane
    and its normal are reported, the normal acting as witness."""
    config = config or ObstructionConfig()
    if metric.dim != 3:
        raise DimensionError("Cotton-York test needs dim 3")
    snap = compute_snapshot(metric, point)
    cy = snap.cotton_york
    e = orthonormal_frame(snap.g)
    a = e.T @ cy @ e
    norm = float(np.linalg.norm(a))
    det_coord = float(np.linalg.det(cy))
    det_frame = float(np.linalg.det(a))
    tolerances = {
        "tol_rel": config.tol_rel,
        "cy_abs_floor": config.cy_abs_floor,
        "inconclusive_factor": config.inconclusive_factor,
    }
    if norm <= config.cy_abs_floor:
        return ObstructionReport(
            dim=3,
            test="cotton-york",
            verdict=True,
            det_cy=det_coord,
            residual=0.0,
            plane=np.vstack([e[:, 0], e[:, 1]]),
            witness=e[:, 2] / np.linalg.norm(e[:, 2]),
            tolerances=tolerances,
            note=(
                f"Cotton-York norm {norm:.2e} below the absolute floor; "
                "the point is conformally flat at tolerance and any plane is "
                "admissible. " + _PASS_NOTE
            ),
        )
    ratio = abs(det_frame) / norm**3
    tolerances["det_ratio"] = ratio
    if ratio <= config.tol_rel:
        plane_f, normal_f = plane_from_traceless_degenerate(
            a, tol=config.tol_rel * config.inconclusive_factor
        )
        plane = plane_f @ e.T  # rows are coordinate vectors of the plane basis
        normal = e @ normal_f
        return ObstructionReport(
            dim=3,
            test="cotton-york",
            verdict=True,
            det_cy=det_coord,
            residual=float(abs(det_frame)),
            plane=plane,
            witness=normal / np.linalg.norm(normal),
            tolerances=tolerances,
            note=f"|det CY| / ||CY||^3 = {ratio:.3e} <= {config.tol_rel:.1e}. " + _PASS_NOTE,
        )
    if ratio <= config.tol_rel * config.inconclusive_factor:
        return ObstructionReport(
            dim=3,
            test="cotton-york",
            verdict=None,
            det_cy=det_coord,
            residual=float(abs(det_frame)),
            tolerances=tolerances,
            note=(
                f"|det CY| / ||CY||^3 = {ratio:.3e} lies within a factor "
                f"{config.inconclusive_factor:g} of the tolerance; inconclusive"
            ),
        )
    return ObstructionReport(
        dim=3,
        test="cotton-york",
        verdict=False,
        det_cy=det_coord,
        residual=float(abs(det_frame)),
        tolerances=tolerances,
        note=f"|det CY| / ||CY||^3 = {ratio:.3e}. " + _FAIL_NOTE,
    )


def auto_test(metric: MetricDef, point, config: ObstructionConfig | None = None) -> ObstructionReport:
    """Dimension dispatch: Cotton-York determinant in dim 3, Weyl eigenflag
    in dim >= 4."""
    config = config or ObstructionConfig()
    if metric.dim == 3:
        return cotton_york_test(metric, point, config)
    if metric.dim >= 4:
        pl = JetPipeline(metric, point)
        return eigenflag_test(operator_from_0_4(pl.weyl(), g=pl.g), config)
    raise DimensionError("obstruction tests need dim >= 3")
