"""Decision procedures for the algebraic obstructions to limiting Carleman
weights.

Dimension >= 4: a metric that admits an LCW near p has a Weyl operator
leaving some v ^ v-perp invariant ("eigenflag" direction).  The residual

    F(v) = || proj_{Lambda^2(v-perp)} o W o proj_{v ^ v-perp} ||_F^2

is a smooth completion-independent function on the unit sphere, zero exactly
at flag directions; the test minimizes it from many starts.  With T the
(0,4) tensor of W in an orthonormal frame, M[i, j] = T[k,l,i,m] T[k,l,j,m]
and J_v[k, m] = T(e_k, v, v, e_m), it is the quartic 1/2 (v^T M v)(v^T v)
- ||J_v||^2.  Fully symmetrized, that is one symmetric 4-tensor C, a
quadratic form on Sym^2(R^n): F(v) = C(v, v, v, v), with gradient
4 C(v, v, v, .) and Hessian 12 C(v, v, ., .).  A batch of starts costs one
GEMM, and while every start is active a descent step moves the whole
batch at once.  A verdict of False certifies that no LCW exists near the
point.  A verdict of True only says the necessary condition holds; it never
asserts existence.

Dimension 3: the necessary condition is det(CY) = 0 for the Cotton-York
tensor, tested scale-invariantly, with the degenerate plane recovered from
the eigendecomposition when the test passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bivectors import (
    CurvatureOperator,
    hodge_star_matrix,
    lex_pairs,
    operator_from_0_4,
    operator_to_0_4,
    orthonormal_frame,
    pm_split,
)
from .dsl import MetricDef
from .errors import DimensionError, DomainError, PreconditionViolation
from .pipeline import JetPipeline, compute_snapshot, format_json


GRAD_TOL = 1e-12  # a start stops once its gradient is below this times the scale
MAX_ITER = 400  # descent steps of the eigenflag search at most
INCONCLUSIVE_FACTOR = 10.0  # width of the inconclusive band above the tolerance
CY_ABS_FLOOR = 1e-9  # a Cotton-York norm below this passes as conformally flat


@dataclass
class ObstructionConfig:
    """Tolerance and search settings; every field is echoed in the
    ``tolerances`` of each report whose test reads it, with the module
    constants above that the test uses (the note gives the iterations,
    which MAX_ITER caps)."""

    tol_rel: float = 1e-8
    starts: int = 64
    seed: int = 0


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

    def to_json(self):
        return format_json(self.to_json_dict())


_PASS_NOTE = (
    "necessary condition holds; this does NOT certify that a limiting "
    "Carleman weight exists"
)
_FAIL_NOTE = "necessary condition fails: no limiting Carleman weight exists near this point"
_BAND_NOTE = f" lies within a factor {INCONCLUSIVE_FACTOR:g} of the tolerance; inconclusive"


def _band(ratio, tol):
    """The verdict of a scale-free measured ratio: True (passes) at most
    ``tol``, None (inconclusive) up to INCONCLUSIVE_FACTOR times ``tol``,
    False (fails) otherwise."""
    if ratio <= tol:
        return True
    if ratio <= tol * INCONCLUSIVE_FACTOR:
        return None
    return False


# -- eigenflag residual and its minimization ----------------------------------


@lru_cache(maxsize=None)
def _sym2_pairs(n):
    """The pairs a <= b, and each one's count of orderings over 24."""
    a, b = np.triu_indices(n)
    return a, b, ((2.0 - (a == b)) / 24.0)[:, None]


def _residual_form(w, n):
    """(R, a, b): row (a, b), a <= b, of R is C[a, b, :, :] flattened, times
    the count of orderings of (a, b), so F(v) = sum R v_a v_b v_c v_d."""
    t = operator_to_0_4(CurvatureOperator(dim=n, mat=w))
    u = t.transpose(1, 2, 0, 3).reshape(n * n, n * n)  # u[(p, i), (k, m)] = T[k, p, i, m]
    k = (u @ u.T).reshape(n, n, n, n)  # ||J_v||^2 = K(v, v, v, v)
    md = np.multiply.outer(np.einsum("lilj->ij", k), np.eye(n))  # M (x) I
    # s is invariant under the pair swaps (01)(23), (02)(13), so its sum over
    # S_4, 24 C, is 4 times its sum over S_3 on the first three axes
    s = md + md.transpose(2, 3, 0, 1) - 4.0 * k
    s = s + s.swapaxes(0, 1)
    s = s + s.swapaxes(0, 2) + s.swapaxes(1, 2)
    a, b, mult = _sym2_pairs(n)
    return s[a, b].reshape(len(a), n * n) * mult, a, b


def _residual_eval(form, v_batch):
    """F per row v and its ambient gradient 4 C(v, v, v, .)."""
    c, a, b = form
    cvv = ((v_batch[:, a] * v_batch[:, b]) @ c).reshape(v_batch.shape + (-1,))
    cvvv = np.einsum("bcd,bc->bd", cvv, v_batch)
    return np.einsum("bd,bd->b", cvvv, v_batch), 4.0 * cvvv


def _residual_batch(w, v_batch):
    return _residual_eval(_residual_form(w, v_batch.shape[1]), v_batch)


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


def _eigen_candidate_starts(vecs, n):
    """Factor (near-)simple eigenvectors of W (columns of ``vecs``) into
    plane vectors; these are high-quality starting points for the flag search."""
    i, j = np.array(lex_pairs(n)).T
    a = np.zeros((vecs.shape[1], n, n))
    a[:, i, j] = vecs.T
    a[:, j, i] = -vecs.T
    u = np.linalg.svd(a)[0]  # (N, n, n); the plane is u[:, :, :2]
    return u[:, :, :2].transpose(0, 2, 1).reshape(-1, n)


def _minimize_residual(w, n, config, vecs):
    """Multi-start projected gradient descent on the sphere.

    Returns (best residual, best v, iterations used, converged flag).
    Deterministic for a fixed seed: ties break on the lowest start index.
    Exits early once the running minimum is decisively below the acceptance
    level (after polishing the winning start) or once every start has
    stalled far above the inconclusive band.
    """
    rng = np.random.default_rng(config.seed)
    starts = rng.standard_normal((config.starts, n))
    v = np.vstack([starts, _eigen_candidate_starts(vecs, n)])
    v = v / np.linalg.norm(v, axis=1, keepdims=True)

    mantissa, e = math.frexp(np.linalg.norm(w))  # search W / 2^e: exact, no underflow
    scale = mantissa**2
    accept = config.tol_rel * scale
    band_top = accept * INCONCLUSIVE_FACTOR
    gtol_sq = (GRAD_TOL * scale) ** 2
    form = _residual_form(w * math.ldexp(1.0, -e), n)

    def evaluate(x):  # F and its gradient along the sphere (v . grad F = 4 F)
        fx, grad = _residual_eval(form, x)
        return fx, grad - 4.0 * fx[:, None] * x

    f, rgrad = evaluate(v)
    step = np.full(v.shape[0], 0.5 / scale)
    active = np.ones(v.shape[0], dtype=bool)
    it = 0
    best_hist = float(f.min())
    stall = 0
    while it < MAX_ITER and active.any():
        it += 1
        active &= np.einsum("bi,bi->b", rgrad, rgrad) > gtol_sq
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
        idx = slice(None) if active.all() else np.flatnonzero(active)  # whole batch, or gather
        trial = v[idx] - step[idx, None] * rgrad[idx]
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        ft, rgt = evaluate(trial)
        improved = ft <= f[idx]
        step[idx] *= np.where(improved, 1.3, 0.4)
        v[idx] = np.where(improved[:, None], trial, v[idx])
        f[idx] = np.where(improved, ft, f[idx])
        rgrad[idx] = np.where(improved[:, None], rgt, rgrad[idx])
    best = int(np.argmin(f))
    converged = bool(rgrad[best] @ rgrad[best] <= gtol_sq)
    return max(math.ldexp(float(f[best]), 2 * e), 0.0), v[best].copy(), it, converged


def eigenflag_test(op: CurvatureOperator, config: ObstructionConfig | None = None) -> ObstructionReport:
    """Decide whether the Weyl operator admits a flag direction.

    Multi-start minimization of the residual over the unit sphere; the
    verdict is the ``_band`` of the minimum over ||W||^2.  In dim 4 a
    spectral pre-check (the self-dual and anti-self-dual blocks of a
    flag-invariant operator are isospectral) certifies most negatives
    without optimization.
    """
    if op.dim < 4:
        raise DimensionError("eigenflag test needs dim >= 4")
    config = config or ObstructionConfig()
    w = op.mat
    with np.errstate(over="ignore"):
        wnorm = float(np.linalg.norm(w))
    if not math.isfinite(wnorm * wnorm):
        # the verdict compares the residual with tol_rel * ||W||^2
        raise DomainError("Weyl operator too large: its squared norm is not a finite number")
    vals, vecs = np.linalg.eigh(w)
    report = ObstructionReport(
        dim=op.dim, test="eigenflag", verdict=True, residual=0.0, eigen_data={"eigenvalues": vals},
        tolerances={"tol_rel": config.tol_rel, "starts": config.starts, "seed": config.seed,
                    "grad_tol": GRAD_TOL, "inconclusive_factor": INCONCLUSIVE_FACTOR},
    )
    if wnorm == 0.0:
        report.note = "Weyl operator vanishes; every direction is invariant. " + _PASS_NOTE
        return report

    if op.dim == 4:
        split = pm_split(op)
        sp = np.sort(np.linalg.eigvalsh(split.wplus))
        sm = np.sort(np.linalg.eigvalsh(split.wminus))
        mismatch = float(np.abs(sp - sm).max())
        spectral_tol = np.sqrt(config.tol_rel * INCONCLUSIVE_FACTOR) * wnorm
        report.tolerances["spectral_tol"] = spectral_tol
        report.eigen_data["plus_spectrum"] = sp
        report.eigen_data["minus_spectrum"] = sm
        if mismatch > spectral_tol:
            report.verdict, report.residual = False, None
            report.note = (
                "self-dual and anti-self-dual spectra differ by "
                f"{mismatch:.3e} > {spectral_tol:.3e}; a flag-invariant "
                "operator must have isospectral blocks. " + _FAIL_NOTE
            )
            return report

    fmin, vbest, iters, converged = _minimize_residual(w, op.dim, config, vecs)
    report.residual = fmin
    report.verdict = _band(fmin / wnorm**2, config.tol_rel)
    if report.verdict:
        report.witness = vbest
    report.note = f"minimum residual {fmin:.3e}" + {
        True: f" <= {config.tol_rel:.1e} * ||W||^2. " + _PASS_NOTE,
        None: _BAND_NOTE,
        False: f" over {config.starts + 2 * len(vecs)} starts. " + _FAIL_NOTE,
    }[report.verdict] + f" ({iters} iterations, converged={converged})"
    return report


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
    g-orthonormal frame components by the ``_band`` of the scale-invariant
    ratio |det| / ||CY||^3.  A vanishing CY (conformally flat point) passes
    via an absolute floor.  When the test passes with CY != 0 the
    degenerate plane and its normal are reported, the normal acting as
    witness."""
    config = config or ObstructionConfig()
    if metric.dim != 3:
        raise DimensionError("Cotton-York test needs dim 3")
    snap = compute_snapshot(metric, point)
    cy = snap.cotton_york
    e = orthonormal_frame(snap.g)
    a = e.T @ cy @ e
    norm = float(np.linalg.norm(a))
    det_frame = float(np.linalg.det(a))
    report = ObstructionReport(
        dim=3, test="cotton-york", verdict=True, det_cy=float(np.linalg.det(cy)), residual=abs(det_frame),
        tolerances={"tol_rel": config.tol_rel, "cy_abs_floor": CY_ABS_FLOOR, "inconclusive_factor": INCONCLUSIVE_FACTOR},
    )
    if norm <= CY_ABS_FLOOR:
        report.residual = 0.0
        report.plane = np.vstack([e[:, 0], e[:, 1]])
        report.witness = e[:, 2] / np.linalg.norm(e[:, 2])
        report.note = (
            f"Cotton-York norm {norm:.2e} below the absolute floor; "
            "the point is conformally flat at tolerance and any plane is "
            "admissible. " + _PASS_NOTE
        )
        return report
    ratio = abs(det_frame) / norm**3
    report.tolerances["det_ratio"] = ratio
    report.verdict = _band(ratio, config.tol_rel)
    if report.verdict:
        plane_f, normal_f = plane_from_traceless_degenerate(
            a, tol=config.tol_rel * INCONCLUSIVE_FACTOR
        )
        report.plane = plane_f @ e.T  # rows are coordinate vectors of the plane basis
        normal = e @ normal_f
        report.witness = normal / np.linalg.norm(normal)
    report.note = f"|det CY| / ||CY||^3 = {ratio:.3e}" + {
        True: f" <= {config.tol_rel:.1e}. " + _PASS_NOTE,
        None: _BAND_NOTE,
        False: ". " + _FAIL_NOTE,
    }[report.verdict]
    return report


def auto_test(metric: MetricDef, point, config: ObstructionConfig | None = None) -> ObstructionReport:
    """Dimension dispatch: Cotton-York determinant in dim 3, Weyl eigenflag
    in dim >= 4, where the Weyl tensor at the point reads only the metric's
    2-jet."""
    config = config or ObstructionConfig()
    if metric.dim == 3:
        return cotton_york_test(metric, point, config)
    if metric.dim >= 4:
        pl = JetPipeline(metric, point, order=2)
        return eigenflag_test(operator_from_0_4(pl.weyl(), g=pl.g), config)
    raise DimensionError("obstruction tests need dim >= 3")
