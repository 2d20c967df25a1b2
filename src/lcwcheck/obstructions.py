"""Decision procedures for the algebraic obstructions to limiting Carleman
weights.

Dimension >= 4: a metric with an LCW near p has a Weyl operator leaving
some v ^ v-perp invariant ("eigenflag" direction), where the residual
F(v) = || proj_{Lambda^2(v-perp)} o W o proj_{v ^ v-perp} ||_F^2 = C(v, v,
v, v) = z^T Q0 z (z_ab = v_a v_b) vanishes.  The verdict has two stages:
a multi-start descent looks only for a witness of a pass, and where its
minimum says "fails", a certificate runs once after it.  A verdict of False
certifies that no LCW exists near the point: it comes only from a proof of
min F above the band, the dim-4 spectral precheck or a sum-of-squares
certificate (Shor's relaxation, Parrilo / Lasserre form: Q0 + sum t_i L_i -
gamma D >= 0 with z^T L_i z = 0 and z^T D z = ||v||^4 proves F >= gamma).
A verdict of True only says the necessary condition holds; it never asserts
existence.

Dimension 3: the necessary condition is det(CY) = 0 for the Cotton-York
tensor, tested scale-invariantly, with the degenerate plane recovered from
the eigendecomposition when the test passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .bivectors import CurvatureOperator, _0_4_gather, _lex_pair_matrix, _pair_grid, _to_frame, orthonormal_frame, pm_split
from .dsl import MetricDef
from .errors import DimensionError, DomainError, PreconditionViolation
from .jets import jet_space
from .pipeline import INPUT_TOL, _antisym_pairs, _check_metric, _metric_partials, _pow2_scaled, _require_small, compute_snapshot


GRAD_TOL = 1e-12  # the search has converged once its best gradient is below this times the scale
MAX_ITER = 400  # descent steps of the eigenflag search at most
PLATEAU_WINDOW = 6  # the search stops once its minimum is above
PLATEAU_RATIO = 0.5  # this fraction of its value this many steps ago
SOS_STEPS = 40  # Newton steps of the sum-of-squares certificate at most
INCONCLUSIVE_FACTOR = 10.0  # width of the inconclusive band above the tolerance
CY_ABS_FLOOR = 1e-9  # a Cotton-York norm below this passes as conformally flat
NOISE_FLOOR = 1e4  # a Weyl operator at most this many roundings of its terms passes as conformally flat
_U = 1.001 * 2.0**-53  # unit roundoff, rounded up: k _U bounds gamma_k = k u / (1 - k u), k < 1e12


@dataclass
class ObstructionConfig:
    """Tolerance and search settings; every field is echoed in the
    ``tolerances`` of each report whose test reads it, with the tolerance
    constants above that the test uses.  The note gives the search's
    iterations (MAX_ITER caps them) and, for a certified "fails", the
    Newton steps of the certificate that ran after the search (SOS_STEPS
    caps them)."""

    tol_rel: float = 1e-8
    starts: int = 64
    seed: int = 0


@dataclass
class ObstructionReport:
    """Outcome of one necessary-condition test.

    ``verdict`` True means the necessary condition holds (NOT an existence
    claim); False certifies non-existence of an LCW near the point; None is
    the inconclusive band.  An eigenflag False carries ``certificate`` and ``lower_bound`` <= min F.
    """

    dim: int
    test: str
    verdict: bool | None
    witness: np.ndarray | None = None
    residual: float | None = None
    lower_bound: float | None = None
    certificate: str | None = None
    det_cy: float | None = None
    plane: np.ndarray | None = None
    eigen_data: dict | None = None
    tolerances: dict = field(default_factory=dict)
    note: str = ""

    @property
    def verdict_string(self):
        return {True: "passes_necessary", False: "fails_lcw_necessary"}.get(self.verdict, "inconclusive")

    def to_json_dict(self):
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["verdict"] = self.verdict_string
        return doc


_PASS_NOTE = (
    "necessary condition holds; this does NOT certify that a limiting "
    "Carleman weight exists"
)
_FAIL_NOTE = "necessary condition fails: no limiting Carleman weight exists near this point"
_BAND_NOTE = f" lies within a factor {INCONCLUSIVE_FACTOR:g} of the tolerance; inconclusive"


def _cube_safe(a):
    """``a``, or a / 2^k once ||a||^3 could overflow (max|a| past 2^300),
    for the scale-free determinant ratio and plane of a 3x3 matrix.  Not
    always a / 2^k: np.linalg.det of the scaled matrix rounds differently."""
    scaled, k = _pow2_scaled(a)
    return a if k <= 300 else scaled


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
    t = np.concatenate([w.ravel(), -w.ravel(), [0.0]])[_0_4_gather(n)]  # T of the symmetric w
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


@np.errstate(over="ignore", invalid="ignore")  # past the float range: inf or nan, refused below
def eigenflag_residual(op: CurvatureOperator, v) -> float:
    """Flag-invariance defect of the unit vector v; zero iff W leaves
    v ^ v-perp invariant.  Independent of how v is completed to a frame."""
    if op.dim < 4:
        raise DimensionError("eigenflag residual needs dim >= 4")
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    _require_small(nv - 1.0, INPUT_TOL, 1.0, "v must be a unit vector", PreconditionViolation)
    f = float(_residual_batch(op.mat, v[None, :] / nv)[0][0])
    if not math.isfinite(f):
        raise DomainError("Weyl operator too large: its residual is not a finite number")
    return max(f, 0.0)  # cancellation can leave a tiny negative


def _eigen_candidate_starts(vecs, n):
    """Factor (near-)simple eigenvectors of W (columns of ``vecs``) into
    plane vectors; these are high-quality starting points for the flag search."""
    i, j = _pair_grid(n)[:2]  # the lex pairs as (m, 1) index columns
    a = np.zeros((vecs.shape[1], n, n))
    a[:, i, j] = vecs.T[..., None]
    a[:, j, i] = -vecs.T[..., None]
    u = np.linalg.svd(a)[0]  # (N, n, n); the plane is u[:, :, :2]
    return u[:, :, :2].transpose(0, 2, 1).reshape(-1, n)


# -- sum-of-squares certificate -----------------------------------------------


@lru_cache(maxsize=None)
def _syzygies(n):
    """(rows, cols, coef), each (p, 4): L_i = sum_k coef[i, k] e_rows e_cols^T.
    Gram entry P = (i, j), i <= j, carries a quartic monomial with weight
    w = 1 (i = j) or 2; L = w0 E(P) - w E(P0), P0 its monomial's first entry."""
    a, b, _ = _sym2_pairs(n)
    i, j = np.triu_indices(len(a))
    code = np.sort(np.stack([a[i], b[i], a[j], b[j]]), axis=0).T @ n ** np.arange(4)
    order = np.argsort(code, kind="stable")
    new = np.r_[True, np.diff(code[order]) != 0]  # each monomial's first entry
    rest, first = order[~new], order[np.maximum.accumulate(np.where(new, np.arange(len(i)), 0))][~new]
    ip, jp, i0, j0 = i[rest], j[rest], i[first], j[first]
    w0, wp = 2.0 - (i0 == j0), 2.0 - (ip == jp)
    coef = np.stack([w0, w0 * (ip != jp), -wp, -wp * (i0 != j0)], axis=1)
    return np.stack([ip, jp, i0, j0], axis=1), np.stack([jp, ip, j0, i0], axis=1), coef


def _rounding_allowance(n, wsq):
    """A bound on |z^T Q0 z - F(v)|, ||v|| = 1, for Q0 rounded from W, ||W||^2 = wsq:
    each entry sums products of T's entries (||T||^2 = 4 wsq) of absolute sum
    <= 6 ||T||^2 in n^2 + n + 8 roundings, and |z^T E z| <= s max|E|."""
    return 24.0 * (n * (n + 1) // 2) * (n * n + n + 8) * _U * wsq


def _cholesky(m):
    """The Cholesky factor of m, or None if the factorisation fails."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def _sos_bound(form, n, target, wsq):
    """(bound, Newton steps): a proved lower bound on min F over the sphere
    (None if the proof fails).  Maximizes gamma subject to Q0 + sum t_i L_i
    - gamma D >= 0 by a long-step barrier method on (t, gamma), with the
    Hessian tr(X L_i X L_j) gathered from X L_j X, an exact line search and
    tau x30 once centred.  It stops once lambda_min(Q(t)) against D exceeds
    ``target``, once the gap (s + sqrt(s)) / tau rules that out, or after
    SOS_STEPS steps; that candidate is proved by a Cholesky factorisation,
    less the rounding of Q0 and of Q(t)."""
    c, a, b = form
    rows, cols, coef = _syzygies(n)
    s, p = len(a), len(rows)
    d = 2.0 - (a == b)
    q0 = c.reshape(s, n, n)[:, a, b] * d
    q0 = 0.5 * (q0 + q0.T)
    dd, dh, flat = np.diag(d), 1.0 / np.sqrt(d), (rows * s + cols).ravel()
    # X L_j X is symmetric: tr(L_i X L_j X) reads each mirrored pair once
    upper, weight = (rows[:, ::2], cols[:, ::2]), coef[:, ::2] + coef[:, 1::2]
    q0_norm, allowance = float(np.linalg.norm(q0)), _rounding_allowance(n, wsq)

    def lift(t):  # sum t_i L_i
        return np.bincount(flat, (coef * t[:, None]).ravel(), s * s).reshape(s, s)

    t, q, h, gam, tau, steps = np.zeros(p), q0, np.empty((p + 1, p + 1)), None, None, 0
    while True:
        lam = float(np.linalg.eigvalsh(q * dh[:, None] * dh)[0])
        if gam is None:  # the start: t = 0, strictly inside
            gam = lam - 0.05 * max(abs(lam), 1e-3 * q0_norm)
            refuted = (chol := _cholesky(q0 - gam * dd)) is None
        beta = lam - 8.0 * (s + 2) * _U * (np.abs(np.diag(q)).sum() + abs(lam) * d.sum())
        bound = beta - allowance - (p + 1) * _U * (q0_norm + 4.0 * np.abs(t).sum())
        if bound > target or refuted or steps == SOS_STEPS:
            # a Cholesky of Q(t) - beta D - c I, c twice Rump's backward error bound (BIT 46, 2006)
            m = q - beta * dd
            m[np.diag_indices(s)] -= 2.0 * (s + 1) * _U * np.abs(np.diag(m)).sum()
            return (None if _cholesky(m) is None else bound), steps
        steps += 1
        li = np.linalg.inv(chol)
        x = li.T @ li
        xd = x * d
        tau = tau or float(np.trace(xd))  # the start is centred in gamma
        for k in (slice(j, min(j + 32, p)) for j in range(0, p, 32)):  # X L_j X, in chunks of 32 j
            tj = (x.take(rows[k], axis=0) * coef[k, :, None]).transpose(0, 2, 1) @ x.take(cols[k], axis=0)
            h[k, :p] = np.einsum("jik,ik->ji", tj[(slice(None),) + upper], weight)
        h[:p, p] = h[p, :p] = -np.einsum("ik,ik->i", (xd @ x)[upper], weight)
        h[p, p] = np.einsum("ab,ba->", xd, xd)
        g = np.r_[-np.einsum("ik,ik->i", x[upper], weight), np.trace(xd) - tau]
        dx = -np.linalg.solve(h, g)
        decrement = math.sqrt(max(-float(g @ dx), 0.0))
        mu = np.linalg.eigvalsh(li @ (lift(dx[:p]) - dx[p] * dd) @ li.T)
        amax = -1.0 / mu[0] if mu[0] < 0 else np.inf
        alpha = min(1.0, 0.5 * amax)
        for _ in range(6):  # Newton on -tau alpha dgamma - sum log(1 + alpha mu)
            r = mu / (1.0 + alpha * mu)
            alpha = min(max(alpha + (tau * dx[p] + r.sum()) / (r @ r), 0.5 * alpha), 0.5 * (alpha + amax))
        t, gam = t + alpha * dx[:p], gam + alpha * dx[p]
        q = q0 + lift(t)
        chol = _cholesky(q - gam * dd)  # None: S lost definiteness by rounding, so stop
        centred = decrement < 0.25 or alpha >= 0.99
        refuted = chol is None or centred and gam + (s + math.sqrt(s)) / tau <= target
        tau *= 30.0 if centred else 1.0


@lru_cache(maxsize=8)  # check --starts allows 100 000 starts, 4.8 MB in dim 6
def _unit_starts(seed, starts, n):
    """The seeded random unit starts of the search, shared read-only."""
    v = np.random.default_rng(seed).standard_normal((starts, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v.setflags(write=False)
    return v


def _minimize_residual(form, n, scale, config, vecs):
    """Multi-start projected gradient descent on the sphere, for a witness of
    a pass: (best residual, best v, iterations, converged flag) of ``form``,
    the residual of an operator with ||W||^2 = ``scale``, deterministic for a
    fixed seed: the random starts are drawn once per (seed, starts, n) and
    shared read-only (``_unit_starts``).  Every step moves the whole batch.
    Stops at the first minimum <= tol_rel * scale, at its first plateau (the
    minimum above PLATEAU_RATIO of its value PLATEAU_WINDOW steps before) or
    at MAX_ITER.  It proves nothing: the certificate of a "fails" runs after
    it, in ``eigenflag_test``."""
    cand = _eigen_candidate_starts(vecs, n)
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    v = np.vstack([_unit_starts(config.seed, config.starts, n), cand])
    accept = config.tol_rel * scale

    def evaluate(x):  # F and its gradient along the sphere (v . grad F = 4 F)
        fx, grad = _residual_eval(form, x)
        return fx, grad - 4.0 * fx[:, None] * x

    f, rgrad = evaluate(v)
    step = np.full(v.shape[0], 0.5 / scale)
    history = [float(f.min())]  # the minimum after each step
    while True:
        it, fmin = len(history) - 1, history[-1]
        if (fmin <= accept or it == MAX_ITER
                or it >= PLATEAU_WINDOW and fmin > PLATEAU_RATIO * history[-1 - PLATEAU_WINDOW]):
            break
        trial = v - step[:, None] * rgrad
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        ft, rgt = evaluate(trial)
        improved = ft <= f
        step *= np.where(improved, 1.3, 0.4)
        v = np.where(improved[:, None], trial, v)
        f = np.where(improved, ft, f)
        rgrad = np.where(improved[:, None], rgt, rgrad)
        history.append(float(f.min()))
    best = int(np.argmin(f))
    return float(f[best]), v[best].copy(), it, bool(rgrad[best] @ rgrad[best] <= (GRAD_TOL * scale) ** 2)


def eigenflag_test(op: CurvatureOperator, config: ObstructionConfig | None = None) -> ObstructionReport:
    """The ``_band`` of the search minimum over ||W||^2, where a "fails"
    needs a proof of min F above the band top (else it is inconclusive):
    the search looks only for a witness, and ``_sos_bound`` runs once after
    it, on the same residual form, when the band says "fails".

    The dim-4 precheck: in the basis (e_i of v ^ v-perp, *e_i of
    Lambda^2(v-perp)), W commutes with *, so W = [[A, B], [B, A]] with B
    symmetric, F(v) = ||B||_F^2 and W+- = A +- B.  W+- are traceless, so
    tr B = 0 and ||B||_2 <= sqrt(2/3) ||B||_F.  By Weyl's inequality
    |lambda_k(W+) - lambda_k(W-)| <= 2 ||B||_2 <= sqrt(8/3) sqrt(F(v)) for
    every v.  So a mismatch of the sorted spectra (less 64 eps ||W|| for
    rounding) above sqrt(8/3 INCONCLUSIVE_FACTOR tol_rel) ||W|| proves
    min F above the band top, with lower bound 3/8 mismatch^2.
    """
    return _eigenflag_test(op, None, config or ObstructionConfig())


def _eigenflag_test(op, size, config):
    """``eigenflag_test``; where the size T of the terms W was summed from
    is known (``size``, from ``_frame_curvature``), a noise ratio ||W|| / (u T)
    at most NOISE_FLOOR passes as W = 0 to rounding: a passing flag
    operator moved by rounding keeps its verdict only above 1 / sqrt(tol_rel)."""
    if op.dim < 4:
        raise DimensionError("eigenflag test needs dim >= 4")
    w = op.mat
    scaled, k = _pow2_scaled(w)  # norm squares the entries: near 1e-160 they underflow
    with np.errstate(over="ignore"):
        wnorm = float(np.ldexp(np.linalg.norm(scaled), k))
    if not math.isfinite(wnorm * wnorm):
        # the verdict compares the residual with tol_rel * ||W||^2
        raise DomainError("Weyl operator too large: its squared norm is not a finite number")
    vals, vecs = np.linalg.eigh(w)
    report = ObstructionReport(
        dim=op.dim, test="eigenflag", verdict=True, residual=0.0, eigen_data={"eigenvalues": vals},
        tolerances={"tol_rel": config.tol_rel, "starts": config.starts, "seed": config.seed,
                    "grad_tol": GRAD_TOL, "inconclusive_factor": INCONCLUSIVE_FACTOR},
    )
    if size is not None:
        report.tolerances["noise_floor"] = NOISE_FLOOR
    if wnorm == 0.0 or size is not None and (rho := wnorm / _U / size) <= NOISE_FLOOR:
        report.note = ("Weyl operator vanishes" if wnorm == 0.0 else f"Weyl operator is rounding noise: ||W|| / (u T) = "
                       f"{rho:.2e} <= {NOISE_FLOOR:g}, T the size of its terms") + "; every direction is invariant. " + _PASS_NOTE
        return report

    if op.dim == 4:
        split = pm_split(op)
        sp = np.sort(np.linalg.eigvalsh(split.wplus))
        sm = np.sort(np.linalg.eigvalsh(split.wminus))
        # rounding moves the mismatch of an exact flag operator by < 5 eps ||W||
        mismatch = float(np.abs(sp - sm).max()) - 64.0 * _U * wnorm
        spectral_tol = math.sqrt(8.0 / 3.0 * INCONCLUSIVE_FACTOR * config.tol_rel) * wnorm
        report.tolerances["spectral_tol"] = spectral_tol
        report.eigen_data["plus_spectrum"] = sp
        report.eigen_data["minus_spectrum"] = sm
        if mismatch > spectral_tol:
            report.verdict, report.residual = False, None
            report.certificate, report.lower_bound = "spectral", 0.375 * mismatch**2
            report.note = (
                "self-dual and anti-self-dual spectra differ by "
                f"{mismatch:.3e} > {spectral_tol:.3e}; a flag-invariant "
                "operator must have isospectral blocks. " + _FAIL_NOTE
            )
            return report

    mantissa, e = math.frexp(wnorm)  # W / 2^e: exact, no underflow, and ||W / 2^e|| < 1
    scale = mantissa**2
    form = _residual_form(np.ldexp(w, -e), op.dim)
    f, vbest, iters, converged = _minimize_residual(form, op.dim, scale, config, vecs)
    report.residual = fmin = max(math.ldexp(f, 2 * e), 0.0)  # 0 below the float range
    report.verdict = _band(max(f, 0.0) / scale, config.tol_rel)
    band_top, starts = INCONCLUSIVE_FACTOR * config.tol_rel, config.starts + 2 * len(vecs)
    if report.verdict:
        report.witness = vbest
    if report.verdict is not False:
        tail = f" <= {config.tol_rel:.1e} * ||W||^2. " + _PASS_NOTE if report.verdict else _BAND_NOTE
    else:
        top = config.tol_rel * scale * INCONCLUSIVE_FACTOR  # the band top of W / 2^e
        bound, newton = _sos_bound(form, op.dim, top, 1.0)  # ||W / 2^e|| < 1
        if bound is None or bound <= top:  # a loose bound costs the verdict; it never gives a wrong "fails"
            report.verdict = None
            tail = (f" over {starts} starts lies above {band_top:.1e} * ||W||^2, but no "
                    "sum-of-squares certificate was found; inconclusive")
        else:
            report.certificate, report.lower_bound = "sos", math.ldexp(bound, 2 * e)
            tail = (f" (sum-of-squares lower bound {report.lower_bound:.3e} > {band_top:.1e} * ||W||^2, "
                    f"{newton} Newton steps) over {starts} starts. " + _FAIL_NOTE)
    report.note = f"minimum residual {fmin:.3e}" + tail + f" ({iters} iterations, converged={converged})"
    return report


# -- dimension 3: Cotton-York determinant test --------------------------------


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf or nan past the float range, refused by the gates; det of subnormal entries underflows
def plane_from_traceless_degenerate(a, tol=1e-8):
    """Given a symmetric 3x3 matrix with trace and determinant (near) zero,
    return (plane, normal) with <A p, p'> = 0 for p, p' in the plane and
    <A w, w> = 0 for the normal.

    Eigenvalues are (lam, -lam, 0); the plane is spanned by the sum of the
    two opposite-eigenvalue directions and the kernel direction, the normal
    is their difference.  Past 2^300 (where the tolerances are relative)
    the matrix is tested and decomposed as a / 2^k.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise DimensionError("expected a 3x3 matrix")
    a = _cube_safe(a)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([0.0, 0.0, 1.0])
    # a computed CY, not an input: its rounding scales with the terms summed, not the result, so
    # the floor at 1 stays until that size is known (ROADMAP items 1 and 4)
    floor = max(norm, 1.0)
    _require_small(a - a.T, tol, floor, "matrix is not symmetric", PreconditionViolation)
    trace = np.trace(a)
    _require_small(trace, tol, floor, f"trace {trace:g} not within tolerance of zero", PreconditionViolation)
    det = np.linalg.det(a)
    _require_small(det, tol, max(norm**3, 1.0), f"determinant {det:g} not within tolerance of zero", PreconditionViolation)
    vals, vecs = np.linalg.eigh(a)
    k = int(np.argmin(np.abs(vals)))
    lo, hi = [i for i in range(3) if i != k]  # eigh sorts the eigenvalues: two equal ones stay apart
    vp, vm, v3 = vecs[:, hi], vecs[:, lo], vecs[:, k]
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
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the float range, refused below
        norm = float(np.linalg.norm(a))
        det_cy, det_frame = float(np.linalg.det(cy)), float(np.linalg.det(a))
    if not (math.isfinite(det_cy) and math.isfinite(det_frame)):
        raise DomainError("Cotton-York tensor too large: its determinant is not a finite number")
    report = ObstructionReport(
        dim=3, test="cotton-york", verdict=True, det_cy=det_cy, residual=abs(det_frame),
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
    b = _cube_safe(a)
    ratio = abs(float(np.linalg.det(b))) / float(np.linalg.norm(b)) ** 3
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


@lru_cache(maxsize=None)
def _kn_identity(n):
    """(m, m, n^2): the lex-pair matrix of the Kulkarni-Nomizu product
    S ^o I, linear in S.ravel()."""
    kn = _antisym_pairs(np.eye(n * n).reshape(-1, n, 1, n, 1) * np.eye(n)[:, None, :])  # [s, i, j, k, l] = e_s[i, k] I[j, l]
    return np.moveaxis(kn[(slice(None), *_pair_grid(n))], 0, -1).copy()


@np.errstate(over="ignore", invalid="ignore")  # past the float range: inf or nan, refused by the readers
def _frame_curvature(jets, point):
    """(E, Gamma, R, T) from the 2-jet prefix of the metric's Taylor
    coefficients ``jets`` (n, n, size) at ``point``: E a g-orthonormal frame
    (columns) and, in it, the Christoffel symbols Gamma[p, k, l], the Riemann
    tensor R and T = (max|d^2 g| + max|Gamma . Gamma|) / 2, the size of R's
    terms.  In the frame g = I, so raising an index is the identity and the
    pipeline's R is the pair antisymmetrization of (d_k d_l g_im + Gamma_{p,kl} Gamma_{p,im}) / 2."""
    n = len(point)
    _check_metric(jets[..., 0], point)
    g, dg, ddg = _metric_partials(jet_space(n, 2), jets)
    if not (np.isfinite(dg).all() and np.isfinite(ddg).all()):
        raise DomainError(f"metric derivatives not finite at {point.tolist()}")
    e = orthonormal_frame(g)
    dg, ddg = _to_frame(dg, e), _to_frame(ddg, e).reshape(n * n, n * n)
    gam1 = 0.5 * (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg).reshape(n, n * n)  # [p, (k, l)]
    quad = gam1.T @ gam1
    r = _antisym_pairs(0.5 * (ddg + quad).reshape(n, n, n, n).transpose(2, 0, 1, 3))
    return e, gam1.reshape(n, n, n), r, 0.5 * np.abs(ddg).max() + 0.5 * np.abs(quad).max()


@np.errstate(over="ignore", invalid="ignore")  # past the float range: inf or nan, refused below
def _frame_weyl(r, point):
    """The Weyl operator of the frame Riemann tensor ``r`` at ``point``:
    Ric[k, m] = R[a, k, a, m], W = R - S ^o I."""
    n = len(r)
    ric = np.einsum("akam->km", r)
    schouten = (ric - np.trace(ric) / (2.0 * (n - 1)) * np.eye(n)) / (n - 2)
    w = _lex_pair_matrix(r) - _kn_identity(n) @ schouten.ravel()
    if not np.isfinite(w).all():
        raise DomainError(f"Weyl tensor not finite at {point.tolist()}")
    # pair-symmetric by its formula: mirrored entries differ by roundings of T, which can exceed INPUT_TOL of max|W|
    return CurvatureOperator(dim=n, mat=0.5 * w + 0.5 * w.T)


def auto_test(metric: MetricDef, point, config: ObstructionConfig | None = None) -> ObstructionReport:
    """Dimension dispatch: Cotton-York determinant in dim 3, Weyl eigenflag
    in dim >= 4, where the Weyl operator at the point reads only the
    metric's 2-jet (``_frame_curvature``, then ``_frame_weyl``)."""
    config = config or ObstructionConfig()
    if metric.dim == 3:
        return cotton_york_test(metric, point, config)
    if metric.dim >= 4:
        point = np.asarray(point, dtype=float)  # the metric refuses a point of the wrong length
        _, _, r, size = _frame_curvature(metric.eval_jets(point, 2), point)
        return _eigenflag_test(_frame_weyl(r, point), size, config)
    raise DimensionError("obstruction tests need dim >= 3")
