"""Obstruction decision procedures: eigenflag residual and test, simple
eigenbivectors, Cotton-York determinant test, degenerate-plane recovery."""

import numpy as np
import pytest

from lcwcheck.bivectors import (
    CurvatureOperator,
    hodge_star_matrix,
    lex_pairs,
    operator_from_0_4,
    phi_map,
    pm_basis_matrix,
    pm_split,
    random_weyl_operator,
    rotate_operator,
    sample_eigenflag_params,
)
from lcwcheck import obstructions
from lcwcheck.catalog import get_entry, product_with_line, random_metric_near_flat
from lcwcheck.errors import DimensionError, DomainError, PreconditionViolation
from lcwcheck.obstructions import (
    GRAD_TOL,
    INCONCLUSIVE_FACTOR,
    MAX_ITER,
    PLATEAU_RATIO,
    PLATEAU_WINDOW,
    ObstructionConfig,
    auto_test,
    cotton_york_test,
    eigenflag_residual,
    eigenflag_test,
    plane_from_traceless_degenerate,
)
from lcwcheck.obstructions import (
    _BAND_NOTE,
    _minimize_residual,
    _residual_batch,
    _residual_form,
    _rounding_allowance,
    _sos_bound,
    _unit_starts,
)
from lcwcheck.dsl import parse_metric
from lcwcheck.pipeline import JetPipeline, compute_snapshot, format_json


def _random_rotation(n, rng):
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q @ np.diag(np.sign(np.diag(r)))


def _cp2_weyl():
    u = pm_basis_matrix()
    b = np.zeros((6, 6))
    b[:3, :3] = np.diag([4.0, -2.0, -2.0])
    return CurvatureOperator(dim=4, mat=u @ b @ u.T)


# --- residual -------------------------------------------------------------------


def test_residual_zero_operator():
    op = CurvatureOperator(dim=4, mat=np.zeros((6, 6)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert eigenflag_residual(op, v) == 0.0


def test_residual_at_phi_witness(rng):
    for n in (4, 5):
        params = sample_eigenflag_params(n, rng)
        w = phi_map(params)
        v = params.rotation[:, 0]
        assert eigenflag_residual(w, v) <= 1e-10 * np.linalg.norm(w.mat) ** 2


def test_residual_cp2_floor():
    """Brute-force sphere sweep: the residual of the Fubini-Study Weyl
    operator is bounded below by a positive constant everywhere."""
    w = _cp2_weyl()
    rng = np.random.default_rng(1)
    vs = rng.standard_normal((10_000, 4))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    from lcwcheck.obstructions import _residual_batch

    f, _ = _residual_batch(w.mat, vs)
    assert f.min() > 0.1 * np.linalg.norm(w.mat) ** 2


def test_residual_completion_independent(rng):
    # same v, rotated operator with rotated v: equivariance
    w = random_weyl_operator(5, rng)
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    for _ in range(5):
        rho = _random_rotation(5, rng)
        lhs = eigenflag_residual(rotate_operator(w, rho), rho @ v)
        rhs = eigenflag_residual(w, v)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def _projector_residual(w, v):
    """F = tr(Q W^2) - tr(Q W Q W), Q the second compound of I - v v^T:
    the projection of Lambda^2 onto Lambda^2(v-perp)."""
    s = np.eye(len(v)) - np.outer(v, v)
    i, j = np.array(lex_pairs(len(v))).T
    q = s[np.ix_(i, i)] * s[np.ix_(j, j)] - s[np.ix_(i, j)] * s[np.ix_(j, i)]
    return np.trace(q @ w @ w) - np.trace(q @ w @ q @ w)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_residual_closed_form_matches_projector_form(rng, n):
    ops = [random_weyl_operator(n, rng) for _ in range(2)]
    ops += [phi_map(sample_eigenflag_params(n, rng)) for _ in range(2)]
    for op in ops:
        w = op.mat
        scale = np.linalg.norm(w) ** 2
        v = rng.standard_normal((200, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        f, grad = _residual_batch(w, v)
        ref = np.array([_projector_residual(w, x) for x in v])
        assert np.abs(f - ref).max() <= 1e-12 * scale
        # the gradient along the sphere (tangent t) against central
        # differences along great circles
        h = 1e-5
        for x, g in zip(v[:10], grad[:10]):
            t = rng.standard_normal(n)
            t -= (t @ x) * x
            t /= np.linalg.norm(t)
            fd = (_projector_residual(w, np.cos(h) * x + np.sin(h) * t)
                  - _projector_residual(w, np.cos(h) * x - np.sin(h) * t)) / (2 * h)
            assert abs(g @ t - fd) <= 1e-8 * scale


def test_residual_form_gradient_and_hessian(rng):
    """The form's ambient gradient 4 C(v, v, v, .) and Hessian
    12 C(v, v, ., .) against central differences of the projector form
    along great circles: d/dh F = grad . t and d^2/dh^2 F = t^T H t - v . grad
    at h = 0 for a unit tangent t.  Along v, grad . v = 4 F (Euler)."""
    for n in (4, 5, 6):
        for op in (random_weyl_operator(n, rng), phi_map(sample_eigenflag_params(n, rng))):
            w = op.mat
            scale = np.linalg.norm(w) ** 2
            c, a, b = _residual_form(w, n)
            v = rng.standard_normal((5, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            f, grad = _residual_batch(w, v)
            for x, fx, g in zip(v, f, grad):
                hess = 12.0 * ((x[a] * x[b]) @ c).reshape(n, n)
                assert np.abs(hess - hess.T).max() <= 1e-13 * scale
                assert abs(g @ x - 4.0 * fx) <= 1e-13 * scale
                t = rng.standard_normal(n)
                t -= (t @ x) * x
                t /= np.linalg.norm(t)
                fp, f0, fm = (_projector_residual(w, np.cos(h) * x + np.sin(h) * t) for h in (1e-4, 0.0, -1e-4))
                assert abs(g @ t - (fp - fm) / 2e-4) <= 1e-7 * scale
                assert abs(t @ hess @ t - g @ x - (fp - 2.0 * f0 + fm) / 1e-8) <= 1e-5 * scale


# The search as it stood with the two-GEMM quartic F = 1/2 v^T M v - ||J_v||^2
# and gathered steps; the Sym^2 form must reproduce its verdicts, its "fails"
# minima and its iteration counts.


def _ref_quartic(w, n):
    from lcwcheck.bivectors import operator_to_0_4

    t = operator_to_0_4(CurvatureOperator(dim=n, mat=w))
    tm = t.transpose(2, 0, 1, 3).reshape(n, -1)
    u = t.transpose(1, 2, 0, 3) + t.transpose(2, 1, 0, 3)
    return tm @ tm.T, u.reshape(n * n, n * n)


def _ref_batch_quartic(m, u, v_batch):
    b, n = v_batch.shape
    j = 0.5 * ((v_batch[:, :, None] * v_batch[:, None, :]).reshape(b, -1) @ u)
    mv = v_batch @ m
    f = 0.5 * np.einsum("bi,bi->b", mv, v_batch) - np.einsum("bi,bi->b", j, j)
    dj = (j @ u.T).reshape(b, n, n)
    grad = mv - 2.0 * np.einsum("bpi,bi->bp", dj, v_batch)
    return f, grad


def _ref_eigen_candidate_starts(w, n):
    _, vecs = np.linalg.eigh(w)
    i, j = np.array(lex_pairs(n)).T
    a = np.zeros((vecs.shape[1], n, n))
    a[:, i, j] = vecs.T
    a[:, j, i] = -vecs.T
    u = np.linalg.svd(a)[0]
    return u[:, :, :2].transpose(0, 2, 1).reshape(-1, n)


def _ref_minimize_residual(w, n, config):
    rng = np.random.default_rng(config.seed)
    starts = rng.standard_normal((config.starts, n))
    v = np.vstack([starts, _ref_eigen_candidate_starts(w, n)])
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    scale = max(np.linalg.norm(w) ** 2, 1e-300)
    accept = config.tol_rel * scale
    m, u = _ref_quartic(w, n)
    f, grad = _ref_batch_quartic(m, u, v)
    rgrad = grad - np.einsum("bi,bi->b", grad, v)[:, None] * v
    step = np.full(v.shape[0], 0.5 / scale)
    active = np.ones(v.shape[0], dtype=bool)
    history = [float(f.min())]
    while True:
        it, fmin = len(history) - 1, history[-1]
        if fmin <= accept:
            break
        if it >= PLATEAU_WINDOW and fmin > PLATEAU_RATIO * history[-1 - PLATEAU_WINDOW]:
            break
        gn = np.linalg.norm(rgrad, axis=1)
        active &= gn > GRAD_TOL * scale
        active &= step > 1e-18 / scale
        if it == MAX_ITER or not active.any():
            break
        idx = np.flatnonzero(active)
        trial = v[idx] - step[idx, None] * rgrad[idx]
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        ft, gradt = _ref_batch_quartic(m, u, trial)
        improved = ft <= f[idx]
        take = idx[improved]
        step[take] *= 1.3
        step[idx[~improved]] *= 0.4
        v[take] = trial[improved]
        f[take] = ft[improved]
        grad[take] = gradt[improved]
        rgrad[take] = grad[take] - np.einsum("bi,bi->b", grad[take], v[take])[:, None] * v[take]
        history.append(float(f.min()))
    best = int(np.argmin(f))
    gn = np.linalg.norm(rgrad[best])
    return max(float(f[best]), 0.0), v[best].copy(), it, bool(gn <= GRAD_TOL * scale)


def _search(w, n, config):
    """The search alone on W: (minimum, witness, iterations, converged)."""
    return _minimize_residual(_residual_form(w, n), n, np.linalg.norm(w) ** 2, config, np.linalg.eigh(w)[1])


def _near_flat_weyl(n, rng):
    pl = JetPipeline(random_metric_near_flat(n, rng), rng.uniform(-0.2, 0.2, n))
    return operator_from_0_4(pl.weyl(), g=pl.g)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_minimize_residual_matches_reference_search(rng, n):
    config = ObstructionConfig()
    ops = [random_weyl_operator(n, rng) for _ in range(3)]
    ops += [phi_map(sample_eigenflag_params(n, rng)) for _ in range(3)]
    ops += [_near_flat_weyl(n, rng) for _ in range(3)]
    fails = 0
    for i, op in enumerate(ops):
        w = op.mat
        scale = np.linalg.norm(w) ** 2
        config.seed = i
        ref = _ref_minimize_residual(w.copy(), n, config)
        new = _search(w.copy(), n, config)
        band = config.tol_rel * scale
        assert (new[0] <= band) == (ref[0] <= band)
        assert (new[0] <= INCONCLUSIVE_FACTOR * band) == (ref[0] <= INCONCLUSIVE_FACTOR * band)
        if ref[0] > INCONCLUSIVE_FACTOR * band:
            fails += 1
            assert abs(new[0] - ref[0]) <= 1e-14 * scale
            assert new[2] == ref[2]
    assert fails >= 6  # random and near-flat operators have no flag


def test_eigenflag_search_is_scale_free(rng):
    """W and 2^-300 W (norm about 1e-90, squared gradient norms far below
    the smallest float) take the same search: same verdict and iterations,
    residual and lower bound scaled by 2^-600."""
    for op in (random_weyl_operator(5, rng), phi_map(sample_eigenflag_params(5, rng))):
        tiny = CurvatureOperator(dim=5, mat=np.ldexp(op.mat, -300))
        a, b = eigenflag_test(op), eigenflag_test(tiny)
        assert a.verdict == b.verdict
        assert a.note.split("(")[-1] == b.note.split("(")[-1]  # iterations, converged
        assert abs(np.ldexp(a.residual, -600) - b.residual) <= 1e-12 * np.linalg.norm(tiny.mat) ** 2
        assert (a.lower_bound, b.lower_bound) == (None, None) or np.ldexp(a.lower_bound, -600) == b.lower_bound


@pytest.mark.parametrize("n", [4, 5, 6])
def test_eigenflag_on_a_tiny_operator_keeps_its_verdict(n):
    """Entries near 1e-200 used to underflow ||W|| to 0, so a certified
    "fails" read "Weyl operator vanishes" and passed.  A residual or lower
    bound below the float range is 0."""
    rng = np.random.default_rng(0)
    for op in (random_weyl_operator(n, rng), phi_map(sample_eigenflag_params(n, rng))):
        a = eigenflag_test(op)
        for scale in (1e-160, 1e-200, 1e-300):
            b = eigenflag_test(CurvatureOperator(dim=n, mat=op.mat * scale))
            assert (b.verdict, b.certificate) == (a.verdict, a.certificate), (n, scale)
            assert "vanishes" not in b.note
            assert b.residual is None or 0.0 <= b.residual <= max(a.residual * scale, 1e-300)
    tiny = eigenflag_test(CurvatureOperator(dim=5, mat=random_weyl_operator(5, np.random.default_rng(0)).mat * 1e-200))
    assert (tiny.verdict, tiny.certificate, tiny.lower_bound) == (False, "sos", 0.0)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_eigenflag_refuses_an_operator_whose_squared_norm_overflows(n, rng):
    """A planted flag times 1e160 used to come out "fails" with a nan
    residual; the norm check comes before the dim-4 spectral precheck."""
    for op in (phi_map(sample_eigenflag_params(n, rng)), random_weyl_operator(n, rng)):
        huge = CurvatureOperator(dim=n, mat=op.mat * 1e160)
        with pytest.raises(DomainError, match="too large"):
            eigenflag_test(huge)
        assert eigenflag_test(CurvatureOperator(dim=n, mat=op.mat * 1e150)).verdict == eigenflag_test(op).verdict


def test_eigenflag_fail_note_counts_every_start(rng):
    for n, starts in ((5, 0), (5, 64), (6, 64)):
        report = eigenflag_test(random_weyl_operator(n, rng), ObstructionConfig(starts=starts))
        assert report.verdict is False
        assert f"over {starts + n * (n - 1)} starts" in report.note


def test_unit_starts_are_the_seeded_draw_shared_read_only():
    """The cached starts are a fresh draw normalised row by row, bit for
    bit, whatever was cached before; a write raises; the cache keeps its
    bound."""
    maxsize = _unit_starts.cache_info().maxsize
    assert maxsize is not None
    for seed, starts, n in ((0, 64, 4), (0, 64, 5), (7, 64, 6), (3, 1000, 6), (0, 0, 5)):
        v = _unit_starts(seed, starts, n)
        ref = np.random.default_rng(seed).standard_normal((starts, n))
        ref = ref / np.linalg.norm(ref, axis=1, keepdims=True)
        assert v.shape == ref.shape and v.tobytes() == ref.tobytes()
        if starts:
            with pytest.raises(ValueError):
                v[0, 0] = 1.0
    for seed in range(maxsize + 3):
        _unit_starts(seed, 64, 5)
        assert _unit_starts.cache_info().currsize <= maxsize
    assert _unit_starts(0, 64, 5).tobytes() == _unit_starts.__wrapped__(0, 64, 5).tobytes()


def test_eigenflag_report_does_not_depend_on_earlier_calls(rng):
    """One operator's report is the same before and after searches with
    other seeds, start counts and dims, which fill and evict the cache of
    starts."""
    ops = [phi_map(sample_eigenflag_params(5, rng)), random_weyl_operator(6, rng)]
    before = [format_json(eigenflag_test(op).to_json_dict()) for op in ops]
    for seed in range(_unit_starts.cache_info().maxsize + 2):
        for n in (4, 5, 6):
            eigenflag_test(random_weyl_operator(n, rng), ObstructionConfig(seed=seed, starts=16 + seed))
    assert [format_json(eigenflag_test(op).to_json_dict()) for op in ops] == before


def _ref_residual_form(w, n):
    """``_residual_form`` as it stood with the (0,4) tensor of a rebuilt
    CurvatureOperator."""
    from lcwcheck.bivectors import operator_to_0_4

    t = operator_to_0_4(CurvatureOperator(dim=n, mat=w))
    u = t.transpose(1, 2, 0, 3).reshape(n * n, n * n)
    k = (u @ u.T).reshape(n, n, n, n)
    md = np.multiply.outer(np.einsum("lilj->ij", k), np.eye(n))
    s = md + md.transpose(2, 3, 0, 1) - 4.0 * k
    s = s + s.swapaxes(0, 1)
    s = s + s.swapaxes(0, 2) + s.swapaxes(1, 2)
    a, b = np.triu_indices(n)
    return s[a, b].reshape(len(a), n * n) * ((2.0 - (a == b)) / 24.0)[:, None]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_residual_form_gathers_the_0_4_tensor_bit_for_bit(rng, n):
    ops = [random_weyl_operator(n, rng), phi_map(sample_eigenflag_params(n, rng)), _near_flat_weyl(n, rng)]
    for op in ops:
        for w in (op.mat, np.ldexp(op.mat, -300), op.mat * 1e-3):
            w = CurvatureOperator(dim=n, mat=w).mat
            assert _residual_form(w, n)[0].tobytes() == _ref_residual_form(w, n).tobytes()
        vecs = np.linalg.eigh(op.mat)[1]
        assert obstructions._eigen_candidate_starts(vecs, n).tobytes() == _ref_eigen_candidate_starts(op.mat, n).tobytes()


def test_residual_dim3_rejected():
    op = CurvatureOperator(dim=3, mat=np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        eigenflag_residual(op, np.array([1.0, 0.0, 0.0]))


def test_residual_requires_unit_vector():
    op = CurvatureOperator(dim=4, mat=np.zeros((6, 6)))
    with pytest.raises(PreconditionViolation):
        eigenflag_residual(op, np.array([1.0, 1.0, 0.0, 0.0]))


# --- eigenflag test -------------------------------------------------------------


def test_eigenflag_product_metric(rng):
    entry = get_entry("product4_sol")
    p = entry.sample_points(rng, 1)[0]
    snap = compute_snapshot(entry.metric, p)
    op = operator_from_0_4(snap.weyl04, g=snap.g)
    report = eigenflag_test(op, ObstructionConfig())
    assert report.verdict is True
    # the product direction is an exact flag direction
    assert eigenflag_residual(op, np.array([1.0, 0, 0, 0])) <= 1e-12
    assert "NOT" in report.note  # no existence claim


def test_eigenflag_cp2_false():
    report = eigenflag_test(_cp2_weyl(), ObstructionConfig())
    assert report.verdict is False


def test_search_alone_on_an_isotropic_operator_stops_at_its_plateau():
    """CP^2's Weyl operator is isotropic: F is constant on the sphere, so no
    step improves a start, and the search stops at its plateau after
    PLATEAU_WINDOW steps with the minimum it started from.  The reference
    search masks every start (gradient 0) and stops before its first step."""
    w = _cp2_weyl().mat
    fmin, _, iters, converged = _search(w, 4, ObstructionConfig())
    ref = _ref_minimize_residual(w.copy(), 4, ObstructionConfig())
    assert (iters, ref[2]) == (PLATEAU_WINDOW, 0)
    assert abs(fmin - ref[0]) <= 1e-14 * ref[0]
    assert converged and ref[3]


def test_eigenflag_cp2_false_without_precheck():
    """The spectral precheck decides CP^2; the search alone, which the
    precheck skips, finds no flag direction either."""
    w = _cp2_weyl().mat
    assert eigenflag_test(_cp2_weyl(), ObstructionConfig()).verdict is False
    fmin = _search(w, 4, ObstructionConfig())[0]
    assert fmin > 0.1 * np.linalg.norm(w) ** 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_eigenflag_verdict_is_the_band_of_its_own_residual(rng, n):
    """Near-flag operators (a phi_map image plus 1e-3 noise) over a ladder
    of tolerances: each verdict is the band of the report's residual over
    ||W||^2, passes at most tol_rel, inconclusive within INCONCLUSIVE_FACTOR
    above it, fails beyond, and each note and witness is that band's."""
    seen = []
    for i in range(3):
        w = phi_map(sample_eigenflag_params(n, rng)).mat
        op = CurvatureOperator(dim=n, mat=w + 1e-3 * np.linalg.norm(w) * random_weyl_operator(n, rng).mat)
        for tol in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            rep = eigenflag_test(op, ObstructionConfig(tol_rel=tol, seed=i))
            seen.append(rep.verdict)
            if rep.residual is None:  # the dim-4 spectral precheck decided
                assert n == 4 and rep.verdict is False and rep.witness is None
                assert rep.note.startswith("self-dual and anti-self-dual spectra differ by")
                mismatch = np.abs(rep.eigen_data["plus_spectrum"] - rep.eigen_data["minus_spectrum"]).max()
                assert mismatch > rep.tolerances["spectral_tol"]
                assert rep.certificate == "spectral"
                assert INCONCLUSIVE_FACTOR * tol < rep.lower_bound / np.linalg.norm(op.mat) ** 2
                continue
            rel = rep.residual / np.linalg.norm(op.mat) ** 2
            assert rep.note.startswith(f"minimum residual {rep.residual:.3e}")
            assert rep.note.endswith(")") and " iterations, converged=" in rep.note
            if rel <= tol:
                assert rep.verdict is True and rep.witness is not None
                assert f" <= {tol:.1e} * ||W||^2. necessary condition holds; this does NOT" in rep.note
            elif rel <= INCONCLUSIVE_FACTOR * tol:
                assert rep.verdict is None and rep.witness is None
                assert f" lies within a factor {INCONCLUSIVE_FACTOR:g} of the tolerance; inconclusive (" in rep.note
            else:
                assert rep.verdict is False and rep.witness is None
                assert " starts. necessary condition fails: no limiting Carleman weight exists" in rep.note
                assert rep.certificate in ("spectral", "sos")
                assert INCONCLUSIVE_FACTOR * tol < rep.lower_bound / np.linalg.norm(op.mat) ** 2
                assert rep.lower_bound <= rep.residual
    assert None in seen and True in seen and False in seen


def test_eigenflag_distinct_eigenvalues_false(rng):
    # distinct eigenvalues make every eigenvector non-simple: never a flag
    for _ in range(5):
        op = random_weyl_operator(4, rng)
        if np.unique(np.round(np.linalg.eigvalsh(op.mat), 6)).size < 6:
            continue
        report = eigenflag_test(op, ObstructionConfig())
        assert report.verdict is False


def test_eigenflag_phi_images(rng):
    for n in (4, 5):
        for i in range(10):
            params = sample_eigenflag_params(n, rng)
            report = eigenflag_test(phi_map(params), ObstructionConfig(seed=i))
            assert report.verdict is True, report.note
            assert report.witness is not None
            assert abs(np.linalg.norm(report.witness) - 1.0) <= 1e-12


def test_eigenflag_zero_weyl_passes():
    op = CurvatureOperator(dim=4, mat=np.zeros((6, 6)))
    report = eigenflag_test(op, ObstructionConfig())
    assert report.verdict is True
    assert report.residual == 0.0


def test_eigenflag_report_json():
    report = eigenflag_test(_cp2_weyl(), ObstructionConfig())
    import json

    doc = json.loads(format_json(report.to_json_dict()))
    assert doc["verdict"] == "fails_lcw_necessary"
    assert doc["dim"] == 4
    assert "tol_rel" in doc["tolerances"]


def test_eigenflag_equivariance_of_verdict(rng):
    params = sample_eigenflag_params(4, rng)
    w = phi_map(params)
    rho = _random_rotation(4, rng)
    r1 = eigenflag_test(w, ObstructionConfig())
    r2 = eigenflag_test(rotate_operator(w, rho), ObstructionConfig())
    assert r1.verdict == r2.verdict


def _spectral_mismatch(op):
    split = pm_split(op)
    return np.abs(np.sort(np.linalg.eigvalsh(split.wplus)) - np.sort(np.linalg.eigvalsh(split.wminus))).max()


def test_dim4_precheck_fails_only_above_the_band_top():
    """Dim-4 phi_map images plus relative noise 10^U(-5.5, -3) at tol 1e-8:
    every precheck "fails" has its search minimum above the band top, and
    the operators between the old threshold sqrt(10 tol) ||W|| and the new
    one sqrt(8/3 10 tol) ||W|| go to the search instead."""
    rng = np.random.default_rng(2026)
    tol = 1e-8
    config = ObstructionConfig(tol_rel=tol)
    prechecked = between = 0
    for _ in range(300):
        w = phi_map(sample_eigenflag_params(4, rng)).mat
        noise = 10.0 ** rng.uniform(-5.5, -3.0)
        op = CurvatureOperator(dim=4, mat=w + noise * np.linalg.norm(w) * random_weyl_operator(4, rng).mat)
        wsq = np.linalg.norm(op.mat) ** 2
        mismatch = _spectral_mismatch(op)
        if mismatch <= np.sqrt(INCONCLUSIVE_FACTOR * tol * wsq):
            continue
        rep = eigenflag_test(op, config)
        if mismatch <= np.sqrt(8.0 / 3.0 * INCONCLUSIVE_FACTOR * tol * wsq):
            between += 1
            assert rep.certificate != "spectral" and rep.residual is not None
            continue
        prechecked += 1
        assert rep.verdict is False and rep.certificate == "spectral"
        fmin = _search(op.mat, 4, config)[0]
        assert INCONCLUSIVE_FACTOR * tol * wsq < rep.lower_bound <= min(0.375 * mismatch**2, fmin)
    assert prechecked >= 1 and between >= 1


# --- sum-of-squares certificate -----------------------------------------------------


def _scaled_form(w, n):
    """The form of W / 2^e, as the search builds it, and its ||W / 2^e||^2."""
    e = np.frexp(np.linalg.norm(w))[1]
    ws = np.ldexp(w, -e)
    return _residual_form(ws, n), np.linalg.norm(ws) ** 2


def _near_flag(n, rng, noise):
    w = phi_map(sample_eigenflag_params(n, rng)).mat
    return w + noise * np.linalg.norm(w) * random_weyl_operator(n, rng).mat


def _search_min(form, n, w):
    """The search's minimum of the scaled form, with no witness accepted."""
    v = _search(w, n, ObstructionConfig(tol_rel=1e-15))[1]
    return _residual_batch(np.ldexp(w, -np.frexp(np.linalg.norm(w))[1]), v[None, :])[0][0]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sos_bound_certifies_random_and_near_flag_operators(rng, n):
    """Each operator's bound is proved above half its search minimum, and
    never above the minimum itself."""
    ws = [random_weyl_operator(n, rng).mat for _ in range(2)] + [_near_flat_weyl(n, rng).mat]
    ws += [_near_flag(n, rng, noise) for noise in (1e-2, 1e-2, 1e-3, 1e-3)]
    for w in ws:
        form, wsq = _scaled_form(w, n)
        fmin = _search_min(form, n, w)
        bound, steps = _sos_bound(form, n, 0.5 * fmin, wsq)
        assert bound is not None and 0.5 * fmin < bound <= fmin
        assert 1 <= steps <= 20


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sos_bound_holds_at_sampled_unit_vectors(rng, n):
    """Run until it can prove no more than the search minimum, the bound
    lies below F at 10^4 random unit vectors and at the search's witness,
    and within 1e-2 of the minimum."""
    for w in (random_weyl_operator(n, rng).mat, _near_flat_weyl(n, rng).mat, _near_flag(n, rng, 1e-2)):
        form, wsq = _scaled_form(w, n)
        fmin = _search_min(form, n, w)
        bound, _ = _sos_bound(form, n, fmin, wsq)
        v = rng.standard_normal((10_000, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        f, _ = _residual_batch(np.ldexp(w, -np.frexp(np.linalg.norm(w))[1]), v)
        assert bound <= fmin and bound <= f.min()
        assert bound >= 0.99 * fmin


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sos_bound_never_certifies_a_planted_flag(rng, n):
    """No bound above 0 for exact phi_map images, and at a tolerance below
    the rounding floor of F (tol 1e-30) the verdict is never "fails"."""
    for i in range(3):
        op = phi_map(sample_eigenflag_params(n, rng))
        form, wsq = _scaled_form(op.mat, n)
        bound, _ = _sos_bound(form, n, 0.0, wsq)
        assert bound is None or bound <= 0.0
        rep = eigenflag_test(op, ObstructionConfig(tol_rel=1e-30, seed=i))
        assert rep.verdict is not False and rep.certificate is None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sos_bound_covers_the_rounding_of_the_form(rng, n):
    """A planted flag whose form is raised by 0.9 times the rounding
    allowance, F + eps ||v||^4, is not certified above 0: the proof must
    not count on rounding of that size in the form's favour."""
    for _ in range(2):
        w = phi_map(sample_eigenflag_params(n, rng)).mat
        (c, a, b), wsq = _scaled_form(w, n)
        c = c.copy()
        c[np.ix_(np.flatnonzero(a == b), np.arange(n) * (n + 1))] += 0.9 * _rounding_allowance(n, wsq)
        bound, _ = _sos_bound((c, a, b), n, 0.0, wsq)
        assert bound is None or bound <= 0.0


def _count_sos_calls(monkeypatch):
    """The dimension of each later call to ``_sos_bound``, in order."""
    calls = []

    def counting(*args):
        calls.append(args[1])
        return _sos_bound(*args)

    monkeypatch.setattr(obstructions, "_sos_bound", counting)
    return calls


def test_sos_bound_runs_only_where_the_search_finds_no_witness(rng, monkeypatch):
    """Products with a line and exact phi_map images accept at the search
    and never reach the certificate; a random metric reaches it once."""
    calls = _count_sos_calls(monkeypatch)
    for n in (4, 5, 6):
        for _ in range(2):
            metric = product_with_line(random_metric_near_flat(n - 1, rng))
            assert auto_test(metric, rng.uniform(-0.2, 0.2, n)).verdict is True
            assert eigenflag_test(phi_map(sample_eigenflag_params(n, rng))).verdict is True
    assert calls == []
    rep = auto_test(random_metric_near_flat(5, rng), rng.uniform(-0.2, 0.2, 5))
    assert rep.verdict is False and rep.certificate == "sos" and calls == [5]


def _iterations(rep):
    return int(rep.note.split("(")[-1].split()[0])


def test_a_loose_bound_gives_inconclusive_not_fails(monkeypatch):
    """A dim-6 near-flag operator whose residual is not a sum of squares
    (the relaxation's optimum is about -5e-5 ||W||^2, the minimum 1.3e-7
    ||W||^2): the search minimum lies above the band top, but with no
    certificate the verdict is inconclusive.  The certificate runs once,
    after a search that stopped at its plateau, not at MAX_ITER."""
    calls = _count_sos_calls(monkeypatch)
    rng = np.random.default_rng(7)
    for _ in range(9):
        w = _near_flag(6, rng, 1e-3)
    rep = eigenflag_test(CurvatureOperator(dim=6, mat=w), ObstructionConfig(tol_rel=1e-9))
    assert rep.residual > INCONCLUSIVE_FACTOR * 1e-9 * np.linalg.norm(w) ** 2
    assert rep.verdict is None and rep.certificate is None and rep.lower_bound is None
    assert "no sum-of-squares certificate was found; inconclusive" in rep.note
    assert calls == [6] and _iterations(rep) < MAX_ITER


def test_search_stops_at_a_plateau_inside_the_band(monkeypatch):
    """A random dim-6 operator at tol 0.02 has its search minimum inside the
    band: the search stops at its first plateau, well before MAX_ITER, and
    the certificate never runs."""
    calls = _count_sos_calls(monkeypatch)
    rep = eigenflag_test(random_weyl_operator(6, np.random.default_rng(1)), ObstructionConfig(tol_rel=0.02))
    assert rep.verdict is None and rep.note.endswith(_BAND_NOTE + f" ({_iterations(rep)} iterations, converged=False)")
    assert _iterations(rep) <= 4 * PLATEAU_WINDOW < MAX_ITER
    assert calls == []


def test_sos_bound_runs_once_and_only_on_a_fails_band(rng, monkeypatch):
    """Over random and near-flag operators and a ladder of tolerances, the
    certificate runs once for each report whose residual / ||W||^2 bands as
    "fails" and never for a band of True or None."""
    calls = _count_sos_calls(monkeypatch)
    bands = set()
    for n in (4, 5, 6):
        ops = [random_weyl_operator(n, rng).mat, _near_flag(n, rng, 1e-3), _near_flag(n, rng, 1e-4)]
        for w in ops:
            for tol in (1e-9, 1e-7, 1e-5, 1e-3, 2e-2):
                before = len(calls)
                rep = eigenflag_test(CurvatureOperator(dim=n, mat=w), ObstructionConfig(tol_rel=tol))
                if rep.certificate == "spectral":
                    continue
                band = obstructions._band(rep.residual / np.linalg.norm(w) ** 2, tol)
                bands.add(band)
                assert len(calls) - before == (band is False)
                assert (rep.certificate == "sos") == (rep.verdict is False)
    assert bands == {True, None, False}


# --- simple eigenbivectors -------------------------------------------------------
# A dim-4 bivector w is simple (w = a ^ b) iff w ^ w = 0, the Pluecker
# condition, and w ^ w = 2 q(w) vol with q(w) = <w, *w> / 2.


def _pluecker_ranges(op):
    """(eigenvalue, multiplicity, min q, max q) over the unit sphere of each
    eigenspace of a dim-4 operator: an eigenspace holds a simple bivector
    iff its range of q contains 0."""
    vals, vecs = np.linalg.eigh(op.mat)
    tol = 1e-7 * max(np.abs(vals).max(), 1.0)
    groups = sorted({tuple(np.flatnonzero(np.abs(vals - v) <= tol)) for v in vals})
    q = hodge_star_matrix() / 2.0
    out = []
    for group in groups:
        sub = vecs[:, list(group)]
        mu = np.linalg.eigvalsh(sub.T @ q @ sub)
        out.append((vals[group[0]], len(group), mu[0], mu[-1]))
    return out


def test_simplicity_plain_bivectors():
    # an operator with eigenvector e1^e2 (simple), eigenvalue 3
    m = np.zeros((6, 6))
    m[0, 0] = 3.0
    lam, mult, lo, hi = _pluecker_ranges(CurvatureOperator(dim=4, mat=m))[-1]
    assert (lam, mult) == (3.0, 1) and abs(lo) <= 1e-12 and abs(hi) <= 1e-12

    u = pm_basis_matrix()
    b = np.zeros((6, 6))
    b[0, 0] = 2.0  # phi_1 = e1^e2 + e3^e4, self-dual: not simple
    lam, mult, lo, hi = _pluecker_ranges(CurvatureOperator(dim=4, mat=u @ b @ u.T))[-1]
    assert lam == pytest.approx(2.0) and mult == 1
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)


def test_simplicity_cp2_all_nonsimple():
    # no eigenspace holds a simple bivector: q keeps one sign on each
    for _, _, lo, hi in _pluecker_ranges(_cp2_weyl()):
        assert lo > 1e-8 or hi < -1e-8


def test_simplicity_phi_images(rng):
    # flag-invariant operators have at least n-1 = 3 independent simple
    # eigenbivectors: the eigenspaces that hold a simple direction span
    # at least 3 dimensions
    for _ in range(5):
        ranges = _pluecker_ranges(phi_map(sample_eigenflag_params(4, rng)))
        assert sum(mult for _, mult, lo, hi in ranges if lo <= 1e-8 and hi >= -1e-8) >= 3


# --- Cotton-York test -------------------------------------------------------------


def test_cotton_york_nil_fails():
    report = cotton_york_test(get_entry("nil").metric, (0.3, 0.0, 0.0))
    assert report.verdict is False
    assert report.det_cy == pytest.approx(-0.25, abs=1e-10)


def test_cotton_york_sl2r_fails():
    report = cotton_york_test(get_entry("sl2r").metric, (0.5, 0.0, 0.0))
    assert report.verdict is False
    assert report.det_cy == pytest.approx(16.0, rel=1e-9)


def test_cotton_york_admissible_six(rng):
    for name in ("sol", "sphere3", "euclidean3", "hyperbolic3", "s2xr", "h2xr"):
        entry = get_entry(name)
        for p in entry.sample_points(rng, 2):
            report = cotton_york_test(entry.metric, p)
            assert report.verdict is True, (name, report.note)
            assert abs(report.det_cy) <= 1e-8


def test_cotton_york_sol_plane_conditions(rng):
    entry = get_entry("sol")
    p = entry.sample_points(rng, 1)[0]
    report = cotton_york_test(entry.metric, p)
    assert report.verdict is True
    snap = compute_snapshot(entry.metric, p)
    cy = snap.cotton_york
    (p1, p2), w = report.plane, report.witness
    for a in (p1, p2):
        for b in (p1, p2):
            assert abs(a @ cy @ b) <= 1e-8 * max(np.abs(cy).max(), 1.0)
    assert abs(w @ cy @ w) <= 1e-8 * max(np.abs(cy).max(), 1.0)


def test_cotton_york_rescale_invariance():
    from lcwcheck.dsl import Num
    from lcwcheck.pipeline import conformal_rescale

    import math

    for name, want in (("sol", True), ("nil", False), ("s2xr", True)):
        m = get_entry(name).metric
        p = (0.2, 0.1, -0.3)
        for lam in (0.5, 2.0):
            m2 = conformal_rescale(m, Num(0.5 * math.log(lam)))
            rep = cotton_york_test(m2, p)
            assert (rep.verdict is True) == want, (name, lam)


SCALED_SOL = "dim = 3\ng11 = exp(2e35*x3)\ng22 = exp(-2e35*x3)\ng33 = 1\n"


@pytest.mark.filterwarnings("error")
def test_cotton_york_test_on_a_tensor_past_the_cube_range():
    """sol with x3 scaled by 1e35 has ||CY|| about 2.8e105, so ||CY||^3 is
    past the float range (it raised OverflowError); its ratio and plane come
    from CY / 2^k, and it passes like sol, with sol's plane."""
    sol = cotton_york_test(get_entry("sol").metric, np.zeros(3))
    big = cotton_york_test(parse_metric(SCALED_SOL), np.zeros(3))
    assert big.verdict is True and big.tolerances["det_ratio"] == 0.0
    assert np.abs(big.plane - sol.plane).max() <= 1e-15 and np.abs(big.witness - sol.witness).max() <= 1e-15


@pytest.mark.filterwarnings("error")
def test_cotton_york_test_refuses_a_determinant_past_the_float_range():
    huge = parse_metric("dim = 3\ng11 = 1 + 1e105*x2^3\ng22 = 1 + 1e105*x3^3\ng33 = 1 + 1e105*x1^3\n")
    with pytest.raises(DomainError, match="Cotton-York tensor too large"):
        cotton_york_test(huge, np.zeros(3))


@pytest.mark.filterwarnings("error")
def test_auto_test_refuses_a_weyl_tensor_past_the_float_range():
    """g44 = 1 + 1e300 x1: its Christoffel products overflow, and inf - inf
    warned before the operator was refused."""
    m = parse_metric("dim = 4\ng11 = 1\ng22 = 1\ng33 = 1\ng44 = 1 + 1e300*x1\n")
    with pytest.raises(DomainError, match="Weyl tensor not finite"):
        auto_test(m, np.zeros(4))


def test_cotton_york_dim4_rejected():
    entry = get_entry("product4_sol")
    with pytest.raises(DimensionError):
        cotton_york_test(entry.metric, np.zeros(4))


# --- degenerate plane --------------------------------------------------------------


def test_plane_zero_matrix():
    plane, normal = plane_from_traceless_degenerate(np.zeros((3, 3)))
    assert np.allclose(plane, [[1, 0, 0], [0, 1, 0]])
    assert np.allclose(normal, [0, 0, 1])


def test_plane_diag_example():
    a = np.diag([1.0, -1.0, 0.0])
    plane, normal = plane_from_traceless_degenerate(a)
    # the expected plane is span{(1,1,0)/sqrt2, e3}; directions may flip sign
    s = 1 / np.sqrt(2)
    want_dir = np.array([s, s, 0.0])
    found = any(
        min(np.abs(row - want_dir).max(), np.abs(row + want_dir).max()) <= 1e-12
        for row in plane
    )
    assert found
    assert any(
        min(np.abs(row - np.eye(3)[2]).max(), np.abs(row + np.eye(3)[2]).max()) <= 1e-12
        for row in plane
    )
    want_n = np.array([s, -s, 0.0])
    assert min(np.abs(normal - want_n).max(), np.abs(normal + want_n).max()) <= 1e-12
    # conditions hold
    for u in plane:
        for v in plane:
            assert abs(u @ a @ v) <= 1e-12
    assert abs(normal @ a @ normal) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_plane_of_a_matrix_past_the_cube_range():
    """||a||^3 past the float range raised OverflowError; above 2^300 the
    matrix is tested as a / 2^k, so it keeps the plane and the refusals."""
    a = np.diag([1.0, -1.0, 0.0])
    plane, normal = plane_from_traceless_degenerate(a)
    for scale in (1e103, 1e300):
        big = plane_from_traceless_degenerate(scale * a)
        assert np.array_equal(big[0], plane) and np.array_equal(big[1], normal)
        with pytest.raises(PreconditionViolation):
            plane_from_traceless_degenerate(scale * (a + np.eye(3)))


def test_plane_precondition_violation():
    with pytest.raises(PreconditionViolation):
        plane_from_traceless_degenerate(np.diag([1.0, 1.0, -2.0]) + np.eye(3))
    with pytest.raises(PreconditionViolation):
        plane_from_traceless_degenerate(np.diag([1.0, 1.0, -2.0]))  # det != 0


# --- auto dispatch -------------------------------------------------------------------


def test_auto_nil():
    report = auto_test(get_entry("nil").metric, (0.0, 0.0, 0.0))
    assert report.test == "cotton-york"
    assert report.verdict is False


def test_auto_product4_sphere3(rng):
    entry = get_entry("product4_sphere3")
    p = entry.sample_points(rng, 1)[0]
    report = auto_test(entry.metric, p)
    assert report.test == "eigenflag"
    assert report.verdict is True  # conformally flat product: Weyl vanishes


def test_auto_dim2_rejected():
    m = parse_metric("dim = 2\ng11 = 1\ng22 = 1\n")
    with pytest.raises(DimensionError):
        auto_test(m, np.zeros(2))


# --- randomized invariants (reduced counts; the acceptance suite runs more) ----------


def test_phi_images_pass_smallbatch(rng):
    for n in (4, 5):
        for i in range(15):
            params = sample_eigenflag_params(n, rng)
            rep = eigenflag_test(phi_map(params), ObstructionConfig(seed=i))
            assert rep.verdict is True


def test_random_weyl_fail_smallbatch(rng):
    for n in (4, 5):
        for i in range(15):
            op = random_weyl_operator(n, rng)
            rep = eigenflag_test(op, ObstructionConfig(seed=i))
            if rep.verdict is not False:
                # tightened re-examination rather than silent acceptance
                rep = eigenflag_test(op, ObstructionConfig(seed=i, tol_rel=1e-10))
                assert rep.verdict is False
