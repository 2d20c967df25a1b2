"""Catalog entries, their stored expectations, and the cross-oracles."""

import numpy as np
import pytest

from lcwcheck.bivectors import operator_from_0_4, pm_split
from lcwcheck.catalog import (
    DEFAULT_SURFACE_FACTOR,
    THURSTON_NAMES,
    cp2_curvature,
    get_entry,
    list_catalog,
    nil_expected_tensors,
    r_cross_surface,
    r_cross_surface_cy,
    random_metric_near_flat,
    sl2r_full_tensors,
)
from lcwcheck.dsl import metric_to_text, parse_metric
from lcwcheck.errors import DimensionError, UnknownEntry
from lcwcheck.obstructions import ObstructionConfig, auto_test, eigenflag_residual, eigenflag_test
from lcwcheck.pipeline import compute_snapshot


def test_catalog_contains_thurston_and_extensions():
    names = list_catalog()
    for name in THURSTON_NAMES:
        assert name in names
    for extra in ("r_cross_surface", "cp2_chart", "product4_sol", "product4_nil", "product4_sphere3"):
        assert extra in names
    assert len(THURSTON_NAMES) == 8


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        get_entry("klein_bottle")


def test_sol_entry_stores_expected_metric():
    m = get_entry("sol").metric
    z = 0.7
    g = m.eval_matrix_many([(0.1, -0.5, z)])[0]
    assert g[0, 0] == pytest.approx(np.exp(2 * z), rel=1e-15)
    assert g[1, 1] == pytest.approx(np.exp(-2 * z), rel=1e-15)
    assert g[2, 2] == 1.0


def test_sl2r_entry_coefficients():
    m = get_entry("sl2r").metric
    t, s = 0.3, -0.4
    g = m.eval_matrix_many([(0.9, t, s)])[0]
    et, emt = np.exp(t), np.exp(-t)
    assert g[1, 1] == pytest.approx(s * s + 1, rel=1e-14)
    assert g[1, 2] == pytest.approx(s, rel=1e-14)
    assert g[2, 2] == 1.0
    assert g[0, 0] == pytest.approx((4 * s * s + 1) * np.exp(2 * t) + ((s * s - 1) * et + emt) ** 2, rel=1e-14)
    assert g[0, 2] == pytest.approx((s * s - 1) * et + emt, rel=1e-14)


def test_expected_truth_records():
    assert get_entry("nil").expected["lcw"] == "none"
    assert get_entry("nil").expected["det_cy"] == pytest.approx(-0.25)
    assert get_entry("sl2r").expected["lcw"] == "none"
    assert get_entry("sl2r").expected["det_cy_at_origin"] == 16.0
    assert get_entry("sphere3").expected["lcw"] == "exists"
    assert get_entry("sphere3").expected["conformally_flat"] is True
    assert get_entry("sol").expected["det_cy"] == 0.0
    assert isinstance(get_entry("nil").expected["provenance"], str)


def test_pipeline_reproduces_stored_tensors(rng):
    """Every entry with closed-form tensors matches the pipeline at random
    points to 1e-7 relative."""
    for name, oracle in (("nil", nil_expected_tensors), ("sl2r", sl2r_full_tensors)):
        entry = get_entry(name)
        for p in entry.sample_points(rng, 5):
            snap = compute_snapshot(entry.metric, p)
            want = oracle(p)
            for key in ("ricci", "schouten", "cotton_york"):
                scale = max(np.abs(want[key]).max(), 1.0)
                got = getattr(snap, key if key != "ricci" else "ricci")
                if key == "cotton_york":
                    got = snap.cotton_york
                if key == "schouten":
                    got = snap.schouten
                assert np.abs(got - want[key]).max() <= 1e-7 * scale, (name, key)
            assert snap.scalar == pytest.approx(want["scalar"], rel=1e-9)


def test_homogeneity_det_cy(rng):
    """Left-invariant entries have point-independent Cotton-York
    determinant."""
    for name in ("sol", "nil"):
        entry = get_entry(name)
        dets = []
        for p in entry.sample_points(rng, 10):
            snap = compute_snapshot(entry.metric, p)
            dets.append(np.linalg.det(snap.cotton_york))
        dets = np.array(dets)
        assert np.abs(dets - dets[0]).max() <= 1e-8 * max(1.0, abs(dets[0]))


def test_cp2_expected_record():
    """The cp2_chart record at the origin holds the values of the
    curvature table cp2_curvature()."""
    from lcwcheck.bivectors import operator_from_0_4, pm_basis_matrix, ricci_contract

    op = operator_from_0_4(cp2_curvature())
    u = pm_basis_matrix()
    eig = np.diag(u.T @ op.mat @ u)
    assert np.allclose(sorted(eig), sorted([6, 0, 0, 2, 2, 2]), atol=1e-12)
    ric = ricci_contract(op)
    assert np.abs(ric - 6 * np.eye(4)).max() <= 1e-12  # Einstein
    truth = get_entry("cp2_chart").expected
    assert np.allclose(sorted(eig), sorted(truth["operator_eigenvalues"]), atol=1e-12)
    assert truth["eigenflag"] is False
    assert truth["scalar"] == 24.0


def test_cp2_chart_cross_check():
    entry = get_entry("cp2_chart")
    snap = compute_snapshot(entry.metric, np.zeros(4))
    assert np.abs(snap.riemann - cp2_curvature()).max() <= 1e-10


def test_r_cross_surface_rejects_x1():
    with pytest.raises(DimensionError):
        r_cross_surface("x1 + x2")


def test_random_metric_past_the_coordinates_is_a_dimension_error():
    with pytest.raises(DimensionError, match="got 7"):
        random_metric_near_flat(7, np.random.default_rng(0))


def test_r_cross_surface_flat_factor():
    cy = r_cross_surface_cy("0", (0.3, 0.1, -0.2))
    assert np.abs(cy).max() == 0.0


def test_r_cross_surface_critical_point():
    # radially symmetric factor at its critical point: both closed-form
    # terms vanish
    f = "x2^2 + x3^2"
    cy = r_cross_surface_cy(f, (0.5, 0.0, 0.0))
    assert np.abs(cy).max() <= 1e-14


def test_r_cross_surface_closed_form_vs_pipeline(rng):
    for f in (DEFAULT_SURFACE_FACTOR, "sin(x2)*cosh(x3)", "x2^2*x3 + x3^2"):
        m = r_cross_surface(f)
        for _ in range(3):
            p = rng.uniform(-0.7, 0.7, 3)
            want = r_cross_surface_cy(f, p)
            got = compute_snapshot(m, p).cotton_york
            assert np.abs(got - want).max() <= 1e-7 * max(np.abs(want).max(), 1.0)


def test_entries_export_as_metric_files():
    for name in THURSTON_NAMES:
        m = get_entry(name).metric
        text = metric_to_text(m)
        again = parse_metric(text)
        assert again.components == m.components


# --- every stored expectation, checked against the pipeline --------------------


def _close(got, want, tol=1e-8):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= tol * max(np.abs(want).max(initial=0.0), 1.0))


def _operator(snap, r4):
    """The curvature operator of ``r4`` in the snapshot's orthonormal frame."""
    return operator_from_0_4(r4, g=snap.g)


def _constant_curvature(snap, k):
    g = snap.g
    return k * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))


def _closed_form(oracle, p, snap):
    want = oracle(p)
    return all(_close(getattr(snap, key), want[key], 1e-7) for key in ("ricci", "scalar", "schouten", "cotton_york"))


def _witness_residual(snap, v):
    """Flag residual of the coordinate vector v over ||W||^2, in the frame
    (its frame components are L^T v for g = L L^T)."""
    op = _operator(snap, snap.weyl04)
    c = np.linalg.cholesky(snap.g).T @ np.asarray(v, dtype=float)
    return eigenflag_residual(op, c / np.linalg.norm(c)) / max(op.norm() ** 2, 1e-300)


# key -> check(entry, stored value, point, snapshot at the point): True when
# the pipeline reproduces the value there
EXPECTATION_CHECKS = {
    "lcw": lambda e, want, p, s: auto_test(e.metric, p).verdict is {"exists": True, "none": False}[want],
    "conformally_flat": lambda e, want, p, s: bool(np.abs(s.cotton_york).max() <= 1e-9) is want,
    "det_cy": lambda e, want, p, s: abs(np.linalg.det(s.cotton_york) - want) <= 1e-8 * max(abs(want), 1.0),
    "sectional": lambda e, want, p, s: _close(s.riemann, _constant_curvature(s, want)),
    "tensors": lambda e, want, p, s: _closed_form(want, p, s),
    "cy_at_origin": lambda e, want, p, s: _close(s.cotton_york, want),
    "det_cy_at_origin": lambda e, want, p, s: abs(np.linalg.det(s.cotton_york) - want) <= 1e-8 * abs(want),
    "surface_factor": lambda e, want, p, s: e.metric.components == r_cross_surface(want).components,
    "cy_closed_form": lambda e, want, p, s: _close(s.cotton_york, r_cross_surface_cy(e.expected["surface_factor"], p), 1e-7) is want,
    "operator_eigenvalues": lambda e, want, p, s: _close(np.linalg.eigvalsh(_operator(s, s.riemann).mat), sorted(want)),
    "wplus_diag": lambda e, want, p, s: _close(np.linalg.eigvalsh(pm_split(_operator(s, s.weyl04)).wplus), sorted(want)),
    "wminus_zero": lambda e, want, p, s: bool(np.abs(pm_split(_operator(s, s.weyl04)).wminus).max() <= 1e-8) is want,
    "einstein": lambda e, want, p, s: _close(s.ricci, s.scalar / e.dim * s.g) is want,
    "scalar": lambda e, want, p, s: abs(s.scalar - want) <= 1e-8 * abs(want),
    "eigenflag": lambda e, want, p, s: eigenflag_test(_operator(s, s.weyl04), ObstructionConfig()).verdict is want,
    "witness": lambda e, want, p, s: _witness_residual(s, want) <= 1e-12,
    "provenance": lambda e, want, p, s: isinstance(want, str) and want != "",
}
AT_ORIGIN = {"cy_at_origin", "det_cy_at_origin"}  # keys that hold at the origin only


@pytest.mark.parametrize("name", list_catalog())
def test_every_stored_expectation_holds(name, rng):
    """Each key of the entry's record holds at the origin and at four sample
    points; a key without a check fails."""
    entry = get_entry(name)
    unchecked = set(entry.expected) - set(EXPECTATION_CHECKS)
    assert not unchecked, f"{name}: no check for {sorted(unchecked)}"
    failed = []
    for k, p in enumerate([np.zeros(entry.dim)] + entry.sample_points(rng, 4)):
        snap = compute_snapshot(entry.metric, p)
        failed += [(key, k) for key, want in entry.expected.items()
                   if (k == 0 or key not in AT_ORIGIN) and not EXPECTATION_CHECKS[key](entry, want, p, snap)]
    assert not failed, f"{name}: (key, point) pairs that fail: {failed}"
