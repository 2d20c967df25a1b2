"""Acceptance suite: every guaranteed behavior at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 1 carries one strict expected-failure: the quoted
determinant value -1/2 for the nil Cotton-York tensor contradicts the
pinned matrix itself (whose determinant is -1/4 identically); the matrix is
the stronger, self-consistent oracle and is asserted at 1e-9.
"""

import itertools
import math

import numpy as np
import pytest
from click.testing import CliRunner

from lcwcheck.bivectors import (
    CurvatureOperator,
    bianchi_project,
    dimension_report,
    operator_from_0_4,
    phi_map,
    pm_basis_matrix,
    pm_split,
    random_weyl_operator,
    ricci_contract,
    sample_eigenflag_params,
    sym_matrix_basis,
    sym_vec,
    weyl_space_basis,
)
from lcwcheck.catalog import (
    THURSTON_NAMES,
    cp2_curvature,
    get_entry,
    list_catalog,
    nil_expected_tensors,
    r_cross_surface,
    r_cross_surface_cy,
    random_metric_near_flat,
    random_polynomial,
    sl2r_full_tensors,
)
from lcwcheck.cli import main
from lcwcheck.dsl import parse_metric
from lcwcheck.obstructions import ObstructionConfig, _minimize_residual, _residual_form, eigenflag_test
from lcwcheck.perturbation import (
    CottonPrescription,
    CurvaturePrescription,
    normal_coordinates,
    prescribe_cotton_york,
    prescribe_curvature,
)
from lcwcheck.pipeline import (
    JetPipeline,
    compute_snapshot,
    conformal_rescale,
    kulkarni_nomizu,
)

runner = CliRunner()


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# -- 1. nil ground truth ---------------------------------------------------------


def test_acceptance_01_nil_ground_truth():
    entry = get_entry("nil")
    rng = np.random.default_rng(101)
    det_values = []
    for p in entry.sample_points(rng, 5):
        snap = compute_snapshot(entry.metric, p)
        want = nil_expected_tensors(p)
        for key in ("ricci", "schouten", "cotton_york"):
            got = {"ricci": snap.ricci, "schouten": snap.schouten, "cotton_york": snap.cotton_york}[key]
            scale = max(np.abs(want[key]).max(), 1.0)
            assert np.abs(got - want[key]).max() <= 1e-9 * scale, key
        assert abs(snap.scalar - (-0.5)) <= 1e-9
        det_values.append(np.linalg.det(snap.cotton_york))
    # the pinned matrix [[1/2,0,0],[0,1/2-x^2,x],[0,x,-1]] has determinant
    # (1/2)((1/2 - x^2)(-1) - x^2) = -1/4 at every point
    for d in det_values:
        assert abs(d - (-0.25)) <= 1e-9
    _report(1, "nil Ricci/scalar/Schouten/Cotton-York reproduced at 1e-9; det(CY) = -1/4")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated determinant -1/2 is inconsistent with the stated Cotton-York "
        "matrix, whose determinant is -1/4 identically; both cannot hold"
    ),
)
def test_acceptance_01_nil_det_cy_stated_value():
    snap = compute_snapshot(get_entry("nil").metric, (0.3, 0.1, -0.2))
    det = np.linalg.det(snap.cotton_york)
    assert abs(det - (-0.5)) <= 1e-9 * 0.5


# -- 2. sl2r ground truth ----------------------------------------------------------


def test_acceptance_02_sl2r_ground_truth():
    entry = get_entry("sl2r")
    rng = np.random.default_rng(102)
    for p in entry.sample_points(rng, 10):
        snap = compute_snapshot(entry.metric, p)
        want = sl2r_full_tensors(p)
        for key in ("schouten", "cotton_york"):
            got = snap.schouten if key == "schouten" else snap.cotton_york
            scale = max(np.abs(want[key]).max(), 1.0)
            assert np.abs(got - want[key]).max() <= 1e-7 * scale, (key, p)
    cy = compute_snapshot(entry.metric, (0.7, 0.0, 0.0)).cotton_york
    want = np.array([[0.0, 0.0, -2.0], [0.0, -4.0, 0.0], [-2.0, 0.0, 4.0]])
    assert np.abs(cy - want).max() <= 1e-8
    _report(2, "sl2r Schouten/Cotton-York closed forms at 1e-7; origin matrix at 1e-8")


# -- 3. Thurston verdict table -------------------------------------------------------


def test_acceptance_03_thurston_verdicts():
    rng = np.random.default_rng(103)
    expected_exit = {"exists": 0, "none": 10}
    names = list_catalog()
    assert set(THURSTON_NAMES) <= set(names)
    for name in names:
        entry = get_entry(name)
        want = expected_exit[entry.expected["lcw"]]
        for p in entry.sample_points(rng, 5):
            point = ",".join(f"{c:.6f}" for c in p)
            res = runner.invoke(main, ["check", "--metric", name, "--point", point])
            assert res.exit_code == want, (name, point, res.exit_code, res.output)
    _report(3, f"all {len(names)} catalog entries, the eight model geometries among them, "
               "give the expected exit codes at 5 points each")


# -- 4. the projective-plane operator ------------------------------------------------


def test_acceptance_04_cp2():
    op = operator_from_0_4(cp2_curvature())
    u = pm_basis_matrix()
    diag = u.T @ op.mat @ u
    assert np.allclose(np.diag(diag), [6, 0, 0, 2, 2, 2], atol=1e-10)
    assert np.abs(diag - np.diag(np.diag(diag))).max() <= 1e-10
    split = pm_split(op)
    assert np.abs(split.wplus - np.diag([4.0, -2.0, -2.0])).max() <= 1e-10
    assert np.abs(split.wminus).max() <= 1e-10
    wop = CurvatureOperator(dim=4, mat=u @ np.block([
        [split.wplus, np.zeros((3, 3))],
        [np.zeros((3, 3)), split.wminus],
    ]) @ u.T)
    config = ObstructionConfig(starts=64)
    assert eigenflag_test(wop, config).verdict is False  # by the dim-4 closed form
    form = _residual_form(wop.mat, 4)
    fmin = _minimize_residual(form, 4, np.linalg.norm(wop.mat) ** 2, config, np.linalg.eigh(wop.mat)[1])[0]  # the search alone
    assert fmin > 0.1 * np.linalg.norm(wop.mat) ** 2
    _report(4, "curvature operator eigenvalues (6,0,0,2,2,2); W+ = diag(4,-2,-2); "
               f"no flag direction (min residual {fmin:.3f} > 2.4)")


# -- 5. divergence identity -----------------------------------------------------------


def test_acceptance_05_divergence_identity():
    rng = np.random.default_rng(105)
    for _ in range(20):
        m = random_metric_near_flat(4, rng, amplitude=0.04)
        p = rng.uniform(-0.2, 0.2, 4)
        snap = compute_snapshot(m, p)
        scale = max(np.abs(snap.cotton).max(), 1e-30)
        assert np.abs(snap.div_weyl - snap.cotton).max() <= 1e-7 * scale
    _report(5, "div W = (n-3) C on 20 near-flat metrics in dim 4 at 1e-7")


# -- 6. conformal transformation laws ---------------------------------------------------


def test_acceptance_06_conformal_laws():
    from lcwcheck.dsl import eval_expr
    from lcwcheck.jets import jet_space

    rng = np.random.default_rng(106)
    for _ in range(10):
        m = random_metric_near_flat(4, rng, amplitude=0.04)
        f = random_polynomial(4, rng, amplitude=0.1)
        mt = conformal_rescale(m, f)
        p = rng.uniform(-0.2, 0.2, 4)
        s0 = compute_snapshot(m, p)
        s1 = compute_snapshot(mt, p)
        fj = eval_expr(f, p)
        e2f = math.exp(2.0 * fj[0])
        wscale = max(np.abs(s0.weyl04).max(), 1e-30)
        w13 = [np.einsum("am,mjkl->ajkl", s.g_inv, s.weyl04) for s in (s0, s1)]  # W^a_jkl
        assert np.abs(w13[1] - w13[0]).max() <= 1e-7 * wscale
        assert np.abs(s1.weyl04 - e2f * s0.weyl04).max() <= 1e-7 * wscale
        grad_up = s0.g_inv @ fj[jet_space(4).unit]
        want = s0.cotton - np.einsum("ijkl,l->ijk", s0.weyl04, grad_up)
        cscale = max(np.abs(s0.cotton).max(), 1e-30)
        assert np.abs(s1.cotton - want).max() <= 1e-7 * cscale
    _report(6, "Weyl (1,3) invariance, e^{2f} law, Cotton law on 10 random pairs at 1e-7")


# -- 7. dimension arithmetic -------------------------------------------------------------


def test_acceptance_07_dimension_arithmetic():
    for n, ker_b_want, weyl_want in ((4, 20, 10), (5, 50, 35)):
        basis = sym_matrix_basis(n * (n - 1) // 2)
        cols = [
            sym_vec(bianchi_project(CurvatureOperator(dim=n, mat=e)).mat)
            for e in basis
        ]
        svals = np.linalg.svd(np.array(cols).T, compute_uv=False)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        assert len(basis) - rank == ker_b_want
        assert len(weyl_space_basis(n)) == weyl_want
    rep4, rep5 = dimension_report(4), dimension_report(5)
    assert rep4["codim"] == 2 and abs(rep4["codim_closed_form"] - 2) <= 1e-9
    assert rep5["codim"] == 12 and abs(rep5["codim_closed_form"] - 12) <= 1e-9
    # the literal quartic closed form disagrees with the true dimension and
    # the report surfaces it
    assert rep4["dim_weyl"] == 10
    assert abs(rep4["dim_weyl_quartic_closed_form"] - 11.5) <= 1e-9
    assert rep4["quartic_closed_form_mismatch"] is True
    _report(7, "ker(b) dims 20/50, Weyl dims 10/35, codims 2/12; quartic-form mismatch surfaced (10 vs 11.5)")


# -- 8. flag parametrization round trip ----------------------------------------------------


def test_acceptance_08_phi_round_trip():
    rng = np.random.default_rng(108)
    for n, count in ((4, 100), (5, 100)):
        for i in range(count):
            params = sample_eigenflag_params(n, rng)
            w = phi_map(params)
            scale = max(np.abs(w.mat).max(), 1.0)
            assert np.abs(bianchi_project(w).mat).max() <= 1e-9 * scale
            assert np.abs(ricci_contract(w)).max() <= 1e-9 * scale
            rep = eigenflag_test(w, ObstructionConfig(seed=i))
            assert rep.verdict is True, (n, i, rep.note)
    retried = 0
    for n, count in ((4, 100), (5, 100)):
        for i in range(count):
            op = random_weyl_operator(n, rng)
            rep = eigenflag_test(op, ObstructionConfig(seed=i))
            if rep.verdict is not False:
                # tightened re-examination instead of silent acceptance
                retried += 1
                rep = eigenflag_test(op, ObstructionConfig(seed=i, tol_rel=1e-10))
            assert rep.verdict is False, (n, i, rep.note)
    _report(8, f"200 flag-parametrized operators pass, 200 sphere samples fail ({retried} retried)")


# -- 9. curvature prescription ----------------------------------------------------------


def test_acceptance_09_curvature_prescription():
    rng = np.random.default_rng(109)
    n_bases, per_base = 5, 10
    for b in range(n_bases):
        base = random_metric_near_flat(4, rng, amplitude=0.03)
        point = rng.uniform(-0.1, 0.1, 4)
        ratios = []
        for _ in range(per_base):
            chart = normal_coordinates(base, point)
            snap_r = compute_snapshot(chart, np.zeros(4)).riemann
            h = rng.standard_normal((4, 4))
            h = (h + h.T) / 2
            r0 = snap_r + kulkarni_nomizu(h, np.eye(4)) * 10.0 ** rng.uniform(-4, -2)
            res = prescribe_curvature(
                CurvaturePrescription(base=base, point=point, target_r4=r0)
            )
            assert res.target_error <= 1e-7
            bumped = compute_snapshot(res.metric, res.evaluation_point)
            assert np.abs(bumped.gamma).max() <= 1e-9
            ratios.append(res.norm_ratio)
        assert max(ratios) <= 100.0  # one constant per base
    _report(9, "50 curvature prescriptions hit their targets at 1e-7 with Gamma(p) = 0")


# -- 10. Cotton prescription ---------------------------------------------------------------


def test_acceptance_10_cotton_prescription():
    # the five listed coefficient directions (indices 1-based), each a
    # symmetric unit bump on a flat chart, shift the Cotton tensor at the
    # origin independently: the shifts span all five dimensions
    flat = normal_coordinates(parse_metric("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n"), np.zeros(3))
    listed = [
        (1, 1, (1, 2, 2)),
        (1, 1, (1, 2, 3)),
        (1, 1, (2, 2, 2)),
        (1, 1, (2, 2, 3)),
        (1, 2, (2, 2, 3)),
    ]
    rows = []
    for i, j, klm in listed:
        e = np.zeros((3,) * 5)
        for ij in itertools.permutations((i - 1, j - 1)):
            for t in itertools.permutations([x - 1 for x in klm]):
                e[(*ij, *t)] = 1.0
        rows.append(JetPipeline(flat.with_bump(e), np.zeros(3)).cotton().ravel())
    assert np.linalg.matrix_rank(np.array(rows), tol=1e-10) == 5

    rng = np.random.default_rng(110)
    bases = [
        random_metric_near_flat(3, rng, amplitude=0.05),
        get_entry("sol").metric,
        get_entry("nil").metric,
        parse_metric("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n"),
        get_entry("sphere3").metric,
    ]
    count = 0
    for base in bases:
        point = rng.uniform(-0.1, 0.1, 3)
        chart = normal_coordinates(base, point)
        cy_here = compute_snapshot(chart, np.zeros(3)).cotton_york
        for _ in range(10):
            d = rng.standard_normal((3, 3))
            d = (d + d.T) / 2
            d -= np.trace(d) / 3 * np.eye(3)
            cy0 = cy_here + 10.0 ** rng.uniform(-4, -2) * d / np.linalg.norm(d)
            res = prescribe_cotton_york(
                CottonPrescription(base=base, point=point, target_cy=cy0)
            )
            assert res.target_error <= 1e-6
            count += 1
    assert count == 50

    # density demo: sol passes, the bumped metric written by the CLI fails
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        sol_point = "0.1,0.2,0.3"
        res0 = runner.invoke(main, ["check", "--metric", "sol", "--point", sol_point])
        assert res0.exit_code == 0
        out = pathlib.Path(d) / "sol_bumped.metric"
        res1 = runner.invoke(
            main,
            [
                "perturb", "--metric", "sol", "--point", sol_point,
                "--target", "random", "--seed", "4", "--out", str(out),
            ],
        )
        assert res1.exit_code == 0, res1.output
        res2 = runner.invoke(main, ["check", "--metric", str(out), "--point", "0,0,0"])
        assert res2.exit_code == 10
    _report(10, "rank(L) = 5 with independent listed images; 50 prescriptions at 1e-6; "
                "density demo flips exit 0 -> 10")


# -- 11. the product family R x Sigma ----------------------------------------------------


def test_acceptance_11_r_cross_surface():
    rng = np.random.default_rng(111)
    factors = ("sin(x2)*cosh(2*x3)", "sin(x2)*cosh(x3)", "x2^2*x3 + x3^2")
    for f in factors:
        m = r_cross_surface(f)
        for _ in range(10):
            p = rng.uniform(-0.7, 0.7, 3)
            want = r_cross_surface_cy(f, p)
            got = compute_snapshot(m, p).cotton_york
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() <= 1e-7 * scale
    _report(11, "closed-form Cotton-York matches the pipeline for 3 factors at 10 points each")


# -- 12. jet correctness -------------------------------------------------------------------


def test_acceptance_12_jet_correctness():
    import pathlib
    import subprocess
    import sys

    jet_tests = pathlib.Path(__file__).with_name("test_jets.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(jet_tests), "-q", "--no-header", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _report(12, "all jet-vs-finite-difference and polynomial-exactness properties pass")
