"""Normal coordinates, prescription bumps, the closed-form Cotton-York bump."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from lcwcheck.bivectors import operator_to_0_4, random_weyl_operator
from lcwcheck.catalog import get_entry, random_metric_near_flat
from lcwcheck.dsl import parse_metric
from lcwcheck import perturbation
from lcwcheck.errors import (
    ConstraintViolation,
    DimensionError,
    DomainError,
    LcwError,
    NotPositiveDefinite,
    SymmetryViolation,
)
from lcwcheck.jets import jet_space
from lcwcheck.obstructions import ObstructionConfig, auto_test
from lcwcheck.perturbation import (
    CottonPrescription,
    CurvaturePrescription,
    PulledBackMetric,
    _check_positivity,
    _grid_points,
    chart_cotton_york,
    normal_coordinates,
    prescribe_cotton_york,
    prescribe_curvature,
)
from lcwcheck.pipeline import JetPipeline, compute_snapshot, kulkarni_nomizu

FLAT3 = parse_metric("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n")
FLAT4 = parse_metric("dim = 4\ng11 = 1\ng22 = 1\ng33 = 1\ng44 = 1\n")


# --- normal coordinates -----------------------------------------------------------


def test_normal_coordinates_flat_affine():
    chart = normal_coordinates(FLAT3, (0.5, -0.2, 1.0))
    pl = JetPipeline(chart, np.zeros(3))
    assert np.abs(pl.g - np.eye(3)).max() <= 1e-14
    assert np.abs(pl.gamma()).max() <= 1e-14
    # flat base: purely affine change, so the metric is exactly constant
    p = np.array([0.3, 0.7, -0.4])
    assert np.abs(chart.eval_matrix_many([p])[0] - np.eye(3)).max() <= 1e-12


def test_normal_coordinates_nil():
    """Centered at a point of nil, and again at a point of that chart: a
    chart's base may itself be a chart."""
    chart = normal_coordinates(get_entry("nil").metric, (0.4, 0.1, -0.2))
    for metric in (chart, normal_coordinates(chart, (0.05, 0.0, 0.1))):
        pl = JetPipeline(metric, np.zeros(3))
        assert np.abs(pl.g - np.eye(3)).max() <= 1e-9
        assert np.abs(pl.gamma()).max() <= 1e-9
        # off the origin the base is evaluated, not the kept center jets
        assert np.abs(metric.eval_matrix_many([np.full(3, 0.01)])[0] - np.eye(3)).max() <= 1e-3


def test_normal_coordinates_sphere_chart():
    chart = normal_coordinates(get_entry("sphere3").metric, (0.2, -0.1, 0.3))
    pl = JetPipeline(chart, np.zeros(3))
    assert np.abs(pl.g - np.eye(3)).max() <= 1e-9
    # vanishing Christoffel symbols mean vanishing first metric derivatives
    sp = jet_space(3)
    for i in range(3):
        for j in range(3):
            assert np.abs(pl.g_jets[i, j][sp.unit]).max() <= 1e-9


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_normal_chart_takes_its_frame_and_christoffel_symbols_from_the_kernel(dim, rng):
    """E is the Cholesky frame of g(p) (E^T g E = I) and Ghat is the
    order-3 pipeline's Christoffel symbols moved to it, L^T Gamma(E, E)
    with L the Cholesky factor, to 1e-14 relative; the catalog's nil and
    sphere charts too."""
    cases = [(random_metric_near_flat(dim, rng), rng.uniform(-0.2, 0.2, dim)) for _ in range(3)]
    if dim == 3:
        cases += [(get_entry("nil").metric, np.array([0.4, 0.1, -0.2])), (get_entry("sphere3").metric, np.array([0.2, -0.1, 0.3]))]
    for metric, point in cases:
        chart = normal_coordinates(metric, point)
        pl = JetPipeline(metric, point)
        L = np.linalg.cholesky(pl.g)
        assert np.array_equal(chart.frame, np.linalg.inv(L).T)
        want = np.einsum("ai,ijk,jb,kc->abc", L.T, pl.gamma(), chart.frame, chart.frame)
        assert np.abs(chart.gamma_frame - want).max() <= 1e-14 * np.abs(want).max()


# --- curvature prescription --------------------------------------------------------


def test_prescribe_curvature_identity():
    chart = normal_coordinates(FLAT4, np.zeros(4))
    r_here = JetPipeline(chart, np.zeros(4)).riemann()
    res = prescribe_curvature(
        CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r_here)
    )
    assert res.unchanged is True
    assert res.target_error <= 1e-12


def test_a_target_below_one_is_reached_not_taken_for_unchanged():
    """The unchanged test is relative to the target at every size: a Weyl
    target of norm 2e-14 on flat R^4, where the chart's curvature is 0, is
    a shift of the whole target, so the metric is bumped and fails."""
    r0 = 1e-14 * operator_to_0_4(random_weyl_operator(4, np.random.default_rng(3)))
    res = prescribe_curvature(CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r0))
    assert res.unchanged is False
    assert res.target_error <= 1e-6
    assert auto_test(res.metric, res.evaluation_point, ObstructionConfig()).verdict is False


def test_prescribe_curvature_random_targets(rng):
    for _ in range(5):
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        r0 = kulkarni_nomizu(h, np.eye(4)) * 1e-2
        res = prescribe_curvature(
            CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r0)
        )
        assert res.target_error <= 1e-7
        snap = compute_snapshot(res.metric, res.evaluation_point)
        assert np.abs(snap.gamma).max() <= 1e-12
        assert np.isfinite(res.norm_ratio)


def test_prescribe_curvature_rejects_bad_target():
    bad = np.zeros((4, 4, 4, 4))
    bad[0, 1, 0, 1] = 1.0  # violates antisymmetry completion
    with pytest.raises(SymmetryViolation):
        prescribe_curvature(
            CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=bad)
        )


def test_prescribe_curvature_positivity_guard():
    # a huge target must break positivity on the support grid
    h = np.eye(4)
    r0 = kulkarni_nomizu(h, np.eye(4)) * 50.0
    with pytest.raises(NotPositiveDefinite):
        prescribe_curvature(
            CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r0, radius=1.0)
        )


def test_prescribe_curvature_flags_density_step(rng):
    """Bump a flag-invariant product metric so its Weyl operator leaves the
    invariant family: the obstruction test must flip to a failure."""
    entry = get_entry("product4_sol")
    p = np.array([0.1, 0.2, -0.1, 0.3])
    rep0 = auto_test(entry.metric, p, ObstructionConfig())
    assert rep0.verdict is True
    chart = normal_coordinates(entry.metric, p)
    snap = compute_snapshot(chart, np.zeros(4))
    wshift = random_weyl_operator(4, rng)
    r0 = snap.riemann + 2e-2 * operator_to_0_4(wshift)
    res = prescribe_curvature(
        CurvaturePrescription(base=entry.metric, point=p, target_r4=r0)
    )
    rep1 = auto_test(res.metric, res.evaluation_point, ObstructionConfig())
    assert rep1.verdict is False
    assert res.target_error <= 1e-7


def test_quadratic_bump_degree_bookkeeping(rng):
    """The quadratic bump leaves g and dg at the point untouched (exact)."""
    h = rng.standard_normal((4, 4))
    h = (h + h.T) / 2
    r0 = kulkarni_nomizu(h, np.eye(4)) * 1e-2
    res = prescribe_curvature(
        CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r0)
    )
    pl = JetPipeline(res.metric, np.zeros(4))
    assert np.abs(pl.g - np.eye(4)).max() == 0.0
    sp = jet_space(4)
    for i in range(4):
        for j in range(4):
            assert np.abs(pl.g_jets[i, j][sp.unit]).max() == 0.0


# --- Cotton-York prescription --------------------------------------------------------


def test_prescribe_cy_identity():
    snap = compute_snapshot(FLAT3, np.zeros(3))
    res = prescribe_cotton_york(
        CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=snap.cotton_york)
    )
    assert res.unchanged is True


def test_prescribe_cy_unchanged_reports_a_relative_error():
    """A target within rounding of the chart's own Cotton-York tensor
    leaves the metric unchanged, and its error is the shift relative to
    the target, as for a curvature prescription."""
    base = get_entry("sl2r").metric
    cy_here = JetPipeline(normal_coordinates(base, np.zeros(3)), np.zeros(3)).cotton_york()
    target = cy_here * (1 + 4e-15)
    res = prescribe_cotton_york(CottonPrescription(base=base, point=np.zeros(3), target_cy=target))
    assert res.unchanged is True
    assert np.linalg.norm(target) > 1.0
    assert res.target_error == res.shift_norm / np.linalg.norm(target) < 1e-14


def test_prescribe_cy_flat_diag_target():
    cy0 = np.diag([1.0, 1.0, -2.0]) * 1e-3
    res = prescribe_cotton_york(CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=cy0))
    assert res.target_error <= 1e-6
    bump = res.metric.bump
    assert bump.shape == (3,) * 5
    for ij in itertools.permutations((0, 1)):
        for klm in itertools.permutations((2, 3, 4)):
            assert np.array_equal(bump, bump.transpose(*ij, *klm))  # bit for bit
    achieved = compute_snapshot(res.metric, res.evaluation_point).cotton_york
    assert np.abs(achieved - cy0).max() <= 1e-6 * max(np.abs(cy0).max(), 1.0)


def _cy_bump(target):
    """The bump ``prescribe_cotton_york`` writes for ``target`` on a flat
    chart, whose own Cotton-York tensor is 0."""
    return prescribe_cotton_york(CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=target)).metric.bump


def _traceless(rng, scale):
    d = rng.standard_normal((3, 3))
    d = d + d.T
    return scale * (d - np.trace(d) / 3 * np.eye(3))


def test_cy_bump_commutes_with_rotations(rng):
    """The bump for R T R^T is R applied to all five axes of the bump for T."""
    for _ in range(5):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        rot = q * np.sign(np.diag(r))
        rot = rot if np.linalg.det(rot) > 0 else -rot
        t = _traceless(rng, 1e-3)
        want = np.einsum("ia,jb,kc,ld,me,abcde->ijklm", rot, rot, rot, rot, rot, _cy_bump(t), optimize=True)
        got = _cy_bump(rot @ t @ rot.T)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cy_bump_is_orthogonal_to_every_bump_that_keeps_the_cotton_york_tensor(rng):
    """The bump has least Frobenius norm: it is orthogonal to K = B -
    bump(shift of B), whose shift is 0, for symmetric cubics B."""
    chart = normal_coordinates(FLAT3, np.zeros(3))
    for _ in range(5):
        b = _symmetric_bump(rng, 3, 3, 1e-3)
        k = b - _cy_bump(JetPipeline(chart.with_bump(b), np.zeros(3)).cotton_york())
        a = _cy_bump(_traceless(rng, 1e-3))
        assert abs(np.vdot(a, k)) <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(k)


def test_prescribe_cy_requires_traceless():
    with pytest.raises(ConstraintViolation):
        prescribe_cotton_york(
            CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=np.eye(3))
        )


def test_prescribe_cy_sol_density_step():
    sol = get_entry("sol").metric
    p = np.array([0.1, 0.2, 0.3])
    assert auto_test(sol, p).verdict is True
    chart = normal_coordinates(sol, p)
    cy_here = compute_snapshot(chart, np.zeros(3)).cotton_york
    target = cy_here + 1e-2 * np.diag([1.0, 1.0, -2.0])
    res = prescribe_cotton_york(
        CottonPrescription(base=sol, point=p, target_cy=target)
    )
    assert res.target_error <= 1e-6
    rep = auto_test(res.metric, res.evaluation_point)
    assert rep.verdict is False


def test_cubic_bump_degree_bookkeeping():
    cy0 = np.diag([1.0, -1.0, 0.0]) * 1e-3
    res = prescribe_cotton_york(
        CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=cy0)
    )
    pl = JetPipeline(res.metric, np.zeros(3))
    sp = jet_space(3)
    for i in range(3):
        for j in range(3):
            jet = pl.g_jets[i, j]
            for idx, alpha in enumerate(sp.indices):
                if sum(alpha) <= 2:
                    want = 1.0 if (sum(alpha) == 0 and i == j) else 0.0
                    assert jet[idx] == want


def test_cutoff_profile_independence():
    """Tensors at the center do not depend on the cutoff profile as long as
    it is identically 1 near the center."""
    cy0 = np.diag([2.0, -1.0, -1.0]) * 1e-3
    res_a = prescribe_cotton_york(
        CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=cy0, radius=1.0)
    )
    res_b = prescribe_cotton_york(
        CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=cy0, radius=0.5)
    )
    cy_a = compute_snapshot(res_a.metric, np.zeros(3)).cotton_york
    cy_b = compute_snapshot(res_b.metric, np.zeros(3)).cotton_york
    assert np.abs(cy_a - cy_b).max() <= 1e-10


def test_c2_ratio_bounded_over_targets(rng):
    ratios = []
    for _ in range(10):
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        r0 = kulkarni_nomizu(h, np.eye(4)) * (10.0 ** rng.uniform(-4, -2))
        res = prescribe_curvature(
            CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r0)
        )
        ratios.append(res.norm_ratio)
    assert max(ratios) <= 100.0
    assert max(ratios) / min(ratios) <= 50.0  # one constant per base metric


# --- the pulled-back metric against its own expression form -------------------------


def _prescribed(n, rng):
    """A normal chart of a random near-flat base and a bumped metric on it."""
    base = random_metric_near_flat(n, rng, amplitude=0.03)
    point = rng.uniform(-0.1, 0.1, n)
    chart = normal_coordinates(base, point)
    if n == 3:
        cy0 = compute_snapshot(chart, np.zeros(3)).cotton_york + np.diag([1.0, 1.0, -2.0]) * 1e-2
        res = prescribe_cotton_york(CottonPrescription(base=base, point=point, target_cy=cy0))
    else:
        r0 = compute_snapshot(chart, np.zeros(n)).riemann
        r0 = r0 + 1e-2 * operator_to_0_4(random_weyl_operator(n, rng))
        res = prescribe_curvature(CurvaturePrescription(base=base, point=point, target_r4=r0))
    return chart, res.metric


def _jet_array(metric, y):
    return metric.eval_jets(y)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pulled_back_metric_matches_its_components(n, rng):
    """Jets (composed base jets, J^T g J, numeric bump) and grid values
    agree with the expression DAG of the same metric."""
    from lcwcheck.dsl import MetricDef

    for metric in _prescribed(n, rng):
        dag = MetricDef(dim=n, components=metric.components)
        # the origin, a point on the cutoff's ramp, one outside the bump, one inside
        for y in (np.zeros(n), np.full(n, 0.4), np.full(n, 0.7), rng.uniform(-0.25, 0.25, n)):
            got, want = _jet_array(metric, y), _jet_array(dag, y)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        grid = rng.uniform(-0.8, 0.8, (40, n))
        got, want = metric.eval_matrix_many(grid), dag.eval_matrix_many(grid)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_pulled_back_values_do_not_depend_on_the_batch(rng):
    """Grid values and order-3 jets, off the origin and across the
    cutoff's ramp: row k of a batch has the bits of point k alone."""
    _, metric = _prescribed(4, rng)
    grid = rng.uniform(-0.8, 0.8, (25, 4))
    batch, jets = metric.eval_matrix_many(grid), metric._jets(grid, 3)
    for k, y in enumerate(grid):
        assert np.array_equal(batch[k], metric.eval_matrix_many([y])[0])
        assert np.array_equal(batch[k], batch[k].T)
        assert np.array_equal(jets[k], metric.eval_jets(y))


@pytest.mark.parametrize("n", [4, 6])
def test_pulled_back_metric_file_round_trip(n, rng):
    from lcwcheck.dsl import metric_to_text

    _, metric = _prescribed(n, rng)
    text = metric_to_text(metric)
    back = parse_metric(text)
    for y in [np.zeros(n), rng.uniform(-0.6, 0.6, n)]:
        got, want = _jet_array(back, y), _jet_array(metric, y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("amplitude", [1e160, 1e170])
def test_overflowing_targets_are_refused(amplitude):
    from lcwcheck.errors import DomainError

    cy0 = np.diag([1.0, 1.0, -2.0]) * amplitude
    with pytest.raises(DomainError):
        prescribe_cotton_york(CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=cy0))
    r0 = kulkarni_nomizu(np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4)) * amplitude
    with pytest.raises(DomainError):
        prescribe_curvature(CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r0))


# --- kept origin jets, the composition count, the positivity decision --------------


def _same_bits(a, b):
    """Equal arrays, down to the sign of every zero."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh(metric):
    """The same metric without kept origin jets: every call composes."""
    return dataclasses.replace(metric, origin_jets=None)


def _prescription(kind, base, point, rng):
    """A chart at ``point`` and a small prescribed shift of its curvature
    (``curv``) or Cotton-York tensor (``cy``, dim 3) there."""
    n = base.dim
    snap = compute_snapshot(normal_coordinates(base, point), np.zeros(n))
    if kind == "cy":
        cy0 = snap.cotton_york + np.diag([1.0, 1.0, -2.0]) * 1e-2
        return lambda: prescribe_cotton_york(CottonPrescription(base=base, point=point, target_cy=cy0))
    h = rng.standard_normal((n, n))
    r0 = snap.riemann + 1e-2 * kulkarni_nomizu(h + h.T, np.eye(n))
    return lambda: prescribe_curvature(CurvaturePrescription(base=base, point=point, target_r4=r0))


@pytest.mark.parametrize("kind,n", [("curv", 3), ("curv", 4), ("curv", 5), ("curv", 6), ("cy", 3)])
def test_kept_origin_jets_have_the_bits_of_a_fresh_composition(kind, n, rng):
    """The chart's and the result's jets at the origin, at every order up
    to the kept one, equal those composed afresh; past it the metric
    composes; a second bump keeps no jets of the first."""
    base = random_metric_near_flat(n, rng, amplitude=0.03)
    point = rng.uniform(-0.1, 0.1, n)
    kept_order = 3 if kind == "cy" else 2
    chart = normal_coordinates(base, point, order=kept_order)
    res = _prescription(kind, base, point, rng)()
    assert not res.unchanged
    rebumped = res.metric.with_bump(2.0 * res.metric.bump)
    direct = chart.with_bump(rebumped.bump)
    origin = np.zeros(n)
    for metric in (chart, res.metric, direct):
        assert metric.origin_jets.shape[-1] == jet_space(n, kept_order).size
        for order in range(4):
            assert _same_bits(metric.eval_jets(origin, order), _fresh(metric).eval_jets(origin, order))
    for order in range(4):
        assert _same_bits(rebumped.eval_jets(origin, order), direct.eval_jets(origin, order))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_origin_jets_by_gather_have_the_bits_of_the_summed_taylor_terms(n, rng):
    """At the one point y = 0 the chart map, its Jacobian and a bump are
    their coefficients gathered into the jet slots: the bits of the
    general path, which a batch of two zero points takes."""
    chart = normal_coordinates(random_metric_near_flat(n, rng, amplitude=0.03), rng.uniform(-0.1, 0.1, n))
    bumps = [[None] * d + [rng.standard_normal((n, n) + (n,) * d)] for d in (2, 3)]
    for coeffs in (chart._x, chart._jac, [None, None, np.eye(n)], *bumps):
        for order in range(4):
            one, two = (perturbation._poly_taylor(coeffs, np.zeros((k, n)), order) for k in (1, 2))
            assert _same_bits(one[0], two[0]), (len(coeffs), order)


@pytest.mark.parametrize("n", [3, 4])
def test_a_prescription_and_its_test_compose_the_chart_at_one_point_once(n, rng, monkeypatch):
    """The chart's origin jets are composed once, in ``normal_coordinates``;
    the prescription's measurements and ``auto_test`` of the result read
    them.  In dim 3 each chart is analysed once: an order-3 pipeline on the
    normal chart and one on the bumped chart, which ``auto_test`` reads
    again; in dim 4 the frame kernel measures and no pipeline is built."""
    if n == 3:
        run = _prescription("cy", get_entry("nil").metric, np.array([0.1, 0.2, -0.1]), rng)
    else:
        run = _prescription("curv", random_metric_near_flat(4, rng, amplitude=0.03), np.zeros(4), rng)
    compose, init, calls, pipelines = PulledBackMetric._compose, JetPipeline.__init__, [], []

    def counted(self, points, order, base=None):
        if len(points) == 1:
            calls.append(order)
        return compose(self, points, order, base)

    def counted_init(self, metric, point):
        pipelines.append(metric)
        init(self, metric, point)

    monkeypatch.setattr(PulledBackMetric, "_compose", counted)
    monkeypatch.setattr(JetPipeline, "__init__", counted_init)
    res = run()
    auto_test(res.metric, res.evaluation_point, ObstructionConfig())
    assert calls == [3 if n == 3 else 2]
    assert len(pipelines) == (2 if n == 3 else 0)


def test_a_kept_origin_pipeline_is_read_only_and_holds_no_reference_to_its_chart(rng):
    """A chart keeps the pipeline at its origin, and the pipeline keeps no
    reference back: with the collector off, the result of a prescription
    that ``auto_test`` has read is freed with its last name.  Its arrays
    are read-only: a write into a snapshot of the chart raises, and the
    chart's next reader sees the same bits."""
    run = _prescription("cy", get_entry("nil").metric, np.array([0.1, 0.2, -0.1]), rng)
    gc.disable()
    try:
        res = run()
        auto_test(res.metric, res.evaluation_point)
        ref = weakref.ref(res.metric)
        del res
        assert ref() is None
    finally:
        gc.enable()
    chart, origin = run().metric, np.zeros(3)
    cy = chart_cotton_york(chart).copy()
    snap = compute_snapshot(chart, origin)
    arrays = [snap.point, snap.g, snap.g_inv, snap.gamma, snap.riemann, snap.ricci, snap.schouten, snap.weyl04,
              snap.cotton, snap.cotton_york, *snap.partials]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    assert _same_bits(chart_cotton_york(chart), cy)
    assert compute_snapshot(chart, origin).cotton_york is chart_cotton_york(chart)


@pytest.mark.parametrize("n", [3, 4])
def test_lost_positivity_names_the_point_and_eigenvalue_of_an_eigvalsh_reference(n, monkeypatch):
    """The reference eigenvalues are those of the matrices the check
    factorised: in dim 4 the isotropic target gives many grid points the
    same smallest eigenvalue, so the worst of them is decided by the last
    bits of the matrices."""
    checked, factorised, cholesky = [], [], np.linalg.cholesky

    def check(metric):
        checked.append(metric)
        return _check_positivity(metric)

    def recorded(g):
        factorised.append(g)
        return cholesky(g)

    monkeypatch.setattr(perturbation, "_check_positivity", check)
    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    with pytest.raises(NotPositiveDefinite) as err:
        if n == 3:
            cy0 = np.diag([1.0, 1.0, -2.0]) * 200.0
            prescribe_cotton_york(CottonPrescription(base=FLAT3, point=np.zeros(3), target_cy=cy0))
        else:
            r0 = kulkarni_nomizu(np.eye(4), np.eye(4)) * 50.0
            prescribe_curvature(CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=r0))
    (metric,) = checked
    points = _grid_points(n, metric.radius)
    (g,) = [m for m in factorised if m.ndim == 3]  # the chart's own Cholesky is of one matrix
    assert g.shape == (len(points), n, n)
    w = np.linalg.eigvalsh(g)[:, 0]
    worst = int(np.argmin(w))
    assert w[worst] <= 0.0
    assert f"at {points[worst].tolist()} (min eigenvalue {w[worst]:g})" in str(err.value)


def test_a_non_finite_grid_is_refused_before_any_factorisation(monkeypatch):
    def refuse(g):
        raise AssertionError("a non-finite grid reached a factorisation")

    huge = _huge_bump()
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(DomainError, match="not finite on the positivity grid"):
        _check_positivity(huge)


def _huge_bump():
    """A cubic bump of 1e308 coefficients at radius 10: its values overflow
    on the grid (at radius 1 they stay finite)."""
    return normal_coordinates(FLAT3, np.zeros(3), 10.0).with_bump(np.full((3,) * 5, 1e308))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["huge bump", "sol at radius 1e150"])
def test_a_grid_past_the_float_range_is_refused_with_no_warning(case):
    """Overflow on the grid, in the bump's sum or in the base metric at
    x(y), ends in an LcwError and nothing else, numpy warnings included."""
    if case == "huge bump":
        metric = _huge_bump()
    else:
        metric = normal_coordinates(get_entry("sol").metric, np.array([0.1, 0.2, 0.3]), 1e150).with_bump(np.full((3,) * 5, 1e-3))
    with pytest.raises(LcwError):
        _check_positivity(metric)


def _symmetric_bump(rng, n, degree, scale):
    """Bump coefficients (n, n, n, ..., n) symmetric in the first two axes
    and in the ``degree`` trailing ones."""
    c = rng.standard_normal((n, n) + (n,) * degree)
    c = sum(c.transpose(0, 1, *(2 + np.array(p))) for p in itertools.permutations(range(degree)))
    return scale * (c + c.swapaxes(0, 1))


@pytest.mark.parametrize("radius", [1.0, 0.3])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_grid_matrices_equal_the_general_evaluator_at_the_grid_points(n, radius, rng):
    """The positivity grid's matrices, from x(y) and J(y) in closed form
    and the cached bump map, equal ``eval_matrix_many`` at the same points:
    for a chart with a curved base (nonzero Ghat), its quadratic and cubic
    bumps, and a chart whose base is a chart, with and without a bump.  The
    grid reaches the chart's radius, so it has points on the bump's plateau
    and on its ramp."""
    base = get_entry("nil").metric if n == 3 else random_metric_near_flat(n, rng, amplitude=0.03)
    chart = normal_coordinates(base, rng.uniform(-0.1, 0.1, n), radius)
    assert np.abs(chart.gamma_frame).max() > 0.0
    metrics = [chart, normal_coordinates(chart, rng.uniform(-0.1, 0.1, n), radius)]
    metrics += [chart.with_bump(_symmetric_bump(rng, n, d, 1e-3)) for d in (2, 3)]
    metrics.append(metrics[1].with_bump(_symmetric_bump(rng, n, 2, 1e-3)))
    points = _grid_points(n, radius)
    r2 = (points * points).sum(axis=1)
    u0, u1 = (0.5 * radius) ** 2, radius**2
    assert (r2 < u0).any() and ((u0 < r2) & (r2 < u1)).any()
    for metric in metrics:
        want = metric.eval_matrix_many(points)
        got = metric.grid_matrices()
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("length", [-1, 1])
def test_eval_jets_refuses_a_point_of_the_wrong_length(n, length):
    base = get_entry("nil" if n == 3 else "product4_nil").metric
    for metric in (base, normal_coordinates(base, np.zeros(n))):
        with pytest.raises(DimensionError, match=f"point has {n + length} coordinates, metric dim is {n}"):
            metric.eval_jets(np.zeros(n + length), 3)


# --- the bump on the fixed grid as a cached linear map ------------------------------


def _flat(n):
    return parse_metric(f"dim = {n}\n" + "".join(f"g{i}{i} = 1\n" for i in range(1, n + 1)))


@pytest.mark.parametrize("radius", [1.0, 0.3])
@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_cached_bump_map_is_the_bump_formula(n, degree, radius, rng):
    """The C^k norm and the grid's bump term, each one product of the
    bump's sorted coefficients with a cached map, equal ``_bump_jets`` of
    the bump itself at the same points, for the prescriptions' quadratic
    and cubic bumps and a quartic one.  On a flat chart J^T g J is the
    identity, so the grid's bump term is the grid matrices less it."""
    chart = normal_coordinates(_flat(n), np.zeros(n), radius)
    bumped = chart.with_bump(_symmetric_bump(rng, n, degree, 1.0))
    points = _grid_points(n, radius)
    for order in (2, 3):
        jets = perturbation._bump_jets(bumped._bump, radius, points[::perturbation.CK_STRIDE], order)
        want = np.abs(jets * jet_space(n, order).factorials).sum(axis=-1).max()
        assert abs(perturbation._ck_norm(bumped, order) - want) <= 1e-13 * want
    got = (bumped.grid_matrices() - chart.grid_matrices())[(slice(None), *np.triu_indices(n))]
    want = perturbation._bump_jets(bumped._bump, radius, points, 0)[..., 0]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    maps = [perturbation._bump_map(n, degree, 3, radius, perturbation.CK_STRIDE), perturbation._bump_map(n, degree, 0, radius, 1)]
    assert not any(m.flags.writeable for m in maps)
    assert perturbation._bump_map.cache_info().maxsize is not None


def test_prescriptions_have_the_bits_of_a_cold_cache():
    """Prescriptions at radius 1.0, 0.3 and 1.0 again in one process give
    the bits each gives after the maps' caches are cleared."""
    nil, base4 = get_entry("nil").metric, random_metric_near_flat(4, np.random.default_rng(5), amplitude=0.03)
    cy0 = np.diag([1.0, 1.0, -2.0]) * 1e-2
    r0 = 1e-2 * kulkarni_nomizu(np.diag([1.0, -1.0, 0.5, 0.0]), np.eye(4))

    def run(radius):
        out = []
        for res in (
            prescribe_cotton_york(CottonPrescription(base=nil, point=np.full(3, 0.1), target_cy=cy0, radius=radius)),
            prescribe_curvature(CurvaturePrescription(base=base4, point=np.zeros(4), target_r4=r0, radius=radius)),
        ):
            out += [np.float64(res.norm_ratio), np.float64(res.target_error), res.metric.grid_matrices()]
        return out

    warm = [run(r) for r in (1.0, 0.3, 1.0)]
    for radius, got in zip((1.0, 0.3, 1.0), warm):
        perturbation._bump_map.cache_clear()
        assert all(_same_bits(a, b) for a, b in zip(got, run(radius)))


def test_a_warm_prescription_evaluates_no_bump_or_cutoff_on_the_grid(monkeypatch):
    """Once the maps of a (dim, degree, radius) are built, a whole
    prescription evaluates polynomials only at the chart origin and the
    cutoff nowhere: the positivity grid and the C^k norm read the maps."""
    runs = [
        lambda: prescribe_cotton_york(CottonPrescription(base=get_entry("sol").metric, point=np.full(3, 0.1), target_cy=np.diag([1.0, 1.0, -2.0]) * 1e-2)),
        lambda: prescribe_curvature(CurvaturePrescription(base=FLAT4, point=np.zeros(4), target_r4=1e-2 * kulkarni_nomizu(np.diag([1.0, -1.0, 0.5, 0.0]), np.eye(4)))),
    ]
    for run in runs:
        run()
    poly_taylor, points = perturbation._poly_taylor, []

    def counted(coeffs, at, order=3):
        points.append(len(at))
        return poly_taylor(coeffs, at, order)

    def refuse(*args):
        raise AssertionError("the cutoff was evaluated")

    monkeypatch.setattr(perturbation, "_poly_taylor", counted)
    monkeypatch.setattr(perturbation, "_smoothbump_jet", refuse)
    for run in runs:
        assert run().unchanged is False
    assert set(points) == {1}
