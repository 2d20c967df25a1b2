"""The jet order as a parameter of the one algebra, and the 2-jet frame kernel.

Order-2 jets are the graded-lex prefix of the order-3 ones, bit for bit
(int64 view), for compiled metrics and for metrics in a normal chart; the
verdict of ``auto_test``, whose frame kernel reads the order-2 jets in
dim >= 4, is the one the kernel gives on the 2-jet prefix of the order-3
jets, and its operator is the order-3 pipeline's to rounding; the kernel's
Christoffel symbols and Riemann tensor are the order-3 pipeline's moved to
its frame; and a chart that keeps order-2 jets never serves an order-3
request from them."""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from lcwcheck import catalog
from lcwcheck.bivectors import _to_frame, operator_from_0_4, operator_to_0_4, random_weyl_operator
from lcwcheck.cli import main
from lcwcheck.dsl import parse_metric
from lcwcheck.errors import DomainError
from lcwcheck.jets import jet_space
from lcwcheck.obstructions import NOISE_FLOOR, _U, ObstructionConfig, _eigenflag_test, _frame_curvature, _frame_weyl, auto_test
from lcwcheck.perturbation import CurvaturePrescription, normal_coordinates, prescribe_curvature
from lcwcheck.pipeline import JetPipeline, format_json


def same_bits(a, b):
    """Equal arrays, down to the sign of every zero."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def coefficients(metric, point, order):
    return metric.eval_jets(point, order)


def kernel_weyl(jets, point):
    """The frame Weyl operator and the size of its terms, as ``auto_test`` reads them."""
    _, _, r, size = _frame_curvature(jets, point)
    return _frame_weyl(r, point), size


def assert_order_2_is_prefix(metric, points):
    size = math.comb(metric.dim + 2, 2)
    for p in np.asarray(points, dtype=float):
        low, high = coefficients(metric, p, 2), coefficients(metric, p, 3)
        assert low.shape[-1] == size == jet_space(metric.dim, 2).size
        assert same_bits(low, high[..., :size])


def near_flat_and_product(dim, rng):
    return (
        catalog.random_metric_near_flat(dim, rng),
        catalog.product_with_line(catalog.random_metric_near_flat(dim - 1, rng)),
    )


def prescribed(n, rng, order=3):
    """A normal chart of a random near-flat base at order ``order``, and a
    curvature prescription on the same base."""
    base = catalog.random_metric_near_flat(n, rng, amplitude=0.03)
    point = rng.uniform(-0.1, 0.1, n)
    chart = normal_coordinates(base, point, order=order)
    r0 = JetPipeline(chart, np.zeros(n)).riemann() + 1e-2 * operator_to_0_4(random_weyl_operator(n, rng))
    return chart, prescribe_curvature(CurvaturePrescription(base=base, point=point, target_r4=r0))


# --- the jet space ------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_lower_order_tables_are_the_prefix_of_order_3(dim):
    full = jet_space(dim)
    assert full is jet_space(dim, 3)
    for order in (0, 1, 2):
        sp = jet_space(dim, order)
        assert sp.order == order and sp.size == math.comb(dim + order, order)
        assert sp.indices == full.indices[: sp.size]
        assert len(sp.partial_slots) == order + 1
        for k in range(order + 1):
            assert np.array_equal(sp.partial_slots[k], full.partial_slots[k])
        assert np.array_equal(sp.coordinates, full.coordinates[:, : sp.size])
    for order in (-1, 4):
        with pytest.raises(DomainError):
            jet_space(dim, order)


# --- order 2 is the prefix of order 3 -----------------------------------------------


@pytest.mark.parametrize("name", catalog.list_catalog())
def test_catalog_metrics_at_order_2_are_the_order_3_prefix(name):
    entry = catalog.get_entry(name)
    assert_order_2_is_prefix(entry.metric, entry.sample_points(np.random.default_rng(5), 4))


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_random_metrics_at_order_2_are_the_order_3_prefix(dim, rng):
    for _ in range(3):
        for metric in near_flat_and_product(dim, rng):
            assert_order_2_is_prefix(metric, rng.uniform(-0.3, 0.3, (4, dim)))


def test_perturb_output_file_at_order_2_is_the_order_3_prefix(tmp_path):
    out = tmp_path / "bumped.metric"
    r = CliRunner().invoke(
        main,
        ["perturb", "--metric", "product4_nil", "--point", "0.1,0.2,0.3,0.1", "--target", "random", "--seed", "4",
         "--radius", "0.5", "--out", str(out)],
    )
    assert r.exit_code == 0, r.output
    metric = parse_metric(out.read_text())
    dirs = np.random.default_rng(8).standard_normal((8, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert_order_2_is_prefix(metric, dirs * np.linspace(0.0, 0.6, 8)[:, None])


@pytest.mark.parametrize("n", [4, 5])
def test_chart_metrics_at_order_2_are_the_order_3_prefix(n, rng):
    """The composition in a normal chart, bumped or not, at the origin (the
    kept base jets) and off it (the base evaluated there), the cutoff's
    ramp included."""
    for order in (2, 3):
        chart, res = prescribed(n, rng, order)
        for metric in (chart, res.metric):
            assert_order_2_is_prefix(metric, [np.zeros(n), np.full(n, 0.4), rng.uniform(-0.25, 0.25, n)])


# --- the verdict at order 2 ---------------------------------------------------------


def assert_verdict_as_at_order_3(metric, point):
    """``auto_test`` (order 2) reports, bit for bit, what the frame Weyl
    kernel gives on the 2-jet prefix of the order-3 jets: the verdict reads
    only the 2-jet."""
    config = ObstructionConfig()
    got = auto_test(metric, point, config)
    jets = coefficients(metric, point, 3)[..., : jet_space(metric.dim, 2).size]
    want = _eigenflag_test(*kernel_weyl(jets, np.asarray(point, dtype=float)), config)
    assert (got.verdict, got.residual, got.note) == (want.verdict, want.residual, want.note)
    assert (got.witness is None and want.witness is None) or same_bits(got.witness, want.witness)
    assert format_json(got.to_json_dict()) == format_json(want.to_json_dict())


def assert_kernel_as_the_pipeline(metric, point):
    """The kernel's frame Weyl operator is the pipeline's, moved to the
    frame by ``operator_from_0_4``, to 1e-13 relative, and gives the same
    verdict; where the pipeline's operator is itself rounding noise of the
    terms, so is the kernel's."""
    point = np.asarray(point, dtype=float)
    op, size = kernel_weyl(coefficients(metric, point, 2), point)
    pl = JetPipeline(metric, point)
    want = operator_from_0_4(pl.weyl(), g=pl.g)
    if want.norm() / _U / size <= NOISE_FLOOR:
        assert op.norm() / _U / size <= NOISE_FLOOR
    else:
        assert np.linalg.norm(op.mat - want.mat) <= 1e-13 * want.norm()
    config = ObstructionConfig()
    assert auto_test(metric, point, config).verdict == _eigenflag_test(want, size, config).verdict


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_auto_test_at_order_2_reports_as_an_order_3_pipeline(dim, rng):
    for _ in range(2):
        for metric in near_flat_and_product(dim, rng):
            point = rng.uniform(-0.2, 0.2, dim)
            assert_verdict_as_at_order_3(metric, point)
            assert_kernel_as_the_pipeline(metric, point)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_auto_test_of_a_curvature_prescription_reports_as_at_order_3(n, rng):
    _, res = prescribed(n, rng)
    assert_verdict_as_at_order_3(res.metric, res.evaluation_point)
    assert_kernel_as_the_pipeline(res.metric, res.evaluation_point)


@pytest.mark.parametrize("name", [name for name in catalog.list_catalog() if catalog.get_entry(name).dim >= 4])
def test_frame_weyl_kernel_is_the_pipelines_operator_on_the_catalog(name):
    entry = catalog.get_entry(name)
    for point in entry.sample_points(np.random.default_rng(5), 4):
        assert_kernel_as_the_pipeline(entry.metric, point)


def assert_kernel_is_the_pipeline_in_its_frame(metric, point):
    """The kernel's Christoffel symbols and Riemann tensor are the order-3
    pipeline's (the reference) moved to the kernel's frame E, to 1e-13
    relative: Gamma with E^-1 on its upper index and E on its lower ones."""
    point = np.asarray(point, dtype=float)
    e, gamma, r, _ = _frame_curvature(coefficients(metric, point, 3), point)
    pl = JetPipeline(metric, point)
    want_gamma = np.einsum("ai,ijk,jb,kc->abc", np.linalg.inv(e), pl.gamma(), e, e)
    for got, want in ((gamma, want_gamma), (r, _to_frame(pl.riemann(), e))):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_prescribe_curvature_reads_the_riemann_tensor_of_order_3_pipelines(rng):
    """The prescription measures R with the frame kernel on its chart,
    before and after the bump; there the kernel's R is the order-3
    pipeline's in the kernel's frame."""
    _, res = prescribed(4, rng)
    chart = normal_coordinates(res.metric.base, res.metric.center, res.metric.radius, order=2)
    for metric in (chart, res.metric):
        assert_kernel_is_the_pipeline_in_its_frame(metric, res.evaluation_point)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_the_frame_kernel_is_the_order_3_pipeline_in_its_frame(dim, rng):
    """On random near-flat metrics and their products with a line, on a
    normal chart of each and on that chart bumped."""
    for metric in near_flat_and_product(dim, rng):
        point = rng.uniform(-0.2, 0.2, dim)
        assert_kernel_is_the_pipeline_in_its_frame(metric, point)
        chart = normal_coordinates(metric, point, radius=0.5)
        bump = 0.01 * rng.standard_normal((dim,) * 4)
        bump = bump + bump.swapaxes(0, 1)
        for m in (chart, chart.with_bump(bump + bump.swapaxes(2, 3))):
            assert_kernel_is_the_pipeline_in_its_frame(m, np.zeros(dim))


def test_an_order_2_chart_never_serves_order_3_jets_from_its_order_2_center_jets(rng):
    base = catalog.random_metric_near_flat(4, rng)
    point = rng.uniform(-0.1, 0.1, 4)
    chart2, chart3 = normal_coordinates(base, point, order=2), normal_coordinates(base, point)
    assert chart2.origin_jets.shape[-1] == jet_space(4, 2).size
    origin = np.zeros(4)
    want = coefficients(chart3, origin, 3)
    assert want.shape[-1] == jet_space(4).size
    assert same_bits(coefficients(chart2, origin, 3), want)
    bump = np.zeros((4, 4, 4, 4))
    bumped2, bumped3 = (chart.with_bump(bump) for chart in (chart2, chart3))
    assert same_bits(coefficients(bumped2, origin, 3), coefficients(bumped3, origin, 3))


# --- the verdict no longer reads third partials -------------------------------------

THIRD_PARTIAL_OVERFLOWS = "dim = 4\ng11 = 1 + 1e308*x2^3\ng22 = 1\ng33 = 1\ng44 = 1\n"


def test_check_gives_a_verdict_where_only_third_partials_overflow_and_tensors_exits_3(tmp_path):
    path = tmp_path / "third.metric"
    path.write_text(THIRD_PARTIAL_OVERFLOWS)
    runner = CliRunner()
    r = runner.invoke(main, ["check", "--metric", str(path), "--point", "0,0,0,0"])
    assert r.exit_code == 0, r.output  # flat 2-jet: conformally flat, passes
    r = runner.invoke(main, ["tensors", "--metric", str(path), "--point", "0,0,0,0", "--format", "json"])
    assert r.exit_code == 3
    assert "not finite" in r.output and "Traceback" not in r.output
