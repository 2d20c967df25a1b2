"""Tensor pipeline against hand-computed values, catalog closed forms, and
structural identities (Bianchi, divergence, conformal laws)."""

import itertools
import json
import math

import numpy as np
import pytest

from lcwcheck.catalog import get_entry, list_catalog, nil_expected_tensors, random_metric_near_flat, random_polynomial
from lcwcheck.dsl import Num, parse_expr, parse_metric
from lcwcheck.errors import DimensionError, SingularMetric
from lcwcheck.jets import jet_space
from lcwcheck.pipeline import (
    JetPipeline,
    _metric_partials,
    compute_snapshot,
    conformal_rescale,
    kulkarni_nomizu,
    snapshot_to_dict,
    snapshot_to_json,
)

FLAT3 = parse_metric("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n")
FLAT4 = parse_metric("dim = 4\ng11 = 1\ng22 = 1\ng33 = 1\ng44 = 1\n")


# --- Christoffel symbols --------------------------------------------------------


def test_christoffel_flat():
    pl = JetPipeline(FLAT3, (0.3, -0.2, 1.0))
    assert np.abs(pl.gamma()).max() == 0.0
    assert np.abs(pl._gamma[1:]).max() == 0.0  # the first partials of the Christoffel jet


def test_christoffel_nil_hand_values():
    # hand-computed symbols of dx^2 + dy^2 + (dz - x dy)^2 at x = 0.7:
    # G^1_22 = -x, G^1_23 = 1/2, G^2_12 = x/2, G^2_13 = -1/2,
    # G^3_12 = (x^2-1)/2, G^3_13 = -x/2
    x = 0.7
    g = JetPipeline(get_entry("nil").metric, (x, 0.0, 0.0)).gamma()
    assert g[0, 1, 1] == pytest.approx(-x, abs=1e-14)
    assert g[0, 1, 2] == pytest.approx(0.5, abs=1e-14)
    assert g[1, 0, 1] == pytest.approx(x / 2, abs=1e-14)
    assert g[1, 0, 2] == pytest.approx(-0.5, abs=1e-14)
    assert g[2, 0, 1] == pytest.approx((x * x - 1) / 2, abs=1e-14)
    assert g[2, 0, 2] == pytest.approx(-x / 2, abs=1e-14)
    assert np.abs(g - g.transpose(0, 2, 1)).max() == 0.0


def test_dgamma_nil_hand_values():
    # d_1 of the symbols above: d1 G^1_22 = -1, d1 G^2_12 = 1/2,
    # d1 G^3_12 = x, d1 G^3_13 = -1/2; the metric depends on x only.
    # Slices 1..n of the Christoffel jet are d_l Gamma^k_ij, indexed [l, k, i, j]
    x = 0.7
    dg = JetPipeline(get_entry("nil").metric, (x, 0.0, 0.0))._gamma[1:]
    want = np.zeros((3, 3, 3))
    for (k, i, j), v in {(0, 1, 1): -1.0, (1, 0, 1): 0.5, (2, 0, 1): x, (2, 0, 2): -0.5}.items():
        want[k, i, j] = want[k, j, i] = v
    assert np.abs(dg[0] - want).max() <= 1e-14
    assert np.abs(dg[1:]).max() <= 1e-14


def test_christoffel_sol_origin_pattern():
    g = JetPipeline(get_entry("sol").metric, (0.0, 0.0, 0.0)).gamma()
    assert g[0, 0, 2] == pytest.approx(1.0, abs=1e-14)
    assert g[1, 1, 2] == pytest.approx(-1.0, abs=1e-14)
    assert g[2, 0, 0] == pytest.approx(-1.0, abs=1e-14)
    assert g[2, 1, 1] == pytest.approx(1.0, abs=1e-14)


def test_singular_metric_rejected():
    degenerate = parse_metric("dim = 3\ng11 = x1\ng22 = 1\ng33 = 1\n")
    with pytest.raises(SingularMetric):
        JetPipeline(degenerate, (0.0, 0.0, 0.0))


# --- Riemann tensor -------------------------------------------------------------


def test_riemann_flat():
    assert np.abs(JetPipeline(FLAT4, (0.2, 0.1, -0.3, 0.5)).riemann()).max() == 0.0


def test_riemann_sphere_factor_sectional():
    m = get_entry("s2xr").metric
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(-0.5, 0.5, 3)
        snap = compute_snapshot(m, p)
        g = snap.g
        # surface factor spans coordinates 2,3: sectional curvature one
        num = snap.riemann[1, 2, 1, 2]
        den = g[1, 1] * g[2, 2] - g[1, 2] ** 2
        assert num / den == pytest.approx(1.0, rel=1e-10)
        assert num == pytest.approx(den, rel=1e-10)


def test_riemann_cp2_chart_table():
    snap = compute_snapshot(get_entry("cp2_chart").metric, np.zeros(4))
    r = snap.riemann
    assert r[0, 1, 0, 1] == pytest.approx(4.0, abs=1e-12)
    assert r[0, 2, 0, 2] == pytest.approx(1.0, abs=1e-12)
    assert r[0, 1, 2, 3] == pytest.approx(2.0, abs=1e-12)
    assert r[0, 2, 1, 3] == pytest.approx(1.0, abs=1e-12)
    assert r[0, 3, 1, 2] == pytest.approx(-1.0, abs=1e-12)


# --- Ricci / scalar / Schouten ---------------------------------------------------


def test_nil_ricci_scalar_schouten():
    m = get_entry("nil").metric
    rng = np.random.default_rng(1)
    for _ in range(3):
        p = rng.uniform(-1, 1, 3)
        pl = JetPipeline(m, p)
        ric, s, sch = pl.ricci(), pl.scalar(), pl.schouten()
        want = nil_expected_tensors(p)
        assert np.abs(ric - want["ricci"]).max() <= 1e-12
        assert s == pytest.approx(-0.5, abs=1e-12)
        assert np.abs(sch - want["schouten"]).max() <= 1e-12


def test_sl2r_ricci_components():
    from lcwcheck.catalog import sl2r_full_tensors

    m = get_entry("sl2r").metric
    p = (0.4, 0.3, -0.6)
    pl = JetPipeline(m, p)
    ric, s, sch = pl.ricci(), pl.scalar(), pl.schouten()
    want = sl2r_full_tensors(p)
    assert np.abs(ric - want["ricci"]).max() <= 1e-10
    assert s == pytest.approx(-2.0, abs=1e-10)
    assert np.abs(sch - want["schouten"]).max() <= 1e-10


def test_dim2_rejected():
    m2 = parse_metric("dim = 2\ng11 = 1\ng22 = 1\n")
    with pytest.raises(DimensionError):
        JetPipeline(m2, (0.0, 0.0)).schouten()


# --- Kulkarni-Nomizu product -----------------------------------------------------


def _kn_bruteforce(a, b):
    n = a.shape[0]
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = (
                        a[i, k] * b[j, l]
                        + b[i, k] * a[j, l]
                        - a[i, l] * b[j, k]
                        - a[j, k] * b[i, l]
                    )
    return out


def test_kn_identity_case():
    d = np.eye(3)
    out = kulkarni_nomizu(d, d)
    assert out[0, 1, 0, 1] == 2.0


def test_kn_zero():
    assert np.abs(kulkarni_nomizu(np.zeros((3, 3)), np.eye(3))).max() == 0.0


def test_kn_against_bruteforce(rng):
    for n in (3, 4):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        b = np.zeros((n, n))
        b[0, 0] = 1.0
        got = kulkarni_nomizu(a, b)
        want = _kn_bruteforce(a, b)
        assert np.abs(got - want).max() <= 1e-14
        # result has the curvature symmetries
        assert np.abs(got + got.transpose(1, 0, 2, 3)).max() <= 1e-14
        assert np.abs(got - got.transpose(2, 3, 0, 1)).max() <= 1e-14


# --- Weyl -----------------------------------------------------------------------


def test_weyl_vanishes_in_dim3():
    rng = np.random.default_rng(7)
    for name in ("nil", "sl2r", "sol"):
        m = get_entry(name).metric
        p = rng.uniform(-0.5, 0.5, 3)
        w = JetPipeline(m, p).weyl()
        assert np.abs(w).max() <= 1e-9


def test_weyl_conformally_flat_dim4():
    f = parse_expr("x1*x2 - x3^2 + sin(x4)")
    from lcwcheck.dsl import metric_from_components, Call, Mul, Num

    scale = Call("exp", (Mul(Num(2.0), f),))
    comp = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            comp[i][j] = scale if i == j else Num(0.0)
    m = metric_from_components(comp)
    pl = JetPipeline(m, (0.2, -0.1, 0.3, 0.4))
    w, r = pl.weyl(), pl.riemann()
    assert np.abs(w).max() <= 1e-10 * max(1.0, np.abs(r).max())


# --- Cotton / Cotton-York --------------------------------------------------------


def test_cotton_flat_zero():
    assert np.abs(JetPipeline(FLAT3, (0.1, 0.2, 0.3)).cotton()).max() == 0.0


def test_cotton_sphere_chart_zero():
    m = get_entry("sphere3").metric
    c = JetPipeline(m, (0.1, -0.2, 0.3)).cotton()
    assert np.abs(c).max() <= 1e-12


def test_nil_cotton_york_table():
    m = get_entry("nil").metric
    rng = np.random.default_rng(5)
    for _ in range(3):
        p = rng.uniform(-1, 1, 3)
        cy = JetPipeline(m, p).cotton_york()
        want = nil_expected_tensors(p)["cotton_york"]
        assert np.abs(cy - want).max() <= 1e-12
        assert np.linalg.det(cy) == pytest.approx(-0.25, abs=1e-12)


def test_sl2r_cotton_york_origin():
    cy = JetPipeline(get_entry("sl2r").metric, (0.9, 0.0, 0.0)).cotton_york()
    want = np.array([[0.0, 0.0, -2.0], [0.0, -4.0, 0.0], [-2.0, 0.0, 4.0]])
    assert np.abs(cy - want).max() <= 1e-10
    assert np.linalg.det(cy) == pytest.approx(16.0, rel=1e-12)


def test_r_cross_surface_cy_formula():
    from lcwcheck.catalog import r_cross_surface, r_cross_surface_cy

    f = "sin(x2)*cosh(x3)"
    m = r_cross_surface(f)
    rng = np.random.default_rng(2)
    for _ in range(4):
        p = rng.uniform(-0.8, 0.8, 3)
        cy = JetPipeline(m, p).cotton_york()
        want = r_cross_surface_cy(f, p)
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(cy - want).max() <= 1e-10 * scale
        assert np.abs(np.diag(cy)).max() <= 1e-10 * scale
        assert abs(cy[1, 2]) <= 1e-10 * scale


def test_cotton_york_dim4_rejected():
    with pytest.raises(DimensionError):
        JetPipeline(FLAT4, np.zeros(4)).cotton_york()


def test_a_pipeline_builds_each_third_order_tensor_once():
    """Cotton, Cotton-York and div W are kept like every other tensor: a
    dim-3 snapshot and a Cotton-York prescription read Cotton twice."""
    rng = np.random.default_rng(11)
    pl3, pl4 = (JetPipeline(random_metric_near_flat(n, rng), rng.uniform(-0.2, 0.2, n)) for n in (3, 4))
    for pl in (pl3, pl4):
        assert pl.cotton() is pl.cotton()
    assert pl3.cotton_york() is pl3.cotton_york()
    assert pl4.div_weyl() is pl4.div_weyl()


# --- divergence identity ---------------------------------------------------------


def test_div_weyl_conformally_flat_zero():
    m = random_metric_near_flat(4, np.random.default_rng(8), amplitude=0.0)
    assert np.abs(JetPipeline(m, np.zeros(4)).div_weyl()).max() == 0.0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_div_weyl_equals_cotton(n, rng):
    for _ in range(3):
        m = random_metric_near_flat(n, rng)
        p = rng.uniform(-0.2, 0.2, n)
        snap = compute_snapshot(m, p)
        scale = max(np.abs(snap.cotton).max(), 1e-30)
        assert np.abs(snap.div_weyl - (n - 3) * snap.cotton).max() <= 1e-7 * scale


def test_div_weyl_product_metric(rng):
    m = get_entry("product4_sol").metric
    p = rng.uniform(-0.3, 0.3, 4)
    snap = compute_snapshot(m, p)
    scale = max(np.abs(snap.cotton).max(), 1.0)
    assert np.abs(snap.div_weyl - snap.cotton).max() <= 1e-7 * scale


def test_div_weyl_dim3_rejected():
    with pytest.raises(DimensionError):
        JetPipeline(FLAT3, np.zeros(3)).div_weyl()


# --- conformal transformation laws ------------------------------------------------


def test_conformal_identity_factor():
    m = get_entry("nil").metric
    m2 = conformal_rescale(m, Num(0.0))
    p = (0.3, 0.1, -0.2)
    assert np.abs(m2.eval_matrix_many([p])[0] - m.eval_matrix_many([p])[0]).max() <= 1e-15


def test_conformal_weyl_laws(rng):
    from lcwcheck.dsl import eval_expr

    for _ in range(3):
        m = random_metric_near_flat(4, rng)
        f = random_polynomial(4, rng, amplitude=0.1)
        mt = conformal_rescale(m, f)
        p = rng.uniform(-0.2, 0.2, 4)
        s0 = compute_snapshot(m, p)
        s1 = compute_snapshot(mt, p)
        e2f = math.exp(2.0 * eval_expr(f, p)[0])
        scale = max(np.abs(s0.weyl04).max(), 1e-30)
        assert np.abs(s1.weyl04 - e2f * s0.weyl04).max() <= 1e-7 * scale
        # the (1,3) Weyl tensor W^a_jkl = g^am W_mjkl is conformally invariant
        w13 = [np.einsum("am,mjkl->ajkl", s.g_inv, s.weyl04) for s in (s0, s1)]
        assert np.abs(w13[1] - w13[0]).max() <= 1e-7 * scale


def test_conformal_cotton_law(rng):
    from lcwcheck.dsl import eval_expr

    for _ in range(3):
        m = random_metric_near_flat(4, rng)
        f = random_polynomial(4, rng, amplitude=0.1)
        mt = conformal_rescale(m, f)
        p = rng.uniform(-0.2, 0.2, 4)
        s0 = compute_snapshot(m, p)
        s1 = compute_snapshot(mt, p)
        gradf = eval_expr(f, p)[jet_space(4).unit]
        grad_up = s0.g_inv @ gradf
        want = s0.cotton - np.einsum("ijkl,l->ijk", s0.weyl04, grad_up)
        scale = max(np.abs(s0.cotton).max(), 1e-30)
        assert np.abs(s1.cotton - want).max() <= 1e-7 * scale


def test_cy_determinant_scaling():
    """det CY = 0 is preserved under constant rescaling; the measured
    scaling exponent of CY itself is logged, not asserted."""
    import logging

    log = logging.getLogger("lcwcheck.tests")
    for name, expect_zero in (("sol", True), ("nil", False)):
        m = get_entry(name).metric
        p = (0.2, -0.1, 0.3)
        cy1 = JetPipeline(m, p).cotton_york()
        for lam in (0.5, 2.0, 10.0):
            half_log = 0.5 * math.log(lam)
            m2 = conformal_rescale(m, Num(half_log))
            cy2 = JetPipeline(m2, p).cotton_york()
            d1, d2 = np.linalg.det(cy1), np.linalg.det(cy2)
            if expect_zero:
                assert abs(d2) <= 1e-10 * max(np.linalg.norm(cy2) ** 3, 1e-30)
            else:
                assert abs(d2) > 1e-3 * np.linalg.norm(cy2) ** 3
            exponent = math.log(
                np.linalg.norm(cy2) / np.linalg.norm(cy1)
            ) / math.log(lam)
            log.info("CY scaling exponent for %s at lambda=%s: %.6f", name, lam, exponent)


# --- snapshot invariants and serialization -----------------------------------------


def test_snapshot_invariants_catalog():
    rng = np.random.default_rng(12)
    for name in ("euclidean3", "sphere3", "hyperbolic3", "s2xr", "h2xr", "sol", "nil", "sl2r"):
        entry = get_entry(name)
        for p in entry.sample_points(rng, 20):
            snap = compute_snapshot(entry.metric, p)
            snap.check_invariants()
            # no weyl contamination in dim 3
            assert np.abs(snap.weyl04).max() <= 1e-9 * max(1.0, np.abs(snap.riemann).max())


def test_snapshot_invariants_dim4(rng):
    for name in ("product4_sol", "product4_nil", "cp2_chart"):
        entry = get_entry(name)
        p = entry.sample_points(rng, 1)[0]
        snap = compute_snapshot(entry.metric, p)
        snap.check_invariants()


@pytest.mark.parametrize("n", [5, 6])
def test_snapshot_invariants_high_dim(n, rng):
    for _ in range(2):
        m = random_metric_near_flat(n, rng)
        snap = compute_snapshot(m, rng.uniform(-0.2, 0.2, n))
        snap.check_invariants()


def test_snapshot_json():
    snap = compute_snapshot(get_entry("nil").metric, (0.5, 0.0, 0.0))
    doc = json.loads(snapshot_to_json(snap))
    assert doc["dim"] == 3
    assert doc["scalar"] == pytest.approx(-0.5)
    assert np.array(doc["ricci"]).shape == (3, 3)
    assert np.array(doc["riemann"]).shape == (3, 3, 3, 3)
    assert doc["div_weyl"] is None
    assert np.array(doc["cotton_york"]).shape == (3, 3)


def test_snapshot_json_gives_back_every_float_of_every_catalog_metric_bit_for_bit(rng):
    """Strict parsing of the text (integers as floats, so "-0" keeps its
    sign) returns each tensor of the snapshot with the same bits."""

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    checked = 0
    for name in list_catalog():
        entry = get_entry(name)
        if entry.dim < 3:
            continue
        for p in entry.sample_points(rng, 2):
            snap = compute_snapshot(entry.metric, p)
            doc = json.loads(snapshot_to_json(snap), parse_constant=reject, parse_int=float)
            for key, value in snapshot_to_dict(snap).items():
                if value is None:
                    assert doc[key] is None
                    continue
                want = np.ascontiguousarray(value, dtype=float)
                got = np.ascontiguousarray(doc[key], dtype=float)
                assert got.shape == want.shape, (name, key)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, key)
            checked += 1
    assert checked >= 20
    # 17 significant digits survive the round trip exactly
    assert doc["g"][1][1] == snap.g[1, 1]


@pytest.mark.parametrize(
    "field,index",
    [("riemann", (0, 1, 0, 1)), ("riemann", (0, 1, 2, 0)), ("cotton", (0, 1, 2)), ("cotton_york", (0, 1))],
)
def test_check_invariants_raises_symmetry_violation(field, index):
    from lcwcheck.errors import SymmetryViolation

    snap = compute_snapshot(get_entry("nil").metric, (0.3, -0.1, 0.2))
    snap.check_invariants()
    broken = getattr(snap, field).copy()
    broken[index] += 1e-3
    setattr(snap, field, broken)
    with pytest.raises(SymmetryViolation):
        snap.check_invariants()


def test_check_invariants_is_not_an_assert():
    # python -O strips assert statements; the checks must still run
    import subprocess
    import sys

    code = (
        "import numpy as np\n"
        "from lcwcheck.catalog import get_entry\n"
        "from lcwcheck.errors import SymmetryViolation\n"
        "from lcwcheck.pipeline import compute_snapshot\n"
        "snap = compute_snapshot(get_entry('nil').metric, (0.3, -0.1, 0.2))\n"
        "snap.riemann = snap.riemann + 1e-3\n"
        "try:\n"
        "    snap.check_invariants()\n"
        "except SymmetryViolation:\n"
        "    print('raised')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_metric_partials_match_per_call_slots(n, rng):
    # the jet space's slot tables give the same gathers as slot lists built per call
    space = jet_space(n)
    coeffs = rng.standard_normal((n, n, space.size))
    d = coeffs * space.factorials
    for k, got in enumerate(_metric_partials(space, coeffs)):
        slots = [
            space.index_of[tuple(np.bincount(axes, minlength=n))]
            for axes in itertools.product(range(n), repeat=k)
        ]
        ref = np.moveaxis(d[:, :, slots], 2, 0).reshape((n,) * k + (n, n))
        assert np.array_equal(got, ref)
