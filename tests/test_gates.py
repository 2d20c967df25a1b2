"""The tolerance checks on library inputs: every one refuses a number that
is not finite with its own error, and a call on any input, finite, huge,
infinite or NaN, returns finite numbers or raises an LcwError, never a
numpy error or warning."""

import functools
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcwcheck.bivectors import (
    CurvatureOperator,
    EigenflagParams,
    hodge_star_matrix,
    operator_from_0_4,
    operator_to_0_4,
    phi_map,
    random_weyl_operator,
    rotate_operator,
    sample_eigenflag_params,
)
from lcwcheck.errors import (
    ConstraintViolation,
    LcwError,
    NotOrthogonal,
    PreconditionViolation,
    SymmetryViolation,
)
from lcwcheck.catalog import get_entry, random_metric_near_flat
from lcwcheck.cli import _load_target
from lcwcheck.dsl import parse_metric
from lcwcheck.obstructions import _frame_curvature, auto_test, eigenflag_residual, plane_from_traceless_degenerate
from lcwcheck.perturbation import PulledBackMetric, normal_coordinates, prescribe_cotton_york_in, prescribe_curvature_in
from lcwcheck.pipeline import INPUT_TOL, ORTHO_TOL, JetPipeline, compute_snapshot

NAN = float("nan")
INF = float("inf")


def _params(**changes):
    p = sample_eigenflag_params(4, np.random.default_rng(3))
    for name, (index, value) in changes.items():
        getattr(p, name)[index] = value
    return p


def _weyl4():
    return random_weyl_operator(4, np.random.default_rng(4))


@pytest.mark.parametrize(
    "call, error, subject",
    [
        (lambda: phi_map(_params(lambdas=(0, NAN))), ConstraintViolation, "eigenvalues"),
        (lambda: phi_map(_params(w2=((1, 2), NAN))), ConstraintViolation, "w2"),
        (lambda: CurvatureOperator(4, np.full((6, 6), NAN)), SymmetryViolation, "operator matrix"),
        (lambda: rotate_operator(_weyl4(), np.full((4, 4), NAN)), NotOrthogonal, "rotation matrix"),
        (lambda: eigenflag_residual(_weyl4(), [NAN, 0.0, 0.0, 0.0]), PreconditionViolation, "v must be"),
        (lambda: plane_from_traceless_degenerate(np.full((3, 3), NAN)), PreconditionViolation, "matrix"),
    ],
    ids=["phi_map-lambda", "phi_map-w2", "CurvatureOperator", "rotate_operator", "eigenflag_residual", "plane"],
)
def test_nan_is_refused_by_the_sites_own_error(call, error, subject):
    """The refusal names the input that holds the NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="not a finite number") as info:
            call()
    assert str(info.value).startswith(subject)


def test_operator_symmetry_is_checked_relative_to_the_matrix():
    """The asymmetry bound is 1e-10 max|mat| with no absolute floor: a
    matrix near 1e-11 whose mirrored entries differ by half their size is
    refused (it was accepted and symmetrized to 5e-12), and one asymmetric
    only at rounding level is accepted, and symmetrized, at every scale."""
    tiny = np.zeros((6, 6))
    tiny[0, 0] = tiny[0, 1] = 1e-11
    with pytest.raises(SymmetryViolation, match="operator matrix is not symmetric"):
        CurvatureOperator(4, tiny)
    for scale in (1e-12, 1.0, 1e12):
        mat = scale * _weyl4().mat
        mat[0, 1] *= 1.0 + 1e-14
        op = CurvatureOperator(4, mat)
        assert np.array_equal(op.mat, op.mat.T) and not np.array_equal(op.mat, mat)
    assert not CurvatureOperator(4, np.zeros((6, 6))).mat.any()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: CurvatureOperator(4, np.triu(np.ones((6, 6)))), SymmetryViolation, "operator matrix is not symmetric"),
        (lambda: rotate_operator(_weyl4(), 2.0 * np.eye(4)), NotOrthogonal, "rotation matrix is not orthogonal"),
        (lambda: phi_map(EigenflagParams(np.eye(4), np.array([1.0, 0.0, 0.0]), np.zeros((3, 3)))), ConstraintViolation, "eigenvalues must sum to zero (sum = 1)"),
        (lambda: eigenflag_residual(_weyl4(), [2.0, 0.0, 0.0, 0.0]), PreconditionViolation, "v must be a unit vector"),
        (lambda: plane_from_traceless_degenerate(np.eye(3)), PreconditionViolation, "trace 3 not within tolerance of zero"),
    ],
)
def test_finite_refusal_keeps_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# -- library-contract fuzz ----------------------------------------------------


def assert_finite_or_refused(call):
    """call() returns finite numbers (a CurvatureOperator, an array, a float
    or a tuple of them) or raises an LcwError; a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except LcwError:
            return
    for part in out if isinstance(out, tuple) else (out,):
        assert np.isfinite(part.mat if isinstance(part, CurvatureOperator) else part).all()


@pytest.mark.parametrize(
    "call",
    [
        lambda: CurvatureOperator(4, np.diag([INF, 1.0, 1.0, 1.0, 1.0, 1.0])),
        lambda: CurvatureOperator(4, np.full((6, 6), 1e308)),
        lambda: rotate_operator(_weyl4(), 1e200 * np.eye(4)),
        lambda: plane_from_traceless_degenerate(np.diag([INF, -INF, 0.0])),
        lambda: operator_from_0_4(np.full((4, 4, 4, 4), INF)),
        # these two returned a NaN plane: the first is asymmetric once scaled
        # by 2^-1024, the second has two equal eigenvalues
        lambda: plane_from_traceless_degenerate(np.array([[0.0, 1e308, 1e-200], [-3e-200, -8e-200, 2e-200], [1e-200, 2e-200, 9e-200]])),
        lambda: plane_from_traceless_degenerate(np.diag([2.0**-52, 2.0**-52, 0.0])),
    ],
    ids=["inf-operator", "1e308-operator", "1e200-rotation", "inf-trace", "inf-tensor", "asymmetric-plane", "equal-eigenvalues"],
)
def test_inputs_that_warned_or_gave_nan(call):
    assert_finite_or_refused(call)


SPECIAL = st.sampled_from([1e308, -1e308, INF, -INF, NAN, 0.0])
SCALES = st.sampled_from([1.0, 1e-200, 1e150, 1e200, 1e306])  # entries stay below the float range


@st.composite
def poked(draw, a, scaled=True):
    """``a`` times a drawn scale (unless ``scaled`` is False), with up to
    two entries (and, half the time, their transposes) set to finite,
    huge, infinite or NaN values."""
    a = np.array(a, dtype=float) * (draw(SCALES) if scaled else 1.0)
    for _ in range(draw(st.integers(0, 2))):
        index = tuple(draw(st.integers(0, k - 1)) for k in a.shape)
        value = draw(st.one_of(SPECIAL, st.floats(-10.0, 10.0)))
        a[index] = value
        if draw(st.booleans()):
            a[index[::-1]] = value
    return a


def _rotation(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


SEEDS = st.integers(0, 2**16)
FUZZ = settings(max_examples=40, deadline=None)


@FUZZ
@given(SEEDS, st.data())
def test_fuzz_curvature_operator_and_operator_from_0_4(seed, data):
    w = random_weyl_operator(4, np.random.default_rng(seed))
    assert_finite_or_refused(lambda: CurvatureOperator(4, data.draw(poked(w.mat))))
    assert_finite_or_refused(lambda: operator_from_0_4(data.draw(poked(operator_to_0_4(w)))))


@FUZZ
@given(SEEDS, st.data())
def test_fuzz_rotate_operator(seed, data):
    rng = np.random.default_rng(seed)
    mat, rho = data.draw(poked(random_weyl_operator(5, rng).mat)), data.draw(poked(_rotation(rng, 5)))
    assert_finite_or_refused(lambda: rotate_operator(CurvatureOperator(5, mat), rho))


@FUZZ
@given(SEEDS, st.sampled_from([4, 5]), st.data())
def test_fuzz_phi_map(seed, n, data):
    p = sample_eigenflag_params(n, np.random.default_rng(seed))
    scale = data.draw(SCALES)
    p = EigenflagParams(
        rotation=data.draw(poked(p.rotation)), lambdas=data.draw(poked(p.lambdas * scale, False)), w2=data.draw(poked(p.w2 * scale, False))
    )
    assert_finite_or_refused(lambda: phi_map(p))


@FUZZ
@given(SEEDS, st.data())
def test_fuzz_eigenflag_residual(seed, data):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4)
    mat, v = data.draw(poked(random_weyl_operator(4, rng).mat)), data.draw(poked(v / np.linalg.norm(v)))
    assert_finite_or_refused(lambda: eigenflag_residual(CurvatureOperator(4, mat), v))


@FUZZ
@given(SEEDS, st.data())
def test_fuzz_plane_from_traceless_degenerate(seed, data):
    rng = np.random.default_rng(seed)
    q = _rotation(rng, 3)
    a = data.draw(poked(q @ np.diag([1.0, -1.0, 0.0]) * rng.uniform(0.1, 10.0) @ q.T))
    assert_finite_or_refused(lambda: plane_from_traceless_degenerate(a))


# -- one bound rule: tol * max|input|, no floor at 1 --------------------------


def _unit_weyl4_tensor():
    return operator_to_0_4(_weyl4())


def _entries(plus, minus):
    p = np.zeros((4, 4, 4, 4))
    p[tuple(np.array(plus).T)], p[tuple(np.array(minus).T)] = 1.0, -1.0
    return p


def _pair_exchange_defect():
    """Antisymmetric in each index pair, with R[0,1,0,2] += 1 and its
    mirror R[0,2,0,1] -= 1: it breaks pair exchange and nothing else."""
    return _entries(
        [(0, 1, 0, 2), (1, 0, 2, 0), (0, 2, 1, 0), (2, 0, 0, 1)], [(1, 0, 0, 2), (0, 1, 2, 0), (0, 2, 0, 1), (2, 0, 1, 0)]
    )


@pytest.mark.parametrize(
    "defect, message",
    [
        (_pair_exchange_defect(), "tensor not symmetric under pair exchange"),
        # two entries and their mirrors, without their images under the pair antisymmetries
        (_entries([(0, 1, 0, 2), (1, 0, 2, 0)], [(0, 2, 0, 1), (2, 0, 1, 0)]), "tensor not antisymmetric in its first index pair"),
    ],
    ids=["pair-exchange", "four-entries"],
)
def test_operator_from_0_4_refuses_a_pair_exchange_defect_once_by_the_tensor_check(defect, message):
    """A unit Weyl tensor moved by 1e-9 off pair exchange is refused by the
    tensor check, with the tensor's message: the tensor check and
    ``CurvatureOperator`` apply one bound, so the lex-pair matrix the caller
    never built is not what refuses it."""
    with pytest.raises(SymmetryViolation) as info:
        operator_from_0_4(_unit_weyl4_tensor() + 1e-9 * defect)
    assert str(info.value) == message


def _levi_civita4():
    eps = np.zeros((4, 4, 4, 4))
    for p in itertools.permutations(range(4)):
        eps[p] = np.linalg.det(np.eye(4)[list(p)])
    return eps


@functools.cache
def _charts():
    chart4 = normal_coordinates(random_metric_near_flat(4, np.random.default_rng(5), amplitude=0.03), np.zeros(4), order=2)
    chart3 = normal_coordinates(get_entry("nil").metric, np.zeros(3))
    return chart4, _frame_curvature(chart4.eval_jets(np.zeros(4), 2), np.zeros(4))[2], chart3, JetPipeline(chart3, np.zeros(3)).cotton_york()


def _operator(s, d):
    mat = s * _weyl4().mat
    mat[0, 1] += d * np.abs(mat).max()
    return CurvatureOperator(4, mat)


def _from_0_4(s, d, where):
    r4 = s * _unit_weyl4_tensor()
    r4[where] += d * np.abs(r4).max()
    return operator_from_0_4(r4)


def _rotate(s, d):
    rho = np.eye(4)
    rho[0, 1] = d
    return rotate_operator(CurvatureOperator(4, s * _weyl4().mat), rho)


def _phi(s, d, part):
    p = _params()
    lam, w2, rho = s * p.lambdas, s * p.w2, p.rotation.copy()
    size = max(np.abs(lam).max(), np.abs(w2).max())
    if part == "sum":
        lam[0] += d * size
    elif part == "ricci":
        w2 = w2 + d * size * np.eye(3)
    else:
        rho[0, 1] += d
    return phi_map(EigenflagParams(rho, lam, w2))


def _residual(s, d):
    return eigenflag_residual(CurvatureOperator(4, s * _weyl4().mat), [1.0 + d, 0.0, 0.0, 0.0])


def _curvature_target(s, d, defect):
    chart, r, _, _ = _charts()
    r0 = s * _unit_weyl4_tensor()
    return prescribe_curvature_in(chart, r0 + d * np.abs(r0).max() * defect, r)


def _cy_target(s, d, where):
    _, _, chart, cy = _charts()
    t = s * np.diag([0.5, -0.5, 0.0])
    t[0, 1] = t[1, 0] = 0.3 * s
    t[where] += d * np.abs(t).max()
    return prescribe_cotton_york_in(chart, t, cy)


def _weyl_target(s, d, tmp_path):
    mat = s * phi_map(_params()).mat
    mat = mat + d * np.abs(mat).max() * hodge_star_matrix()
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"weyl": mat.tolist()}))
    return _load_target(str(path), 4)


GATE_ERRORS = (SymmetryViolation, ConstraintViolation, NotOrthogonal, PreconditionViolation)


@pytest.mark.parametrize(
    "gate, tol",
    [
        (lambda s, d, _: _operator(s, d), INPUT_TOL),
        (lambda s, d, _: _from_0_4(s, d, (1, 0, 0, 2)), INPUT_TOL),
        (lambda s, d, _: operator_from_0_4(s * _unit_weyl4_tensor() + d * s * _pair_exchange_defect()), INPUT_TOL),
        (lambda s, d, _: _rotate(s, d), ORTHO_TOL),
        (lambda s, d, _: _phi(s, d, "sum"), INPUT_TOL),
        (lambda s, d, _: _phi(s, d, "ricci"), INPUT_TOL),
        (lambda s, d, _: _phi(s, d, "rotation"), ORTHO_TOL),
        (lambda s, d, _: _residual(s, d), INPUT_TOL),
        (lambda s, d, _: _curvature_target(s, d, _entries([(1, 0, 0, 2)], [])), INPUT_TOL),
        (lambda s, d, _: _curvature_target(s, d, _levi_civita4()), INPUT_TOL),
        (lambda s, d, _: _cy_target(s, d, (0, 1)), INPUT_TOL),
        (lambda s, d, _: _cy_target(s, d, (2, 2)), INPUT_TOL),
        (_weyl_target, INPUT_TOL),
    ],
    ids=[
        "CurvatureOperator", "operator_from_0_4-antisymmetry", "operator_from_0_4-pair-exchange", "rotate_operator",
        "phi_map-sum", "phi_map-ricci", "phi_map-rotation", "eigenflag_residual", "curvature-target-antisymmetry", "curvature-target-bianchi",
        "cy-target-symmetric", "cy-target-traceless", "weyl-target",
    ],
)
def test_every_input_gate_bounds_relative_to_the_input(gate, tol, tmp_path):
    """Each input check applies tol * max|input| with no floor at 1: an
    input scaled by 1e-6 that misses its property by 1e-8 of its size is
    refused, and so is one at scale 1 that misses it by 5 tol (below the
    looser literals some checks had); valid inputs at scales 1e-6, 1 and
    1e6 pass the gate (a prescription may still refuse a huge target for
    its size or its positivity, which is not the gate's refusal).  A
    rotation or a unit vector has no scale: there the operator is scaled."""
    for s, d in ((1e-6, 1e-8), (1.0, 5.0 * tol)):
        with pytest.raises(GATE_ERRORS):
            gate(s, d, tmp_path)
    for s in (1e-6, 1.0, 1e6):
        try:
            gate(s, 0.0, tmp_path)
        except LcwError as exc:
            assert not isinstance(exc, GATE_ERRORS), (s, exc)


@pytest.mark.parametrize("name", ["cp2_chart", "product4_sol", "product4_nil", "product4_sphere3"])
def test_verdicts_keep_under_a_homothety_of_the_coordinates(name):
    """auto_test on the metric pulled back by x -> lam x (g(lam y) lam^2,
    an isometry) at the mapped sample points gives the unscaled verdicts,
    for lam = 1e-4 and 1e4: the curvature's frame components, and the
    verdict, do not depend on the coordinates' units.  (Dims >= 4; dim 3
    waits on the Cotton-York test's absolute floor.)"""
    entry = get_entry(name)
    points = entry.sample_points(np.random.default_rng(11), 6)
    want = [auto_test(entry.metric, p).verdict_string for p in points]
    for lam in (1e-4, 1e4):
        pulled = PulledBackMetric(entry.metric, np.zeros(4), lam * np.eye(4), np.zeros((4, 4, 4)))
        assert [auto_test(pulled, p / lam).verdict_string for p in points] == want, lam


def _conformally_flat_text(n, rng):
    """exp(2 f) times the Euclidean metric, f a random cubic polynomial."""
    f = " + ".join(
        f"({0.1 * rng.standard_normal()!r})*" + "*".join(f"x{int(i) + 1}" for i in rng.integers(0, n, int(rng.integers(1, 4))))
        for _ in range(6)
    )
    return f"dim = {n}\n" + "".join(f"g{i}{i} = exp(2*({f}))\n" for i in range(1, n + 1))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_operator_from_0_4_takes_the_computed_weyl_tensor_of_a_conformally_flat_metric(n):
    """A conformally flat metric's computed W is all rounding, and rounding
    need not respect pair exchange; the pipeline makes W exactly pair
    symmetric, as it makes gamma symmetric, so the input check, to
    INPUT_TOL of W's own size, takes it.  Unsymmetrized, about one such
    tensor in ten misses pair exchange by more than that."""
    rng = np.random.default_rng(n)
    cases = []
    for _ in range(4):
        metric = parse_metric(_conformally_flat_text(n, rng))
        cases += [(metric, 0.3 * rng.uniform(-1.0, 1.0, n)) for _ in range(6)]
    if n == 4:  # and the catalog's R x S^3, at its sample points
        cases += [(get_entry("product4_sphere3").metric, p) for p in get_entry("product4_sphere3").sample_points(rng, 4)]
    for metric, p in cases:
        snap = compute_snapshot(metric, p)
        w = snap.weyl04
        operator_from_0_4(w, g=snap.g)
        operator_from_0_4(w)
        assert np.array_equal(w, w.transpose(2, 3, 0, 1)) and np.abs(w).max() <= 1e-12 * np.abs(snap.riemann).max()
