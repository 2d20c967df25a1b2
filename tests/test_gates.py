"""The tolerance checks on library inputs: every one refuses a number that
is not finite with its own error, and a call on any input, finite, huge,
infinite or NaN, returns finite numbers or raises an LcwError, never a
numpy error or warning."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcwcheck.bivectors import (
    CurvatureOperator,
    EigenflagParams,
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
from lcwcheck.obstructions import eigenflag_residual, plane_from_traceless_degenerate

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
