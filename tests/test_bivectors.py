"""Bivector-space algebra: operators, projectors, splittings, the Weyl
space and its flag parametrization, dimension arithmetic."""

import numpy as np
import pytest

from lcwcheck.bivectors import (
    CurvatureOperator,
    EigenflagParams,
    bianchi_project,
    dimension_report,
    hodge_star_matrix,
    induced_rotation,
    lex_pairs,
    operator_from_0_4,
    operator_to_0_4,
    pair_index,
    phi_map,
    pm_basis_matrix,
    pm_split,
    random_weyl_operator,
    ricci_contract,
    ricci_target_operator,
    rotate_operator,
    sample_eigenflag_params,
    sym_matrix_basis,
    sym_unvec,
    sym_vec,
    weyl_space_basis,
)
from lcwcheck.bivectors import _lex_pair_matrix, _pair_grid, orthonormal_frame
from lcwcheck.catalog import cp2_curvature
from lcwcheck.errors import (
    ConstraintViolation,
    DimensionError,
    DomainError,
    NotOrthogonal,
    SingularMetric,
    SymmetryViolation,
)
from lcwcheck.pipeline import kulkarni_nomizu


def _random_rotation(n, rng):
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q @ np.diag(np.sign(np.diag(r)))


# --- operator construction -------------------------------------------------------


def test_operator_constant_curvature_identity():
    # R = 1/2 g KN g has unit sectional curvature; operator is the identity
    r4 = 0.5 * kulkarni_nomizu(np.eye(3), np.eye(3))
    op = operator_from_0_4(r4)
    assert np.abs(op.mat - np.eye(3)).max() <= 1e-14


def test_operator_zero():
    op = operator_from_0_4(np.zeros((4, 4, 4, 4)))
    assert np.abs(op.mat).max() == 0.0


def test_operator_cp2_eigenvalues():
    op = operator_from_0_4(cp2_curvature())
    u = pm_basis_matrix()
    diag = u.T @ op.mat @ u
    assert np.allclose(np.diag(diag), [6, 0, 0, 2, 2, 2], atol=1e-12)
    assert np.abs(diag - np.diag(np.diag(diag))).max() <= 1e-12


def test_operator_rejects_asymmetric():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 1] = 1.0  # no antisymmetric completion
    with pytest.raises(SymmetryViolation):
        operator_from_0_4(bad)


def test_operator_round_trip(rng):
    op = random_weyl_operator(4, rng)
    r4 = operator_to_0_4(op)
    back = operator_from_0_4(r4)
    assert np.abs(back.mat - op.mat).max() <= 1e-13


def _operator_reference(r4, g=None):
    """The frame change as one 5-operand einsum, then the pair loop."""
    n = r4.shape[0]
    if g is not None:
        e = np.linalg.inv(np.linalg.cholesky(g)).T
        r4 = np.einsum("ijkl,ia,jb,kc,ld->abcd", r4, e, e, e, e)
    pairs = lex_pairs(n)
    mat = np.empty((len(pairs), len(pairs)))
    for a, (i, j) in enumerate(pairs):
        for c, (k, l) in enumerate(pairs):
            mat[a, c] = r4[i, j, k, l]
    return mat


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("with_g", [False, True])
def test_operator_matches_einsum_reference(n, with_g, rng):
    h = rng.standard_normal((n, n))
    r4 = kulkarni_nomizu(h + h.T, np.eye(n) + 0.1 * np.diag(rng.standard_normal(n)))
    if n >= 4:
        r4 = r4 + operator_to_0_4(random_weyl_operator(n, rng))
    g = None
    if with_g:
        a = rng.standard_normal((n, n))
        g = np.eye(n) + 0.3 * a @ a.T  # random SPD, not orthonormal
    ref = _operator_reference(r4, g)
    got = operator_from_0_4(r4, g=g).mat
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(r4).max()
    if with_g:  # the frame change has the bits of np.tensordot's
        t = r4
        for _ in range(4):
            t = np.tensordot(t, orthonormal_frame(g), ([0], [0]))
        assert got.tobytes() == CurvatureOperator(dim=n, mat=_lex_pair_matrix(t)).mat.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pair_gathers_match_loops(n, rng):
    # bianchi_project and induced_rotation against their pair loops, bit for bit
    s = rng.standard_normal((n * (n - 1) // 2,) * 2)
    op = CurvatureOperator(dim=n, mat=s + s.T)
    r4 = operator_to_0_4(op)
    b4 = (r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)) / 3.0
    loop = _operator_reference(b4)
    assert np.array_equal(bianchi_project(op).mat, CurvatureOperator(dim=n, mat=0.5 * (loop + loop.T)).mat)
    rho = _random_rotation(n, rng)
    pairs = lex_pairs(n)
    b = np.empty((len(pairs), len(pairs)))
    for c, (k, l) in enumerate(pairs):
        for a, (i, j) in enumerate(pairs):
            b[a, c] = rho[i, k] * rho[j, l] - rho[i, l] * rho[j, k]
    assert np.array_equal(induced_rotation(rho), b)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_operator_to_0_4_matches_the_scatter_version(n, rng):
    a, b, k, l = _pair_grid(n)
    for _ in range(5):
        s = rng.standard_normal((n * (n - 1) // 2,) * 2)
        s[0, 1] = -0.0
        op = CurvatureOperator(dim=n, mat=s + s.T)
        r4 = np.zeros((n, n, n, n))
        r4[a, b, k, l] = op.mat
        r4[b, a, k, l] = -op.mat
        r4[a, b, l, k] = -op.mat
        r4[b, a, l, k] = op.mat
        assert np.array_equal(operator_to_0_4(op).view(np.int64), r4.view(np.int64))


def test_sym_vec_unvec_match_loops(rng):
    m = 6
    s = rng.standard_normal((m, m))
    s = s + s.T
    upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
    ref = [s[i, i] for i in range(m)] + [s[i, j] * np.sqrt(2.0) for i, j in upper]
    assert np.array_equal(sym_vec(s), np.array(ref))
    v = rng.standard_normal(m * (m + 1) // 2)
    ref = np.diag(v[:m])
    for k, (i, j) in enumerate(upper):
        ref[i, j] = ref[j, i] = v[m + k] * (1.0 / np.sqrt(2.0))
    assert np.array_equal(sym_unvec(v, m), ref)


def test_operator_gram_schmidt_frame(rng):
    # a non-orthonormal g: the operator must be built in the g-frame
    g = np.eye(3) + 0.3 * np.outer([1, 2, 0.5], [1, 2, 0.5])
    r4 = 0.5 * kulkarni_nomizu(g, g)  # unit sectional curvature w.r.t. g
    op = operator_from_0_4(r4, g=g)
    assert np.abs(op.mat - np.eye(3)).max() <= 1e-12


# --- Hodge star -------------------------------------------------------------------


def test_hodge_dim4_examples():
    star = hodge_star_matrix()
    pi = pair_index(4)
    e12 = np.zeros(6)
    e12[pi[(0, 1)]] = 1.0
    assert np.allclose(star @ e12, np.eye(6)[pi[(2, 3)]])
    assert np.abs(star @ star - np.eye(6)).max() == 0.0
    # the self-dual and anti-self-dual bases are its +1 and -1 eigenvectors
    u = pm_basis_matrix()
    assert np.array_equal(star @ u, u * [1, 1, 1, -1, -1, -1])


# --- plus/minus splitting ----------------------------------------------------------


def test_pm_split_cp2():
    op = operator_from_0_4(cp2_curvature())
    sp = pm_split(op)
    assert np.allclose(sp.wplus, np.diag([4.0, -2.0, -2.0]), atol=1e-12)
    assert np.abs(sp.wminus).max() <= 1e-12
    assert np.abs(sp.z).max() <= 1e-12
    assert sp.scalar_part == pytest.approx(2.0, abs=1e-12)  # s/12 with s = 24


def test_pm_split_constant_curvature():
    r4 = 0.5 * kulkarni_nomizu(np.eye(4), np.eye(4))
    sp = pm_split(operator_from_0_4(r4))
    assert np.abs(sp.wplus).max() <= 1e-13
    assert np.abs(sp.wminus).max() <= 1e-13


def test_pm_split_random_weyl(rng):
    op = random_weyl_operator(4, rng)
    sp = pm_split(op)
    assert abs(sp.scalar_part) <= 1e-12
    assert np.abs(sp.z).max() <= 1e-12
    assert abs(np.trace(sp.wplus)) <= 1e-12
    assert abs(np.trace(sp.wminus)) <= 1e-12


def test_pm_reassemble_round_trip(rng):
    mat = rng.standard_normal((6, 6))
    op = CurvatureOperator(dim=4, mat=(mat + mat.T) / 2)
    # reassembly is exact for algebraic curvature operators; project first
    opc = CurvatureOperator(dim=4, mat=op.mat - bianchi_project(op).mat)
    sp = pm_split(opc)
    b = np.block([[sp.wplus, sp.z], [sp.z.T, sp.wminus]]) + sp.scalar_part * np.eye(6)
    u = pm_basis_matrix()
    assert np.abs(u @ b @ u.T - opc.mat).max() <= 1e-12


def test_pm_split_phi_images_are_isospectral(rng):
    # W+ and W- of a dim-4 flag-invariant operator have one spectrum, so
    # every eigenvalue of the operator repeats
    for _ in range(5):
        sp = pm_split(phi_map(sample_eigenflag_params(4, rng)))
        scale = max(np.abs(sp.wplus).max(), np.abs(sp.wminus).max())
        gap = np.linalg.eigvalsh(sp.wplus) - np.linalg.eigvalsh(sp.wminus)
        assert np.abs(gap).max() <= 1e-12 * scale


# --- Bianchi projector and Ricci contraction -----------------------------------------


def test_bianchi_annihilates_curvature():
    from lcwcheck.catalog import get_entry
    from lcwcheck.pipeline import compute_snapshot

    snap = compute_snapshot(get_entry("product4_nil").metric, (0.1, 0.2, -0.3, 0.4))
    op = operator_from_0_4(snap.riemann, g=snap.g)
    assert np.abs(bianchi_project(op).mat).max() <= 1e-10 * max(np.abs(op.mat).max(), 1.0)


def test_bianchi_fixes_four_form():
    star = hodge_star_matrix()  # the 4-form generator as an operator
    op = CurvatureOperator(dim=4, mat=star)
    assert np.abs(bianchi_project(op).mat - star).max() <= 1e-13


def test_bianchi_idempotent(rng):
    for n in (3, 4, 5):
        m = n * (n - 1) // 2
        a = rng.standard_normal((m, m))
        op = CurvatureOperator(dim=n, mat=(a + a.T) / 2)
        b1 = bianchi_project(op)
        b2 = bianchi_project(b1)
        assert np.abs(b1.mat - b2.mat).max() <= 1e-12


@pytest.mark.parametrize("n,expected", [(3, 6), (4, 20), (5, 50)])
def test_bianchi_kernel_dimension(n, expected):
    # numeric rank of the projector on vectorized symmetric operators
    basis = sym_matrix_basis(n * (n - 1) // 2)
    cols = [sym_vec(bianchi_project(CurvatureOperator(dim=n, mat=e)).mat) for e in basis]
    bmat = np.array(cols).T
    svals = np.linalg.svd(bmat, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * max(svals[0], 1e-30)))
    assert len(basis) - rank == expected


def test_ricci_contract_projection_basis_element():
    # r(e_{1k} odot e_{1k}) = e1 (x) e1 + ek (x) ek
    pi = pair_index(4)
    m0 = np.zeros((6, 6))
    m0[pi[(0, 2)], pi[(0, 2)]] = 1.0
    r = ricci_contract(CurvatureOperator(dim=4, mat=m0))
    want = np.zeros((4, 4))
    want[0, 0] = want[2, 2] = 1.0
    assert np.abs(r - want).max() == 0.0


def test_ricci_contract_identity():
    for n in (3, 4, 5):
        m = n * (n - 1) // 2
        r = ricci_contract(CurvatureOperator(dim=n, mat=np.eye(m)))
        assert np.abs(r - (n - 1) * np.eye(n)).max() == 0.0


def test_ricci_contract_weyl_zero(rng):
    for n in (4, 5):
        op = random_weyl_operator(n, rng)
        assert np.abs(ricci_contract(op)).max() <= 1e-12


# --- Weyl space basis ----------------------------------------------------------------


@pytest.mark.parametrize("n,dim", [(3, 0), (4, 10), (5, 35)])
def test_weyl_space_dimension(n, dim):
    assert len(weyl_space_basis(n)) == dim


def test_weyl_basis_orthonormal_and_in_kernel():
    basis = weyl_space_basis(4)
    for i, bi in enumerate(basis):
        assert np.abs(bianchi_project(bi).mat).max() <= 1e-10
        assert np.abs(ricci_contract(bi)).max() <= 1e-10
        for j, bj in enumerate(basis):
            ip = np.sum(bi.mat * bj.mat)
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_weyl_basis_dim_out_of_range():
    with pytest.raises(DimensionError):
        weyl_space_basis(7)


# --- flag parametrization --------------------------------------------------------------


def test_phi_zero_params():
    n = 4
    params = EigenflagParams(
        rotation=np.eye(n),
        lambdas=np.zeros(n - 1),
        w2=np.zeros((3, 3)),
    )
    assert np.abs(phi_map(params).mat).max() == 0.0


def test_phi_dim4_diagonal_form():
    lam = np.array([1.0, 1.0, -2.0])
    params = EigenflagParams(
        rotation=np.eye(4), lambdas=lam, w2=ricci_target_operator(lam, 4)
    )
    w = phi_map(params)
    sp = pm_split(w)
    assert np.allclose(np.sort(np.linalg.eigvalsh(sp.wplus)), [-2, 1, 1], atol=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(sp.wminus)), [-2, 1, 1], atol=1e-12)
    assert np.allclose(np.diag(w.mat), [1, 1, -2, -2, 1, 1], atol=1e-12)


def test_phi_requires_zero_sum():
    params = EigenflagParams(
        rotation=np.eye(4),
        lambdas=np.array([1.0, 1.0, 1.0]),
        w2=np.zeros((3, 3)),
    )
    with pytest.raises(ConstraintViolation):
        phi_map(params)


def test_phi_requires_ricci_constraint():
    lam = np.array([1.0, 0.0, -1.0])
    params = EigenflagParams(rotation=np.eye(4), lambdas=lam, w2=np.zeros((3, 3)))
    with pytest.raises(ConstraintViolation):
        phi_map(params)


@pytest.mark.parametrize("n", [4, 5])
def test_phi_images_are_weyl(n, rng):
    for _ in range(10):
        params = sample_eigenflag_params(n, rng)
        w = phi_map(params)
        scale = max(np.abs(w.mat).max(), 1.0)
        assert np.abs(bianchi_project(w).mat).max() <= 1e-9 * scale
        assert np.abs(ricci_contract(w)).max() <= 1e-9 * scale


def test_phi_rotation_equivariance(rng):
    params = sample_eigenflag_params(5, rng)
    rho2 = _random_rotation(5, rng)
    lhs = phi_map(
        EigenflagParams(
            rotation=rho2 @ params.rotation, lambdas=params.lambdas, w2=params.w2
        )
    )
    rhs = rotate_operator(phi_map(params), rho2)
    assert np.abs(lhs.mat - rhs.mat).max() <= 1e-10


def test_phi_isospectral_blocks_dim4(rng):
    for _ in range(10):
        params = sample_eigenflag_params(4, rng)
        sp = pm_split(phi_map(params))
        p_eig = np.sort(np.linalg.eigvalsh(sp.wplus))
        m_eig = np.sort(np.linalg.eigvalsh(sp.wminus))
        assert np.abs(p_eig - m_eig).max() <= 1e-9


# --- rotations ---------------------------------------------------------------------------


def test_rotate_identity(rng):
    op = random_weyl_operator(4, rng)
    out = rotate_operator(op, np.eye(4))
    assert np.abs(out.mat - op.mat).max() == 0.0


def test_rotate_preserves_weyl(rng):
    op = random_weyl_operator(5, rng)
    rho = _random_rotation(5, rng)
    out = rotate_operator(op, rho)
    assert np.abs(bianchi_project(out).mat).max() <= 1e-10
    assert np.abs(ricci_contract(out)).max() <= 1e-10


def test_rotate_quarter_turn_column_pattern():
    # rotation by pi/2 in the (e1, e2) plane maps e1^e3 to e2^e3
    rho = np.eye(4)
    rho[0, 0] = rho[1, 1] = 0.0
    rho[1, 0] = 1.0
    rho[0, 1] = -1.0
    b = induced_rotation(rho)
    pi = pair_index(4)
    e13 = np.zeros(6)
    e13[pi[(0, 2)]] = 1.0
    out = b @ e13
    want = np.zeros(6)
    want[pi[(1, 2)]] = 1.0
    assert np.allclose(out, want)


def test_rotate_rejects_non_orthogonal(rng):
    op = random_weyl_operator(4, rng)
    with pytest.raises(NotOrthogonal):
        rotate_operator(op, np.eye(4) * 1.01)


# --- dimension arithmetic -----------------------------------------------------------------


def test_dimension_report_n4():
    rep = dimension_report(4)
    assert rep["dim_weyl"] == 10
    assert rep["dim_ew"] == 8
    assert rep["codim"] == 2
    assert rep["codim_closed_form"] == pytest.approx(2.0, abs=1e-9)
    assert rep["dim_weyl_quartic_closed_form"] == pytest.approx(11.5, abs=1e-9)
    assert rep["quartic_closed_form_mismatch"] is True
    assert rep["dim_ker_bianchi"] == 20


def test_dimension_report_n5():
    rep = dimension_report(5)
    assert rep["dim_weyl"] == 35
    assert rep["dim_ew"] == 10 + 3 + 10  # rotations + eigenvalues + lower Weyl
    assert rep["codim"] == 12
    assert rep["codim_closed_form"] == pytest.approx(12.0, abs=1e-9)
    assert rep["dim_ker_bianchi"] == 50


def test_dimension_report_range():
    with pytest.raises(DimensionError):
        dimension_report(3)


def test_operator_from_0_4_refuses_a_metric_that_is_not_positive_definite():
    """As a pipeline's metric: a SingularMetric, not numpy's LinAlgError."""
    r4 = kulkarni_nomizu(np.eye(4), np.eye(4))
    with pytest.raises(SingularMetric, match="not positive definite"):
        operator_from_0_4(r4, g=np.diag([1.0, 1.0, 1.0, -1.0]))


def test_operator_from_0_4_refuses_a_metric_that_is_not_finite():
    """As a pipeline's metric: a DomainError, not an operator of NaNs."""
    r4 = kulkarni_nomizu(np.eye(4), np.eye(4))
    g = np.eye(4)
    g[1, 1] = np.nan
    with pytest.raises(DomainError, match="not finite"):
        operator_from_0_4(r4, g=g)
