"""Algebra on the space of bivectors.

Curvature-type objects at a point are represented as symmetric matrices on
Lambda^2 of an orthonormal frame, in the graded-lexicographic basis of index
pairs (i, j), i < j ("lex-pairs").  The inner product makes those pair
vectors orthonormal.

The main players:

* ``bianchi_project``: projection of S^2(Lambda^2) onto the 4-forms; its
  kernel is the algebraic curvature operators, and every Riemann tensor of
  a metric lies in that kernel (first Bianchi identity).
* ``ricci_contract``: trace map to symmetric 2-tensors; algebraic Weyl
  operators are ker(bianchi) intersect ker(ricci).
* ``pm_split``: the dimension-4 decomposition into self-dual and
  anti-self-dual blocks induced by the Hodge involution.
* ``phi_map``: assembles a Weyl operator with an invariant flag
  v ^ v-perp from a rotation, eigenvalues summing to zero, and a curvature
  operator on the orthogonal complement with prescribed Ricci contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConstraintViolation, DimensionError, DomainError, NotOrthogonal, SingularMetric
from .pipeline import INPUT_TOL, ORTHO_TOL, _check_curvature_symmetries, _perm_sign, _pow2_scaled, _require_small, kulkarni_nomizu


@lru_cache(maxsize=None)
def lex_pairs(n):
    """Ordered index pairs (i, j), i < j, lexicographic."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def pair_index(n):
    return {p: a for a, p in enumerate(lex_pairs(n))}


@lru_cache(maxsize=None)
def _pair_grid(n):
    """Index arrays (i, j, k, l), each broadcasting to (m, m): row a holds
    lex pair (i, j), column c holds lex pair (k, l)."""
    i, j = np.array(lex_pairs(n), dtype=int).reshape(-1, 2).T
    return i[:, None], j[:, None], i[None, :], j[None, :]


def _lex_pair_matrix(r4):
    """mat[(ij),(kl)] = r4[i, j, k, l] over lex pairs, as one gather."""
    return r4[_pair_grid(r4.shape[0])]


def bivector_dim(n):
    return n * (n - 1) // 2


@dataclass
class CurvatureOperator:
    """Symmetric matrix on bivectors in the lex-pairs basis."""

    dim: int
    mat: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")  # a matrix past the float range gives inf or nan; the gate refuses it
    def __post_init__(self):
        m = bivector_dim(self.dim)
        self.mat = np.asarray(self.mat, dtype=float)
        if self.mat.shape != (m, m):
            raise DimensionError(
                f"operator matrix must be {m}x{m} for dim {self.dim}, got {self.mat.shape}"
            )
        _require_small(self.mat - self.mat.T, INPUT_TOL, self.mat, "operator matrix is not symmetric")
        self.mat = 0.5 * self.mat + 0.5 * self.mat.T  # the bits of 0.5 * (mat + mat.T) in the normal range, without its overflow

    def norm(self):
        return float(np.linalg.norm(self.mat))

    def to_json_dict(self):
        return {"dim": self.dim, "basis": "lex-pairs", "mat": self.mat}


def orthonormal_frame(g):
    """Columns form a g-orthonormal frame (Gram-Schmidt via Cholesky).  A g
    that is not finite is a DomainError, one that is not positive definite
    a SingularMetric, as for the metric of a pipeline."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise DomainError("metric not finite")
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetric("metric not positive definite") from None
    return np.linalg.inv(L).T


def operator_from_0_4(r4, g=None) -> CurvatureOperator:
    """Curvature operator of a (0,4) tensor with curvature symmetries.

    The symmetries are checked to INPUT_TOL relative.  The frame is
    orthonormalized against ``g`` first (identity when g is omitted), so
    the operator acts on bivectors of an orthonormal basis:
    mat[(ij),(kl)] = R(e_i, e_j, e_k, e_l).  The frame change is four
    single-index contractions, O(n^5) in all, and the lex-pair matrix is
    read off with one gather.
    """
    r4 = np.asarray(r4, dtype=float)
    n = r4.shape[0]
    if r4.shape != (n, n, n, n):
        raise DimensionError("expected an (n,n,n,n) array")
    _check_curvature_symmetries(r4)
    if g is not None:
        r4 = _to_frame(r4, orthonormal_frame(g))
    return CurvatureOperator(dim=n, mat=_lex_pair_matrix(r4))


def _to_frame(t, e):
    """t with every index moved to the frame e (columns): each pass contracts the leading
    index and appends the frame index, np.tensordot(t, e, ([0], [0])) without its set-up."""
    for _ in range(t.ndim):
        t = np.dot(t.transpose(*range(1, t.ndim), 0).reshape(-1, len(e)), e).reshape(t.shape)
    return t


@lru_cache(maxsize=None)
def _0_4_gather(n):
    """Index table (n, n, n, n) into [mat.ravel(), -mat.ravel(), 0]: the
    entry of each (0,4) component, or the 0 past both where i = j or
    k = l."""
    m = bivector_dim(n)
    table = np.full((n, n, n, n), 2 * m * m)
    a, b, k, l = _pair_grid(n)
    at = np.arange(m * m).reshape(m, m)
    table[a, b, k, l] = table[b, a, l, k] = at
    table[b, a, k, l] = table[a, b, l, k] = at + m * m
    return table


def operator_to_0_4(op: CurvatureOperator) -> np.ndarray:
    """(0,4) components in the orthonormal frame, extended by symmetry."""
    flat = op.mat.ravel()
    return np.concatenate([flat, -flat, [0.0]])[_0_4_gather(op.dim)]


def hodge_star_matrix():
    """Hodge star on the bivectors of dim 4: the involution on Lambda^2 in
    an oriented orthonormal frame (matrix in the lex-pairs basis; its
    square is the identity)."""
    pairs = lex_pairs(4)
    star = np.zeros((len(pairs), len(pairs)))
    for a, (i, j) in enumerate(pairs):
        k, l = [x for x in range(4) if x not in (i, j)]
        star[pair_index(4)[(k, l)], a] = _perm_sign((i, j, k, l))
    return star


def pm_basis_matrix():
    """Columns: normalized self-dual basis (phi_1..3) then anti-self-dual
    (psi_1..3), in lex-pair coordinates of dim 4.

    phi_1 = e12+e34, phi_2 = e13-e24, phi_3 = e14+e23;
    psi_1 = e12-e34, psi_2 = e13+e24, psi_3 = e14-e23.
    """
    s = 1.0 / np.sqrt(2.0)
    u = np.zeros((6, 6))
    # lex pairs of 4: (01),(02),(03),(12),(13),(23)
    u[:, 0] = [s, 0, 0, 0, 0, s]
    u[:, 1] = [0, s, 0, 0, -s, 0]
    u[:, 2] = [0, 0, s, s, 0, 0]
    u[:, 3] = [s, 0, 0, 0, 0, -s]
    u[:, 4] = [0, s, 0, 0, s, 0]
    u[:, 5] = [0, 0, s, -s, 0, 0]
    return u


@dataclass
class PMSplit:
    """Self-dual / anti-self-dual decomposition of a dim-4 operator."""

    wplus: np.ndarray
    wminus: np.ndarray
    z: np.ndarray
    scalar_part: float


def pm_split(op: CurvatureOperator) -> PMSplit:
    if op.dim != 4:
        raise DimensionError("plus/minus splitting needs dim 4")
    u = pm_basis_matrix()
    b = u.T @ op.mat @ u
    scalar_part = float(np.trace(b)) / 6.0
    return PMSplit(
        wplus=b[:3, :3] - scalar_part * np.eye(3),
        wminus=b[3:, 3:] - scalar_part * np.eye(3),
        z=b[:3, 3:],
        scalar_part=scalar_part,
    )


def bianchi_project(op: CurvatureOperator) -> CurvatureOperator:
    """Projection onto the 4-forms: cyclic average over the first three
    slots.  Its kernel is the algebraic curvature operators; it fixes
    4-forms and annihilates every Riemann tensor."""
    r4 = operator_to_0_4(op)
    b4 = (r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)) / 3.0
    mat = _lex_pair_matrix(b4)
    return CurvatureOperator(dim=op.dim, mat=0.5 * (mat + mat.T))


def ricci_contract(op: CurvatureOperator) -> np.ndarray:
    """r(R)[x, y] = trace of R(x, ., y, .) in the orthonormal frame."""
    r4 = operator_to_0_4(op)
    return np.einsum("xaya->xy", r4)


def sym_matrix_basis(m):
    """Frobenius-orthonormal basis of symmetric m x m matrices, in the
    order of ``sym_vec``."""
    return [sym_unvec(e, m) for e in np.eye(m * (m + 1) // 2)]


def sym_vec(mat):
    """Diagonal, then sqrt(2) times the upper triangle row by row."""
    i, j = np.triu_indices(mat.shape[0], 1)
    return np.concatenate([np.diag(mat), mat[i, j] * np.sqrt(2.0)])


def sym_unvec(v, m):
    i, j = np.triu_indices(m, 1)
    out = np.diag(np.asarray(v[:m], dtype=float))
    out[i, j] = out[j, i] = v[m:] * (1.0 / np.sqrt(2.0))
    return out


def expected_weyl_dim(n):
    """dim ker(b) - dim S^2(V) = (n^4 - n^2)/12 - n(n+1)/2 (0 when n = 3)."""
    if n == 3:
        return 0
    return (n**4 - n**2) // 12 - n * (n + 1) // 2


@lru_cache(maxsize=None)
def _weyl_basis_cached(n):
    if n == 3:
        return ()
    m = bivector_dim(n)
    basis = sym_matrix_basis(m)
    nvec = len(basis)
    rows_b = []
    rows_r = []
    for e in basis:
        opi = CurvatureOperator(dim=n, mat=e)
        rows_b.append(sym_vec(bianchi_project(opi).mat))
        rows_r.append(sym_vec(ricci_contract(opi)))
    bmat = np.array(rows_b).T  # maps vec -> vec of b-image
    rmat = np.array(rows_r).T  # maps vec -> vec(sym n x n)
    stacked = np.vstack([bmat, rmat])
    u, s, vt = np.linalg.svd(stacked)
    expected = expected_weyl_dim(n)
    null_dim = int(np.sum(s <= 1e-10 * s[0])) + (nvec - len(s))
    if null_dim != expected:
        raise ConstraintViolation(
            f"numeric Weyl-space dimension {null_dim} != expected {expected} for n={n}"
        )
    if expected > 0:
        # singular values must split cleanly between range and kernel
        smallest_kept = s[nvec - expected - 1]
        largest_dropped = s[nvec - expected] if nvec - expected < len(s) else 0.0
        if largest_dropped > 0 and smallest_kept / largest_dropped < 1e6:
            raise ConstraintViolation(
                f"singular value gap too small for a reliable Weyl basis (n={n})"
            )
    vecs = vt[nvec - expected:]
    return tuple(CurvatureOperator(dim=n, mat=sym_unvec(v, m)) for v in vecs)


def weyl_space_basis(n):
    """Frobenius-orthonormal basis of ker(bianchi) intersect ker(ricci).

    Empty for n = 3 (the space is {0}); DimensionError outside 3..6.
    """
    if not 3 <= n <= 6:
        raise DimensionError(f"Weyl basis supported for 3 <= n <= 6, got {n}")
    return list(_weyl_basis_cached(n))


def random_weyl_operator(n, rng) -> CurvatureOperator:
    """Uniform sample from the unit (Frobenius) sphere of the Weyl space."""
    basis = weyl_space_basis(n)
    if not basis:
        raise DimensionError("Weyl space is trivial for n = 3")
    c = rng.standard_normal(len(basis))
    c /= np.linalg.norm(c)
    mat = sum(ci * b.mat for ci, b in zip(c, basis))
    return CurvatureOperator(dim=n, mat=mat)


def induced_rotation(rho):
    """B(rho) on bivectors: B(rho)(v ^ w) = rho(v) ^ rho(w)."""
    rho = np.asarray(rho, dtype=float)
    i, j, k, l = _pair_grid(rho.shape[0])
    return rho[i, k] * rho[j, l] - rho[i, l] * rho[j, k]


@np.errstate(over="ignore", invalid="ignore")  # a matrix past the float range gives inf or nan; the gates refuse it
def rotate_operator(op: CurvatureOperator, rho) -> CurvatureOperator:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (op.dim, op.dim):
        raise DimensionError("rotation has the wrong shape")
    _require_small(rho.T @ rho - np.eye(op.dim), ORTHO_TOL, 1.0, "rotation matrix is not orthogonal", NotOrthogonal)
    b = induced_rotation(rho)
    return CurvatureOperator(dim=op.dim, mat=b @ op.mat @ b.T)


# -- eigenflag parametrization ------------------------------------------------


@dataclass
class EigenflagParams:
    """Data for one point of the flag-invariant Weyl family.

    ``rotation`` is n x n orthogonal; ``lambdas`` are the n-1 eigenvalues on
    the pairs (e1, e_k) and must sum to zero; ``w2`` is a curvature operator
    on Lambda^2 of the orthogonal complement of e1 (lex pairs of indices
    2..n), constrained by r(w2) = -sum_k lambda_k e_k (x) e_k.
    """

    rotation: np.ndarray
    lambdas: np.ndarray
    w2: np.ndarray

    @property
    def dim(self):
        return self.rotation.shape[0]


def ricci_target_operator(lambdas, n):
    """Particular curvature operator on e1-perp with
    r = -sum lambda_k e_k (x) e_k, built from a Kulkarni-Nomizu product."""
    nm1 = n - 1
    if nm1 < 3:
        raise DimensionError("needs n >= 4")
    t = -np.diag(lambdas)  # on the (n-1)-dim complement
    h = t / (nm1 - 2)  # r(h KN delta) = (m-2) h + tr(h) delta, tr t = 0
    r4 = kulkarni_nomizu(h, np.eye(nm1))
    return operator_from_0_4(r4).mat


def _require_weyl(op, name):
    """ConstraintViolation unless the Ricci contraction and Bianchi part of ``op`` vanish: the Frobenius
    norm of each at most INPUT_TOL max|op|, tested on op / 2^k, which is exact and keeps the norms finite."""
    scaled = CurvatureOperator(dim=op.dim, mat=_pow2_scaled(op.mat)[0])
    off = max(np.linalg.norm(ricci_contract(scaled)), np.linalg.norm(bianchi_project(scaled).mat))
    _require_small(off, INPUT_TOL, scaled.mat, f"{name} is not a Weyl operator: its Ricci contraction or Bianchi part is not 0", ConstraintViolation)


@np.errstate(over="ignore", invalid="ignore")  # parameters past the float range give inf or nan; the gates refuse them
def phi_map(params: EigenflagParams) -> CurvatureOperator:
    """Assemble the flag-invariant Weyl operator
    B(rho) (diag(lambda) + [0 ... 0, W2]) B(rho)^T.

    The result satisfies b = 0 and r = 0 and is invariant on
    v ^ v-perp for v = rho(e1).  The constraints on the parameters are
    checked to INPUT_TOL times their largest entry, the rotation to ORTHO_TOL.
    """
    n = params.dim
    if not 4 <= n <= 6:
        raise DimensionError("eigenflag parametrization needs 4 <= n <= 6")
    rho = np.asarray(params.rotation, dtype=float)
    lam = np.asarray(params.lambdas, dtype=float)
    if lam.shape != (n - 1,):
        raise ConstraintViolation(f"need {n-1} eigenvalues, got {lam.shape}")
    w2 = np.asarray(params.w2, dtype=float)
    m = bivector_dim(n - 1)
    if rho.shape != (n, n) or w2.shape != (m, m):
        raise DimensionError(f"need a {n}x{n} rotation and a {m}x{m} w2, got {rho.shape} and {w2.shape}")
    if not np.isfinite(w2).all():  # the bounds below are relative to it
        raise ConstraintViolation("w2 has an entry that is not a finite number")
    core = np.zeros((bivector_dim(n),) * 2)
    core[n - 1:, n - 1:] += w2  # the pairs of e1-perp, the last ones in lex order
    core[range(n - 1), range(n - 1)] += lam  # the pairs (e1, e_k), the first n - 1
    _require_small(lam.sum(), INPUT_TOL, core, f"eigenvalues must sum to zero (sum = {lam.sum():g})", ConstraintViolation)
    _require_small(rho.T @ rho - np.eye(n), ORTHO_TOL, 1.0, f"rotation is not orthogonal to {ORTHO_TOL:g}", ConstraintViolation)
    # the Ricci constraint on w2 makes the assembled operator a Weyl tensor
    _require_weyl(CurvatureOperator(dim=n, mat=core), "diag(lambdas) + w2")
    b = induced_rotation(rho)
    return CurvatureOperator(dim=n, mat=b @ core @ b.T)


def sample_eigenflag_params(n, rng) -> EigenflagParams:
    """Random valid parameters: Haar-ish rotation, centered eigenvalues,
    w2 = particular solution + random element of the lower Weyl space."""
    if not 4 <= n <= 6:
        raise DimensionError("eigenflag parametrization needs 4 <= n <= 6")
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    lam = rng.standard_normal(n - 1)
    lam -= lam.mean()
    w2 = ricci_target_operator(lam, n)
    lower = weyl_space_basis(n - 1)
    if lower:
        c = rng.standard_normal(len(lower))
        w2 = w2 + sum(ci * b.mat for ci, b in zip(c, lower))
    return EigenflagParams(rotation=q, lambdas=lam, w2=w2)


# -- dimension arithmetic ------------------------------------------------------


def dimension_report(n) -> dict:
    """Dimension bookkeeping for the Weyl space and its flag-invariant
    subvariety.

    The report carries the numerically measured dim of the Weyl space, the
    assembled count dim ker(b) - dim S^2(V), and the literal quartic closed
    form (1/12 n^4 - 7/12 n^2 - 1/2), which does not match the assembled
    count (it gives 11.5 at n = 4 where the true dimension is 10); the
    mismatch is surfaced rather than hidden.
    """
    if not 4 <= n <= 6:
        raise DimensionError("dimension report defined for 4 <= n <= 6")
    dim_weyl_numeric = len(weyl_space_basis(n))
    dim_weyl_assembled = expected_weyl_dim(n)
    quartic = n**4 / 12.0 - 7.0 * n**2 / 12.0 - 0.5
    dim_so = n * (n - 1) // 2
    dim_lambdas = n - 2
    dim_weyl_lower = expected_weyl_dim(n - 1)
    dim_ew = dim_so + dim_lambdas + dim_weyl_lower
    codim = dim_weyl_numeric - dim_ew
    codim_closed_form = n**3 / 3.0 - n**2 - 4.0 * n / 3.0 + 2.0
    return {
        "dim": n,
        "dim_weyl": dim_weyl_numeric,
        "dim_weyl_assembled": dim_weyl_assembled,
        "dim_weyl_quartic_closed_form": quartic,
        "quartic_closed_form_mismatch": bool(abs(quartic - dim_weyl_assembled) > 1e-12),
        "dim_so": dim_so,
        "dim_lambdas": dim_lambdas,
        "dim_weyl_lower": dim_weyl_lower,
        "dim_ew": dim_ew,
        "codim": codim,
        "codim_closed_form": codim_closed_form,
        "dim_ker_bianchi": n**2 * (n**2 - 1) // 12,
        "dim_sym2_lambda2": bivector_dim(n) * (bivector_dim(n) + 1) // 2,
    }
