"""Pointwise curvature tensors of a coordinate metric.

The metric enters as the order-3 jets of its components, evaluated once by
the dsl.  Every derived tensor (inverse metric, Christoffel symbols,
curvature, Ricci, scalar, Schouten, Weyl) is a first-order jet: one ndarray
of shape ``(1 + n, *tensor_shape)`` whose slice 0 is the value at the point
and whose slice ``1 + a`` is the partial d_a; Cotton and the Weyl divergence
take the partials of Schouten and Weyl from slices 1..n.  (Readers of the
values alone, which depend only on the metric's 2-jet, use the frame kernel
``obstructions._frame_curvature``.)  All derivatives are exact (no finite
differencing anywhere).

Conventions, fixed once and used everywhere:

* ``riemann[i, k, l, m]`` is antisymmetric in (i, k) and in (l, m) and
  symmetric under pair exchange; for the round unit sphere the sectional
  value ``R[0, 1, 0, 1]`` is positive (K = +1).
* ``ricci[k, m] = g^{ab} R[a, k, b, m]`` and ``scalar = g^{km} Ric[k, m]``.
* ``schouten = (Ric - scalar/(2(n-1)) g) / (n-2)``.
* ``weyl = riemann - kulkarni_nomizu(schouten, g)``.
* ``cotton[i, j, k] = (nabla_i S)[j, k] - (nabla_j S)[i, k]``.
* ``cotton_york[i, j] = 1/2 C[k, l, i] g[j, m] eps(k, l, m)/sqrt(det g)``
  (dimension 3 only; eps is the permutation signature).
* ``div_weyl[i, j, k] = g^{la} (nabla_l W)[i, j, a, k]``; with these signs
  it equals (n-3) * cotton on every metric (divergence identity).

All functions are pure; snapshots at distinct points can be computed in
parallel with no shared state.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dsl import Call, MetricDef, Mul, Num
from .errors import DimensionError, DomainError, SingularMetric, SymmetryViolation
from .jets import jet_space

COND_LIMIT = 1e12


def _eps3():
    eps = np.zeros((3, 3, 3))
    for p in itertools.permutations(range(3)):
        eps[p] = _perm_sign(p)
    return eps


def _perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


EPS3 = _eps3()


INPUT_TOL = 1e-10  # symmetry and constraint checks on an input, relative to its largest entry
ORTHO_TOL = 1e-12  # orthogonality of an input rotation: rho^T rho - I against the identity's 1


def _require_small(x, tol, ref, what, error=SymmetryViolation):
    """error(what) unless max |x| <= tol * max |ref| < inf (NaN fails), the rule of every tolerance check
    on an input: relative to ``ref``, with no floor at 1; its message says when a number is not finite."""
    big, bound = np.abs(x).max(), tol * np.abs(ref).max()
    if not big <= bound < math.inf:
        if not (math.isfinite(big) and math.isfinite(bound)):
            what = f"{what} (not a finite number: {big:g} against a bound of {bound:g})"
        raise error(what)


def _pow2_scaled(a):
    """(a / 2^k, k) with max|a / 2^k| in [0.5, 1): exact for every entry that stays
    in the normal range, and the norms of the scaled array neither overflow nor underflow."""
    k = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -k), k


@np.errstate(over="ignore", invalid="ignore")  # a tensor past the float range gives inf or nan; the gate refuses it
def _check_curvature_symmetries(r4, tol=INPUT_TOL, ref=None, bianchi=False):
    """Antisymmetry in each index pair, pair exchange symmetry and, if
    ``bianchi``, the first Bianchi identity, to ``tol`` relative to r4 (or ``ref``)."""
    ref = np.abs(r4 if ref is None else ref).max()  # one max for the four checks
    _require_small(r4 + r4.transpose(1, 0, 2, 3), tol, ref, "tensor not antisymmetric in its first index pair")
    _require_small(r4 + r4.transpose(0, 1, 3, 2), tol, ref, "tensor not antisymmetric in its second index pair")
    _require_small(r4 - r4.transpose(2, 3, 0, 1), tol, ref, "tensor not symmetric under pair exchange")
    if bianchi:
        _require_small(r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3), tol, ref, "tensor violates the first Bianchi identity")


def _antisym_pairs(t):
    """t - t(i<->j) - t(k<->l) + t(i<->j, k<->l) on the last four axes
    (i, j, k, l); exactly antisymmetric in (i, j) and in (k, l).  With
    t = a_ik b_jl it is the Kulkarni-Nomizu product a ^o b."""
    t = t - t.swapaxes(-4, -3)
    return t - t.swapaxes(-2, -1)


def kulkarni_nomizu(alpha, beta) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric matrices:
    (a ^o b)[i,j,k,l] = a_ik b_jl + b_ik a_jl - a_il b_jk - a_jk b_il."""
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("kulkarni_nomizu needs two square matrices of equal size")
    return _antisym_pairs(np.einsum("ik,jl->ijkl", a, b))


def _dot(spec, a, b):
    """Product of two first-order jets, contracted by the einsum ``spec``
    written for the tensor indices only; the partials follow the product
    rule."""
    operands, out = spec.split("->")
    sa, sb = operands.split(",")
    value = np.einsum(spec, a[0], b[0])
    partials = np.einsum(f"Z{sa},{sb}->Z{out}", a[1:], b[0]) + np.einsum(
        f"{sa},Z{sb}->Z{out}", a[0], b[1:]
    )
    return np.concatenate([value[None], partials])


@np.errstate(over="ignore", invalid="ignore")  # the caller checks finiteness
def _metric_partials(space, coeffs):
    """d^k g for k = 0..order from the Taylor coefficients (n, n, size) of
    the metric, or their prefix of ``space``'s order, each indexed [a_1, ...,
    a_k, i, j]: one gather per order through the jet space's ``partial_slots``."""
    d = coeffs[..., : space.size] * space.factorials
    return [d[:, :, slots].transpose(*range(2, slots.ndim + 2), 0, 1) for slots in space.partial_slots]


def _check_metric(g, point):
    """Raise unless g(point) is usable: finite (else DomainError), SPD and
    well conditioned (else SingularMetric)."""
    if not np.isfinite(g).all():
        raise DomainError(f"metric not finite at {point.tolist()}")
    lo, hi = (float(x) for x in np.linalg.eigvalsh(g)[[0, -1]])  # Python floats: hi / lo overflows to inf, no warning
    if lo <= 0.0:
        raise SingularMetric(
            f"metric not positive definite at {point.tolist()} (min eigenvalue {lo:g})"
        )
    if hi / lo > COND_LIMIT:
        raise SingularMetric(f"metric too ill-conditioned at {point.tolist()} (cond {hi / lo:g})")


class JetPipeline:
    """One evaluation of every tensor at a single point.

    With the metric jets exact to order 3, every derived tensor below,
    through Weyl, is exact as a first-order jet ``(1 + n, *shape)``.
    ``g_jets`` holds the metric's ``(n, n, size)`` Taylor coefficients.
    Each tensor is built on first use and kept.
    """

    def __init__(self, metric: MetricDef, point):
        self.metric = metric
        self.point = np.asarray(point, dtype=float)
        self.n = n = metric.dim
        self.g_jets = metric.eval_jets(self.point)
        _check_metric(self.g_jets[..., 0], self.point)
        d = _metric_partials(jet_space(n), self.g_jets)
        if not all(np.isfinite(dk).all() for dk in d[1:]):
            raise DomainError(f"metric derivatives not finite at {self.point.tolist()}")
        self.g = d[0]
        self.g_inv = np.linalg.inv(self.g)
        # g, d_a g_ij [z, a, i, j] and d_a d_b g_ij [z, a, b, i, j] as jets
        self._g, self._dg, self._ddg = (np.concatenate([d[k][None], d[k + 1]]) for k in range(3))

    def _raise(self, t):
        """g^{ab} t_b... on the first tensor index of the jet ``t``.

        The partials are g^-1 (d_z t - (d_z g) g^-1 t), the product rule
        with d_z(g^-1) = -g^-1 (d_z g) g^-1 regrouped: forming d_z(g^-1)
        on its own loses digits to cancellation on ill-conditioned metrics.
        """
        value = np.einsum("ab,b...->a...", self.g_inv, t[0])
        rest = t[1:] - np.einsum("zbc,c...->zb...", self._g[1:], value)
        return np.concatenate([value[None], np.einsum("ab,zb...->za...", self.g_inv, rest)])

    # -- Christoffel symbols --------------------------------------------

    @cached_property
    def _gamma1(self):
        """First-kind symbols Gamma_{k,ij} = (d_i g_kj + d_j g_ki - d_k g_ij)/2."""
        dg = self._dg
        return 0.5 * (np.einsum("zikj->zkij", dg) + np.einsum("zjki->zkij", dg) - dg)

    @cached_property
    def _gamma(self):
        gam = self._raise(self._gamma1)
        # exact (i, j) symmetry: einsum need not round mirrored sums alike
        return 0.5 * (gam + gam.swapaxes(-1, -2))

    def gamma(self):
        return self._gamma[0]

    # -- curvature -------------------------------------------------------

    @cached_property
    def _riemann(self):
        # R_iklm = (d_k d_l g_im + d_i d_m g_kl - d_k d_m g_il - d_i d_l g_km)/2
        #          + Gamma_{p,kl} Gamma^p_im - Gamma_{p,km} Gamma^p_il,
        # which is the pair antisymmetrization of
        # (d_k d_l g_im + Gamma_{p,kl} Gamma^p_im)/2, because
        # Gamma_{p,kl} Gamma^p_im is unchanged by swapping i<->k and l<->m together.
        quad = _dot("pkl,pim->iklm", self._gamma1, self._gamma)
        return _antisym_pairs(0.5 * (np.einsum("zklim->ziklm", self._ddg) + quad))

    def riemann(self):
        return self._riemann[0]

    @cached_property
    def _ricci(self):
        return np.einsum("zbkbm->zkm", self._raise(self._riemann))

    def ricci(self):
        return self._ricci[0]

    @cached_property
    def _scalar(self):
        return np.einsum("zkk->z", self._raise(self._ricci))

    def scalar(self):
        return float(self._scalar[0])

    @cached_property
    def _schouten(self):
        n = self.n
        if n < 3:
            raise DimensionError("Schouten tensor needs dim >= 3")
        sg = _dot(",ij->ij", self._scalar, self._g)
        return (self._ricci - sg / (2.0 * (n - 1))) / (n - 2)

    def schouten(self):
        return self._schouten[0]

    @cached_property
    def _weyl(self):
        w = self._riemann - _antisym_pairs(_dot("ik,jl->ijkl", self._schouten, self._g))
        # exact pair exchange, as gamma's (i, j) symmetry: a conformally flat metric's W is all rounding
        return 0.5 * w + 0.5 * w.transpose(0, 3, 4, 1, 2)

    def weyl(self):
        return self._weyl[0]

    # -- third-order tensors ----------------------------------------------

    @cached_property
    def _cotton(self):
        """C[i, j, k] = (nabla_i S)[j, k] - (nabla_j S)[i, k] at the point."""
        s = self._schouten
        gam = self.gamma()
        # (nabla_a S)_bc = d_a S_bc - Gamma^m_ab S_mc - Gamma^m_ac S_bm
        nas = (
            s[1:]
            - np.einsum("mab,mc->abc", gam, s[0])
            - np.einsum("mac,bm->abc", gam, s[0])
        )
        return nas - nas.transpose(1, 0, 2)

    def cotton(self):
        return self._cotton

    @cached_property
    def _cotton_york(self):
        if self.n != 3:
            raise DimensionError("Cotton-York tensor is defined in dimension 3 only")
        sqrtdet = math.sqrt(np.linalg.det(self.g))
        return 0.5 * np.einsum("kli,jm,klm->ij", self._cotton, self.g, EPS3) / sqrtdet

    def cotton_york(self):
        return self._cotton_york

    @cached_property
    def _div_weyl(self):
        """(nabla_l W)^l[i, j, k] = g^{la} (nabla_l W)[i, j, a, k]."""
        if self.n < 4:
            raise DimensionError("Weyl divergence needs dim >= 4")
        w = self._weyl
        gam = self.gamma()
        nw = (
            w[1:]
            - np.einsum("mai,mjkl->aijkl", gam, w[0])
            - np.einsum("maj,imkl->aijkl", gam, w[0])
            - np.einsum("mak,ijml->aijkl", gam, w[0])
            - np.einsum("mal,ijkm->aijkl", gam, w[0])
        )
        return np.einsum("la,lijak->ijk", self.g_inv, nw)

    def div_weyl(self):
        return self._div_weyl


# -- public operations --------------------------------------------------------


def conformal_rescale(metric: MetricDef, factor) -> MetricDef:
    """New MetricDef with components e^{2f} g_ij, where the expression
    ``factor`` is the exponent f."""
    scale = Call("exp", (Mul(Num(2.0), factor),))
    comp = tuple(
        tuple(Mul(scale, metric.components[i][j]) for j in range(metric.dim))
        for i in range(metric.dim)
    )
    name = f"{metric.name}:rescaled" if metric.name else "rescaled"
    return MetricDef(dim=metric.dim, components=comp, name=name, chart=metric.chart)


# -- snapshots ----------------------------------------------------------------


@dataclass
class TensorSnapshot:
    """Every pointwise tensor at one evaluation point."""

    dim: int
    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    schouten: np.ndarray
    weyl04: np.ndarray
    cotton: np.ndarray
    cotton_york: np.ndarray | None = None  # dim 3 only
    div_weyl: np.ndarray | None = None  # dim >= 4 only

    def check_invariants(self):
        """Verify the algebraic identities every snapshot must satisfy, to
        1e-9 of each tensor's largest entry, or of 1 if that is larger.

        Raises SymmetryViolation with a description on the first failure.
        """
        # Computed tensors, not inputs: their rounding scales with the terms summed, not the result (a flat
        # metric's R is noise), so the floor at 1 stays until that size is known (ROADMAP items 1 and 4).
        r, c, cy = self.riemann, self.cotton, self.cotton_york
        floor = max(np.abs(r).max(), 1.0)
        _check_curvature_symmetries(r, 1e-9, floor, bianchi=True)
        floor = max(np.abs(c).max(), 1.0)
        _require_small(c + c.transpose(1, 0, 2), 1e-9, floor, "Cotton not antisymmetric")
        _require_small(c + c.transpose(1, 2, 0) + c.transpose(2, 0, 1), 1e-9, floor, "Cotton cyclic sum nonzero")
        _require_small(np.einsum("ij,ijk->k", self.g_inv, c), 1e-9, floor, "Cotton g^{ij}-trace nonzero")
        _require_small(np.einsum("ik,ijk->j", self.g_inv, c), 1e-9, floor, "Cotton g^{ik}-trace nonzero")
        if cy is not None:
            floor = max(np.abs(cy).max(), 1.0)
            _require_small(cy - cy.T, 1e-9, floor, "Cotton-York not symmetric")
            _require_small(np.einsum("ij,ij->", self.g_inv, cy), 1e-9, floor, "Cotton-York not traceless")


@np.errstate(over="ignore", invalid="ignore")  # a tensor past the float range is inf or nan; every caller checks finiteness
def compute_snapshot(metric: MetricDef, point) -> TensorSnapshot:
    pl = JetPipeline(metric, point)
    if pl.n < 3:
        raise DimensionError("tensor snapshot needs dim >= 3")
    snap = TensorSnapshot(
        dim=pl.n,
        point=pl.point,
        g=pl.g,
        g_inv=pl.g_inv,
        gamma=pl.gamma(),
        riemann=pl.riemann(),
        ricci=pl.ricci(),
        scalar=pl.scalar(),
        schouten=pl.schouten(),
        weyl04=pl.weyl(),
        cotton=pl.cotton(),
    )
    if pl.n == 3:
        snap.cotton_york = pl.cotton_york()
    else:
        snap.div_weyl = pl.div_weyl()
    return snap


def format_json(obj) -> str:
    """Deterministic JSON in one pass, floats with 17 significant digits
    (which read back to the same double).  A float that is not finite
    raises DomainError: JSON has no literal for it."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f" or obj.ndim == 0:
            return format_json(obj.tolist())
        finite = np.isfinite(obj)
        if not finite.all():
            _refuse(obj[~finite][0])
        return _float_rows(obj.tolist(), obj.ndim)
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            _refuse(obj)
        return _FLOAT17(float(obj))
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {format_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(format_json, obj)) + "]"
    return json.dumps(obj)


_FLOAT17 = "{:.17g}".format


def _float_rows(rows, depth):
    """JSON of the nested lists of finite floats ``rows``, ``depth`` deep."""
    if depth == 1:
        return "[" + ", ".join(map(_FLOAT17, rows)) + "]"
    return "[" + ", ".join(_float_rows(r, depth - 1) for r in rows) + "]"


def _refuse(x):
    raise DomainError(f"result has a non-finite number ({float(x)}); nothing is printed")


# the output key of each tensor of a snapshot, in output order, and its field
TENSOR_FIELDS = {
    "g": "g", "gamma": "gamma", "riemann": "riemann", "ricci": "ricci", "scalar": "scalar",
    "schouten": "schouten", "weyl": "weyl04", "cotton": "cotton", "cotton_york": "cotton_york",
    "div_weyl": "div_weyl",
}


def snapshot_to_dict(snap: TensorSnapshot) -> dict:
    """The snapshot's dim, point and tensors under their output keys;
    tensors not defined in the snapshot's dimension are None."""
    return {"dim": snap.dim, "point": snap.point, **{k: getattr(snap, f) for k, f in TENSOR_FIELDS.items()}}


def snapshot_to_json(snap: TensorSnapshot) -> str:
    return format_json(snapshot_to_dict(snap))
