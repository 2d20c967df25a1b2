"""Pointwise curvature tensors of a coordinate metric.

The metric enters as order-3 jets of its components, evaluated once by the
dsl.  Every derived tensor (inverse metric, Christoffel symbols, curvature,
Ricci, scalar, Schouten, Weyl) is then a first-order jet: one ndarray of
shape ``(1 + n, *tensor_shape)`` whose slice 0 is the value at the point and
whose slice ``1 + a`` is the partial d_a.  That is the only order the
obstructions read; Cotton and the Weyl divergence take the partials of
Schouten and Weyl from slices 1..n.  All derivatives are exact (no finite
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
from .errors import DimensionError, DomainError

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


def _metric_partials(g_jets):
    """d^k g for k = 0..3 from the order-3 metric jets, each indexed
    [a_1, ..., a_k, i, j]."""
    space = g_jets[0][0].space
    n = space.dim
    d = np.array([[[jet.derivative(a) for a in space.indices] for jet in row] for row in g_jets])
    out = []
    for k in range(4):
        slots = [
            space.index_of[tuple(np.bincount(axes, minlength=n))]
            for axes in itertools.product(range(n), repeat=k)
        ]
        out.append(np.moveaxis(d[:, :, slots], 2, 0).reshape((n,) * k + (n, n)))
    return out


class JetPipeline:
    """One evaluation of every tensor at a single point.

    The metric jets are exact to order 3, which makes every derived tensor
    below, through Weyl, exact as a first-order jet ``(1 + n, *shape)``.
    Each tensor is built on first use and kept.
    """

    def __init__(self, metric: MetricDef, point):
        self.metric = metric
        self.point = np.asarray(point, dtype=float)
        self.n = n = metric.dim
        if len(self.point) != n:
            raise DimensionError(
                f"point has {len(self.point)} coordinates, metric dim is {n}"
            )
        metric.check_point(self.point, COND_LIMIT)
        self.g_jets = metric.eval_jets(self.point)
        g, dg, ddg, dddg = _metric_partials(self.g_jets)
        if not all(np.isfinite(d).all() for d in (g, dg, ddg, dddg)):
            raise DomainError(f"metric derivatives not finite at {self.point.tolist()}")
        self.g = g
        self.g_inv = np.linalg.inv(g)
        self._g = np.concatenate([g[None], dg])
        self._dg = np.concatenate([dg[None], ddg])  # [z, a, i, j]: d_a g_ij
        self._ddg = np.concatenate([ddg[None], dddg])  # [z, a, b, i, j]: d_a d_b g_ij

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

    def dgamma(self):
        """First partials d_l Gamma^k_{ij}, indexed [l, k, i, j]."""
        return self._gamma[1:]

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
        return self._riemann - _antisym_pairs(_dot("ik,jl->ijkl", self._schouten, self._g))

    def weyl(self):
        return self._weyl[0]

    # -- third-order tensors ----------------------------------------------

    def cotton(self):
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

    def cotton_york(self):
        if self.n != 3:
            raise DimensionError("Cotton-York tensor is defined in dimension 3 only")
        sqrtdet = math.sqrt(np.linalg.det(self.g))
        return 0.5 * np.einsum("kli,jm,klm->ij", self.cotton(), self.g, EPS3) / sqrtdet

    def div_weyl(self):
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


# -- public operations --------------------------------------------------------


@dataclass
class ChristoffelResult:
    """Gamma^k_{ij} at the point plus its first partials d_l Gamma^k_{ij}."""

    gamma: np.ndarray  # [k, i, j]
    dgamma: np.ndarray  # [l, k, i, j]


def christoffel(metric: MetricDef, point) -> ChristoffelResult:
    pl = JetPipeline(metric, point)
    return ChristoffelResult(gamma=pl.gamma(), dgamma=pl.dgamma())


def riemann_0_4(metric: MetricDef, point) -> np.ndarray:
    return JetPipeline(metric, point).riemann()


def ricci_scalar_schouten(metric: MetricDef, point):
    pl = JetPipeline(metric, point)
    return pl.ricci(), pl.scalar(), pl.schouten()


def weyl_0_4(metric: MetricDef, point) -> np.ndarray:
    pl = JetPipeline(metric, point)
    if pl.n < 3:
        raise DimensionError("Weyl decomposition needs dim >= 3")
    return pl.weyl()


def cotton(metric: MetricDef, point) -> np.ndarray:
    pl = JetPipeline(metric, point)
    if pl.n < 3:
        raise DimensionError("Cotton tensor needs dim >= 3")
    return pl.cotton()


def cotton_york(metric: MetricDef, point) -> np.ndarray:
    return JetPipeline(metric, point).cotton_york()


def div_weyl(metric: MetricDef, point) -> np.ndarray:
    return JetPipeline(metric, point).div_weyl()


@dataclass(frozen=True)
class ConformalFactor:
    """Exponent f in the rescaling g -> e^{2f} g."""

    f: object  # Expr


def conformal_rescale(metric: MetricDef, factor) -> MetricDef:
    """New MetricDef with components e^{2f} g_ij."""
    f = factor.f if isinstance(factor, ConformalFactor) else factor
    scale = Call("exp", (Mul(Num(2.0), f),))
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

    def weyl13(self) -> np.ndarray:
        """(1,3) Weyl tensor W^a_{jkl} = g^{am} W_{mjkl} (conformally
        invariant)."""
        return np.einsum("am,mjkl->ajkl", self.g_inv, self.weyl04)

    def check_invariants(self, rtol=1e-9):
        """Verify the algebraic identities every snapshot must satisfy.

        Raises AssertionError with a description on the first failure.
        """
        r = self.riemann
        scale = max(np.abs(r).max(), 1.0)
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() <= rtol * scale, "R not antisymmetric in (i,j)"
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() <= rtol * scale, "R not antisymmetric in (k,l)"
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() <= rtol * scale, "R not pair symmetric"
        bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)
        assert np.abs(bianchi).max() <= rtol * scale, "first Bianchi identity fails"
        c = self.cotton
        cscale = max(np.abs(c).max(), 1.0)
        assert np.abs(c + c.transpose(1, 0, 2)).max() <= rtol * cscale, "Cotton not antisymmetric"
        cyc = c + c.transpose(1, 2, 0) + c.transpose(2, 0, 1)
        assert np.abs(cyc).max() <= rtol * cscale, "Cotton cyclic sum nonzero"
        tr1 = np.einsum("ij,ijk->k", self.g_inv, c)
        tr2 = np.einsum("ik,ijk->j", self.g_inv, c)
        assert np.abs(tr1).max() <= rtol * cscale, "Cotton g^{ij}-trace nonzero"
        assert np.abs(tr2).max() <= rtol * cscale, "Cotton g^{ik}-trace nonzero"
        if self.cotton_york is not None:
            cy = self.cotton_york
            cyscale = max(np.abs(cy).max(), 1.0)
            assert np.abs(cy - cy.T).max() <= rtol * cyscale, "Cotton-York not symmetric"
            assert abs(np.einsum("ij,ij->", self.g_inv, cy)) <= rtol * cyscale, "Cotton-York not traceless"


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


def format_json(obj, float_digits=17) -> str:
    """Deterministic JSON with fixed-significant-digit floats."""

    def fmt(x):
        if isinstance(x, float):
            return _RawFloat(f"{x:.{float_digits}g}")
        if isinstance(x, (np.floating,)):
            return _RawFloat(f"{float(x):.{float_digits}g}")
        if isinstance(x, (np.integer,)):
            return int(x)
        if isinstance(x, np.ndarray):
            return fmt(x.tolist())
        if isinstance(x, dict):
            return {k: fmt(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [fmt(v) for v in x]
        return x

    class _RawFloat:
        def __init__(self, text):
            self.text = text

    def raw_encode(x):
        if isinstance(x, _RawFloat):
            return x.text
        if isinstance(x, dict):
            items = ", ".join(f"{json.dumps(k)}: {raw_encode(v)}" for k, v in x.items())
            return "{" + items + "}"
        if isinstance(x, list):
            return "[" + ", ".join(raw_encode(v) for v in x) + "]"
        return json.dumps(x)

    return raw_encode(fmt(obj))


def snapshot_to_dict(snap: TensorSnapshot) -> dict:
    """The snapshot's tensors under their output keys; tensors not defined
    in the snapshot's dimension are None."""
    return {
        "dim": snap.dim,
        "point": snap.point,
        "g": snap.g,
        "gamma": snap.gamma,
        "riemann": snap.riemann,
        "ricci": snap.ricci,
        "scalar": snap.scalar,
        "schouten": snap.schouten,
        "weyl": snap.weyl04,
        "cotton": snap.cotton,
        "cotton_york": snap.cotton_york,
        "div_weyl": snap.div_weyl,
    }


def snapshot_to_json(snap: TensorSnapshot, float_digits=17) -> str:
    return format_json(snapshot_to_dict(snap), float_digits)
