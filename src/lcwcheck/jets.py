"""Truncated multivariate Taylor arithmetic ("jets") of order at most 3.

A jet stores the Taylor coefficients (partial derivative divided by the
multi-index factorial) of a smooth function at a point, for every multi-index
of total degree <= order in up to six variables; the order, 1 to 3,
belongs to the ``JetSpace``.  Arithmetic is exact truncation: products drop
all terms of degree > order, so the coefficients of any expression built
from +, -, *, /, integer powers and the supported analytic functions are the
true Taylor coefficients of that expression, up to rounding.

Multi-indices are ordered graded-lexicographically and the full coefficient
vector is stored densely (C(dim+order, order) entries).  The slots of a
lower order are therefore a prefix of those of a higher one, and a
truncated product forms each low slot from low slots only, in the same
order: the same expression evaluated at order 2 has the bits of the first
C(dim+2, 2) coefficients of its order-3 jet.

There is one algebra, on plain values: a value is either a float (a
constant jet, all higher coefficients zero) or an array ``(..., size)`` of
coefficients whose leading axes are a batch of points.  Constants stay
floats, so a constant times a jet is a scaled copy, not a product.  The dsl
programs, the metric jets ``(n, n, size)`` and the pipeline all use these
values directly.  No function writes into its arguments, so jets are safe
to share between threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_ORDER = 3
MIN_DIM = 2
MAX_DIM = 6


class JetSpace:
    """Precomputed index tables for one dimension and order.  Build once,
    share.

    The multi-indices in slot order (``indices``, ``index_of``, ``degrees``,
    ``factorials``); ``unit``; the derivative slot tables ``partial_slots[k]``,
    k = 0..order, of shape (dim,)*k with [a_1, ..., a_k] the slot of
    d_{a_1} ... d_{a_k}; and the product table of ``mul``.
    """

    def __init__(self, dim, order=MAX_ORDER):
        if not MIN_DIM <= dim <= MAX_DIM:
            raise DomainError(f"jet dimension must be in [{MIN_DIM}, {MAX_DIM}], got {dim}")
        if not 1 <= order <= MAX_ORDER:
            raise DomainError(f"jet order must be in [1, {MAX_ORDER}], got {order}")
        self.dim, self.order = dim, order
        self.indices = sorted(
            (a for a in itertools.product(range(order + 1), repeat=dim) if sum(a) <= order),
            key=lambda a: (sum(a), a),
        )
        self.size = len(self.indices)
        self.index_of = {a: i for i, a in enumerate(self.indices)}
        self.degrees = np.array([sum(a) for a in self.indices])
        self.factorials = np.array(
            [float(math.prod(math.factorial(e) for e in a)) for a in self.indices]
        )
        # slot of the first-order coefficient of each coordinate x_k
        self.unit = np.array([self.index_of[tuple(int(k == j) for j in range(dim))] for k in range(dim)])
        self.partial_slots = [
            np.array([self.index_of[tuple(map(axes.count, range(dim)))] for axes in
                      itertools.product(range(dim), repeat=k)]).reshape((dim,) * k)
            for k in range(order + 1)
        ]

        # every product a_i b_j that lands in slot k, grouped by k
        pairs = sorted(
            (self.index_of[tuple(x + y for x, y in zip(a, b))], i, j)
            for i, a in enumerate(self.indices)
            for j, b in enumerate(self.indices)
            if sum(a) + sum(b) <= order
        )
        slot, self.mul_i, self.mul_j = (np.array(col) for col in zip(*pairs))
        self._starts = np.searchsorted(slot, np.arange(self.size))

    def mul(self, a, b):
        """Truncated product of coefficient arrays ``(..., size)``.

        Each slot adds its products in one fixed order (no BLAS), so a
        point's result has the same bits in any batch."""
        return np.add.reduceat(a[..., self.mul_i] * b[..., self.mul_j], self._starts, axis=-1)

    def derivative(self, coeffs, alpha):
        """Partial derivative for the multi-index ``alpha`` (coefficient
        times alpha!) from the coefficients ``(..., size)``."""
        i = self.index_of[tuple(alpha)]
        return coeffs[..., i] * self.factorials[i]

    def lift(self, points):
        """Jets ``(dim, ..., size)`` of the coordinate functions at the
        ``(..., dim)`` points."""
        points = np.asarray(points, dtype=float)
        out = np.zeros((self.dim, *points.shape[:-1], self.size))
        for k in range(self.dim):
            out[k, ..., 0] = points[..., k]
            out[k, ..., self.unit[k]] = 1.0
        return out


def jet_space(dim, order=MAX_ORDER) -> JetSpace:
    """The one shared space of ``dim`` variables at ``order``."""
    return _jet_space(dim, order)


_jet_space = lru_cache(maxsize=None)(JetSpace)


# -- the algebra on values (float constants or coefficient arrays) -------------


def jet_add(a, b):
    """a + b; a float only shifts the constant term."""
    if isinstance(a, float) == isinstance(b, float):
        return a + b
    if isinstance(a, float):
        a, b = b, a
    out = a.copy()
    out[..., 0] += b
    return out


def jet_mul(space, a, b):
    """a * b; a float only scales."""
    if isinstance(a, float) or isinstance(b, float):
        return a * b
    return space.mul(a, b)


def jet_inverse(space, f):
    """1/f by truncated series inversion; exact within the space's order."""
    c0 = f if isinstance(f, float) else f[..., :1]
    if np.any(c0 == 0.0):
        raise DomainError("division by a jet with zero constant term")
    if isinstance(f, float):
        return 1.0 / f
    u = f / c0
    u[..., 0] -= 1.0  # nilpotent part of f/c0
    # 1/(1+u) = 1 - u + u^2 - u^3 exactly at every order <= 3
    inv = jet_add(1.0, jet_mul(space, u, jet_add(-1.0, jet_mul(space, u, jet_add(1.0, -u)))))
    return inv / c0


def jet_power(space, f, exponent):
    """f**exponent for an integer exponent, by repeated squaring."""
    if exponent < 0:
        f, exponent = jet_inverse(space, f), -exponent
    out = 1.0
    while exponent:
        if exponent & 1:
            out = jet_mul(space, out, f)
        exponent >>= 1
        if exponent:
            f = jet_mul(space, f, f)
    return out


def _sqrt_derivatives(c):
    r = np.sqrt(c)
    return r, 0.5 / r, -0.25 / (c * r), 0.375 / (c * c * r)


# value and first three derivatives of each analytic function at c
_DERIVATIVES = {
    "exp": lambda c: (np.exp(c),) * 4,
    "log": lambda c: (np.log(c), 1.0 / c, -1.0 / c**2, 2.0 / c**3),
    "sqrt": _sqrt_derivatives,
    "sin": lambda c: (np.sin(c), np.cos(c), -np.sin(c), -np.cos(c)),
    "cos": lambda c: (np.cos(c), -np.sin(c), -np.cos(c), np.sin(c)),
    "sinh": lambda c: (np.sinh(c), np.cosh(c), np.sinh(c), np.cosh(c)),
    "cosh": lambda c: (np.cosh(c), np.sinh(c), np.cosh(c), np.sinh(c)),
}


def jet_apply(space, func, f):
    """func(f) for func in exp log sqrt sin cos sinh cosh: the Taylor
    series of func at the constant term of f, composed with f."""
    c = f if isinstance(f, float) else f[..., 0]
    if func in ("log", "sqrt") and np.any(c <= 0.0):
        raise DomainError(f"{func} of a jet with nonpositive constant term")
    f0, d1, d2, d3 = _DERIVATIVES[func](c)
    if isinstance(f, float):
        return float(f0)
    h = f.copy()
    h[..., 0] = 0.0  # nilpotent part
    out = h * (d3 / 6.0)[..., None]
    out[..., 0] += d2 / 2.0
    out = space.mul(h, out)
    out[..., 0] += d1
    out = space.mul(h, out)
    out[..., 0] += f0
    return out
