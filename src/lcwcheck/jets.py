"""Degree-3 truncated multivariate Taylor arithmetic ("jets").

A ``Jet3`` stores the Taylor coefficients (partial derivative divided by the
multi-index factorial) of a smooth function at a point, for every multi-index
of total degree <= 3 in up to six variables.  Arithmetic is exact truncation:
products drop all terms of degree > 3, so the coefficients of any expression
built from +, -, *, /, integer powers and the supported analytic functions
are the true Taylor coefficients of that expression, up to rounding.

Multi-indices are ordered graded-lexicographically and the full coefficient
vector is stored densely (C(dim+3, 3) entries).  Jets are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_ORDER = 3
MIN_DIM = 2
MAX_DIM = 6


def _multi_indices(dim):
    """All exponent tuples with total degree <= 3, graded-lex order."""
    out = []

    def rec(prefix, remaining_slots, budget):
        if remaining_slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining_slots - 1, budget - e)

    rec([], dim, MAX_ORDER)
    out.sort(key=lambda a: (sum(a), a))
    return out


class JetSpace:
    """Precomputed index tables for one dimension.  Build once, share."""

    def __init__(self, dim):
        if not MIN_DIM <= dim <= MAX_DIM:
            raise DomainError(f"jet dimension must be in [{MIN_DIM}, {MAX_DIM}], got {dim}")
        self.dim = dim
        self.indices = _multi_indices(dim)
        self.size = len(self.indices)
        self.index_of = {a: i for i, a in enumerate(self.indices)}
        self.degrees = np.array([sum(a) for a in self.indices])
        self.factorials = np.array(
            [float(math.prod(math.factorial(e) for e in a)) for a in self.indices]
        )

        mi, mj, mk = [], [], []
        for i, a in enumerate(self.indices):
            da = sum(a)
            for j, b in enumerate(self.indices):
                if da + sum(b) <= MAX_ORDER:
                    mi.append(i)
                    mj.append(j)
                    mk.append(self.index_of[tuple(x + y for x, y in zip(a, b))])
        self.mul_i = np.array(mi)
        self.mul_j = np.array(mj)
        scatter = np.zeros((len(mk), self.size))
        scatter[np.arange(len(mk)), mk] = 1.0
        self._scatter = scatter

    def mul(self, a, b):
        return (a[self.mul_i] * b[self.mul_j]) @ self._scatter


@lru_cache(maxsize=None)
def jet_space(dim) -> JetSpace:
    return JetSpace(dim)


class Jet3:
    """Immutable truncated Taylor value.  Supports +, -, *, /, ** int."""

    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = coeffs

    @property
    def dim(self):
        return self.space.dim

    @property
    def value(self):
        """Constant term: the function value at the base point."""
        return float(self.c[0])

    def gradient(self):
        """First-order coefficients, equal to the first partials."""
        n = self.space.dim
        g = np.empty(n)
        for k in range(n):
            e = [0] * n
            e[k] = 1
            g[k] = self.c[self.space.index_of[tuple(e)]]
        return g

    def derivative(self, alpha):
        """Partial derivative for multi-index ``alpha`` (coeff * alpha!)."""
        i = self.space.index_of[tuple(alpha)]
        return float(self.c[i] * self.space.factorials[i])

    def _coerce(self, other):
        if isinstance(other, Jet3):
            if other.space is not self.space:
                raise DomainError("jets from different spaces cannot be combined")
            return other
        if isinstance(other, (int, float)):
            return jet_constant(float(other), self.space.dim)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet3(self.space, self.c + other.c)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet3(self.space, self.c - other.c)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet3(self.space, other.c - self.c)

    def __neg__(self):
        return Jet3(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet3(self.space, self.c * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet3(self.space, self.space.mul(self.c, other.c))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Jet3(self.space, self.c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("division by zero")
            return Jet3(self.space, self.c / float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * jet_reciprocal(other)

    def __rtruediv__(self, other):
        inv = jet_reciprocal(self)
        if isinstance(other, (int, float)):
            return inv * float(other)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise DomainError("only integer exponents are supported on jets")
        if exponent < 0:
            return jet_reciprocal(self) ** (-exponent)
        result = jet_constant(1.0, self.space.dim)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        return f"Jet3(dim={self.space.dim}, value={self.value!r})"


def jet_constant(value, dim) -> Jet3:
    sp = jet_space(dim)
    c = np.zeros(sp.size)
    c[0] = value
    return Jet3(sp, c)


def jet_lift(point, var_index) -> Jet3:
    """Jet of the coordinate function x_{var_index} at ``point`` (0-based)."""
    point = np.asarray(point, dtype=float)
    dim = len(point)
    if not 0 <= var_index < dim:
        raise DomainError(f"variable index {var_index} out of range for dim {dim}")
    sp = jet_space(dim)
    c = np.zeros(sp.size)
    c[0] = point[var_index]
    e = [0] * dim
    e[var_index] = 1
    c[sp.index_of[tuple(e)]] = 1.0
    return Jet3(sp, c)


def jet_reciprocal(f: Jet3) -> Jet3:
    """1/f by truncated series inversion; exact within order 3."""
    c0 = f.value
    if c0 == 0.0:
        raise DomainError("division by a jet with zero constant term")
    u = Jet3(f.space, f.c / c0)
    u = u - 1.0  # nilpotent part of f/c0
    # 1/(1+u) = 1 - u + u^2 - u^3 exactly at this order
    inv = 1.0 + u * (-1.0 + u * (1.0 - u))
    return Jet3(f.space, inv.c / c0)


def _compose(f: Jet3, f0, d1, d2, d3) -> Jet3:
    """Apply an analytic function with given derivatives at f.value."""
    h = Jet3(f.space, f.c.copy())
    h.c[0] = 0.0  # nilpotent part
    return f0 + h * (d1 + h * (d2 / 2.0 + h * (d3 / 6.0)))


def jet_exp(f: Jet3) -> Jet3:
    e = math.exp(f.value)
    return _compose(f, e, e, e, e)


def jet_log(f: Jet3) -> Jet3:
    c = f.value
    if c <= 0.0:
        raise DomainError("log of a jet with nonpositive constant term")
    return _compose(f, math.log(c), 1.0 / c, -1.0 / c**2, 2.0 / c**3)


def jet_sqrt(f: Jet3) -> Jet3:
    c = f.value
    if c <= 0.0:
        raise DomainError("sqrt of a jet with nonpositive constant term")
    r = math.sqrt(c)
    return _compose(f, r, 0.5 / r, -0.25 / (c * r), 0.375 / (c * c * r))


def jet_sin(f: Jet3) -> Jet3:
    s, c = math.sin(f.value), math.cos(f.value)
    return _compose(f, s, c, -s, -c)


def jet_cos(f: Jet3) -> Jet3:
    s, c = math.sin(f.value), math.cos(f.value)
    return _compose(f, c, -s, -c, s)


def jet_sinh(f: Jet3) -> Jet3:
    s, c = math.sinh(f.value), math.cosh(f.value)
    return _compose(f, s, c, s, c)


def jet_cosh(f: Jet3) -> Jet3:
    s, c = math.sinh(f.value), math.cosh(f.value)
    return _compose(f, c, s, c, s)
