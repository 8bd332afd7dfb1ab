"""Truncated multivariate Taylor arithmetic: forward-mode jets of any order.

A Taylor value represents a smooth function near a point by its Taylor
coefficients up to a fixed total degree. Binary operations truncate to the
smaller of the two orders, so the order attribute always states how many
derivatives of the result are trustworthy.

The monomials x^alpha in n variables are numbered once, in graded order:
index 0 is the constant, indices 1..n are x_1..x_n, then come the degree-2
monomials, and so on, each degree in descending lexicographic order of
alpha. Degree never decreases with the index, so the numbering for order k
is a prefix of the numbering for order k + 1, and "degree <= k" is "index
< comb(n + k, k)". A jet stores a dict from monomial index to the
coefficient (partial^alpha f)/alpha!. Exact zeros are kept, so a jet's keys,
and their order, depend only on the operations that made it, never on the
values: a chunk's jets hold the keys of each of its points' jets.
A coefficient is a complex number, or a Batch (batch.py) of complex numbers,
one per point of a chunk; functions of a jet's value map over a Batch.
Products, derivatives and compositions look indices up in tables built
once per (n, order) by _basis, so no exponent tuple is built or summed per
coefficient pair. The constructor takes the index-keyed dict itself, and the
coef attribute is a copy of it.
"""

from __future__ import annotations

import cmath
import itertools
import numbers
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .batch import Batch


class JetDomainError(ArithmeticError):
    """Evaluation left the domain of an elementary function."""


class JetOrderError(ValueError):
    """A derivative was requested beyond the tracked truncation order."""


def _cmath(fn, z):
    # cmath raises ValueError where a result is undefined (sin at inf), OverflowError where it overflows (exp at 1000)
    try:
        return Batch(map(fn, z)) if type(z) is Batch else fn(z)
    except ValueError:
        raise JetDomainError(f"{fn.__name__} of {z!r} is undefined") from None
    except OverflowError:
        raise JetDomainError(f"{fn.__name__} of {z!r} overflows") from None


def coefficient(value):
    """value as a jet coefficient: a complex number, or a Batch of them for a Batch."""
    return Batch(map(complex, value)) if type(value) is Batch else complex(value)


def _monomials(n, d):
    """Exponent tuples of degree d in n variables, in descending lexicographic order."""
    for factors in itertools.combinations_with_replacement(range(n), d):
        alpha = [0] * n
        for j in factors:
            alpha[j] += 1
        yield tuple(alpha)


class _Basis(NamedTuple):
    exps: list  # index -> exponent tuple
    mul: list  # mul[i][j]: index of x^exps[i] * x^exps[j], for every j within the order
    lower: list  # lower[j][i]: (index of x^exps[i] / x_j, exponent of x_j), or None if it is 0


@lru_cache(maxsize=None)
def _basis(n: int, order: int) -> _Basis:
    """Index tables for the monomials of degree <= order in n variables."""
    exps = [alpha for d in range(order + 1) for alpha in _monomials(n, d)]
    index = {alpha: i for i, alpha in enumerate(exps)}
    # the partners of x^a within the order are the monomials of degree <= order - |a|
    mul = [[index[tuple(x + y for x, y in zip(a, b))] for b in exps[:comb(n + order - sum(a), n)]]
           for a in exps]
    lower = [[(index[a[:j] + (a[j] - 1,) + a[j + 1:]], a[j]) if a[j] else None for a in exps]
             for j in range(n)]
    return _Basis(exps, mul, lower)


class Taylor:
    __slots__ = ("n", "order", "_coef")

    def __init__(self, n, order, coef):
        """Jet owning coef, a dict from monomial index to coefficient with every
        index within the order; nothing is checked or copied."""
        self.n = n
        self.order = order
        self._coef = coef

    @classmethod
    def constant(cls, value, n, order):
        return cls(n, order, {0: coefficient(value)})

    @classmethod
    def variable(cls, j, x0, n, order):
        """Seed for the j-th coordinate (0-based) at base value x0."""
        if not 0 <= j < n:
            raise ValueError(f"variable index {j} out of range for {n} variables")
        coef = {0: coefficient(x0)}
        if order >= 1:
            coef[1 + j] = 1.0 + 0j
        return cls(n, order, coef)

    @property
    def coef(self):  # a copy, keyed by index: riccati's Taylor integrator reads it, and perfbench/layertrace.py
        return dict(self._coef)

    # -- coefficient extraction ------------------------------------------

    @property
    def value(self):
        return self._coef.get(0, 0j)

    def diff(self, j):
        """Exact partial derivative; costs one order of truncation."""
        if self.order < 1:
            raise JetOrderError("jet order 0 carries no derivative information")
        lower = _basis(self.n, self.order).lower[j]
        out = {}
        for i, c in self._coef.items():
            low = lower[i]
            if low is not None:
                out[low[0]] = c if low[1] == 1 else c * low[1]  # c * 1 is not c at a signed zero or an inf
        return Taylor(self.n, self.order - 1, out)

    def partial(self, j):
        """diff(j), or its value where it spends the last order: the coefficient of x_j, with no jet made."""
        return self.diff(j) if self.order != 1 else self._coef.get(1 + j, 0j)

    def truncate(self, order):
        """The jet to a lower order: the coefficients of degree <= order, in their order."""
        size = comb(self.n + order, order)
        return Taylor(self.n, order, {i: c for i, c in self._coef.items() if i < size})

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Taylor):
            if other.n != self.n:
                raise ValueError("mixing jets with different variable counts")
            return other
        if isinstance(other, numbers.Complex):
            return Taylor.constant(other, self.n, self.order)
        return None

    def __add__(self, other, sign=1):
        """self + other, or self - other for a negative sign, at the lower order: a sum stores a coefficient
        c that only other has as it is, since 0j + c could only clear a zero's sign, and a difference as 0j - c."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = min(self.order, other.order)
        size = comb(self.n + k, k)
        out = {i: c for i, c in self._coef.items() if i < size}
        for i, c in other._coef.items():
            if i < size:
                a = out.get(i, 0j)
                # IEEE makes a - c the bits of a + -c, in one pass, unless c is real (a signed zero differs)
                out[i] = (a + c if i in out else c) if sign > 0 else a + -c if type(c) in (float, int) else a - c
        return Taylor(self.n, k, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        if isinstance(other, numbers.Complex):
            return Taylor.constant(other, self.n, self.order) - self
        return NotImplemented

    def __neg__(self):
        return Taylor(self.n, self.order, {i: -c for i, c in self._coef.items()})

    def __mul__(self, other):
        if isinstance(other, numbers.Complex):
            return Taylor(self.n, self.order, {i: c * other for i, c in self._coef.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = min(self.order, other.order)
        mul = _basis(self.n, k).mul
        size = len(mul)
        theirs = other._coef.items()
        out = {}
        for i, ca in self._coef.items():
            if i >= size:
                continue
            row = mul[i]
            width = len(row)
            for j, cb in theirs:
                if j >= width:
                    continue
                m = row[j]
                c = ca * cb
                out[m] = out[m] + c if m in out else c
        return Taylor(self.n, k, out)

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return Taylor(self.n, self.order, {i: other * c for i, c in self._coef.items()})
        return NotImplemented

    # -- analytic functions via univariate composition ---------------------

    def _compose(self, derivs):
        """Sum of derivs[m]/m! * (self - value)^m, truncated, for coefficients derivs: derivs[0] and the first
        term, hat * derivs[1], as they are, with no 1 * hat nor / 1.0, which are not exact at an inf."""
        hat = Taylor(self.n, self.order, {i: c for i, c in self._coef.items() if i})  # index 0: constant
        acc = Taylor(self.n, self.order, {0: derivs[0]})
        if self.order:
            acc = acc + hat * derivs[1]
        power, fact = hat, 1.0
        for m in range(2, self.order + 1):
            power = power * hat
            fact *= m
            acc = acc + power * (derivs[m] / fact)
        return acc

    def exp(self):
        e = _cmath(cmath.exp, self.value)
        return self._compose([e] * (self.order + 1))

    def log(self):
        u0 = self.value
        if u0.imag == 0 and u0.real <= 0:
            raise JetDomainError(f"log of non-positive real value {u0.real!r}")
        derivs = [_cmath(cmath.log, u0)]
        if self.order >= 1:
            derivs.append(1.0 / u0)
            for m in range(2, self.order + 1):
                derivs.append(derivs[-1] * (-(m - 1)) / u0)
        return self._compose(derivs)

    def sin(self):
        s, c = _cmath(cmath.sin, self.value), _cmath(cmath.cos, self.value)
        cycle = [s, c, -s, -c]
        return self._compose([cycle[m % 4] for m in range(self.order + 1)])

    def cos(self):
        s, c = _cmath(cmath.sin, self.value), _cmath(cmath.cos, self.value)
        cycle = [c, -s, -c, s]
        return self._compose([cycle[m % 4] for m in range(self.order + 1)])

    def sqrt(self):
        u0 = self.value
        if u0 == 0:
            raise JetDomainError("sqrt at zero has no derivatives")
        derivs = [_cmath(cmath.sqrt, u0)]
        for m in range(1, self.order + 1):
            derivs.append(derivs[-1] * (0.5 - (m - 1)) / u0)
        return self._compose(derivs)

    def reciprocal(self):
        u0 = self.value
        if u0 == 0:
            raise JetDomainError("division by a value that is zero at the base point")
        derivs = [1.0 / u0]
        for m in range(1, self.order + 1):
            derivs.append(derivs[-1] * (-m) / u0)
        return self._compose(derivs)

    def intpow(self, k: int):
        if k == 0:
            return Taylor.constant(1.0, self.n, self.order)
        if k < 0:
            return self.reciprocal().intpow(-k)
        acc = None
        base = self
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        return acc
