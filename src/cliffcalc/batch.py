"""Batch: one number at each of several points, the coefficient type of chunked evaluation.

A grid is evaluated a chunk of points at a time by handing the fields one
"point" whose coordinates are Batches. Jets and multivectors then carry
Batch coefficients, and every arithmetic operation runs elementwise, as the
same Python operation on the same operand types as at a single point.

A Batch is zero only where it is zero at every point, so a coefficient that
vanishes at some points of a chunk is kept. A comparison gives Flags, whose
truth value exists only where every point agrees, so a branch on a value is
taken alike at all points or raises Mixed. Nothing reads one number out of a
Batch: float(), complex() and hash() fail on it.
"""

from __future__ import annotations

import numbers
import operator
from itertools import repeat

_NUMBERS = (int, float, complex, bool)


class Mixed(Exception):
    """A condition holds at some points of a chunk and fails at others."""


class Flags(list):
    """One bool per point: the outcome of comparing a Batch."""

    __slots__ = ()

    def __bool__(self):
        if all(self):
            return True
        if not any(self):
            return False
        raise Mixed("a condition holds at some points of a chunk and fails at others")


def _elementwise(op, result):
    """The forward and reflected methods of op, with a Batch or a Python number as the other operand."""

    def forward(self, other):
        if type(other) is Batch:
            return result(map(op, self, other))
        if type(other) in _NUMBERS:
            return result(map(op, self, repeat(other)))
        return NotImplemented

    def reflected(self, other):
        if type(other) in _NUMBERS:
            return result(map(op, repeat(other), self))
        return NotImplemented

    return forward, reflected


class Batch(list):
    """Complex values, one per point, with elementwise + - * / **, abs and comparisons;
    a function of one number maps over it as Batch(map(fn, b))."""

    __slots__ = ()

    def __bool__(self):
        return any(self)

    def __neg__(self):
        return Batch(map(operator.neg, self))

    def __abs__(self):
        return Batch(map(abs, self))

    @property
    def real(self):
        return Batch(z.real for z in self)

    @property
    def imag(self):
        return Batch(z.imag for z in self)


Batch.__add__, Batch.__radd__ = _elementwise(operator.add, Batch)
Batch.__sub__, Batch.__rsub__ = _elementwise(operator.sub, Batch)
Batch.__mul__, Batch.__rmul__ = _elementwise(operator.mul, Batch)
Batch.__truediv__, Batch.__rtruediv__ = _elementwise(operator.truediv, Batch)
Batch.__pow__ = _elementwise(operator.pow, Batch)[0]
Batch.__eq__ = _elementwise(operator.eq, Flags)[0]
Batch.__ne__ = _elementwise(operator.ne, Flags)[0]
Batch.__lt__ = _elementwise(operator.lt, Flags)[0]
Batch.__le__ = _elementwise(operator.le, Flags)[0]
Batch.__gt__ = _elementwise(operator.gt, Flags)[0]
Batch.__ge__ = _elementwise(operator.ge, Flags)[0]
numbers.Complex.register(Batch)
