"""Jets stated and read by exponent tuple, and fields of a function of a point, for tests.

taylor.Taylor keys its coefficients by monomial index (index 0 the constant,
1 + j the variable x_j, then the higher degrees; taylor._basis numbers them).
Tests state a jet as {alpha: c}, alpha the exponent tuple, and read its
coefficients and first partials the same way.
"""

from cliffcalc.algebra import Multivector
from cliffcalc.batch import Batch
from cliffcalc.fields import MultivectorField
from cliffcalc.taylor import Taylor, _basis


def jet(n, order, coef):
    """The jet with the coefficients {alpha: c}, in their order; terms above the
    order are dropped, and an alpha that is not a multi-index in n variables is
    a KeyError."""
    index = {alpha: i for i, alpha in enumerate(_basis(n, order).exps)}
    return Taylor(n, order, {index[alpha]: c for alpha, c in coef.items() if sum(alpha) <= order})


def coef(t):
    """t's coefficients keyed by exponent tuple, in t's order."""
    exps = _basis(t.n, t.order).exps
    return {exps[i]: c for i, c in t.coef.items()}


def grad(t, j):
    """The first partial of t along x_j (j from 0) at the base point."""
    return t.coef.get(1 + j, 0j)


class PointField(MultivectorField):
    """The field of values fn(p) at each plain point p: a number, as the scalar blade, or a
    multivector. Read at order 0 only. On a chunk, a point of Batch coordinates, it calls fn at
    each of the chunk's points in order and packs their values into Batches, so a sweep reads
    the chunk at once; FDField instead refuses a chunk, which is then replayed point by point."""

    def __init__(self, n, fn):
        self.n, self.fn = n, fn

    def _at_one(self, p):
        value = self.fn(p)
        return value if isinstance(value, Multivector) else Multivector.scalar(self.n, value)

    def evaluate(self, p):
        if type(p[0]) is not Batch:
            return self._at_one(p)
        values = [self._at_one(q) for q in zip(*p)]
        blades = dict.fromkeys(m for value in values for m in value.terms)
        return Multivector(self.n, {m: Batch(value.coeff(m) for value in values) for m in blades})
