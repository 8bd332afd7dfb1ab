"""Jets stated and read by exponent tuple, for tests.

taylor.Taylor keys its coefficients by monomial index (index 0 the constant,
1 + j the variable x_j, then the higher degrees; taylor._basis numbers them).
Tests state a jet as {alpha: c}, alpha the exponent tuple, and read its
coefficients and first partials the same way.
"""

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
