import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcalc.taylor import JetDomainError, JetOrderError, Taylor, _basis
from jets import coef, grad, jet


def jet1(fn_str_order=3, x0=0.4):
    return Taylor.variable(0, x0, 1, fn_str_order)


def test_variable_seed():
    t = Taylor.variable(1, 2.5, 3, 2)
    assert t.value == 2.5
    assert grad(t, 1) == 1.0
    assert grad(t, 0) == 0.0


def test_polynomial_derivatives():
    # f(x, y) = x^2 y + 3y at (1, 2)
    x = Taylor.variable(0, 1.0, 2, 3)
    y = Taylor.variable(1, 2.0, 2, 3)
    f = x * x * y + 3.0 * y
    assert f.value == pytest.approx(8.0)
    assert grad(f, 0) == pytest.approx(4.0)   # 2xy
    assert grad(f, 1) == pytest.approx(4.0)   # x^2 + 3
    assert f.diff(0).diff(0).value == pytest.approx(4.0)  # 2y
    assert f.diff(0).diff(1).value == pytest.approx(2.0)  # 2x
    assert f.diff(1).diff(1).value == pytest.approx(0.0)


def test_exp_against_math():
    x0 = 0.7
    t = jet1(4, x0).exp()
    e = math.exp(x0)
    for k in range(5):
        # Taylor coefficient of exp is e^x0 / k!
        assert coef(t).get((k,), 0) == pytest.approx(e / math.factorial(k))


def test_log_sin_cos_sqrt_values_and_grads():
    x0 = 0.8
    t = jet1(2, x0)
    assert t.log().value == pytest.approx(math.log(x0))
    assert grad(t.log(), 0) == pytest.approx(1 / x0)
    assert grad(t.sin(), 0) == pytest.approx(math.cos(x0))
    assert grad(t.cos(), 0) == pytest.approx(-math.sin(x0))
    assert t.sqrt().value == pytest.approx(math.sqrt(x0))
    assert grad(t.sqrt(), 0) == pytest.approx(0.5 / math.sqrt(x0))


def test_reciprocal_and_division():
    x0 = 0.5
    t = jet1(3, x0)
    r = t.reciprocal()
    assert r.value == pytest.approx(2.0)
    assert grad(r, 0) == pytest.approx(-4.0)  # -1/x^2
    # the tape divides a / b as a * reciprocal(b)
    assert (t * t.reciprocal()).value == pytest.approx(1.0)


def test_intpow():
    t = jet1(3, 2.0)
    assert t.intpow(3).value == pytest.approx(8.0)
    assert grad(t.intpow(3), 0) == pytest.approx(12.0)
    assert t.intpow(0).value == 1.0
    assert t.intpow(-2).value == pytest.approx(0.25)
    assert grad(t.intpow(-2), 0) == pytest.approx(-0.25)  # -2/x^3


def test_diff_costs_one_order():
    t = jet1(2).exp()
    d = t.diff(0)
    assert d.order == 1
    assert d.value == pytest.approx(math.exp(0.4))
    with pytest.raises(JetOrderError):
        d.diff(0).diff(0)


@pytest.mark.parametrize("c", [complex(1, -0.0), complex(math.inf, 0)])
def test_diff_keeps_the_coefficient_at_exponent_one(c):
    # c * 1 is (1+0j) and (inf+nanj) for these two: the exact derivative of c x1 is c
    d = jet(2, 2, {(1, 0): c, (2, 0): 3.0}).diff(0)
    assert repr(coef(d)[(0, 0)]) == repr(c)
    assert repr(coef(d)[(1, 0)]) == repr(3.0 * 2)


def test_diff_matches_grad():
    x = Taylor.variable(0, 0.3, 2, 3)
    y = Taylor.variable(1, -0.2, 2, 3)
    f = (x * y).exp() + x.sin() * y
    assert f.diff(0).value == pytest.approx(grad(f, 0))
    # d2/dx dy = exp(xy) (1 + xy) + cos(x)
    assert f.diff(0).diff(1).value == pytest.approx(math.exp(-0.06) * 0.94 + math.cos(0.3))


def test_truncation_to_min_order():
    a = Taylor.variable(0, 1.0, 1, 3)
    b = Taylor.variable(0, 1.0, 1, 1)
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_domain_errors():
    t = Taylor.variable(0, -1.0, 1, 2)
    with pytest.raises(JetDomainError):
        t.log()
    zero = Taylor.constant(0.0, 1, 2)
    with pytest.raises(JetDomainError):
        zero.reciprocal()
    with pytest.raises(JetDomainError):
        zero.sqrt()
    # cmath has no value for these at infinity
    infinite = Taylor.constant(math.inf, 1, 2)
    for fn in (infinite.sin, infinite.cos, Taylor.constant(complex(0, math.inf), 1, 2).exp):
        with pytest.raises(JetDomainError, match="is undefined"):
            fn()


def test_complex_arithmetic():
    t = Taylor.variable(0, 0.2, 1, 2) * (1 + 2j)
    assert t.value == pytest.approx((1 + 2j) * 0.2)
    assert grad(t, 0) == 1 + 2j


@settings(max_examples=40, deadline=None)
@given(x0=st.floats(min_value=-1.0, max_value=1.0),
       y0=st.floats(min_value=-1.0, max_value=1.0))
def test_product_rule_property(x0, y0):
    x = Taylor.variable(0, x0, 2, 2)
    y = Taylor.variable(1, y0, 2, 2)
    f = x.sin() + y
    g = x.cos() * y + 2.0
    prod = f * g
    assert grad(prod, 0) == pytest.approx(grad(f, 0) * g.value + f.value * grad(g, 0), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(x0=st.floats(min_value=-0.9, max_value=0.9))
def test_exp_log_round_trip(x0):
    t = Taylor.variable(0, x0, 1, 3)
    back = t.exp().log()
    for k in range(4):
        want = x0 if k == 0 else (1.0 if k == 1 else 0.0)
        assert abs(coef(back).get((k,), 0j) - want) < 1e-10


def test_variable_rejects_an_index_out_of_range():
    for j in (2, -1):
        with pytest.raises(ValueError):
            Taylor.variable(j, 0.5, 2, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_numbering_is_graded_and_prefix_closed(n):
    for order in range(4):
        small, big = _basis(n, order).exps, _basis(n, order + 1).exps
        assert big[:len(small)] == small
        assert len(small) == math.comb(n + order, order) == len(set(small))
        degrees = [sum(alpha) for alpha in big]
        assert degrees == sorted(degrees) and max(degrees) == order + 1
    # the constant first, then x_1..x_n, as value, Taylor.variable, FDField and jets.grad key them
    assert _basis(n, 1).exps == [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]


# -- exact reference: jet arithmetic on dicts keyed by exponent tuple ----------
#
# This is the representation the index tables replaced. Each reference
# operation performs the same floating-point operations in the same order,
# so the results must agree bit for bit, insertion order included.

def ref_jet(coef, order):
    return order, {a: c for a, c in coef.items() if sum(a) <= order}


def ref_add(x, y):
    # a coefficient that only y has is stored as it is
    k = min(x[0], y[0])
    out = {a: c for a, c in x[1].items() if sum(a) <= k}
    for a, c in y[1].items():
        if sum(a) <= k:
            out[a] = out[a] + c if a in out else c
    return ref_jet(out, k)


def ref_sub(x, y):
    # x + (-y) in one pass: a coefficient that only y has is 0j + -c
    k = min(x[0], y[0])
    out = {a: c for a, c in x[1].items() if sum(a) <= k}
    for a, c in y[1].items():
        if sum(a) <= k:
            out[a] = out.get(a, 0j) + -c
    return ref_jet(out, k)


def ref_mul(x, y):
    k = min(x[0], y[0])
    out = {}
    for a, ca in x[1].items():
        da = sum(a)
        if da > k:
            continue
        for b, cb in y[1].items():
            if da + sum(b) > k:
                continue
            m = tuple(p + q for p, q in zip(a, b))
            c = ca * cb
            out[m] = out[m] + c if m in out else c
    return ref_jet(out, k)


def ref_scale(x, s):
    return ref_jet({a: c * s for a, c in x[1].items()}, x[0])


def ref_rscale(s, x):
    return ref_jet({a: s * c for a, c in x[1].items()}, x[0])


def ref_diff(x, j):
    # the derivative of c x_j is c itself, not c * 1
    out = {}
    for a, c in x[1].items():
        if a[j]:
            out[a[:j] + (a[j] - 1,) + a[j + 1:]] = c if a[j] == 1 else c * a[j]
    return ref_jet(out, x[0] - 1)


def ref_value(x, n):
    return x[1].get((0,) * n, 0j)


def ref_compose(x, n, derivs):
    zero = (0,) * n
    order = x[0]
    hat = (order, {a: c for a, c in x[1].items() if a != zero})
    # the first power is hat itself, and its term is hat * derivs[1]: derivs[0] and derivs[1] as they are
    acc = ref_jet({zero: derivs[0]}, order)
    if order:
        acc = ref_add(acc, ref_scale(hat, derivs[1]))
    power, fact = hat, 1.0
    for m in range(2, order + 1):
        power = ref_mul(power, hat)
        fact *= m
        acc = ref_add(acc, ref_scale(power, derivs[m] / fact))
    return acc


def ref_exp(x, n):
    return ref_compose(x, n, [cmath.exp(ref_value(x, n))] * (x[0] + 1))


def ref_reciprocal(x, n):
    u0 = ref_value(x, n)
    derivs = [1.0 / u0]
    for m in range(1, x[0] + 1):
        derivs.append(derivs[-1] * (-m) / u0)
    return ref_compose(x, n, derivs)


def assert_same(t, ref):
    order, want = ref
    assert t.order == order
    assert coef(t) == want
    # repr tells -0.0 from 0.0 and shows insertion order, which later sums depend on
    assert repr(list(coef(t).items())) == repr(list(want.items()))


# small integers make exact cancellations, and so exact zeros, likely
COEFS = st.one_of(
    st.sampled_from([0j, 0.0, 1.0, -1.0, 2j, 1 - 1j, -0.0]),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))


@st.composite
def operands(draw, n):
    """(order, coef) with sparse coefficients, some above the order."""
    order = draw(st.integers(0, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        alpha = [0] * n
        for _ in range(draw(st.integers(0, order + 1))):
            alpha[draw(st.integers(0, n - 1))] += 1
        terms[tuple(alpha)] = draw(COEFS)
    return order, terms


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_index_arithmetic_matches_tuple_reference(data):
    n = data.draw(st.integers(1, 6), label="n")
    x = data.draw(operands(n), label="x")
    y = data.draw(operands(n), label="y")
    s = data.draw(COEFS, label="scalar")
    tx, ty = jet(n, x[0], x[1]), jet(n, y[0], y[1])
    rx, ry = ref_jet(x[1], x[0]), ref_jet(y[1], y[0])
    assert_same(tx, rx)
    assert_same(tx + ty, ref_add(rx, ry))
    assert_same(tx - ty, ref_sub(rx, ry))  # one pass, bit for bit tx + (-ty)
    assert_same(tx * ty, ref_mul(rx, ry))
    assert_same(tx * s, ref_scale(rx, s))
    assert_same(s * tx, ref_rscale(s, rx))
    if rx[0] >= 1:
        for j in range(n):
            assert_same(tx.diff(j), ref_diff(rx, j))
    if abs(ref_value(rx, n)) < 5:
        assert_same(tx.exp(), ref_exp(rx, n))
    if ref_value(rx, n) == 0:
        with pytest.raises(JetDomainError):
            tx.reciprocal()
    elif abs(ref_value(rx, n)) > 0.1:  # no overflow to NaN, which equals nothing
        assert_same(tx.reciprocal(), ref_reciprocal(rx, n))


@pytest.mark.parametrize("c", [-0.0, complex(-0.0, -0.0), complex(math.inf, 0)])
def test_a_sum_stores_a_one_sided_coefficient_as_it_is(c):
    # 0j + c would give 0j for the two zeros; a difference still adds -c to 0j
    a, b = jet(1, 1, {(0,): 2 + 0j}), jet(1, 1, {(1,): c})
    assert repr(coef(a + b)) == repr({(0,): 2 + 0j, (1,): c})
    assert repr(coef(a - b)) == repr({(0,): 2 + 0j, (1,): 0j + -c})


def test_exp_scales_an_infinite_first_coefficient_once():
    # the first term is hat * exp(0) = (inf+0j) * (1+0j), which keeps the real inf; the product
    # 1 * hat is (inf+nanj), and (inf+nanj) * (1+0j) is (nan+nanj)
    t = jet(1, 1, {(0,): 0j, (1,): complex(math.inf, 0)}).exp()
    assert repr(coef(t)) == repr({(0,): 1 + 0j, (1,): complex(math.inf, math.nan)})
