import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcalc.algebra import (
    AlgebraError,
    Multivector,
    blade_mask,
    blade_name,
    conjugate,
    dot_and_wedge,
    parse_blade,
    product_sign,
    pseudoscalar,
)


def mv(n, d):
    return Multivector(n, d)


def test_generator_squares_are_minus_one():
    for n in range(1, 6):
        for j in range(1, n + 1):
            e = Multivector.basis(n, j)
            assert e * e == Multivector.scalar(n, complex(-1.0))
            # -c flips the zero imaginary part; folding the sign into a factor, c * -1, gives (-1+0j)
            assert repr((e * e).coeff(0)) == "(-1-0j)"


def test_generators_anticommute():
    n = 4
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            ej, ek = Multivector.basis(n, j), Multivector.basis(n, k)
            assert (ej * ek + ek * ej).norm() == 0.0


def test_hand_checked_products():
    n = 3
    e1, e2, e3 = (Multivector.basis(n, j) for j in (1, 2, 3))
    e12 = e1 * e2
    # (e1 e2) e1 = -e1 e1 e2 = e2
    assert e12 * e1 == e2
    assert e12.coeff(blade_mask((1, 2))) == 1.0 + 0j
    # e1 e2 e3 is the pseudoscalar
    assert e12 * e3 == pseudoscalar(n)
    # pseudoscalar squared: (-1)^(n(n+1)/2) = (-1)^6 = +1 for n = 3
    eN = pseudoscalar(3)
    assert eN * eN == Multivector.scalar(3, complex(1.0))


def test_pseudoscalar_square_sign_by_dimension():
    # e_N^2 = (-1)^(n(n+1)/2)
    for n in range(1, 9):
        expected = -1.0 if (n * (n + 1) // 2) % 2 else 1.0
        eN = pseudoscalar(n)
        assert (eN * eN).scalar_part() == pytest.approx(expected)


def test_product_sign_oracle():
    # e1^e2 times e2^e3: e1 e2 e2 e3 = -e1 e3
    assert product_sign(0b011, 0b110) == -1
    # disjoint ascending blades need no swaps: e1 * e2
    assert product_sign(0b001, 0b010) == 1
    # e2 * e1 needs one swap
    assert product_sign(0b010, 0b001) == -1


def test_grade_projection_and_completeness():
    n = 3
    a = mv(n, {0: 1 + 1j, 0b001: 2.0, 0b011: 3j, 0b111: -1.0})
    assert a.grade(0) == Multivector.scalar(n, 1 + 1j)
    assert a.grade(2) == mv(n, {0b011: 3j})
    total = a.grade(0) + a.grade(1) + a.grade(2) + a.grade(3)
    assert total == a
    assert a.grade(-1).terms == {} and a.grade(7).terms == {}


def test_conjugation_is_anti_involution():
    n = 3
    e1 = Multivector.basis(n, 1)
    # bar(e1) = -e1, bar(i) = -i
    assert conjugate(e1) == -e1
    assert conjugate(Multivector.scalar(n, 1j)) == Multivector.scalar(n, -1j)
    a = mv(n, {0b011: 2 + 1j, 0b100: -1j})
    b = mv(n, {0: 0.5, 0b111: 3.0})
    assert (conjugate(a * b) - conjugate(b) * conjugate(a)).norm() < 1e-14


def test_dot_and_wedge_split():
    n = 3
    x = mv(n, {0b001: 2.0, 0b010: 1.0})
    y = mv(n, {0b001: 1.0, 0b100: 3.0})
    dot, wedge = dot_and_wedge(x, y)
    # scalar part of xy is -<x, y> = -(2*1)
    assert dot == pytest.approx(-2.0)
    assert wedge == (x * y).grade(2)
    with pytest.raises(AlgebraError):
        dot_and_wedge(Multivector.scalar(n, 1.0), y)


def test_blade_names_round_trip():
    assert blade_name(0) == "1"
    assert blade_name(0b101) == "e1^e3"
    assert parse_blade("e1^e3") == 0b101
    assert parse_blade("1") == 0
    with pytest.raises(AlgebraError):
        parse_blade("e0")
    with pytest.raises(AlgebraError):
        parse_blade("e2^e1")


def test_render_text():
    n = 3
    a = mv(n, {0: 1.5 - 2j, 0b011: 3j, 0b111: -1.0})
    assert a.render() == "(1.5-2j)*1 + 3j*e1^e2 + (-1+0j)*e1^e2^e3"
    assert Multivector(n).render() == "0"


def test_dimension_validation():
    with pytest.raises(AlgebraError):
        Multivector(0)
    with pytest.raises(AlgebraError):
        Multivector(13)
    with pytest.raises(AlgebraError):
        mv(2, {4: 1.0})
    with pytest.raises(AlgebraError):
        Multivector.basis(2, 3)
    with pytest.raises(AlgebraError):
        mv(2, {0: 1.0}) + mv(3, {0: 1.0})


coeffs = st.complex_numbers(min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False)


def mv_strategy(n):
    return st.dictionaries(st.integers(min_value=0, max_value=(1 << n) - 1), coeffs, max_size=6).map(
        lambda d: Multivector(n, d))


@settings(max_examples=60, deadline=None)
@given(a=mv_strategy(3), b=mv_strategy(3), c=mv_strategy(3))
def test_associativity_property(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = 1.0 + a.norm() * b.norm() * c.norm()
    assert (lhs - rhs).norm() <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(a=mv_strategy(3), b=mv_strategy(3))
def test_distributivity_property(a, b):
    c = Multivector.basis(3, 1) + Multivector.basis(3, 2) * 2.0
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert (lhs - rhs).norm() <= 1e-10 * (1.0 + (a.norm() + b.norm()) * c.norm())


def test_vector_square_is_minus_length():
    n = 3
    x = mv(n, {0b001: 1.0, 0b010: 2.0, 0b100: -0.5})
    sq = x * x
    assert sq.is_homogeneous(0)
    assert sq.scalar_part() == pytest.approx(-(1.0 + 4.0 + 0.25))


def test_norm():
    a = mv(2, {0: 3.0, 0b01: 4j})
    assert a.norm() == pytest.approx(5.0)
    assert Multivector(2).norm() == 0.0
    assert math.isfinite(a.norm())
