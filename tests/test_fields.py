import cmath
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cliffcalc.fields
import cliffcalc.suites
from cliffcalc.algebra import Multivector, _signed_sum
from cliffcalc.batch import Batch
from cliffcalc.fields import (
    EPS_EXACT,
    ConstantField,
    DerivedField,
    ExprField,
    FDField,
    FieldError,
    GridSpec,
    Identity,
    Points,
    PreconditionError,
    grid_residual,
    grid_residuals,
    kvector_leibniz_residual,
    leibniz_field,
    mv_dirac,
    mv_grade_shift_mul,
    mv_laplacian,
    mv_partial,
    mv_value,
    scalar_leibniz_residual,
    scalar_of,
)
from cliffcalc.cli import main
from cliffcalc.darboux import closed_forms, eigen_check, kvector_closed_form, minus_op, plus_op
from cliffcalc.expr import ExprDomainError, Tape
from cliffcalc.riccati import RiccatiCandidate, riccati_check
from cliffcalc.suites import (
    identity_suite,
    random_expr_str,
    random_kvector_field,
    random_multivector,
    random_mv_field,
    random_point,
    random_scalar_field,
)
from cliffcalc.taylor import JetOrderError, Taylor
from jets import PointField, grad


def test_expr_field_value_and_blade_keys():
    f = ExprField(2, {"e1": "x1", "e2": "2*x2"})
    v = f.value((0.5, 1.0))
    assert v.coeff(0b01) == pytest.approx(0.5)
    assert v.coeff(0b10) == pytest.approx(2.0)
    g = ExprField(2, {0b11: "x1*x2"})
    assert g.value((2.0, 3.0)).coeff(0b11) == pytest.approx(6.0)


def test_expr_field_rejects_a_repeated_blade():
    for components in ({"e1": "1", " e1": "x2"}, {0b11: "1", "e1 ^ e2": "x2"}, {0: "1", "1": "x1"}):
        with pytest.raises(FieldError, match="named twice"):
            ExprField(2, components)


def test_expr_field_rejects_a_blade_outside_the_dimension():
    with pytest.raises(FieldError, match=r"^blade e4 does not fit in dimension 1$"):
        ExprField(1, {"e4": "1"})
    with pytest.raises(FieldError, match=r"^blade e2\^e3 does not fit in dimension 2$"):
        ExprField(2, {"e1": "x1", 0b110: "x2"})
    assert ExprField(2, {0b11: "x1"}).value((0.5, 0.0)).coeff(0b11) == 0.5


def points_in(p):
    """The number of grid points that the point p stands for: a chunk's, or one."""
    return len(p[0]) if type(p[0]) is Batch else 1


def _bits(mv):
    """Blades, jet orders and coefficients with their keys, in dict order; repr keeps -0.0 and NaN apart."""
    return repr([(m, c.order, list(c._coef.items())) for m, c in mv.terms.items()])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), low=st.integers(0, 2), extra=st.integers(1, 2))
def test_lower_order_at_the_last_point_is_the_fresh_jet(seed, n, low, extra):
    f, twin = (random_mv_field(random.Random(seed), n) for _ in range(2))
    p = random_point(random.Random(seed + 1), n)
    f.at(p, low + extra)
    if low:
        assert _bits(f.at(p, low)) == _bits(twin.at(p, low))
    else:  # a field gives values at order 0: the fresh jets' values, bit for bit, at every blade
        assert repr(list(f.at(p, 0).terms.items())) == \
            repr([(m, jet.value) for m, jet in twin.evaluate(p).terms.items()])


def _graph(seed, n):
    """Random fields G, f and a k-vector field Gk, and fields built on them: D(G), G G, Lap G, both
    factors on G, the closed forms on Gk and the graded Leibniz residual of Gk and G."""
    rng = random.Random(seed)
    g, f = random_mv_field(rng, n), random_mv_field(rng, n, grades={1})
    k = rng.randint(0, n)
    gk = random_kvector_field(rng, n, k)
    fields = [g.dirac, g.square, g.laplacian, plus_op(f).field(g), minus_op(f).field(g)]
    fields += [side for pair in closed_forms(f, gk, k).values() for side in pair]
    return fields + [leibniz_field(gk, g, k)], (gk, g, k)


def _assert_same_values(a, b):
    """a and b hold the same blades, each coefficient equal by == or NaN in both, at each point of a Batch."""
    assert a.terms.keys() == b.terms.keys()
    for m, c in a.terms.items():
        pairs = zip(c, b.terms[m], strict=True) if type(c) is Batch else [(c, b.terms[m])]
        assert all(x == y or (cmath.isnan(x) and cmath.isnan(y)) for x, y in pairs), (m, c, b.terms[m])


def _nodes(fields):
    """The fields and every field that they read, each once."""
    seen, stack = {}, list(fields)
    while stack:
        field = stack.pop()
        if id(field) not in seen:
            seen[id(field)] = field
            stack.extend(input for input, _ in field.inputs)
    return seen.values()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), chunk=st.booleans())
def test_a_field_read_at_order_0_has_the_values_of_its_jets(seed, n, chunk):
    # each field of a graph read at order 0 against its twin in a fresh graph read at order 1,
    # at a lone point and on a chunk of three points
    points = [random_point(random.Random(seed + 1), n) for _ in range(3)]
    p = tuple(Batch(q[a] for q in points) for a in range(n)) if chunk else points[0]
    (fields, leibniz), (twins, _) = _graph(seed, n), _graph(seed, n)
    for field, twin in zip(fields, twins):
        _assert_same_values(mv_value(field.at(p, 0)), mv_value(twin.at(p, 1)))
    _assert_same_values(kvector_leibniz_residual(*leibniz, p), mv_value(twins[-1].at(p, 1)))
    # no field computed a jet above its order: no value met a jet of a higher order
    for node in _nodes(fields + twins):
        jets = node._last[1]
        assert all(not isinstance(c, Taylor) or c.order <= node.order for c in jets.terms.values())


def test_a_zero_read_at_order_0_meets_an_infinity_as_its_jet_does():
    # x1 - x1 is 0 at every point, and its product with an infinite coefficient is NaN at order 0 as at order 1
    def graph():
        g = ExprField(2, {"1": "exp(400)*exp(400)", "e1": "x1 - x1"})
        f = ExprField(2, {"e2": "x2"})
        return [g.square, g.dirac, plus_op(f).field(g), minus_op(f).field(g)]

    for p in [(0.5, -0.25), (Batch([0.5, 0.0]), Batch([-0.25, 1.0]))]:
        for field, twin in zip(graph(), graph()):
            _assert_same_values(mv_value(field.at(p, 0)), mv_value(twin.at(p, 1)))
    assert cmath.isnan(graph()[0].value((0.5, -0.25)).coeff(0b01))


class _Counting(DerivedField):
    def __init__(self, fn, *inputs):
        super().__init__(fn, *inputs)
        self.points = []

    def evaluate(self, p):
        self.points.append(p)
        return super().evaluate(p)


def test_point_cache_holds_one_point():
    f = _Counting(lambda xj: xj, (ExprField.scalar(1, "x1"), 0))
    p, q = (0.25,), (0.5,)
    f.at(p, 2)
    f.at(p, 1)
    f.at(p, 0)
    assert f.points == [p]
    f.at(p, 3)
    f.at(q, 0)
    f.at(p, 0)
    assert f.points == [p, p, q, p]
    f.at([0.25], 0)  # a new point object is a new point
    assert len(f.points) == 5


def test_negative_zero_is_its_own_point(monkeypatch):
    # a field may depend on the sign of a zero coordinate, so (0.0,) does not answer for (-0.0,)
    sign = FDField(1, lambda p: Multivector.scalar(1, math.copysign(1.0, p[0])))
    f = _Counting(lambda sj: sj, (sign, 0))
    assert f.value((0.0,)).coeff(0) == 1.0
    assert f.value((-0.0,)).coeff(0) == -1.0
    assert len(f.points) == 2
    runs = []
    original = Tape.run
    monkeypatch.setattr(Tape, "run", lambda self, slots, p, order: runs.append(p) or original(self, slots, p, order))
    x1 = ExprField(1, {"e1": "x1"})
    x1.at((0.0,), 1)
    jet = x1.at((-0.0,), 1).coeff(1)
    assert [math.copysign(1.0, p[0]) for p in runs] == [1.0, -1.0]
    assert jet.value == 0 and grad(jet, 0) == 1


def test_building_a_consumer_raises_the_orders_it_reads():
    phi = ExprField.scalar(2, "x1*x2")
    d = phi.dirac
    assert (phi.order, d.order) == (1, 0)
    lap = DerivedField(mv_laplacian, (d, 2))
    assert (phi.order, d.order, lap.order) == (3, 2, 0)
    DerivedField(lambda dj: dj, (d, 0))  # a lower demand leaves the orders as they are
    assert (phi.order, d.order) == (3, 2)


@pytest.mark.parametrize("reverse", [False, True], ids=["value-first", "laplacian-first"])
def test_check_order_does_not_change_the_evaluations(monkeypatch, reverse):
    runs = []
    original = Tape.run
    monkeypatch.setattr(Tape, "run", lambda self, slots, p, order: runs.append(p) or original(self, slots, p, order))
    phi = ExprField.scalar(2, "x1*x2")
    checks = [(Identity(phi), None), (_harmonic(phi), None)]
    grid_residuals(checks[::-1] if reverse else checks, GridSpec.cube(2, samples_per_axis=3))
    # phi is read at order 0 and, through its Laplacian, at order 2: one run at order 2 per sample
    assert sum(points_in(p) for p in runs) == 9


def test_expr_field_dimension_mismatch():
    from cliffcalc.expr import parse
    with pytest.raises(FieldError):
        ExprField(3, {0: parse("x1", 2)})


def test_dirac_of_position_vector():
    # D(x) = sum_j e_j d_j (sum_k x_k e_k) = sum e_j e_j = -n
    for n in (2, 3):
        f = ExprField(n, {1 << (j - 1): f"x{j}" for j in range(1, n + 1)})
        d = mv_value(mv_dirac(f.at(tuple(0.3 * j for j in range(1, n + 1)), 1)))
        assert (d - Multivector.scalar(n, complex(-n))).norm() < 1e-14


def test_dirac_squared_is_minus_laplacian():
    n = 2
    phi = ExprField.scalar(n, "exp(x1)*sin(2*x2)")
    p = (0.4, -0.3)

    dsq = DerivedField(lambda ph: mv_dirac(mv_dirac(ph)), (phi, 2)).value(p)
    lap = mv_value(mv_laplacian(phi.at(p, 2)))
    assert (dsq + lap).norm() < 1e-11


def test_laplacian_oracle():
    phi = ExprField.scalar(2, "x1^2 + 3*x2^2")
    assert mv_value(mv_laplacian(phi.at((0.1, 0.2), 2))).scalar_part() == pytest.approx(8.0)
    harmonic = ExprField.scalar(2, "exp(x1)*sin(x2)")
    assert mv_value(mv_laplacian(harmonic.at((0.5, 0.7), 2))).norm() < 1e-12


# a coefficient of the random jets below: a signed zero, a zero part of a non-zero number, an inf
_SPECIAL = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(1.5, -0.0), complex(math.inf, 0.0)]


def _random_jet(rng, n, order, points):
    """A jet with a random subset of the monomials within its order, in random order. Each coefficient
    is a number, or on a chunk (points > 0) a Batch of one number per point, often one of _SPECIAL."""
    def number():
        return rng.choice(_SPECIAL) if rng.random() < 0.4 else complex(rng.uniform(-2, 2), rng.choice([-0.0, 0.5]))

    indices = [i for i in range(math.comb(n + order, order)) if rng.random() < 0.7]
    rng.shuffle(indices)
    return Taylor(n, order, {i: Batch(number() for _ in range(points)) if points else number() for i in indices})


def _unsigned_zeros(mv):
    """mv's terms as text, each zero part as +0.0 (-0.0 + 0.0 is 0.0), so only the sign of a zero is lost."""
    def unsign(z):
        return complex(z.real + 0.0, z.imag + 0.0)
    return repr({m: [unsign(z) for z in c] if type(c) is Batch else unsign(c) for m, c in mv.terms.items()})


@pytest.mark.parametrize("seed", range(40))
def test_derivatives_that_spend_the_last_order_read_the_coefficients(seed):
    rng = random.Random(seed)
    n, points = rng.randint(1, 3), rng.choice([0, 3])
    for j in range(n):  # an order-1 partial is the coefficient of x_j, bit for bit diff(j).value
        t = _random_jet(rng, n, 1, points)
        assert repr(t.partial(j)) == repr(t.diff(j).value)  # a Batch's repr is its list's
    mv = Multivector(n, {m: _random_jet(rng, n, 2, points) for m in rng.sample(range(1 << n), rng.randint(1, 1 << n))})
    lap = mv_laplacian(mv)
    # bit for bit the values of the second partials summed as numbers, in the same blade order
    terms = ((m, 1, c.diff(j).diff(j).value) for j in range(n) for m, c in mv.terms.items())
    assert repr(lap.terms) == repr(mv_value(_signed_sum(n, terms)).terms)
    # the sum of the order-0 jets that the Laplacian made before: a jet's missing constant left a
    # sum as it was, where a number adds 0j, which turns a part -0.0 into +0.0, and only that
    jets = _signed_sum(n, ((m, 1, c.diff(j).diff(j)) for j in range(n) for m, c in mv.terms.items()))
    assert _unsigned_zeros(lap) == _unsigned_zeros(mv_value(jets))
    t = _random_jet(rng, n, rng.randint(0, 2), points)
    for x in (rng.choice(_SPECIAL), rng.uniform(-2, 2), 2):
        assert repr(list((x - t)._coef.items())) == repr(list((Taylor.constant(x, n, t.order) - t)._coef.items()))
    with pytest.raises(TypeError):
        object() - t


def test_the_laplacian_of_a_missing_second_power_adds_0j():
    # -x1*x1 has no x2^2 coefficient: the order-0 jets' sum kept -2-0j, the values' sum is -2+0j
    lap = mv_laplacian(ExprField.scalar(2, "-x1*x1").at((0.3, 0.5), 2))
    assert repr(lap.scalar_part()) == "(-2+0j)"


def test_a_derivative_past_the_order_raises():
    with pytest.raises(JetOrderError):
        Taylor.constant(1.0, 2, 0).partial(0)
    with pytest.raises(JetOrderError):
        mv_laplacian(ExprField.scalar(2, "x1*x2").at((0.3, 0.5), 1))


def test_the_suite_makes_no_jet_of_order_0(monkeypatch):
    # a field read at order 0 gives values, and so does every derivative that spends a jet's last order
    orders = []
    init = Taylor.__init__
    monkeypatch.setattr(Taylor, "__init__",
                        lambda self, n, order, coef: orders.append(order) or init(self, n, order, coef))
    for seed in range(1, 5):
        identity_suite(5, seed, 20)
    assert len(orders) > 10_000 and 0 not in orders


def test_constant_field():
    c = ConstantField(Multivector.basis(3, 2))
    assert c.value((1, 2, 3)) == Multivector.basis(3, 2)
    assert mv_value(mv_dirac(c.at((0, 0, 0), 1))).norm() == 0.0


def test_fd_field_matches_exact_jets():
    n = 2
    exact = ExprField.scalar(n, "exp(x1)*cos(x2) + x1*x2")
    fd = FDField(n, exact.value)
    p = (0.3, -0.4)
    je = exact.at(p, 1)
    jf = fd.at(p, 1)
    te, tf = je.coeff(0), jf.coeff(0)
    assert abs(te.value - tf.value) < 1e-12
    for j in range(n):
        assert abs(grad(te, j) - grad(tf, j)) < 1e-9


def test_fd_field_is_called_at_single_points_of_a_grid_pass():
    calls = []

    def box(p):
        calls.append(p)
        return Multivector.scalar(1, complex(p[0]))

    f = FDField(1, box)
    report = grid_residual(Identity(f), GridSpec.cube(1, samples_per_axis=5))
    # the chunk is refused before the black box runs, and replayed one point at a time at order 0
    assert calls == [(x,) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    # raised to order 1 afterwards, the field differentiates again at a point of that pass
    assert grad(f.at(report.worst_point, 1).coeff(0), 0) == pytest.approx(1.0)


def test_fd_field_order_cap():
    fd = FDField(1, lambda p: Multivector.scalar(1, complex(p[0])))
    with pytest.raises(JetOrderError):
        fd.at((0.0,), 2)


def test_scalar_leibniz_residual_exact():
    n = 3
    phi = ExprField.scalar(n, "exp(x1) + x2*x3")
    f = ExprField(n, {"e1": "sin(x2)", "e2^e3": "x1*x1"})
    r = scalar_leibniz_residual(phi, f, (0.2, 0.5, -0.1))
    assert r.norm() < 1e-12


def test_scalar_leibniz_requires_scalar():
    n = 2
    notscalar = ExprField(n, {"e1": "x1"})
    f = ExprField(n, {"e2": "x2"})
    with pytest.raises(FieldError):
        scalar_leibniz_residual(notscalar, f, (0.1, 0.2))


def _terms(mv):
    """The terms of mv as plain data: a jet as its coefficients, a Batch as a list."""
    def plain(c):
        return {i: plain(x) for i, x in c._coef.items()} if isinstance(c, Taylor) else \
            list(c) if type(c) is Batch else c
    return {m: plain(c) for m, c in mv.terms.items()}


def _jets_at(rng, n, p):
    """Jets of order 1 at p of a random field G and of another field's partials R."""
    return random_mv_field(rng, n).at(p, 1), mv_partial(random_mv_field(rng, n).at(p, 1), rng.randint(1, n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_grade_shift_is_the_projected_product(seed, n):
    # the product form multiplies each coefficient by 1+0j and negates before it multiplies,
    # so only the sign of a zero may differ
    rng = random.Random(seed)
    plain = random_multivector(rng, n), random_multivector(rng, n)
    jets = _jets_at(rng, n, random_point(rng, n))
    batch_jets = _jets_at(rng, n, tuple(Batch(random_point(rng, 3)) for _ in range(n)))
    for g, r in (plain, jets, batch_jets):
        for j in range(1, n + 1):
            for t in range(-1, n + 2):
                shift = (Multivector.basis(n, j) * g).grade(t)
                assert _terms(mv_grade_shift_mul(g, j, t, r)) == _terms(shift * r)


@pytest.mark.parametrize("seed", range(4))
def test_grade_shift_mul_on_a_chunk_is_bit_for_bit_each_point(seed):
    rng = random.Random(seed)
    n, points = 3, [random_point(rng, 3) for _ in range(4)]
    g, f = random_mv_field(rng, n), random_mv_field(rng, n)
    batch = tuple(Batch(p[a] for p in points) for a in range(n))
    for j in range(1, n + 1):
        for t in range(n + 1):
            chunk = _terms(mv_grade_shift_mul(g.at(batch, 1), j, t, mv_partial(f.at(batch, 1), j)))
            for k, p in enumerate(points):
                alone = _terms(mv_grade_shift_mul(g.at(p, 1), j, t, mv_partial(f.at(p, 1), j)))
                # repr tells -0.0 from 0.0 and shows the order of blades and of coefficients
                assert repr({m: {i: c[k] for i, c in jet.items()} for m, jet in chunk.items()}) == repr(alone)


def test_kvector_leibniz_hand_example():
    # G = e1 (k = 1), f = x1 e1: both sides equal -1 at any point
    n = 2
    g = ExprField(n, {"e1": "1"})
    f = ExprField(n, {"e1": "x1"})
    r = kvector_leibniz_residual(g, f, 1, (0.7, 0.1))
    assert r.norm() < 1e-14


def test_kvector_leibniz_random():
    rng = random.Random(11)
    n = 3
    for k in range(n + 1):
        from cliffcalc.suites import random_kvector_field, random_mv_field, random_point
        gk = random_kvector_field(rng, n, k)
        f = random_mv_field(rng, n)
        r = kvector_leibniz_residual(gk, f, k, random_point(rng, n))
        assert r.norm() < 1e-9


def _kept_points(grid):
    """The points at which grid_residual reads a check on the grid, in order."""
    kept = []
    grid_residual(Identity(PointField(grid.n, lambda p: kept.append(p) or 0.0)), grid)
    return kept


def test_grid_spec():
    g = GridSpec.cube(2, samples_per_axis=3)
    reference = list(itertools.product([-1.0, 0.0, 1.0], repeat=2))
    assert [p for points, _ in g.chunks() for p in points] == reference
    assert _kept_points(g) == reference
    masked = g.with_exclusion(lambda p: p[0] < 0)
    assert _kept_points(masked) == [p for p in reference if p[0] >= 0]
    assert _kept_points(masked.with_exclusion(lambda p: p[1] > 0.5)) == [p for p in reference
                                                                          if p[0] >= 0 and p[1] <= 0.5]
    with pytest.raises(FieldError):
        GridSpec(((1.0, -1.0),))
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(FieldError):
            GridSpec(((lo, hi),))
    with pytest.raises(FieldError):
        GridSpec(((0.0, 1.0),), samples_per_axis=1)
    with pytest.raises(FieldError):
        GridSpec(tuple((0.0, 1.0) for _ in range(12)), samples_per_axis=11)


def test_grid_residual_scaled_tolerance():
    g = GridSpec.cube(1, samples_per_axis=5)
    # residual 1e-8 with LHS scale 100 passes at eps 1e-9 via scaling
    rep = grid_residual(Identity(_constant(1e-8), None, _constant(100.0)), g, eps=EPS_EXACT)
    assert rep.passed and rep.tolerance == pytest.approx(1e-9 * 101.0)
    rep2 = grid_residual(Identity(_constant(1e-8)), g, eps=EPS_EXACT)
    assert not rep2.passed
    assert rep2.samples_used == 5
    with pytest.raises(FieldError):
        grid_residual(Identity(_constant(0.0)), g.with_exclusion(lambda p: True))


def _sample(identity, p):
    """(r, s) of the identity at the point p, by their definition: r = |lhs - rhs|, s = |scale|."""
    rhs, scale = (Multivector(identity.lhs.n) if x is None else x.value(p) for x in (identity.rhs, identity.scale))
    return (identity.lhs.value(p) - rhs).norm(), scale.norm()


def _rule_reference(checks, grid, tol, eps):
    """Each check's (pass, sup_norm, worst_point, tolerance, samples_used) by the tolerance rule's
    definition, from (r, s) read from the check's identity at each point that its exclusion chain keeps."""
    def ratio(r, s, t, p):
        # r / t; a zero tol or eps ranks the samples as any positive one would
        return r / t if t else r / (1 + s if tol is None else 1.0)

    out = []
    for identity, _, *own in checks:
        samples = []  # (r, s, t, point)
        for p in (p for points, _ in grid.chunks() for p in points):
            if not any(pred(p) for pred in grid.exclusion + tuple(own)):
                r, s = _sample(identity, p)
                samples.append((r, s, tol if tol is not None else eps * (1 + s), p))
        nans = [x for x in samples if math.isnan(ratio(*x))]
        _, _, t, point = nans[-1] if nans else max(reversed(samples), key=lambda x: ratio(*x))
        rs = [r for r, *_ in samples]
        sup = math.nan if any(map(math.isnan, rs)) else max(rs)
        out.append((all(math.isfinite(r) and r <= t for r, _, t, _ in samples), sup, point, t, len(samples)))
    return out


def _rule_checks():
    """Checks on R^2 whose residual and scale both vary, so the deciding sample is not always the
    sup's: one that fails at eps = 1e-9, one of exact zeros that excludes x2 > 0.5, one that is NaN
    at x1 = 1, and a Riccati residual of random fields with its own mask."""
    nan = ExprField.scalar(2, "exp(700)*exp(10*x1) - exp(700)*exp(10*x1)")  # inf - inf at x1 = 1 only

    def pair(residual, scale):
        return Identity(PointField(2, residual), None, PointField(2, scale))

    return [(pair(lambda p: 1e-9 * abs(p[0] - 0.3), lambda p: 100 * p[0] * p[0]), None),
            (pair(lambda p: 2e-9 * (1 + p[1]), lambda p: p[0] * p[0]), None),
            (pair(lambda p: 0.0, lambda p: abs(p[0]) + p[1] * p[1]), None, lambda p: p[1] > 0.5),
            (Identity(nan, None, _constant(1.0, 2)), None),
            _random_checks(5, 2, False, "near")[1]]


@pytest.mark.parametrize("tol, eps", [(None, EPS_EXACT), (5e-9, EPS_EXACT), (None, 0.0), (0.0, EPS_EXACT)])
@pytest.mark.parametrize("sweep", ["chunks", "points", "fd"])
def test_grid_residuals_follow_the_tolerance_rule(monkeypatch, sweep, tol, eps):
    monkeypatch.setattr(cliffcalc.fields, "CHUNK", 7)
    checks = _rule_checks()
    if sweep == "chunks":  # 36 points in 6 chunks, of which x1 = -0.2 and 0.2 are excluded
        grid = GridSpec.cube(2, samples_per_axis=6).with_exclusion(lambda p: abs(p[0]) < 0.3)
    else:
        rng = random.Random(3)
        grid = Points([(1.0, 0.5)] + [random_point(rng, 2) for _ in range(8)])
    if sweep == "fd":  # a black-box field refuses the chunk: its check is replayed point by point
        fd = FDField(2, ExprField(2, {"e1": "x1*x2", "e2": "sin(x1)"}).value)
        checks.append((riccati_check(RiccatiCandidate(fd, ExprField.scalar(2, "x2"))), None))
    reports = grid_residuals(checks, grid, tol, eps)
    reference = _rule_reference(checks, grid, tol, eps)
    for report, (passed, sup, point, t, count) in zip(reports, reference, strict=True):
        assert report.passed is passed and report.worst_point == point
        assert report.tolerance == t and report.samples_used == count
        assert report.sup_norm == sup or math.isnan(report.sup_norm) and math.isnan(sup)
    assert [r.passed for r in reports][1:4] == [tol is not None and tol > 4e-9, True, False]


def test_residual_report_dict():
    g = GridSpec.cube(1, samples_per_axis=3)
    rep = grid_residual(Identity(PointField(1, lambda p: abs(p[0]))), g, tol=2.0)
    d = rep.to_dict()
    assert d["pass"] is True
    assert d["sup_norm"] == pytest.approx(1.0)
    assert d["worst_point"] in ([-1.0], [1.0])
    assert d["rms"] == pytest.approx(math.sqrt(2 / 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [-1.0, 0.0, 1.0])
def test_grid_residual_non_finite_sample_is_worst_and_fails(bad, where):
    g = GridSpec.cube(1, samples_per_axis=3)
    rep = grid_residual(Identity(PointField(1, lambda p: bad if p[0] == where else 0.0)), g, tol=math.inf)
    assert rep.worst_point == (where,)
    assert not rep.passed
    assert not math.isfinite(rep.sup_norm)
    assert rep.to_dict()["pass"] is False


def test_grid_residual_nan_multivector_fails():
    # inf - inf: every coefficient of the field is NaN at every point
    big = "exp(700)*exp(700)*x1"
    f = ExprField(1, {"e1": f"{big} - {big}"})
    rep = grid_residual(Identity(f), GridSpec.cube(1, samples_per_axis=3))
    assert math.isnan(rep.sup_norm)
    assert rep.worst_point is not None
    assert not rep.passed


def test_require_passes_reports_through_and_names_failures():
    g = GridSpec.cube(1, samples_per_axis=3)
    ok, = grid_residuals([(Identity(_constant(0.0)), "unused")], g)
    assert ok.passed and ok == grid_residual(Identity(_constant(0.0)), g)
    with pytest.raises(PreconditionError) as err:
        grid_residuals([(Identity(_constant(0.5)), "phi is not harmonic")], g)
    assert str(err.value) == "phi is not harmonic (sup 0.5)"
    assert err.value.report == grid_residual(Identity(_constant(0.5)), g)


@pytest.mark.parametrize("raising", ["rhs", "scale"])
def test_an_identity_reads_lhs_then_rhs_then_scale_and_a_raise_stops_it(raising):
    reads = []

    def side(name, fails_from=math.inf):
        def fn(p):
            reads.append(name)
            if p[0] >= fails_from:
                raise ValueError(f"{name} fails at {p}")
            return p[0]
        return PointField(1, fn)

    def identity(fails_from=math.inf):
        return Identity(side("lhs"), *(side(name, fails_from if name == raising else math.inf)
                                       for name in ("rhs", "scale")))

    grid_residuals([(identity(), None)], Points([(0.25,)]))
    assert reads == ["lhs", "rhs", "scale"]
    # the identity raises from x1 = 0.5 on, and the check after it at every point: the identity's
    # raise decides, as its raise stops it and every later check from that point on
    checks = [(identity(0.5), None), (Identity(side("later", -1.0)), None)]
    with pytest.raises(ValueError, match=rf"^{raising} fails at \(0.5,\)$"):
        grid_residuals(checks, GridSpec.cube(1, samples_per_axis=5))


# -- chunked evaluation --------------------------------------------------------

def _outcome(checks, grid, chunk):
    """The reports of grid_residuals (or its exception) with CHUNK = chunk, bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cliffcalc.fields, "CHUNK", chunk)
        try:
            return [repr(r) for r in grid_residuals(checks, grid)]
        except Exception as err:
            return type(err).__name__, str(err)


def _random_checks(seed, n, products, mask=None):
    """Checks over random expression fields: a Laplacian, a Riccati residual, a
    composition of factorized operators, with `products` the Laplacian of a
    product of two random sums as well, and the graded Leibniz rule of a random
    k-vector field and a random field for each k, the one identity that reads
    order-1 jets of two inputs. Each is built anew, so no jet is cached.

    The fields are the suites' random fields, sums of monomials and of exp, sin
    and cos of one variable. `mask` gives the Riccati check, between two unmasked
    checks, a predicate of its own: "near" masks the points with x_n near 0.3, and
    "raising" a predicate that raises from x1 = 0.6 on. "raising twice" also gives
    the first check one that raises from x1 = 0.9 on: the Riccati check's raise
    must not stop it, so its own raise decides. "pole" masks |1/x1| > 3.5, which
    raises at x1 = 0 unless the grid excludes that point first."""
    rng = random.Random(seed)
    phi = random_scalar_field(rng, n)
    f = random_mv_field(rng, n, grades={1})
    g = random_mv_field(rng, n)
    composed = plus_op(f).field(minus_op(f).field(g))
    checks = [(_harmonic(phi), None),
              (riccati_check(RiccatiCandidate(f, phi)), None),
              (eigen_check(composed, g, 0.7), None)]
    if mask == "near":
        checks[1] += (lambda p: abs(p[-1] - 0.3) < 0.3,)
    elif mask in ("raising", "raising twice"):
        checks[1] += (_log_mask(n, 0.6),)
    if mask == "raising twice":
        checks[0] += (_log_mask(n, 0.9),)
    if mask == "pole":
        checks[1] += (lambda p: abs(1 / p[0]) > 3.5,)
    if products:
        product = "*".join(f"({random_expr_str(rng, n)})" for _ in range(2))
        checks.append((_harmonic(ExprField.scalar(n, product)), None))
    checks += [(Identity(leibniz_field(random_kvector_field(rng, n, k), g, k)), None) for k in range(n + 1)]
    return checks


def _harmonic(phi):
    """Lap(phi) = 0, scaled by |phi|."""
    return Identity(phi.laplacian, None, phi)


def _constant(x, n=1):
    """The constant scalar field x on R^n."""
    return ConstantField(Multivector.scalar(n, x))


def _log_mask(n, at):
    """A predicate that masks at - 1/e < x1 < at, through log(at - x1) < -1, and raises
    from x1 = at on, where the log leaves its domain."""
    log = ExprField.scalar(n, f"log({at} - x1)")
    return lambda p: scalar_of(log.value(p)).real < -1.0


def _separate_sweeps(checks, grid):
    """The outcome of one sweep per check, in order, each over the grid with its own mask
    added: the first exception, or the reports, bit for bit."""
    try:
        return [repr(grid_residual(identity, grid.with_exclusion(mask[0]) if mask else grid))
                for identity, _, *mask in checks]
    except Exception as err:
        return type(err).__name__, str(err)


# seed 259: the jet coefficients of a product of two sums vanish at the point x1 = 0 only; a
# chunk's jets hold each point's keys in its order because jets keep their exact zeros. The
# other examples mask a check beside unmasked ones on a masked grid of 6 chunks, and raise
# from a check's predicate partway through a chunk of 7 (x1 = 0.6 at point 24 of 36) and
# of 128 (x1 = 0.7 at point 144 of 216). A grid may carry `masked` predicates: x1^2 < 0.1, then
# 1/x1^2 < 1.2, which has no value at the point x1 = 0 that the first excludes
@pytest.mark.parametrize("products", [False, True])
@settings(max_examples=30, deadline=None)
@example(seed=259, n=1, samples=5, lo=0.0, chunk=1024, masked=0, mask=None)
@example(seed=5, n=2, samples=6, lo=-1.0, chunk=7, masked=1, mask="near")
@example(seed=5, n=2, samples=6, lo=-1.0, chunk=7, masked=0, mask="raising")
@example(seed=5, n=3, samples=6, lo=-0.5, chunk=128, masked=1, mask="raising twice")
@example(seed=5, n=2, samples=5, lo=-1.0, chunk=7, masked=2, mask="near")
@example(seed=5, n=2, samples=5, lo=-1.0, chunk=128, masked=1, mask="pole")
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), samples=st.integers(2, 6),
       lo=st.sampled_from([-1.0, -0.5, 0.0]), chunk=st.sampled_from([7, 128, 1024]), masked=st.integers(0, 2),
       mask=st.sampled_from([None, "near", "raising", "raising twice", "pole"]))
def test_chunked_reports_equal_chunk_of_one_reports(products, seed, n, samples, lo, chunk, masked, mask):
    def grid():
        g = GridSpec(tuple((lo, 1.0) for _ in range(n)), samples)
        for pred in (lambda p: p[0] * p[0] < 0.1, lambda p: 1 / (p[0] * p[0]) < 1.2)[:masked]:
            g = g.with_exclusion(pred)
        return g

    outcome = _outcome(_random_checks(seed, n, products, mask), grid(), chunk)
    assert outcome == _outcome(_random_checks(seed, n, products, mask), grid(), 1)
    assert outcome == _separate_sweeps(_random_checks(seed, n, products, mask), grid())


def test_worst_point_tie_across_a_chunk_boundary():
    # x1^2 = 1 at grid indices 0-2 and 6-8; with 7 points a chunk, the last of them is in the second chunk
    grid = GridSpec.cube(2, samples_per_axis=3)
    check = [(Identity(PointField(2, lambda p: p[0] * p[0])), None)]
    report, = grid_residuals(check, grid)
    assert report.worst_point == (1.0, 1.0) and report.sup_norm == 1.0
    assert _outcome(check, grid, 7) == _outcome(check, grid, 1) == [repr(report)]


@pytest.mark.parametrize("src", ["log(0.6 - x1)", "1/(x1 - 0.75)"])
def test_domain_error_in_a_later_chunk_names_its_first_point(src):
    # on 9 points -1, -0.75, ..., 1 the expression first leaves its domain at x1 = 0.75, index 7
    field = ExprField.scalar(1, src)
    with pytest.raises(ExprDomainError) as err:
        ExprField.scalar(1, src).value((0.75,))
    check = [(Identity(field), None)]
    grid = GridSpec.cube(1, samples_per_axis=9)
    assert _outcome(check, grid, 7) == _outcome(check, grid, 1) == ("ExprDomainError", str(err.value))


def test_masked_point_inside_a_chunk():
    phi = ExprField.scalar(1, "x1")
    grid = GridSpec.cube(1, samples_per_axis=9).with_exclusion(lambda p: abs(scalar_of(phi.value(p))) < 0.3)
    check = [(Identity(phi, None, _constant(1.0)), None)]
    # x1 = -0.25, 0 and 0.25 (indices 3 to 5) are masked, inside the first chunk of 7
    assert grid_residuals(check, grid)[0].samples_used == 6
    assert _outcome(check, grid, 7) == _outcome(check, grid, 1)


def test_a_point_masked_for_being_singular_leaves_its_chunk_one_batch(monkeypatch):
    # 1/x1 has no value at x1 = 0, which the first check masks: it is evaluated once, at the 6
    # points it keeps, as one batch point. The second check raises at x1 = 1; it alone is
    # evaluated again, one point at a time
    runs = {}
    original = Tape.run

    def counting(self, slots, p, order):
        runs.setdefault(self, []).append(points_in(p))
        return original(self, slots, p, order)

    monkeypatch.setattr(Tape, "run", counting)
    inverse, log = ExprField.scalar(1, "1/x1"), ExprField.scalar(1, "log(0.9 - x1)")
    checks = [(Identity(inverse, None, _constant(1.0)), None, lambda p: abs(p[0]) < 0.3),
              (Identity(log, None, _constant(1.0)), None)]
    grid = GridSpec.cube(1, samples_per_axis=9)
    report, = grid_residuals(checks[:1], grid)
    assert report.samples_used == 6 and report.sup_norm == 2.0
    assert _outcome(checks[:1], grid, 7) == _outcome(checks[:1], grid, 1) == [repr(report)]
    runs.clear()
    with pytest.raises(ExprDomainError):
        grid_residuals(checks, grid)
    assert runs[inverse.tape] == [6] and runs[log.tape] == [9] + [1] * 9


def _harmonic_checks_on_a_cube():
    # phi1 = x1 and phi2 = x2 each mask their zero plane: a grid with two predicates
    phis = ExprField.scalar(3, "x1"), ExprField.scalar(3, "x2")
    grid = GridSpec.cube(3, samples_per_axis=5)
    for phi in phis:
        grid = grid.with_exclusion(lambda p, phi=phi: abs(scalar_of(phi.value(p))) < 1e-2)
    grid_residuals([(_harmonic(phi), None) for phi in phis], grid)


def _pole_of_a_predicate_on_the_grid_mask():
    # the check's own predicate |1/x1| > 3.5 has no value at x1 = 0, a point that the grid excludes
    phi, inverse = ExprField.scalar(1, "x1"), ExprField.scalar(1, "1/x1")
    grid = GridSpec.cube(1, samples_per_axis=9).with_exclusion(lambda p: abs(scalar_of(phi.value(p))) < 0.3)
    grid_residuals([(Identity(phi, None, _constant(1.0)), None, lambda p: abs(scalar_of(inverse.value(p))) > 3.5)],
                   grid)


# Each predicate of a check's exclusion chain is read at the points the ones before it keep, so
# neither case replays a point. Combining a grid's predicates with `or` (whose truth value raises
# Mixed on a partly excluded chunk) and reading a check's own predicate at the whole chunk made
# 225 and 15 single-point runs
@pytest.mark.parametrize("sweep", [_harmonic_checks_on_a_cube, _pole_of_a_predicate_on_the_grid_mask])
def test_an_exclusion_chain_is_read_without_a_replay(monkeypatch, sweep):
    runs = []
    original = Tape.run

    def counting(self, slots, p, order):
        runs.append(type(p[0]) is Batch)
        return original(self, slots, p, order)

    monkeypatch.setattr(Tape, "run", counting)
    sweep()
    assert runs and runs.count(False) == 0


@pytest.mark.parametrize("f", [
    {"e1": "exp(700)*exp(700)*x1 - exp(700)*exp(700)*x1"},  # inf - inf: NaN at every point
    {"e1": "exp(1000*x1)"},  # overflows from x1 = 0.75 on, in the second chunk
])
def test_non_finite_and_overflowing_residuals_keep_their_exit_codes(tmp_path, capsys, f):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 1, "fields": {"f": f, "v": "0"}, "grid": {"samples_per_axis": 9}}))
    outcomes = []
    for chunk in (7, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cliffcalc.fields, "CHUNK", chunk)
            code = main(["riccati-check", "--config", str(path)])
        out = capsys.readouterr()
        report = json.loads(out.out) if out.out else None
        if report is not None:
            report.pop("wall_time_s")
        outcomes.append((code, repr(report), out.err))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 1


# -- points swept together: Points and the identity suite -------------------------

def _norms_of(*fields):
    """The checks of grid_residuals for the norms of the fields."""
    return [(Identity(field), None) for field in fields]


def test_points_raise_the_first_failing_point_in_order():
    # log(0.6 - x1) leaves its domain at the 2nd and the 3rd point; the 2nd names its own value
    field = ExprField.scalar(1, "log(0.6 - x1)")
    with pytest.raises(ExprDomainError) as alone:
        ExprField.scalar(1, "log(0.6 - x1)").value((0.75,))
    with pytest.raises(ExprDomainError) as together:
        grid_residuals(_norms_of(field), Points([(0.0,), (0.75,), (0.9,)]))
    assert str(together.value) == str(alone.value)


def test_points_raise_the_first_check_in_list_order():
    def failing_from(x):
        def residual(p):
            if p[0] >= x:
                raise ValueError(f"residual from {x} fails at {p}")
            return p[0]
        return residual

    # the second check fails from the 2nd point on, the first only at the 3rd: the first decides
    with pytest.raises(ValueError, match=r"^residual from 1.0 fails at \(1.0,\)$"):
        grid_residuals(_norms_of(PointField(1, failing_from(1.0)), PointField(1, failing_from(0.5))),
                       Points([(0.0,), (0.5,), (1.0,)]))


def test_points_take_a_nan_as_the_sup_at_its_point():
    # x1*1e308 overflows at x1 = 10, and inf - inf is NaN there only
    src = "x1 + (x1*1e308 - x1*1e308)"
    points = Points([(0.5,), (10.0,), (-0.25,)])
    report, = grid_residuals(_norms_of(ExprField.scalar(1, src)), points)
    alone = [ExprField.scalar(1, src).value(p).norm() for p in points]
    assert math.isnan(report.sup_norm) and math.isnan(alone[1])
    assert report.worst_point is points[1] and not report.passed
    assert [alone[0], alone[2]] == [0.5, 0.25]


def test_points_name_the_point_where_a_field_is_not_pure():
    # the bivector part x2 - 0.25 vanishes at the first point only
    f = ExprField(2, {"e1": "0.5"})
    g = ExprField(2, {"e1": "x1", "e1^e2": "x2 - 0.25"})
    with pytest.raises(FieldError) as alone:
        kvector_closed_form(f, ExprField(2, {"e1": "x1", "e1^e2": "x2 - 0.25"}), 1, "plus_minus", (0.5, 0.75))
    with pytest.raises(FieldError) as together:
        grid_residuals(_norms_of(PointField(2, lambda p: kvector_closed_form(f, g, 1, "plus_minus", p)[0])),
                       Points([(0.5, 0.25), (0.5, 0.75)]))
    assert str(together.value) == str(alone.value) == "field is not a pure 1-vector at (0.5, 0.75) (grades [1, 2])"


def test_a_lone_point_is_swept_as_itself(monkeypatch):
    runs = []
    original = Tape.run
    monkeypatch.setattr(Tape, "run", lambda self, slots, p, order: runs.append(p) or original(self, slots, p, order))
    p = (0.5, -0.25)
    report, = grid_residuals(_norms_of(ExprField.scalar(2, "x1*x2")), Points([p]))
    # the tape runs once, on p with its plain coordinates, not on a point of Batches of one
    assert len(runs) == 1 and runs[0] is p
    assert report.sup_norm == 0.125 and report.worst_point is p


def test_a_lone_point_that_raises_is_evaluated_once(monkeypatch):
    runs = []
    original = Tape.run
    monkeypatch.setattr(Tape, "run", lambda self, slots, p, order: runs.append(p) or original(self, slots, p, order))
    field = ExprField.scalar(1, "log(x1 - 2)")
    with pytest.raises(ExprDomainError):
        grid_residuals(_norms_of(field), Points([(0.5,)]))
    # its outcome on its chunk is its replay's outcome, so it is not replayed
    assert len(runs) == 1


def test_identity_suite_sweeps_every_field_identity(monkeypatch):
    swept = []
    original = cliffcalc.suites.grid_residuals
    monkeypatch.setattr(cliffcalc.suites, "grid_residuals",
                        lambda checks, points, **kw: swept.append(len(points)) or original(checks, points, **kw))
    identity_suite(3, 0, 5)
    # 2 rounds of each field family: the Leibniz rules sweep 3 points of each of 5 fields a round,
    # the closed forms 2 points of each of 5, and the operator identities their round's one point
    assert swept == [3] * 10 + [2] * 10 + [1] * 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [1, 7, 77])
def test_identity_suite_equals_its_point_by_point_replay(monkeypatch, n, seed):
    batched = [repr(e) for e in identity_suite(n, seed, 10)]
    original = Tape.run
    plain = []

    def refusing(self, slots, p, order):
        if type(p[0]) is Batch:
            raise RuntimeError("points evaluated together")
        plain.append(p)
        return original(self, slots, p, order)

    # every batch of points then raises, and is evaluated again one point at a time
    monkeypatch.setattr(Tape, "run", refusing)
    assert [repr(e) for e in identity_suite(n, seed, 10)] == batched
    assert plain
