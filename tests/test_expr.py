import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcalc.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    ExprDomainError,
    ExprSyntaxError,
    constant_expr,
    parse,
)
from cliffcalc.fields import ExprField
from cliffcalc.suites import random_expr_str
from cliffcalc.taylor import JetDomainError, Taylor
from jets import coef, grad


def test_basic_evaluation():
    e = parse("2*x1 + x2^2", 2)
    assert e.eval((1.0, 3.0)) == pytest.approx(11.0)


def test_precedence_and_associativity():
    assert parse("2 + 3 * 4", 1).eval((0,)) == pytest.approx(14.0)
    assert parse("2 - 3 - 4", 1).eval((0,)) == pytest.approx(-5.0)
    assert parse("12 / 2 / 3", 1).eval((0,)) == pytest.approx(2.0)
    assert parse("(2 + 3) * 4", 1).eval((0,)) == pytest.approx(20.0)


def test_unary_minus_and_power():
    # unary minus is part of the atom, so it binds tighter than '^'
    assert parse("-x1^2", 1).eval((3.0,)) == pytest.approx(9.0)
    assert parse("0 - x1^2", 1).eval((3.0,)) == pytest.approx(-9.0)
    assert parse("x1^-1", 1).eval((4.0,)) == pytest.approx(0.25)
    assert parse("(-x1)^2", 1).eval((3.0,)) == pytest.approx(9.0)


def test_imaginary_literal():
    e = parse("i*x1", 1)
    assert e.eval((2.0,)) == pytest.approx(2j)


def test_functions():
    p = (0.3,)
    assert parse("exp(x1)", 1).eval(p) == pytest.approx(math.exp(0.3))
    assert parse("log(exp(x1))", 1).eval(p) == pytest.approx(0.3)
    assert parse("sin(x1)^2 + cos(x1)^2", 1).eval(p) == pytest.approx(1.0)
    assert parse("sqrt(x1*x1)", 1).eval(p) == pytest.approx(0.3)


def test_jet_gradient_hessian():
    e = parse("exp(x1)*sin(x2)", 2)
    p = (0.5, 1.2)
    t = e.taylor(p, 2)
    ex, s, c = math.exp(0.5), math.sin(1.2), math.cos(1.2)
    assert t.value == pytest.approx(ex * s)
    assert grad(t, 0) == pytest.approx(ex * s)
    assert grad(t, 1) == pytest.approx(ex * c)
    assert t.diff(0).diff(0).value == pytest.approx(ex * s)
    assert t.diff(0).diff(1).value == pytest.approx(ex * c)
    assert t.diff(1).diff(1).value == pytest.approx(-ex * s)
    # this function is harmonic in 2 variables
    assert abs(t.diff(0).diff(0).value + t.diff(1).diff(1).value) < 1e-12


def test_high_order_jets():
    e = parse("exp(2*x1)", 1)
    t = e.taylor((0.0,), 5)
    for k in range(6):
        assert coef(t).get((k,), 0) == pytest.approx(2 ** k / math.factorial(k))


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ", 1)
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse("", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x3", 2)
    with pytest.raises(ExprSyntaxError):
        parse("foo(x1)", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1^x1", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1) + 2", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x", 1)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("exp(", ")")])
def test_nesting_beyond_the_bound_is_a_syntax_error_where_it_exceeds_it(opening, closing):
    parse(opening * MAX_DEPTH + "x1" + closing * MAX_DEPTH, 1)
    deeper = MAX_DEPTH + 1
    with pytest.raises(ExprSyntaxError) as err:
        parse(opening * deeper + "x1" + closing * deeper, 1)
    # at the '(' or '-' that opens level MAX_DEPTH + 1
    assert err.value.offset == len(opening) * deeper - 1


def test_a_long_sum_renders_and_orders_without_recursion():
    e = parse(" + ".join(["x1"] * 5000), 1)
    assert e.render() == "(" * 4999 + "x1" + " + x1)" * 4999
    assert e.variables() == {1}
    assert e.eval((0.5,)) == 2500


def test_domain_error_names_subexpression():
    e = parse("log(x1 - 2)", 1)
    with pytest.raises(ExprDomainError) as err:
        e.eval((1.0,))
    assert "log" in str(err.value)
    with pytest.raises(ExprDomainError):
        parse("1/x1", 1).eval((0.0,))


def test_render_round_trip():
    sources = ["2*x1 + x2^2", "exp(x1)*sin(x2)", "-x1^2 - 1/x2", "i*x1 + sqrt(x2)",
               "x1^-3", "cos(x1 - x2)*(x1 + 0.5)"]
    for src in sources:
        e = parse(src, 2)
        again = parse(e.render(), 2)
        assert again.render() == e.render()
        assert again.tape.nodes == e.tape.nodes and again.slot == e.slot
        p = (0.4, 0.9)
        assert again.eval(p) == pytest.approx(e.eval(p))


def test_variables():
    assert parse("x1*x3 + 2", 4).variables() == {1, 3}
    assert constant_expr(5.0, 3).variables() == set()


def test_constant_expr():
    e = constant_expr(2 - 1j, 2)
    assert e.eval((0, 0)) == 2 - 1j
    assert parse(e.render(), 2).eval((0, 0)) == pytest.approx(2 - 1j)


# -- the tape ------------------------------------------------------------------

PHI = "(exp(x1)*sin(x2) - x1^2 + x3^2 + 5)"
RICCATI_F = {"e1": f"(exp(x1)*sin(x2) - 2*x1)/{PHI}", "e2": f"exp(x1)*cos(x2)/{PHI}", "e3": f"2*x3/{PHI}"}


def _tree(tape, s):
    """The expression at slot s as a tree without sharing, with a / b one node again."""
    op, a, b = tape.nodes[s]
    if op in ("x", "c"):
        return (op, a)
    if op == "*" and tape.nodes[b][0] == "reciprocal":
        return ("/", _tree(tape, a), _tree(tape, tape.nodes[b][1]))
    if op in ("+", "-", "*"):
        return (op, _tree(tape, a), _tree(tape, b))
    if op == "^":
        return (op, _tree(tape, a), b)
    return (op, _tree(tape, a))


def _render_tree(t):
    op = t[0]
    if op == "x":
        return f"x{t[1] + 1}"
    if op == "c":
        v = t[1]
        return "i" if v == 1j else repr(v.real) if v.imag == 0 else f"({v.real!r} + {v.imag!r}*i)"
    if op == "neg":
        return f"(-{_render_tree(t[1])})"
    if op == "^":
        return f"({_render_tree(t[1])}^{t[2]})"
    if op in ("+", "-", "*", "/"):
        return f"({_render_tree(t[1])} {op} {_render_tree(t[2])})"
    return f"{op}({_render_tree(t[1])})"


def _tree_eval(t, env, n, order):
    """The recursive evaluator the tape replaced: every occurrence of a
    subtree is evaluated again, and a / b is a * reciprocal(b)."""
    op = t[0]
    if op == "x":
        return env[t[1]]
    if op == "c":
        return Taylor.constant(t[1], n, order)
    if op == "neg":
        return -_tree_eval(t[1], env, n, order)
    try:
        if op == "^":
            return _tree_eval(t[1], env, n, order).intpow(t[2])
        if len(t) == 2:
            return getattr(_tree_eval(t[1], env, n, order), op)()
        left = _tree_eval(t[1], env, n, order)
        right = _tree_eval(t[2], env, n, order)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left * right.reciprocal()
    except JetDomainError as err:
        raise ExprDomainError(f"{err}, in subexpression '{_render_tree(t)}'") from err


def _outcome(jets):
    """repr of each jet's coefficient items (order and signed zeros included),
    or the error that computing them raised."""
    try:
        return [repr(list(t.coef.items())) for t in jets()]
    except (ArithmeticError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def _tree_outcome(tape, slots, p, order):
    n = tape.n

    def jets():
        for s in slots:
            env = [Taylor.variable(j, p[j], n, order) for j in range(n)]
            yield _tree_eval(_tree(tape, s), env, n, order)

    return _outcome(jets)


_LEAVES = st.sampled_from(["x1", "x2", "x3", "0.5", "2", "i", "0", "(x1 - x1)", "1.5e-3"])


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS + ("-",)), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from([0, 1, 2, 3, -1, -2])).map(lambda t: f"({t[0]})^{t[1]}"),
    )


_EXPRS = st.recursive(_LEAVES, _combine, max_leaves=6)
_RANDOM_EXPRS = st.integers(0, 2**32).map(lambda seed: random_expr_str(random.Random(seed), 3))


@st.composite
def _field_sources(draw):
    """One to three components, often over a common subexpression."""
    shared = draw(_EXPRS)
    sources = []
    for _ in range(draw(st.integers(1, 3))):
        own = draw(st.one_of(_EXPRS, _RANDOM_EXPRS))
        form = draw(st.sampled_from(["{a}", "({a}) / ({s})", "({s}) * ({a})", "({a}) - ({s}) / ({s})"]))
        sources.append(form.format(a=own, s=shared))
    return sources


_COORD = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.5, 1.5))


@settings(max_examples=300, deadline=None)
@given(sources=_field_sources(), p=st.tuples(_COORD, _COORD, _COORD), order=st.integers(0, 3))
def test_tape_matches_tree_evaluation_bit_for_bit(sources, p, order):
    field = ExprField(3, {1 << k: src for k, src in enumerate(sources)})
    exprs = list(field.components.values())
    # the whole field: one pass over the shared tape, or the first error in component order
    expected = _tree_outcome(field.tape, [e.slot for e in exprs], p, order)
    assert _outcome(lambda: list(field.at(p, order).terms.values())) == expected
    # each component alone, from the field's tape and from its own
    for e, src in zip(exprs, sources):
        expected = _tree_outcome(field.tape, [e.slot], p, order)
        assert _outcome(lambda: [e.taylor(p, order)]) == expected
        assert _outcome(lambda: [parse(src, 3).taylor(p, order)]) == expected


def _recursive_order(tape, roots):
    """The recursive left-to-right post-order walk that Tape.order replaced."""
    out = {}

    def visit(s):
        if s not in out:
            op, a, b = tape.nodes[s]
            if op not in ("x", "c"):
                visit(a)
                if op in ("+", "-", "*"):
                    visit(b)
            out[s] = None

    for root in roots:
        visit(root)
    return list(out)


@settings(max_examples=200, deadline=None)
@given(sources=_field_sources())
def test_order_and_render_match_the_recursive_walks(sources):
    field = ExprField(3, {1 << k: src for k, src in enumerate(sources)})
    slots = [e.slot for e in field.components.values()]
    assert field.tape.order(slots) == _recursive_order(field.tape, slots)
    for s in range(len(field.tape.nodes)):
        assert field.tape.order((s,)) == _recursive_order(field.tape, (s,))
        assert field.tape.render(s) == _render_tree(_tree(field.tape, s))


def _size(t):
    return 1 + sum(_size(c) for c in t[1:] if isinstance(c, tuple))


def test_riccati_field_compiles_to_shared_nodes():
    field = ExprField(3, RICCATI_F)
    # 59 tree nodes over the three components; 21 distinct subexpressions, and
    # the three divisions by PHI share one reciprocal
    assert sum(_size(_tree(field.tape, e.slot)) for e in field.components.values()) == 59
    assert len(field.tape.nodes) == 22
    assert [op for op, _, _ in field.tape.nodes].count("reciprocal") == 1
    assert field.render_components() == {k: parse(v, 3).render() for k, v in RICCATI_F.items()}


def test_common_denominator_is_inverted_once_per_evaluation(monkeypatch):
    calls = []
    reciprocal = Taylor.reciprocal

    def counted(self):
        calls.append(self)
        return reciprocal(self)

    monkeypatch.setattr(Taylor, "reciprocal", counted)
    field = ExprField(3, {"e1": "x1/(x3 + 2)", "e2": "x2/(x3 + 2)", "e3": "1/(x3 + 2)"})
    field.at((0.1, 0.2, 0.3), 1)
    assert len(calls) == 1
    field.at((0.4, 0.5, 0.6), 2)
    assert len(calls) == 2


@pytest.mark.parametrize("components, message", [
    ({"e1": "x2/(x1 - 1)", "e2": "x3/(x1 - 1)"}, "division by a value that is zero at the base point, "
     "in subexpression '(x2 / (x1 - 1.0))'"),
    ({"e1": "x2 + 1", "e2": "x1/(x1 - 1) + x3/(x1 - 1)", "e3": "(x3 + 1)/(x1 - 1)"},
     "division by a value that is zero at the base point, in subexpression '(x1 / (x1 - 1.0))'"),
    ({"e1": "x2 + 1", "e2": "log(x3 - 2) + x3/(x1 - 1)", "e3": "(x3 + 1)/(x1 - 1)"},
     "log of non-positive real value -1.5, in subexpression 'log((x3 - 2.0))'"),
], ids=["first-component", "first-in-post-order", "earlier-failure-wins"])
def test_zero_shared_denominator_names_the_first_division(components, message):
    with pytest.raises(ExprDomainError) as err:
        ExprField(3, components).at((1.0, 0.5, 0.5), 1)
    assert str(err.value) == message


def test_failing_sibling_component_does_not_affect_another():
    field = ExprField(3, {"e1": "log(x1 - 5)/(x2 + 3)", "e2": "x2/(x2 + 3)"})
    p = (0.5, 0.25, 0.0)
    with pytest.raises(ExprDomainError):
        field.at(p, 1)
    alone = field.components[2].taylor(p, 1)
    assert repr(list(alone.coef.items())) == repr(list(parse("x2/(x2 + 3)", 3).taylor(p, 1).coef.items()))


def test_constants_are_told_apart_by_repr():
    field = ExprField(1, {"e1": "0", "1": constant_expr(-0.0, 1)})
    assert field.render_components() == {"1": "-0.0", "e1": "0.0"}
    assert len(field.tape.nodes) == 2
