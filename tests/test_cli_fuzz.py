"""Fuzz test of the CLI contract: whatever the config, `cliffcalc.cli.main`
exits 0, 1 or 2, prints no traceback, and any report it prints is strict
JSON (RFC 8259), with no bare Infinity or NaN token.

Each example builds a well-formed config for one command, then breaks a few
of its keys: a broken key is dropped or replaced by an arbitrary JSON value,
raw text among them.
Numbers that set the amount of work (n, samples per axis, rounds, the ODE
step, the box and the ODE start) stay small, so every example runs quickly.
The examples are derandomized, so every run checks the same 200 configs.

A second test holds the same contract for expressions of any size: sums and
products of 1,000 to 5,000 terms, and nesting up to 5,000 levels deep; a
check that fails there gives its report, unless it names the subexpression
that cannot be evaluated. A third holds it for config text that the JSON
reader itself rejects.
"""

import io
import itertools
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffcalc.algebra import blade_name
from cliffcalc.cli import COMMANDS, main
from cliffcalc.expr import FUNCTIONS
from test_cli import load

FIELDS = ("f", "v", "g", "h", "phi", "phi1", "phi2")


@lru_cache(maxsize=None)
def expressions(n):
    """Expressions in x1..xn from a small grammar."""
    atoms = st.sampled_from([f"x{j}" for j in range(1, n + 1)] + ["0", "1", "2.5", "0.5", "i"])
    grammar = st.recursive(
        atoms,
        lambda e: st.one_of(
            st.builds("({} {} {})".format, e, st.sampled_from("+-*/"), e),
            st.builds("{}({})".format, st.sampled_from(FUNCTIONS), e),
            st.builds("({})^{}".format, e, st.integers(-3, 3)),
            st.builds("-{}".format, e),
        ),
        max_leaves=6,
    )
    return grammar


@lru_cache(maxsize=None)
def fields(n):
    """An expression, or a blade -> expression map that now and then names a
    blade twice (" e1") or names one outside the algebra ("e4")."""
    valid = st.sampled_from([blade_name(m) for m in range(1 << n)])
    blades = st.one_of(valid, valid, valid, st.sampled_from([" e1", "e4"]))
    return expressions(n) | st.dictionaries(blades, expressions(n), min_size=1, max_size=3)


def json_values(numbers):
    return st.recursive(
        st.none() | st.booleans() | st.text(max_size=12) | numbers,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


# any JSON value, including huge, infinite and NaN numbers
anything = json_values(st.integers() | st.floats())
# any JSON value whose numbers cannot ask for much work
small = json_values(st.integers(-3, 4) | st.floats(-3, 3))
WORK_KEYS = {"n", "samples_per_axis", "rounds", "ode_step", "box", "x0"}

number = st.floats(-2, 2)
nonzero = st.floats(0.25, 2) | st.floats(-2, -0.25)
complex_value = number | st.lists(number, min_size=2, max_size=2) | st.fixed_dictionaries(
    {}, optional={"re": number, "im": number})


@st.composite
def configs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    n = draw(st.integers(1, 3))
    lo = draw(st.lists(st.floats(-2, 0.5), min_size=n, max_size=n))
    grid = {
        "samples_per_axis": draw(st.integers(2, 3)),
        "box": [[a, a + draw(st.floats(0.1, 1.5))] for a in lo],
    }
    config = {
        "n": n,
        "fields": {name: draw(fields(n)) for name in FIELDS},
        "grid": grid,
        "tolerance": draw(st.floats(1e-12, 1.0)),
        "seed": draw(st.integers()),
        "rounds": draw(st.integers(1, 2)),
        "v_list": [draw(expressions(n)) for _ in range(n)],
        "x0": draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)),
        "f0": draw(st.lists(number, min_size=n, max_size=n)),
        "ode_step": draw(st.floats(1e-3, 0.5)),
        "K": draw(complex_value),
        "K_samples": draw(st.lists(complex_value, min_size=1, max_size=3)),
        "margin": draw(number),
        "lambda": draw(nonzero | st.lists(nonzero, min_size=2, max_size=2)),
        "k": draw(st.integers(0, 3)),
        "mode": draw(st.sampled_from(["auto", "full", "full_pseudoscalar", "last_axis"])),
    }
    # break up to three keys, at the top level, in the grid or among the fields
    for _ in range(draw(st.integers(0, 3))):
        parts = [d for d in (config, config.get("grid"), config.get("fields")) if isinstance(d, dict) and d]
        where = draw(st.sampled_from(parts))
        key = draw(st.sampled_from(sorted(where)))
        if draw(st.booleans()):
            del where[key]
        else:
            where[key] = draw(small if key in WORK_KEYS else anything)
    return command, config


def run(command, config):
    return run_text(command, json.dumps(config))


def run_text(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--config", path])
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if out:
        assert err == "" and load(out)["overall_pass"] is (code == 0)
    else:
        prefix = "error: " if code == 2 else "check failed: "
        assert code != 0 and err.startswith(prefix) and err.count("\n") == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(configs())
def test_any_config_exits_0_1_or_2_without_traceback(case):
    assert_contract(*run(*case))


ATOMS = st.sampled_from(["x1", "x2", "0.5", "2", "i"])
# the prefix and suffix of one level of nesting
LEVELS = st.sampled_from([("(", ")"), ("-", ""), ("exp(", ")"), ("sin(", ")"), ("sqrt(", ")")])


@st.composite
def large_expressions(draw):
    """A sum or product of 1,000 to 5,000 terms, or an atom nested up to 5,000
    levels deep; a short drawn pattern repeats, so the draws stay few."""
    atom = draw(ATOMS)
    if draw(st.booleans()):
        pattern = draw(st.lists(st.tuples(st.sampled_from("+-*/"), ATOMS), min_size=1, max_size=4))
        terms = itertools.islice(itertools.cycle(pattern), draw(st.integers(999, 4999)))
        return atom + "".join(f" {op} {a}" for op, a in terms)
    pattern = draw(st.lists(LEVELS, min_size=1, max_size=3))
    levels = list(itertools.islice(itertools.cycle(pattern), draw(st.integers(1, 150) | st.integers(1, 5000))))
    return "".join(pre for pre, _ in levels) + atom + "".join(post for _, post in reversed(levels))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(expression=large_expressions(), name=st.sampled_from(["f", "v"]))
# a finite residual of about 1e181, whose square exceeds the largest float
@example(expression="2" + " / x1 * 2" * 600, name="v")
def test_an_expression_of_any_size_exits_0_1_or_2_without_traceback(expression, name):
    fields = {"f": {"e1": "x1"}, "v": "0 - 1", name: expression}
    code, out, err = run("riccati-check", {"n": 2, "fields": fields, "grid": {"samples_per_axis": 2}})
    assert_contract(code, out, err)
    # a numerical failure gives its report, unless a subexpression cannot be evaluated at all
    assert out or code == 2 or "in subexpression" in err


@pytest.mark.parametrize("key, value", [("tolerance", "7" * 5000), ("x", "[" * 100_000 + "]" * 100_000)],
                         ids=["integer of 5,000 digits", "100,000 nested arrays"])
def test_a_config_the_json_reader_rejects_exits_2(key, value):
    text = f'{{"n": 2, "fields": {{"f": "x1", "v": "0"}}, "{key}": {value}}}'
    code, out, err = run_text("riccati-check", text)
    assert_contract(code, out, err)
    assert code == 2
