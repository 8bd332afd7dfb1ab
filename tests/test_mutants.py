"""Hand-written mutants: each must change the exit code of the golden case it names.

A mutant replaces one function of cliffcalc through monkeypatch, built from
the original, so no source is rewritten. Every binding of the original in the
package's modules is replaced, including the ones that other modules imported
by name. Each mutant runs only the one golden config that must catch it.
"""

import cmath
import json
import sys

import pytest

from cliffcalc import darboux, fields, kernel, riccati
from cliffcalc.algebra import Multivector
from cliffcalc.fields import DerivedField, Identity, mv_partial
from test_golden_reports import GOLDEN, run_case


def _riccati_check_minus_square(original):
    def mutant(c):
        lhs = DerivedField(lambda d, sq: d - sq, (c.f.dirac, 0), (c.f.square, 0))
        return Identity(lhs, c.potential, lhs)

    return mutant


def _laplacian_without_last_axis(original):
    def mutant(mv):
        acc = Multivector(mv.n)
        for j in range(1, mv.n):
            acc = acc + mv_partial(mv_partial(mv, j), j)
        return acc

    return mutant


# name -> (golden case, module, function name, original -> mutant)
MUTANTS = {
    "drift-sign": ("verify-identities", darboux, "schrodinger_field",
                   lambda orig: lambda g, w, f, s: orig(g, w, f, -s)),
    "drift-factor-1": ("verify-identities", darboux, "schrodinger_field",
                       lambda orig: lambda g, w, f, s: orig(g, w, f, s / 2)),
    "grade-shift-target-up": ("verify-identities", darboux, "_grade_shift_sum",
                              lambda orig: lambda g_mv, f_mv, target: orig(g_mv, f_mv, target + 2)),
    "derived-potential-sign": ("verify-identities", darboux, "derived_potential",
                               lambda orig: lambda f, sign: orig(f, -sign)),
    "eigen-lambda-not-squared": ("darboux", darboux, "eigen_check",
                                 lambda orig: lambda lhs, g, lam: orig(lhs, g, cmath.sqrt(lam))),
    "factor-left-multiplication": ("darboux", darboux, "_right_mul", lambda orig: lambda gj, fj: fj * gj),
    "dirac-sign": ("riccati-check", fields, "mv_dirac", lambda orig: lambda mv: -orig(mv)),
    "first-order-shift-sign": ("decompose", kernel, "first_order_check",
                               lambda orig: lambda f, mode, lam, sign, g, variant="A":
                               orig(f, mode, lam, -sign, g, variant)),
    "riccati-minus-square": ("riccati-check", riccati, "riccati_check", _riccati_check_minus_square),
    "laplacian-drops-an-axis": ("darboux-kvector", fields, "mv_laplacian", _laplacian_without_last_axis),
    "operator-variant-swapped": ("decompose-dual", kernel, "operator_field",
                                 lambda orig: lambda f, mode, g, variant="A":
                                 orig(f, mode, g, "B" if variant == "A" else "A")),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_changes_its_golden_exit_code(monkeypatch, name):
    golden, module, attr, make = MUTANTS[name]
    original = getattr(module, attr)
    mutant = make(original)
    bindings = [(mod, key) for mod_name, mod in sorted(sys.modules.items())
                if mod_name.startswith("cliffcalc") and mod is not None
                for key, value in vars(mod).items() if value is original]
    for mod, key in bindings:
        monkeypatch.setattr(mod, key, mutant)
    case = json.loads((GOLDEN / f"{golden}.json").read_text())
    assert run_case(case)["exit_code"] != case["exit_code"]
