"""Clifford algebra calculus with numerically verified operator identities.

The package provides the complexified Clifford algebra with negative
generator squares, exact-jet expression fields on R^n, the Clifford
Riccati equation and its solution constructors, factorized first-order
Schroedinger operators with Darboux-style eigenfunction transport, and
kernel splitting through a commuting pseudoscalar unit.

A name below is imported from its module the first time it is read
(PEP 562), so `import cliffcalc` loads no module of the package.
"""

import importlib

_EXPORTS = {
    "algebra": ("AlgebraError", "Multivector", "blade_grade", "blade_indices", "blade_mask", "blade_name",
                "conjugate", "dot_and_wedge", "linear_combine", "parse_blade", "pseudoscalar"),
    "taylor": ("JetDomainError", "JetOrderError", "Taylor"),
    "expr": ("ExprDomainError", "ExprError", "ExprSyntaxError", "ScalarExpr", "parse"),
    "fields": ("EPS_EXACT", "EPS_FD", "FD_STEP", "ConstantField", "DerivedField", "ExprField", "FDField",
               "FieldError", "GridSpec", "Identity", "MultivectorField", "PreconditionError", "ResidualReport",
               "grid_residual", "grid_residuals", "kvector_leibniz_residual", "scalar_leibniz_residual"),
    "riccati": ("OdeBlowupError", "RiccatiCandidate", "combination_family_gap", "euler_combine", "euler_shift",
                "log_derivative", "riccati_residual", "separable_solve", "vector_split_residuals"),
    "darboux": ("FactorizedOperator", "PipelineResult", "darboux_kvector_pipeline", "darboux_scalar_pipeline",
                "darboux_transform", "darboux_vector_pipeline", "eigen_check", "kvector_closed_form", "minus_op",
                "plus_op"),
    "kernel": ("DecompositionResult", "ModeError", "PseudoscalarMode", "decompose_conjugate_solution",
               "decompose_schrodinger_solution", "default_mode", "first_order_check", "split_kernel"),
    "suites": ("identity_suite",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())
