"""Clifford algebra calculus with numerically verified operator identities.

The package provides the complexified Clifford algebra with negative
generator squares, exact-jet expression fields on R^n, the Clifford
Riccati equation and its solution constructors, factorized first-order
Schroedinger operators with Darboux-style eigenfunction transport, and
kernel splitting through a commuting pseudoscalar unit.
"""

from .algebra import (
    AlgebraError,
    Multivector,
    blade_grade,
    blade_indices,
    blade_mask,
    blade_name,
    conjugate,
    dot_and_wedge,
    linear_combine,
    parse_blade,
    pseudoscalar,
)
from .taylor import JetDomainError, JetOrderError, Taylor
from .expr import ExprDomainError, ExprError, ExprSyntaxError, ScalarExpr, parse
from .fields import (
    EPS_EXACT,
    EPS_FD,
    FD_STEP,
    ConstantField,
    DerivedField,
    ExprField,
    FDField,
    FieldError,
    GridSpec,
    MultivectorField,
    PreconditionError,
    ResidualReport,
    grid_residual,
    grid_residuals,
    kvector_leibniz_residual,
    scalar_leibniz_residual,
)
from .riccati import (
    OdeBlowupError,
    RiccatiCandidate,
    combination_family_gap,
    euler_combine,
    euler_shift,
    harmonic_check,
    homogeneous_sum,
    log_derivative,
    riccati_residual,
    separable_solve,
    vector_split_residuals,
)
from .darboux import (
    FactorizedOperator,
    PipelineResult,
    darboux_kvector_pipeline,
    darboux_scalar_pipeline,
    darboux_transform,
    darboux_vector_pipeline,
    eigen_check,
    kvector_closed_form,
    minus_op,
    plus_op,
)
from .kernel import (
    DecompositionResult,
    ModeError,
    PseudoscalarMode,
    decompose_conjugate_solution,
    decompose_schrodinger_solution,
    default_mode,
    first_order_check,
    mode_check,
    split_kernel,
)
from .suites import identity_suite

__version__ = "0.1.0"
