"""Exact construction and verification of the Adam-Muratori-Nash
polynomial sequence and the associated Weyl-Dirac zero modes."""

from .polynomials import IntPoly, primitive_integer_form, rational_to_string
from .recurrence import (
    AmnPolynomial,
    AnsatzSolution,
    build_amn_polynomial,
    closed_form_extremes,
    instantiate_solution,
    lift_solution,
    verify_system,
)
from .roots import (
    RootSet,
    monotonicity_check,
    predicted_roots,
    rational_root_oracle,
    verify_factorization,
)
from .fields import (
    ZeroModeField,
    enumerate_family,
    l2_norm_squared,
    loss_yau_residual,
    spin_density,
    weyl_dirac_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AmnPolynomial",
    "AnsatzSolution",
    "IntPoly",
    "RootSet",
    "ZeroModeField",
    "build_amn_polynomial",
    "closed_form_extremes",
    "enumerate_family",
    "instantiate_solution",
    "l2_norm_squared",
    "lift_solution",
    "loss_yau_residual",
    "monotonicity_check",
    "predicted_roots",
    "primitive_integer_form",
    "rational_root_oracle",
    "rational_to_string",
    "spin_density",
    "verify_factorization",
    "verify_system",
]
