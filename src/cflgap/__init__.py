"""Exact verification lab for a capacitated facility location LP lower bound.

Builds the structured instance family, its fractional core vectors, the
collision census, the randomized-rounding midpoint certificates, and the
two-point gap certificates, and verifies every identity in exact rational
arithmetic.
"""

__version__ = "0.1.0"

from .instance import (
    CostVector,
    FamilyParams,
    Instance,
    build_family_instance,
    build_gap_costs,
    build_general_instance,
    check_metric_admissible,
    validate_params,
)
from .corevec import (
    CoreIndex,
    FracVector,
    check_natural_lp,
    collides,
    make_core_vector,
    midpoint,
)

__all__ = [
    "__version__",
    "CostVector",
    "FamilyParams",
    "Instance",
    "build_family_instance",
    "build_gap_costs",
    "build_general_instance",
    "check_metric_admissible",
    "validate_params",
    "CoreIndex",
    "FracVector",
    "check_natural_lp",
    "collides",
    "make_core_vector",
    "midpoint",
]
