"""Exact accessibility analysis for rational discrete-time control systems.

Decides forward accessibility symbolically (stabilization index, singular
point set, accessibility index) and cross-checks every verdict with a
numeric brute-force oracle.
"""

__version__ = "0.1.0"

from .analysis import (
    algorithm1,
    algorithm2,
    backward_analysis,
    cumulative_ideal,
    generic_accessibility,
    invariance_check,
    point_status,
)
from .errors import (
    AccessKitError,
    DegenerateDenominatorError,
    PoleError,
    ResourceBudgetError,
)
from .groebner import (
    Ideal,
    radical_heuristic,
    solve_zero_dim,
)
from .oracle import (
    grid_scan_1d,
    jacobian_rank,
    numeric_access_matrix,
    simulate,
)
from .ring import (
    Polynomial,
    RationalFunction,
    VariableRegistry,
    collect_by_class,
    poly_gcd,
    square_free_part,
)
from .sysfile import (
    ParseError,
    parse_system,
    pretty,
    to_numeric_step,
    to_system_model,
)
from .system import (
    SystemModel,
    build_M,
    jacobians,
    submersivity_check,
    symbolic_rank,
)

__all__ = [
    "__version__",
    "AccessKitError",
    "DegenerateDenominatorError",
    "Ideal",
    "ParseError",
    "PoleError",
    "Polynomial",
    "RationalFunction",
    "ResourceBudgetError",
    "SystemModel",
    "VariableRegistry",
    "algorithm1",
    "algorithm2",
    "backward_analysis",
    "build_M",
    "collect_by_class",
    "cumulative_ideal",
    "generic_accessibility",
    "grid_scan_1d",
    "invariance_check",
    "jacobian_rank",
    "jacobians",
    "numeric_access_matrix",
    "parse_system",
    "point_status",
    "poly_gcd",
    "pretty",
    "radical_heuristic",
    "simulate",
    "solve_zero_dim",
    "square_free_part",
    "submersivity_check",
    "symbolic_rank",
    "to_numeric_step",
    "to_system_model",
]
