"""Stochastic-user-equilibrium flows on hierarchical congestion networks.

The library minimises the convex dual of the equilibrium problem (smoothed
shortest-path potential plus separable cost conjugates) with an adaptive
accelerated composite gradient method, recovers flows from the weighted
average of its loadings or the best single loading, whichever has the
smaller primal value, and certifies them with a computable duality gap.
"""

__version__ = "0.1.0"

from .costs import AffineCost, ConstantCost, LinkCost, PowerCost
from .loading import (
    LoadingError,
    LoadResult,
    MassLeakError,
    NoPathError,
    dual_objective,
    dual_smooth_value,
    hierarchical_weights,
    network_loading,
)
from .model import (
    Edge,
    LevelGraph,
    NetworkHierarchy,
    ODPair,
    ODRef,
    Violation,
    validate_hierarchy,
)
from .solver import (
    BacktrackBudgetError,
    GapCertificate,
    IterationRecord,
    SolverConfig,
    lipschitz_bound_diagnostic,
    solve,
)

__all__ = [
    "__version__",
    "AffineCost",
    "ConstantCost",
    "LinkCost",
    "PowerCost",
    "LoadingError",
    "LoadResult",
    "MassLeakError",
    "NoPathError",
    "dual_objective",
    "dual_smooth_value",
    "hierarchical_weights",
    "network_loading",
    "Edge",
    "LevelGraph",
    "NetworkHierarchy",
    "ODPair",
    "ODRef",
    "Violation",
    "validate_hierarchy",
    "BacktrackBudgetError",
    "GapCertificate",
    "IterationRecord",
    "SolverConfig",
    "lipschitz_bound_diagnostic",
    "solve",
]
