"""Minimal measurement entropy of pure multi-particle states.

The package computes, for a normalized state on a finite tensor product,
the smallest Shannon entropy any simple product observable can induce:
in closed form for two particles (entropy of the Schmidt weights), by
randomized search for any factor count, and along toy collision models
that show the quantity grow from zero when particles interact.
"""

from .errors import (
    DimensionMismatch,
    NotBipartite,
    NotDegenerate,
    StateTooLarge,
    ToolkitError,
)
from .linalg import (
    SchmidtForm,
    StateVector,
    apply_unitary,
    basis_state,
    complete_basis,
    haar_unitary,
    is_unitary,
    random_product_state,
    random_state,
    schmidt,
    tensor,
)
from .observables import (
    PointObservable,
    ProductObservable,
    measurement_entropy,
)
from .schemes import (
    Scheme,
    entropy,
    shannon_entropy,
)
from .scattering import (
    CollisionModel,
    GasTrajectory,
    box_energies,
    collide,
    entropy_trajectory,
    gas_run,
    trajectory_to_csv,
    trajectory_to_json,
)
from .sq import (
    SqResult,
    adapted_pair,
    convexity_gap,
    degenerate_orbit,
    sq_bipartite,
    sq_search,
)

__version__ = "0.1.0"

__all__ = [
    "CollisionModel",
    "DimensionMismatch",
    "GasTrajectory",
    "NotBipartite",
    "NotDegenerate",
    "PointObservable",
    "ProductObservable",
    "Scheme",
    "SchmidtForm",
    "SqResult",
    "StateTooLarge",
    "StateVector",
    "ToolkitError",
    "adapted_pair",
    "apply_unitary",
    "basis_state",
    "box_energies",
    "collide",
    "complete_basis",
    "convexity_gap",
    "degenerate_orbit",
    "entropy",
    "entropy_trajectory",
    "gas_run",
    "haar_unitary",
    "is_unitary",
    "measurement_entropy",
    "random_product_state",
    "random_state",
    "schmidt",
    "shannon_entropy",
    "sq_bipartite",
    "sq_search",
    "tensor",
    "trajectory_to_csv",
    "trajectory_to_json",
]
