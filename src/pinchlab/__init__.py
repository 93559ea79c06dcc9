"""pinchlab: a numerical laboratory for p-harmonic capacitary potentials on
rotationally symmetric Riemannian 3-manifolds.

The package solves the exterior p-harmonic potential problem on warped
products dr^2 + h(r)^2 g_(S^2), verifies the monotonicity formulas, capacity
law, curvature identities and interpolation inequalities that drive the
pinched-Ricci rigidity argument, and runs the full contradiction scenario to
report which geometric hypothesis breaks on each model.
"""

from .errors import ConfigError, ConvergenceError, DomainError, PinchLabError
from .geometry import (
    ManifoldModel,
    ball_volume,
    cone_model,
    curvature,
    flat_model,
    gauss_identity_residual,
    growth_exponent,
    levelset_geometry,
    library,
    pinching_margin,
    positive_cap_model,
    potential_library,
    power_warp_model,
    spline_cap_model,
)
from .potential import as_p, capacity, radius_of_level, solve_radial
from .variational import (
    capacity_from_energy,
    constant_flux_profile,
    cross_validate,
    discretize,
    energy,
    minimize_energy,
)
from .functionals import small_sphere_expansion, willmore
from .rigidity import (
    decay_dichotomy,
    ordering_check,
    pinching_threshold,
    run_contradiction_scenario,
    select_p,
    threshold,
)
from .report import ROW_COLUMNS
from .cli import build_model, emit, parse_config, run, serialize

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PinchLabError",
    "DomainError",
    "ConvergenceError",
    "ConfigError",
    # geometry
    "ManifoldModel",
    "flat_model",
    "cone_model",
    "power_warp_model",
    "positive_cap_model",
    "spline_cap_model",
    "library",
    "potential_library",
    "curvature",
    "levelset_geometry",
    "gauss_identity_residual",
    "pinching_margin",
    "ball_volume",
    "growth_exponent",
    # potential
    "as_p",
    "solve_radial",
    "radius_of_level",
    "capacity",
    # variational
    "discretize",
    "energy",
    "minimize_energy",
    "constant_flux_profile",
    "capacity_from_energy",
    "cross_validate",
    # functionals
    "willmore",
    "small_sphere_expansion",
    # rigidity
    "pinching_threshold",
    "threshold",
    "select_p",
    "decay_dichotomy",
    "ordering_check",
    "run_contradiction_scenario",
    # report / cli
    "ROW_COLUMNS",
    "parse_config",
    "serialize",
    "build_model",
    "run",
    "emit",
]
