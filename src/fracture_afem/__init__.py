"""Adaptive P1 finite elements for phase-field dynamic brittle fracture."""

__version__ = "0.1.0"

from .mesh import BoundaryLabel, Mesh, adapt, build_initial_mesh, geometry
from .fem import (DirichletSet, FeFunction, apply_dirichlet, assemble_load,
                  assemble_mass, assemble_stiffness, element_gradients,
                  transfer)
from .linsolve import SolveReport, solve_spd
from .dynamics import (DynamicState, LoadingParams, MaterialParams,
                       boundary_ramp, init_state, step_displacement)
from .phasefield import (CrackSet, clamp_and_threshold, solve_phasefield,
                         update_crack_set)
from .estimator import (EstimatorField, dorfler_mark, estimate, fraction_mark,
                        reliability_ratio)
from .driver import EnergyReport, RunConfig, energies, run, staggered_step

__all__ = [
    "__version__",
    "BoundaryLabel", "Mesh", "adapt", "build_initial_mesh", "geometry",
    "DirichletSet", "FeFunction", "apply_dirichlet", "assemble_load",
    "assemble_mass", "assemble_stiffness", "element_gradients", "transfer",
    "SolveReport", "solve_spd",
    "DynamicState", "LoadingParams", "MaterialParams", "boundary_ramp",
    "init_state", "step_displacement",
    "CrackSet", "clamp_and_threshold", "solve_phasefield", "update_crack_set",
    "EstimatorField", "dorfler_mark", "estimate", "fraction_mark",
    "reliability_ratio",
    "EnergyReport", "RunConfig", "energies", "run", "staggered_step",
]
