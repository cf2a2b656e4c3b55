"""Hermite moment solvers for the 1D BGK equation with hierarchical
micro-macro, projective, and coarse projective time integration."""

from .basis import (
    BasisParams,
    HEAT_FLUX_COEFF,
    HermiteExpansion,
    hme_expansion,
    hme_expansion_to_state,
    hme_state_to_expansion,
    hsm_expansion,
    hsm_primitives,
    maxwellian_coefficients,
    moments_of,
    weighted_l2_distance,
)
from .coupling import pi_extrapolate
from .errors import ConfigError, DomainError, NumericError, StateError, StepError
from .grid import (
    Field,
    Grid1D,
    apply_source,
    apply_source_exact,
    cfl_timestep,
    constant_field,
    spatial_update,
)
from .models import EulerModel, HMEModel, HSMModel, make_model
from .quadrature import QuadratureRule, gauss_hermite_e, gaussian_rule
from .schemes import SimConfig, StepReport, run, run_with_reports
from .experiments import (
    BenchResult,
    MomentSnapshot,
    TwoBeamConfig,
    consistency_sweep,
    matching_study,
    speedup_bench,
    two_beam,
    two_beam_initial,
)

__version__ = "0.1.0"

__all__ = [
    "BasisParams", "HEAT_FLUX_COEFF", "HermiteExpansion", "hme_expansion",
    "hme_expansion_to_state", "hme_state_to_expansion", "hsm_expansion",
    "hsm_primitives", "maxwellian_coefficients", "moments_of",
    "weighted_l2_distance",
    "pi_extrapolate",
    "ConfigError", "DomainError", "NumericError", "StateError", "StepError",
    "Field", "Grid1D", "apply_source", "apply_source_exact", "cfl_timestep",
    "constant_field", "spatial_update",
    "EulerModel", "HMEModel", "HSMModel", "make_model",
    "QuadratureRule", "gauss_hermite_e", "gaussian_rule",
    "SimConfig", "StepReport", "run", "run_with_reports",
    "BenchResult", "MomentSnapshot", "TwoBeamConfig", "consistency_sweep",
    "matching_study", "speedup_bench", "two_beam", "two_beam_initial",
]
