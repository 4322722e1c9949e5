"""Distributed multi-satellite MIMO downlink precoding for multi-antenna
ground users: joint non-coherent WMMSE design under general convex power
constraints, and streamwise transmission with eigenmode-based
stream-satellite assignment, evaluated by Monte-Carlo spectral efficiency."""

from .errors import ConfigError, InfeasibleError, NumericsError, ValidationError
from .scenario import (LinkStatistics, ScenarioConfig, load_scenario,
                       path_gain, sample_geometry, slant_range)
from .channel import EffectiveChannel, effective_channels, ula_response
from .power import (PowerConstraintSet, make_constraint_set, per_antenna,
                    per_sat_total, residuals)
from .se_eval import SEReport, approx_se, exact_se_mc, mc_rng
from .assignment import brute_force_assignment, max_weight_assignment
from .joint_wmmse import (SolverParams, SolveTrace, dual_newton_multipliers,
                          init_precoders)
from .joint_wmmse import solve as solve_joint
from .streamwise import (StreamAssignment, associate, participation_factors,
                         solve_streamwise)
from .baselines import (mmse_baseline, random_association, tdma_mrt_baseline,
                        zf_baseline)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "InfeasibleError", "NumericsError", "ValidationError",
    "LinkStatistics", "ScenarioConfig", "load_scenario", "path_gain",
    "sample_geometry", "slant_range",
    "EffectiveChannel", "effective_channels", "ula_response",
    "PowerConstraintSet", "make_constraint_set", "per_antenna",
    "per_sat_total", "residuals",
    "SEReport", "approx_se", "exact_se_mc", "mc_rng",
    "brute_force_assignment", "max_weight_assignment",
    "SolverParams", "SolveTrace", "dual_newton_multipliers", "init_precoders",
    "solve_joint",
    "StreamAssignment", "associate", "participation_factors",
    "solve_streamwise",
    "mmse_baseline", "random_association", "tdma_mrt_baseline", "zf_baseline",
]
