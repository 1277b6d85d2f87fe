"""Solvers and certificates for rate-independent systems with viscous
corrections: incremental schemes, stability diagnostics, jump costs, and
four analytic desk-scale models."""

from .core import (
    CorrectionSpec,
    JumpRecord,
    PowerLq,
    QuadraticMu,
    RisProblem,
    Trajectory,
    TrivialH,
)
from .reduced import (
    global_min_rows,
    reduced_value,
)
from .stability import (
    ResidualMemo,
    correction_ratio_check,
    exponent_check,
    residual_rows,
)
from .scheme import (
    DiscreteTrajectory,
    SchemeConfig,
    jump_onset,
    refine_study,
    scheme_problem,
    solve_incremental,
    solve_lockstep,
)
from .jump import (
    CostBound,
    JumpChain,
    jump_cost,
    viscous_chain,
)
from .verify import (
    Certificate,
    TolConfig,
    balance_residual,
    gamma_limit_study,
    plasticity_stress_check,
    ve_equals_e,
    verify_E,
    verify_VE,
)
from .models import (
    Damage1dSpec,
    Delamination0dSpec,
    Plasticity0dSpec,
    Toy1dSpec,
    make_damage1d,
    make_delamination0d,
    make_plasticity0d,
    make_toy1d,
)

__all__ = [
    "CorrectionSpec", "JumpRecord", "PowerLq", "QuadraticMu", "RisProblem", "Trajectory",
    "TrivialH",
    "global_min_rows", "reduced_value",
    "ResidualMemo", "correction_ratio_check", "exponent_check", "residual_rows",
    "DiscreteTrajectory", "SchemeConfig", "jump_onset", "refine_study", "scheme_problem",
    "solve_incremental", "solve_lockstep",
    "CostBound", "JumpChain", "jump_cost", "viscous_chain",
    "Certificate", "TolConfig", "balance_residual", "gamma_limit_study",
    "plasticity_stress_check", "ve_equals_e", "verify_E", "verify_VE",
    "Damage1dSpec", "Delamination0dSpec", "Plasticity0dSpec", "Toy1dSpec",
    "make_damage1d", "make_delamination0d", "make_plasticity0d", "make_toy1d",
]

__version__ = "0.1.0"
