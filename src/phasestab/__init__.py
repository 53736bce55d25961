"""Stability certificates and robustness constants for phaseless reconstruction frames."""

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionMismatchError,
    NotAFrameError,
    PhasestabError,
    SingularFisherError,
    ValidationError,
    VerdictConflictError,
)
from .frame_core import (
    dump_frame_csv,
    frame_from_json_dict,
    frame_to_json_dict,
    gram,
    matrix_rank,
    Frame,
    SubsetMask,
    analysis_map,
    analysis_map_sq,
    dist_d,
    dist_d1,
    frame_bounds,
    load_frame,
    mercedes_benz_frame,
    null_vector,
    standard_basis_frame,
    sym_eig,
)
from .injectivity import (
    A0Config,
    Certificate,
    a0,
    a0_scale,
    complement_property,
    full_spark,
    phase_retrievable,
    r_matrix,
)
from .robustness import (
    FrameAnalysis,
    QepsConfig,
    StabilityConstants,
    StabilityReport,
    delta,
    delta_x,
    eps0,
    lambdaF,
    lipschitz_constants,
    omega,
    omega_witness_point,
    q_eps_brackets,
    q_eps_estimate,
    tau,
    u_ratio,
    u_ratios_batch,
    v_ratio,
    v_ratios_batch,
    worst_case_witness,
)
from .estimation import (
    EstimationRun,
    LSConfig,
    NoiseModel,
    canonicalize,
    crlb,
    fisher_empirical,
    fisher_info,
    ls_estimate,
    mse_monte_carlo,
    simulate_measurements,
)
from .random_frames import (
    EnsembleSpec,
    ScalingRow,
    StudyResult,
    gaussian_frame,
    minimal_redundancy_study,
    redundancy_stability_study,
    tau_scaling_study,
    witness_bound_51,
)
from .serialize import csv_line, to_json

__version__ = "0.1.0"
