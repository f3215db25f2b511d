"""Block Kronecker linearizations of matrix polynomials, complete
eigenstructures with constant-shift recovery, and the finite backward-error
mapping from pencil perturbations to polynomial perturbations."""

__version__ = "0.1.0"

from .errors import (BkLabError, ConvergenceError, EigenstructureShiftError,
                     GradeError, InconclusiveError, LayoutError,
                     PlacementError, PreconditionError, ShapeError)
from .matpoly import (MatrixPolynomial, Pencil, as_pencil, build_L,
                      build_Lambda, constant, convolution, identity, multiply,
                      pair_norm, zeros)
from .block_kronecker import (BlockKroneckerPencil, from_polynomial,
                              lift_right_null_vector, recover_polynomial,
                              validate_placement)
from .eigenstructure import (Eigenstructure, chordal_distance,
                             generalized_eigenvalues, match_eigenvalues,
                             right_minimal_indices_by_convolution,
                             shift_recovery, staircase_eigenstructure)
from .backward_error import (BackwardErrorReport, Step1Result,
                             SylvesterGauge, assemble_step3, bound_degenerate,
                             bound_informal, bound_nondegenerate,
                             pipeline_radius, run_pipeline, solve_step1,
                             solve_step2, step1_radius, step2_radius)
from .spectral_constants import (ConvolutionConstants, G_matrix,
                                 G_singular_values, M_matrix,
                                 M_singular_values, SingularValuePrediction,
                                 build_T, build_W, constants_sweep,
                                 sigma_max_W_closed, sigma_min_T_closed,
                                 sigma_min_T_lower_bound,
                                 sigma_min_convolution_L, sigma_min_from_W,
                                 verify_W_direct_sum)
from .experiments import (ExperimentConfig, complex_gaussian,
                          random_pencil_perturbation, random_polynomial,
                          random_singular_polynomial,
                          run_backward_error_batch, trial_rng)
from .tolerances import (EPS, RankDecision, numerical_rank, pseudoinverse,
                         rank_tolerance)

# the public names: the ones imported above, and no submodule
__all__ = [
    "BkLabError", "ConvergenceError", "EigenstructureShiftError", "GradeError",
    "InconclusiveError", "LayoutError", "PlacementError", "PreconditionError",
    "ShapeError",
    "MatrixPolynomial", "Pencil", "as_pencil", "build_L", "build_Lambda",
    "constant", "convolution", "identity", "multiply", "pair_norm", "zeros",
    "BlockKroneckerPencil", "from_polynomial", "lift_right_null_vector",
    "recover_polynomial", "validate_placement",
    "Eigenstructure", "chordal_distance", "generalized_eigenvalues",
    "match_eigenvalues", "right_minimal_indices_by_convolution",
    "shift_recovery", "staircase_eigenstructure",
    "BackwardErrorReport", "Step1Result", "SylvesterGauge", "assemble_step3",
    "bound_degenerate", "bound_informal", "bound_nondegenerate",
    "pipeline_radius", "run_pipeline", "solve_step1", "solve_step2",
    "step1_radius", "step2_radius",
    "ConvolutionConstants", "G_matrix", "G_singular_values", "M_matrix",
    "M_singular_values", "SingularValuePrediction", "build_T", "build_W",
    "constants_sweep", "sigma_max_W_closed", "sigma_min_T_closed",
    "sigma_min_T_lower_bound", "sigma_min_convolution_L", "sigma_min_from_W",
    "verify_W_direct_sum",
    "ExperimentConfig", "complex_gaussian", "random_pencil_perturbation",
    "random_polynomial", "random_singular_polynomial",
    "run_backward_error_batch", "trial_rng",
    "EPS", "RankDecision", "numerical_rank", "pseudoinverse", "rank_tolerance",
]
