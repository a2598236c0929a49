"""Convex relaxation toolkit for locating large approximately rank-one
submatrices of nonnegative matrices, with analytical thresholds, dual
certificates, planted-model generators, and a greedy factorization driver."""

__version__ = "0.1.0"

from .analysis import (BlockSelector, PlantedCertificateReport, RegimeReport,
                       RowRatioReport, build_planted_certificate,
                       row_ratio_check, row_zero_threshold,
                       row_zero_thresholds, subgaussian_tail_bound, theta_A,
                       theta_B, top_block, validate_planted_regime)
from .generate import (PlantedInstance, PlantedModel, plant_biclique,
                       plant_rank_one, sample_noise, two_block_matrix)
from .linalg import norm, soft_threshold, svt, theta_norm
from .nmf import NmfResult, greedy_extract, residual_update
from .solver import (ConvergenceError, DualCertificate, OptimalityReport,
                     RankOneParts, Solution, SolverConfig, check_optimality,
                     extract_rank_one, recover_dual, solve)

__all__ = [
    "BlockSelector", "ConvergenceError", "DualCertificate", "NmfResult",
    "OptimalityReport", "PlantedCertificateReport", "PlantedInstance",
    "PlantedModel", "RankOneParts", "RegimeReport", "RowRatioReport",
    "Solution", "SolverConfig", "build_planted_certificate",
    "check_optimality", "extract_rank_one", "greedy_extract", "norm",
    "plant_biclique", "plant_rank_one", "recover_dual", "residual_update",
    "row_ratio_check", "row_zero_threshold", "row_zero_thresholds",
    "sample_noise", "soft_threshold", "solve", "subgaussian_tail_bound", "svt",
    "theta_A", "theta_B", "theta_norm", "top_block", "two_block_matrix",
    "validate_planted_regime",
]
