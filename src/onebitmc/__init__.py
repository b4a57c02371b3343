"""One-bit matrix completion: estimators, exact risk, and rate experiments."""

__version__ = "0.1.0"

from .model import (Shape, TruthMatrix, SampleSet, logistic_link,
                    generate_truth, sample_observations, neg_log_likelihood,
                    nll_gradient)
from .spectral import (SvdTriple, svd, nuclear_norm, svt_prox,
                       project_nuclear_ball, clip_entries, project_factor_rows)
from .solvers import (SolverConfig, FitResult, FeasibilityReport,
                      SolverNumericalError, solve_nuclear_penalized,
                      solve_nuclear_constrained, solve_maxnorm_constrained,
                      refit_low_rank, select_lambda, ESTIMATORS)
from .risk import (RiskReport, bayes_classifier, exact_risk, excess_risk,
                   monte_carlo_risk, estimation_error, risk_report)
from .experiments import (SweepConfig, CellKey, CellResult, ReplicateRecord,
                          RateFit, run_cell, run_sweep, fit_rate,
                          default_lambda_grid, replicate_seed, sweep_cells,
                          sweep_config_from_dict,
                          read_sweep_rows, aggregate_points)

__all__ = [
    "Shape", "TruthMatrix", "SampleSet", "logistic_link", "generate_truth",
    "sample_observations", "neg_log_likelihood", "nll_gradient",
    "SvdTriple", "svd", "nuclear_norm", "svt_prox", "project_nuclear_ball",
    "clip_entries", "project_factor_rows",
    "SolverConfig", "FitResult", "FeasibilityReport", "SolverNumericalError",
    "solve_nuclear_penalized", "solve_nuclear_constrained",
    "solve_maxnorm_constrained", "refit_low_rank", "select_lambda",
    "ESTIMATORS",
    "RiskReport", "bayes_classifier", "exact_risk", "excess_risk",
    "monte_carlo_risk", "estimation_error", "risk_report",
    "SweepConfig", "CellKey", "CellResult", "ReplicateRecord", "RateFit",
    "run_cell", "run_sweep", "fit_rate", "default_lambda_grid",
    "replicate_seed", "sweep_cells", "sweep_config_from_dict", "read_sweep_rows", "aggregate_points",
]
