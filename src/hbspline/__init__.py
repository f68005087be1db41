"""Smoothing-spline ANOVA regression at large n via basis selection.

Instead of one kernel function per observation, the fit uses q << n
basis points chosen by stratified sampling along a Hilbert
space-filling curve (with uniform, response-stratified, and
space-filling baselines), then solves the penalized least-squares
problem on that reduced basis with GCV-tuned smoothing.  Fitting costs
O(n q^2) instead of O(n^3).

Modules import scipy, concurrent.futures and multiprocessing inside the
functions that use them, so importing the package does not load them.
"""

__version__ = "0.1.0"

from .errors import (
    HbsplineError, IngestionError, InvalidConfigError, InvalidInputError,
    SingularSystemError,
)
from .hilbert import (
    CurveOrder, LocalityReport, decode, encode, index_to_center,
    locality_bound_check, point_to_index,
)
from .selection import (
    BasisSelection, Dataset, SelectionConfig, abs_select, apply_scaler,
    condition5_diagnostic, dataset_from_unit_cube, hbs_select, hilbert_bins,
    sbs_select, scale_to_unit_cube, select, ubs_select,
)
from .kernels import (
    AnovaSpec, default_spec, gram_matrix, null_space_eval,
    rescale_term_weights,
)
from .solver import (
    LAMBDA_GRID, FittedModel, fit_fixed_lambda, gcv_select, load_model, mse,
    predict, predict_with_diagnostics, save_model,
)
from .bench import (
    ExperimentConfig, ExperimentResult, calibrate_noise, eval_function,
    gen_design, run_experiment,
)
from .theory import (
    EigenSurrogate, ScalingReport, reference_integral,
    stratified_integral_estimate, variance_scaling_study,
)

__all__ = [
    "HbsplineError", "IngestionError", "InvalidConfigError",
    "InvalidInputError", "SingularSystemError",
    "CurveOrder", "LocalityReport", "decode", "encode", "index_to_center",
    "locality_bound_check", "point_to_index",
    "BasisSelection", "Dataset", "SelectionConfig", "abs_select",
    "apply_scaler", "condition5_diagnostic", "dataset_from_unit_cube",
    "hbs_select", "hilbert_bins", "sbs_select", "scale_to_unit_cube",
    "select", "ubs_select",
    "AnovaSpec", "default_spec", "gram_matrix", "null_space_eval",
    "rescale_term_weights",
    "FittedModel", "LAMBDA_GRID", "fit_fixed_lambda", "gcv_select",
    "load_model", "mse", "predict", "predict_with_diagnostics", "save_model",
    "ExperimentConfig", "ExperimentResult", "calibrate_noise",
    "eval_function", "gen_design", "run_experiment",
    "EigenSurrogate", "ScalingReport", "reference_integral",
    "stratified_integral_estimate", "variance_scaling_study",
]
