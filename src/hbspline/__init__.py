"""Smoothing-spline ANOVA regression at large n via basis selection.

Instead of one kernel function per observation, the fit uses q << n
basis points chosen by stratified sampling along a Hilbert
space-filling curve (with uniform, response-stratified, and
space-filling baselines), then solves the penalized least-squares
problem on that reduced basis with GCV-tuned smoothing.  Fitting costs
O(n q^2) instead of O(n^3).

The names below are imported from their modules on first use, so that
importing one module (such as the CLI for predict) does not load the
others and scipy with them.
"""

import importlib

_EXPORTS = {
    "errors": (
        "HbsplineError", "IngestionError", "InvalidConfigError",
        "InvalidInputError", "SingularSystemError",
    ),
    "hilbert": (
        "CurveOrder", "LocalityReport", "decode", "encode", "index_to_center",
        "locality_bound_check", "point_to_index",
    ),
    "selection": (
        "BasisSelection", "Dataset", "SelectionConfig", "abs_select",
        "apply_scaler", "condition5_diagnostic", "dataset_from_unit_cube",
        "hbs_select", "hilbert_bins", "sbs_select", "scale_to_unit_cube",
        "select", "selection_from_json", "selection_to_json", "ubs_select",
    ),
    "kernels": (
        "AnovaSpec", "default_spec", "gram_matrix", "null_space_eval",
        "rescale_term_weights",
    ),
    "solver": (
        "FittedModel", "LAMBDA_GRID", "fit_fixed_lambda", "gcv_select",
        "load_model", "mse", "predict", "predict_with_diagnostics", "save_model",
    ),
    "bench": (
        "ExperimentConfig", "ExperimentResult", "calibrate_noise",
        "eval_function", "gen_design", "run_experiment",
    ),
    "theory": (
        "EigenSurrogate", "ScalingReport", "reference_integral",
        "stratified_integral_estimate", "variance_scaling_study",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
