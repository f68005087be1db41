"""One rule for every point array from outside (errors.as_points).

Each public function that takes points rejects the same bad inputs with
an InvalidInputError naming its argument: more than two axes, the wrong
number of columns, NaN or inf, a bool, string or ragged array, and, where
the kernel or curve lives on [0, 1]^d, a point outside the cube.
TestCounts also holds every count's range (errors.as_int) and every name
from a list (errors.as_choice) to one wording.
"""

import numpy as np
import pytest

from hbspline.bench import ExperimentConfig, eval_function, gen_design, run_experiment
from hbspline.errors import InvalidConfigError, InvalidInputError, as_int
from hbspline.hilbert import CurveOrder, point_to_index
from hbspline.kernels import AnovaSpec, default_spec, gram_matrix, null_space_eval
from hbspline.selection import (
    BasisSelection,
    SelectionConfig,
    apply_scaler,
    dataset_from_unit_cube,
    hbs_select,
    scale_to_unit_cube,
)
from hbspline.solver import fit_fixed_lambda, gcv_select, predict
from hbspline.theory import (EigenSurrogate, reference_integral, stratified_integral_estimate,
                             variance_scaling_study)

SPEC = default_spec(2)
BASIS = np.array([[0.2, 0.3], [0.6, 0.9]])
SCALER = np.array([[0.0, 0.0], [1.0, 1.0]])


@pytest.fixture(scope="module")
def model():
    gen = np.random.Generator(np.random.Philox(5))
    data = scale_to_unit_cube(gen.random((60, 2)), gen.standard_normal(60))
    sel = hbs_select(data, SelectionConfig(q=8, seed=1))
    return fit_fixed_lambda(data, sel, SPEC, 1e-3)


# (argument name, caller given the model, needs the unit cube, fixed width)
ROUTED = {
    "predict": ("Xnew", lambda m, X: predict(m, X), False, True),
    "apply_scaler": ("raw", lambda m, X: apply_scaler(X, SCALER), False, True),
    "null_space_eval": ("x", lambda m, X: null_space_eval(X, SPEC), True, True),
    "gram_matrix Xa": ("Xa", lambda m, X: gram_matrix(X, BASIS, SPEC), True, True),
    "gram_matrix Xb": ("Xb", lambda m, X: gram_matrix(BASIS, X, SPEC), True, True),
    "point_to_index": ("x", lambda m, X: point_to_index(X, CurveOrder(d=2, k=4)), True, True),
    "eval_function": ("x", lambda m, X: eval_function("f1", X), False, True),
    "EigenSurrogate": ("X", lambda m, X: EigenSurrogate((1, 0))(X), False, True),
    "scale_to_unit_cube": ("predictor", lambda m, X: scale_to_unit_cube(X, None), False, False),
    "dataset_from_unit_cube": ("predictor", lambda m, X: dataset_from_unit_cube(X), True, False),
}

# (input, message with {name} for the argument)
BAD = {
    "three axes": (np.full((4, 2, 1), 0.5), "{name} has 3 axes"),
    "nan": ([[0.5, 0.5], [0.5, np.nan]], "non-finite {name} at row 1, column 1"),
    "inf": ([[0.5, 0.5], [-np.inf, 0.5]], "non-finite {name} at row 1, column 0"),
    "bool": (np.ones((2, 2), dtype=bool), "{name} must hold integers or floats, not bool"),
    "string": (np.full((2, 2), "0.5"), "{name} must hold integers or floats, not <U3"),
    "object": ([[0.5, None]], "{name} must hold integers or floats, not object"),
    "ragged": ([[0.5, 0.5], [0.5]], "{name} must be a rectangular array, not ragged"),
}


@pytest.mark.parametrize("case", BAD)
@pytest.mark.parametrize("fn", ROUTED)
def test_bad_points_are_named(model, fn, case):
    name, call, _, _ = ROUTED[fn]
    X, message = BAD[case]
    with pytest.raises(InvalidInputError, match=message.format(name=name)):
        call(model, X)


@pytest.mark.parametrize("fn", [fn for fn in ROUTED if ROUTED[fn][3]])
def test_wrong_column_count_is_named(model, fn):
    name, call, _, _ = ROUTED[fn]
    with pytest.raises(InvalidInputError, match=f"{name} has 3 columns, expected 2"):
        call(model, np.full((4, 3), 0.5))


@pytest.mark.parametrize("fn", ROUTED)
def test_the_cube_is_checked_where_the_function_needs_it(model, fn):
    name, call, cube, _ = ROUTED[fn]
    X = np.array([[0.5, 0.5], [5.0, -3.0]])
    if cube:
        with pytest.raises(InvalidInputError, match=f"{name} at row 1, column 0 is 5.0, outside"):
            call(model, X)
    else:
        call(model, X)


@pytest.mark.parametrize("fn", [fn for fn in ROUTED if ROUTED[fn][3]])
def test_integers_read_as_floats(model, fn):
    _, call, _, _ = ROUTED[fn]
    ints, floats = np.array([[0, 1], [1, 1]]), np.array([[0.0, 1.0], [1.0, 1.0]])
    a, b = call(model, ints), call(model, floats)
    a, b = (a[0], b[0]) if isinstance(a, tuple) else (a, b)
    assert np.array_equal(a, b)


def test_a_vector_is_one_point(model):
    point = np.array([0.25, 0.75])
    assert null_space_eval(point, SPEC).shape == (SPEC.m,)
    assert np.array_equal(null_space_eval(point, SPEC), null_space_eval([point], SPEC)[0])
    order = CurveOrder(d=2, k=4)
    index = point_to_index(point, order)
    assert type(index) is int and index == point_to_index([point], order)[0]
    assert predict(model, point).shape == (1,)
    assert gram_matrix(point, BASIS, SPEC).shape == (1, 2)


def test_predict_on_no_rows_is_empty(model):
    assert predict(model, np.empty((0, 2))).shape == (0,)
    with pytest.raises(InvalidInputError, match="Xnew has 5 columns, expected 2"):
        predict(model, np.empty((0, 5)))


class TestFitInputs:
    def test_spec_width_must_match_the_data(self):
        gen = np.random.Generator(np.random.Philox(6))
        data = scale_to_unit_cube(gen.random((40, 2)), gen.standard_normal(40))
        sel = hbs_select(data, SelectionConfig(q=6, seed=2))
        with pytest.raises(InvalidInputError, match="spec has d=3, but the data has 2 columns"):
            gcv_select(data, sel, default_spec(3))

    def test_indices_follow_the_integer_rule(self):
        gen = np.random.Generator(np.random.Philox(7))
        data = scale_to_unit_cube(gen.random((40, 2)), gen.standard_normal(40))
        sel = hbs_select(data, SelectionConfig(q=6, seed=2))
        weights = sel.bin_weight.copy()
        fractional = BasisSelection(sel.indices + 0.5, weights, sel.nonempty_bins)
        bad = r"sel\.indices must hold integers, not \d+\.5 at row 0"
        with pytest.raises(InvalidInputError, match=bad):
            gcv_select(data, fractional, SPEC)
        integral = BasisSelection(sel.indices.astype(np.float64), weights, sel.nonempty_bins)
        a, b = gcv_select(data, sel, SPEC), gcv_select(data, integral, SPEC)
        assert a.lam == b.lam and np.array_equal(a.beta, b.beta)


class TestSelectionWeights:
    """stratified_integral_estimate reads sel.bin_weight as one column of
    points: one positive finite weight per index, a (q, 1) column the same
    as a (q,) vector, never broadcast against the q terms."""

    PAIR = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
    DATA = scale_to_unit_cube(np.random.Generator(np.random.Philox(11)).random((50, 2)), None)

    def estimate(self, indices, weights):
        return stratified_integral_estimate(
            self.DATA, BasisSelection(indices, weights, nonempty_bins=1), self.PAIR
        )

    # (weights for indices [0, 1], message)
    BAD = {
        "string": (["0.5", "0.5"], "sel.bin_weight must hold integers or floats, not <U3"),
        "bool": ([True, False], "sel.bin_weight must hold integers or floats, not bool"),
        "two columns": ([[0.25, 0.25], [0.25, 0.25]], "sel.bin_weight has 2 columns, expected 1"),
        "three axes": (np.full((2, 1, 1), 0.5), "sel.bin_weight has 3 axes"),
        "nan": ([0.5, np.nan], "non-finite sel.bin_weight at row 1, column 0"),
        "one for two": (0.5, "1 weights for 2 indices"),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_bad_weights_are_named(self, case):
        weights, message = self.BAD[case]
        with pytest.raises(InvalidInputError, match=message):
            self.estimate([0, 1], weights)

    # (indices, weights, the same selection as a vector of each)
    SAME = {
        "column": ([0, 1], [[0.5], [0.5]], ([0, 1], [0.5, 0.5])),
        "scalars": (3, 1.0, ([3], [1.0])),
    }

    @pytest.mark.parametrize("case", SAME)
    def test_a_column_or_scalar_reads_as_a_vector(self, case):
        indices, weights, vectors = self.SAME[case]
        assert self.estimate(indices, weights) == self.estimate(*vectors)


class TestCounts:
    PAIR = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))

    @pytest.mark.parametrize("log2_points", [10.5, -1, 0, True])
    def test_reference_integral_log2_points(self, log2_points):
        with pytest.raises(InvalidConfigError, match="log2_points"):
            reference_integral("d1", 2, self.PAIR, log2_points=log2_points)

    @pytest.mark.parametrize("d", [True, 2.0, "2"])
    def test_reference_integral_d(self, d):
        pair = (EigenSurrogate((1,)), EigenSurrogate((0,)))
        with pytest.raises(InvalidConfigError, match="d must be an integer"):
            reference_integral("d1", d, pair, log2_points=8)

    @pytest.mark.parametrize("jobs", [1.5, True, "2"])
    def test_run_experiment_jobs(self, jobs):
        cfg = ExperimentConfig("d1", "f1", n=50, q_grid=[5], replicates=2)
        with pytest.raises(InvalidConfigError, match="jobs must be an integer"):
            run_experiment(cfg, jobs=jobs)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CurveOrder(k=3, d=17), "d=17 must be in [1, 16]"),
            (lambda: CurveOrder(k=32, d=2), "k=32 must be in [1, 31]"),
            (lambda: CurveOrder(k=0, d=2), "k=0 must be in [1, 31]"),
            (lambda: AnovaSpec(d=2, main_effects=(0, 2)), "main effect=2 must be in [0, 1]"),
            (lambda: AnovaSpec(d=0, main_effects=(0,)), "spec d=0 must be >= 1"),
            (lambda: SelectionConfig(q=0), "q=0 must be >= 1"),
            (lambda: ExperimentConfig("d1", "f1", n=100, q_grid=[101]),
             "q=101 must be in [1, 100]"),
            (lambda: gen_design("d4", 5, 1, 0), "d=1 must be >= 2"),
            (lambda: gen_design("d1", -1, 2, 0), "n=-1 must be >= 0"),
            (lambda: EigenSurrogate((1, -1)), "multi-index entry=-1 must be >= 0"),
            (lambda: variance_scaling_study("d1", 1), "d=1 must be >= 2"),
            (lambda: variance_scaling_study("d1", 2, replicates=1), "replicates=1 must be >= 2"),
            (lambda: run_experiment(ExperimentConfig("d1", "f1", n=50, q_grid=[5]), jobs=0),
             "jobs=0 must be >= 1"),
            (lambda: as_int("m", 4, high=3), "m=4 must be <= 3"),
            (lambda: gen_design("d9", 5, 2, 0),
             "unknown distribution 'd9'; expected one of ('d1', 'd2', 'd3', 'd4')"),
            (lambda: eval_function("f9", [0.5, 0.5]),
             "unknown function 'f9'; expected one of ('f1', 'f2', 'f3', 'f4')"),
            (lambda: ExperimentConfig("d1", "f1", methods=["knn"]),
             "unknown method 'knn'; expected one of ('hbs', 'ubs', 'abs', 'sbs', 'full')"),
            (lambda: SelectionConfig(q=5, method="HBS"),
             "unknown method 'HBS'; expected one of ('hbs', 'ubs', 'abs', 'sbs')"),
        ],
    )
    def test_every_range_and_name_is_worded_one_way(self, call, message):
        with pytest.raises(InvalidConfigError) as info:
            call()
        assert str(info.value) == message
