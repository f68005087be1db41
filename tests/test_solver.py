"""Penalized least squares, GCV, prediction, and model persistence."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbspline import (
    BasisSelection,
    Dataset,
    LAMBDA_GRID,
    FittedModel,
    SelectionConfig,
    apply_scaler,
    dataset_from_unit_cube,
    default_spec,
    fit_fixed_lambda,
    gcv_select,
    gen_design,
    hbs_select,
    load_model,
    mse,
    predict,
    predict_with_diagnostics,
    rescale_term_weights,
    save_model,
    scale_to_unit_cube,
    ubs_select,
)
from hbspline.errors import (
    InvalidConfigError,
    InvalidInputError,
    SingularSystemError,
)
from hbspline.kernels import _ROW_ALIGN, chunk_rows, gram_matrix, null_space_eval
from hbspline.solver import (
    _BLOCK_ROWS,
    MODEL_FORMAT_VERSION,
    _condition_estimate,
    _GcvScan,
    _normal_equations,
    _whiten,
    cho_factor,
    cho_solve,
)
from reference import design_matrices, svd_fit


def smooth_surface(X):
    return np.sin(2 * np.pi * X[:, 0]) + (X[:, 1] - 0.3) ** 2


def make_problem(n=60, q=12, seed=0, noise=0.1):
    """Data, a ubs selection and the spec the fit scales on its basis points."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    X = gen.random((n, 2))
    y = smooth_surface(X) + noise * gen.standard_normal(n)
    data = dataset_from_unit_cube(X, y)
    sel = ubs_select(data, SelectionConfig(q=q, method="ubs", seed=seed))
    return data, sel, rescale_term_weights(default_spec(2), data.X[sel.indices])


def blocks(data, sel, spec):
    """S, R* and R** as views of the design that the fit solves on."""
    B, Rss = design_matrices(data, sel, spec)
    return B[:, : spec.m], B[:, spec.m :], Rss


def whole_design_system(B, Rss, y, m):
    """The scan of the penalized system formed from the whole design at once."""
    return _GcvScan(B.T @ B, B.T @ y, float(y @ y), Rss, B.shape[0], m)


def rescan(sys_, cls=_GcvScan):
    """A new scan of a system's G, b, y'y, R**, n and m, as the fit makes one."""
    return cls(sys_.G, sys_.b, sys_.yty, sys_.Rss, sys_.n, sys_.m)


def normal_matrix(sys_, lam):
    """G + n lam P."""
    M = sys_.G.copy()
    M[sys_.m :, sys_.m :] += (sys_.n * lam) * sys_.Rss
    return M


def cholesky_factor(sys_, lam):
    """(L^-1, M) for the normal matrix M at lambda; raises LinAlgError
    unless M is numerically positive definite."""
    M = normal_matrix(sys_, lam)
    return cho_factor(M), M


def cholesky_gcv(sys_, lam):
    """(V, trace A, theta, RSS) at lambda from one Cholesky factorization.

    The reference route: the normal matrix at lambda factored afresh,
    trace A = tr(M^-1 G) and the closed-form RSS y'y - 2 theta'b + theta'G theta.
    """
    c, _ = cholesky_factor(sys_, lam)
    theta = cho_solve(c, sys_.b)
    tr = float(np.trace(cho_solve(c, sys_.G)))
    rss = max(sys_.yty - 2.0 * float(theta @ sys_.b) + float(theta @ (sys_.G @ theta)), 0.0)
    denom = (1.0 - tr / sys_.n) ** 2
    if denom <= 0.0:
        return np.inf, tr, theta, rss
    return (rss / sys_.n) / denom, tr, theta, rss


def coefficients(data, sel, spec, lam):
    """(alpha, beta) of the fit at lam; spec holds the scales the fit sets."""
    model = fit_fixed_lambda(data, sel, spec, lam)
    assert model.spec == spec
    return model.alpha, model.beta


def smoother(data, sel, spec, lam):
    """trace(A) and the smoothed values A y at lam."""
    model = fit_fixed_lambda(data, sel, spec, lam)
    B, _ = design_matrices(data, sel, model.spec)
    return model.diagnostics["trace_A"], B @ np.concatenate([model.alpha, model.beta])


def penalized_objective(S, Rstar, Rstarstar, y, alpha, beta, lam):
    """Value of the fitting objective at given coefficients."""
    r = y - S @ alpha - Rstar @ beta
    return float(r @ r) / len(y) + lam * float(beta @ (Rstarstar @ beta))


class TestLambdaGrid:
    def test_default_grid(self):
        vals = LAMBDA_GRID
        assert vals.shape == (40,)
        assert np.isclose(vals[0], 1e-9) and np.isclose(vals[-1], 10.0)
        assert not vals.flags.writeable


class TestSolveCoefficients:
    def test_penalty_dominance_zeroes_kernel_part(self):
        data, sel, spec = make_problem(n=80, q=15, seed=1)
        S, Rstar, Rss = blocks(data, sel, spec)
        alpha, beta = coefficients(data, sel, spec, 1e12)
        alpha_ls = np.linalg.lstsq(S, data.y, rcond=None)[0]
        assert np.max(np.abs(Rstar @ beta)) < 1e-6
        assert np.allclose(alpha, alpha_ls, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_reference_at_full_basis(self, seed):
        # With every row selected, the estimator must agree with the
        # classical augmented solve (R + n*lam*I)c + S d = y, S'c = 0.
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        n = int(gen.integers(30, 61))
        X = gen.random((n, 2))
        y = smooth_surface(X) + 0.1 * gen.standard_normal(n)
        data = dataset_from_unit_cube(X, y)
        sel = ubs_select(data, SelectionConfig(q=n, method="ubs", seed=seed))
        spec = rescale_term_weights(default_spec(2), data.X[sel.indices])
        S, R, Rss = blocks(data, sel, spec)
        for lam in (1e-5, 1e-3, 1e-1, 1.0):
            alpha, beta = coefficients(data, sel, spec, lam)
            fitted = S @ alpha + R @ beta
            m = S.shape[1]
            aug = np.zeros((n + m, n + m))
            aug[:n, :n] = R + n * lam * np.eye(n)
            aug[:n, n:] = S
            aug[n:, :n] = S.T
            sol = np.linalg.solve(aug, np.concatenate([y, np.zeros(m)]))
            ref = S @ sol[n:] + R @ sol[:n]
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(fitted - ref)) / scale < 1e-6

    def test_objective_no_worse_than_benchmark_points(self):
        data, sel, spec = make_problem(seed=2)
        S, Rstar, Rss = blocks(data, sel, spec)
        lam = 1e-3
        alpha, beta = coefficients(data, sel, spec, lam)
        value = penalized_objective(S, Rstar, Rss, data.y, alpha, beta, lam)
        alpha_ls = np.linalg.lstsq(S, data.y, rcond=None)[0]
        at_null_ls = penalized_objective(
            S, Rstar, Rss, data.y, alpha_ls, np.zeros(sel.q), lam
        )
        at_zero = penalized_objective(
            S, Rstar, Rss, data.y, np.zeros(spec.m), np.zeros(sel.q), lam
        )
        assert value <= at_null_ls + 1e-12
        assert value <= at_zero + 1e-12

    def test_rejects_bad_lambda(self):
        data, sel, spec = make_problem(n=40, q=8, seed=3)
        with pytest.raises(InvalidConfigError):
            coefficients(data, sel, spec, 0.0)
        with pytest.raises(InvalidConfigError):
            coefficients(data, sel, spec, -1.0)
        for lam in ("1e-3", float("nan"), np.inf, True, np.True_, None):
            with pytest.raises(InvalidConfigError, match="lambda"):
                fit_fixed_lambda(data, sel, spec, lam)
        # numpy scalars are numbers: the same fit as the plain float.
        got = fit_fixed_lambda(data, sel, spec, np.float32(0.5))
        assert type(got.lam) is float and got.lam == 0.5

    def test_failed_eigendecomposition_raises_singular_system_error(self, monkeypatch):
        def always_fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        data, sel, spec = make_problem(n=40, q=8, seed=4)
        monkeypatch.setattr(np.linalg, "eigh", always_fail)
        with pytest.raises(SingularSystemError, match="GCV scan eigendecomposition failed") as excinfo:
            coefficients(data, sel, spec, 1e-3)
        assert excinfo.value.exit_code == 3


class TestSmootherDiag:
    def test_matches_explicit_hat_matrix(self):
        data, sel, spec = make_problem(n=60, q=12, seed=5)
        lam = 3e-4
        trace, yhat = smoother(data, sel, spec, lam)
        n = data.n
        A = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            A[:, i] = smoother(replace(data, y=e), sel, spec, lam)[1]
        assert abs(trace - np.trace(A)) < 1e-6
        assert np.max(np.abs(A @ data.y - yhat)) < 1e-6

    def test_heavy_smoothing_trace_approaches_null_dimension(self):
        data, sel, spec = make_problem(n=100, q=20, seed=6)
        trace, _ = smoother(data, sel, spec, 1e12)
        assert abs(trace - spec.m) < 1e-6

    def test_interpolation_trace_approaches_n(self):
        # With q = n and almost no penalty the smoother reproduces the
        # data, so its trace approaches the sample size.
        data, sel, spec = make_problem(n=30, q=30, seed=7, noise=0.0)
        trace, yhat = smoother(data, sel, spec, 1e-12)
        assert trace > 29.5
        assert np.max(np.abs(yhat - data.y)) < 1e-4

    def test_trace_within_bounds_across_lambdas(self):
        data, sel, spec = make_problem(n=80, q=10, seed=8)
        for lam in np.logspace(-8, 1, 8):
            trace, _ = smoother(data, sel, spec, lam)
            assert spec.m - 1e-8 <= trace <= spec.m + sel.q + 1e-8


class TestGcvSelect:
    def test_score_consistent_with_returned_model(self, banana_data):
        data = banana_data(n=400, seed=21, noise=0.1)
        sel = hbs_select(data, SelectionConfig(q=30, method="hbs", seed=2))
        model = gcv_select(data, sel, default_spec(2))
        S, Rstar, Rss = blocks(data, sel, model.spec)
        fitted = S @ model.alpha + Rstar @ model.beta
        rss = float(np.sum((data.y - fitted) ** 2))
        trace = model.diagnostics["trace_A"]
        n = data.n
        expected = (rss / n) / (1.0 - trace / n) ** 2
        assert abs(model.gcv_score - expected) <= 1e-10 * max(1.0, expected)

    def test_noise_pushes_lambda_up(self):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
        X = gen.random((200, 2))
        noise_only = dataset_from_unit_cube(X, gen.standard_normal(200))
        signal_only = dataset_from_unit_cube(X, smooth_surface(X))
        sel = ubs_select(noise_only, SelectionConfig(q=20, method="ubs", seed=1))
        lam_noise = gcv_select(noise_only, sel, default_spec(2)).lam
        lam_signal = gcv_select(signal_only, sel, default_spec(2)).lam
        assert lam_noise > lam_signal

    def test_diagnostics_populated(self, banana_data):
        data = banana_data(n=300, seed=22, noise=0.1)
        sel = hbs_select(data, SelectionConfig(q=25, method="hbs", seed=4))
        model = gcv_select(data, sel, default_spec(2))
        diag = model.diagnostics
        assert diag["n"] == 300 and diag["q"] == 25 and diag["m"] == 3
        assert diag["trace_A"] > 0
        assert diag["condition_estimate"] >= 1.0
        assert diag["grid_failures"] == 0
        assert np.isfinite(model.lam) and model.lam > 0

    def test_permutation_invariance(self):
        data, sel, spec = make_problem(n=120, q=15, seed=9)
        lam = 2e-4
        model = fit_fixed_lambda(data, sel, spec, lam)
        perm = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(10))
        ).permutation(120)
        inv = np.empty(120, dtype=np.int64)
        inv[perm] = np.arange(120)
        data_p = dataset_from_unit_cube(data.X[perm], data.y[perm])
        sel_p = ubs_select(data_p, SelectionConfig(q=15, method="ubs", seed=0))
        object.__setattr__(sel_p, "indices", np.sort(inv[sel.indices]))
        model_p = fit_fixed_lambda(data_p, sel_p, spec, lam)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        grid = gen.random((50, 2))
        assert np.max(np.abs(predict(model, grid) - predict(model_p, grid))) < 1e-10

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 200), q=st.integers(3, 20))
    def test_row_permutation_keeps_lambda_and_predictions(self, seed, n, q):
        # Permuting the rows, with the basis mapped to the same rows in the
        # same order, changes only the summation order of G, b and the term
        # scales.  In 200 random (seed, n, q) cases the worst relative
        # prediction error read 2.6e-10 at the fixed lambda and 7.7e-11
        # under GCV, and GCV's lambda was equal in all 200.
        gen = np.random.default_rng(seed)
        X = gen.random((n, 2))
        data = dataset_from_unit_cube(X, smooth_surface(X) + 0.3 * gen.standard_normal(n))
        sel = ubs_select(data, SelectionConfig(q=q, method="ubs", seed=seed))
        perm = gen.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        data_p = dataset_from_unit_cube(data.X[perm], data.y[perm])
        sel_p = BasisSelection(inv[sel.indices], sel.bin_weight.copy(), sel.nonempty_bins)
        assert np.array_equal(data_p.X[sel_p.indices], data.X[sel.indices])
        grid = gen.random((50, 2))
        spec = default_spec(2)
        for fit in (lambda d, s: fit_fixed_lambda(d, s, spec, 1e-4),
                    lambda d, s: gcv_select(d, s, spec)):
            model, model_p = fit(data, sel), fit(data_p, sel_p)
            assert model_p.lam == model.lam
            want = predict(model, grid)
            assert np.max(np.abs(predict(model_p, grid) - want)) <= 1e-8 * np.max(np.abs(want))

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(0.01, 100.0),
        negate=st.booleans(),
        b=st.floats(-100.0, 100.0),
    )
    def test_affine_response_keeps_lambda_and_maps_predictions(self, seed, a, negate, b):
        # For y' = a*y + b, GCV's score scales by a**2 and the constant term
        # absorbs b, so the same lambda wins and f' = a*f + b.  In 150
        # random (seed, a, b) cases of this setup the lambdas were equal
        # and the worst relative error was 3.1e-13.
        a = -a if negate else a
        gen = np.random.default_rng(seed)
        X = gen.random((150, 2))
        y = smooth_surface(X) + 0.3 * gen.standard_normal(150)
        data = dataset_from_unit_cube(X, y)
        sel = hbs_select(data, SelectionConfig(q=20, method="hbs", seed=seed))
        model = gcv_select(data, sel, default_spec(2))
        moved = gcv_select(dataset_from_unit_cube(X, a * y + b), sel, default_spec(2))
        assert moved.lam == model.lam
        grid = gen.random((50, 2))
        want = a * predict(model, grid) + b
        assert np.max(np.abs(predict(moved, grid) - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_raises(self, banana_data, bad):
        data = banana_data(n=100, seed=23)
        sel = hbs_select(data, SelectionConfig(q=10, method="hbs", seed=5))
        sys_ = _normal_equations(data, sel.indices, default_spec(2))
        sys_.G[1, 1] = bad
        with pytest.raises(SingularSystemError):
            rescan(sys_)

    def test_fixed_lambda_matches_requested_value(self, banana_data):
        data = banana_data(n=200, seed=24, noise=0.05)
        sel = hbs_select(data, SelectionConfig(q=15, method="hbs", seed=6))
        model = fit_fixed_lambda(data, sel, default_spec(2), 1e-3)
        assert model.lam == 1e-3


class TestPredict:
    def test_training_rows_reproduce_fitted_values(self, rng):
        raw = 3.0 + 4.0 * rng.random((150, 2))
        y = smooth_surface((raw - 3.0) / 4.0) + 0.05 * rng.standard_normal(150)
        from hbspline import scale_to_unit_cube

        data = scale_to_unit_cube(raw, y)
        sel = ubs_select(data, SelectionConfig(q=20, method="ubs", seed=7))
        lam = 1e-4
        model = fit_fixed_lambda(data, sel, default_spec(2), lam)
        _, yhat = smoother(data, sel, model.spec, lam)
        assert np.max(np.abs(predict(model, raw) - yhat)) < 1e-8

    def test_interpolates_noiseless_data_at_basis_points(self):
        data, sel, spec = make_problem(n=30, q=30, seed=12, noise=0.0)
        model = fit_fixed_lambda(data, sel, spec, 1e-10)
        pred = predict(model, data.X)
        assert np.max(np.abs(pred - data.y)) < 1e-4

    def test_zero_beta_is_pure_parametric_fit(self):
        spec = default_spec(2)
        model = FittedModel(
            spec=spec,
            basis_points=np.empty((0, 2)),
            alpha=np.array([1.0, 2.0, -3.0]),
            beta=np.empty(0),
            lam=1.0,
            gcv_score=0.0,
            scaler=np.array([[0.0, 0.0], [1.0, 1.0]]),
            diagnostics={},
        )
        X = np.array([[0.5, 0.5], [0.75, 0.25]])
        expect = 1.0 + 2.0 * (X[:, 0] - 0.5) - 3.0 * (X[:, 1] - 0.5)
        assert np.allclose(predict(model, X), expect)

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS + 2])
    def test_no_basis_points_predict_s_alpha(self, rng, n):
        # With q = 0 every kernel block is (rows, 0) and adds nothing.
        spec = default_spec(3)
        model = FittedModel(
            spec=spec,
            basis_points=np.empty((0, 3)),
            alpha=rng.standard_normal(spec.m),
            beta=np.empty(0),
            lam=1.0,
            gcv_score=0.0,
            scaler=np.array([[0.0] * 3, [1.0] * 3]),
            diagnostics={},
        )
        X = rng.random((n, 3))
        assert np.array_equal(predict(model, X), null_space_eval(X, spec) @ model.alpha)

    def test_empty_input_and_clamping(self, banana_data):
        data = banana_data(n=200, seed=25)
        sel = hbs_select(data, SelectionConfig(q=10, method="hbs", seed=8))
        model = fit_fixed_lambda(data, sel, default_spec(2), 1e-3)
        empty, clamped = predict_with_diagnostics(model, np.empty((0, 2)))
        assert empty.shape == (0,) and clamped == 0
        far = np.array([[1e6, -1e6]])
        _, clamped = predict_with_diagnostics(model, far)
        assert clamped == 2

    def test_rejects_bad_prediction_input(self, banana_data):
        data = banana_data(n=100, seed=26)
        sel = hbs_select(data, SelectionConfig(q=10, method="hbs", seed=9))
        model = fit_fixed_lambda(data, sel, default_spec(2), 1e-3)
        with pytest.raises(InvalidInputError):
            predict(model, np.zeros((3, 5)))
        with pytest.raises(InvalidInputError):
            predict(model, np.array([[np.nan, 0.5]]))
        with pytest.raises(InvalidInputError, match="Xnew has 3 columns, expected 2"):
            predict(model, np.array([0.1, 0.2, 0.3]))

    def test_one_dimensional_point_is_one_row(self, banana_data):
        data = banana_data(n=100, seed=27)
        sel = hbs_select(data, SelectionConfig(q=10, method="hbs", seed=10))
        model = fit_fixed_lambda(data, sel, default_spec(2), 1e-3)
        point = np.array([0.3, -0.2])
        got = predict(model, point)
        assert got.shape == (1,)
        assert np.array_equal(got, predict(model, point[None, :]))


def unchunked_prediction(model, X):
    """S(x) alpha + K(x, basis) beta from one whole kernel matrix."""
    scaled, _ = apply_scaler(X, model.scaler)
    return (
        null_space_eval(scaled, model.spec) @ model.alpha
        + gram_matrix(scaled, model.basis_points, model.spec) @ model.beta
    )


class TestChunkedPredict:
    @pytest.mark.parametrize("n_chunks", [2, 3])
    @pytest.mark.parametrize("tail", [0, 1, 5])
    def test_matches_unchunked_expansion(self, banana_data, rng, n_chunks, tail):
        data = banana_data(n=300, seed=30, noise=0.1)
        sel = hbs_select(data, SelectionConfig(q=30, method="hbs", seed=13))
        model = gcv_select(data, sel, default_spec(2))
        X = rng.random((n_chunks * chunk_rows(30) + tail, 2))
        assert np.array_equal(predict(model, X), unchunked_prediction(model, X))


class TestBlockedPredict:
    """predict streams _BLOCK_ROWS rows at a time through one kernel buffer."""

    def test_block_height_is_row_aligned(self):
        assert _BLOCK_ROWS % _ROW_ALIGN == 0

    @pytest.mark.parametrize(
        "n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    )
    def test_matches_unchunked_expansion(self, banana_data, rng, n):
        data = banana_data(n=300, seed=33, noise=0.1)
        sel = hbs_select(data, SelectionConfig(q=40, method="hbs", seed=15))
        model = gcv_select(data, sel, default_spec(2))
        X = rng.random((n, 2))
        assert np.array_equal(predict(model, X), unchunked_prediction(model, X))


def _random_system(seed, n, q, duplicates=0):
    """Kernel system on n uniform 2-d points; the basis repeats `duplicates` points."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    X = gen.random((n, 2))
    X[n - duplicates :] = X[:duplicates]
    y = smooth_surface(X) + 0.2 * gen.standard_normal(n)
    data = dataset_from_unit_cube(X, y)
    idx = np.sort(gen.choice(n - duplicates, q - duplicates, replace=False))
    idx = np.union1d(idx, np.concatenate([np.arange(duplicates), np.arange(n - duplicates, n)]))
    sel = BasisSelection(
        indices=idx.astype(np.int64),
        bin_weight=np.full(idx.size, 1.0 / idx.size),
        nonempty_bins=idx.size,
    )
    spec = rescale_term_weights(default_spec(2), data.X[sel.indices])
    return data, sel, spec


class TestGcvScan:
    """The one-decomposition scan against the per-lambda Cholesky reference."""

    @staticmethod
    def reference_scores(sys_, lams):
        return np.array([cholesky_gcv(sys_, lam)[0] for lam in lams])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", ["q<n", "q=n", "duplicates"])
    def test_matches_cholesky_reference(self, seed, shape):
        n = 40 + 7 * seed
        q, dup = {"q<n": (n // 3, 0), "q=n": (n, 0), "duplicates": (n // 3, 4)}[shape]
        data, sel, spec = _random_system(seed, n, q, dup)
        B, Rss = design_matrices(data, sel, spec)
        scan = whole_design_system(B, Rss, data.y, spec.m)
        if dup:
            # Repeated basis points leave the Cholesky reference singular;
            # one copy of each spans the same fits, so the same V(lambda).
            keep = np.unique(data.X[sel.indices], axis=0, return_index=True)[1]
            cols = np.concatenate([np.arange(spec.m), spec.m + keep])
            B, Rss = B[:, cols], Rss[np.ix_(keep, keep)]
        ref_sys = whole_design_system(B, Rss, data.y, spec.m)
        lams = LAMBDA_GRID
        # Check 5's reasoning: below lambda ~1e-5 no two solve routes agree.
        lams = lams[lams >= 1e-5]
        got, ref = scan.scores(lams), self.reference_scores(ref_sys, lams)
        assert np.max(np.abs(got - ref) / ref) <= 1e-6
        assert np.argmin(got) == np.argmin(ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_grid_argmin_below_basis_size(self, seed):
        data, sel, spec = _random_system(seed, 80, 20)
        B, Rss = design_matrices(data, sel, spec)
        sys_ = whole_design_system(B, Rss, data.y, spec.m)
        lams = LAMBDA_GRID
        got, ref = sys_.scores(lams), self.reference_scores(sys_, lams)
        assert np.argmin(got) == np.argmin(ref)
        assert np.max(np.abs(got - ref) / ref) <= 1e-4

    def test_fit_decomposes_once(self, monkeypatch, banana_data):
        # Two whitening eigh calls and one of the whitened penalty serve
        # every lambda, the chosen one included.
        calls = []
        real = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        data = banana_data(n=300, seed=32, noise=0.1)
        sel = hbs_select(data, SelectionConfig(q=25, method="hbs", seed=14))
        monkeypatch.setattr(np.linalg, "eigh", counting)
        gcv_select(data, sel, default_spec(2))
        assert len(calls) == 3


EPS = np.finfo(np.float64).eps


def _reference_system(kind):
    """A seeded penalized system of the given kind."""
    if kind == "well-conditioned":
        data, sel, spec = make_problem(n=300, q=8, seed=1)
        return _normal_equations(data, sel.indices, spec)
    if kind == "duplicated-basis":
        data, sel, spec = _random_system(3, 60, 20, duplicates=4)
        return _normal_equations(data, sel.indices, spec)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    if kind == "cond-1e13":
        raw = gen_design("d4", 2000, 2, gen)
        data = scale_to_unit_cube(raw, raw[:, 0] + np.sin(raw[:, 1]))
        sel = hbs_select(data, SelectionConfig(q=100, method="hbs", seed=2))
    else:  # "constant-column": a constant predictor makes M0 singular on the null space
        X = gen.random((200, 2))
        X[:, 1] = 0.5
        data = dataset_from_unit_cube(X, X[:, 0] ** 2 + 0.1 * gen.standard_normal(200))
        sel = ubs_select(data, SelectionConfig(q=20, method="ubs", seed=2))
    spec = rescale_term_weights(default_spec(2), data.X[sel.indices])
    return _normal_equations(data, sel.indices, spec)


def _merged(sys_):
    """The system on the first copy of each repeated basis point, without
    the unpenalized columns that are zero in G (a constant predictor's),
    and its columns in the full theta.  Its M0 is positive definite, so
    the Cholesky route solves it as it stands.
    """
    keep = _first_copies(sys_.Rss)[0]
    cols = np.concatenate([np.arange(sys_.m), sys_.m + keep])
    cols = cols[(cols >= sys_.m) | (np.diag(sys_.G)[cols] > 0.0)]
    m = int(np.count_nonzero(cols < sys_.m))
    merged = SimpleNamespace(
        G=sys_.G[np.ix_(cols, cols)], b=sys_.b[cols], yty=sys_.yty,
        Rss=sys_.Rss[np.ix_(keep, keep)], n=sys_.n, m=m,
    )
    return merged, cols


def _first_copies(Rss):
    """The first copy of each distinct basis point (ascending), and the
    position in that list of every basis point's first copy."""
    _, first, inverse = np.unique(Rss, axis=0, return_index=True, return_inverse=True)
    keep = np.sort(first)
    return keep, np.searchsorted(keep, first[inverse.ravel()])


def _fold(sys_, cols, theta):
    """A full theta on _merged's columns, each copy's coefficient added
    onto its first copy: the same fitted values."""
    keep, pos = _first_copies(sys_.Rss)
    folded = np.concatenate([theta[: sys_.m], np.zeros(keep.shape[0])])
    np.add.at(folded, sys_.m + pos, theta[sys_.m :])
    full = np.zeros(sys_.G.shape[0])
    full[np.concatenate([np.arange(sys_.m), sys_.m + keep])] = folded
    return full[cols]


def _kappa(sys_, lam):
    """Exact 1-norm condition number of the normal matrix at lambda."""
    c, M = cholesky_factor(sys_, lam)
    return _condition_estimate(M, c)


class ScipyGcvScan(_GcvScan):
    """_GcvScan with the whole C reduced by LAPACK's sygst and triangular
    solves on the _merged system, the reference; W is embedded in the
    full system's rows, with zeros on the columns _merged leaves out."""

    def _spectrum(self):
        import scipy.linalg

        ref, cols = _merged(self)
        M0 = ref.G.copy()
        M0[ref.m :, ref.m :] += self.s * ref.Rss
        L = scipy.linalg.cholesky(M0, lower=True)
        (sygst,) = scipy.linalg.get_lapack_funcs(("sygst",), (ref.G,))
        C, info = sygst(ref.G, L, itype=1, lower=1)
        assert info == 0
        gamma, U = np.linalg.eigh(C, UPLO="L")
        W = np.zeros((self.p, cols.shape[0]))
        W[cols] = scipy.linalg.solve_triangular(L, U, lower=True, trans="T")
        return gamma, W


REFERENCE_SYSTEMS = ["well-conditioned", "cond-1e13", "constant-column", "duplicated-basis"]


class TestNumpyLinalgAgainstScipy:
    """The numpy.linalg solver against scipy.linalg, within cond * eps."""

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_cho_solve_and_condition_number(self, kind):
        import scipy.linalg

        sys_, _ = _merged(_reference_system(kind))
        c, M = cholesky_factor(sys_, 1e-6)
        kappa = _condition_estimate(M, c)
        if kind == "cond-1e13":
            assert 1e12 <= kappa <= 1e14
        ref_c = scipy.linalg.cho_factor(M, lower=True)
        rhs = np.column_stack([sys_.b, sys_.G])
        got, ref = cho_solve(c, rhs), scipy.linalg.cho_solve(ref_c, rhs)
        assert np.max(np.abs(got - ref)) <= kappa * EPS * np.max(np.abs(ref))
        # pocon estimates ||M^-1||_1 from below; the exact value is at most a
        # small factor above it.
        (pocon,) = scipy.linalg.get_lapack_funcs(("pocon",), (M,))
        rcond, info = pocon(ref_c[0], np.linalg.norm(M, 1), uplo="L")
        assert info == 0
        assert 1.0 / rcond <= kappa * (1.0 + kappa * EPS) and kappa <= 10.0 / rcond

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_gcv_scan_matches_sygst_reduction(self, kind):
        sys_ = _reference_system(kind)
        got, ref = rescan(sys_), rescan(sys_, ScipyGcvScan)
        merged, _ = _merged(sys_)
        # The rank rule drops what the reference leaves out by hand, and
        # both class the same directions as null in G.
        assert got.rank == ref.rank
        assert got.free == ref.free
        # M0 = G + s P is the normal matrix at n lam = s.
        c0, M0 = cholesky_factor(merged, got.s / sys_.n)
        tol0 = _condition_estimate(M0, c0) * EPS
        assert np.max(np.abs(got.gamma - ref.gamma)) <= tol0
        # z is unique only up to rotations within a repeated gamma (the m
        # null-space directions share gamma = 1), so compare z^2 summed
        # over each cluster of equal gammas.
        starts = np.concatenate([[0], np.flatnonzero(np.diff(ref.gamma) > 1e-8) + 1])
        z2_got = np.add.reduceat(got.z2, starts)
        z2_ref = np.add.reduceat(ref.z2, starts)
        assert np.max(np.abs(z2_got - z2_ref)) <= tol0 * ref.z2.sum()
        V_got, V_ref = got.scores(LAMBDA_GRID), ref.scores(LAMBDA_GRID)
        tol = np.array([_kappa(merged, lam) for lam in LAMBDA_GRID]) * EPS
        assert np.all(np.abs(V_got - V_ref) <= tol * V_ref)

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_scan_keeps_the_generalized_eigenbasis(self, kind):
        # W' M0 W = I and W' G W = diag(gamma) over the kept directions.
        sys_ = _reference_system(kind)
        scan = rescan(sys_)
        W = scan.W
        tol = scan.condition_estimate * EPS
        M0 = normal_matrix(sys_, scan.s / sys_.n)
        assert np.linalg.norm(W.T @ M0 @ W - np.eye(W.shape[1]), 2) <= tol
        assert np.linalg.norm(W.T @ scan.G @ W - np.diag(scan.gamma), 2) <= tol
        # The scan reads the system's own arrays.
        for mine, theirs in ((scan.G, sys_.G), (scan.Rss, sys_.Rss), (scan.b, sys_.b)):
            assert mine is theirs
        dropped = {"constant-column": 1, "duplicated-basis": 4}.get(kind, 0)
        assert scan.rank == scan.p - dropped

    def test_rank_rule_drops_eigenvalues_at_the_tolerance(self):
        # 12 x 12 with largest eigenvalue 2: the tolerance is 12 eps 2,
        # about 5.3e-15.  Negative, zero and 1e-16 eigenvalues are null;
        # 1e-12 is kept.
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
        Q, _ = np.linalg.qr(gen.standard_normal((12, 12)))
        eig = np.concatenate([[-1e-10, 0.0, 1e-16, 1e-12], np.linspace(1.0, 2.0, 8)])
        M = (Q * eig) @ Q.T
        M = (M + M.T) / 2.0
        T = _whiten(M.copy())
        assert T.shape == (12, 9)
        # eigh's eps * 2 error, scaled by 1 / 1e-12 along the smallest kept direction
        assert np.allclose(T.T @ M @ T, np.eye(9), atol=1e-3)
        assert np.linalg.norm(T[:, 0]) > 1e5  # the 1e-12 direction
        negative = -(Q * np.linspace(1.0, 2.0, 12)) @ Q.T
        assert _whiten(negative).shape == (12, 0)


class TestScanStepsInPlace:
    """The scan's in-place steps give the floats of the plain expressions."""

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_condition_estimate_is_the_product_of_norms(self, kind):
        sys_ = _reference_system(kind)
        scan = sys_
        M0, Wt = normal_matrix(sys_, scan.s / sys_.n), scan.W.T
        before = (Wt.copy(), M0.copy())
        ref = float(np.linalg.norm(M0, 1)) * float(np.linalg.norm(Wt.T @ Wt, 1))
        assert _condition_estimate(M0, Wt) == ref
        assert np.array_equal(Wt, before[0]) and np.array_equal(M0, before[1])

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_whiten_ignores_column_scales(self, kind):
        # Scaling M's columns and rows by D, powers of two from 2^-20 to
        # 2^20 so that no rounding enters, scales T by D^-1 and keeps the
        # same directions: the rank rule sees M's shape, not its units.
        # A zero column has no scale to change, so D is 1 there.
        M = normal_matrix(_reference_system(kind), 1e-3)
        D = 2.0 ** np.random.default_rng(3).integers(-20, 21, M.shape[0])
        D[np.diag(M) == 0.0] = 1.0
        T = _whiten(M.copy())
        T_scaled = _whiten(M * D * D[:, None])
        assert T_scaled.shape == T.shape
        assert np.array_equal(T_scaled * D[:, None], T)

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_spectrum_writes_the_stacked_eigenbasis(self, kind):
        class Stacked(_GcvScan):
            def _spectrum(self):
                gamma, W = super()._spectrum()
                m, G, Rss = self.m, self.G, self.Rss
                Ta = _whiten(G[:m, :m].copy())
                K = Ta.T @ G[:m, m:]
                Te = _whiten(self.s * Rss + G[m:, m:] - K.T @ K)
                _, V = np.linalg.eigh(-self.s * (Te.T @ (Rss @ Te)), UPLO="L")
                U = Te @ V
                zero = np.zeros((U.shape[0], Ta.shape[1]))
                self.pair = (W.copy(), np.block([[Ta @ -(K @ U), Ta], [U, zero]]))
                return gamma, W

        W, ref = rescan(_reference_system(kind), Stacked).pair
        assert np.array_equal(W, ref)


class TestSingleSolveRoute:
    """The fit at lambda from the GCV scan's spectrum, against the Cholesky route."""

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_solve_matches_cholesky_route(self, kind):
        # The Cholesky route solves the _merged system; the scan's theta
        # splits a coefficient across copies of a basis point, so it is
        # folded onto the first copies before the two are compared.
        sys_ = scan = _reference_system(kind)
        ref, cols = _merged(sys_)
        for lam in np.append(LAMBDA_GRID, 1e12):
            _, tr, theta, rss = cholesky_gcv(ref, lam)
            c, M = cholesky_factor(ref, lam)
            # First-order perturbation bound: rounding relative to the normal matrix.
            bound = _condition_estimate(M, c) * EPS
            fit = scan.solve(lam)
            diff = _fold(sys_, cols, fit.theta) - theta
            # Fitted values B theta compared in the G-norm.
            assert np.sqrt(diff @ ref.G @ diff) <= bound * np.sqrt(theta @ ref.G @ theta)
            assert abs(fit.trace_A - tr) <= bound
            assert abs(fit.rss - rss) <= bound * rss

    @pytest.mark.parametrize("kind", REFERENCE_SYSTEMS)
    def test_solve_is_backward_stable(self, kind):
        # With its refinement step, theta solves the normal equations to a
        # normwise backward error below eps.
        sys_ = scan = _reference_system(kind)
        for lam in LAMBDA_GRID:
            theta = scan.solve(lam).theta
            N = normal_matrix(sys_, lam)
            resid = np.linalg.norm(scan.b - N @ theta)
            scale = np.linalg.norm(N, 2) * np.linalg.norm(theta) + np.linalg.norm(scan.b)
            assert resid <= EPS * scale

    def test_scan_memory_at_full_basis(self):
        # Beyond the system it is given, the scan holds at most about
        # 3 p^2 doubles at a time (p = m + q): T_E, V and W in _spectrum,
        # then W, M0 and W W' in the condition estimate.
        import tracemalloc

        data, sel, spec = random_problem(1500, 2, 1500, seed=5)
        sys_ = _normal_equations(data, sel.indices, spec)
        p = sys_.G.shape[0]
        tracemalloc.start()
        try:
            rescan(sys_)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * p * p * 8

    def test_gcv_score_is_the_scans_V_at_lambda_hat(self, banana_data):
        data = banana_data(n=500, seed=34, noise=0.1)
        sel = hbs_select(data, SelectionConfig(q=30, method="hbs", seed=16))
        model = gcv_select(data, sel, default_spec(2))
        scan = _normal_equations(data, sel.indices, model.spec)
        assert model.gcv_score == scan.score(model.lam)
        assert model.gcv_score <= scan.scores(LAMBDA_GRID).min()


def assert_matches_svd_fit(data, sel, model):
    """The fit's GCV curve, its grid argmin and its fitted values at lambda
    against the SVD reference, each within the reference normal matrix's
    condition number times eps (a first-order perturbation bound)."""
    B, Rss = design_matrices(data, sel, model.spec)
    m = model.spec.m
    scan = _normal_equations(data, sel.indices, model.spec)
    refs = [svd_fit(B, Rss, data.y, m, lam) for lam in LAMBDA_GRID]
    V, V_ref = scan.scores(LAMBDA_GRID), np.array([r.V for r in refs])
    cond = np.array([r.cond for r in refs])
    assert np.all(np.abs(V - V_ref) <= cond * EPS * V_ref)
    assert np.argmin(V) == np.argmin(V_ref)
    ref = svd_fit(B, Rss, data.y, m, model.lam)
    fitted = B @ np.concatenate([model.alpha, model.beta])
    want = B @ ref.theta
    assert np.linalg.norm(fitted - want) <= ref.cond * EPS * np.linalg.norm(want)


def tied_data():
    """3,000 rows on 5 levels per predictor."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(43)))
    X = gen.integers(0, 5, (3000, 2)) / 4.0
    truth = np.sin(3.0 * X[:, 0]) + X[:, 1]
    return dataset_from_unit_cube(X, truth + 0.1 * gen.standard_normal(3000)), truth


class TestRankRule:
    """Degenerate designs, each handled by the rank rule and reported by
    the rank and dropped_directions diagnostics, against the SVD reference."""

    @pytest.mark.parametrize("method", ["hbs", "ubs"])
    def test_constant_predictor_in_a_library_fit(self, method):
        # scale_to_unit_cube maps the constant column to 0.5: its linear
        # term in S is 0, the one direction the rule drops.
        gen = np.random.default_rng(5)
        raw = gen.random((500, 2))
        raw[:, 1] = 3.5
        y = np.sin(2 * np.pi * raw[:, 0]) + 0.1 * gen.standard_normal(500)
        data = scale_to_unit_cube(raw, y)
        select = {"hbs": hbs_select, "ubs": ubs_select}[method]
        sel = select(data, SelectionConfig(q=30, method=method, seed=3))
        model = gcv_select(data, sel, default_spec(2))
        assert model.diagnostics["rank"] == 3 + 30 - 1
        assert model.diagnostics["dropped_directions"] == 1
        assert_matches_svd_fit(data, sel, model)

    @pytest.mark.parametrize("lam", [1e-6, 1e-3])
    def test_duplicated_basis_points_share_their_coefficient(self, lam):
        data, sel, spec = _random_system(3, 60, 20, duplicates=4)
        later = sel.indices >= 56  # copies of rows 0-3, also in the basis
        copied = np.isin(sel.indices, np.arange(4))
        once = BasisSelection(
            indices=sel.indices[~later],
            bin_weight=sel.bin_weight[~later],
            nonempty_bins=int(np.count_nonzero(~later)),
        )
        model = fit_fixed_lambda(data, sel, spec, lam)
        # The reference is the fit on one copy of each point at the same
        # term scales; a library fit on that basis would set its own.
        scan = _normal_equations(data, once.indices, model.spec)
        theta = scan.solve(lam).theta
        ref = replace(model, basis_points=data.X[once.indices],
                      alpha=theta[: spec.m].copy(), beta=theta[spec.m :].copy())
        assert model.diagnostics["dropped_directions"] == 4
        assert model.diagnostics["rank"] == scan.rank == spec.m + sel.q - 4
        # Copies have equal scales in _whiten, so the fit splits each
        # coefficient evenly over them.
        scale = np.max(np.abs(ref.beta))
        assert np.max(np.abs(model.beta[later] - model.beta[copied])) <= 1e-9 * scale
        summed = model.beta[~later].copy()
        summed[copied[~later]] += model.beta[later]
        assert np.max(np.abs(summed - ref.beta)) <= 1e-9 * scale
        grid = np.random.Generator(np.random.Philox(np.random.SeedSequence(17))).random((200, 2))
        pred, pred_ref = predict(model, grid), predict(ref, grid)
        assert np.max(np.abs(pred - pred_ref)) <= 1e-10 * np.max(np.abs(pred_ref))
        assert_matches_svd_fit(data, sel, model)

    @pytest.mark.parametrize("method", ["hbs", "ubs"])
    def test_tied_predictors_with_the_four_corners_in_the_basis(self, method):
        # q = 100 draws at most 25 distinct points.  With the four corners
        # of the data's bounding square in the basis, R* and R** are also
        # exactly singular along e00 - e10 - e01 + e11 (R1(0, .) = R1(1, .),
        # and the kernel has no linear x linear term): the rule drops every
        # extra copy and that one direction.
        data, truth = tied_data()
        select = {"hbs": hbs_select, "ubs": ubs_select}[method]
        sel = select(data, SelectionConfig(q=100, method=method, seed=1))
        basis = data.X[sel.indices]
        for corner in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert np.any(np.all(basis == corner, axis=1))
        distinct = np.unique(basis, axis=0).shape[0]
        assert distinct <= 25
        model = gcv_select(data, sel, default_spec(2))
        assert model.diagnostics["dropped_directions"] == 100 - distinct + 1
        assert model.diagnostics["rank"] == 3 + distinct - 1
        assert np.isfinite(model.gcv_score) and model.lam > 0.0
        assert mse(predict(model, data.X), truth) < 0.1**2
        assert_matches_svd_fit(data, sel, model)

    def test_one_dimension_at_full_basis(self):
        # At d = 1 with q = n, n = 150, M0 has 1-norm condition about
        # 3.5e13 and one direction below the rank tolerance.
        gen = np.random.default_rng(150)
        X = gen.random((150, 1))
        data = dataset_from_unit_cube(X, np.sin(2 * np.pi * X[:, 0]) + 0.2 * gen.standard_normal(150))
        sel = ubs_select(data, SelectionConfig(q=150, method="ubs", seed=1))
        model = gcv_select(data, sel, default_spec(1))
        assert model.diagnostics["dropped_directions"] == 1
        assert model.diagnostics["rank"] == 2 + 150 - 1
        B, Rss = design_matrices(data, sel, model.spec)
        scan = _normal_equations(data, sel.indices, model.spec)
        V_ref = [svd_fit(B, Rss, data.y, model.spec.m, lam).V for lam in LAMBDA_GRID]
        assert np.argmin(scan.scores(LAMBDA_GRID)) == np.argmin(V_ref)


def random_problem(n, d, q, seed):
    """n uniform rows in d dimensions, q ubs basis points, rescaled default spec."""
    gen = np.random.default_rng(seed)
    data = dataset_from_unit_cube(gen.random((n, d)), gen.standard_normal(n))
    sel = ubs_select(data, SelectionConfig(q=q, method="ubs", seed=seed))
    return data, sel, rescale_term_weights(default_spec(d), data.X[sel.indices])


class TestStreamedNormalEquations:
    """The fit's block-by-block G, b and R** against the whole design."""

    @settings(max_examples=15)
    @given(
        n=st.integers(6, _BLOCK_ROWS),
        d=st.integers(1, 4),
        q=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_block_is_bitwise_the_whole_design(self, n, d, q, seed):
        data, sel, spec = random_problem(n, d, min(q, n), seed)
        B, _ = design_matrices(data, sel, spec)
        sys_ = _normal_equations(data, sel.indices, spec)
        assert np.array_equal(sys_.G, B.T @ B)
        assert np.array_equal(sys_.b, B.T @ data.y)

    @settings(max_examples=10)
    @given(
        n=st.integers(_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS),
        d=st.integers(1, 4),
        q=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_sum_to_the_whole_design(self, n, d, q, seed):
        # Blocks group the n products of each entry differently from one
        # whole product; both stay within a few eps of |B|'|B| (measured
        # worst: 3.3 eps for G, 0.5 eps for b), so allow 16 eps.
        data, sel, spec = random_problem(n, d, q, seed)
        B, _ = design_matrices(data, sel, spec)
        sys_ = _normal_equations(data, sel.indices, spec)
        tol = 16 * np.finfo(np.float64).eps
        assert np.all(np.abs(sys_.G - B.T @ B) <= tol * (np.abs(B).T @ np.abs(B)))
        assert np.all(np.abs(sys_.b - B.T @ data.y) <= tol * (np.abs(B).T @ np.abs(data.y)))

    @pytest.mark.parametrize("n", [300, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1])
    def test_matches_whole_design(self, n):
        data, sel, spec = make_problem(n=n, q=15, seed=n)
        B, Rss = design_matrices(data, sel, spec)
        sys_ = _normal_equations(data, sel.indices, spec)
        G, b = B.T @ B, B.T @ data.y
        assert np.max(np.abs(sys_.G - G)) <= 1e-12 * np.max(np.abs(G))
        assert np.max(np.abs(sys_.b - b)) <= 1e-12 * np.max(np.abs(b))
        assert sys_.yty == float(data.y @ data.y)
        assert (sys_.n, sys_.m, sys_.p) == (n, spec.m, spec.m + 15)
        # R** is copied out of the streamed R* rows, bit for bit.
        assert sys_.Rss.tobytes() == np.ascontiguousarray(Rss).tobytes()

    def test_copied_rstarstar_is_the_basis_gram(self):
        # Basis rows in every block and on both sides of each block edge,
        # in no particular order.
        n = 2 * _BLOCK_ROWS + 1
        data, _, spec = random_problem(n, 3, 10, seed=12)
        edges = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS]
        indices = np.array(edges + [7, _BLOCK_ROWS + 311, 1500, 3001])
        np.random.default_rng(12).shuffle(indices)
        sys_ = _normal_equations(data, indices, spec)
        basis = data.X[indices]
        assert sys_.Rss.tobytes() == gram_matrix(basis, basis, spec).tobytes()

    @pytest.mark.parametrize("n", [400, 2 * _BLOCK_ROWS + 1])
    def test_closed_form_rss_matches_residuals(self, n, monkeypatch):
        import hbspline.solver as solver

        calls = []
        monkeypatch.setattr(solver, "_explicit_rss", lambda *a: calls.append(1))
        data, sel, spec = make_problem(n=n, q=20, seed=3, noise=0.3)
        fit = _normal_equations(data, sel.indices, spec).solve(1e-4)
        model = fit_fixed_lambda(data, sel, spec, 1e-4)
        theta = np.concatenate([model.alpha, model.beta])
        assert np.array_equal(fit.theta, theta)
        B, _ = design_matrices(data, sel, spec)
        resid = data.y - B @ theta
        rss = float(resid @ resid)
        assert abs(fit.rss - rss) <= 1e-10 * rss
        assert calls == []  # a noisy fit keeps the scan's RSS
        assert model.gcv_score == fit.V

    def test_near_interpolation_takes_explicit_residuals(self, monkeypatch):
        import hbspline.solver as solver

        # q = n without noise: the fit all but interpolates, and the
        # closed form y'y - 2 theta'b + theta'G theta is cancellation noise.
        data, sel, spec = make_problem(n=50, q=50, seed=4, noise=0.0)
        calls = []
        real = solver._explicit_rss

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "_explicit_rss", counting)
        model = fit_fixed_lambda(data, sel, spec, 1e-9)
        assert calls == [1]
        B, _ = design_matrices(data, sel, spec)
        resid = data.y - B @ np.concatenate([model.alpha, model.beta])
        rss = float(resid @ resid)
        n, tr = data.n, model.diagnostics["trace_A"]
        assert model.gcv_score == pytest.approx((rss / n) / (1.0 - tr / n) ** 2, rel=1e-10)

    def test_fit_memory_is_not_a_multiple_of_n_q(self):
        import tracemalloc

        n, d, q = 50_000, 2, 100
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
        X = gen.random((n, d))
        data = dataset_from_unit_cube(X, smooth_surface(X) + 0.1 * gen.standard_normal(n))
        sel = ubs_select(data, SelectionConfig(q=q, method="ubs", seed=8))
        spec = default_spec(d)
        design_bytes = n * (spec.m + q) * 8  # the n x (m+q) float64 design
        tracemalloc.start()
        try:
            gcv_select(data, sel, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < design_bytes / 4


class TestMse:
    def test_examples(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([2.0, 3.0], [1.0, 2.0]) == 1.0
        assert mse([0.0, 2.0], [1.0, 0.0]) == 2.5

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(InvalidInputError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            mse([], [])


class TestPersistence:
    def test_roundtrip_is_exact(self, tmp_path, banana_data):
        data = banana_data(n=300, seed=27, noise=0.1)
        sel = hbs_select(data, SelectionConfig(q=25, method="hbs", seed=10))
        model = gcv_select(data, sel, default_spec(2))
        path = tmp_path / "model.json"
        save_model(model, path, predictors=["a", "b"])
        back = load_model(path)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
        grid = gen.random((100, 2)) * 6 - 3
        assert np.array_equal(predict(back, grid), predict(model, grid))
        assert back.lam == model.lam
        assert back.gcv_score == model.gcv_score
        assert back.spec.term_scales == model.spec.term_scales

    def test_infinite_gcv_score_and_constant_scaler_column_load(self, tmp_path, banana_data):
        # V is inf where trace(A) reaches n, and a constant training column
        # has min == max; neither makes a model file invalid.
        data = banana_data(n=100, seed=30)
        sel = hbs_select(data, SelectionConfig(q=10, method="hbs", seed=13))
        model = fit_fixed_lambda(data, sel, default_spec(2), 1e-3)
        scaler = model.scaler.copy()
        scaler[1, 0] = scaler[0, 0]
        edited = replace(model, gcv_score=float("inf"), scaler=scaler)
        path = tmp_path / "model.json"
        save_model(edited, path)
        back = load_model(path)
        assert back.gcv_score == float("inf")
        assert np.array_equal(back.scaler, scaler)
        grid = np.array([[0.0, 0.5], [2.0, -1.0]])
        assert np.array_equal(predict(back, grid), predict(edited, grid))

    def test_predictor_names_stored(self, tmp_path, banana_data):
        from hbspline.solver import model_predictor_names

        data = banana_data(n=100, seed=28)
        sel = hbs_select(data, SelectionConfig(q=10, method="hbs", seed=11))
        model = fit_fixed_lambda(data, sel, default_spec(2), 1e-3)
        path = tmp_path / "model.json"
        save_model(model, path, predictors=["u", "v"])
        assert model_predictor_names(path) == ["u", "v"]
        save_model(model, path)
        assert model_predictor_names(path) is None

    def test_unknown_version_rejected(self, tmp_path, banana_data):
        import json

        data = banana_data(n=100, seed=29)
        sel = hbs_select(data, SelectionConfig(q=10, method="hbs", seed=12))
        model = fit_fixed_lambda(data, sel, default_spec(2), 1e-3)
        path = tmp_path / "model.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = MODEL_FORMAT_VERSION + 1
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidInputError, match="format_version"):
            load_model(path)
