"""Spline kernels, ANOVA term structure, and matrix assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hbspline.kernels as kernels
from hbspline import (
    AnovaSpec,
    dataset_from_unit_cube,
    default_spec,
    fit_fixed_lambda,
    gram_matrix,
    null_space_eval,
    rescale_term_weights,
)
from hbspline.errors import InvalidConfigError, InvalidInputError
from hbspline.kernels import _k1, _k2, _k4, chunk_rows
from hbspline.solver import gcv_select
from reference import design_matrices

unit_floats = st.floats(min_value=0.0, max_value=1.0)
EPS = np.finfo(np.float64).eps

# The scaled Bernoulli polynomials k1, k2 and k4 by level.
BERNOULLI = {1: _k1, 2: _k2, 4: _k4}


def _bernoulli(t):
    """k1, k2 and k4 of t as _k1, _k2 and _k4 form them, with every
    constant in the dtype of t: long-double points give a long-double
    reference, float64 points the float64 formulas bit for bit."""
    one = t.dtype.type(1)
    a = t - one / 2
    a2 = a * a
    return a, (a2 - one / 12) / 2, (a2 * a2 - a2 / 2 + one * 7 / 240) / 24


def _r1_cross(u, v):
    """Reference R1 on the product grid of two coordinate vectors: (len u, len v)."""
    return np.outer(_bernoulli(u)[1], _bernoulli(v)[1]) - _bernoulli(np.abs(u[:, None] - v))[2]


def _term_block(Xa, Xb, kind, ref):
    """Reference: one term's unscaled Gram block, straight from its formula."""
    if kind == "main":
        return _r1_cross(Xa[:, ref], Xb[:, ref])
    a, b = ref
    r1a = _r1_cross(Xa[:, a], Xb[:, a])
    r1b = _r1_cross(Xa[:, b], Xb[:, b])
    lina = np.outer(_bernoulli(Xa[:, a])[0], _bernoulli(Xb[:, a])[0])
    linb = np.outer(_bernoulli(Xa[:, b])[0], _bernoulli(Xb[:, b])[0])
    return r1a * r1b + r1a * linb + lina * r1b


def term_block_sum(Xa, Xb, spec):
    """Reference: the scale-weighted sum of every term's _term_block."""
    out = np.zeros((Xa.shape[0], Xb.shape[0]), dtype=Xa.dtype)
    for theta, (kind, ref) in zip(spec.term_scales, spec.terms()):
        out += Xa.dtype.type(theta) * _term_block(Xa, Xb, kind, ref)
    return out


def r1(s, t):
    """Cubic-spline kernel R1 between two coordinate vectors, (len s, len t)."""
    s, t = (np.reshape(np.asarray(v, dtype=np.float64), (-1, 1)) for v in (s, t))
    return gram_matrix(s, t, AnovaSpec(d=1, main_effects=(0,)))


class TestBernoulliK:
    def test_frozen_values(self):
        assert BERNOULLI[1](0.5) == 0.0
        assert abs(BERNOULLI[2](0.0) - 1.0 / 12.0) < 1e-15
        assert abs(BERNOULLI[4](0.0) - (-1.0 / 720.0)) < 1e-15

    def test_endpoint_symmetry(self):
        # All three polynomials are symmetric about t = 1/2.
        for level in (1, 2, 4):
            left = BERNOULLI[level](0.1)
            right = BERNOULLI[level](0.9)
            sign = -1.0 if level == 1 else 1.0
            assert abs(left - sign * right) < 1e-15

    def test_vectorized(self):
        t = np.linspace(0, 1, 11)
        assert np.allclose(BERNOULLI[1](t), t - 0.5)

    @given(unit_floats)
    def test_closed_forms(self, t):
        k1 = t - 0.5
        assert abs(BERNOULLI[2](t) - (k1**2 - 1 / 12) / 2) < 1e-15
        assert abs(BERNOULLI[4](t) - (k1**4 - k1**2 / 2 + 7 / 240) / 24) < 1e-15


class TestKernelMain:
    def test_frozen_origin_value(self):
        assert abs(r1(0.0, 0.0)[0, 0] - 1.0 / 120.0) < 1e-15

    def test_symmetry(self, rng):
        # 100 x 100 = 10,000 (s, t) pairs.
        s = rng.random(100)
        t = rng.random(100)
        assert np.array_equal(r1(s, t), r1(t, s).T)

    def test_gram_positive_semidefinite(self, rng):
        pts = rng.random(20)
        G = r1(pts, pts)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-10 * np.trace(G)


class TestAnovaSpec:
    def test_term_bookkeeping(self):
        spec = AnovaSpec(d=3, main_effects=(0, 1, 2), interactions=((0, 1), (1, 2)))
        assert spec.m == 4
        assert spec.n_terms == 5
        assert spec.terms() == [
            ("main", 0),
            ("main", 1),
            ("main", 2),
            ("inter", (0, 1)),
            ("inter", (1, 2)),
        ]
        assert spec.term_names() == ["x0", "x1", "x2", "x0:x1", "x1:x2"]
        assert spec.term_scales == (1.0,) * 5

    def test_default_spec_shapes(self):
        spec = default_spec(3)
        assert spec.main_effects == (0, 1, 2)
        assert spec.interactions == ((0, 1), (0, 2), (1, 2))
        assert default_spec(8).interactions == ()
        assert default_spec(1).interactions == ()

    def test_additive_model_null_space_dimension(self):
        assert default_spec(8).m == 9

    @pytest.mark.parametrize("d, pairs", [(1, 0), (2, 1), (7, 21), (8, 0)])
    def test_default_spec_adds_pairs_up_to_the_limit(self, d, pairs):
        spec = default_spec(d)
        assert spec.main_effects == tuple(range(d))
        assert len(spec.interactions) == pairs

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=2, main_effects=(0, 0)),
            dict(d=2, main_effects=(0, 2)),
            dict(d=2, main_effects=(0, 1), interactions=((1, 0),)),
            dict(d=3, main_effects=(0, 1), interactions=((0, 2),)),
            dict(d=2, main_effects=(0, 1), interactions=((0, 1), (0, 1))),
            dict(d=2, main_effects=(0, 1), term_scales=(1.0,)),
            dict(d=2, main_effects=(0, 1), term_scales=(1.0, -1.0)),
            dict(d=2, main_effects=(0.5,)),
            dict(d=2, main_effects=(0, 1), interactions=((0, 1.7),)),
            dict(d=2, main_effects=(0, 1.0)),
            dict(d=2, main_effects=("0",)),
            dict(d=2.5, main_effects=(0, 1)),
            dict(d=2, main_effects=()),
            # Booleans, strings and NaN are not spec entries or scales.
            dict(d=2, main_effects=(True, False)),
            dict(d=2, main_effects=(np.True_, 0)),
            dict(d=2, main_effects=(0, 1), interactions=((False, True),)),
            dict(d=True, main_effects=(0,)),
            dict(d=2, main_effects=("2",)),
            dict(d=2, main_effects=(float("nan"),)),
            dict(d=2, main_effects=(0, 1), term_scales=(1.0, float("nan"))),
            dict(d=2, main_effects=(0, 1), term_scales=(1.0, "2")),
            dict(d=2, main_effects=(0, 1), term_scales=(1.0, True)),
            dict(d=2, main_effects=(0, 1), term_scales=(1.0, np.inf)),
        ],
    )
    def test_rejects_inconsistent_specs(self, kwargs):
        with pytest.raises(InvalidConfigError):
            AnovaSpec(**kwargs)

    def test_numpy_integer_entries_are_plain_ints(self):
        spec = AnovaSpec(
            d=2, main_effects=np.arange(2), interactions=((np.int32(0), np.uint8(1)),)
        )
        assert spec == AnovaSpec(d=2, main_effects=(0, 1), interactions=((0, 1),))
        assert all(type(j) is int for j in spec.main_effects + spec.interactions[0])
        scaled = AnovaSpec(d=2, main_effects=(0, 1), term_scales=(np.float32(0.5), 2))
        assert scaled.term_scales == (0.5, 2.0)
        assert all(type(s) is float for s in scaled.term_scales)


class TestKernelTerm:
    @staticmethod
    def term(x, z, term, theta=1.0):
        """One term's kernel value between two points."""
        kind, ref = term
        return theta * _term_block(x[None, :], z[None, :], kind, ref)[0, 0]

    def test_single_main_reduces_to_r1(self):
        x = np.zeros(3)
        val = self.term(x, x, ("main", 0))
        assert abs(val - 1.0 / 120.0) < 1e-15

    def test_interaction_symmetries(self, rng):
        x = rng.random(4)
        z = rng.random(4)
        v_xz = self.term(x, z, ("inter", (1, 3)))
        v_zx = self.term(z, x, ("inter", (1, 3)))
        assert abs(v_xz - v_zx) < 1e-15
        # Swapping the pair members leaves the sum of products intact.
        spec_a = AnovaSpec(d=4, main_effects=(1, 3), interactions=((1, 3),))
        v_xz = gram_matrix(x[None, :], z[None, :], spec_a)[0, 0]
        v_zx = gram_matrix(z[None, :], x[None, :], spec_a)[0, 0]
        assert abs(v_xz - v_zx) < 1e-15

    def test_theta_scales_linearly(self, rng):
        x, z = rng.random(2), rng.random(2)
        base = self.term(x, z, ("main", 1))
        assert abs(self.term(x, z, ("main", 1), theta=2.5) - 2.5 * base) < 1e-15

    def test_full_kernel_gram_psd(self, rng):
        pts = rng.random((30, 2))
        spec = default_spec(2)
        G = gram_matrix(pts, pts, spec)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-10 * np.trace(G)

    def test_full_kernel_sums_terms(self, rng):
        x, z = rng.random(3), rng.random(3)
        spec = AnovaSpec(
            d=3,
            main_effects=(0, 1, 2),
            interactions=((0, 2),),
            term_scales=(1.0, 2.0, 3.0, 4.0),
        )
        total = sum(
            self.term(x, z, term, theta)
            for theta, term in zip(spec.term_scales, spec.terms())
        )
        assert abs(gram_matrix(x[None, :], z[None, :], spec)[0, 0] - total) < 1e-14


class TestNullSpaceEval:
    def test_center_point_hits_constant_only(self):
        spec = default_spec(3)
        row = null_space_eval(np.full(3, 0.5), spec)
        assert np.array_equal(row, [1.0, 0.0, 0.0, 0.0])

    def test_linear_scores_in_spec_order(self):
        spec = AnovaSpec(d=3, main_effects=(2, 0))
        row = null_space_eval(np.array([0.2, 0.5, 0.9]), spec)
        assert np.allclose(row, [1.0, 0.4, -0.3])

    def test_matrix_form(self, rng):
        spec = default_spec(2)
        X = rng.random((6, 2))
        S = null_space_eval(X, spec)
        assert S.shape == (6, 3)
        assert np.allclose(S[:, 0], 1.0)
        assert np.allclose(S[:, 1], X[:, 0] - 0.5)

    def test_rejects_wrong_width(self):
        with pytest.raises(InvalidInputError):
            null_space_eval(np.zeros(3), default_spec(2))


class TestRescaleTermWeights:
    def test_average_diagonal_becomes_one(self, banana_data):
        data = banana_data(n=300, seed=1)
        spec = default_spec(2)
        scaled = rescale_term_weights(spec, data.X)
        for theta, (kind, ref) in zip(scaled.term_scales, scaled.terms()):
            G = theta * _term_block(data.X, data.X, kind, ref)
            assert abs(np.trace(G) / data.n - 1.0) < 1e-12

    def test_idempotent_and_ignores_incoming_scales(self, uniform_data):
        data = uniform_data(n=100)
        spec = default_spec(2)
        once = rescale_term_weights(spec, data.X)
        twice = rescale_term_weights(once, data.X)
        assert once.term_scales == twice.term_scales
        inflated = AnovaSpec(
            d=2,
            main_effects=(0, 1),
            interactions=((0, 1),),
            term_scales=(10.0, 20.0, 30.0),
        )
        assert rescale_term_weights(inflated, data.X).term_scales == once.term_scales

    def test_uses_basis_points_when_given(self, rng):
        basis = rng.random((30, 2))
        spec = rescale_term_weights(default_spec(2), basis)
        for theta, (kind, ref) in zip(spec.term_scales, spec.terms()):
            G = theta * _term_block(basis, basis, kind, ref)
            assert abs(np.trace(G) / 30 - 1.0) < 1e-12

    def test_finite_positive_on_generated_data(self, uniform_data):
        data = uniform_data(n=60)
        spec = rescale_term_weights(default_spec(2), data.X[:30])
        assert all(np.isfinite(s) and s > 0 for s in spec.term_scales)

    def test_term_diagonals_are_bounded_below(self):
        # R1(x, x) = k2(x)^2 + 1/720, so no term's trace is zero: a main
        # term's diagonal is at least 1/720 and an interaction's 1/720^2,
        # at the ends, the middle and the zeros of k2 alike.
        root = 0.5 - np.sqrt(1.0 / 12.0)
        t = np.array([0.0, root, 0.5, 1.0 - root, 1.0, 0.3])
        X = np.column_stack([t, t[::-1]])
        assert np.all(kernels._term_diag(X, "main", 0) >= (1.0 - 1e-12) / 720.0)
        assert abs(kernels._term_diag(X, "main", 0)[1] - 1.0 / 720.0) < 1e-15
        assert np.all(kernels._term_diag(X, "inter", (0, 1)) >= (1.0 - 1e-12) / 720.0**2)

    def test_non_finite_basis_point_is_rejected_by_the_spec(self):
        basis = np.array([[0.2, 0.4], [np.nan, 0.5]])
        with pytest.raises(InvalidConfigError, match="term scales"):
            rescale_term_weights(default_spec(2), basis)


class TestAssembleMatrices:
    def _selection(self, data, idx):
        from hbspline import BasisSelection

        idx = np.asarray(idx, dtype=np.int64)
        return BasisSelection(
            indices=idx,
            bin_weight=np.full(idx.size, 1.0 / idx.size),
            nonempty_bins=idx.size,
        )

    def test_full_selection_gives_square_kernel_matrix(self, uniform_data):
        data = uniform_data(n=30)
        spec = default_spec(2)
        sel = self._selection(data, np.arange(30))
        B, Rss = design_matrices(data, sel, spec)
        S, Rstar = B[:, : spec.m], B[:, spec.m :]
        assert S.shape == (30, spec.m)
        assert Rstar.shape == (30, 30)
        assert np.array_equal(Rstar, Rss)
        assert np.allclose(Rss, Rss.T)

    def test_selected_rows_bitwise_consistent(self, uniform_data):
        data = uniform_data(n=50)
        spec = default_spec(2)
        idx = np.array([3, 11, 19, 26, 40, 44, 45, 46, 47, 48])
        sel = self._selection(data, idx)
        B, Rss = design_matrices(data, sel, spec)
        Rstar = B[:, spec.m :]
        assert np.array_equal(Rstar[idx], Rss)

    def test_assembled_matrices_finite_and_psd(self, uniform_data):
        data = uniform_data(n=50)
        spec = rescale_term_weights(default_spec(2), data.X)
        sel = self._selection(data, np.arange(0, 50, 5))
        B, Rss = design_matrices(data, sel, spec)
        S, Rstar = B[:, : spec.m], B[:, spec.m :]
        assert np.all(np.isfinite(S))
        assert np.all(np.isfinite(Rstar))
        eigs = np.linalg.eigvalsh(Rss)
        assert eigs.min() >= -1e-10 * np.trace(Rss)

    def test_rejects_out_of_range_selection(self, uniform_data):
        data = uniform_data(n=20)
        sel = self._selection(data, [0, 25])
        with pytest.raises(InvalidInputError):
            design_matrices(data, sel, default_spec(2))
        # The fit, which streams the design instead, checks the same way.
        with pytest.raises(InvalidInputError):
            gcv_select(data, sel, default_spec(2))


class TestNullSpaceExactness:
    def test_parametric_surface_fits_with_zero_residual(self, rng):
        # y lies in the unpenalized span, so any smoothing level must
        # reproduce it exactly with no kernel contribution.
        from hbspline import SelectionConfig, ubs_select

        X = rng.random((80, 2))
        y = 2.0 + 3.0 * (X[:, 0] - 0.5)
        data = dataset_from_unit_cube(X, y)
        sel = ubs_select(data, SelectionConfig(q=15, method="ubs", seed=3))
        spec = rescale_term_weights(default_spec(2), data.X[sel.indices])
        B, _ = design_matrices(data, sel, spec)
        S, Rstar = B[:, : spec.m], B[:, spec.m :]
        for lam in (1e-8, 1e-3, 10.0):
            model = fit_fixed_lambda(data, sel, spec, lam)
            alpha, beta = model.alpha, model.beta
            assert np.allclose(alpha, [2.0, 3.0, 0.0], atol=1e-8)
            assert np.max(np.abs(beta)) < 1e-8
            assert np.max(np.abs(y - S @ alpha - Rstar @ beta)) < 1e-8


def single_chunk(X, Z, spec):
    """The builder's output with every row in one chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_CHUNK_ENTRIES", 1 << 62)
        return gram_matrix(X, Z, spec)


def assert_builder(K, X, Z, spec):
    """K is bitwise the builder's own output row by row and in one chunk,
    and within 8 eps of max|reference| of the term-by-term sum."""
    n, h = X.shape[0], chunk_rows(Z.shape[0])
    rows = set(range(n)) if n <= 256 else set(range(0, n, 101))
    rows |= {r for lo in range(h, n, h) for r in (lo - 1, lo)} | {n - 1}
    for i in sorted(rows):
        assert np.array_equal(gram_matrix(X[i : i + 1], Z, spec)[0], K[i]), i
    assert np.array_equal(single_chunk(X, Z, spec), K)
    ref = term_block_sum(X, Z, spec)
    assert np.max(np.abs(K - ref)) <= 8 * EPS * np.max(np.abs(ref))


class TestGramMatrixBuilder:
    """The chunked builder against itself (bitwise) and the term sum (close)."""

    SPEC = AnovaSpec(
        d=3,
        main_effects=(0, 1, 2),
        interactions=((0, 1), (0, 2), (1, 2)),
        term_scales=(0.7, 1.3, 2.1, 0.4, 5.0, 1.9),
    )

    @pytest.mark.parametrize(
        "n, q",
        [
            (3 * chunk_rows(30) + 5, 30),  # not a multiple of the chunk height
            (chunk_rows(30) // 3, 30),  # smaller than one chunk
            (1, 1),
            (1, 25),
            (2 * chunk_rows(1) + 3, 1),
        ],
    )
    def test_matches_term_block_sum(self, rng, n, q):
        X, Z = rng.random((n, 3)), rng.random((q, 3))
        assert_builder(gram_matrix(X, Z, self.SPEC), X, Z, self.SPEC)

    @pytest.mark.parametrize(
        "n, q",
        [
            (3 * chunk_rows(30) + 5, 30),
            (chunk_rows(30) // 3, 30),
            (1, 25),
            (2 * chunk_rows(1) + 3, 1),
        ],
    )
    def test_matches_term_block_sum_in_design_view(self, rng, n, q):
        # The reused chunk buffers write through out= into a strided view,
        # which gets the floats of a fresh array.
        m = self.SPEC.m
        X, Z = rng.random((n, 3)), rng.random((q, 3))
        B = np.full((n, m + q), np.nan)
        gram_matrix(X, Z, self.SPEC, out=B[:, m:])
        assert np.array_equal(B[:, m:], gram_matrix(X, Z, self.SPEC))
        assert_builder(B[:, m:], X, Z, self.SPEC)

    def test_consecutive_calls_with_different_q(self, rng):
        # Each call sizes its own buffers: nothing of one call's chunks,
        # neither their height nor their width, leaks into the next.
        X = rng.random((2 * chunk_rows(7) + 3, 3))
        for q in (40, 7, 40, 1):
            Z = rng.random((q, 3))
            assert_builder(gram_matrix(X, Z, self.SPEC), X, Z, self.SPEC)

    @pytest.mark.parametrize(
        "spec",
        [
            AnovaSpec(d=3, main_effects=(0, 1, 2), term_scales=(0.5, 2.0, 3.0)),
            AnovaSpec(
                d=5,
                main_effects=(4, 1, 3),
                interactions=((1, 4),),
                term_scales=(1.5, 0.25, 4.0, 0.75),
            ),
        ],
        ids=["mains-only", "skips-dimensions"],
    )
    def test_partial_specs(self, rng, spec):
        X, Z = rng.random((2 * chunk_rows(40) + 9, spec.d)), rng.random((40, spec.d))
        assert_builder(gram_matrix(X, Z, spec), X, Z, spec)

    ADDITIVE = AnovaSpec(d=3, main_effects=(0, 1, 2), term_scales=(0.5, 2.0, 219.43))

    @pytest.mark.parametrize("additive", [False, True], ids=["full", "additive"])
    def test_factor_spans(self, rng, additive):
        # One call longer than the fit's and predict's row blocks (2048
        # and 2049 rows) builds its factor rows once, as those blocks do.
        spec = self.ADDITIVE if additive else self.SPEC
        X, Z = rng.random((2 * 2048 + 9, 3)), rng.random((30, 3))
        K = gram_matrix(X, Z, spec)
        assert_builder(K, X, Z, spec)
        assert np.array_equal(K, gram_matrix(Z, X, spec).T)

    def test_working_memory_of_a_predict_block(self, rng):
        # A predict block (2049 rows) at q = 200, d = 4: d + 2 chunk
        # buffers of chunk_rows(200) x 200 (0.73 MiB) and the factor rows
        # (0.5 MiB) beside out, which is 3.1 MiB; nothing n x q more.
        spec = default_spec(4)
        X, Z = rng.random((2049, 4)), rng.random((200, 4))
        out = np.empty((2049, 200))
        tracemalloc.start()
        try:
            gram_matrix(X, Z, spec, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_additive_spec_is_the_sum_of_its_mains(self, rng):
        # One main with scale 24 has M_a = 1, so its K is 24 R1_a itself;
        # the additive K is then sum_a 24 R1_a * fl(sqrt(theta_a / 24))^2,
        # accumulated in main-effect order, bit for bit.
        spec = self.ADDITIVE
        roots = [np.sqrt(theta / 24.0) for theta in spec.term_scales]
        assert any(float(r * r) != theta / 24.0 for r, theta in zip(roots, spec.term_scales))
        X, Z = rng.random((chunk_rows(30) + 5, 3)), rng.random((30, 3))
        expect = None
        for a, root in zip(spec.main_effects, roots):
            r24 = gram_matrix(X, Z, AnovaSpec(d=3, main_effects=(a,), term_scales=(24.0,)))
            term = r24 * float(root * root)
            expect = term if expect is None else expect + term
        assert np.array_equal(gram_matrix(X, Z, spec), expect)

    @pytest.mark.parametrize("rows, q", [(chunk_rows(200), 200), (chunk_rows(7), 7), (1, 7), (5, 1)])
    def test_additive_constant_is_the_one_column_product(self, rows, q):
        # A main effect with no partner fills M_a with fl(root)^2, root =
        # sqrt(theta_a / 24): bitwise the one-column product of its factor
        # columns that the builder would otherwise take.
        for theta in self.ADDITIVE.term_scales + (1e-3, 7.0):
            root = np.sqrt(theta / 24.0)
            out = np.empty((rows, q))
            kernels._gemm(np.full((rows, 1), root), np.full((q, 1), root), out)
            assert np.array_equal(out, np.full((rows, q), float(root * root)))

    def test_writes_into_column_view_of_design(self, rng):
        n, q, m = chunk_rows(20) + 11, 20, self.SPEC.m
        X, Z = rng.random((n, 3)), rng.random((q, 3))
        B = np.full((n, m + q), np.nan)
        out = gram_matrix(X, Z, self.SPEC, out=B[:, m:])
        assert not B[:, m:].flags.c_contiguous
        assert np.shares_memory(out, B)
        assert np.array_equal(B[:, m:], gram_matrix(X, Z, self.SPEC))
        assert_builder(B[:, m:], X, Z, self.SPEC)
        assert np.all(np.isnan(B[:, :m]))

    def test_rejects_misshapen_out(self, rng):
        X, Z = rng.random((10, 3)), rng.random((4, 3))
        with pytest.raises(InvalidInputError):
            gram_matrix(X, Z, self.SPEC, out=np.empty((10, 5)))

    @pytest.mark.parametrize("arg", ["Xa", "Xb"])
    @pytest.mark.parametrize("width", [2, 4])
    def test_rejects_wrong_width(self, rng, arg, width):
        # Narrower points used to fail with a raw IndexError; wider ones
        # were silently cut to their first d columns.
        pts = {"Xa": rng.random((10, 3)), "Xb": rng.random((4, 3))}
        pts[arg] = rng.random((len(pts[arg]), width))
        with pytest.raises(InvalidInputError, match=f"{arg} has {width} columns, expected 3"):
            gram_matrix(pts["Xa"], pts["Xb"], self.SPEC)

    @pytest.mark.parametrize("n, q", [(3 * chunk_rows(25) + 1, 25), (1, 25), (37, 1), (1, 1)])
    def test_bitwise_symmetric(self, rng, n, q):
        spec = default_spec(4)
        spec = AnovaSpec(
            d=4,
            main_effects=spec.main_effects,
            interactions=spec.interactions,
            term_scales=tuple(np.exp(rng.uniform(-3.0, 4.0, spec.n_terms))),
        )
        X, Z = rng.random((n, 4)), rng.random((q, 4))
        assert np.array_equal(gram_matrix(X, Z, spec), gram_matrix(Z, X, spec).T)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than float64"
)
@pytest.mark.parametrize("d", [1, 2, 4, 7])
def test_error_within_twice_the_term_by_term_sum(d):
    # Worst error over four draws of each float64 computation against a
    # long-double evaluation of the term-by-term formula, relative to
    # max|K|: the grouped builder may lose at most a factor 2.  The
    # worst over draws is the stable statistic; in a single draw the
    # term-by-term sum's maximum error is sometimes unusually small.
    rng = np.random.default_rng(d)
    built = summed = 0.0
    for _ in range(4):
        spec = default_spec(d)
        spec = AnovaSpec(
            d=d,
            main_effects=spec.main_effects,
            interactions=spec.interactions,
            term_scales=tuple(np.exp(rng.uniform(-3.0, 4.0, spec.n_terms))),
        )
        X, Z = rng.random((500, d)), rng.random((100, d))
        exact = term_block_sum(X.astype(np.longdouble), Z.astype(np.longdouble), spec)
        scale = np.max(np.abs(exact))
        built = max(built, np.max(np.abs(gram_matrix(X, Z, spec) - exact)) / scale)
        summed = max(summed, np.max(np.abs(term_block_sum(X, Z, spec) - exact)) / scale)
    assert built <= 2 * summed


class TestGramMatrixProperties:
    SPEC = TestGramMatrixBuilder.SPEC

    @settings(max_examples=30)
    @given(data=st.data(), n=st.integers(1, 300), q=st.integers(1, 200))
    def test_row_permutation(self, data, n, q):
        X = data.draw(arrays(np.float64, (n, 3), elements=unit_floats))
        Z = data.draw(arrays(np.float64, (q, 3), elements=unit_floats))
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
        assert np.array_equal(gram_matrix(X[perm], Z, self.SPEC), gram_matrix(X, Z, self.SPEC)[perm])

    @settings(max_examples=20)
    @given(k=st.integers(1, 3), q=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_chunk_invariance(self, k, q, seed):
        # One row past k full chunks: the last chunk holds a single row.
        n = k * chunk_rows(q) + 1
        rng = np.random.default_rng(seed)
        X, Z = rng.random((n, 3)), rng.random((q, 3))
        K = gram_matrix(X, Z, self.SPEC)
        assert np.array_equal(K, single_chunk(X, Z, self.SPEC))
        assert np.array_equal(K[-1:], gram_matrix(X[-1:], Z, self.SPEC))
