"""Stratified integral estimator and its variance-decay study."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import stdtr

from hbspline import (
    SelectionConfig,
    dataset_from_unit_cube,
    hbs_select,
    ubs_select,
)
from hbspline import theory
from hbspline.bench import DISTRIBUTIONS
from hbspline.errors import InvalidConfigError, InvalidInputError
from hbspline.selection import BasisSelection
from hbspline.theory import (
    DEFAULT_Q_LIST,
    RAND_SLOPE_WINDOW,
    STRAT_SLOPE_WINDOW,
    EigenSurrogate,
    ScalingReport,
    _t10_mixture_quantiles,
    reference_integral,
    stratified_integral_estimate,
    variance_scaling_study,
)


# Not two EigenSurrogates of width 2: too few, too many, plain tuples, a
# bare surrogate, and one of the wrong width.
BAD_PAIRS = [
    (EigenSurrogate((1, 0)),),
    (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)), EigenSurrogate((1, 1))),
    ((1, 0), (0, 1)),
    EigenSurrogate((1, 0)),
    (EigenSurrogate((1, 0)), EigenSurrogate((0, 1, 0))),
]


class TestEigenSurrogate:
    def test_constant_index_is_one(self):
        phi = EigenSurrogate((0, 0))
        X = np.random.Generator(np.random.Philox(1)).random((20, 2))
        assert np.array_equal(phi(X), np.ones(20))

    def test_closed_form(self):
        phi = EigenSurrogate((2, 0, 1))
        x = np.array([[0.3, 0.9, 0.7]])
        expect = (
            math.sqrt(2.0) * math.cos(2 * math.pi * 0.3)
            * math.sqrt(2.0) * math.cos(math.pi * 0.7)
        )
        assert phi(x)[0] == pytest.approx(expect, rel=1e-14)

    def test_orthonormal_under_uniform(self):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        X = gen.random((200_000, 2))
        p1 = EigenSurrogate((1, 0))
        p2 = EigenSurrogate((0, 1))
        se = 1.0 / math.sqrt(X.shape[0])
        assert abs(np.mean(p1(X) * p2(X))) < 3 * se
        assert abs(np.mean(p1(X) * p1(X)) - 1.0) < 3 * math.sqrt(1.5) * se

    @pytest.mark.parametrize("nu", [(0, 0), (0, 3), (1, 0), (2, 5), (0, 1, 0, 4)])
    def test_bitwise_equal_to_ones_product(self, nu):
        X = np.random.Generator(np.random.Philox(2)).random((1000, len(nu)))
        ref = np.ones(X.shape[0])
        for j, nj in enumerate(nu):
            if nj:
                ref = ref * (np.sqrt(2.0) * np.cos(np.pi * nj * X[:, j]))
        got = EigenSurrogate(nu)(X)
        assert np.array_equal(got, ref)
        assert not np.shares_memory(got, X)

    def test_rejects_bad_index_and_width(self):
        with pytest.raises(InvalidConfigError):
            EigenSurrogate((1, -1))
        for entry in (1.5, "2", True, float("nan")):
            with pytest.raises(InvalidConfigError, match="multi-index entry"):
                EigenSurrogate((entry, 0))
        with pytest.raises(InvalidInputError):
            EigenSurrogate((1, 0))(np.zeros((3, 3)))


class TestMixtureQuantiles:
    def test_median_is_zero(self):
        assert abs(_t10_mixture_quantiles(np.array([0.5]))[0]) < 2e-3

    def test_cdf_roundtrip(self):
        u = np.linspace(0.01, 0.99, 197)
        x = _t10_mixture_quantiles(u)
        back = 0.5 * stdtr(10.0, x + 5.0) + 0.5 * stdtr(10.0, x - 5.0)
        assert np.max(np.abs(back - u)) < 1e-3
        assert np.all(np.diff(x) >= 0)

    def test_modes_sit_near_shifts(self):
        assert _t10_mixture_quantiles(np.array([0.25]))[0] == pytest.approx(
            -5.0, abs=0.1
        )
        assert _t10_mixture_quantiles(np.array([0.75]))[0] == pytest.approx(
            5.0, abs=0.1
        )


class TestReferenceIntegral:
    def test_uniform_orthogonality(self):
        pair = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
        value, scaler = reference_integral("d1", 2, pair, seed=0, log2_points=15)
        assert abs(value) < 1e-3
        assert scaler.shape == (2, 2)
        same = (EigenSurrogate((1, 0)), EigenSurrogate((1, 0)))
        value2, _ = reference_integral("d1", 2, same, seed=0, log2_points=15)
        assert abs(value2 - 1.0) < 1e-3

    def test_deterministic(self):
        pair = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
        v1, s1 = reference_integral("d4", 2, pair, seed=7, log2_points=12)
        v2, s2 = reference_integral("d4", 2, pair, seed=7, log2_points=12)
        assert v1 == v2 and np.array_equal(s1, s2)

    @pytest.mark.parametrize("pair", BAD_PAIRS)
    def test_rejects_a_bad_pair_before_any_draw(self, monkeypatch, pair):
        from hbspline import selection

        def no_draw(*args, **kwargs):
            raise AssertionError("Sobol sequence reached before validation")

        monkeypatch.setattr(selection, "_sobol", no_draw)
        with pytest.raises(InvalidInputError, match="two EigenSurrogates of width d=2"):
            reference_integral("d1", 2, pair, log2_points=10)

    def test_rejects_bad_arguments_before_any_draw(self, monkeypatch):
        from hbspline import selection

        def no_draw(*args, **kwargs):
            raise AssertionError("Sobol sequence reached before validation")

        monkeypatch.setattr(selection, "_sobol", no_draw)
        pair = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
        wide = (EigenSurrogate((1, 0, 0)), EigenSurrogate((0, 1, 0)))
        with pytest.raises(InvalidConfigError, match="d9"):
            reference_integral("d9", 2, pair)
        with pytest.raises(InvalidInputError):
            reference_integral("d1", 2, wide)
        # The sequence holds 2**30 points.
        for log2_points in (31, 0):
            bound = rf"log2_points={log2_points} must be in \[1, 30\]"
            with pytest.raises(InvalidConfigError, match=bound):
                reference_integral("d1", 2, pair, log2_points=log2_points)
        with pytest.raises(InvalidConfigError, match="seed=-1 must be >= 0"):
            reference_integral("d1", 2, pair, seed=-1, log2_points=10)
        with pytest.raises(InvalidConfigError, match="d9"):
            variance_scaling_study("d9", 2)
        with pytest.raises(InvalidConfigError, match="replicates"):
            variance_scaling_study("d1", 2, replicates=1)
        with pytest.raises(InvalidConfigError, match="seed"):
            variance_scaling_study("d1", 2, seed=-1)
        with pytest.raises(InvalidConfigError, match="q=0 must be >= 1"):
            variance_scaling_study("d1", 2, q_list=(0, 8), n=2000)
        for kwargs in ({"d": 2.5}, {"replicates": 2.5}, {"n": 1000.5}, {"seed": True},
                       {"q_list": (8, 16.5)}, {"d": "2"}):
            name = next(iter(kwargs))
            with pytest.raises(InvalidConfigError, match=f"{name}.* must be an integer"):
                variance_scaling_study("d1", **{"d": 2, **kwargs})


def _one_shot_reference(dist, d, phi_pair, seed, log2_points):
    """The reference integral from a single Sobol draw of the whole design."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    from hbspline.selection import apply_scaler

    U = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(log2_points)
    U = np.clip(U, 2.0**-53, 1.0 - 2.0**-53)
    if dist == "d1":
        raw = U
    elif dist == "d2":
        raw = _t10_mixture_quantiles(U)
    elif dist == "d3":
        cov = 0.9 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        raw = ndtri(U) @ np.linalg.cholesky(cov).T
    else:
        Z = ndtri(U)
        raw = Z.copy()
        raw[:, 1:] += (Z[:, [0]] ** 2) / 1.2
    scaler = np.vstack([raw.min(axis=0), raw.max(axis=0)])
    scaled, _ = apply_scaler(raw, scaler)
    nu, mu = phi_pair
    return float(np.mean(nu(scaled) * mu(scaled))), scaler


@pytest.fixture
def workers(monkeypatch):
    """Set how many threads reference_integral may use (capped by its chunks)."""

    def use(count):
        monkeypatch.setattr(theory, "_usable_cores", lambda: count)

    return use


@pytest.fixture
def transforms(monkeypatch):
    """Count the chunks reference_integral transforms; optionally replace the bounds."""
    count = [0]
    maps = theory._design_maps

    def use(bounds=None):
        def counting(dist, d):
            transform, own = maps(dist, d)

            def counted(U):
                count[0] += 1
                return transform(U)

            return counted, bounds or own

        monkeypatch.setattr(theory, "_design_maps", counting)
        return count

    return use


# A uniform draw's extremes after clipping, and every value between.
_UNIFORM = st.one_of(
    st.sampled_from([2.0**-53, 1.0 - 2.0**-53]), st.floats(2.0**-53, 1.0 - 2.0**-53)
)


@settings(max_examples=300)
@given(
    dist=st.sampled_from(DISTRIBUTIONS),
    d=st.integers(1, 8),
    data=st.data(),
)
def test_bounds_hold_every_transformed_row(dist, d, data):
    corners = np.sort(
        np.array(data.draw(st.lists(st.tuples(_UNIFORM, _UNIFORM), min_size=d, max_size=d))),
        axis=1,
    )
    lo, hi = corners[:, 0], corners[:, 1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # The box's corners, where d3's and d4's extremes lie, then rows inside.
    U = np.vstack([
        lo, hi,
        np.where(rng.random((62, d)) < 0.5, lo, hi),
        np.clip(lo + (hi - lo) * rng.random((64, d)), lo, hi),
    ])
    transform, bounds = theory._design_maps(dist, d)
    X = transform(np.asfortranarray(U))
    low, high = bounds(lo[None], hi[None])
    assert np.all(low <= X) and np.all(X <= high)


class TestChunkedReferenceIntegral:
    # The reference design is streamed in chunks of 2**15 rows at d = 2,
    # 2**14 at d = 3 and 2**13 at d = 6: 4 and 12 are below one chunk, 15
    # one to four, 17 four to sixteen of them.
    @pytest.mark.parametrize("seed", [2024, 5, 11])
    @pytest.mark.parametrize("log2_points", [4, 12, 15, 17])
    @pytest.mark.parametrize(
        "dist, d", [("d1", 2), ("d2", 2), ("d3", 3), ("d4", 3), ("d4", 6), ("d3", 1)]
    )
    def test_bitwise_equal_to_one_shot(self, dist, d, log2_points, seed):
        self.check(dist, d, log2_points, seed)

    @staticmethod
    def check(dist, d, log2_points, seed=2024):
        """reference_integral against _one_shot_reference, bit for bit."""
        nu = tuple(1 if j == 0 else 0 for j in range(d))
        mu = tuple(1 if j == d - 1 else 0 for j in range(d))
        pair = (EigenSurrogate(nu), EigenSurrogate(mu))
        value, scaler = reference_integral(
            dist, d, pair, seed=seed, log2_points=log2_points
        )
        ref_value, ref_scaler = _one_shot_reference(dist, d, pair, seed, log2_points)
        assert value == ref_value
        assert np.array_equal(scaler, ref_scaler)

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("log2_points", [12, 15, 17])
    @pytest.mark.parametrize("dist, d", [("d1", 2), ("d2", 2), ("d3", 3), ("d4", 3)])
    def test_bitwise_equal_to_one_shot_for_any_thread_count(
        self, workers, dist, d, log2_points, count
    ):
        # At 12 there is one chunk, so fewer chunks than threads.
        workers(count)
        self.check(dist, d, log2_points)

    def test_chunks_of_wide_designs_are_whole_pairwise_blocks(self):
        # At d = 600 a chunk of 2**16 values is 64 rows, but numpy sums
        # blocks of 128 in interleaved lanes, so chunks hold 128 rows.
        assert theory._chunk_rows(600) == 128
        self.check("d1", 600, 9)

    @pytest.mark.parametrize("unbounded", [np.inf, np.nan])
    @pytest.mark.parametrize("dist, d", [("d1", 2), ("d2", 3), ("d4", 6)])
    def test_bitwise_equal_when_every_bound_reaches(self, transforms, dist, d, unbounded):
        # Pass 1 then transforms every chunk, and pass 2 every chunk again.
        def bounds(lo, hi):
            return np.full(lo.shape, -unbounded), np.full(hi.shape, unbounded)

        count = transforms(bounds)
        self.check(dist, d, 17)
        assert count[0] == 2 * (1 << 17) // theory._chunk_rows(d)

    @pytest.mark.parametrize("dist", ["d1", "d2"])
    def test_exact_marginals_transform_one_chunk_per_extreme(self, transforms, dist):
        # Each column's interval is its own draws' extremes, so pass 1
        # transforms at most the 2d chunks that hold them: 4 of 16 here.
        count = transforms()
        self.check(dist, 2, 19)
        chunks = (1 << 19) // theory._chunk_rows(2)
        assert chunks < count[0] <= chunks + 4

    @staticmethod
    def traced_peak(pair, log2_points):
        """tracemalloc peak of a d4 reference on the current thread count."""
        import tracemalloc

        d = len(pair[0].nu)
        # The Sobol direction numbers are read once per process and d; read
        # them before tracing so that only this call is measured.
        reference_integral("d4", d, pair, seed=5, log2_points=4)
        tracemalloc.start()
        try:
            reference_integral("d4", d, pair, seed=5, log2_points=log2_points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("d", [2, 6])
    def test_traced_peak_does_not_grow_with_the_points(self, workers, d):
        # Each thread holds one chunk at a time; fix their number.  No
        # design is stored: at 2**20 points the peak is below one column,
        # and it is less than one chunk per thread above the peak at 2**18.
        workers(2)
        nu = tuple(1 if j == 0 else 0 for j in range(d))
        mu = tuple(1 if j == d - 2 else 0 for j in range(d))
        pair = (EigenSurrogate(nu), EigenSurrogate(mu))
        peak = self.traced_peak(pair, 20)
        assert peak < (1 << 20) * 8
        assert peak - self.traced_peak(pair, 18) < 2 * theory._REFERENCE_CHUNK * 8

    def test_wrapped_names_are_called_from_the_calling_thread_only(
        self, workers, monkeypatch
    ):
        # perfbench's tracer wraps these module names and records their
        # spans on one stack, so no pool thread may call them.
        import importlib.util
        import threading
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        names = tracer.WRAP_POINTS["hbspline.theory"]
        callers = {}

        def recording(name, fn):
            def call(*args, **kwargs):
                callers.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)

            return call

        for name in names:
            monkeypatch.setattr(theory, name, recording(name, getattr(theory, name)))
        workers(3)
        variance_scaling_study("d4", 2, q_list=(8, 16), replicates=2, n=2000, seed=1)
        assert set(callers) == set(names)
        assert set().union(*callers.values()) == {threading.get_ident()}

    def test_fresh_process_with_concurrent_first_engines(self, workers):
        # In a fresh interpreter the first call reads the Sobol direction
        # numbers; then three tasks at once share its engine.
        import os
        import subprocess
        import sys

        import hbspline

        d = 6
        pair = (EigenSurrogate((1, 0, 0, 0, 0, 0)), EigenSurrogate((0, 0, 0, 0, 1, 0)))
        assert (1 << 15) // theory._chunk_rows(d) >= 3
        code = (
            "import sys\n"
            "from hbspline import theory\n"
            "from hbspline.theory import EigenSurrogate\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "theory._usable_cores = lambda: 3\n"
            f"pair = (EigenSurrogate({pair[0].nu}), EigenSurrogate({pair[1].nu}))\n"
            f"v, s = theory.reference_integral('d4', {d}, pair, seed=9, log2_points=15)\n"
            "print(v.hex(), s.tobytes().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(hbspline.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        workers(1)
        value, scaler = reference_integral("d4", d, pair, seed=9, log2_points=15)
        assert proc.stdout.split() == [value.hex(), scaler.tobytes().hex()]


class TestStratifiedEstimate:
    def test_constant_integrand_sums_weights_to_one(self, uniform_data):
        data = uniform_data(n=800, seed=3)
        pair = (EigenSurrogate((0, 0)), EigenSurrogate((0, 0)))
        for maker, method in ((hbs_select, "hbs"), (ubs_select, "ubs")):
            sel = maker(data, SelectionConfig(q=40, method=method, seed=1))
            est = stratified_integral_estimate(data, sel, pair)
            assert est == pytest.approx(1.0, abs=1e-12)

    def test_take_all_selection_reproduces_sample_mean(self, uniform_data):
        data = uniform_data(n=64, seed=4)
        pair = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
        sel = hbs_select(data, SelectionConfig(q=64, method="hbs", seed=2))
        est = stratified_integral_estimate(data, sel, pair)
        direct = float(np.mean(pair[0](data.X) * pair[1](data.X)))
        assert est == pytest.approx(direct, abs=1e-12)

    def test_unbiased_over_selection_randomness(self):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        data = dataset_from_unit_cube(gen.random((20_000, 2)))
        pair = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
        population = float(np.mean(pair[0](data.X) * pair[1](data.X)))
        reps = 300
        ests = np.empty(reps)
        for r in range(reps):
            sel = hbs_select(data, SelectionConfig(q=32, method="hbs", seed=r))
            ests[r] = stratified_integral_estimate(data, sel, pair)
        se = ests.std(ddof=1) / math.sqrt(reps)
        assert abs(ests.mean() - population) < 3 * se

    @pytest.mark.parametrize("pair", BAD_PAIRS)
    def test_rejects_a_bad_pair(self, uniform_data, pair):
        data = uniform_data(n=50, seed=5)
        sel = ubs_select(data, SelectionConfig(q=10, method="ubs", seed=1))
        with pytest.raises(InvalidInputError, match="two EigenSurrogates of width d=2"):
            stratified_integral_estimate(data, sel, pair)

    def test_rejects_malformed_selections(self, uniform_data):
        data = uniform_data(n=50, seed=5)
        pair = (EigenSurrogate((1, 0)), EigenSurrogate((0, 1)))
        bad_len = BasisSelection(
            indices=np.array([0, 1, 2]),
            bin_weight=np.array([0.5, 0.5]),
            nonempty_bins=2,
        )
        with pytest.raises(InvalidInputError):
            stratified_integral_estimate(data, bad_len, pair)
        bad_sign = BasisSelection(
            indices=np.array([0, 1]),
            bin_weight=np.array([0.5, -0.1]),
            nonempty_bins=2,
        )
        with pytest.raises(InvalidInputError):
            stratified_integral_estimate(data, bad_sign, pair)
        too_heavy = BasisSelection(
            indices=np.array([0, 1]),
            bin_weight=np.array([0.8, 0.8]),
            nonempty_bins=2,
        )
        with pytest.raises(InvalidInputError):
            stratified_integral_estimate(data, too_heavy, pair)


class TestScalingReport:
    @staticmethod
    def make(slope_strat, slope_rand):
        return ScalingReport(
            dist="d1",
            d=2,
            q_list=(16, 32),
            mse_strat=(1e-3, 2.5e-4),
            mse_rand=(1e-2, 5e-3),
            mean_strat=(0.01, 0.005),
            se_strat=(0.001, 0.0005),
            slope_strat=slope_strat,
            slope_rand=slope_rand,
            reference_value=0.0,
            n=1000,
            replicates=10,
        )

    def test_windows_inclusive(self):
        assert self.make(-2.0, -1.0).passes()
        assert self.make(STRAT_SLOPE_WINDOW[0], RAND_SLOPE_WINDOW[1]).passes()
        assert not self.make(-1.5, -1.0).passes()
        assert not self.make(-2.0, -0.5).passes()

    def test_csv_layout(self):
        text = self.make(-2.0, -1.0).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "q,method,mean_sq_error,mean_estimate,std_error"
        assert len(lines) == 5
        assert lines[1].startswith("16,stratified,")
        assert lines[2] == "16,random,0.01,nan,nan"
        assert float(lines[1].split(",")[2]) == 1e-3

    def test_summary_verdict(self):
        assert self.make(-2.0, -1.0).summary().startswith("PASS:")
        assert self.make(-1.0, -1.0).summary().startswith("FAIL:")


class TestVarianceScalingStudy:
    def test_rejects_bad_setups(self):
        with pytest.raises(InvalidConfigError):
            variance_scaling_study("d1", 1)
        with pytest.raises(InvalidConfigError):
            variance_scaling_study("d1", 2, q_list=(32,))
        with pytest.raises(InvalidConfigError):
            variance_scaling_study("d1", 2, q_list=(32, 32))
        with pytest.raises(InvalidConfigError):
            variance_scaling_study("d1", 2, q_list=(16, 64), n=32)

    def test_small_study_shape_and_decay(self):
        # n is kept large relative to max(q): squared error against the
        # reference bottoms out near var(phi)/n once q grows, which
        # would flatten the stratified curve
        report = variance_scaling_study(
            "d1", 2, q_list=(16, 64, 256), replicates=15, n=30_000, seed=1
        )
        assert report.q_list == (16, 64, 256)
        assert len(report.mse_strat) == 3 and len(report.se_strat) == 3
        assert all(np.isfinite(report.mse_strat))
        # stratification beats plain subsampling at every grid point
        assert all(
            s < r for s, r in zip(report.mse_strat, report.mse_rand)
        )
        assert report.slope_strat < -1.6
        assert -1.4 < report.slope_rand < -0.8

    def test_default_grid_exported(self):
        assert DEFAULT_Q_LIST == (64, 128, 256, 512, 1024)

    def test_deterministic(self):
        kwargs = dict(q_list=(16, 32), replicates=4, n=1000, seed=9)
        a = variance_scaling_study("d1", 2, **kwargs)
        b = variance_scaling_study("d1", 2, **kwargs)
        assert a == b
