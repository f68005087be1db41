"""Scaling, the four basis selectors, quotas, and the balance diagnostic."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbspline import (
    BasisSelection,
    SelectionConfig,
    abs_select,
    condition5_diagnostic,
    dataset_from_unit_cube,
    hbs_select,
    hilbert_bins,
    sbs_select,
    scale_to_unit_cube,
    select,
    ubs_select,
)
from hbspline.errors import InvalidConfigError, InvalidInputError
from hbspline.selection import _allocate_quotas, _rng, _sobol, _stratified_draw, _subseed


class TestScaleToUnitCube:
    def test_minmax_arithmetic(self):
        data = scale_to_unit_cube(np.array([[2.0], [4.0], [6.0]]), np.zeros(3))
        assert np.allclose(data.X[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(data.scaler, [[2.0], [6.0]])

    def test_constant_column_maps_to_half(self):
        data = scale_to_unit_cube(np.array([[5.0], [5.0], [5.0]]), np.zeros(3))
        assert np.allclose(data.X[:, 0], 0.5)

    def test_already_scaled_unchanged(self, rng):
        X = rng.random((50, 3))
        X[0] = 0.0  # pin the extremes so the scaler is exactly (0, 1)
        X[1] = 1.0
        data = scale_to_unit_cube(X, np.zeros(50))
        assert np.allclose(data.X, X)

    def test_reports_nonfinite_location(self):
        X = np.ones((4, 3))
        X[2, 1] = np.inf
        with pytest.raises(InvalidInputError, match="row 2, column 1"):
            scale_to_unit_cube(X, np.zeros(4))
        with pytest.raises(InvalidInputError, match="response at row 3"):
            scale_to_unit_cube(np.ones((4, 3)), [0, 0, 0, np.nan])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(InvalidInputError):
            scale_to_unit_cube(np.empty((0, 2)), np.empty(0))
        with pytest.raises(InvalidInputError):
            scale_to_unit_cube(np.ones((3, 2)), np.zeros(2))

    def test_dataset_is_immutable(self, uniform_data):
        data = uniform_data()
        with pytest.raises(ValueError):
            data.X[0, 0] = 2.0


class TestDatasetFromUnitCube:
    """Already-scaled input is checked as scale_to_unit_cube checks raw input."""

    def test_rejects_nonfinite_predictor(self):
        X = np.full((4, 2), 0.5)
        X[3, 1] = np.nan
        with pytest.raises(InvalidInputError, match="predictor at row 3, column 1"):
            dataset_from_unit_cube(X, np.zeros(4))

    def test_rejects_response_of_wrong_length(self):
        with pytest.raises(InvalidInputError, match="4 predictor rows but 3 responses"):
            dataset_from_unit_cube(np.full((4, 2), 0.5), np.zeros(3))

    def test_rejects_nonfinite_response(self):
        with pytest.raises(InvalidInputError, match="response at row 2"):
            dataset_from_unit_cube(np.full((4, 2), 0.5), [0.0, 1.0, np.nan, 2.0])

    def test_reads_a_vector_as_one_column(self):
        x, y = np.linspace(0.0, 1.0, 5), np.arange(5.0)
        wrapped, scaled = dataset_from_unit_cube(x, y), scale_to_unit_cube(x, y)
        assert wrapped.X.shape == scaled.X.shape == (5, 1)
        assert np.array_equal(wrapped.X, scaled.X)

    @pytest.mark.parametrize("build", [dataset_from_unit_cube, scale_to_unit_cube])
    def test_rejects_predictors_of_three_axes(self, build):
        # A Dataset's X is (n, d); both constructors refuse more axes
        # rather than wrap an array no selector or kernel can read.
        with pytest.raises(InvalidInputError, match="3 axes"):
            build(np.full((4, 2, 2), 0.5), np.zeros(4))


class TestSelectionConfig:
    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            SelectionConfig(q=5, seed=-1)
        assert SelectionConfig(q=5, seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"q": 2.5}, "q"), ({"q": 5, "C": 2.5}, "C"), ({"q": 5, "k": 3.0}, "k"),
         ({"q": 5, "seed": 1.5}, "seed"), ({"q": "5"}, "q"), ({"q": None}, "q"),
         ({"q": True}, "q"), ({"q": np.True_}, "q"), ({"q": 5, "C": "2"}, "C"),
         ({"q": 5, "seed": False}, "seed"), ({"q": float("nan")}, "q")],
    )
    def test_rejects_non_integers(self, kwargs, name):
        with pytest.raises(InvalidConfigError, match=f"{name} must be an integer"):
            SelectionConfig(**kwargs)

    def test_numpy_integers_are_plain_ints(self):
        cfg = SelectionConfig(q=np.int32(5), seed=np.uint64(7), C=np.int64(9), k=np.int8(4))
        assert (cfg.q, cfg.seed, cfg.C, cfg.k) == (5, 7, 9, 4)
        assert all(type(v) is int for v in (cfg.q, cfg.seed, cfg.C, cfg.k))

    @pytest.mark.parametrize("method", ["ubs", "abs", "sbs"])
    @pytest.mark.parametrize("kwargs", [{"C": 7}, {"k": 3}, {"C": 7, "k": 3}])
    def test_bins_and_order_only_for_hbs(self, method, kwargs):
        with pytest.raises(InvalidConfigError, match=f"method '{method}' takes no"):
            SelectionConfig(q=5, method=method, **kwargs)
        SelectionConfig(q=5, method="hbs", **kwargs)


class TestSeedStreams:
    @pytest.mark.parametrize("seed, key", [(0, ()), (7, ()), (7, (1, 3)), (2**63, (4, 0, 2, 60))])
    def test_rng_is_the_philox_stream_of_the_spawn_key(self, seed, key):
        ref = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
        )
        assert np.array_equal(_rng(seed, *key).random(64), ref.random(64))
        if not key:
            plain = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            assert np.array_equal(_rng(seed).integers(0, 2**62, 64), plain.integers(0, 2**62, 64))

    @pytest.mark.parametrize("seed, key", [(0, (0,)), (20240817, (2, 5, 1)), (3, (4, 1, 0, 100))])
    def test_subseed_is_the_first_state_word(self, seed, key):
        ref = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0]
        assert _subseed(seed, *key) == int(ref)
        assert isinstance(_subseed(seed, *key), int)


def _stratified_draw_unique(groups, q, n, rng):
    """The grouping by np.unique that _stratified_draw replaced; the reference."""
    row_order = np.argsort(groups, kind="stable")
    labels, starts = np.unique(groups[row_order], return_index=True)
    pops = np.diff(np.append(starts, groups.size))
    quota, moved = _allocate_quotas(pops, q)
    picked, weights = [], []
    for gi in range(labels.size):
        s = int(quota[gi])
        if s == 0:
            continue
        members = row_order[starts[gi] : starts[gi] + pops[gi]]
        if s >= members.size:
            chosen = members
        else:
            chosen = np.sort(rng.choice(members, size=s, replace=False))
        picked.append(chosen)
        weights.append(np.full(chosen.size, pops[gi] / (n * s)))
    return np.concatenate(picked), np.concatenate(weights), int(labels.size), moved


class TestStratifiedDraw:
    def assert_matches_unique_grouping(self, labels, q, seed):
        got = _stratified_draw(labels, q, labels.size, _rng(seed))
        ref = _stratified_draw_unique(labels, q, labels.size, _rng(seed))
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        assert got[2:] == ref[2:]

    @pytest.mark.parametrize(
        "labels, q",
        [
            (np.zeros(50, dtype=np.int64), 7),  # a single group
            (np.array([5, 5, 9, 0, 9, 9, 5, 0, 0, 9] * 3), 6),  # empty groups 1-4, 6-8
            (np.array([3] * 40 + [0, 7]), 5),  # small groups force a shortfall
            (np.arange(12), 12),  # one row per group, q = n
        ],
    )
    def test_matches_the_unique_grouping(self, labels, q):
        self.assert_matches_unique_grouping(labels, q, seed=11)

    # _stratified_draw sorts the labels as uint8 up to a largest label of
    # 255, as uint16 (both radix sorts) up to 65535 and as uint32 above;
    # the reference sorts them as int64.
    @pytest.mark.parametrize("C", [1, 60, 255, 256, 1024, 65535, 65536, 70000])
    def test_matches_the_unique_grouping_at_every_label_width(self, C):
        gen = _rng(7, C)
        n = max(4 * C, 1000)
        labels = gen.integers(0, C, n)
        # Small groups next to big ones give shortfall moves.
        labels[: n // 3] %= max(1, C // 3)
        labels[-1] = C - 1
        # q = n takes every group whole, so the whole row order is compared.
        for q in (1, 200, n):
            self.assert_matches_unique_grouping(labels, q, seed=q)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_the_unique_grouping_on_random_labels(self, data):
        n = data.draw(st.integers(1, 300))
        C = data.draw(st.integers(1, 64))
        labels = np.random.default_rng(data.draw(st.integers(0, 10**6))).integers(0, C, n)
        self.assert_matches_unique_grouping(labels, data.draw(st.integers(1, n)), seed=5)


class TestQuotaAllocation:
    def test_remainder_goes_to_largest_population(self):
        quota, moved = _allocate_quotas(np.array([5, 3, 2]), 7)
        assert quota.tolist() == [3, 2, 2]
        assert moved == 0

    def test_population_ties_break_to_lower_index(self):
        quota, _ = _allocate_quotas(np.array([4, 4, 4, 4]), 6)
        assert quota.tolist() == [2, 2, 1, 1]

    def test_shortfall_redistributed(self):
        quota, moved = _allocate_quotas(np.array([1, 10, 10]), 9)
        # Base 3 each; the singleton bin gives back 2, which go one
        # apiece to the largest remaining bins (tie -> lower index).
        assert quota.tolist() == [1, 4, 4]
        assert moved == 2
        assert quota.sum() == 9

    def test_exhausts_multiple_rounds(self):
        quota, moved = _allocate_quotas(np.array([1, 1, 8]), 6)
        assert quota.tolist() == [1, 1, 4]
        assert moved == 2

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
        st.data(),
    )
    def test_totals_preserved(self, pops, data):
        pops = np.array(pops)
        q = data.draw(st.integers(min_value=1, max_value=int(pops.sum())))
        quota, _ = _allocate_quotas(pops, q)
        assert quota.sum() == q
        assert np.all(quota >= 0)
        assert np.all(quota <= pops)


class TestHbsSelect:
    def test_one_point_per_quadrant(self):
        X = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.9], [0.9, 0.1]])
        data = dataset_from_unit_cube(X)
        sel = hbs_select(data, SelectionConfig(q=4, method="hbs", seed=3, C=4, k=1))
        assert sorted(sel.indices.tolist()) == [0, 1, 2, 3]
        assert np.allclose(sel.bin_weight, 0.25)
        assert sel.nonempty_bins == 4

    def test_quota_property_on_curved_data(self, banana_data):
        data = banana_data(n=2000, seed=11)
        cfg = SelectionConfig(q=8, method="hbs", seed=5, C=8, k=2)
        sel = hbs_select(data, cfg)
        assert sel.q == 8
        bins = hilbert_bins(data, 8, 2)
        per_bin = np.bincount(bins[sel.indices], minlength=8)
        cap = -(-8 // sel.nonempty_bins)  # ceil(q / nonempty)
        if sel.shortfall_moved == 0:
            assert per_bin.max() <= cap

    def test_more_bins_than_points_takes_the_most_populous_bins(self, banana_data):
        data = banana_data(n=2000, seed=12)
        cfg = SelectionConfig(q=10, method="hbs", seed=5, C=500)
        sel = hbs_select(data, cfg)
        bins = hilbert_bins(data, 500, cfg.resolved_k(data.d))
        pops = np.bincount(bins, minlength=500)
        chosen = bins[sel.indices]
        assert np.unique(sel.indices).size == 10
        assert np.unique(chosen).size == 10  # at most one row per bin
        assert sel.nonempty_bins == np.count_nonzero(pops)
        assert sel.nonempty_bins > 10
        others = np.setdiff1d(np.flatnonzero(pops), chosen)
        assert pops[chosen].min() >= pops[others].max()

    def test_fewer_bins_than_points_caps_each_bin(self, uniform_data):
        data = uniform_data(n=2000, seed=13)
        cfg = SelectionConfig(q=60, method="hbs", seed=6, C=7)
        sel = hbs_select(data, cfg)
        assert sel.q == 60 and np.unique(sel.indices).size == 60
        assert sel.shortfall_moved == 0
        bins = hilbert_bins(data, 7, cfg.resolved_k(data.d))
        per_bin = np.bincount(bins[sel.indices], minlength=7)
        assert per_bin.max() <= -(-60 // sel.nonempty_bins)  # ceil(q / nonempty)
        assert np.isclose(sel.bin_weight.sum(), 1.0)

    def test_weights_account_for_bin_populations(self, banana_data):
        data = banana_data(n=1500, seed=2)
        cfg = SelectionConfig(q=40, method="hbs", seed=9)
        sel = hbs_select(data, cfg)
        C = cfg.resolved_C()
        bins = hilbert_bins(data, C, cfg.resolved_k(data.d))
        pops = np.bincount(bins, minlength=C)
        drawn = np.bincount(bins[sel.indices], minlength=C)
        expect = pops[bins[sel.indices]] / (data.n * drawn[bins[sel.indices]])
        assert np.allclose(sel.bin_weight, expect)
        # Every point lands in some bin, so the weights total 1.
        assert np.isclose(sel.bin_weight.sum(), 1.0)

    def test_deterministic(self, banana_data):
        data = banana_data(n=800, seed=4)
        cfg = SelectionConfig(q=30, method="hbs", seed=77)
        a = hbs_select(data, cfg)
        b = hbs_select(data, cfg)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.bin_weight, b.bin_weight)
        c = hbs_select(data, SelectionConfig(q=30, method="hbs", seed=78))
        assert not np.array_equal(a.indices, c.indices)

    def test_rejects_q_above_n(self, uniform_data):
        with pytest.raises(InvalidConfigError):
            hbs_select(uniform_data(n=10), SelectionConfig(q=11, method="hbs"))

    def test_rejects_too_many_bins_for_order(self, uniform_data):
        data = uniform_data(n=100)
        with pytest.raises(InvalidConfigError):
            hbs_select(data, SelectionConfig(q=20, method="hbs", C=20, k=2))

    def test_rejects_wrong_method(self, uniform_data):
        with pytest.raises(InvalidConfigError):
            hbs_select(uniform_data(), SelectionConfig(q=5, method="ubs"))


class TestUbsSelect:
    def test_q_equal_n_returns_everything(self, uniform_data):
        data = uniform_data(n=25)
        sel = ubs_select(data, SelectionConfig(q=25, method="ubs", seed=1))
        assert sorted(sel.indices.tolist()) == list(range(25))
        assert np.allclose(sel.bin_weight, 1 / 25)

    def test_deterministic(self, uniform_data):
        data = uniform_data(n=100)
        cfg = SelectionConfig(q=10, method="ubs", seed=42)
        assert np.array_equal(
            ubs_select(data, cfg).indices, ubs_select(data, cfg).indices
        )

    def test_selection_frequencies_uniform(self, uniform_data):
        data = uniform_data(n=100)
        hits = np.zeros(100)
        reps = 1000
        for r in range(reps):
            sel = ubs_select(data, SelectionConfig(q=10, method="ubs", seed=r))
            hits[sel.indices] += 1
        freq = hits / reps
        se = np.sqrt(0.1 * 0.9 / reps)
        assert np.all(np.abs(freq - 0.1) <= 3 * se)


class TestAbsSelect:
    def test_constant_response_single_slice(self):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
        data = scale_to_unit_cube(gen.random((60, 2)), np.full(60, 7.0))
        sel = abs_select(data, SelectionConfig(q=12, method="abs", seed=5))
        assert sel.nonempty_bins == 1
        assert sel.q == 12
        assert len(set(sel.indices.tolist())) == 12

    def test_even_coverage_of_response_slices(self):
        y = np.arange(1.0, 101.0)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
        data = scale_to_unit_cube(gen.random((100, 2)), y)
        sel = abs_select(data, SelectionConfig(q=10, method="abs", seed=2))
        # K = ceil(sqrt(10)) = 4 slices, all non-empty.
        slices = np.minimum(((y - 1.0) / 99.0 * 4).astype(int), 3)
        counts = np.bincount(slices[sel.indices], minlength=4)
        assert np.all(counts >= 2)
        assert counts.sum() == 10

    def test_deterministic(self, uniform_data):
        data = uniform_data(n=90)
        cfg = SelectionConfig(q=9, method="abs", seed=31)
        assert np.array_equal(
            abs_select(data, cfg).indices, abs_select(data, cfg).indices
        )


class TestSbsSelect:
    def test_exact_match_selects_those_rows(self):
        # When the data rows are exactly the target sequence, greedy
        # nearest-neighbor matching picks every row once.
        from scipy.stats import qmc

        sob = qmc.Sobol(d=2, scramble=True, seed=9)
        targets = sob.random_base2(4)
        data = dataset_from_unit_cube(targets)
        sel = sbs_select(data, SelectionConfig(q=16, method="sbs", seed=9))
        assert sorted(sel.indices.tolist()) == list(range(16))

    def test_spreads_more_than_random(self):
        def min_pairwise(X):
            diff = X[:, None, :] - X[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=-1))
            np.fill_diagonal(dist, np.inf)
            return dist.min()

        wins = 0
        reps = 100
        for r in range(reps):
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(r)))
            data = dataset_from_unit_cube(gen.random((2000, 2)))
            s = sbs_select(data, SelectionConfig(q=27, method="sbs", seed=r))
            u = ubs_select(data, SelectionConfig(q=27, method="ubs", seed=r))
            if min_pairwise(data.X[s.indices]) > min_pairwise(data.X[u.indices]):
                wins += 1
        assert wins >= 80

    @pytest.mark.parametrize(
        "d, q, seed", [(2, 37, 5), (3, 64, 2**63 - 1), (5, 1, 0), (2, 1, 21)]
    )
    def test_picks_the_rows_nearest_scipys_targets(self, d, q, seed):
        # The targets are scipy's random_base2(m)[:q], matched greedily.
        from scipy.stats import qmc

        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(d)))
        X = gen.random((300, d))
        m = (q - 1).bit_length()
        targets = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(m)[:q]
        taken = np.zeros(len(X), dtype=bool)
        want = []
        for t in targets:
            dist = ((X - t) ** 2).sum(axis=1)
            dist[taken] = np.inf
            want.append(int(np.argmin(dist)))
            taken[want[-1]] = True
        sel = sbs_select(dataset_from_unit_cube(X), SelectionConfig(q=q, method="sbs", seed=seed))
        assert sel.indices.tolist() == sorted(want)


class TestSobolEngine:
    """selection._sobol against scipy.stats.qmc.Sobol, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 9, 2**63 - 1])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 40])
    def test_bitwise_equal_to_scipy(self, d, seed):
        import warnings

        from scipy.stats import qmc

        points = _sobol(d, seed, 2**12)
        for start in (0, 1, 5000, 2**15):
            for n in (1, 777, 2**12):
                sob = qmc.Sobol(d=d, scramble=True, seed=seed)
                if start:
                    sob.fast_forward(start)
                with warnings.catch_warnings():  # n need not be a power of 2 here
                    warnings.simplefilter("ignore", UserWarning)
                    want = sob.random(n)
                got = points(start, n)
                assert got.dtype == np.float64 and got.shape == (n, d)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (start, n)


class TestSelectorContracts:
    def test_a_selection_is_its_rows_and_weights(self):
        names = [f.name for f in dataclasses.fields(BasisSelection)]
        assert names == ["indices", "bin_weight", "nonempty_bins", "shortfall_moved"]

    @pytest.mark.parametrize("method", ["hbs", "ubs", "abs", "sbs"])
    @settings(max_examples=25)
    @given(
        n=st.integers(1, 120),
        d=st.integers(1, 3),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_every_field_is_filled(self, method, n, d, share, seed):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        data = dataset_from_unit_cube(gen.random((n, d)), gen.standard_normal(n))
        q = max(1, round(share * n))
        sel = select(data, SelectionConfig(q=q, method=method, seed=seed))
        assert sel.indices.dtype == np.int64 and sel.bin_weight.dtype == np.float64
        assert sel.indices.shape == sel.bin_weight.shape == (q,)
        assert not sel.indices.flags.writeable and not sel.bin_weight.flags.writeable
        # Every row is binned, so the weights represent the whole sample.
        assert np.all(sel.bin_weight > 0.0) and np.isclose(sel.bin_weight.sum(), 1.0)
        assert 1 <= sel.nonempty_bins <= q
        assert sel.shortfall_moved >= 0

    @pytest.mark.parametrize("method", ["hbs", "ubs", "abs", "sbs"])
    @given(q=st.integers(min_value=1, max_value=40))
    @settings(max_examples=15)
    def test_q_distinct_inrange_indices(self, method, q):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(q)))
        data = scale_to_unit_cube(gen.random((40, 2)), gen.standard_normal(40))
        sel = select(data, SelectionConfig(q=q, method=method, seed=q))
        assert sel.q == q
        assert len(set(sel.indices.tolist())) == q
        assert sel.indices.min() >= 0 and sel.indices.max() < 40

    def test_hbs_blocks_balance_beats_random_on_curved_data(self):
        # On strongly non-uniform data the stratified pick spreads far
        # more evenly over coarse curve blocks than a uniform draw.
        from hbspline import CurveOrder, point_to_index

        order = CurveOrder(k=2, d=2)
        wins = 0
        reps = 100
        for r in range(reps):
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(r)))
            from hbspline import gen_design

            raw = gen_design("d4", 2000, 2, gen)
            data = scale_to_unit_cube(raw, np.zeros(2000))
            h = hbs_select(data, SelectionConfig(q=50, method="hbs", seed=r, C=50))
            u = ubs_select(data, SelectionConfig(q=50, method="ubs", seed=r))
            hv = np.var(np.bincount(point_to_index(data.X[h.indices], order), minlength=16))
            uv = np.var(np.bincount(point_to_index(data.X[u.indices], order), minlength=16))
            if hv < uv:
                wins += 1
        assert wins >= 90


class TestCondition5:
    def test_equidistributed_value_is_one(self):
        # 16 points, one per bin at C = q = 16: max q*n_i/n = 16*1/16.
        from hbspline import CurveOrder, decode

        cells = decode(np.arange(16), CurveOrder(k=2, d=2))
        X = (cells + 0.5) / 4
        data = dataset_from_unit_cube(X)
        value = condition5_diagnostic(
            data, SelectionConfig(q=16, method="hbs", C=16, k=2)
        )
        assert value == 1.0

    def test_point_mass_value_is_q(self):
        X = np.full((200, 2), 0.3)
        data = dataset_from_unit_cube(X)
        value = condition5_diagnostic(
            data, SelectionConfig(q=20, method="hbs", C=20, k=4)
        )
        assert value == 20.0

    def test_finite_on_curved_data(self, banana_data):
        data = banana_data(n=2000, seed=6)
        value = condition5_diagnostic(
            data, SelectionConfig(q=27, method="hbs", C=27)
        )
        assert np.isfinite(value)
        assert value >= 1.0


class TestCurveIndexMemo:
    def test_one_mapping_per_dataset_and_order(self, banana_data, monkeypatch):
        import hbspline.selection as selection

        mapped = []
        real = selection.point_to_index

        def counting(x, order):
            mapped.append(order.k)
            return real(x, order)

        monkeypatch.setattr(selection, "point_to_index", counting)
        data = banana_data(n=3000, seed=21)
        # C = 40, 50 and 64 share the default order k = 5 at d = 2.
        cfgs = [SelectionConfig(q=C, method="hbs", seed=C) for C in (40, 50, 64)]
        sels = [hbs_select(data, cfg) for cfg in cfgs]
        balance = condition5_diagnostic(data, cfgs[1], warn=False)
        assert mapped == [5]
        other = SelectionConfig(q=40, method="hbs", C=40, k=7)
        hbs_select(data, other)
        condition5_diagnostic(data, other, warn=False)
        assert mapped == [5, 7]

        fresh = banana_data(n=3000, seed=21)
        for C, k in ((40, 5), (50, 5), (64, 5), (40, 7)):
            assert np.array_equal(hilbert_bins(data, C, k), hilbert_bins(fresh, C, k))
        for cfg, sel in zip(cfgs, sels):
            assert np.array_equal(sel.indices, hbs_select(fresh, cfg).indices)
        assert balance == condition5_diagnostic(fresh, cfgs[1], warn=False)

    def test_memo_is_read_only_and_per_dataset(self, uniform_data):
        import dataclasses

        data = uniform_data(n=200, seed=22)
        hilbert_bins(data, 16, 4)
        assert not data._curve_index[4].flags.writeable
        moved = dataclasses.replace(data, X=data.X[::-1].copy())
        assert moved._curve_index == {}
        assert np.array_equal(hilbert_bins(moved, 16, 4), hilbert_bins(data, 16, 4)[::-1])
