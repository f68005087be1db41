"""Benchmark designs, test surfaces, noise calibration, and runs."""

import csv
import io
import math
import re

import numpy as np
import pytest

from hbspline.bench import (
    _CALIBRATE_BLOCK,
    CSV_HEADER,
    DISTRIBUTIONS,
    FUNCTION_DIMS,
    ExperimentConfig,
    calibrate_noise,
    eval_function,
    gen_design,
    run_experiment,
)
from hbspline.errors import InvalidConfigError, InvalidInputError
from hbspline.selection import apply_scaler, scale_to_unit_cube
from hbspline.solver import mse, predict


class TestGenDesign:
    def test_uniform_moments_and_support(self):
        X = gen_design("d1", 100_000, 3, seed=1)
        assert X.shape == (100_000, 3)
        assert np.all((X >= 0) & (X <= 1))
        se = math.sqrt(1.0 / 12.0) / math.sqrt(100_000)
        assert np.all(np.abs(X.mean(axis=0) - 0.5) < 3 * se)

    def test_bimodal_mixture_shape(self):
        X = gen_design("d2", 100_000, 2, seed=2)
        vals = X.ravel()
        # mixture of t(10) shifted by -5/+5: mean 0, var 10/8 + 25
        se = math.sqrt(26.25 / vals.size)
        assert abs(vals.mean()) < 3 * se
        assert abs(np.mean(vals > 0) - 0.5) < 0.01
        assert np.mean(np.abs(vals) < 2.0) < 0.02

    def test_averaged_variant_is_unimodal(self):
        vals = gen_design("d2", 100_000, 1, seed=2, d2_variant="average").ravel()
        assert np.mean(np.abs(vals) < 2.0) > 0.9

    def test_correlated_gaussian_matches_target(self):
        X = gen_design("d3", 100_000, 3, seed=3)
        corr = np.corrcoef(X, rowvar=False)
        assert abs(corr[0, 1] - 0.9) < 0.01
        assert abs(corr[1, 2] - 0.9) < 0.01
        assert abs(corr[0, 2] - 0.81) < 0.01

    def test_banana_second_coordinate_lifted(self):
        X = gen_design("d4", 100_000, 2, seed=4)
        se0 = 1.0 / math.sqrt(100_000)
        assert abs(X[:, 0].mean()) < 3 * se0
        # col1 = Z + Z1^2/1.2: mean 1/1.2, var 1 + 2/1.44
        se1 = math.sqrt(1.0 + 2.0 / 1.44) / math.sqrt(100_000)
        assert abs(X[:, 1].mean() - 1.0 / 1.2) < 3 * se1

    def test_deterministic_given_seed(self):
        a = gen_design("d4", 50, 3, seed=9)
        b = gen_design("d4", 50, 3, seed=9)
        assert np.array_equal(a, b)
        c = gen_design("d4", 50, 3, seed=10)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "sequence",
        [np.random.SeedSequence(5, spawn_key=(0,)), np.random.SeedSequence(7).spawn(3)[2]],
    )
    def test_seed_sequence_draws_its_philox_stream(self, sequence):
        ref = gen_design("d2", 40, 3, np.random.Generator(np.random.Philox(sequence)))
        assert np.array_equal(gen_design("d2", 40, 3, sequence), ref)
        plain = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
        assert np.array_equal(gen_design("d2", 40, 3, 9), gen_design("d2", 40, 3, plain))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidConfigError):
            gen_design("d9", 10, 2, seed=0)
        with pytest.raises(InvalidConfigError):
            gen_design("d1", 10, 0, seed=0)
        with pytest.raises(InvalidConfigError):
            gen_design("d4", 10, 1, seed=0)
        with pytest.raises(InvalidConfigError):
            gen_design("d2", 10, 2, seed=0, d2_variant="median")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"d2_variant": "bogus"}, "unknown d2_variant 'bogus'"),
            ({"seed": -1}, "seed=-1 must be >= 0"),
            ({"seed": 1.5}, "seed must be an integer, not 1.5"),
            ({"seed": "x"}, "seed must be an integer, not 'x'"),
            ({"seed": True}, "seed must be an integer, not True"),
            ({"seed": None}, "seed must be an integer, not None"),
        ],
    )
    def test_rejects_bad_seed_and_variant_for_every_design(self, kwargs, message):
        for dist in DISTRIBUTIONS:
            args = {"dist": dist, "n": 5, "d": 2, "seed": 0, **kwargs}
            with pytest.raises(InvalidConfigError, match=re.escape(message)):
                gen_design(**args)

    @pytest.mark.parametrize(
        "n, d", [(10.5, 2), (10, 2.0), (-1, 2), (True, 2), (10, np.True_), ("10", 2)]
    )
    def test_rejects_counts_that_are_not_integers_or_negative(self, n, d):
        with pytest.raises(InvalidConfigError):
            gen_design("d1", n, d, seed=0)

    def test_numpy_integer_counts(self):
        got = gen_design("d3", np.int64(40), np.uint8(3), seed=2)
        assert np.array_equal(got, gen_design("d3", 40, 3, seed=2))


class TestEvalFunction:
    # hand-checked: sin(10/0.15) with 10/0.15 = 66.666; 66.666 - 10*2pi
    # = 3.8348 rad in the third quadrant
    def test_sharp_wave_values(self):
        assert eval_function("f1", [0.0, 0.0]) == pytest.approx(
            -0.6390180141914412, abs=1e-14
        )
        assert eval_function("f1", [0.5, -0.2]) == pytest.approx(
            -0.2290227660326612, abs=1e-14
        )

    def test_two_bump_surface_peak_height(self):
        amp = 0.75 / (math.pi * 0.1 * 0.2)
        # at bump 1's center only the far bump's exp(-26) tail adds on
        val = eval_function("f2", [0.2, 0.3])
        assert val == pytest.approx(amp + amp * math.exp(-26.0), abs=1e-12)
        assert eval_function("f2", [0.7, 0.5]) == pytest.approx(
            amp + amp * math.exp(-26.0), abs=1e-12
        )

    def test_smooth_additive_surface(self):
        assert eval_function("f3", [0.0, 0.0, 0.0]) == 0.0
        expect = math.sin(0.2 * math.pi) - 0.3 - 0.01
        assert eval_function("f3", [0.3, -0.1, 0.4]) == pytest.approx(
            expect, abs=1e-14
        )

    def test_four_dim_mix_hand_computed(self):
        # 0.1 + 0.18 + 0 + [.1 sin(.8pi) + .2 cos(1.6pi)
        #   + .3 sin(2.4pi)^2 + .4 cos(3.2pi)^3 + 0]/4
        p4 = (
            0.1 * math.sin(0.8 * math.pi)
            + 0.2 * math.cos(1.6 * math.pi)
            + 0.3 * math.sin(2.4 * math.pi) ** 2
            + 0.4 * math.cos(3.2 * math.pi) ** 3
        ) / 4.0
        expect = 0.1 + 0.18 + p4
        assert eval_function("f4", [0.1, 0.2, 0.3, 0.4]) == pytest.approx(
            expect, abs=1e-12
        )

    def test_vectorized_matches_scalar(self):
        X = np.array([[0.1, 0.9], [0.4, 0.4], [0.8, 0.2]])
        out = eval_function("f1", X)
        assert out.shape == (3,)
        for i in range(3):
            assert out[i] == eval_function("f1", X[i])

    def test_rejects_unknown_and_wrong_width(self):
        with pytest.raises(InvalidConfigError):
            eval_function("f9", [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            eval_function("f1", [0.0, 0.0, 0.0])


class TestCalibrateNoise:
    def test_snr_scaling_is_exact(self):
        s2 = calibrate_noise("f1", "d1", snr=2.0, seed=0)
        s8 = calibrate_noise("f1", "d1", snr=8.0, seed=0)
        # both share one Monte Carlo variance, so sigma^2 * snr agrees
        assert s2**2 * 2.0 == pytest.approx(s8**2 * 8.0, rel=1e-12)
        assert s8 < s2

    def test_deterministic(self):
        a = calibrate_noise("f4", "d4", snr=2.0, seed=3, n_mc=20_000)
        b = calibrate_noise("f4", "d4", snr=2.0, seed=3, n_mc=20_000)
        c = calibrate_noise("f4", "d4", snr=2.0, seed=4, n_mc=20_000)
        assert a == b
        assert a != c

    def test_rejects_bad_snr_and_flat_surface(self, monkeypatch):
        for snr in (0.0, float("nan"), True, "2"):
            with pytest.raises(InvalidConfigError, match="snr"):
                calibrate_noise("f1", "d1", snr=snr, seed=0)
        import hbspline.bench as bench

        monkeypatch.setattr(bench, "eval_function", lambda fn, x: np.zeros(len(x)))
        with pytest.raises(InvalidConfigError, match="constant"):
            calibrate_noise("f1", "d1", snr=2.0, seed=0, n_mc=100)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"fn": "f9"}, "unknown function 'f9'"),
            ({"n_mc": True}, "n_mc must be an integer, not True"),
            ({"n_mc": 2.5}, "n_mc must be an integer, not 2.5"),
            ({"n_mc": "100"}, "n_mc must be an integer, not '100'"),
            ({"n_mc": 0}, "n_mc=0 must be >= 1"),
            ({"n_mc": -1}, "n_mc=-1 must be >= 1"),
            ({"seed": -1}, "seed=-1 must be >= 0"),
            ({"seed": 1.5}, "seed must be an integer, not 1.5"),
            ({"seed": "x"}, "seed must be an integer, not 'x'"),
            ({"seed": True}, "seed must be an integer, not True"),
            ({"d2_variant": "bogus"}, "unknown d2_variant 'bogus'"),
        ],
    )
    def test_rejects_bad_arguments_before_any_draw(self, monkeypatch, kwargs, message):
        import hbspline.bench as bench

        class NoDraw:
            def __getattr__(self, name):
                raise AssertionError("drew a design")

        # An int seed reaches gen_design's draw only through bench._rng.
        monkeypatch.setattr(bench, "_rng", lambda *args: NoDraw())
        args = {"fn": "f1", "dist": "d1", "snr": 2.0, "seed": 0, **kwargs}
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            calibrate_noise(**args)

    @pytest.mark.parametrize(
        "fn, dist, variant",
        [(fn, dist, "mixture") for fn in FUNCTION_DIMS for dist in DISTRIBUTIONS]
        + [(fn, "d2", "average") for fn in FUNCTION_DIMS],
    )
    def test_bitwise_equal_to_the_one_shot_formula(self, fn, dist, variant):
        # The whole design scaled at once, then the surface and its variance.
        def one_shot(n_mc, seed):
            raw = gen_design(dist, n_mc, FUNCTION_DIMS[fn], seed, d2_variant=variant)
            values = eval_function(fn, scale_to_unit_cube(raw, np.zeros(n_mc)).X)
            return float(np.sqrt(float(np.var(values)) / 2.0))

        block = _CALIBRATE_BLOCK
        for n_mc in (block - 1, block, block + 1, 100_000):
            seed = np.random.SeedSequence(n_mc, spawn_key=(0,))
            sigma = calibrate_noise(fn, dist, 2.0, seed, n_mc=n_mc, d2_variant=variant)
            assert sigma == one_shot(n_mc, seed), n_mc

    @pytest.mark.parametrize("fn", ["f1", "f4"])
    def test_holds_the_design_and_one_vector(self, fn):
        # Raw design, one n_mc vector of values and one scaled block; the
        # whole design scaled at once peaked at 4.5x (f1) and 4.3x (f4).
        import tracemalloc

        n_mc = 100_000
        calibrate_noise(fn, "d4", 2.0, 1, n_mc=n_mc)
        tracemalloc.start()
        try:
            calibrate_noise(fn, "d4", 2.0, 1, n_mc=n_mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n_mc * FUNCTION_DIMS[fn] * 8


class TestExperimentConfig:
    def test_properties(self):
        cfg = ExperimentConfig("d1", "f3", n=500)
        assert cfg.d == 3

    def test_normalizes_types(self):
        cfg = ExperimentConfig("d1", "f1", n=100, q_grid=[10.0, 20], methods=["HBS"])
        assert cfg.q_grid == (10, 20)
        assert all(type(q) is int for q in cfg.q_grid)
        assert cfg.methods == ("hbs",)

    def test_numpy_numbers_are_plain(self):
        cfg = ExperimentConfig(
            "d1", "f1", n=np.int64(100), q_grid=[np.int32(10), np.float64(20.0)],
            replicates=np.uint8(3), seed=2**64 - 1, full_cap=np.int16(0), snr=np.float32(2),
        )
        assert (cfg.n, cfg.q_grid, cfg.replicates, cfg.seed) == (100, (10, 20), 3, 2**64 - 1)
        values = (cfg.n, *cfg.q_grid, cfg.replicates, cfg.seed, cfg.full_cap)
        assert all(type(v) is int for v in values)
        assert type(cfg.snr) is float and cfg.snr == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"distribution": "dx"},
            {"function": "fx"},
            {"n": 1},
            {"replicates": 0},
            {"snr": -1.0},
            {"q_grid": ()},
            {"q_grid": (0,)},
            {"q_grid": (101,)},
            {"methods": ()},
            {"methods": ("knn",)},
            {"q_grid": 5},
            {"q_grid": ["x"]},
            {"n": "abc"},
            {"seed": -1},
            # Floats, strings and booleans that int() would truncate.
            {"q_grid": [2.5, 10]},
            {"q_grid": ["40"]},
            {"q_grid": [True, 5]},
            {"q_grid": [float("nan")]},
            {"replicates": True},
            {"seed": 1.0},
            {"snr": True},
            # Booleans (numpy's too), strings and NaN, key by key.
            {"n": True},
            {"n": np.True_},
            {"seed": "2"},
            {"full_cap": np.True_},
            {"full_cap": -1},
            {"snr": np.True_},
            {"snr": "2"},
            {"snr": float("nan")},
            {"q_grid": [np.True_]},
            {"q_grid": [np.float64(2.5)]},
            # A name not on its list, and a cell named twice.
            {"d2_variant": "bogus"},
            {"methods": ("ubs", "UBS")},
            {"q_grid": (10, 10)},
            {"q_grid": (10, 10.0)},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = dict(distribution="d1", function="f1", n=100)
        base.update(kwargs)
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(**base)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"methods": ("ubs", "hbs", "UBS")}, "methods lists 'ubs' twice"),
            ({"q_grid": (10, 20, 10.0)}, "q_grid lists 10 twice"),
        ],
    )
    def test_names_a_repeated_cell(self, kwargs, message):
        with pytest.raises(InvalidConfigError, match=message):
            ExperimentConfig("d1", "f1", n=100, **kwargs)


def tiny_config(**overrides):
    base = dict(
        distribution="d1",
        function="f1",
        n=120,
        q_grid=(20,),
        methods=("ubs",),
        replicates=2,
        snr=2.0,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_shape_and_headers(self):
        result = run_experiment(tiny_config())
        assert len(result.rows) == 2
        text = result.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        parsed = list(csv.reader(io.StringIO(text)))
        for row, line in zip(result.rows, parsed[1:]):
            assert float(line[5]) == row.mse
            assert line[6] == "0.0"
            assert float(line[7]) == row.lam

    def test_rerun_byte_identical(self):
        a = run_experiment(tiny_config()).to_csv()
        b = run_experiment(tiny_config()).to_csv()
        assert a == b

    def test_jobs_do_not_change_rows(self):
        a = run_experiment(tiny_config(), jobs=1).to_csv()
        b = run_experiment(tiny_config(), jobs=2).to_csv()
        assert a == b

    def test_full_method_equals_every_row_selection(self):
        cfg = tiny_config(n=60, q_grid=(60,), methods=("ubs", "full"), replicates=1)
        result = run_experiment(cfg)
        by_method = {r.method: r for r in result.rows}
        assert by_method["full"].q == 60
        assert by_method["full"].mse == by_method["ubs"].mse

    def test_full_method_capped_to_nan(self):
        cfg = tiny_config(n=60, q_grid=(20,), methods=("full",), replicates=1,
                          full_cap=50)
        result = run_experiment(cfg)
        (row,) = result.rows
        assert math.isnan(row.mse) and math.isnan(row.lam)
        assert np.isfinite(row.cond5)
        assert "nan" in row.to_csv()

    def test_timings_opt_in(self):
        off = run_experiment(tiny_config(replicates=1))
        on = run_experiment(tiny_config(replicates=1), timings=True)
        assert off.rows[0].fit_seconds == 0.0
        assert on.rows[0].fit_seconds > 0.0
        assert on.rows[0].mse == off.rows[0].mse

    def test_rows_sorted_by_method_q_replicate(self):
        cfg = tiny_config(methods=("ubs", "hbs"), q_grid=(40, 20), replicates=2)
        result = run_experiment(cfg)
        keys = [(r.method, r.q, r.replicate) for r in result.rows]
        assert keys == sorted(keys)
        assert keys[0][0] == "hbs"

    def test_median_mse(self):
        cfg = tiny_config(replicates=3)
        result = run_experiment(cfg)
        vals = [r.mse for r in result.rows]
        assert result.median_mse("ubs", 20) == np.median(vals)
        assert math.isnan(result.median_mse("hbs", 20))

    def test_sigma_matches_direct_calibration(self):
        cfg = tiny_config()
        result = run_experiment(cfg)
        direct = calibrate_noise(
            "f1", "d1", 2.0, np.random.SeedSequence(5, spawn_key=(0,))
        )
        assert result.sigma == direct


def load_script(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDemoFit:
    """scripts/demo_fit.py prints the test MSE of the model it fitted."""

    def test_printed_mse_is_the_models_on_raw_test_points(self, monkeypatch, capsys):
        demo = load_script("demo_fit")
        designs, models = [], []

        def keep(calls, fn):
            def wrapped(*args, **kwargs):
                calls.append(fn(*args, **kwargs))
                return calls[-1]

            return wrapped

        monkeypatch.setattr(demo, "gen_design", keep(designs, demo.gen_design))
        monkeypatch.setattr(demo, "gcv_select", keep(models, demo.gcv_select))
        assert demo.main(["--n", "300", "--q", "20", "--seed", "3"]) == 0
        printed = re.search(r"test MSE vs noiseless surface = (\S+)", capsys.readouterr().out)
        # predict takes raw points and applies the model's scaler itself.
        (model,), raw_test = models, designs[1]
        truth = eval_function("f1", apply_scaler(raw_test, model.scaler)[0])
        assert printed.group(1) == f"{mse(predict(model, raw_test), truth):.5f}"


class TestCompareBench:
    """scripts/compare_bench.py reports lambda moves and cell medians."""

    def write(self, path, rows):
        lines = [CSV_HEADER] + [
            f"d4,f1,{method},{q},{rep},{mse!r},0.0,{lam!r},1.0"
            for method, q, rep, mse, lam in rows
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_reports_moved_rows_and_cell_changes(self, tmp_path, capsys):
        parent = [
            ("hbs", 40, 0, 0.25, 1e-5),
            ("hbs", 40, 1, 0.5, 2e-5),
            ("hbs", 40, 2, 1.0, 3e-5),
            ("ubs", 40, 0, 0.125, 4e-5),
        ]
        change = list(parent)
        change[1] = ("hbs", 40, 1, 0.75, 2.5e-5)  # the median row moves
        p = self.write(tmp_path / "parent.csv", parent)
        c = self.write(tmp_path / "change.csv", change)
        assert load_script("compare_bench").main([p, c]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "lambda moved in 1 of 4 rows"
        assert out[1] == "  d4 f1 hbs q=40 replicate=1: 2e-05 -> 2.5e-05"
        assert out[3] == "  d4 f1 hbs q=40: 0.5 -> 0.75 (+5.00e-01)"
        assert out[4] == "  d4 f1 ubs q=40: 0.125 -> 0.125 (+0.00e+00)"
        assert out[5] == "largest relative change in a cell median: 5.00e-01"

    def test_identical_files_report_nothing_moved(self, tmp_path, capsys):
        rows = [("hbs", 40, 0, 0.25, 1e-5), ("hbs", 60, 0, float("nan"), 2e-5)]
        p = self.write(tmp_path / "a.csv", rows)
        assert load_script("compare_bench").main([p, p]) == 0
        out = capsys.readouterr().out
        assert "lambda moved in 0 of 2 rows" in out
        assert "largest relative change in a cell median: 0.00e+00" in out

    def test_different_rows_exit_1(self, tmp_path, capsys):
        p = self.write(tmp_path / "a.csv", [("hbs", 40, 0, 0.25, 1e-5)])
        c = self.write(tmp_path / "b.csv", [("hbs", 40, 1, 0.25, 1e-5)])
        assert load_script("compare_bench").main([p, c]) == 1
        assert "different rows" in capsys.readouterr().err
