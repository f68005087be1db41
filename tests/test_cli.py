"""End-to-end command-line behavior, exit codes, and manifests."""

import csv
import json

import numpy as np
import pytest

from hbspline import (
    SelectionConfig,
    gcv_select,
    load_model,
    predict,
    save_model,
    scale_to_unit_cube,
    select,
)
from hbspline.bench import gen_design
from hbspline.cli import main
from hbspline.kernels import default_spec


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def training_csv(path, n=300, seed=0):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    raw = gen_design("d4", n, 2, gen)
    y = raw[:, 0] + np.sin(raw[:, 1]) + 0.1 * gen.standard_normal(n)
    rows = [[repr(float(a)), repr(float(b)), repr(float(v))]
            for (a, b), v in zip(raw, y)]
    return write_csv(path, ["u", "v", "y"], rows), raw, y


def read_predictions(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(r["prediction"]) for r in rows])


class TestFit:
    def test_writes_model_and_manifest(self, tmp_path, capsys):
        data, _, _ = training_csv(tmp_path / "train.csv")
        out = tmp_path / "model.json"
        rc = main([
            "fit", "--data", data, "--response", "y",
            "--q", "25", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config"]["q"] == 25
        assert "bin_balance" in manifest["warnings"]
        line = capsys.readouterr().out
        assert "fit: n=300 d=2 q=25 method=hbs" in line

    def test_tied_data_records_the_dropped_directions(self, tmp_path):
        # 5 levels per predictor, with the four corners of the bounding
        # square among the basis points: the rank rule drops each extra
        # copy of a point and the corners' null direction, and the
        # manifest says how many.
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(43)))
        X = gen.integers(0, 5, (3000, 2))
        y = np.sin(0.75 * X[:, 0]) + X[:, 1] / 4.0 + 0.1 * gen.standard_normal(3000)
        rows = [[str(a), str(b), repr(float(v))] for (a, b), v in zip(X.tolist(), y)]
        data = write_csv(tmp_path / "tied.csv", ["u", "v", "y"], rows)
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--method", "ubs",
            "--q", "100", "--seed", "1", "--out", str(out),
        ]) == 0
        sel = select(scale_to_unit_cube(X, y), SelectionConfig(q=100, method="ubs", seed=1))
        basis = X[sel.indices]
        for corner in ([0, 0], [0, 4], [4, 0], [4, 4]):
            assert np.any(np.all(basis == corner, axis=1))
        dropped = 100 - np.unique(basis, axis=0).shape[0] + 1
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["warnings"] == {"dropped_directions": dropped}
        diagnostics = load_model(out).diagnostics
        assert diagnostics["dropped_directions"] == dropped
        assert diagnostics["rank"] == 3 + 100 - dropped

    def test_matches_library_pipeline(self, tmp_path):
        data, raw, y = training_csv(tmp_path / "train.csv", seed=1)
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--method", "ubs",
            "--q", "20", "--seed", "5", "--out", str(out),
        ]) == 0
        ds = scale_to_unit_cube(raw, y)
        sel = select(ds, SelectionConfig(q=20, method="ubs", seed=5))
        reference = gcv_select(ds, sel, default_spec(2))
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
        grid = gen.random((40, 2)) * 8 - 4
        got = predict(load_model(out), grid)
        assert np.max(np.abs(got - predict(reference, grid))) < 1e-8

    def test_rerun_is_byte_identical(self, tmp_path):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "fit", "--data", data, "--response", "y",
                "--q", "15", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.json.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.json.manifest.json").read_text())
        for key in ("started_at", "finished_at"):
            ma.pop(key), mb.pop(key)
        assert ma == mb

    def test_more_bins_than_rows(self, tmp_path):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=5)
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y",
            "--q", "10", "--C", "100000", "--out", str(out),
        ]) == 0
        assert load_model(out).basis_points.shape == (10, 2)
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["config"]["C"] == 100000

    def test_fixed_lambda_flag(self, tmp_path):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=3)
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "15",
            "--lambda", "0.001", "--out", str(out),
        ]) == 0
        assert load_model(out).lam == 0.001
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["config"]["lambda"] == load_model(out).lam
        # No flag overrides a fixed lambda.
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "15",
            "--lambda", "0.001", "--gcv", "--out", str(out),
        ]) == 1

    def test_explicit_predictors_subset(self, tmp_path):
        path = tmp_path / "train.csv"
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
        raw = gen.random((120, 3))
        y = raw[:, 0] + raw[:, 2]
        rows = [[repr(float(a)), repr(float(b)), repr(float(c)), repr(float(v))]
                for (a, b, c), v in zip(raw, y)]
        write_csv(path, ["a", "b", "c", "y"], rows)
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", str(path), "--response", "y",
            "--predictors", "a,c", "--q", "12", "--out", str(out),
        ]) == 0
        model = load_model(out)
        assert model.scaler.shape == (2, 2)

    @pytest.mark.parametrize(
        "predictors, column",
        [("u,u", "u"), ("u,y", "y")],
        ids=["repeated-predictor", "response-as-predictor"],
    )
    def test_rejects_repeated_or_response_predictor(
        self, tmp_path, capsys, predictors, column
    ):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=8, n=60)
        out = tmp_path / "model.json"
        rc = main([
            "fit", "--data", data, "--response", "y",
            "--predictors", predictors, "--q", "10", "--out", str(out),
        ])
        assert rc == 2
        assert f"'{column}'" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_file(self, tmp_path):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=5)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"main_effects": [0, 1], "interactions": []}))
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "15",
            "--spec", str(spec_path), "--out", str(out),
        ]) == 0
        assert load_model(out).spec.interactions == ()
        bad = tmp_path / "bad_spec.json"
        bad.write_text(json.dumps({"mains": [0]}))
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "15",
            "--spec", str(bad), "--out", str(out),
        ]) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            {"main_effects": 5}, {"main_effects": "01"}, {"interactions": [[0]]}, ["d"],
            {"d": 2, "main_effects": [0.5]}, {"interactions": [[0, 1.7]]},
            {"main_effects": [], "interactions": []},
            {"main_effects": [True, False], "interactions": [[False, True]]},
            {"main_effects": ["0", 1]}, {"main_effects": [0, float("nan")]},
        ],
        ids=["int-mains", "string-mains", "short-pair", "not-an-object",
             "fractional-main", "fractional-pair", "no-mains", "boolean-entries",
             "string-entry", "nan-entry"],
    )
    def test_malformed_spec_exits_1(self, tmp_path, capsys, spec):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=5, n=60)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "10",
            "--spec", str(spec_path), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "spec" in err and str(spec_path) in err
        assert not out.exists()

    def test_spec_d_true_does_not_match_one_predictor(self, tmp_path, capsys):
        # true == 1 in Python, but a JSON boolean is not a dimension.
        data, _, _ = training_csv(tmp_path / "train.csv", seed=5, n=60)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"d": True}))
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--predictors", "u", "--q", "10",
            "--spec", str(spec_path), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert str(spec_path) in err and "'d'" in err and "1 predictors" in err
        assert not out.exists()

    def test_spec_term_scales_is_an_unknown_key(self, tmp_path, capsys):
        # The fit sets every term scale itself (rescale_term_weights).
        data, _, _ = training_csv(tmp_path / "train.csv", seed=5, n=60)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"main_effects": [0, 1], "term_scales": [1, 1]}))
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "10",
            "--spec", str(spec_path), "--out", str(out),
        ]) == 1
        assert "unknown spec keys: ['term_scales']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d", [3, 1, 2.5, "2"])
    def test_spec_d_must_match_the_data(self, tmp_path, capsys, d):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=5, n=60)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"d": d}))
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "10",
            "--spec", str(spec_path), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert str(spec_path) in err and "'d'" in err and "2 predictors" in err
        assert not out.exists()

    def test_manifest_version_is_the_package_version(self, tmp_path):
        import tomllib
        from pathlib import Path

        import hbspline

        data, _, _ = training_csv(tmp_path / "train.csv", n=60)
        out = tmp_path / "model.json"
        assert main(["fit", "--data", data, "--response", "y", "--q", "10", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["version"] == hbspline.__version__
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == hbspline.__version__

    @pytest.mark.parametrize(
        "content",
        [
            b"u,y\n\xff\xfe,1\n",
            b"u,y\n" + b"1" * 131_073 + b",2\n",
            b"u,y\n1,2\n" + b"1" * 131_073 + b",2",
        ],
        ids=["not-utf8", "oversized-field", "oversized-last-line"],
    )
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, content):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        assert main([
            "fit", "--data", str(data), "--response", "y", "--q", "2",
            "--out", str(tmp_path / "m.json"),
        ]) == 2
        assert "unreadable CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, cell, what",
        [("u", "nan", "predictor"), ("y", "-inf", "response")],
    )
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["plain", "crlf"])
    def test_non_finite_cell_named_by_file_row_and_column(
        self, tmp_path, capsys, column, cell, what, eol
    ):
        data, _, _ = training_csv(tmp_path / "train.csv", n=60)
        with open(data, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[6][rows[0].index(column)] = cell  # file row 7; the header is row 1
        (tmp_path / "train.csv").write_text(eol.join(map(",".join, rows)) + eol)
        out = tmp_path / "model.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "10", "--out", str(out),
        ]) == 2
        assert f"non-finite {what} at row 7, column '{column}'" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_predictor_column_exits_2(self, tmp_path, capsys):
        # Without the check the rank rule would drop its terms unnamed.
        gen = np.random.default_rng(11)
        rows = [[repr(float(u)), "3.5", repr(float(v))] for u, v in gen.random((60, 2))]
        data = write_csv(tmp_path / "train.csv", ["u", "flat", "y"], rows)
        out = tmp_path / "model.json"
        rc = main(["fit", "--data", data, "--response", "y", "--q", "10", "--out", str(out)])
        assert rc == 2
        assert "constant predictor column 'flat'" in capsys.readouterr().err
        assert not out.exists()
        # Left out by name, the rest of the file fits.
        assert main([
            "fit", "--data", data, "--response", "y", "--predictors", "u",
            "--q", "10", "--out", str(out),
        ]) == 0

    def test_exit_codes(self, tmp_path, capsys):
        data, _, _ = training_csv(tmp_path / "train.csv", seed=6, n=50)
        out = str(tmp_path / "m.json")
        # usage error: missing required flag
        assert main(["fit", "--data", data, "--out", out]) == 1
        # config error: q larger than n
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "99", "--out", out,
        ]) == 1
        # data error: non-numeric cell in a used column
        bad = write_csv(tmp_path / "bad.csv", ["a", "y"], [["1", "2"], ["x", "4"]])
        assert main([
            "fit", "--data", bad, "--response", "y", "--q", "2", "--out", out,
        ]) == 2
        err = capsys.readouterr().err
        assert "error" in err

    @pytest.mark.parametrize("flags", [["--C", "7"], ["--k", "3"], ["--C", "7", "--k", "3"]])
    def test_bins_and_order_only_for_hbs(self, tmp_path, capsys, flags):
        # A ubs fit would ignore them and still record them in the manifest.
        data, _, _ = training_csv(tmp_path / "train.csv", n=40)
        out = tmp_path / "m.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "5", "--method", "ubs",
            *flags, "--out", str(out),
        ]) == 1
        assert "method 'ubs' takes no" in capsys.readouterr().err
        assert not out.exists()

    def test_fewer_rows_than_the_null_space_needs_exits_1(self, tmp_path, capsys):
        data = write_csv(tmp_path / "train.csv", ["u", "v", "y"],
                         [["0.1", "0.9", "1"], ["0.5", "0.2", "2"], ["0.8", "0.6", "0"]])
        out = tmp_path / "m.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "2", "--method", "ubs",
            "--out", str(out),
        ]) == 1
        assert "need at least m+1=4 rows to fit, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_csv_exits_2(self, tmp_path, capsys):
        data = write_csv(tmp_path / "train.csv", ["u", "v", "y"], [])
        out = tmp_path / "m.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "2", "--out", str(out),
        ]) == 2
        assert "no data rows to fit on" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        data, _, _ = training_csv(tmp_path / "train.csv", n=40)
        out = tmp_path / "m.json"
        assert main([
            "fit", "--data", data, "--response", "y", "--q", "5", "--seed", "-1",
            "--out", str(out),
        ]) == 1
        assert "seed=-1 must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestPredict:
    @pytest.fixture()
    def fitted(self, tmp_path):
        data, raw, y = training_csv(tmp_path / "train.csv", seed=7)
        out = tmp_path / "model.json"
        main([
            "fit", "--data", data, "--response", "y", "--q", "20",
            "--seed", "1", "--out", str(out),
        ])
        return out

    def test_roundtrip_matches_library(self, fitted, tmp_path):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
        grid = gen.random((30, 2)) * 6 - 3
        test_csv = write_csv(
            tmp_path / "test.csv", ["u", "v"], [[repr(float(a)), repr(float(b))] for a, b in grid]
        )
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(fitted), "--data", test_csv,
                     "--out", str(out)]) == 0
        got = read_predictions(out)
        assert np.array_equal(got, predict(load_model(fitted), grid))

    def test_column_order_and_extras_ignored(self, fitted, tmp_path):
        grid = np.array([[0.5, 1.0], [-1.0, 2.0]])
        plain = write_csv(
            tmp_path / "p.csv", ["u", "v"], [[repr(float(a)), repr(float(b))] for a, b in grid]
        )
        shuffled = write_csv(
            tmp_path / "s.csv",
            ["note", "v", "u"],
            [["first", repr(float(b)), repr(float(a))] for a, b in grid],
        )
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["predict", "--model", str(fitted), "--data", plain,
                     "--out", str(out1)]) == 0
        assert main(["predict", "--model", str(fitted), "--data", shuffled,
                     "--out", str(out2)]) == 0
        assert np.array_equal(read_predictions(out1), read_predictions(out2))

    def test_row_order_preserved(self, fitted, tmp_path):
        grid = np.array([[0.1, 0.2], [3.0, -1.0], [0.7, 0.9]])
        fwd = write_csv(tmp_path / "f.csv", ["u", "v"],
                        [[repr(float(a)), repr(float(b))] for a, b in grid])
        rev = write_csv(tmp_path / "r.csv", ["u", "v"],
                        [[repr(float(a)), repr(float(b))] for a, b in grid[::-1]])
        o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        main(["predict", "--model", str(fitted), "--data", fwd, "--out", str(o1)])
        main(["predict", "--model", str(fitted), "--data", rev, "--out", str(o2)])
        # matvec blocking rounds differently by row position, so exact
        # equality across a permutation is not promised
        assert np.allclose(
            read_predictions(o1), read_predictions(o2)[::-1], rtol=0, atol=1e-10
        )

    def test_non_finite_cell_named_by_file_row_and_column(self, fitted, tmp_path, capsys):
        data = tmp_path / "new.csv"
        data.write_text("u,v\n0.5,1.0\n-1.0,inf\n")
        out = tmp_path / "o.csv"
        assert main(["predict", "--model", str(fitted), "--data", str(data),
                     "--out", str(out)]) == 2
        assert "non-finite predictor at row 3, column 'v'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["plain", "crlf"])
    def test_byte_order_mark_on_either_side(self, tmp_path, eol):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark.
        training_csv(tmp_path / "train.csv", n=80)
        text = eol.join((tmp_path / "train.csv").read_text().splitlines()) + eol
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        models = []
        for data in (plain, marked):
            models.append(tmp_path / f"{data.stem}.json")
            assert main(["fit", "--data", str(data), "--response", "y", "--q", "10",
                         "--out", str(models[-1])]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()
        assert json.loads(models[1].read_text())["predictors"] == ["u", "v"]
        scored = []
        for model, data in zip(models, (marked, plain)):
            scored.append(tmp_path / f"scored-{data.stem}.csv")
            assert main(["predict", "--model", str(model), "--data", str(data),
                         "--out", str(scored[-1])]) == 0
        assert scored[0].read_bytes() == scored[1].read_bytes()
        assert scored[0].read_bytes().startswith(b"u,v,y,prediction\r\n")

    def test_header_only_input(self, fitted, tmp_path):
        empty = write_csv(tmp_path / "e.csv", ["u", "v"], [])
        out = tmp_path / "o.csv"
        assert main(["predict", "--model", str(fitted), "--data", empty,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines == ["u,v,prediction"]

    def test_scored_csv_may_replace_the_input(self, fitted, tmp_path):
        grid = [[0.5, 1.0], [-1.0, 2.0]]
        data = write_csv(tmp_path / "d.csv", ["u", "v"], grid)
        expected = predict(load_model(fitted), np.array(grid))
        assert main(["predict", "--model", str(fitted), "--data", data,
                     "--out", data]) == 0
        assert np.array_equal(read_predictions(data), expected)

    def test_clamp_warning_recorded(self, fitted, tmp_path):
        far = write_csv(tmp_path / "far.csv", ["u", "v"], [["1e9", "-1e9"]])
        out = tmp_path / "o.csv"
        assert main(["predict", "--model", str(fitted), "--data", far,
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["warnings"]["clamped_coordinates"] == 2

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("beta", lambda obj: obj.update(beta=obj["beta"][:-1])),
            ("alpha", lambda obj: obj.pop("alpha")),
            ("beta", lambda obj: obj["beta"].__setitem__(0, float("nan"))),
            ("predictors", lambda obj: obj.update(predictors=5)),
            ("predictors", lambda obj: obj.update(predictors="uv")),
            ("predictors", lambda obj: obj.update(predictors=["u", "u"])),
            ("diagnostics", lambda obj: obj.update(diagnostics=5)),
            ("diagnostics", lambda obj: obj.update(diagnostics=[1, 2])),
            ("spec", lambda obj: obj["spec"].update(main_effects=[0.5, 1])),
            ("spec", lambda obj: obj["spec"].update(interactions=[[0, 1.7]])),
            ("spec", lambda obj: obj["spec"].update(d=2.5)),
            ("spec", lambda obj: obj["spec"].update(main_effects=[], interactions=[])),
            ("basis_points", lambda obj: obj.update(basis_points=5)),
            ("lambda", lambda obj: obj.update({"lambda": "small"})),
            ("lambda", lambda obj: obj.update({"lambda": "nan"})),
            ("lambda", lambda obj: obj.update({"lambda": True})),
            ("lambda", lambda obj: obj.update({"lambda": -5.0})),
            ("gcv_score", lambda obj: obj.update(gcv_score="1e-3")),
            ("gcv_score", lambda obj: obj.update(gcv_score=-1.0)),
            ("spec", lambda obj: obj["spec"].update(main_effects=[True, 1])),
            ("basis_points", lambda obj: obj["basis_points"][0].__setitem__(1, 1.5)),
            ("scaler", lambda obj: obj["scaler"].reverse()),
            ("basis_points", lambda obj: obj["basis_points"][0].__setitem__(0, "0.5")),
            ("basis_points", lambda obj: obj["basis_points"][0].__setitem__(1, True)),
            ("alpha", lambda obj: obj["alpha"].__setitem__(0, False)),
            ("scaler", lambda obj: obj["scaler"][0].__setitem__(0, [0.0])),
            ("beta", lambda obj: obj["beta"].__setitem__(0, 10**400)),
        ],
        ids=["truncated-beta", "missing-alpha", "nan-beta", "int-predictors",
             "string-predictors", "repeated-predictors", "int-diagnostics",
             "list-diagnostics", "fractional-main", "fractional-pair", "fractional-d",
             "no-mains", "int-basis-points", "string-lambda", "nan-string-lambda",
             "boolean-lambda", "negative-lambda", "string-gcv-score", "negative-gcv-score",
             "boolean-main", "basis-point-outside-cube", "inverted-scaler",
             "string-basis-point", "boolean-basis-point", "boolean-alpha", "ragged-scaler",
             "beta-past-float-range"],
    )
    def test_malformed_model_exits_2(self, fitted, tmp_path, capsys, field, damage):
        obj = json.loads(fitted.read_text())
        damage(obj)
        fitted.write_text(json.dumps(obj))
        out = tmp_path / "o.csv"
        rc = main(["predict", "--model", str(fitted),
                   "--data", str(tmp_path / "train.csv"), "--out", str(out)])
        assert rc == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_model_that_is_not_an_object_exits_2(self, fitted, tmp_path, capsys):
        fitted.write_text(json.dumps([json.loads(fitted.read_text())]))
        out = tmp_path / "o.csv"
        assert main(["predict", "--model", str(fitted),
                     "--data", str(tmp_path / "train.csv"), "--out", str(out)]) == 2
        assert "does not hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_model_without_predictor_names_counts_the_columns(self, fitted, tmp_path, capsys):
        # With no stored names, predict takes every numeric column, so an
        # extra one is a column-count error rather than a silent misfit.
        model = load_model(fitted)
        bare = tmp_path / "bare.json"
        save_model(model, bare)
        rows = [["0.5", "1.0", "7"], ["-1.0", "2.0", "8"]]
        wide = write_csv(tmp_path / "wide.csv", ["u", "v", "w"], rows)
        out = tmp_path / "o.csv"
        assert main(["predict", "--model", str(bare), "--data", wide, "--out", str(out)]) == 2
        assert "3 predictor columns, model expects 2" in capsys.readouterr().err
        assert not out.exists()
        narrow = write_csv(tmp_path / "narrow.csv", ["u", "v"], [r[:2] for r in rows])
        assert main(["predict", "--model", str(bare), "--data", narrow,
                     "--out", str(out)]) == 0
        want = predict(model, np.array([[0.5, 1.0], [-1.0, 2.0]]))
        assert np.array_equal(read_predictions(out), want)

    def test_version_mismatch_exits_2(self, fitted, tmp_path):
        obj = json.loads(fitted.read_text())
        obj["format_version"] = 999
        fitted.write_text(json.dumps(obj))
        out = tmp_path / "o.csv"
        rc = main(["predict", "--model", str(fitted),
                   "--data", str(tmp_path / "train.csv"), "--out", str(out)])
        assert rc == 2


class TestBench:
    def bench_config(self, tmp_path, **overrides):
        cfg = dict(
            distribution="d1", function="f1", n=100, q_grid=[15],
            methods=["ubs"], replicates=2, snr=2.0, seed=4,
        )
        cfg.update(overrides)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_writes_rows_and_manifest(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("distribution,function,method,")
        assert "bench: 2 rows (0 failed)" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["seed"] == 4

    def test_jobs_flag_is_immaterial(self, tmp_path):
        cfg = self.bench_config(tmp_path)
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--config", cfg, "--out", str(o1), "--jobs", "1"]) == 0
        assert main(["bench", "--config", cfg, "--out", str(o2), "--jobs", "2"]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        cfg = self.bench_config(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["bench", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 1
        assert "jobs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bench.json"]

    def test_prints_one_median_row_per_cell(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path, q_grid=[10, 15], methods=["ubs", "hbs", "full"])
        out = tmp_path / "res.csv"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("bench: 10 rows (0 failed)")
        assert lines[1].split() == ["method", "q", "median", "MSE"]
        cells = [tuple(line.split()) for line in lines[2:]]
        assert [c[:2] for c in cells] == [
            ("full", "100"), ("hbs", "10"), ("hbs", "15"), ("ubs", "10"), ("ubs", "15"),
        ]
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for method, q, median in cells:
            mses = [float(r["mse"]) for r in rows if (r["method"], r["q"]) == (method, q)]
            assert len(mses) == 2
            assert float(median) == pytest.approx(np.median(mses), abs=5e-6)

    def test_rejects_malformed_config(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path, typo_key=1)
        assert main(["bench", "--config", cfg, "--out",
                     str(tmp_path / "o.csv")]) == 1
        assert "unknown keys" in capsys.readouterr().err
        missing = tmp_path / "m.json"
        missing.write_text(json.dumps({"function": "f1"}))
        assert main(["bench", "--config", str(missing), "--out",
                     str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize(
        "field, value",
        [("q_grid", 5), ("n", "abc"), ("methods", "hbs"), ("q_grid", [2.5, 10]),
         ("q_grid", ["40"]), ("q_grid", [True, 5]), ("replicates", True),
         ("n", True), ("seed", "2"), ("snr", True), ("snr", "2"), ("snr", float("nan")),
         ("q_grid", [float("nan")])],
    )
    def test_malformed_field_exits_1(self, tmp_path, capsys, field, value):
        # json writes NaN as the bare token NaN, which Python's reader takes.
        cfg = self.bench_config(tmp_path, **{field: value})
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [("methods", ["ubs", "UBS"], "methods lists 'ubs' twice"),
         ("q_grid", [10, 10], "q_grid lists 10 twice")],
    )
    def test_repeated_cell_exits_1(self, tmp_path, capsys, field, value, message):
        cfg = self.bench_config(tmp_path, **{field: value})
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_array_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps([{"distribution": "d1", "function": "f1"}]))
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_bytes(b'{"distribution": "d\xff"}')
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestTheory:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        rc = main([
            "theory", "--dist", "d1", "--dim", "2", "--q-list", "8,16",
            "--replicates", "3", "--n", "600", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "q,method,mean_sq_error,mean_estimate,std_error"
        assert len(lines) == 5
        text = capsys.readouterr().out
        assert text.startswith(("PASS:", "FAIL:"))
        assert "theory: report ->" in text

    @pytest.mark.parametrize(
        "flags",
        [["--q-list", "a,b"], ["--q-list", "8,16", "--replicates", "0"],
         ["--q-list", "8,16", "--replicates", "1"], ["--q-list", "8,16", "--seed", "-1"]],
        ids=["non-integer-q-list", "zero-replicates", "one-replicate", "negative-seed"],
    )
    def test_bad_flags_exit_1(self, tmp_path, flags):
        out = tmp_path / "o.csv"
        assert main([
            "theory", "--dist", "d1", "--dim", "2", "--n", "600", *flags,
            "--out", str(out),
        ]) == 1
        assert not out.exists()

    def test_invalid_dim_exits_1(self, tmp_path):
        assert main([
            "theory", "--dist", "d1", "--dim", "1",
            "--out", str(tmp_path / "o.csv"),
        ]) == 1

    @pytest.mark.parametrize("dim", ["63", "100"])
    def test_dim_without_a_curve_order_exits_1_naming_d(
        self, tmp_path, capsys, monkeypatch, dim
    ):
        # At d >= 63 the study's curve order min(12, 62 // d) is 0; the
        # error names d, not a k that the command has no flag for.
        from hbspline import selection

        def no_draw(*args, **kwargs):
            raise AssertionError("Sobol sequence reached before validation")

        monkeypatch.setattr(selection, "_sobol", no_draw)
        out = tmp_path / "o.csv"
        assert main(["theory", "--dist", "d1", "--dim", dim, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"d={dim}" in err and "k=" not in err
        assert not out.exists()


class TestUnwritableOutput:
    """An output that cannot be written exits 1 with one line naming it."""

    def command_args(self, command, tmp_path, out):
        data, _, _ = training_csv(tmp_path / "train.csv", n=60)
        if command == "fit":
            return ["fit", "--data", data, "--response", "y", "--q", "8", "--out", out]
        if command == "predict":
            model = str(tmp_path / "model.json")
            assert main(["fit", "--data", data, "--response", "y", "--q", "8",
                         "--out", model]) == 0
            return ["predict", "--model", model, "--data", data, "--out", out]
        if command == "bench":
            return ["bench", "--config", TestBench().bench_config(tmp_path), "--out", out]
        return ["theory", "--dist", "d1", "--dim", "2", "--q-list", "8,16",
                "--replicates", "2", "--n", "200", "--out", out]

    def assert_one_line_error(self, capsys, command, path):
        err = capsys.readouterr().err
        assert err.startswith(f"hbspline {command}: error: ")
        assert path in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "predict", "bench", "theory"])
    def test_missing_directory_exits_1(self, tmp_path, capsys, command):
        out = str(tmp_path / "missing" / "out.txt")
        args = self.command_args(command, tmp_path, out)
        capsys.readouterr()
        assert main(args) == 1
        self.assert_one_line_error(capsys, command, out)

    def test_unwritable_manifest_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "model.json")
        manifest = tmp_path / "model.json.manifest.json"
        manifest.mkdir()
        assert main(self.command_args("fit", tmp_path, out)) == 1
        self.assert_one_line_error(capsys, "fit", str(manifest))

    @pytest.mark.parametrize("command", ["fit", "predict", "bench", "theory"])
    def test_unwritable_manifest_leaves_no_output(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        manifest = tmp_path / "out.txt.manifest.json"
        args = self.command_args(command, tmp_path, str(out))
        manifest.mkdir()
        capsys.readouterr()
        assert main(args) == 1
        self.assert_one_line_error(capsys, command, str(manifest))
        assert not out.exists()
        assert not (tmp_path / "out.txt.part").exists()

    @pytest.mark.parametrize("command", ["bench", "theory"])
    @pytest.mark.parametrize("damage", ["missing-directory", "manifest-is-a-directory"])
    def test_unwritable_output_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch, command, damage
    ):
        import hbspline.cli as cli

        def not_reached(*args, **kwargs):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", not_reached)
        monkeypatch.setattr(cli, "variance_scaling_study", not_reached)
        out = tmp_path / "missing" / "out.csv"
        if damage == "manifest-is-a-directory":
            out = tmp_path / "out.csv"
            (tmp_path / "out.csv.manifest.json").mkdir()
        assert main(self.command_args(command, tmp_path, str(out))) == 1
        self.assert_one_line_error(capsys, command, str(out))
        assert not out.exists()


class TestHilbert:
    def test_encode_decode_index(self, capsys):
        assert main(["hilbert", "decode", "--d", "2", "--k", "1",
                     "--index", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0 0"
        assert main(["hilbert", "decode", "--d", "1", "--k", "4",
                     "--index", "9"]) == 0
        assert capsys.readouterr().out.strip() == "9"
        assert main(["hilbert", "index", "--d", "2", "--k", "3",
                     "--point", "0.3,0.7"]) == 0
        idx = int(capsys.readouterr().out)
        assert main(["hilbert", "decode", "--d", "2", "--k", "3",
                     "--index", str(idx)]) == 0
        cell = [int(v) for v in capsys.readouterr().out.split()]
        assert cell == [int(0.3 * 8), int(0.7 * 8)]
        assert main(["hilbert", "encode", "--d", "2", "--k", "3",
                     "--cell", f"{cell[0]},{cell[1]}"]) == 0
        assert int(capsys.readouterr().out) == idx

    def test_missing_payload_flags(self, capsys):
        assert main(["hilbert", "encode", "--d", "2", "--k", "2"]) == 1
        assert main(["hilbert", "decode", "--d", "2", "--k", "2"]) == 1
        assert main(["hilbert", "index", "--d", "2", "--k", "2"]) == 1
        assert main(["hilbert", "encode", "--d", "2", "--k", "2",
                     "--cell", "a,b"]) == 1
        capsys.readouterr()

    def test_non_numeric_point_exits_1(self, capsys):
        assert main(["hilbert", "index", "--d", "2", "--k", "2", "--point", "0.1,x"]) == 1
        assert "--point expects comma-separated floats" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()


def run_fresh(code):
    """stdout of code run in a fresh interpreter that imports src/hbspline."""
    import os
    import subprocess
    import sys

    import hbspline

    src = os.path.dirname(os.path.dirname(os.path.abspath(hbspline.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    return proc.stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import, and neither fit nor predict needs it.
    code = "import sys, hbspline.cli; print('scipy.stats' in sys.modules)"
    assert run_fresh(code).strip() == "False"


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only bench --jobs > 1 starts worker processes; the import costs ~25 ms.
    code = "import sys, hbspline.cli; print('multiprocessing' in sys.modules)"
    assert run_fresh(code).strip() == "False"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # Only the scaling study's reference and bench --jobs > 1 start pools.
    code = "import sys, hbspline.cli; print('concurrent.futures' in sys.modules)"
    assert run_fresh(code).strip() == "False"


def test_predict_loads_no_scipy(tmp_path):
    # predict needs only numpy; scipy takes a third of a second to import.
    data, _, _ = training_csv(tmp_path / "train.csv", n=60)
    model = str(tmp_path / "model.json")
    assert main(["fit", "--data", data, "--response", "y", "--q", "8", "--out", model]) == 0
    code = (
        "import sys, hbspline.cli\n"
        f"rc = hbspline.cli.main(['predict', '--model', {model!r}, '--data', {data!r},"
        f" '--out', {str(tmp_path / 'scored.csv')!r}])\n"
        f"print(rc, {SCIPY_MODULES})"
    )
    assert run_fresh(code).splitlines()[-1] == "0 []"
    assert (tmp_path / "scored.csv").exists()


@pytest.mark.parametrize("method", ["hbs", "sbs"])
def test_fit_loads_no_scipy(tmp_path, method):
    # The solver runs on numpy.linalg; scipy.linalg alone costs ~0.3 s and
    # 21 MiB.  sbs's Sobol points come from numpy too.
    data, _, _ = training_csv(tmp_path / "train.csv", n=60)
    model = str(tmp_path / "model.json")
    code = (
        "import sys, hbspline.cli\n"
        f"rc = hbspline.cli.main(['fit', '--data', {data!r}, '--response', 'y',"
        f" '--method', {method!r}, '--q', '8', '--out', {model!r}])\n"
        f"print(rc, {SCIPY_MODULES})"
    )
    assert run_fresh(code).splitlines()[-1] == "0 []"


def test_library_fit_loads_no_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hbspline import SelectionConfig, dataset_from_unit_cube, default_spec,"
        " fit_fixed_lambda, gcv_select, hbs_select\n"
        "X = np.random.default_rng(0).random((80, 2))\n"
        "data = dataset_from_unit_cube(X, X.sum(axis=1))\n"
        "sel = hbs_select(data, SelectionConfig(q=10, method='hbs', seed=1))\n"
        "gcv_select(data, sel, default_spec(2))\n"
        "fit_fixed_lambda(data, sel, default_spec(2), 1e-3)\n"
        f"print({SCIPY_MODULES})"
    )
    assert run_fresh(code).strip() == "[]"


def test_theory_leaves_scipy_stats_unloaded(tmp_path):
    # The study's Sobol points come from numpy; scipy.stats alone costs ~65 MiB.
    args = ["theory", "--dist", "d4", "--dim", "2", "--q-list", "8,16",
            "--replicates", "2", "--n", "600", "--out", str(tmp_path / "out")]
    code = (
        "import sys, hbspline.cli\n"
        f"rc = hbspline.cli.main({args!r})\n"
        f"print(rc, [m for m in {SCIPY_MODULES} if m.startswith('scipy.stats')])"
    )
    assert run_fresh(code).splitlines()[-1] == "0 []"


def test_package_exports_resolve():
    import hbspline

    # Every name in __all__ is bound by the package's own imports.
    namespace = {}
    exec("from hbspline import *", namespace)
    assert set(hbspline.__all__) <= set(namespace)
    assert hbspline.solver.gcv_select is hbspline.gcv_select
    with pytest.raises(AttributeError):
        hbspline.no_such_name


def test_package_binds_its_names_eagerly():
    import types

    import hbspline

    # No module-level loader: __all__ lists functions, classes and
    # constants, never a submodule or a deleted name, each once.
    assert not {"__getattr__", "__dir__", "importlib"} & set(vars(hbspline))
    assert len(set(hbspline.__all__)) == len(hbspline.__all__)
    assert not any(isinstance(getattr(hbspline, n), types.ModuleType) for n in hbspline.__all__)
    assert not {"selection_to_json", "selection_from_json"} & set(hbspline.__all__)
    assert isinstance(hbspline.__version__, str)
