"""CSV ingestion, config loading, and manifest writing."""

import csv
import io
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hbspline import ingest
from hbspline.errors import IngestionError
from hbspline.ingest import (
    RunManifest,
    append_prediction_csv,
    canonical_hash,
    load_json_config,
    read_numeric_csv,
    write_manifest,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# Cells on which numpy's loadtxt and float() may disagree, or that the
# csv reader cuts differently from a split at commas.
CELLS = [
    "1", "-2.5", " 3 ", "+.5", "4e-3", "1e-320", "1e999", "-1e999", "nan",
    "-nan", "inf", "-Infinity", "1_0", "\u0661", "\u00a05", "5\x0c", "\u30007",
    "0x1p3", "x", "", "  ", "1\x00", '"4"', '"1,5"',
]


@st.composite
def csv_texts(draw):
    """CSV text: plain numeric files and the ways a file can fail to be one."""
    width = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["a", " a", "b ", "y", "c"]),
                          min_size=width, max_size=width))
    shift = draw(st.sampled_from([0, 0, 0, -1, 1]))  # rows uniformly narrower or wider
    cell = st.one_of(st.sampled_from(CELLS), st.floats().map(repr))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 5))):
        w = max(1, width + shift + draw(st.sampled_from([0, 0, 0, 0, 1])))
        lines.append(",".join(draw(st.lists(cell, min_size=w, max_size=w))))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def csv_reader_only():
    """Patch the numpy path away, leaving every file to the csv reader."""
    return mock.patch.object(ingest, "_parse_plain", return_value=None)


def read_outcome(path, response, predictors):
    """read_numeric_csv's result as bytes, or its error text; no warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            X, y, names = read_numeric_csv(path, response=response, predictors=predictors)
        except IngestionError as exc:
            return str(exc)
    return X.shape, X.tobytes(), None if y is None else y.tobytes(), names


def csv_writer_copy(path, predictions):
    """The scored CSV as csv.writer renders csv.reader's rows."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = csv.reader(fh)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([h.strip() for h in header] + ["prediction"])
    writer.writerows(row + [repr(float(p))] for row, p in zip(rows, predictions, strict=True))
    return out.getvalue().encode("utf-8")


class TestReadNumericCsv:
    def test_reads_predictors_and_response(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5.5,-6\n")
        X, y, names = read_numeric_csv(p, response="y")
        assert np.array_equal(X, [[1.0, 2.0], [4.0, 5.5]])
        assert np.array_equal(y, [3.0, -6.0])
        assert X.dtype == y.dtype == np.float64
        assert names == ["a", "b"]

    def test_explicit_predictors_order(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,3\n")
        X, y, names = read_numeric_csv(p, response="y", predictors=["b", "a"])
        assert np.array_equal(X, [[2.0, 1.0]]) and names == ["b", "a"]

    def test_auto_mode_skips_text_columns(self, tmp_path, caplog):
        p = write(tmp_path / "d.csv", "a,label,y\n1,red,3\n4,blue,6\n")
        X, y, names = read_numeric_csv(p, response="y")
        assert names == ["a"]
        assert np.array_equal(X, [[1.0], [4.0]])

    def test_mixed_column_is_an_error_with_location(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,oops,6\n")
        with pytest.raises(IngestionError, match=r"row 3.*column 'b'"):
            read_numeric_csv(p, response="y")

    def test_non_numeric_response_cell(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,y\n1,3\n4,bad\n")
        with pytest.raises(IngestionError, match=r"row 3.*column 'y'"):
            read_numeric_csv(p, response="y")

    def test_missing_columns(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(IngestionError, match="response column"):
            read_numeric_csv(p, response="y")
        with pytest.raises(IngestionError, match="not found"):
            read_numeric_csv(p, predictors=["a", "zz"])

    def test_structural_errors(self, tmp_path):
        with pytest.raises(IngestionError, match="cannot read"):
            read_numeric_csv(tmp_path / "absent.csv")
        p = write(tmp_path / "empty.csv", "")
        with pytest.raises(IngestionError, match="header"):
            read_numeric_csv(p)
        p = write(tmp_path / "dup.csv", "a,a\n1,2\n")
        with pytest.raises(IngestionError, match="duplicate"):
            read_numeric_csv(p)
        p = write(tmp_path / "ragged.csv", "a,b\n1,2\n3\n")
        with pytest.raises(IngestionError, match="row 3 has 1 cells"):
            read_numeric_csv(p)
        # A ragged row anywhere is reported before an earlier bad cell.
        p = write(tmp_path / "late.csv", "a,y\nx,1\n1\n")
        with pytest.raises(IngestionError, match="row 3 has 1 cells"):
            read_numeric_csv(p, response="y", predictors=["a"])

    def test_no_usable_columns(self, tmp_path):
        p = write(tmp_path / "d.csv", "label,y\nred,1\n")
        with pytest.raises(IngestionError, match="no usable predictor"):
            read_numeric_csv(p, response="y")

    def test_header_only_gives_zero_rows(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's loadtxt warns on no data
            X, y, names = read_numeric_csv(p, predictors=["a", "b"])
        assert X.shape == (0, 2) and y is None and names == ["a", "b"]

    @given(
        content=st.one_of(
            st.binary(max_size=200),
            st.text(alphabet='ay,\n\r" .5e-x\x00\xe9', max_size=200).map(str.encode),
        ),
        response=st.sampled_from([None, "y"]),
    )
    def test_arbitrary_bytes_parse_or_raise_ingestion_error(
        self, tmp_path_factory, content, response
    ):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(content)
        try:
            X, y, names = read_numeric_csv(path, response=response)
        except IngestionError:
            return
        assert X.dtype == np.float64 and X.shape[1] == len(names)
        assert y is None if response is None else y.shape == (X.shape[0],)

    @given(
        text=csv_texts(),
        response=st.sampled_from([None, "y"]),
        predictors=st.sampled_from([None, ["a"], ["b", "a"]]),
    )
    def test_numpy_path_matches_the_csv_reader(
        self, tmp_path_factory, text, response, predictors
    ):
        path = tmp_path_factory.getbasetemp() / "paths.csv"
        path.write_bytes(text.encode("utf-8"))
        got = read_outcome(path, response, predictors)
        with csv_reader_only():
            assert got == read_outcome(path, response, predictors)

    @pytest.mark.parametrize(
        "text, numpy_parses, predictors",
        [
            ("a,b,y\n1,2,3\n4,5.5,-6\n", True, None),
            ("\ufeff a , b ,y\n1,2,nan\n4,inf,1e999", True, None),
            ("a,b,y\n1,2,3\n\n4,5,6\n", False, None),  # loadtxt skips a blank line
            ("a,b,y\n1,2\n4,5\n", False, None),  # uniformly narrower than the header
            ("a,b,y\n1,2,3,4\n5,6,7,8\n", False, None),  # uniformly wider
            ("a,b,y\n", False, None),  # header only
            ("\ufeff\n1\n2\n", False, None),  # an empty header line after the mark
            ("a,b,y\n1,1_0,3\n", False, None),
            ('a,b,y\n1,"2",3\n', False, None),
            ("a,b,y\r\n1,2,3\r\n", True, None),
            ("a,b,y\r\n1,2,3\r\n4,5,6", True, None),
            ("a,b,y\r1,2,3\r", False, None),  # a lone '\r'
            ("a,b,y\r\n1,2,3\r\n\r\n4,5,6\r\n", False, None),  # an empty '\r\n' line
            ("a,label,y\n1,red,3\n", False, None),
            # loadtxt reads only the wanted columns, and the comma count
            # keeps rows of another width off its path.
            ("a,label,y\n1,red,3\n", True, ["a"]),
            ("a,label,y\n1,red,3\n4,blue,6,7\n", False, ["a"]),
            ("a,label,y\n1,red,3\n4,blue\n", False, ["a"]),
            ("a,label,y\n1,red,3\n4,blue,6,", False, ["a"]),
            ("a,label,y\r\n1,red,3\r\n4,blue,6\r\n", True, ["a"]),
        ],
    )
    def test_which_files_numpy_parses(self, tmp_path, text, numpy_parses, predictors):
        p = write(tmp_path / "d.csv", text)

        def wanted(name):
            return predictors is None or name in predictors or name == "y"

        assert (ingest._parse_plain(p, wanted) is not None) == numpy_parses
        with csv_reader_only():
            want = read_outcome(p, "y", predictors)
        assert read_outcome(p, "y", predictors) == want

    @pytest.mark.parametrize(
        "text", ["a,label,y\n1,red,3\n4,blue,6,7\n", "a,label,y\n1,red,3\n4,blue,6,7"]
    )
    def test_a_long_row_is_reported_beside_an_unread_column(self, tmp_path, text):
        p = write(tmp_path / "d.csv", text)
        with pytest.raises(IngestionError, match="row 3 has 4 cells, header has 3"):
            read_numeric_csv(p, response="y", predictors=["a"])

    def test_crlf_split_across_pieces(self, tmp_path):
        # The first 64 KiB piece ends between a '\r' and its '\n'.
        text = "abc,y\r\n" + "1,2\r\n" * 13200
        assert text[ingest._PIECE - 1] == "\r"
        p = write(tmp_path / "d.csv", text)
        assert ingest._plain_shape(p) == (["abc", "y"], 13200)
        with csv_reader_only():
            want = read_outcome(p, "y", None)
        assert read_outcome(p, "y", None) == want

    def test_comma_counts_across_pieces(self, tmp_path):
        # 10-byte header, 8-byte rows: the 64 KiB pieces end inside lines.
        rows = ["1,red,3\n"] * 20000
        p = write(tmp_path / "d.csv", "a,label,y\n" + "".join(rows))
        assert ingest._plain_shape(p) == (["a", "label", "y"], 20000)
        rows[15000] = "1,red,3,\n"
        p = write(tmp_path / "d.csv", "a,label,y\n" + "".join(rows))
        assert ingest._plain_shape(p) is None
        with pytest.raises(IngestionError, match="row 15002 has 4 cells"):
            read_numeric_csv(p, response="y", predictors=["a"])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_text(self, tmp_path, suffix):
        # numpy's loadtxt would open a file named so with a decompressor.
        p = write(tmp_path / f"d.csv{suffix}", "a,y\n1,2\n3,4\n")
        X, y, names = read_numeric_csv(p, response="y")
        assert X.tolist() == [[1.0], [3.0]] and y.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("text", ["\ufeffu,y\n1,2\n", '\ufeff"u",y\n"1",2\n'])
    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path, text):
        X, y, names = read_numeric_csv(write(tmp_path / "d.csv", text), response="y")
        assert names == ["u"] and X.tolist() == [[1.0]] and y.tolist() == [2.0]

    def test_traced_peaks_are_small(self, tmp_path):
        # 5 float64 columns of 20 000 rows: 0.8 MB returned.
        data = np.random.default_rng(0).standard_normal((20_000, 5))
        path = tmp_path / "big.csv"
        path.write_text(
            "x1,x2,x3,x4,y\n"
            + "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
        )
        preds = data[:, 0].copy()
        tracemalloc.start()
        try:
            X, y, _ = read_numeric_csv(path, response="y")
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            append_prediction_csv(path, tmp_path / "out.csv", preds)
            _, copy_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(X, data[:, :4]) and np.array_equal(y, data[:, 4])
        assert read_peak < 8 * (X.nbytes + y.nbytes)
        assert copy_peak < 2**20


class TestAppendPredictionCsv:
    def test_appends_column_preserving_rows(self, tmp_path):
        src = write(tmp_path / "in.csv", "a,note\n1,keep me\n2,second\n")
        out = tmp_path / "out.csv"
        append_prediction_csv(src, out, [0.5, -1.25])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "a,note,prediction"
        assert lines[1] == "1,keep me,0.5"
        assert lines[2] == "2,second,-1.25"

    def test_length_mismatch(self, tmp_path):
        src = write(tmp_path / "in.csv", "a\n1\n2\n")
        with pytest.raises(IngestionError, match="predictions for"):
            append_prediction_csv(src, tmp_path / "out.csv", [1.0])
        with pytest.raises(IngestionError, match="3 predictions for 2 data rows"):
            append_prediction_csv(src, tmp_path / "out.csv", [1.0, 2.0, 3.0])
        assert list(tmp_path.iterdir()) == [tmp_path / "in.csv"]

    def test_plain_copy_is_csv_writers_bytes(self, tmp_path):
        # Padded header names, a text column and a last line without '\n'.
        src = write(tmp_path / "in.csv", "\ufeff a , note ,b\n1,keep me, 2\n-3e5,x,4")
        preds = [0.1, -2 / 3]
        assert ingest._copy_plain(src, io.StringIO(), preds)
        append_prediction_csv(src, tmp_path / "out.csv", np.array(preds))
        assert (tmp_path / "out.csv").read_bytes() == csv_writer_copy(src, preds)
        assert (tmp_path / "out.csv").read_bytes().startswith(b"a,note,b,prediction\r\n")

    def test_crlf_copy_is_byte_identical_on_both_paths(self, tmp_path):
        src = write(tmp_path / "in.csv", " a ,note,b\r\n1,keep me, 2\r\n-3e5,x,4\r\n5,y,6")
        preds = [0.1, -2 / 3, 7.0]
        assert ingest._copy_plain(src, io.StringIO(), preds)
        out = tmp_path / "out.csv"
        append_prediction_csv(src, out, preds)
        got = out.read_bytes()
        with mock.patch.object(ingest, "_copy_plain", return_value=False):
            append_prediction_csv(src, out, preds)
        assert out.read_bytes() == got == csv_writer_copy(src, preds)
        assert got.startswith(b"a,note,b,prediction\r\n1,keep me, 2,0.1\r\n")

    def test_quoted_copy_goes_through_csv_writer(self, tmp_path):
        src = write(tmp_path / "in.csv", 'a,note\n1,"x, y"\n2,"say ""hi"""\n')
        preds = [0.5, 1.5]
        expected = csv_writer_copy(src, preds)
        assert not ingest._copy_plain(src, io.StringIO(), preds)
        append_prediction_csv(src, src, preds)
        assert (tmp_path / "in.csv").read_bytes() == expected
        assert list(tmp_path.iterdir()) == [tmp_path / "in.csv"]

    @given(text=csv_texts())
    def test_copy_matches_the_csv_writer(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "copy.csv"
        out = tmp_path_factory.getbasetemp() / "scored.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                n = sum(1 for _ in csv.reader(fh)) - 1
        except csv.Error:
            n = 2
        preds = [i / 3 for i in range(max(n, 0))]

        def outcome():
            try:
                append_prediction_csv(path, out, preds)
            except IngestionError as exc:
                return str(exc)
            return out.read_bytes()

        got = outcome()
        with mock.patch.object(ingest, "_copy_plain", return_value=False):
            assert got == outcome()
        if isinstance(got, bytes):
            assert got == csv_writer_copy(path, preds)

    def test_output_may_replace_the_input(self, tmp_path):
        src = write(tmp_path / "in.csv", "a\n1\n2\n")
        append_prediction_csv(src, src, [0.5, 1.5])
        assert (tmp_path / "in.csv").read_bytes() == b"a,prediction\r\n1,0.5\r\n2,1.5\r\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "in.csv"]


class TestConfigAndManifest:
    def test_load_json_config(self, tmp_path):
        p = write(tmp_path / "c.json", '{"n": 5}')
        assert load_json_config(p) == {"n": 5}
        with pytest.raises(IngestionError, match="cannot read"):
            load_json_config(tmp_path / "absent.json")
        bad = write(tmp_path / "bad.json", "{nope")
        with pytest.raises(IngestionError, match="invalid JSON"):
            load_json_config(bad)
        (tmp_path / "latin1.json").write_bytes(b'{"n": "\xff"}')
        with pytest.raises(IngestionError, match="invalid JSON"):
            load_json_config(tmp_path / "latin1.json")

    def test_canonical_hash_ignores_key_order(self):
        assert canonical_hash({"a": 1, "b": 2}) == canonical_hash({"b": 2, "a": 1})
        assert canonical_hash({"a": 1}) != canonical_hash({"a": 2})

    def test_write_manifest_contents(self, tmp_path):
        out = tmp_path / "r.csv"
        path = write_manifest(out, "bench", {"n": 3}, 7, {"w": 1}, "t0")
        assert path == str(out) + ".manifest.json"
        obj = json.loads(open(path).read())
        assert obj["command"] == "bench"
        assert obj["config"] == {"n": 3}
        assert obj["config_hash"] == canonical_hash({"n": 3})
        assert obj["seed"] == 7
        assert obj["warnings"] == {"w": 1}
        assert set(obj) == set(RunManifest.__dataclass_fields__)
