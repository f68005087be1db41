"""CSV ingestion, JSON config loading, and run manifests.

CSV files are comma-separated UTF-8, with or without a byte-order mark,
with a required header row and '.' decimal points, parsed
locale-independently.  Cells of columns used as predictors or response
must be numeric; a mixed column aborts with the offending row and column
named rather than coercing silently.

A *plain* CSV has no '"', carriage return or NUL, no empty line, no line
longer than ``csv.field_size_limit()`` and the header's number of commas
on every line, so ``csv.reader`` would cut each line at its commas and
nowhere else.  Plain files are parsed by numpy's C reader and copied as
text; every other file, and every failure, goes through ``csv.reader``,
so both give the same numbers, rows and messages.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import IngestionError

__all__ = [
    "read_numeric_csv",
    "append_prediction_csv",
    "load_json_config",
    "canonical_hash",
    "RunManifest",
    "write_manifest",
]

logger = logging.getLogger(__name__)


def _open(path):
    return open(path, newline="", encoding="utf-8-sig")


def _rows(path):
    """Yield the header (names stripped), then each data row, as the file is read."""
    try:
        with _open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file; a header row is required")
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise IngestionError(f"{path}: duplicate column names in header")
            yield header
            for rownum, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}: row {rownum} has {len(row)} cells, "
                        f"header has {len(header)}"
                    )
                yield row
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"{path}: unreadable CSV: {exc}") from exc


_PIECE = 1 << 16  # bytes per read when checking or copying a plain file
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # suffixes numpy decompresses


def _plain_shape(path):
    """The header names and data-row count of a plain CSV, else None.

    Reads the file in pieces of at most 64 KiB.  A file of no lines, an
    empty header line or repeated column names is not plain either.
    """
    limit = csv.field_size_limit()
    lines = 0
    size = 0
    last_end = -1  # offset of the last line break read
    try:
        with open(path, "rb") as fh:
            while piece := fh.read(_PIECE):
                if b'"' in piece or b"\r" in piece or b"\0" in piece:
                    return None
                ends = size + np.flatnonzero(np.frombuffer(piece, np.uint8) == 10)
                if len(ends):  # 10 is '\n'; each line's length is checked
                    lengths = np.diff(ends, prepend=last_end) - 1
                    if lengths.min() < 1 or lengths.max() > limit:  # empty or too long
                        return None
                    last_end = int(ends[-1])
                    lines += len(ends)
                size += len(piece)
        with _open(path) as fh:
            header = fh.readline().rstrip("\n")
    except (OSError, UnicodeDecodeError):
        return None
    tail = size - last_end - 1  # bytes of a last line with no line break
    names = [h.strip() for h in header.split(",")]
    if tail > limit or not header or len(set(names)) != len(names):
        return None
    return names, lines + (tail > 0) - 1


def _parse_plain(path, wanted):
    """_parse_rows' result for a plain file with data rows, else None.

    numpy's loadtxt parses every cell.  It parses with PyOS_string_to_double,
    the routine behind float(), and rejects the cells on which the two
    differ (digit separators, non-ASCII digits); any failure, or rows
    whose width is not the header's, leaves the file to the csv reader.
    """
    # loadtxt reads a named file in blocks but an open one line by line.
    # Named, it would also fetch a URL, so the name is made absolute, and
    # open a compressed file by its suffix, so those are left alone.
    path = os.path.abspath(path)
    shape = None if path.endswith(_COMPRESSED) else _plain_shape(path)
    if shape is None or not shape[1]:  # the csv reader reads a header-only file
        return None
    header, n = shape
    try:
        data = np.loadtxt(
            path, delimiter=",", comments=None, skiprows=1, ndmin=2,
            dtype=np.float64, encoding="utf-8-sig",
        )
    except (OSError, ValueError):
        return None
    if data.shape != (n, len(header)):
        return None
    values = {name: data[:, j] for j, name in enumerate(header) if wanted(name)}
    return header, values, {}, n


def _parse_rows(path, wanted):
    """Parse the wanted columns with the csv reader.

    Returns (header, values, first_bad, n): each wanted column's parsed
    cells, the first unparsable (row, cell) of each column that has one,
    and the number of data rows.
    """
    rows = _rows(path)
    header = next(rows)
    values = {name: array("d") for name in header if wanted(name)}
    columns = [(ci, h, values[h]) for ci, h in enumerate(header) if h in values]
    first_bad = {}
    n = 0
    for n, row in enumerate(rows, start=1):
        for ci, name, column in columns:
            cell = row[ci].strip()
            try:
                column.append(float(cell))
            except ValueError:
                first_bad.setdefault(name, (n + 1, cell))
    return header, values, first_bad, n


def read_numeric_csv(path, response=None, predictors=None):
    """Read predictors (and optionally a response) from a CSV file.

    Each cell of a column that may be used is parsed once, by numpy's C
    reader for a plain file and by the csv reader otherwise (the module
    docstring).  Row faults are reported before column and cell faults.

    Parameters
    ----------
    path : str
        CSV file with a header row.
    response : str, optional
        Name of the response column.
    predictors : list of str, optional
        Predictor columns, in order.  When omitted, every non-response
        column whose cells all parse as numbers is used (columns with
        no numeric cells are skipped; a partially numeric column is an
        error).

    Returns
    -------
    (X, y, names) : (ndarray, ndarray or None, list of str)
        X is (n, len(names)) float64 (n = 0 for a header-only file);
        y is a length-n float64 vector when a response is named.

    Raises
    ------
    IngestionError
        Missing columns, a predictor listed twice or equal to the
        response, ragged rows, unreadable bytes, or non-numeric cells
        (reported with row and column).
    """

    def wanted(name):
        return predictors is None or name in predictors or name == response

    header, values, first_bad, n = (
        _parse_plain(path, wanted) or _parse_rows(path, wanted)
    )
    if response is not None and response not in values:
        raise IngestionError(f"{path}: response column {response!r} not found")
    if predictors is not None:
        missing = [p for p in predictors if p not in values]
        if missing:
            raise IngestionError(f"{path}: predictor columns not found: {missing}")
        repeated = sorted({p for p in predictors if predictors.count(p) > 1})
        if repeated:
            raise IngestionError(f"{path}: predictor columns listed twice: {repeated}")
        if response in predictors:
            raise IngestionError(
                f"{path}: response column {response!r} listed as a predictor"
            )
        names = list(predictors)
    else:
        others = [h for h in header if h != response]
        skipped = [h for h in others if h in first_bad and not values[h]]
        for name in skipped:
            logger.info("skipping non-numeric column %r", name)
        names = [h for h in others if h not in skipped]
        if not names:
            raise IngestionError(f"{path}: no usable predictor columns")

    for name in names + [response]:
        if name in first_bad:
            rownum, cell = first_bad[name]
            raise IngestionError(
                f"{path}: non-numeric value {cell!r} at row {rownum}, column {name!r}"
            )
    X = np.empty((n, len(names)))
    for j, name in enumerate(names):
        X[:, j] = values[name]
    y = None if response is None else np.ascontiguousarray(values[response])
    return X, y, names


def _copy_plain(in_path, out, predictions):
    """Write a plain CSV and its predictions to out as csv.writer would.

    That is the stripped header names, then each line as read, each
    ending in ',<prediction>\r\n'.  Returns False, having written part
    of the copy, when the file is not plain or the counts differ.
    """
    shape = _plain_shape(in_path)
    if shape is None:
        return False
    header, n = shape
    done = 0
    try:
        values = np.asarray(predictions, dtype=np.float64)
        if values.shape != (n,):
            return False
        with _open(in_path) as fh:
            fh.readline()
            out.write(",".join(header) + ",prediction\r\n")
            while lines := fh.readlines(_PIECE):
                if {line.count(",") for line in lines} != {len(header) - 1}:
                    return False
                rows = [line.rstrip("\n") for line in lines]
                preds = values[done:done + len(rows)].tolist()
                out.write("".join([f"{row},{p!r}\r\n" for row, p in zip(rows, preds)]))
                done += len(rows)
    except (OSError, ValueError):
        return False
    return True


def append_prediction_csv(in_path, out_path, predictions):
    """Copy a CSV adding a 'prediction' column; out_path is replaced when complete.

    A plain file is copied as text; any other goes through the csv
    reader and writer, which also report every fault.
    """
    part = f"{out_path}.part"
    try:
        with open(part, "w", newline="", encoding="utf-8") as fh:
            if not _copy_plain(in_path, fh, predictions):
                fh.seek(0)
                fh.truncate()
                rows = _rows(in_path)
                writer = csv.writer(fh)
                writer.writerow(next(rows) + ["prediction"])
                for row, p in zip(rows, predictions, strict=True):
                    writer.writerow(row + [repr(float(p))])
        os.replace(part, out_path)
    except ValueError:  # from zip(strict=True): row and prediction counts differ
        n_rows = sum(1 for _ in _rows(in_path)) - 1
        raise IngestionError(
            f"{len(predictions)} predictions for {n_rows} data rows"
        ) from None
    finally:
        if os.path.exists(part):
            os.remove(part)


def load_json_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: invalid JSON: {exc}") from exc


def canonical_hash(obj) -> str:
    """Stable sha256 of a JSON-serializable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance record written beside every command's output.

    All fields except the timestamps are identical across reruns of
    the same configuration.
    """

    command: str
    config: dict
    config_hash: str
    seed: int | None
    version: str
    started_at: str
    finished_at: str
    warnings: dict = field(default_factory=dict)


def _version() -> str:
    from . import __version__

    return __version__


def manifest_path(out_path) -> str:
    """Where the manifest of an output file goes."""
    return f"{out_path}.manifest.json"


def write_manifest(out_path, command, config, seed, warnings, started_at) -> str:
    """Write a manifest JSON next to an output file; returns its path."""
    manifest = RunManifest(
        command=command,
        config=config,
        config_hash=canonical_hash(config),
        seed=seed,
        version=_version(),
        started_at=started_at,
        finished_at=datetime.now(timezone.utc).isoformat(),
        warnings=warnings,
    )
    path = manifest_path(out_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
