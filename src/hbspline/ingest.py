"""CSV ingestion, JSON config loading, and run manifests.

CSV files are comma-separated UTF-8 with a required header row and '.'
decimal points, parsed locale-independently.  Cells of columns used as
predictors or response must be numeric; a mixed column aborts with the
offending row and column named rather than coercing silently.
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


def _rows(path):
    """Yield the header (names stripped), then each data row, as the file is read."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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


def read_numeric_csv(path, response=None, predictors=None):
    """Read predictors (and optionally a response) from a CSV file.

    The file streams once; each cell of a column that may be used is
    parsed once.  Row faults are reported before column and cell faults.

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
    rows = _rows(path)
    header = next(rows)
    values = {
        name: array("d")
        for name in header
        if predictors is None or name in predictors or name == response
    }
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
    y = None if response is None else np.asarray(values[response])
    return X, y, names


def append_prediction_csv(in_path, out_path, predictions):
    """Copy a CSV adding a 'prediction' column; out_path is replaced when complete."""
    rows = _rows(in_path)
    part = f"{out_path}.part"
    try:
        with open(part, "w", newline="", encoding="utf-8") as fh:
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
