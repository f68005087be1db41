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
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

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


def _read_rows(path) -> tuple[list, list]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path}: empty file; a header row is required")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise IngestionError(f"{path}: duplicate column names in header")
    body = rows[1:]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise IngestionError(
                f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}"
            )
    return header, body


def read_numeric_csv(path, response=None, predictors=None):
    """Read predictors (and optionally a response) from a CSV file.

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
    (X, y, names) : (list of list of float, list of float or None, list of str)

    Raises
    ------
    IngestionError
        Missing columns, a predictor listed twice or equal to the
        response, ragged rows, or non-numeric cells (reported with row
        and column).
    """
    header, body = _read_rows(path)
    col_of = {name: i for i, name in enumerate(header)}
    if response is not None and response not in col_of:
        raise IngestionError(f"{path}: response column {response!r} not found")

    def parse_column(name):
        ci = col_of[name]
        values = []
        for ri, row in enumerate(body):
            cell = row[ci].strip()
            try:
                values.append(float(cell))
            except ValueError:
                raise IngestionError(
                    f"{path}: non-numeric value {cell!r} at row {ri + 2}, "
                    f"column {name!r}"
                ) from None
        return values

    if predictors is not None:
        missing = [p for p in predictors if p not in col_of]
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
        names = []
        for name in header:
            if name == response:
                continue
            cells = [row[col_of[name]].strip() for row in body]
            numeric = []
            ok = True
            for cell in cells:
                try:
                    numeric.append(float(cell))
                except ValueError:
                    ok = False
                    break
            if ok:
                names.append(name)
            elif not any(_is_number(c) for c in cells):
                logger.info("skipping non-numeric column %r", name)
            else:
                bad = next(
                    (ri, c) for ri, c in enumerate(cells) if not _is_number(c)
                )
                raise IngestionError(
                    f"{path}: non-numeric value {bad[1]!r} at row {bad[0] + 2}, "
                    f"column {name!r}"
                )
        if not names:
            raise IngestionError(f"{path}: no usable predictor columns")

    columns = {name: parse_column(name) for name in names}
    X = [[columns[name][ri] for name in names] for ri in range(len(body))]
    y = parse_column(response) if response is not None else None
    return X, y, names


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def append_prediction_csv(in_path, out_path, predictions, colname="prediction"):
    """Copy a CSV adding one prediction column; row order preserved."""
    header, body = _read_rows(in_path)
    if len(body) != len(predictions):
        raise IngestionError(
            f"{len(predictions)} predictions for {len(body)} data rows"
        )
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + [colname])
        for row, p in zip(body, predictions):
            writer.writerow(row + [repr(float(p))])


def load_json_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    try:
        from importlib.metadata import version

        return version("hbspline")
    except Exception:
        return "unknown"


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
    path = f"{out_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
