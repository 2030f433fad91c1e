"""CSV ingestion and output, and versioned JSON model persistence.

All floats are written with ``repr`` (shortest round-trip form), so repeated
runs with the same inputs produce byte-identical artifacts and a saved model
reloads to exactly the fitted values.  Numeric tables are passed to
``write_csv`` as 2-D arrays and formatted a column at a time; short tables
that mix ints and strings are passed as lists of rows.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import CSVParseError
from .hierarchy import ScaleRecord, SparseModel
from .kernel import Dataset

SCHEMA_VERSION = 2
# version 1 also stored df_res_inputs (tr U, tr U U^T), which nothing read
READABLE_VERSIONS = (1, 2)


def ingest_csv(path, has_header: bool = False) -> Dataset:
    """Read rows of d feature columns followed by one target column.

    Parses as ``read_points_csv`` (same diagnostics), then splits off the last
    column as the target; at least two columns are required.
    """
    table = read_points_csv(path, has_header)
    if table.shape[1] < 2:
        raise CSVParseError(
            f"{path}: rows have {table.shape[1]} column(s); "
            "need at least one feature and one target"
        )
    return Dataset(X=np.ascontiguousarray(table[:, :-1]), Y=table[:, -1])


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _num(x):
    # JSON-safe scalar: infinities map to null (failed-scale sentinel)
    x = float(x)
    return x if math.isfinite(x) else None


def _record_to_dict(rec: ScaleRecord) -> dict:
    return {
        "s": rec.s,
        "epsilon_s": rec.epsilon_s,
        "l_s": rec.l_s,
        "comp_s": rec.comp_s,
        "cost": _num(rec.cost),
        "lambda": None if rec.lam is None else [float(v) for v in rec.lam],
        "q": None if rec.q is None else [int(v) for v in rec.q],
        "seed": rec.seed,
        "points": rec.points.tolist(),
    }


def _record_from_dict(d: dict) -> ScaleRecord:
    return ScaleRecord(
        s=int(d["s"]),
        epsilon_s=float(d["epsilon_s"]),
        l_s=int(d["l_s"]),
        comp_s=float(d["comp_s"]),
        cost=math.inf if d["cost"] is None else float(d["cost"]),
        lam=None if d["lambda"] is None else np.asarray(d["lambda"], dtype=float),
        q=None if d["q"] is None else tuple(int(v) for v in d["q"]),
        seed=int(d["seed"]),
        points=np.asarray(d["points"], dtype=float),
    )


def model_to_dict(model: SparseModel) -> dict:
    return {
        "t": model.t,
        "epsilon_t": model.epsilon_t,
        "X_t": model.X_t.tolist(),
        "Y_t": model.Y_t.tolist(),
        "C_t": model.C_t.tolist(),
        "Lambda_t": [float(v) for v in model.Lambda_t],
        "Q_t": [int(v) for v in model.Q_t],
        "n_train": model.n_train,
        "history": [_record_to_dict(rec) for rec in model.history],
    }


def model_from_dict(d: dict) -> SparseModel:
    return SparseModel(
        t=int(d["t"]),
        epsilon_t=float(d["epsilon_t"]),
        X_t=np.asarray(d["X_t"], dtype=float),
        Y_t=np.asarray(d["Y_t"], dtype=float),
        C_t=np.asarray(d["C_t"], dtype=float),
        Lambda_t=np.asarray(d["Lambda_t"], dtype=float),
        Q_t=tuple(int(v) for v in d["Q_t"]),
        n_train=int(d["n_train"]),
        history=[_record_from_dict(r) for r in d["history"]],
    )


def save_model(path, model: SparseModel, parameters: dict, provenance: dict) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model_to_dict(model),
        "parameters": parameters,
        "provenance": provenance,
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_model(path) -> tuple[SparseModel, dict, dict]:
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version not in READABLE_VERSIONS:
        raise ValueError(f"unsupported model schema_version {version!r}")
    model = model_from_dict(payload["model"])
    return model, payload.get("parameters", {}), payload.get("provenance", {})


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header: list[str], rows, meta: dict | None = None) -> None:
    """Plain CSV with repr-formatted numbers and optional '#' metadata lines.

    ``rows`` has one entry per CSV row.  A 2-D numpy array is formatted one
    column at a time (``repr`` of each Python float, lazily zipped into rows),
    which gives the same text as formatting it cell by cell; a sequence of
    row lists may mix ints, floats and ready-made strings such as ``"1;2"``.
    """
    head = []
    if meta:
        for key, val in meta.items():
            text = _fmt(val) if isinstance(val, (int, float, np.floating, np.integer)) else str(val)
            head.append(f"# {key}={text}")
    head.append(",".join(header))
    if isinstance(rows, np.ndarray):
        body = map(",".join, zip(*(map(repr, col) for col in rows.T.tolist())))
    else:
        body = (",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows)
    with open(path, "w") as fh:
        fh.writelines(map("{}\n".format, chain(head, body)))


def export_dataset_csv(path, dataset: Dataset) -> None:
    cols = [f"x_{j + 1}" for j in range(dataset.d)] + ["y"]
    write_csv(path, cols, np.column_stack([dataset.X, dataset.Y]))


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def read_points_csv(path, has_header: bool = False) -> np.ndarray:
    """Query points: every column is a coordinate (no target column).

    Rejects ragged rows, non-numeric cells, and nonfinite values with a
    diagnostic naming the offending row (1-based, header included) and column.
    With ``has_header``, a first row of finite numbers is rejected too: it is
    a data row, and skipping it would drop a point without notice.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if has_header and rows and rows[0] and all(_is_finite_number(c) for c in rows[0]):
        raise CSVParseError(
            f"{path}: row 1 is read as a header but holds only numbers; "
            "is this file header-less?"
        )
    start = 1 if has_header else 0
    data_rows = [(i + 1, row) for i, row in enumerate(rows) if i >= start and row]
    if not data_rows:
        raise CSVParseError(f"{path}: no data rows")
    width = len(data_rows[0][1])
    out = np.empty((len(data_rows), width))
    for out_i, (rownum, row) in enumerate(data_rows):
        if len(row) != width:
            raise CSVParseError(
                f"{path}: row {rownum} has {len(row)} columns, expected {width}"
            )
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise CSVParseError(
                    f"{path}: row {rownum}, column {col + 1}: "
                    f"non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise CSVParseError(
                    f"{path}: row {rownum}, column {col + 1}: "
                    f"nonfinite value {cell!r}"
                )
            out[out_i, col] = value
    return out
