"""CSV ingestion and output, and versioned JSON model persistence.

One formatting rule: every number in a CSV cell or '#' line is ``str`` of a
Python or numpy scalar, for a float its shortest round-trip repr.  So
repeated runs with the same inputs produce byte-identical artifacts, and a
saved model (whose JSON floats are repr too) reloads to exactly the fitted
values.  Numeric tables go to ``write_csv`` as 2-D arrays, short mixed ones
as lists of rows.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import CSVParseError
from .hierarchy import ScaleRecord, SparseModel
from .kernel import Dataset
from .predict import _BLOCK_ROWS

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


def _integral(value, field: str) -> int:
    """``value`` as an int, or ``ValueError`` naming ``field`` unless it is an
    integral number: ``int`` would truncate 1.5 and read True as 1."""
    if not isinstance(value, bool) and (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        return int(value)
    raise ValueError(f"invalid model: needs {field} an integral number, got {value!r}")


def _numbers(value, field: str) -> np.ndarray:
    """A number or nested lists of numbers as floats; unlike ``float``, refuses "1.5" and true."""
    cells = np.asarray(value, dtype=object)
    if all(k is not bool and issubclass(k, numbers.Real) for k in set(map(type, cells.flat))):
        return cells.astype(float)
    raise ValueError(f"invalid model: needs {field} numbers, not strings or booleans")


def _record_from_dict(d: dict, field: str) -> ScaleRecord:
    return ScaleRecord(
        s=_integral(d["s"], f"{field}.s"),
        epsilon_s=float(_numbers(d["epsilon_s"], f"{field}.epsilon_s")),
        l_s=_integral(d["l_s"], f"{field}.l_s"),
        comp_s=float(_numbers(d["comp_s"], f"{field}.comp_s")),
        cost=math.inf if d["cost"] is None else float(_numbers(d["cost"], f"{field}.cost")),
        lam=None if d["lambda"] is None else _numbers(d["lambda"], f"{field}.lambda"),
        q=None if d["q"] is None else tuple(_integral(v, f"{field}.q") for v in d["q"]),
        seed=_integral(d["seed"], f"{field}.seed"),
        points=_numbers(d["points"], f"{field}.points"),
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


def _record_rules(rec: ScaleRecord, i: int, d: int) -> list:
    """(holds, rule) pairs of history record ``i`` of a model on d dimensions; a
    null cost (inf) marks an unfit scale, which alone has no lambda and q."""
    at = f"history[{i}]"
    unfit = rec.cost == math.inf
    lam = np.empty(0) if rec.lam is None else rec.lam
    numbers = np.concatenate([[rec.epsilon_s, rec.comp_s, 0.0 if unfit else rec.cost],
                              lam.ravel()])
    return [
        (rec.s == i, f"{at}.s equal to {i}"),
        (rec.points.shape == (rec.l_s, d) and np.isfinite(rec.points).all(),
         f"{at}.points a finite l_s x d table"),
        (np.isfinite(numbers).all(), f"{at} numbers finite, bar a null cost"),
        (rec.lam is None or (lam.shape == (d,) and np.all(lam > 0)),
         f"{at}.lambda d values > 0, or null"),
        (rec.q is None or (len(rec.q) == d and set(rec.q) <= {1, 2}),
         f"{at}.q d entries in {{1, 2}}, or null"),
        ((rec.lam is None) == (rec.q is None) == unfit,
         f"{at}.lambda and q null exactly when its cost is"),
    ]


def _check_model(model: SparseModel) -> SparseModel:
    """``model``, or ``ValueError`` naming the first rule of a model file it breaks
    (Y_t, which no prediction reads, need not match X_t's length).  The served
    scale's epsilon_t, X_t, Lambda_t and Q_t are checked once, as equal to those
    of the fit record ``history[t]``, whose rules bound them."""
    X = model.X_t
    m, d = X.shape if X.ndim == 2 else (0, 0)
    rules = [
        (m >= 1 and d >= 1, "X_t a nonempty m x d table"),
        (model.C_t.shape == (m,), "C_t of length m"),
        (np.isfinite(model.Y_t).all() and np.isfinite(model.C_t).all(), "Y_t and C_t finite"),
        (0.0 < model.epsilon_t < math.inf, "epsilon_t finite and > 0"),
        (model.n_train >= m, "n_train >= m"),
        (0 <= model.t < len(model.history), "t an index of history"),
    ]
    for i, rec in enumerate(model.history):
        rules += _record_rules(rec, i, d)
    if 0 <= model.t < len(model.history):  # the served scale is the record it came from
        rec, at = model.history[model.t], f"history[{model.t}]"
        rules += [
            (rec.cost < math.inf, f"{at} fit (a finite cost)"),
            (rec.epsilon_s == model.epsilon_t and rec.q == model.Q_t
             and np.array_equal(rec.lam, model.Lambda_t) and np.array_equal(rec.points, X),
             f"{at}.epsilon_s, q, lambda and points equal to epsilon_t, Q_t, Lambda_t and X_t"),
        ]
    for ok, rule in rules:
        if not ok:
            raise ValueError(f"invalid model: needs {rule}")
    return model


def model_from_dict(d: dict) -> SparseModel:
    return _check_model(SparseModel(
        t=_integral(d["t"], "t"),
        epsilon_t=float(_numbers(d["epsilon_t"], "epsilon_t")),
        X_t=_numbers(d["X_t"], "X_t"),
        Y_t=_numbers(d["Y_t"], "Y_t"),
        C_t=_numbers(d["C_t"], "C_t"),
        Lambda_t=_numbers(d["Lambda_t"], "Lambda_t"),
        Q_t=tuple(_integral(v, "Q_t") for v in d["Q_t"]),
        n_train=_integral(d["n_train"], "n_train"),
        history=[_record_from_dict(r, f"history[{i}]") for i, r in enumerate(d["history"])],
    ))


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


def write_csv(path, header: list[str], rows, meta: dict | None = None) -> None:
    """Plain CSV under optional '#' metadata lines, every cell and value ``str``.

    ``rows`` is a 2-D array or equal-length row lists that may mix ints,
    floats, numpy scalars and strings such as ``"1;2"``.  Columns (an array's
    as Python floats) are formatted whole and zipped into rows: faster than
    row by row, and the same text.  An array is formatted 1536 rows at a time
    (``predict._BLOCK_ROWS``), so only one block is held as Python objects.
    """
    if isinstance(rows, np.ndarray):
        blocks = (rows[a:a + _BLOCK_ROWS].T.tolist() for a in range(0, len(rows), _BLOCK_ROWS))
    else:
        blocks = [zip(*rows)]
    head = [f"# {key}={val}" for key, val in (meta or {}).items()] + [",".join(header)]
    body = chain.from_iterable(
        map(",".join, zip(*(map(str, col) for col in columns))) for columns in blocks)
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
    The file is UTF-8; a byte order mark, as spreadsheet exports write, is
    skipped.  With ``has_header``, a first row of finite numbers is rejected
    too: it is a data row, and skipping it would drop a point without notice.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise CSVParseError(f"{path}: not UTF-8 text") from None
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
