"""CSV ingestion into validated datasets, plus run-configuration handling.

Every input file is UTF-8, with or without a byte-order mark: comma
separator, one header row, no missing values. The csv module reads headers and
labels. Each numeric table is converted by one ``np.loadtxt`` call, so a cell
is a plain ASCII decimal or exponent float, optionally quoted or padded with
whitespace. Only a table that loadtxt refuses, or that has the wrong width or
a non-finite value, is read again by the csv module, cell by cell, to raise an
InputDataError naming the file's first fault by row and column.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ClockWarning, ComputationError, InputDataError
from .numstats import as_matrix


@dataclass(frozen=True)
class Provenance:
    """Where a dataset came from."""

    x_path: str
    y_path: str
    labels_path: str | None


def _name_fault(names) -> str | None:
    """What is wrong with a list of feature names: the first empty one, else the first repeat."""
    for idx, name in enumerate(names):
        if not name:
            return f"feature name in column {idx + 1} is empty"
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return f"duplicate feature name {name!r}"
        seen.add(name)
    return None


@dataclass(frozen=True)
class Dataset:
    """High-dimensional features, their 2D embedding, and optional labels.

    A Dataset checks itself when it is made, so every clock builder reads it
    unchecked. X and Y become finite, non-empty 2-D float64 arrays (a float64
    array is kept, not copied), Y has 2 columns and as many rows as X, and
    the names, stored as a tuple, are one distinct, non-empty name per column
    of X. The labels, if any, are stored as a tuple of one token per row of X.
    A fault raises ComputationError.
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    Y: np.ndarray
    labels: tuple[str, ...] | None
    provenance: Provenance

    def __post_init__(self):
        x = as_matrix(self.X, name="X")
        y = as_matrix(self.Y, name="Y")
        if y.shape[1] != 2:
            raise ComputationError(f"embedding must have 2 columns, got {y.shape[1]}")
        if x.shape[0] != y.shape[0]:
            raise ComputationError(f"X has {x.shape[0]} rows but the embedding has {y.shape[0]}")
        names = tuple(self.feature_names)
        if len(names) != x.shape[1]:
            raise ComputationError(f"got {len(names)} feature names for {x.shape[1]} features")
        fault = _name_fault(names)
        if fault:
            raise ComputationError(fault)
        labels = None if self.labels is None else tuple(self.labels)
        if labels is not None and len(labels) != x.shape[0]:
            raise ComputationError(f"{len(labels)} labels for {x.shape[0]} points")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)


@dataclass(frozen=True)
class RunConfig:
    """Options shared by the clock builders, the renderer, and the CLI."""

    alpha: float = 0.05
    top_k: int | None = None
    theta_step_deg: float = 5.0
    standardize_x: bool = True
    clock_scale: float = 1.0
    significance_rule: str = "or"
    circles: bool = False
    seed: int = 0
    cluster_method: str | None = None
    cluster_k: int = 2
    cluster_eps: float | None = None
    cluster_min_pts: int = 5
    cluster_on: str = "x"
    canvas: tuple[int, int] = (900, 600)


def _rows(p: Path):
    """Yield a CSV file's stripped header, then (record number, cells) per non-blank row."""
    if not p.is_file():
        raise InputDataError(f"input file not found: {p}")
    try:
        with open(p, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise InputDataError(f"{p}: file is empty")
            yield [cell.strip() for cell in header]
            rows = ((lineno, row) for lineno, row in enumerate(reader, start=1) if row)
            first = next(rows, None)
            if first is None:
                raise InputDataError(f"{p}: no data rows")
            yield first
            yield from rows
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputDataError(f"{p}: {exc}") from None


def _first_fault(p: Path, width: int, numbered) -> None:
    """Raise the first malformed row or cell of a numeric table that loadtxt refused."""
    for lineno, row in numbered:
        if len(row) != width:
            raise InputDataError(f"{p}: row {lineno} has {len(row)} cells, expected {width}")
        for colno, cell in enumerate(row, start=1):
            text, where = cell.strip(), f"at row {lineno}, column {colno}"
            if not text:
                raise InputDataError(f"{p}: missing value {where}")
            try:
                if not text.isascii() or "_" in text:  # float() reads these; loadtxt does not
                    raise ValueError(text)
                value = float(text)
            except ValueError:
                raise InputDataError(f"{p}: non-numeric value {text!r} {where}") from None
            if not math.isfinite(value):
                raise InputDataError(f"{p}: non-finite value {text!r} {where}")
    raise AssertionError(f"{p}: loadtxt refused the table but no row or cell is faulty")


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with a header row; report bad cells by row/column."""
    p = Path(path)
    rows = _rows(p)
    # raises on a missing, empty or row-less file; loadtxt only warns on the last
    header, first = next(rows), next(rows)
    with suppress(ValueError), open(p, encoding="utf-8-sig", newline="") as handle:
        next(csv.reader(handle))  # the header record, which may span lines
        values = np.loadtxt(handle, delimiter=",", quotechar='"', comments=None, ndmin=2)
        # NaN propagates through min and max and an infinity is one of them,
        # so two reductions decide finiteness without a full-size mask. The
        # Dataset checks again, but only this check names the faulty cell
        if values.shape[1] == len(header) and math.isfinite(values.min()) and math.isfinite(values.max()):
            return header, values
    _first_fault(p, len(header), chain([first], rows))


def _read_labels(path) -> list[str]:
    p = Path(path)
    rows = _rows(p)
    if next(rows) != ["label"]:
        raise InputDataError(f"{p}: labels file must have the single header 'label'")
    tokens: list[str] = []
    for lineno, row in rows:
        if len(row) != 1:
            raise InputDataError(f"{p}: row {lineno} has {len(row)} cells, expected 1")
        token = row[0].strip()
        if not token:
            raise InputDataError(f"{p}: empty label at row {lineno}")
        tokens.append(token)
    return tokens


def load_dataset(x_path, y_path, labels_path=None) -> Dataset:
    """Load and cross-validate the feature matrix, embedding, and labels files."""
    x_header, X = _read_table(x_path)
    fault = _name_fault(x_header)
    if fault:
        raise InputDataError(f"{x_path}: {fault}")
    n = X.shape[0]

    y_header, Y = _read_table(y_path)
    if len(y_header) != 2:
        raise InputDataError(
            f"{y_path}: embedding must have exactly 2 columns, found {len(y_header)}"
        )
    if Y.shape[0] != n:
        raise InputDataError(
            f"row-count mismatch: {x_path} has {n} rows but {y_path} has {Y.shape[0]}"
        )

    labels = None if labels_path is None else tuple(_read_labels(labels_path))
    if labels is not None and len(labels) != n:
        raise InputDataError(
            f"row-count mismatch: {x_path} has {n} rows but {labels_path} has {len(labels)}"
        )

    if n < 5:
        raise InputDataError(f"need at least 5 rows, found {n}")

    provenance = Provenance(str(x_path), str(y_path), str(labels_path) if labels_path else None)
    return Dataset(tuple(x_header), X, Y, labels, provenance)


def _finite(name: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputDataError(f"{name} must be a finite number, got {value!r}") from None
    if not math.isfinite(number):
        raise InputDataError(f"{name} must be a finite number, got {number}")
    return number


def _whole(value, number: int) -> bool:
    """Whether ``int(value)`` gave ``number`` without dropping a fraction."""
    # int() of a string succeeds only on a whole number; of anything else it truncates
    return isinstance(value, (str, bytes)) or number == value


def _integer(name: str, value) -> int:
    try:
        number = int(value)
        if _whole(value, number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputDataError(f"{name} must be an integer, got {value!r}")


def cluster_space(value) -> str:
    """The space a clustering reads, lower-cased: "x" (the features) or "y" (the embedding)."""
    space = str(value).lower()
    if space not in ("x", "y"):
        raise InputDataError(f"cluster space must be 'x' or 'y', got {space!r}")
    return space


def validate_config(options=None, /) -> RunConfig:
    """Apply defaults and range checks to a dict of raw options; returns a RunConfig.

    Keys are RunConfig field names; a None value keeps the default. The
    projection step must be at least 0.1 degrees (1800 lines). A step that
    does not divide 180 degrees is raised to the next step of the form 180/m,
    and a step above 90 is clamped to 90; both warn.
    """
    raw = dict(options or {})
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise InputDataError(f"unknown options: {', '.join(unknown)}")

    merged = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    merged.update({k: v for k, v in raw.items() if v is not None})

    alpha = _finite("alpha", merged["alpha"])
    if not 0.0 < alpha <= 1.0:
        raise InputDataError(f"alpha must be in (0, 1], got {alpha}")
    merged["alpha"] = alpha

    for key in ("seed", "cluster_k", "cluster_min_pts"):
        merged[key] = _integer(key, merged[key])

    if merged["top_k"] is not None:
        top_k = _integer("top_k", merged["top_k"])
        if top_k < 1:
            raise InputDataError(f"top_k must be at least 1, got {top_k}")
        merged["top_k"] = top_k

    step = _finite("theta_step", merged["theta_step_deg"])
    if step < 0.1:
        raise InputDataError(f"theta_step must be at least 0.1 degrees, got {step}")
    lines = 180.0 / step
    if abs(lines - round(lines)) > 1e-9 or round(lines) < 2:
        adjusted = 180.0 / max(2, int(lines + 1e-9))
        warnings.warn(
            f"theta_step {step} does not divide 180 into at least 2 lines; "
            f"using {adjusted}",
            ClockWarning,
            stacklevel=2,
        )
        step = adjusted
    merged["theta_step_deg"] = step

    scale = _finite("scale", merged["clock_scale"])
    if scale <= 0:
        raise InputDataError(f"scale must be positive, got {scale}")
    merged["clock_scale"] = scale

    rule = str(merged["significance_rule"]).lower()
    if rule not in ("or", "and"):
        raise InputDataError(f"significance rule must be 'or' or 'and', got {rule!r}")
    merged["significance_rule"] = rule

    merged["cluster_on"] = cluster_space(merged["cluster_on"])

    if merged["cluster_eps"] is not None:
        merged["cluster_eps"] = _finite("eps", merged["cluster_eps"])
    if merged["cluster_method"] is not None:
        method = str(merged["cluster_method"]).lower()
        if method not in ("kmeans", "dbscan"):
            raise InputDataError(f"cluster method must be 'kmeans' or 'dbscan', got {method!r}")
        merged["cluster_method"] = method
        if method == "kmeans" and merged["cluster_k"] < 1:
            raise InputDataError("kmeans needs k >= 1")
        if method == "dbscan":
            if merged["cluster_eps"] is None or merged["cluster_eps"] <= 0:
                raise InputDataError("dbscan needs eps > 0")
            if merged["cluster_min_pts"] < 1:
                raise InputDataError("dbscan needs min_pts >= 1")

    canvas = merged["canvas"]
    try:
        width, height = (int(canvas[0]), int(canvas[1]))
        float(width), float(height)  # the renderer draws in floats
    except (TypeError, ValueError, IndexError):
        raise InputDataError(f"canvas must be a (width, height) pair, got {canvas!r}") from None
    except OverflowError:
        raise InputDataError(f"canvas sides must be finite numbers, got {canvas[0]}x{canvas[1]}") from None
    if not (_whole(canvas[0], width) and _whole(canvas[1], height)):
        raise InputDataError(f"canvas sides must be integers, got {canvas[0]}x{canvas[1]}")
    if width < 100 or height < 100:
        raise InputDataError(f"canvas must be at least 100x100, got {width}x{height}")
    merged["canvas"] = (width, height)

    if merged["seed"] < 0:
        raise InputDataError(f"seed must be non-negative, got {merged['seed']}")

    return RunConfig(**merged)
