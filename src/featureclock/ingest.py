"""CSV ingestion into validated datasets, and the run configuration.

Every input file is UTF-8, with or without a byte-order mark: comma
separator, one header row, no missing values. The csv module reads headers and
labels. Each numeric table is converted by one ``np.loadtxt`` call, so a cell
is a plain ASCII decimal or exponent float, optionally quoted or padded with
whitespace. Only a table that loadtxt refuses, or that has the wrong width or
a non-finite value, is read again by the csv module, cell by cell, to raise an
InputDataError naming the file's first fault by row and column.

A Dataset is its arrays alone: feature names, X, its 2D embedding Y and
optional labels, with X and Y stored read-only (``load_dataset``'s without a
copy). A Dataset and a RunConfig each check themselves when they are made;
``validate_config`` is the RunConfig's front door for a dict of raw options.
The groupings and the renderer share its rules: count, positive, cluster_space and canvas_size.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ComputationError, InputDataError
from .numstats import as_matrix


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


def _read_only(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, the float64 form of ``given``, marked read-only; a copy if the caller could write into it."""
    converted = isinstance(given, np.ndarray) and given.dtype != arr.dtype  # into fresh memory
    if not (arr.flags.owndata and (converted or not arr.flags.writeable)):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """High-dimensional features, their 2D embedding, and optional labels.

    A Dataset checks itself when it is made, so every clock builder reads it
    unchecked. X and Y become finite, non-empty 2-D float64 arrays, Y has 2
    columns and as many rows as X, and the names, stored as a tuple, are one
    distinct, non-empty name per column of X. The labels, if any, are stored
    as a tuple of one token per row of X. A fault raises ComputationError.

    X and Y are stored read-only, so no later write can undo the check. An
    array that owns its memory and is read-only already is kept as it is; a
    writable float64 array or a view is copied, and the caller's array stays
    writable.
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    Y: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        x = _read_only(as_matrix(self.X, name="X"), self.X)
        y = _read_only(as_matrix(self.Y, name="Y"), self.Y)
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


SIGNIFICANCE_RULES = ("or", "and")
CLUSTER_SPACES = ("x", "y")
CANVAS_MARGIN = 50.0  # px the renderer leaves blank on each side of the canvas
_BOOLS = (bool, np.bool_)  # never a count or a number: int() and float() of None raise


@dataclass(frozen=True)
class RunConfig:
    """Options shared by the clock builders, the renderer, and the CLI.

    A RunConfig checks itself when made, also by :func:`validate_config` or
    ``dataclasses.replace``, raising InputDataError. alpha is in (0, 1]; the
    counts obey :func:`count` (top_k, k-means' k and DBSCAN's min_pts at least
    1, the seed at least 0), DBSCAN's eps and the scale :func:`positive`, and
    the switches are bools. Only one rule reads two fields: DBSCAN needs an
    eps. Numbers are stored as floats, counts as ints, and the rule, cluster
    method and space lower-cased. A canvas side must exceed twice
    ``CANVAS_MARGIN``.
    """

    alpha: float = 0.05
    top_k: int | None = None
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

    def __post_init__(self):
        put = partial(object.__setattr__, self)  # stores a frozen field's normalized value
        put("alpha", _finite("alpha", self.alpha))
        if not 0.0 < self.alpha <= 1.0:
            raise InputDataError(f"alpha must be in (0, 1], got {self.alpha}")
        put("top_k", None if self.top_k is None else count("top_k", self.top_k, 1))
        put("clock_scale", positive("scale", self.clock_scale))
        put("significance_rule", _choice("significance rule", self.significance_rule, SIGNIFICANCE_RULES))
        put("seed", count("seed", self.seed, 0))
        if self.cluster_method is not None:
            put("cluster_method", _choice("cluster method", self.cluster_method, ("kmeans", "dbscan")))
        put("cluster_k", count("k", self.cluster_k, 1))
        if self.cluster_eps is not None or self.cluster_method == "dbscan":  # DBSCAN needs an eps
            put("cluster_eps", positive("eps", self.cluster_eps))
        put("cluster_min_pts", count("min_pts", self.cluster_min_pts, 1))
        put("cluster_on", cluster_space(self.cluster_on))
        put("canvas", canvas_size(self.canvas))
        for name in ("standardize_x", "circles"):
            if not isinstance(getattr(self, name), bool):
                raise InputDataError(f"{name} must be True or False, got {getattr(self, name)!r}")


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

    X.flags.writeable = Y.flags.writeable = False  # fresh arrays: the Dataset keeps them as they are
    return Dataset(tuple(x_header), X, Y, labels)


def _finite(name: str, value) -> float:
    try:
        number = float(None if isinstance(value, _BOOLS) else value)
    except (TypeError, ValueError, OverflowError):
        raise InputDataError(f"{name} must be a finite number, got {value!r}") from None
    if not math.isfinite(number):
        raise InputDataError(f"{name} must be a finite number, got {number}")
    return number


def positive(name: str, value) -> float:
    """``value`` as a finite float above 0."""
    number = _finite(name, value)
    if number <= 0:
        raise InputDataError(f"{name} must be positive, got {number}")
    return number


def _whole(value, number: int) -> bool:
    """Whether ``int(value)`` gave ``number`` without dropping a fraction."""
    # int() of a string succeeds only on a whole number; of anything else it truncates
    return isinstance(value, (str, bytes)) or number == value


def count(name: str, value, low: int) -> int:
    """``value`` as an int of at least ``low``: a whole number or an integer string, not a fraction."""
    number = None
    with suppress(TypeError, ValueError, OverflowError):
        number = int(None if isinstance(value, _BOOLS) else value)
    if number is None or not _whole(value, number):
        raise InputDataError(f"{name} must be an integer, got {value!r}")
    if number < low:
        raise InputDataError(f"{name} must be {f'at least {low}' if low else 'non-negative'}, got {number}")
    return number


def _choice(what: str, value, choices: tuple[str, ...]) -> str:
    """``value`` lower-cased, which must be one of ``choices``."""
    choice = str(value).lower()
    if choice not in choices:
        raise InputDataError(f"{what} must be {' or '.join(map(repr, choices))}, got {choice!r}")
    return choice


def cluster_space(value) -> str:
    """The space a clustering reads, lower-cased: "x" (the features) or "y" (the embedding)."""
    return _choice("cluster space", value, CLUSTER_SPACES)


def canvas_size(canvas) -> tuple[int, int]:
    """A canvas's (width, height) as ints; each side must exceed twice ``CANVAS_MARGIN``."""
    try:
        w, h = canvas  # exactly two sides: not three, nor the characters of "900x600"
    except (TypeError, ValueError):
        raise InputDataError(f"canvas must be a (width, height) pair, got {canvas!r}") from None
    try:
        width, height = int(w), int(h)
        float(width), float(height)  # the renderer draws in floats
    except OverflowError:
        raise InputDataError(f"canvas sides must be finite numbers, got {w}x{h}") from None
    except (TypeError, ValueError):  # "900.5", "abc", None
        width = height = None
    if width is None or not (_whole(w, width) and _whole(h, height)):
        raise InputDataError(f"canvas sides must be integers, got {w}x{h}")
    bound = 2 * CANVAS_MARGIN
    if min(width, height) <= bound:
        raise InputDataError(f"canvas sides must exceed {bound:g} px, twice the margin, got {width}x{height}")
    return width, height


def validate_config(options=None, /) -> RunConfig:
    """``RunConfig(**options)`` that rejects unknown keys; a None value keeps the field's default."""
    raw = dict(options or {})
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise InputDataError(f"unknown options: {', '.join(unknown)}")
    return RunConfig(**{key: value for key, value in raw.items() if value is not None})
