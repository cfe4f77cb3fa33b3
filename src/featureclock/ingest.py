"""CSV ingestion into validated datasets, plus run-configuration handling.

The accepted dialect is deliberately narrow: comma separator, one header row,
dot-decimal numbers, no missing values. Every malformed input becomes an
InputDataError with file/row/column context instead of a crash or a silent
truncation.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClockWarning, InputDataError


@dataclass(frozen=True)
class Provenance:
    """Where a dataset came from."""

    x_path: str
    y_path: str
    labels_path: str | None
    n_rows: int


@dataclass(frozen=True)
class Dataset:
    """High-dimensional features, their 2D embedding, and optional labels."""

    feature_names: tuple[str, ...]
    X: np.ndarray
    Y: np.ndarray
    labels: tuple[str, ...] | None
    provenance: Provenance


@dataclass(frozen=True)
class RunConfig:
    """Options shared by the clock builders, the renderer, and the CLI."""

    alpha: float = 0.05
    top_k: int | None = None
    theta_step_deg: float = 5.0
    standardize_x: bool = True
    center_y: bool = True
    standardize_betas: bool = False
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
    anchor: tuple[float, float] | None = None


def _read_table(path) -> tuple[list[str], list[list[float]]]:
    """Read a numeric CSV with a header row; report bad cells by row/column."""
    p = Path(path)
    if not p.is_file():
        raise InputDataError(f"input file not found: {p}")
    with open(p, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise InputDataError(f"{p}: file is empty") from None
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise InputDataError(
                    f"{p}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for colno, cell in enumerate(row, start=1):
                text = cell.strip()
                if not text:
                    raise InputDataError(
                        f"{p}: missing value at row {lineno}, column {colno}"
                    )
                try:
                    value = float(text)
                except ValueError:
                    raise InputDataError(
                        f"{p}: non-numeric value {text!r} at row {lineno}, column {colno}"
                    ) from None
                if not math.isfinite(value):
                    raise InputDataError(
                        f"{p}: non-finite value {text!r} at row {lineno}, column {colno}"
                    )
                values.append(value)
            rows.append(values)
    if not rows:
        raise InputDataError(f"{p}: no data rows")
    return header, rows


def _read_labels(path) -> list[str]:
    p = Path(path)
    if not p.is_file():
        raise InputDataError(f"input file not found: {p}")
    with open(p, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise InputDataError(f"{p}: file is empty") from None
        if header != ["label"]:
            raise InputDataError(f"{p}: labels file must have the single header 'label'")
        tokens: list[str] = []
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != 1:
                raise InputDataError(f"{p}: row {lineno} has {len(row)} cells, expected 1")
            token = row[0].strip()
            if not token:
                raise InputDataError(f"{p}: empty label at row {lineno}")
            tokens.append(token)
    if not tokens:
        raise InputDataError(f"{p}: no data rows")
    return tokens


def load_dataset(x_path, y_path, labels_path=None) -> Dataset:
    """Load and cross-validate the feature matrix, embedding, and labels files."""
    x_header, x_rows = _read_table(x_path)
    for idx, name in enumerate(x_header):
        if not name:
            raise InputDataError(f"{x_path}: feature name in column {idx + 1} is empty")
    seen: set[str] = set()
    for name in x_header:
        if name in seen:
            raise InputDataError(f"{x_path}: duplicate feature name {name!r}")
        seen.add(name)

    y_header, y_rows = _read_table(y_path)
    if len(y_header) != 2:
        raise InputDataError(
            f"{y_path}: embedding must have exactly 2 columns, found {len(y_header)}"
        )
    if len(y_rows) != len(x_rows):
        raise InputDataError(
            f"row-count mismatch: {x_path} has {len(x_rows)} rows "
            f"but {y_path} has {len(y_rows)}"
        )

    labels: tuple[str, ...] | None = None
    if labels_path is not None:
        tokens = _read_labels(labels_path)
        if len(tokens) != len(x_rows):
            raise InputDataError(
                f"row-count mismatch: {x_path} has {len(x_rows)} rows "
                f"but {labels_path} has {len(tokens)}"
            )
        labels = tuple(tokens)

    if len(x_rows) < 5:
        raise InputDataError(f"need at least 5 rows, found {len(x_rows)}")

    provenance = Provenance(
        str(x_path), str(y_path), str(labels_path) if labels_path else None, len(x_rows)
    )
    return Dataset(
        tuple(x_header),
        np.asarray(x_rows, dtype=float),
        np.asarray(y_rows, dtype=float),
        labels,
        provenance,
    )


def _nearest_divisor_step(step: float) -> float:
    """Smallest angle of the form 180/m (integer m >= 2) that is >= step.

    Steps above 90 degrees clamp to 90, the coarsest usable sweep.
    """
    m = int(180.0 / step + 1e-9)
    m = max(m, 2)
    return 180.0 / m


def _finite(name: str, value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise InputDataError(f"{name} must be a finite number, got {number}")
    return number


def validate_config(options=None, /, **overrides) -> RunConfig:
    """Apply defaults and range checks to raw options; returns a RunConfig.

    The projection step must divide 180 degrees; otherwise it is adjusted to
    the nearest achievable divisor and a warning is emitted.
    """
    raw = dict(options or {})
    raw.update(overrides)
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

    if merged["top_k"] is not None:
        top_k = int(merged["top_k"])
        if top_k < 1:
            raise InputDataError(f"top_k must be at least 1, got {top_k}")
        merged["top_k"] = top_k

    step = _finite("theta_step", merged["theta_step_deg"])
    if step <= 0:
        raise InputDataError(f"theta_step must be positive, got {step}")
    lines = 180.0 / step
    if abs(lines - round(lines)) > 1e-9 or round(lines) < 2:
        adjusted = _nearest_divisor_step(step)
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

    space = str(merged["cluster_on"]).lower()
    if space not in ("x", "y"):
        raise InputDataError(f"cluster space must be 'x' or 'y', got {space!r}")
    merged["cluster_on"] = space

    if merged["cluster_eps"] is not None:
        merged["cluster_eps"] = _finite("eps", merged["cluster_eps"])
    if merged["cluster_method"] is not None:
        method = str(merged["cluster_method"]).lower()
        if method not in ("kmeans", "dbscan"):
            raise InputDataError(f"cluster method must be 'kmeans' or 'dbscan', got {method!r}")
        merged["cluster_method"] = method
        if method == "kmeans" and int(merged["cluster_k"]) < 1:
            raise InputDataError("kmeans needs k >= 1")
        if method == "dbscan":
            if merged["cluster_eps"] is None or merged["cluster_eps"] <= 0:
                raise InputDataError("dbscan needs eps > 0")
            if int(merged["cluster_min_pts"]) < 1:
                raise InputDataError("dbscan needs min_pts >= 1")

    canvas = merged["canvas"]
    try:
        width, height = (int(canvas[0]), int(canvas[1]))
    except (TypeError, ValueError, IndexError):
        raise InputDataError(f"canvas must be a (width, height) pair, got {canvas!r}") from None
    if width < 100 or height < 100:
        raise InputDataError(f"canvas must be at least 100x100, got {width}x{height}")
    merged["canvas"] = (width, height)

    merged["seed"] = int(merged["seed"])
    merged["cluster_k"] = int(merged["cluster_k"])
    merged["cluster_min_pts"] = int(merged["cluster_min_pts"])
    if merged["anchor"] is not None:
        ax, ay = merged["anchor"]
        merged["anchor"] = (_finite("anchor x", ax), _finite("anchor y", ay))

    return RunConfig(**merged)
