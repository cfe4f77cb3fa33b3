"""Clock construction from an embedding and its high-dimensional features.

A clock summarizes, per feature, the direction in the 2D embedding along
which that feature's linear influence is strongest. Two regressions (targets:
the x and y coordinates of the centered embedding) give the coefficient pair
(beta0, beta90) per feature; the strongest contribution has magnitude
sqrt(beta0^2 + beta90^2) at the full-quadrant angle of that pair, so no sweep
over angles is needed. The coefficient at any angle follows from the pair,
beta_theta = beta0*cos(theta) + beta90*sin(theta); over all angles it traces
the circle whose diameter runs from the origin to (beta0, beta90), which
``render.render_circles`` draws exactly. ``numstats.fit_design`` builds,
sizes and names the ``numstats.Design`` that both fits read: a clock's pair
of axis regressions here, and an edge's logistic fit in ``intergroup``. The
fits raise the too-small and rank errors, named by the Design.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClockWarning, ComputationError, GroupTooSmallError
from .ingest import Dataset, RunConfig
from .numstats import center_columns, distinct, fit_design, ols_fit


def unit_vector(angle_deg: float) -> tuple[float, float]:
    """Unit direction for an angle in degrees; exact on the four axes."""
    a = angle_deg % 360.0
    if a == 0.0:
        return 1.0, 0.0
    if a == 90.0:
        return 0.0, 1.0
    if a == 180.0:
        return -1.0, 0.0
    if a == 270.0:
        return 0.0, -1.0
    rad = math.radians(a)
    return math.cos(rad), math.sin(rad)


def max_contribution(beta0: float, beta90: float) -> tuple[float, float]:
    """Strongest contribution reachable over all projection angles.

    Returns (magnitude, angle_deg) with the angle in [0, 360); the zero pair
    maps to (0, 0) by convention.
    """
    if not (math.isfinite(beta0) and math.isfinite(beta90)):
        raise ComputationError("coefficients must be finite")
    magnitude = math.hypot(beta0, beta90)
    if magnitude == 0.0:
        return 0.0, 0.0
    angle = math.degrees(math.atan2(beta90, beta0)) % 360.0
    if angle >= 360.0:  # -tiny % 360 rounds up to 360 in floats
        angle = 0.0
    return magnitude, angle


@dataclass(frozen=True)
class ClockArrow:
    """One feature's strongest contribution and its significance evidence."""

    feature: str
    beta0: float
    beta90: float
    magnitude: float
    angle_deg: float
    p0: float
    p90: float
    significant: bool


@dataclass(frozen=True)
class Clock:
    """A clock glyph: anchored, scaled, with arrows sorted by impact."""

    variant: str
    anchor: tuple[float, float]
    scale: float
    arrows: tuple[ClockArrow, ...]
    member_count: int
    group: str | None = None


def select_arrows(arrows, config: RunConfig, where: str) -> tuple[ClockArrow, ...]:
    """The significant arrows, strongest first, cut to ``config.top_k``.

    Warns when none is left; ``where`` prefixes the message.
    """
    significant = sorted((a for a in arrows if a.significant), key=lambda a: -a.magnitude)
    if config.top_k is not None:
        significant = significant[: config.top_k]
    if not significant:
        warnings.warn(
            f"{where}: no significant features at alpha={config.alpha}",
            ClockWarning,
            stacklevel=3,
        )
    return tuple(significant)


def check_coverage(dataset: Dataset, grouping) -> None:
    """Raise ComputationError unless ``grouping`` labels every row of ``dataset``."""
    if grouping.labels.shape[0] != dataset.X.shape[0]:
        raise ComputationError(
            f"grouping covers {grouping.labels.shape[0]} points "
            f"but the dataset has {dataset.X.shape[0]}"
        )


def build_clock(
    dataset: Dataset,
    member_idx,
    config: RunConfig | None = None,
    *,
    variant: str = "global",
    group: str | None = None,
) -> Clock:
    """Assemble a clock over the given member rows of ``dataset``.

    ``member_idx`` is any sequence or array of integer row indices; it is
    sorted and deduplicated. Standardizes the members' features (constant
    features are dropped with a warning), centers their embedding
    coordinates, fits the two axis regressions, and keeps the significant
    arrows sorted by magnitude. The anchor is the members' embedding
    centroid; the scale is half the members' bounding-box diagonal. Raises
    GroupTooSmallError for fewer than 3 members, and, from the fit, for
    fewer than d + 2 with d the kept features.
    """
    x, y, names = dataset.X, dataset.Y, dataset.feature_names
    config = config or RunConfig()
    n = x.shape[0]
    idx = np.asarray(member_idx)
    if not idx.size:
        raise ComputationError("member set is empty")
    if not np.issubdtype(idx.dtype, np.integer):  # np.intp would read a mask or floats as rows
        raise ComputationError(f"member indices must be integers, got dtype {idx.dtype}")
    members = distinct(np.sort(idx.astype(np.intp, copy=False), axis=None))
    if members[0] < 0 or members[-1] >= n:
        raise ComputationError(f"member indices must be in [0, {n}), got {members[0]}..{members[-1]}")
    label = group if group is not None else variant

    ym = y[members]
    if members.size < 3:
        raise GroupTooSmallError(
            f"group {label!r} too small for clock: {members.size} points"
        )

    design = fit_design(x, members, center_columns(ym), names, f"group {label!r}",
                        scale=config.standardize_x)
    kept = design.kept
    fit0, fit90 = ols_fit(design)
    b0, b90 = fit0.coefficients, fit90.coefficients

    # the "and" rule needs both axis p-values below alpha, the "or" rule either
    combine = max if config.significance_rule == "and" else min
    arrows_all = []
    for i, j in enumerate(kept):
        magnitude, angle = max_contribution(float(b0[i]), float(b90[i]))
        p0, p90 = float(fit0.p_values[i]), float(fit90.p_values[i])
        arrows_all.append(ClockArrow(names[j], float(b0[i]), float(b90[i]), magnitude, angle,
                                     p0, p90, combine(p0, p90) < config.alpha))
    arrows = select_arrows(arrows_all, config, f"clock for group {label!r}")

    anchor = (float(ym[:, 0].mean()), float(ym[:, 1].mean()))
    span_x = float(ym[:, 0].max() - ym[:, 0].min())
    span_y = float(ym[:, 1].max() - ym[:, 1].min())
    scale = 0.5 * math.hypot(span_x, span_y)
    if scale <= 0.0:
        scale = 1.0

    out_variant = "circles" if config.circles else variant
    return Clock(out_variant, anchor, scale, arrows, members.size, group)


def build_global_clock(dataset: Dataset, config: RunConfig | None = None) -> Clock:
    """Clock over every point of the dataset."""
    return build_clock(dataset, range(dataset.X.shape[0]), config)


def build_local_clocks(dataset: Dataset, grouping, config: RunConfig | None = None) -> list[Clock]:
    """One :func:`build_clock` per non-noise group; groups too small to fit are skipped with a warning."""
    check_coverage(dataset, grouping)
    if not grouping.groups:
        raise ComputationError("no usable groups")
    clocks = []
    for grp in grouping.groups:
        try:
            clocks.append(build_clock(dataset, grp.members, config, variant="local", group=grp.name))
        except GroupTooSmallError as exc:
            warnings.warn(f"skipping group {grp.name!r}: {exc}", ClockWarning, stacklevel=2)
    if not clocks:
        raise ComputationError("all groups too small for local clocks")
    return clocks
