"""Inter-group clocks: which features separate two groups of points.

Each spanning-tree edge between group centers gets a binary logistic
regression over the two groups' standardized features. The fit reads the
edge's ``numstats.Design`` alone, built by ``numstats.fit_design``; it
takes its size and rank checks, and the errors they raise named by the
Design, from the axis fit's own ``fit_size``, ``r_factor`` and
``check_rank``, and its standard errors from the Fisher information at its
final iterate.
Significant coefficients become arrows along the line joining the centers: a
positive coefficient points at the group encoded as class 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clockcore import (
    ClockArrow,
    check_coverage,
    checked_inputs,
    max_contribution,
    select_arrows,
    unit_vector,
)
from .errors import ClockWarning, ComputationError, GroupTooSmallError
from .grouping import GroupingResult
from .ingest import Dataset, RunConfig
from .numstats import Design, check_rank, fill, fit_design, fit_size, normal_two_sided_p, r_factor

# Ridge on the coefficients (never the intercept). Keeps the coefficients
# finite when the two groups are linearly separable, and every Newton system
# positive definite: a step that moves any coefficient gains the ridge, and
# one that moves only the intercept gains the weights' sum (each >= 1e-12).
L2_PENALTY = 1e-6

_MAX_ITER = 100
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class LogisticFit:
    """Penalized logistic regression results with Wald tests per feature."""

    coefficients: np.ndarray
    intercept: float
    std_errors: np.ndarray
    p_values: np.ndarray
    converged: bool
    iterations: int


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_fit(rows: Design, labels) -> LogisticFit:
    """Fit class probabilities by iteratively reweighted least squares.

    ``rows`` is an edge's ``numstats.Design`` with no targets, built by
    ``numstats.fit_design``: the fit reads nothing else. Raises
    GroupTooSmallError when it has fewer than d + 2 rows, and
    RankDeficientError when the axis fit's own ``numstats.r_factor`` call
    over it shows a dependent column under the axis fit's rule, each named
    by the Design; only then is the design written, once, into one
    column-major [1 | X] matrix.
    Maximizes the log-likelihood minus (L2_PENALTY/2)*||coefficients||^2;
    the intercept is unpenalized. Iterations stop when the largest parameter
    update falls below 1e-10 or after 100 rounds, in which case the result
    is returned with ``converged=False`` and a warning. Standard errors come
    from the inverse penalized Fisher information at the final iterate.
    """
    n, d = fit_size(rows)
    yv = np.asarray(labels, dtype=float).ravel()
    if yv.shape[0] != n:
        raise ComputationError(f"got {yv.shape[0]} labels for {n} rows")
    if not np.all((yv == 0.0) | (yv == 1.0)):
        raise ComputationError("labels must be coded 0/1")
    if yv.min() == yv.max():
        raise ComputationError("logistic regression needs both classes present")
    check_rank(r_factor(rows), rows)
    design = np.empty((n, d + 1), order="F")  # a row-major one moves 12th-digit p-values
    design[:, 0] = 1.0
    fill(rows, design[:, 1:])

    ridge = np.full(d + 1, L2_PENALTY)
    ridge[0] = 0.0
    beta = np.zeros(d + 1)
    weighted = np.empty_like(design)  # design * weight, rewritten each round
    converged = False
    iterations = 0
    while True:  # each iterate is evaluated once: for its step, or for the standard errors
        prob = _sigmoid(design @ beta)
        weight = np.clip(prob * (1.0 - prob), 1e-12, None)
        fisher = design.T @ np.multiply(design, weight[:, None], out=weighted) + np.diag(ridge)
        if converged or iterations == _MAX_ITER:
            break
        iterations += 1
        step = np.linalg.solve(fisher, design.T @ (yv - prob) - ridge * beta)
        if not np.all(np.isfinite(step)):
            break
        beta = beta + step
        converged = float(np.max(np.abs(step))) < _STEP_TOL
    if not converged:
        warnings.warn(
            "logistic fit did not converge (groups may be linearly separable); "
            "coefficients and tests are reported as-is",
            ClockWarning,
            stacklevel=2,
        )

    se = np.sqrt(np.maximum(np.diag(np.linalg.inv(fisher))[1:], 0.0))
    coef = beta[1:]
    z = np.divide(coef, se, out=np.zeros_like(coef), where=se > 0)
    p = np.array([normal_two_sided_p(float(zj)) for zj in z])
    return LogisticFit(coef, float(beta[0]), se, p, converged, iterations)


@dataclass(frozen=True)
class IntergroupClock:
    """Arrows along the segment joining two group centers."""

    edge_names: tuple[str, str]
    centers: tuple[tuple[float, float], tuple[float, float]]
    anchor: tuple[float, float]
    axis_angle_deg: float
    arrows: tuple[ClockArrow, ...]
    converged: bool


def build_intergroup_clocks(
    dataset: Dataset,
    grouping: GroupingResult,
    mst: tuple[tuple[int, int, float], ...],
    config: RunConfig | None = None,
) -> list[IntergroupClock]:
    """One clock per MST edge, fitted on the two endpoint groups.

    Features are standardized over the union of the two groups; features
    that are linear combinations of the others raise RankDeficientError.
    Arrows keep features with Wald p below alpha, resolved along the
    center-to-center axis; positive coefficients point at the second group
    of the edge. Edges whose groups are too small are skipped with a warning.
    The tree need not span the groups: each valid, distinct edge is fitted.
    Before anything is fitted, an empty tree, or an edge that names a group
    id the grouping lacks, joins a group to itself or repeats a pair, raises
    ComputationError.
    """
    config = config or RunConfig()
    check_coverage(dataset, grouping)
    if len(grouping.groups) < 2:
        raise ComputationError(
            f"inter-group clocks need at least 2 groups, found {len(grouping.groups)}"
        )
    if not mst:
        raise ComputationError("no inter-group clocks: the spanning tree has no edges")
    x, _, names = checked_inputs(dataset.X, dataset.Y, dataset.feature_names)
    d = x.shape[1]
    by_id = {g.id: g for g in grouping.groups}
    need = max(d + 2, 5)
    pairs = set()
    for a, b, _length in mst:
        fault = ("names a group id the grouping does not have" if a not in by_id or b not in by_id
                 else "joins a group to itself" if a == b
                 else "repeats a pair already in the tree" if frozenset((a, b)) in pairs else "")
        if fault:
            raise ComputationError(f"spanning-tree edge ({a}, {b}) {fault}")
        pairs.add(frozenset((a, b)))

    clocks: list[IntergroupClock] = []
    for a, b, _length in mst:
        ga, gb = by_id[a], by_id[b]
        where = f"edge {ga.name!r}-{gb.name!r}"
        if ga.members.size < need or gb.members.size < need:
            small = ga.name if ga.members.size < need else gb.name
            warnings.warn(
                f"skipping {where}: group {small!r} has fewer than {need} members",
                ClockWarning,
                stacklevel=2,
            )
            continue

        labels = np.concatenate([np.zeros(ga.members.size), np.ones(gb.members.size)])
        rows = np.concatenate([ga.members, gb.members])
        try:
            design = fit_design(x, rows, np.empty((rows.size, 0)), names, where)
        except GroupTooSmallError as exc:
            warnings.warn(f"skipping {exc}", ClockWarning, stacklevel=2)
            continue
        fit = logistic_fit(design, labels)

        _, axis = max_contribution(gb.center[0] - ga.center[0], gb.center[1] - ga.center[1])
        ux, uy = unit_vector(axis)
        anchor = (
            (ga.center[0] + gb.center[0]) / 2.0,
            (ga.center[1] + gb.center[1]) / 2.0,
        )

        arrows = []
        for slot, j in enumerate(design.kept):
            p = float(fit.p_values[slot])
            coef = float(fit.coefficients[slot])
            angle = axis if coef >= 0 else (axis + 180.0) % 360.0
            arrows.append(
                ClockArrow(names[j], coef * ux, coef * uy, abs(coef), angle, p, p, p < config.alpha)
            )
        arrows = select_arrows(arrows, config, where)
        clocks.append(
            IntergroupClock(
                (ga.name, gb.name),
                (ga.center, gb.center),
                anchor,
                axis,
                arrows,
                fit.converged,
            )
        )

    if not clocks:
        raise ComputationError("no inter-group clocks: every MST edge was skipped")
    return clocks
