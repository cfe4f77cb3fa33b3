"""Checks of one invocation's clock.svg and clock.json, made apart from the program.

Regressions are recomputed with LAPACK least squares and scipy's Student-t
tails, DBSCAN with a k-d tree, the spanning tree with scipy.sparse.csgraph and
the logistic fits with scipy.optimize. Nothing is compared against a stored
copy of earlier output.

Group memberships are read back from the SVG: every point marker is coloured
by its group, in row order, and each colour class is matched to its group by
the group's centroid in the report. Each check returns a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy import linalg, optimize, sparse, special, stats
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

import workloads

ALPHA = 0.05  # the CLI's default significance level, which every workload uses
L2_PENALTY = 1e-6  # ridge of the inter-group logistic fits (README: "How it works")
# A feature whose reference p-value lies this close to alpha may fall on
# either side of it in the program; outside the band the decision must agree.
P_BAND = 1e-6
SVG_NS = "{http://www.w3.org/2000/svg}"


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _marker_colors(svg_text: str) -> list[str]:
    """Fill colour of every scatter marker, in row order."""
    root = ET.fromstring(svg_text)
    return [
        el.get("fill")
        for el in root.iter(f"{SVG_NS}circle")
        if el.get("fill-opacity") is not None
    ]


def _color_classes(colors: list[str]) -> dict[str, np.ndarray]:
    rows: dict[str, list[int]] = {}
    for i, color in enumerate(colors):
        rows.setdefault(color, []).append(i)
    return {color: np.array(idx) for color, idx in rows.items()}


def _match_classes(classes: dict[str, np.ndarray], y: np.ndarray, centers: dict[str, tuple], problems):
    """Map group name -> member rows by matching colour-class centroids to group centers.

    Returns (members by group, rows of the one unmatched class or None).
    """
    members: dict[str, np.ndarray] = {}
    unmatched = []
    for color, rows in classes.items():
        centroid = y[rows].mean(axis=0)
        hits = [
            name for name, c in centers.items()
            if all(_close(float(centroid[k]), float(c[k]), 1e-9, 1e-9) for k in range(2))
        ]
        if len(hits) == 1 and hits[0] not in members:
            members[hits[0]] = rows
        else:
            unmatched.append(rows)
    missing = sorted(set(centers) - set(members))
    if missing:
        problems.append(f"no marker colour class matches the center of groups {missing}")
    if len(unmatched) > 1:
        problems.append(f"{len(unmatched)} marker colour classes match no group")
    return members, (unmatched[0] if unmatched else None)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two label vectors split the rows into the same classes."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def _ols_reference(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis coefficients (d x 2) and two-sided t-test p-values, by LAPACK and scipy."""
    xs = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    yc = y - y.mean(axis=0)
    beta = np.linalg.lstsq(xs, yc, rcond=None)[0]
    n, d = xs.shape
    dof = n - d - 1
    s2 = ((yc - xs @ beta) ** 2).sum(axis=0) / dof
    rinv = linalg.solve_triangular(np.linalg.qr(xs, mode="r"), np.eye(d))
    se = np.sqrt(np.outer((rinv * rinv).sum(axis=1), s2))
    p = 2.0 * stats.t.sf(np.abs(beta / se), dof)
    return beta, p


def _check_ols_clock(label: str, clock: dict, x: np.ndarray, y: np.ndarray, problems) -> None:
    """Arrows against the reference fit: values, closed-form maximum, OR rule, completeness."""
    beta, p = _ols_reference(x, y)
    scale = float(np.abs(beta).max())
    reported = set()
    for arrow in clock["arrows"]:
        j = int(arrow["feature"][1:])
        reported.add(j)
        b0, b90 = arrow["beta0"], arrow["beta90"]
        if not (_close(b0, beta[j, 0], 1e-8, 1e-10 * scale) and _close(b90, beta[j, 1], 1e-8, 1e-10 * scale)):
            problems.append(f"{label} f{j}: betas ({b0}, {b90}) != lstsq ({beta[j, 0]}, {beta[j, 1]})")
        for axis, key in enumerate(("p0", "p90")):
            if not _close(arrow[key], p[j, axis], 1e-6, 1e-12):
                problems.append(f"{label} f{j}: {key} {arrow[key]} != t tail {p[j, axis]}")
        if not _close(arrow["magnitude"], math.hypot(b0, b90), 1e-10):
            problems.append(f"{label} f{j}: magnitude is not hypot(beta0, beta90)")
        angle = math.degrees(math.atan2(b90, b0)) % 360.0
        gap = abs(arrow["angle_deg"] - angle) % 360.0
        if min(gap, 360.0 - gap) > 1e-7:
            problems.append(f"{label} f{j}: angle {arrow['angle_deg']} != atan2 {angle}")
        if not (arrow["significant"] and min(arrow["p0"], arrow["p90"]) < ALPHA):
            problems.append(f"{label} f{j}: reported arrow breaks the OR rule")
    ref_min = p.min(axis=1)
    must = set(np.flatnonzero(ref_min < ALPHA * (1 - P_BAND)).tolist())
    may = set(np.flatnonzero(ref_min < ALPHA * (1 + P_BAND)).tolist())
    if not must <= reported <= may:
        problems.append(
            f"{label}: significant features differ from the t tests "
            f"(missing {sorted(must - reported)}, extra {sorted(reported - may)})"
        )
    magnitudes = [a["magnitude"] for a in clock["arrows"]]
    if magnitudes != sorted(magnitudes, reverse=True):
        problems.append(f"{label}: arrows are not sorted by magnitude")


def _check_global(data: dict, report: dict, colors: list[str], problems) -> None:
    (clock,) = report["clocks"]
    _check_ols_clock("global", clock, data["X"], data["Y"], problems)
    top = sorted(clock["arrows"], key=lambda a: -a["magnitude"])[: len(data["planted"])]
    if sorted(int(a["feature"][1:]) for a in top) != data["planted"].tolist():
        problems.append("the planted features are not the largest arrows")
    if not _same_partition(np.array(colors), np.array(data["labels"])):
        problems.append("marker colours do not follow the labels")


def _check_local(data: dict, report: dict, colors: list[str], problems) -> np.ndarray | None:
    x, y = data["X"], data["Y"]
    clocks = {c["group"]: c for c in report["clocks"]}
    counts = [c["member_count"] for c in clocks.values()]
    if len(clocks) != workloads.KMEANS_K or min(counts) < 1 or sum(counts) != x.shape[0]:
        problems.append(f"expected {workloads.KMEANS_K} non-empty groups covering every row, got {counts}")
    centers = {name: c["anchor"] for name, c in clocks.items()}
    members, rest = _match_classes(_color_classes(colors), y, centers, problems)
    if rest is not None or problems:
        problems.append("k-means groups could not be read back from the SVG")
        return None
    labels = np.empty(x.shape[0], dtype=int)
    means = np.empty((len(members), x.shape[1]))
    for g, (name, rows) in enumerate(sorted(members.items())):
        labels[rows] = g
        means[g] = x[rows].mean(axis=0)
        if rows.size != clocks[name]["member_count"]:
            problems.append(f"group {name}: {rows.size} markers but member_count {clocks[name]['member_count']}")
        _check_ols_clock(f"group {name}", clocks[name], x[rows], y[rows], problems)
    dist = np.stack([((x - m) ** 2).sum(axis=1) for m in means], axis=1)
    own = dist[np.arange(x.shape[0]), labels]
    nearest = dist.min(axis=1)
    moved = int(np.count_nonzero(own > nearest + 1e-9 * (1.0 + nearest)))
    if moved:
        problems.append(f"not a Lloyd fixed point: {moved} points are nearer another group's mean")
    return labels


def _logistic_reference(x: np.ndarray, t: np.ndarray):
    """L2-penalized logistic fit by scipy.optimize; Wald p-values from the inverse Hessian.

    A trust-region minimization gets close, then a root search on the score
    polishes the optimum: near it the objective changes by less than its
    rounding, so minimizers stop with gradients near 1e-6. The fit counts as
    converged when one more Newton step would move no coefficient by 1e-9.
    """
    design = np.column_stack([np.ones(x.shape[0]), x])
    ridge = np.full(design.shape[1], L2_PENALTY)
    ridge[0] = 0.0

    def objective(b):
        eta = design @ b
        return float(np.sum(np.logaddexp(0.0, eta) - t * eta) + 0.5 * np.sum(ridge * b * b))

    def score(b):
        return design.T @ (special.expit(design @ b) - t) + ridge * b

    def hessian(b):
        prob = special.expit(design @ b)
        return design.T @ (design * (prob * (1.0 - prob))[:, None]) + np.diag(ridge)

    start = optimize.minimize(
        objective, np.zeros(design.shape[1]), jac=score, hess=hessian, method="trust-exact",
    ).x
    b = optimize.root(score, start, jac=hessian, method="hybr", options={"xtol": 1e-13}).x
    information = hessian(b)
    converged = float(np.abs(np.linalg.solve(information, score(b))).max()) < 1e-9
    se = np.sqrt(np.diag(np.linalg.inv(information))[1:])
    coef = b[1:]
    return coef, 2.0 * stats.norm.sf(np.abs(coef / se)), converged


def _check_intergroup(data: dict, report: dict, colors: list[str], problems) -> np.ndarray | None:
    x, y = data["X"], data["Y"]
    n = x.shape[0]
    centers = {}
    for clock in report["clocks"]:
        for end, center in zip(("a", "b"), clock["centers"]):
            centers[clock["edge"][end]] = center
    if len(report["mst"]) + 1 != len(centers):
        problems.append(f"{len(report['mst'])} MST edges for {len(centers)} groups")
    members, _noise = _match_classes(_color_classes(colors), y, centers, problems)
    if problems:
        problems.append("DBSCAN groups could not be read back from the SVG")
        return None
    labels = np.full(n, -1)
    for g, (_name, rows) in enumerate(sorted(members.items())):
        labels[rows] = g

    # DBSCAN: eps-neighbourhoods (each point included) by k-d tree, exact cut at eps
    eps, min_pts = workloads.DBSCAN_EPS, workloads.DBSCAN_MIN_PTS
    pairs = cKDTree(y).query_pairs(eps * (1 + 1e-9), output_type="ndarray")
    pairs = pairs[((y[pairs[:, 0]] - y[pairs[:, 1]]) ** 2).sum(axis=1) <= eps * eps]
    both = np.concatenate([pairs, pairs[:, ::-1]])
    core = 1 + np.bincount(both[:, 0], minlength=n) >= min_pts
    linked = both[core[both[:, 0]] & core[both[:, 1]]]
    graph = sparse.coo_matrix((np.ones(len(linked)), (linked[:, 0], linked[:, 1])), shape=(n, n))
    _, component = csgraph.connected_components(graph, directed=False)
    if (labels[core] < 0).any() or not _same_partition(component[core], labels[core]):
        problems.append("clusters restricted to core points are not the core components")
    to_core = both[core[both[:, 1]]]
    near_core = np.zeros(n, dtype=bool)
    near_core[to_core[:, 0]] = True
    near_own = np.zeros(n, dtype=bool)
    near_own[to_core[labels[to_core[:, 0]] == labels[to_core[:, 1]], 0]] = True
    border = ~core & (labels >= 0)
    if not near_own[border].all():
        problems.append(f"{int((~near_own[border]).sum())} border points are not within eps of their cluster's core")
    if near_core[labels < 0].any():
        problems.append(f"{int(near_core[labels < 0].sum())} noise points lie within eps of a core point")

    # spanning tree over the reported centers
    names = sorted(centers)
    points = np.array([centers[k] for k in names])
    dense = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    reference = float(csgraph.minimum_spanning_tree(dense).sum())
    total = sum(edge[2] for edge in report["mst"])
    if not _close(total, reference, 1e-9):
        problems.append(f"MST length {total} != scipy {reference}")

    # one logistic fit per edge, groups a -> 0 and b -> 1
    for clock in report["clocks"]:
        a, b = clock["edge"]["a"], clock["edge"]["b"]
        label = f"edge {a}-{b}"
        rows = np.concatenate([members[a], members[b]])
        xu = x[rows]
        xs = (xu - xu.mean(axis=0)) / xu.std(axis=0, ddof=1)
        t = np.concatenate([np.zeros(members[a].size), np.ones(members[b].size)])
        coef, p, converged = _logistic_reference(xs, t)
        if not (converged and clock["converged"]):
            problems.append(f"{label}: fit did not converge (reference {converged}, program {clock['converged']})")
        ux = math.cos(math.radians(clock["axis_angle_deg"]))
        uy = math.sin(math.radians(clock["axis_angle_deg"]))
        reported = set()
        for arrow in clock["arrows"]:
            j = int(arrow["feature"][1:])
            reported.add(j)
            signed = arrow["beta0"] * ux + arrow["beta90"] * uy
            if not _close(signed, coef[j], 1e-6, 1e-8):
                problems.append(f"{label} f{j}: coefficient {signed} != scipy {coef[j]}")
            if not _close(arrow["p0"], p[j], 1e-5, 1e-12):
                problems.append(f"{label} f{j}: p {arrow['p0']} != Wald {p[j]}")
        must = set(np.flatnonzero(p < ALPHA * (1 - P_BAND)).tolist())
        may = set(np.flatnonzero(p < ALPHA * (1 + P_BAND)).tolist())
        if not must <= reported <= may:
            problems.append(
                f"{label}: significant features differ from the Wald tests "
                f"(missing {sorted(must - reported)}, extra {sorted(reported - may)})"
            )
    return labels


_CHECKS = {
    "global-wide": _check_global,
    "local-kmeans": _check_local,
    "intergroup-dbscan": _check_intergroup,
}


def check_outputs(workload: str, data: dict, svg_text: str, json_text: str):
    """Problems found in one invocation's outputs, and the per-row groups read from the SVG.

    The groups are None for the global view, or when they could not be read.
    """
    problems: list[str] = []
    try:
        colors = _marker_colors(svg_text)
    except ET.ParseError as exc:
        return [f"clock.svg is not well-formed XML: {exc}"], None
    if len(colors) != data["X"].shape[0]:
        return [f"clock.svg has {len(colors)} point markers for {data['X'].shape[0]} rows"], None
    groups = _CHECKS[workload](data, json.loads(json_text), colors, problems)
    return problems, groups


def same_grouping(traced_labels: list[int], groups: np.ndarray) -> bool:
    """True when the traced run's grouping splits the rows as the SVG does."""
    return _same_partition(np.array(traced_labels), groups)
