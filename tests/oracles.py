"""Independent reference computations used to pin expected test values.

Each oracle deliberately takes a different path than the library code it
checks: quadrature instead of continued fractions, extended-precision normal
equations instead of QR, exhaustive enumeration instead of Kruskal, bulk
per-angle refits instead of the closed-form maximum, a PCA biplot from
an eigendecomposition instead of regressions on the embedding, and a
point-by-point breadth-first DBSCAN instead of blocked distances and
frontier expansion, and a csv-module table read cell by cell with float()
instead of one np.loadtxt call.
"""

import csv
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np


def simpson_t_two_sided(t: float, dof: int, panels: int = 20000) -> float:
    """Two-sided Student-t tail by composite Simpson integration of the density."""
    t = abs(float(t))
    if t == 0.0:
        return 1.0
    log_c = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )
    c = math.exp(log_c)

    def density(x: float) -> float:
        return c * (1.0 + x * x / dof) ** (-(dof + 1) / 2.0)

    h = t / panels
    total = density(0.0) + density(t)
    for i in range(1, panels):
        total += density(i * h) * (4.0 if i % 2 else 2.0)
    integral = total * h / 3.0
    return 1.0 - 2.0 * integral


def normal_equations_fit(x: np.ndarray, y: np.ndarray, dps: int = 50):
    """OLS through the normal equations at extended precision (mpmath).

    Returns (beta, std_errors, p_values) as float arrays, with dof = n - d - 1
    to match the centered-design convention.
    """
    from mpmath import mp

    with mp.workdps(dps):
        n, d = x.shape
        X = mp.matrix(x.tolist())
        yv = mp.matrix([float(v) for v in y])
        xtx = X.T * X
        xty = X.T * yv
        beta = mp.lu_solve(xtx, xty)
        resid = yv - X * beta
        rss = sum(resid[i] ** 2 for i in range(n))
        dof = n - d - 1
        s2 = rss / dof
        inv = xtx**-1
        se = [mp.sqrt(s2 * inv[j, j]) for j in range(d)]
        p = []
        for j in range(d):
            tj = beta[j] / se[j]
            xj = dof / (dof + tj**2)
            p.append(mp.betainc(mp.mpf(dof) / 2, mp.mpf(1) / 2, 0, xj, regularized=True))
        return (
            np.array([float(b) for b in beta]),
            np.array([float(v) for v in se]),
            np.array([float(v) for v in p]),
        )


def refit_sweep(x: np.ndarray, y_centered: np.ndarray, m: int):
    """Per-angle OLS coefficients at angles i*180/m, via one bulk lstsq call.

    Every column of the target block is an independent least-squares fit of
    the projection at that angle; numpy's SVD-based lstsq is a different
    solve path than the library's QR.
    """
    angles = np.arange(m) * 180.0 / m
    rad = np.radians(angles)
    targets = np.outer(y_centered[:, 0], np.cos(rad)) + np.outer(
        y_centered[:, 1], np.sin(rad)
    )
    coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
    return angles, coef  # coef has shape (d, m)


@dataclass(frozen=True)
class PcaModel:
    """Top-2 principal directions of a data matrix.

    components holds two unit-norm loading rows; each row's largest-magnitude
    entry is positive, so results are reproducible.
    """

    components: np.ndarray
    explained_variance: np.ndarray
    mean: np.ndarray

    def transform(self, x) -> np.ndarray:
        """Project rows onto the two principal directions (scores)."""
        return (np.asarray(x, dtype=float) - self.mean) @ self.components.T


def pca_2d(x) -> PcaModel:
    """Two-component PCA by np.linalg.eigh of the sample covariance."""
    arr = np.asarray(x, dtype=float)
    n, d = arr.shape
    if d < 2 or n < 3:
        raise ValueError(f"pca_2d needs at least 3 rows and 2 features, got {n}x{d}")
    mean = arr.mean(axis=0)
    centered = arr - mean
    eigenvalues, eigenvectors = np.linalg.eigh(centered.T @ centered / (n - 1))
    order = np.argsort(-eigenvalues, kind="stable")[:2]
    components = eigenvectors[:, order].T.copy()
    for row in components:
        if row[int(np.argmax(np.abs(row)))] < 0:
            row *= -1.0
    return PcaModel(components, np.maximum(eigenvalues[order], 0.0), mean)


def _pruefer_to_edges(seq, k):
    degree = [1] * k
    for node in seq:
        degree[node] += 1
    edges = []
    for node in seq:
        for leaf in range(k):
            if degree[leaf] == 1:
                edges.append((leaf, node))
                degree[leaf] -= 1
                degree[node] -= 1
                break
    tail = [i for i in range(k) if degree[i] == 1]
    edges.append((tail[0], tail[1]))
    return edges


def min_spanning_weight(centers) -> float:
    """Minimum total weight over all labeled spanning trees (Pruefer enumeration)."""
    pts = np.asarray(centers, dtype=float)
    k = len(pts)
    if k == 1:
        return 0.0
    if k == 2:
        return float(np.linalg.norm(pts[0] - pts[1]))
    best = math.inf
    for seq in itertools.product(range(k), repeat=k - 2):
        edges = _pruefer_to_edges(seq, k)
        weight = sum(float(np.linalg.norm(pts[a] - pts[b])) for a, b in edges)
        best = min(best, weight)
    return best


def dbscan_reference(data, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels (-1 for noise) by a deque breadth-first search.

    Each point's neighbors come from its own full distance row,
    ``((data - data[i]) ** 2).sum(axis=1) <= eps * eps``. Clusters start at
    unvisited core points in index order and are expanded one at a time, so a
    border point keeps the first (lowest) cluster id that reaches it.
    """
    arr = np.asarray(data, dtype=float)
    n = arr.shape[0]
    eps2 = eps * eps
    cache: list[np.ndarray | None] = [None] * n

    def neighbors(i: int) -> np.ndarray:
        if cache[i] is None:
            d2 = ((arr - arr[i]) ** 2).sum(axis=1)
            cache[i] = np.flatnonzero(d2 <= eps2)
        return cache[i]

    labels = np.full(n, -1, dtype=int)
    visited = np.zeros(n, dtype=bool)
    cid = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        seeds = neighbors(i)
        if seeds.size < min_pts:
            continue
        labels[i] = cid
        queue = deque(int(j) for j in seeds)
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cid
            if visited[j]:
                continue
            visited[j] = True
            labels[j] = cid
            reach = neighbors(j)
            if reach.size >= min_pts:
                queue.extend(int(r) for r in reach)
        cid += 1
    return labels


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_penalized_gradient(x, labels, intercept, coef, penalty):
    """Gradient of the penalized log-likelihood at the given parameters."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=float)
    design = np.column_stack([np.ones(len(labels)), x])
    beta = np.concatenate([[intercept], np.asarray(coef, dtype=float)])
    prob = _sigmoid(design @ beta)
    ridge = np.concatenate([[0.0], np.full(len(coef), penalty)])
    return design.T @ (labels - prob) - ridge * beta


def logistic_mle(x, labels, tol=1e-12, max_iter=200):
    """Unpenalized logistic maximum likelihood by plain Newton steps.

    Returns (intercept, coefficients). Raises when the steps do not settle,
    as they cannot when the classes are separable.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=float)
    design = np.column_stack([np.ones(len(labels)), x])
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        prob = _sigmoid(design @ beta)
        hessian = design.T @ (design * (prob * (1.0 - prob))[:, None])
        step = np.linalg.solve(hessian, design.T @ (labels - prob))
        beta += step
        if np.max(np.abs(step)) < tol:
            return float(beta[0]), beta[1:]
    raise AssertionError("Newton iterations did not converge")


def read_table_reference(path):
    """A numeric CSV table read with the csv module and float() per cell.

    Cells follow the plain ASCII float grammar: stripped of whitespace, free of
    ``_`` and non-ASCII characters, and finite. Returns the data as a float
    array, or the reader's message for the first faulty row or cell in file
    order, as a string.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        header, *records = list(csv.reader(handle))
    values = []
    for lineno, row in enumerate(records, start=1):
        if not row:
            continue
        if len(row) != len(header):
            return f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
        for colno, cell in enumerate(row, start=1):
            text, where = cell.strip(), f"at row {lineno}, column {colno}"
            if not text:
                return f"{path}: missing value {where}"
            non_numeric = f"{path}: non-numeric value {text!r} {where}"
            if not text.isascii() or "_" in text:
                return non_numeric
            try:
                value = float(text)
            except ValueError:
                return non_numeric
            if not math.isfinite(value):
                return f"{path}: non-finite value {text!r} {where}"
        values.append([float(cell) for cell in row])
    return np.array(values)
