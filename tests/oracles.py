"""Independent reference computations used to pin expected test values.

Each oracle deliberately takes a different path than the library code it
checks: quadrature instead of continued fractions, extended-precision normal
equations instead of QR, exhaustive enumeration instead of Kruskal, bulk
per-angle refits instead of the closed-form maximum, a PCA biplot from
an eigendecomposition instead of regressions on the embedding, and a
point-by-point breadth-first DBSCAN instead of blocked distances and
frontier expansion, and a csv-module table read cell by cell with float()
instead of one np.loadtxt call.

The k-means oracle and the last four functions are different: each keeps
an earlier design of the library as the reference that the current one must
match bit for bit. The k-means oracle holds the full n x k distance matrix
where the library takes a block of rows at a time, with the same random
draws. Three of the last four keep the earlier design path (separate copies,
then a column stack) that the one-buffer path must match; the fourth keeps
the earlier IRLS loop of the logistic fit.

``array_design`` is no oracle: it is the one way the tests hand arrays to
the fits, which read only a ``numstats.Design``. Nor is ``make_dataset``:
it is the one way the tests hand arrays to the clock builders, which read
only a checked ``Dataset``. Nor is ``svg_text``: it is the one way the tests
read a scene's SVG, which ``Scene.to_svg`` only streams to a file.
"""

import csv
import io
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from featureclock.ingest import Dataset
from featureclock.intergroup import L2_PENALTY, LogisticFit
from featureclock.numstats import (
    Design,
    RegressionFit,
    as_matrix,
    center_columns,
    check_rank,
    negligible,
    normal_two_sided_p,
    student_t_two_sided_p,
)


def array_design(x, targets=None, names=None, where="design") -> Design:
    """A Design over every row of ``x`` that writes [x | targets] as given.

    Its means are zeros and it has no stds, and subtracting zero changes no
    value, so the rows it writes are the arrays' own bit for bit. ``targets``
    is None (no targets, as an edge's design), one column or a 2-D array.
    The features are named f0, f1, ... unless ``names`` is given, and
    ``where`` labels the fit's errors.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    targets = np.empty((n, 0)) if targets is None else np.asarray(targets, dtype=float).reshape(n, -1)
    names = [f"f{j}" for j in range(d)] if names is None else list(names)
    zeros = np.zeros(d)
    return Design(x, np.arange(n), list(range(d)), zeros, zeros, None, targets, names, where)


def make_dataset(x, y, labels=None, names=None) -> Dataset:
    """A Dataset of X and the embedding ``y``, checked as it is made.

    The features are named f0, f1, ... unless ``names`` is given; ``labels``
    is one token per row, or None.
    """
    names = tuple(f"f{j}" for j in range(np.shape(x)[1])) if names is None else tuple(names)
    return Dataset(names, x, y, labels)


def svg_text(scene) -> str:
    """The SVG text that ``scene.to_svg`` writes to a file."""
    out = io.StringIO()
    scene.to_svg(out)
    return out.getvalue()


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


def kmeans_reference(data, k: int, seed: int) -> np.ndarray:
    """K-means labels from one full (n, k) distance matrix per Lloyd round.

    The k-means++ start takes one ``random.Random(seed).random()`` draw u per
    center, as the library does: row ``int(u * n)`` while no distance is
    positive, else the first row whose cumulative share of the distances
    exceeds u. An empty cluster takes the point farthest from its center
    among clusters of two or more points, read from the distance matrix.
    """
    arr = np.asarray(data, dtype=float)
    n = arr.shape[0]
    rng = random.Random(seed)
    centers = [arr[int(rng.random() * n)]]
    closest = ((arr - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        u = rng.random()
        if float(closest.sum()) <= 0.0:
            idx = int(u * n)
        else:
            cdf = np.cumsum(closest)
            idx = int(np.searchsorted(cdf / cdf[-1], u, side="right"))
        centers.append(arr[idx])
        closest = np.minimum(closest, ((arr - arr[idx]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(300):
        dist = np.column_stack([((arr - center) ** 2).sum(axis=1) for center in centers])
        assignment = dist.argmin(axis=1)
        for cid in range(k):
            if not np.any(assignment == cid):
                assigned = dist[np.arange(n), assignment]
                assigned[np.bincount(assignment, minlength=k)[assignment] < 2] = -1.0
                assignment[int(assigned.argmax())] = cid
        if np.array_equal(assignment, labels):
            break
        labels = assignment
        centers = [arr[labels == cid].mean(axis=0) for cid in range(k)]
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


def constant_columns(x, stds):
    """Mask of the columns of ``x`` whose sample std is rounding noise next to their largest |value|."""
    return negligible(stds, np.maximum(x.max(axis=0), -x.min(axis=0)))


def standardize_reference(m):
    """Center columns and scale them to unit sample (n-1) standard deviation.

    The library's column standardization before ``fit_design`` took it
    over, kept as the bit-identity reference: the std, then two centering
    passes on a new array, then one division. Constant columns are centered
    but not scaled.
    """
    x = as_matrix(m)
    assert x.shape[0] >= 2, "a sample std needs two rows"
    stds = x.std(axis=0, ddof=1)
    centered = x - x.mean(axis=0)
    centered -= centered.mean(axis=0)
    centered /= np.where(constant_columns(x, stds), 1.0, stds)
    return centered


def fit_design_reference(x, rows, targets, *, scale=True):
    """``(kept, [X | targets])`` along the design path of separate copies.

    An F-ordered gather of the rows, the constant columns dropped from it
    (a copy that stays F-ordered), the kept block standardized, or only
    centered without ``scale``, and ``np.column_stack`` with the targets.
    """
    design = x.T.take(rows, axis=1).T
    kept = np.flatnonzero(~constant_columns(design, design.std(axis=0, ddof=1))).tolist()
    design = design[:, kept]
    xs = standardize_reference(design) if scale else center_columns(design)
    return kept, np.column_stack([xs, targets])


def ols_fit_reference(x, y):
    """Per-target OLS fits of ``y`` (n, k) on ``x`` in the two-argument form.

    One QR of ``np.column_stack([x, y])``, a C-ordered stack, with every
    statistic taken as the library took it before it factored a caller's
    [X | Y] buffer as given. The one other difference: the exact-fit test
    reads the target norms from that C-ordered stack, and numpy sums the
    columns of a C-ordered (n, k >= 2) array row by row, not pairwise.
    """
    n, d = x.shape
    k = y.shape[1]
    r = np.linalg.qr(np.column_stack([x, y]), mode="r")
    check_rank(r[:d, :d], array_design(x, y))
    solution = np.linalg.solve(r[:d, :d], np.column_stack([r[:d, d:], np.eye(d)]))
    rinv = solution[:, k:]
    xtx_inv_diag = (rinv * rinv).sum(axis=1)
    rss = (r[d:, d:] ** 2).sum(axis=0)
    target_norms = np.sqrt((y * y).sum(axis=0))
    dof = n - d - 1
    fits = []
    for j in range(k):
        beta = solution[:, j].copy()
        s2 = float(rss[j]) / dof
        se = np.sqrt(s2 * xtx_inv_diag)
        t = np.divide(beta, se, out=np.zeros_like(beta), where=se > 0)
        if negligible(math.sqrt(rss[j]), target_norms[j]):
            idle = negligible(np.abs(beta) / np.sqrt(xtx_inv_diag), target_norms[j])
            p = np.where(idle, 1.0, 0.0)
        else:
            p = np.array([student_t_two_sided_p(float(tv), dof) for tv in t])
        fits.append(RegressionFit(beta, se, t, p, dof, s2))
    return tuple(fits)


def logistic_fit_reference(x, labels, max_iter=100):
    """The penalized IRLS logistic fit with the rank checked at the call site.

    The library's loop before it checked the rank itself and kept its last
    Fisher information, as the bit-identity reference: one QR of ``x`` is
    checked first; each round evaluates the probabilities, gradient and Fisher
    information at the top; the standard errors come from one more
    evaluation at the final coefficients. ``max_iter`` is the library's cap.
    The [1 | x] stack is column-major, the library's one layout, because
    BLAS sums a row-major one in another order and its bits differ.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=float)
    check_rank(np.linalg.qr(x, mode="r"), array_design(x))
    n, d = x.shape
    design = np.asfortranarray(np.column_stack([np.ones(n), x]))
    ridge = np.full(d + 1, L2_PENALTY)
    ridge[0] = 0.0
    beta = np.zeros(d + 1)
    converged = False
    for iterations in range(1, max_iter + 1):
        prob = _sigmoid(design @ beta)
        weight = np.clip(prob * (1.0 - prob), 1e-12, None)
        gradient = design.T @ (labels - prob) - ridge * beta
        fisher = design.T @ (design * weight[:, None]) + np.diag(ridge)
        step = np.linalg.solve(fisher, gradient)
        if not np.all(np.isfinite(step)):
            break
        beta = beta + step
        if float(np.max(np.abs(step))) < 1e-10:
            converged = True
            break
    prob = _sigmoid(design @ beta)
    weight = np.clip(prob * (1.0 - prob), 1e-12, None)
    fisher = design.T @ (design * weight[:, None]) + np.diag(ridge)
    covariance = np.linalg.inv(fisher)
    se = np.sqrt(np.maximum(np.diag(covariance)[1:], 0.0))
    coef = beta[1:]
    z = np.divide(coef, se, out=np.zeros_like(coef), where=se > 0)
    p = np.array([normal_two_sided_p(float(zj)) for zj in z])
    return LogisticFit(coef, float(beta[0]), se, p, converged, iterations)
