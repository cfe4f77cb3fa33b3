"""Point groupings for local and inter-group clocks.

Groups come from external label files, seeded k-means, or DBSCAN with its
noise detection. Group centers always live in the 2D embedding, because that
is where clocks are placed and where the spanning tree between groups is
measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputDataError
from .numstats import as_matrix, distinct

# Label value for points no cluster claims. The token "noise" (any case) in a
# labels file maps here; noise points never join a group or shift a center.
NOISE = -1

# Squared distances held at once by DBSCAN's neighbor pass (1 MiB of
# float64): the block has max(1, _BLOCK_CELLS // n) rows of n columns.
_BLOCK_CELLS = 2**17


@dataclass(frozen=True)
class Group:
    """One group: its id, display name, ascending member rows and embedding center."""

    id: int
    name: str
    members: np.ndarray
    center: tuple[float, float]


@dataclass(frozen=True)
class GroupingResult:
    """Per-point group ids (NOISE allowed) plus the groups with their centers."""

    labels: np.ndarray
    groups: tuple[Group, ...]


def _make_groups(labels: np.ndarray, names: dict[int, str], embedding: np.ndarray) -> tuple[Group, ...]:
    groups = []
    for gid in sorted(names):
        members = np.flatnonzero(labels == gid)
        if not members.size:
            continue
        rows = embedding[members]
        center = (float(rows[:, 0].mean()), float(rows[:, 1].mean()))
        groups.append(Group(gid, names[gid], members, center))
    return tuple(groups)


def _check_embedding(embedding, n: int) -> np.ndarray:
    emb = as_matrix(embedding, name="embedding")
    if emb.shape[1] != 2:
        raise ComputationError(f"embedding must have 2 columns, got {emb.shape[1]}")
    if emb.shape[0] != n:
        raise ComputationError(f"embedding has {emb.shape[0]} rows, expected {n}")
    return emb


def from_labels(tokens, embedding) -> GroupingResult:
    """Group points by user-provided tokens, in first-appearance order.

    The token "noise" (case-insensitive) is reserved for unassigned points.
    """
    tokens = list(tokens)
    emb = as_matrix(embedding, name="embedding")
    if emb.shape[1] != 2:
        raise ComputationError(f"embedding must have 2 columns, got {emb.shape[1]}")
    if len(tokens) != emb.shape[0]:
        raise InputDataError(
            f"{len(tokens)} labels for {emb.shape[0]} points"
        )
    labels = np.full(len(tokens), NOISE, dtype=int)
    ids: dict[str, int] = {}
    for i, token in enumerate(tokens):
        token = str(token)
        if token.lower() == "noise":
            continue
        if token not in ids:
            ids[token] = len(ids)
        labels[i] = ids[token]
    names = {gid: token for token, gid in ids.items()}
    return GroupingResult(labels, _make_groups(labels, names, emb))


def kmeans(data, k: int, seed: int, embedding) -> GroupingResult:
    """Lloyd's iterations from a seeded k-means++ start; no noise labels.

    Empty clusters are repaired by reseeding them with the point farthest
    from its current center among clusters of two or more points, so every
    cluster keeps a member. Identical data, k, and seed give identical
    labels. ``data`` may be the high-dimensional matrix or the embedding;
    centers are always computed from ``embedding``.
    """
    arr = as_matrix(data, name="data")
    n = arr.shape[0]
    emb = _check_embedding(embedding, n)
    if k < 1:
        raise InputDataError(f"k must be at least 1, got {k}")
    if k > n:
        raise InputDataError(f"k={k} exceeds the number of points ({n})")
    if seed < 0:
        raise InputDataError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, arr.shape[1]))
    centers[0] = arr[int(rng.integers(n))]
    closest = ((arr - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[c] = arr[idx]
        closest = np.minimum(closest, ((arr - centers[c]) ** 2).sum(axis=1))

    labels = np.full(n, -1, dtype=int)
    for _ in range(300):
        dist = np.column_stack([((arr - center) ** 2).sum(axis=1) for center in centers])
        assignment = dist.argmin(axis=1)
        for cid in range(k):
            if not np.any(assignment == cid):
                assigned = dist[np.arange(n), assignment].copy()
                # never take a cluster's last point, an earlier repair included
                assigned[np.bincount(assignment, minlength=k)[assignment] < 2] = -1.0
                assignment[int(assigned.argmax())] = cid
        if np.array_equal(assignment, labels):
            break
        labels = assignment
        for cid in range(k):
            centers[cid] = arr[labels == cid].mean(axis=0)

    names = {cid: str(cid) for cid in range(k)}
    return GroupingResult(labels, _make_groups(labels, names, emb))


def _neighbor_graph(arr: np.ndarray, eps2: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed eps-ball neighbors of every point as CSR ``(indptr, indices)``.

    Squared distances are built for a block of rows at a time, one coordinate
    after another, so no temporary grows past one block. Row i's neighbors
    are ``indices[indptr[i]:indptr[i + 1]]``, ascending and including i.
    """
    n = arr.shape[0]
    first, *rest = [np.ascontiguousarray(arr[:, k]) for k in range(arr.shape[1])]
    step = max(1, _BLOCK_CELLS // n)
    d2 = np.empty((step, n))
    diff = np.empty((step, n))
    counts = np.empty(n, dtype=np.int64)
    pieces = []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block, scratch = d2[: hi - lo], diff[: hi - lo]
        np.subtract(first[None, :], first[lo:hi, None], out=block)
        block *= block
        for c in rest:
            np.subtract(c[None, :], c[lo:hi, None], out=scratch)
            scratch *= scratch
            block += scratch
        rows, cols = np.divmod(np.flatnonzero(block <= eps2), n)
        counts[lo:hi] = np.bincount(rows, minlength=hi - lo)
        pieces.append(cols.astype(np.int32))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.concatenate(pieces)


def dbscan(data, eps: float, min_pts: int, embedding) -> GroupingResult:
    """Density-reachability clustering; unreachable points stay NOISE.

    Point j is a neighbor of point i when the squared distance, summed
    coordinate by coordinate in column order, is at most ``eps * eps``: the
    eps-ball is closed and holds the point itself. A point with at least
    ``min_pts`` neighbors is a core point. Cluster ids follow the order in
    which core points are first met over the input point order, and a border
    point (a non-core neighbor of core points) joins the lowest cluster id
    that reaches it, so results are deterministic.

    Time is O(n^2 d). Memory is one block of about ``_BLOCK_CELLS`` squared
    distances plus 4 bytes per neighbor pair. Up to 7 coordinates the sums
    equal numpy's row sum ``((data - data[i]) ** 2).sum(axis=1)`` bit for bit;
    from 8 on numpy adds in pairs, so a distance may differ from it by 1 ulp.
    """
    arr = as_matrix(data, name="data")
    n = arr.shape[0]
    emb = _check_embedding(embedding, n)
    if not (math.isfinite(eps) and eps > 0):
        raise InputDataError(f"eps must be positive and finite, got {eps}")
    if min_pts < 1:
        raise InputDataError(f"min_pts must be at least 1, got {min_pts}")

    indptr, indices = _neighbor_graph(arr, eps * eps)
    core = np.diff(indptr) >= min_pts
    labels = np.full(n, NOISE, dtype=int)
    cid = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        labels[i] = cid
        frontier = [i]
        while len(frontier):
            reached = np.concatenate([indices[indptr[j] : indptr[j + 1]] for j in frontier])
            reached = distinct(np.sort(reached[labels[reached] == NOISE]))
            labels[reached] = cid
            frontier = reached[core[reached]]
        cid += 1

    names = {g: str(g) for g in range(cid)}
    return GroupingResult(labels, _make_groups(labels, names, emb))


def mst_over_centers(grouping: GroupingResult) -> tuple[tuple[int, int, float], ...]:
    """Kruskal MST over the group centers as (id_a, id_b, length) triples.

    Edge weights are Euclidean. Equal-length edges are taken in order of
    their (id_a, id_b) pair, so the tree is deterministic.
    """
    centers = {g.id: g.center for g in grouping.groups}
    ids = sorted(centers)
    candidates = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            length = math.dist(centers[a], centers[b])
            candidates.append((length, a, b))
    candidates.sort()

    tree = {gid: gid for gid in ids}  # group id -> id of the tree holding it
    edges = []
    for length, a, b in candidates:
        ta, tb = tree[a], tree[b]
        if ta != tb:
            tree = {gid: ta if t == tb else t for gid, t in tree.items()}
            edges.append((a, b, length))
            if len(edges) == len(ids) - 1:
                break
    return tuple(edges)
