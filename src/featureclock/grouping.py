"""Point groupings for local and inter-group clocks, read from a checked ``Dataset``.

Groups come from its labels, or from seeded k-means or DBSCAN (with its noise
detection) over its X or its embedding Y. Group centers always live in the
embedding, where clocks are placed and the spanning tree is measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputDataError
from .ingest import Dataset, cluster_space, count, positive
from .numstats import distinct

# Label value for points no cluster claims. The token "noise" (any case) in a
# labels file maps here; noise points never join a group or shift a center.
NOISE = -1

# Squared distances held at once by DBSCAN's passes (1 MiB of float64): a
# block of rows times the columns within eps of them on the first coordinate,
# at least one row, so a block of n columns has max(1, _BLOCK_CELLS // n)
# rows. A second buffer of that size holds one coordinate's squares, then the
# block's neighbor and union masks; the union lists at most
# _BLOCK_CELLS // 64 pairs at once. K-means takes blocks of
# max(1, _BLOCK_CELLS // max(d, k)) rows against all k centers.
_BLOCK_CELLS = 2**17

_OVERFLOW = "k-means: squared distances between points overflow; rescale the features"


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
        rows = embedding[members]
        center = (float(rows[:, 0].mean()), float(rows[:, 1].mean()))
        groups.append(Group(gid, names[gid], members, center))
    return tuple(groups)


def _space(dataset: Dataset, on: str) -> np.ndarray:
    """The points a clustering reads: the rows of ``dataset.X`` (``on="x"``) or of ``dataset.Y`` ("y")."""
    return dataset.X if cluster_space(on) == "x" else dataset.Y


def from_labels(dataset: Dataset) -> GroupingResult:
    """Group points by the dataset's labels, in first-appearance order.

    The token "noise" (case-insensitive) is reserved for unassigned points.
    """
    if dataset.labels is None:
        raise ComputationError("the dataset has no labels to group by")
    labels = np.full(len(dataset.labels), NOISE, dtype=int)
    ids: dict[str, int] = {}
    for i, token in enumerate(map(str, dataset.labels)):
        if token.lower() != "noise":
            labels[i] = ids.setdefault(token, len(ids))
    names = {gid: token for token, gid in ids.items()}
    return GroupingResult(labels, _make_groups(labels, names, dataset.Y))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises ComputationError below
def kmeans(dataset: Dataset, k: int, seed: int, *, on: str = "x") -> GroupingResult:
    """Lloyd's iterations from a seeded k-means++ start; no noise labels.

    The start takes one ``random.Random(seed).random()`` draw u per center:
    the first center is row ``int(u * n)``, and each later one is the first
    row whose share of the cumulative squared distances to the centers so
    far exceeds u (uniform again once every row sits on a center).
    Empty clusters are repaired by reseeding them with the point farthest
    from its current center among clusters of two or more points, so every
    cluster keeps a member. Identical data, k, and seed give identical
    labels. The points are the rows of ``dataset.X`` (``on="x"``) or of
    the embedding ``dataset.Y`` (``on="y"``); centers are always computed
    from ``dataset.Y``. k and seed obey RunConfig's rules, with its texts,
    and k may not exceed n. Squared distances (or their k-means++ total)
    that overflow raise ComputationError, with no numpy warning.

    Memory beyond the points is one block of rows, about ``_BLOCK_CELLS``
    differences and as many squared distances, plus O(n): the labels, each
    point's distance to its center and a copy of one feature column.
    """
    arr = _space(dataset, on)
    k, seed = count("k", k, 1), count("seed", seed, 0)
    n = arr.shape[0]
    if k > n:
        raise InputDataError(f"k={k} exceeds the number of points ({n})")

    # a block of rows at a time: its differences to one center, then its
    # squared distances to every center
    rows = max(1, _BLOCK_CELLS // max(arr.shape[1], k))
    diff = np.empty((min(rows, n), arr.shape[1]))
    dist = np.empty((min(rows, n), k))

    def squared_distances(lo, centers):
        """Squared distances from the rows of the block at ``lo`` to ``centers``."""
        points = arr[lo : lo + rows]
        part = diff[: len(points)]
        block = dist[: len(points), : len(centers)]
        for c, center in enumerate(centers):
            np.subtract(points, center, out=part)
            np.square(part, out=part)
            part.sum(axis=1, out=block[:, c])
        return block

    starts = range(0, n, rows)
    # each row's squared distance to its nearest center: the centers chosen so
    # far while seeding, then its assigned center in Lloyd's rounds
    nearest = np.full(n, np.inf)
    rng = random.Random(seed)
    centers = np.empty((k, arr.shape[1]))
    for c in range(k):
        total = float(nearest.sum()) if c else 0.0
        if not math.isfinite(total):
            raise ComputationError(_OVERFLOW)
        u = rng.random()
        if total <= 0.0:
            idx = int(u * n)
        else:
            cdf = nearest.cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(u, side="right"))
        centers[c] = arr[idx]
        for lo in starts:
            part = nearest[lo : lo + rows]
            np.minimum(part, squared_distances(lo, centers[c : c + 1])[:, 0], out=part)

    labels = np.full(n, -1, dtype=int)
    for _ in range(300):
        assignment = np.empty(n, dtype=int)  # a new array: labels holds the last round's
        for lo in starts:
            block = squared_distances(lo, centers)
            block.argmin(axis=1, out=assignment[lo : lo + rows])
            block.min(axis=1, out=nearest[lo : lo + rows])
        if not math.isfinite(nearest.max()):  # NaN propagates through max
            raise ComputationError(_OVERFLOW)
        sizes = np.bincount(assignment, minlength=k)
        for cid in np.flatnonzero(sizes == 0):
            assigned = nearest.copy()
            # never take a cluster's last point, an earlier repair included
            # (so the stale distance of a point moved by a repair is unread)
            assigned[sizes[assignment] < 2] = -1.0
            point = int(assigned.argmax())
            sizes[assignment[point]] -= 1
            sizes[cid] += 1
            assignment[point] = cid
        if np.array_equal(assignment, labels):
            break
        labels = assignment
        # bincount adds each cluster's rows in row order, from zero
        for j in range(arr.shape[1]):
            centers[:, j] = np.bincount(labels, weights=arr[:, j], minlength=k)
        centers /= sizes[:, None]

    names = {cid: str(cid) for cid in range(k)}
    return GroupingResult(labels, _make_groups(labels, names, dataset.Y))


def _find(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The roots of ``x`` in the forest ``parent``, with x's links pointed at them.

    Every step links each of x to its grandparent, so the part of a path
    that lies in x halves with each step.
    """
    links = parent[x]
    while True:
        up = parent[links]
        if np.array_equal(up, links):
            return links
        parent[x] = up
        links = up


def _unite(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the trees of each pair of roots ``(a[t], b[t])``, the higher root under the lower.

    When one root is hooked by several pairs at once the last write wins;
    the pairs whose roots then still differ are hooked again.
    """
    while a.size:
        low, high = np.minimum(a, b), np.maximum(a, b)
        parent[high] = low
        a, b = _find(parent, low), _find(parent, high)
        apart = a != b
        a, b = a[apart], b[apart]


def _dbscan_labels(arr: np.ndarray, eps2: float, min_pts: int) -> tuple[np.ndarray, int]:
    """DBSCAN labels of the rows of ``arr`` (NOISE or a cluster id) and the number of clusters.

    Both passes of ``dbscan`` run here, so their block buffers are freed on return.
    """
    n = arr.shape[0]
    ids = np.argsort(arr[:, 0], kind="stable")  # input row of each sorted point
    first, *rest = [arr[ids, k] for k in range(arr.shape[1])]
    # No neighbor lies outside its row's window. Rounding to nearest is
    # monotone and adding a non-negative square never lowers a sum, so a
    # neighbor's computed d2 is at least fl(D * D), D = fl(first[j] - first[i]).
    # Every float D with |D| >= reach has fl(D * D) > eps2: sqrt is correctly
    # rounded, the factor lifts reach * reach clear of eps2's rounding, and the
    # addend does so when eps2 is subnormal or zero. So a neighbor has
    # |D| < reach, hence |first[j] - first[i]| < reach exactly (reach is a
    # float), and then fl(first[i] - reach) <= first[j] <= fl(first[i] + reach)
    # however large the coordinates: a bound beyond first[j], a float, cannot
    # round past it.
    reach = math.sqrt(eps2) * (1 + 2**-40) + 2**-500
    left = np.searchsorted(first, first - reach, side="left")
    right = np.searchsorted(first, first + reach, side="right")
    cells = max(_BLOCK_CELLS, n)
    d2, scratch = np.empty(cells), np.empty(cells)
    # once a block's sums are in d2, the bytes of scratch hold its two masks
    near_cells, apart_cells = scratch.view(bool)[:cells], scratch.view(bool)[cells : 2 * cells]

    def windows(rows):
        """``(i, j, base, near)`` for blocks ``rows[i:j]`` of the ascending sorted points ``rows``.

        ``near[a, c]`` tells whether sorted point ``base + c`` is a neighbor of
        sorted point ``rows[i + a]``, and the columns hold every neighbor of
        the block's rows. ``d2`` is free while a block is yielded.
        """
        i = 0
        while i < rows.size:
            # k rows span widths[k - 1] columns, and k * widths[k - 1] grows
            # with k, so one search finds the most rows whose cells fit the budget
            base = left[rows[i]]
            widths = right[rows[i : i + max(1, _BLOCK_CELLS // (right[rows[i]] - base))]] - base
            area = widths * np.arange(1, widths.size + 1)
            j = i + max(1, int(np.searchsorted(area, _BLOCK_CELLS, side="right")))
            block_rows, width = rows[i:j, None], int(widths[j - i - 1])
            block = d2[: (j - i) * width].reshape(j - i, width)
            part = scratch[: block.size].reshape(block.shape)
            np.subtract(first[None, base : base + width], first[block_rows], out=block)
            block *= block
            for c in rest:
                np.subtract(c[None, base : base + width], c[block_rows], out=part)
                part *= part
                block += part
            near = near_cells[: block.size].reshape(block.shape)
            yield i, j, base, np.less_equal(block, eps2, out=near)
            i = j

    # Every pair of sorted points a < b is met in b's block, and from the end
    # of that block on both counts are final (near is symmetric: the squares
    # of fl(x - y) and fl(y - x) are equal). So each block joins the core
    # pairs whose column lies before its end, each onto its lower root keyed
    # by input row: a tree's root is then its lowest core input row.
    counts = np.empty(n, dtype=np.int64)
    core = np.empty(n, dtype=bool)
    parent = np.arange(n)
    pair_cap = _BLOCK_CELLS // 64  # pairs listed at once; a pair takes about 50 bytes of indices
    for i, j, base, near in windows(np.arange(n)):
        counts[i:j] = np.count_nonzero(near, axis=1)
        np.greater_equal(counts[i:j], min_pts, out=core[i:j])
        if not core[i:j].any():
            continue
        joined = near[:, : j - base]
        joined &= core[None, base:j]
        joined[~core[i:j]] = False  # faster than broadcasting a column
        members = ids[base:j]  # the block's rows are the last j - i of them
        apart = joined  # the block's rows are still alone in their trees: most pairs are apart
        while True:
            # join every row with its first column still apart: this removes
            # at least one pair per such row, and mostly all but a few
            cols = apart.argmax(axis=1)
            rows = np.flatnonzero(apart[np.arange(j - i), cols])
            _unite(parent, _find(parent, members[i - base + rows]),
                   _find(parent, members[cols[rows]]))
            roots = _find(parent, members)
            apart = np.not_equal(
                roots[i - base :, None], roots[None, :],
                out=apart_cells[: joined.size].reshape(joined.shape),
            )
            apart &= joined
            if np.count_nonzero(apart) <= pair_cap:
                break
        # a flat search: np.nonzero of a 2-D mask is ten times slower
        rows, cols = np.divmod(np.flatnonzero(apart), apart.shape[1])
        _unite(parent, roots[i - base + rows], roots[cols])

    # cluster ids in the order of the roots, the lowest core input rows
    labels = np.full(n, NOISE, dtype=int)
    core_rows = np.flatnonzero(core)
    roots = _find(parent, ids[core_rows])
    heads = distinct(np.sort(roots))
    cluster = np.full(n, np.inf)  # by sorted point; inf off the core
    cluster[core_rows] = labels[ids[core_rows]] = np.searchsorted(heads, roots)
    border = np.flatnonzero(~core & (counts >= 2))
    for i, j, base, near in windows(border):
        lowest = d2[: near.size].reshape(near.shape)
        lowest.fill(np.inf)
        np.copyto(lowest, cluster[None, base : base + near.shape[1]], where=near)
        best = lowest.min(axis=1)
        reached = np.isfinite(best)
        labels[ids[border[i:j][reached]]] = best[reached]

    return labels, heads.size


def dbscan(dataset: Dataset, eps: float, min_pts: int, *, on: str = "x") -> GroupingResult:
    """Density-reachability clustering; unreachable points stay NOISE.

    Point j is a neighbor of point i when the squared distance, summed
    coordinate by coordinate in column order, is at most ``eps * eps``: the
    eps-ball is closed and holds the point itself. A point with at least
    ``min_pts`` neighbors is a core point. Cluster ids follow the order in
    which core points are first met over the input point order, and a border
    point (a non-core neighbor of core points) joins the lowest cluster id
    that reaches it, so results are deterministic. The points are the rows
    of ``dataset.X`` (``on="x"``) or of the embedding ``dataset.Y``
    (``on="y"``); centers are always computed from ``dataset.Y``. eps and
    min_pts obey RunConfig's rules, with its texts.

    The points are sorted by their first coordinate, and each block of sorted
    rows is compared only with the columns whose first coordinate lies within
    reach of the block's own. One pass over all rows counts each row's
    neighbors and, in the same block, joins its core pairs in a union-find;
    a second pass over the border rows alone (non-core, with another
    neighbor) gives each the lowest cluster among its core neighbors. No
    neighbor pair is stored.

    Time is O(n log n) to sort, plus d times the cells of the row blocks'
    column windows, which hold the pairs whose first coordinates lie within
    eps: still O(n^2 d) when every point is that close to every other.
    Memory is O(n) beyond a sorted copy of the points: the counts, the
    union-find forest and the labels, plus two buffers of ``_BLOCK_CELLS``
    float64 (or n, if larger). Up to 7 coordinates the sums equal numpy's
    row sum ``((points - points[i]) ** 2).sum(axis=1)`` bit for bit; from 8 on
    numpy adds in pairs, so a distance may differ from it by 1 ulp.
    """
    arr = _space(dataset, on)
    eps, min_pts = positive("eps", eps), count("min_pts", min_pts, 1)

    labels, clusters = _dbscan_labels(arr, eps * eps, min_pts)
    names = {g: str(g) for g in range(clusters)}
    return GroupingResult(labels, _make_groups(labels, names, dataset.Y))


def mst_over_centers(grouping: GroupingResult) -> tuple[tuple[int, int, float], ...]:
    """Prim's minimum spanning tree over the group centers, as (id_a, id_b, length) triples.

    The triples have id_a < id_b and come sorted by the key (length, id_a,
    id_b), a strict total order, so the tree is unique. A length is
    ``math.dist``'s, the same bits whichever end comes first. Each group
    outside the tree keeps only its lightest edge into it: O(G) memory.
    """
    centers = {g.id: g.center for g in grouping.groups}
    if not centers:
        return ()
    root, *rest = sorted(centers)
    best = {gid: (math.dist(centers[root], centers[gid]), root, gid) for gid in rest}
    edges = []
    while best:
        joined = min(best, key=best.__getitem__)
        edges.append(best.pop(joined))
        here = centers[joined]
        for gid, key in best.items():
            length = math.dist(here, centers[gid])
            if length <= key[0]:
                best[gid] = min(key, (length, min(joined, gid), max(joined, gid)))
    return tuple((a, b, length) for length, a, b in sorted(edges))
