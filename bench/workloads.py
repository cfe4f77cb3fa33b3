"""Seeded synthetic inputs for the three benchmark workloads.

Every generator is a pure function of its seed, so the checks can rebuild the
exact arrays the program read: the CSV writer uses ``repr``, the shortest
text that parses back to the same float.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# Row and column counts of each workload.
GLOBAL_SHAPE = (10_000, 200)
GLOBAL_PLANTED = 10
GLOBAL_CLASSES = 5

KMEANS_SHAPE = (40_000, 20)
KMEANS_K = 8
# Spread of the latent k-means centers per feature, against unit noise. At
# this separation k-means++ put one center in every latent cluster on all 300
# seeds tried, and Lloyd stops after 2 rounds. At 0.5-30 the seeding
# sometimes doubles up a cluster, and the round count swung from 2 to 176
# with the seed, which made the run time unsteady.
KMEANS_SEPARATION = 100.0

DBSCAN_ROWS = 8_000
DBSCAN_FEATURES = 30
DBSCAN_BLOBS = 10
DBSCAN_NOISE = 240  # 3% of the rows, uniform over the embedding's box
DBSCAN_EPS = 0.5
DBSCAN_MIN_PTS = 10

# Command-line flags per workload; the input and output paths are added by
# ``cli_args``.
FLAGS = {
    "global-wide": ["global"],
    "local-kmeans": ["local", "--cluster", f"kmeans:{KMEANS_K}"],
    "intergroup-dbscan": [
        "intergroup", "--cluster", f"dbscan:{DBSCAN_EPS},{DBSCAN_MIN_PTS}", "--cluster-on", "y",
    ],
}
# Distinct stream per workload, so one seed gives unrelated inputs to each.
_STREAM = {"global-wide": 1, "local-kmeans": 2, "intergroup-dbscan": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


def _global_wide(rng: np.random.Generator) -> dict:
    """Standard-normal features; the embedding is linear in a planted few."""
    n, d = GLOBAL_SHAPE
    x = rng.standard_normal((n, d))
    planted = np.sort(rng.choice(d, GLOBAL_PLANTED, replace=False))
    coef = rng.uniform(1.0, 2.0, (GLOBAL_PLANTED, 2)) * rng.choice([-1.0, 1.0], (GLOBAL_PLANTED, 2))
    y = x[:, planted] @ coef + rng.standard_normal((n, 2))
    labels = [f"class{c}" for c in rng.integers(GLOBAL_CLASSES, size=n)]
    return {"X": x, "Y": y, "labels": labels, "planted": planted}


def _local_kmeans(rng: np.random.Generator) -> dict:
    """Latent clusters in X; each cluster's embedding is linear in 4 features."""
    n, d = KMEANS_SHAPE
    centers = rng.standard_normal((KMEANS_K, d)) * KMEANS_SEPARATION
    group = rng.integers(KMEANS_K, size=n)
    z = rng.standard_normal((n, d))
    weights = np.zeros((d, 2))
    weights[:4] = rng.uniform(0.5, 1.5, (4, 2)) * rng.choice([-1.0, 1.0], (4, 2))
    spots = rng.uniform(-20.0, 20.0, (KMEANS_K, 2))
    y = spots[group] + z @ weights + rng.standard_normal((n, 2))
    return {"X": centers[group] + z, "Y": y, "labels": None}


def _intergroup_dbscan(rng: np.random.Generator) -> dict:
    """Well-spaced embedding blobs plus uniform noise; each blob shifts 5 features."""
    n, d, blobs = DBSCAN_ROWS, DBSCAN_FEATURES, DBSCAN_BLOBS
    per_blob = (n - DBSCAN_NOISE) // blobs
    angles = np.arange(blobs) * 2.0 * np.pi / blobs
    centers = 12.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    blob = np.repeat(np.arange(blobs), per_blob)
    y = np.vstack([
        centers[blob] + 0.6 * rng.standard_normal((blob.size, 2)),
        rng.uniform(-16.0, 16.0, (DBSCAN_NOISE, 2)),
    ])
    shifts = np.zeros((blobs, d))
    for b in range(blobs):
        shifts[b, rng.choice(d, 5, replace=False)] = 0.8 * rng.choice([-1.0, 1.0], 5)
    means = np.vstack([shifts[blob], np.zeros((DBSCAN_NOISE, d))])
    x = means + rng.standard_normal((n, d))
    order = rng.permutation(n)
    return {"X": x[order], "Y": y[order], "labels": None}


_GENERATORS = {
    "global-wide": _global_wide,
    "local-kmeans": _local_kmeans,
    "intergroup-dbscan": _intergroup_dbscan,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload: X, Y, labels (or None) and any planted truth."""
    return _GENERATORS[workload](_rng(workload, seed))


def _write_text(path: Path, text: str) -> None:
    """Write and flush to disk, so that write-back does not overlap the timed runs."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
        out.flush()
        os.fsync(out.fileno())


def _write_table(path: Path, header: list[str], values: np.ndarray) -> None:
    rows = (",".join(map(repr, row)) for row in values.tolist())
    _write_text(path, ",".join(header) + "\n" + "\n".join(rows) + "\n")


def write_inputs(data: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    d = data["X"].shape[1]
    _write_table(directory / "X.csv", [f"f{j}" for j in range(d)], data["X"])
    _write_table(directory / "Y.csv", ["x", "y"], data["Y"])
    if data["labels"] is not None:
        _write_text(directory / "labels.csv", "label\n" + "\n".join(data["labels"]) + "\n")


def cli_args(workload: str, inputs: Path) -> list[str]:
    """Arguments of ``featureclock`` for the workload, less ``--out-dir``."""
    args = [*FLAGS[workload], "--x", str(inputs / "X.csv"), "--y", str(inputs / "Y.csv")]
    if workload == "global-wide":
        args += ["--labels", str(inputs / "labels.csv")]
    return args
