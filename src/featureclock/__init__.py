"""Clock glyphs for 2D embeddings.

Given a high-dimensional dataset and any 2D embedding of it (t-SNE, UMAP,
PCA scores, a neural layer, ...), this package computes, per feature, the
direction and strength of that feature's strongest linear influence on the
embedded coordinates, and renders the result as deterministic SVG plus a
machine-readable JSON report. Three views are available: one clock over all
points, one clock per group, and clocks along the spanning tree between
group centers showing what separates neighboring groups.
"""

from .clockcore import (
    Clock,
    ClockArrow,
    build_clock,
    build_global_clock,
    build_local_clocks,
    max_contribution,
)
from .errors import (
    ClockWarning,
    ComputationError,
    FeatureClockError,
    GroupTooSmallError,
    InputDataError,
    RankDeficientError,
)
from .grouping import (
    NOISE,
    Group,
    GroupingResult,
    dbscan,
    from_labels,
    kmeans,
    mst_over_centers,
)
from .ingest import Dataset, RunConfig, load_dataset, validate_config
from .intergroup import IntergroupClock, build_intergroup_clocks
from .render import Scene, render_circles, render_clock, render_intergroup, render_scatter

__version__ = "0.1.0"

__all__ = [
    "NOISE",
    "Clock",
    "ClockArrow",
    "ClockWarning",
    "ComputationError",
    "Dataset",
    "FeatureClockError",
    "Group",
    "GroupingResult",
    "GroupTooSmallError",
    "InputDataError",
    "IntergroupClock",
    "RankDeficientError",
    "RunConfig",
    "Scene",
    "build_clock",
    "build_global_clock",
    "build_intergroup_clocks",
    "build_local_clocks",
    "dbscan",
    "from_labels",
    "kmeans",
    "load_dataset",
    "max_contribution",
    "mst_over_centers",
    "render_circles",
    "render_clock",
    "render_intergroup",
    "render_scatter",
    "validate_config",
    "__version__",
]
