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
from .intergroup import IntergroupClock, LogisticFit, build_intergroup_clocks, logistic_fit
from .numstats import (
    RegressionFit,
    center_columns,
    normal_two_sided_p,
    ols_fit,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)
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
    "LogisticFit",
    "RankDeficientError",
    "RegressionFit",
    "RunConfig",
    "Scene",
    "build_clock",
    "build_global_clock",
    "build_intergroup_clocks",
    "build_local_clocks",
    "center_columns",
    "dbscan",
    "from_labels",
    "kmeans",
    "load_dataset",
    "logistic_fit",
    "max_contribution",
    "mst_over_centers",
    "normal_two_sided_p",
    "ols_fit",
    "regularized_incomplete_beta",
    "render_circles",
    "render_clock",
    "render_intergroup",
    "render_scatter",
    "student_t_two_sided_p",
    "validate_config",
    "__version__",
]
