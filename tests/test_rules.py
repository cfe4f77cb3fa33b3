"""RunConfig, the groupings and the clock renderer read a count or a positive number by one rule.

Each grouping or renderer parameter is paired with the RunConfig field that
carries it through the CLI: a value either raises the same InputDataError on
both sides, or the call runs as it does with the value the RunConfig stores.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featureclock import Clock, ClockArrow, ComputationError, InputDataError, RunConfig, dbscan, kmeans
from featureclock import render_clock, render_scatter

from oracles import make_dataset

# two tight blobs of 10 points, 5 apart: DBSCAN at eps 0.5 finds both
_RNG = np.random.default_rng(30)
_POINTS = np.vstack([_RNG.normal(0.0, 0.1, (10, 2)), _RNG.normal(5.0, 0.1, (10, 2))])
DATASET = make_dataset(_POINTS, _POINTS)
CLOCK = Clock("global", (2.5, 2.5), 1.0, (ClockArrow("f0", 1.0, 0.5, math.hypot(1.0, 0.5), 26.57, 0.001, 0.001, True),),
              20, None)


def km(k, seed):
    return kmeans(DATASET, k, seed).labels.tolist()


def db(eps, min_pts):
    return dbscan(DATASET, eps, min_pts).labels.tolist()


def radius(scale):
    return render_clock(render_scatter(DATASET), CLOCK, clock_scale=scale).clocks[0].radius


def outcome(call):
    """What ``call()`` returns, or the class and text of the package error it raises."""
    try:
        return "returned", call()
    except (InputDataError, ComputationError) as exc:
        return type(exc).__name__, str(exc)


# Per RunConfig field, the other fields it needs and the call that takes the field's value.
PAIRS = {
    "cluster_k": ({}, lambda v: km(v, 0)),
    "seed": ({}, lambda v: km(2, v)),
    "cluster_eps": ({"cluster_method": "dbscan"}, lambda v: db(v, 5)),
    "cluster_min_pts": ({}, lambda v: db(0.5, v)),
    "clock_scale": ({}, radius),
}

VALUES = st.one_of(
    st.integers(-3, 25),
    st.integers(-3, 25).map(float),
    st.floats(-3.0, 25.0).filter(lambda v: not v.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["3", "-1", "0", " 2 ", "0.5", "2.5", "1e400", "nan", "inf", "five", ""]),
    st.sampled_from([True, False, np.True_, np.False_]),
    st.integers(-3, 25).map(np.int64),
    st.none(),
)


@pytest.mark.parametrize("field", sorted(PAIRS))
@settings(max_examples=120, deadline=None)
@given(value=VALUES)
def test_call_reads_a_value_as_run_config_does(field, value):
    needs, call = PAIRS[field]
    try:
        stored = getattr(RunConfig(**needs, **{field: value}), field)
    except InputDataError as exc:
        assert outcome(lambda: call(value)) == ("InputDataError", str(exc))
    else:
        assert outcome(lambda: call(value)) == outcome(lambda: call(stored))


# Calls whose verdict the shared rules changed, one row each: the text the call
# raises now, or an equivalent call with the value a RunConfig stores. The
# comment gives what the call did when the groupings, the renderer and the
# RunConfig each had a rule of their own.
CHANGED = {
    # ran, seeding random.Random(1.5)
    "kmeans-fractional-seed": (lambda: km(2, 1.5), "seed must be an integer, got 1.5"),
    # ran, seeding random.Random(True)
    "kmeans-bool-seed": (lambda: km(2, True), "seed must be an integer, got True"),
    # ran with min_pts 1
    "dbscan-bool-min-pts": (lambda: db(1.0, True), "min_pts must be an integer, got True"),
    # ran with a fractional min_pts
    "dbscan-fractional-min-pts": (lambda: db(0.5, 2.5), "min_pts must be an integer, got 2.5"),
    # TypeError: 'float' object cannot be interpreted as an integer
    "kmeans-whole-float-k": (lambda: km(2.0, 0), lambda: km(2, 0)),
    # TypeError: random.Random refuses a numpy int
    "kmeans-numpy-ints": (lambda: km(np.int64(2), np.int64(0)), lambda: km(2, 0)),
    # TypeError comparing "3" with 0
    "kmeans-string-seed": (lambda: km(2, "3"), lambda: km(2, 3)),
    # TypeError from math.isfinite("0.5")
    "dbscan-string-eps": (lambda: db("0.5", 2), lambda: db(0.5, 2)),
    # stored 1
    "config-bool-seed": (lambda: RunConfig(seed=True), "seed must be an integer, got True"),
    # stored 1
    "config-bool-top-k": (lambda: RunConfig(top_k=True), "top_k must be an integer, got True"),
    # stored 1.0
    "config-bool-alpha": (lambda: RunConfig(alpha=True), "alpha must be a finite number, got True"),
    # stored 1.0
    "config-bool-scale": (lambda: RunConfig(clock_scale=True), "scale must be a finite number, got True"),
    # accepted without a cluster method
    "config-k-zero": (lambda: RunConfig(cluster_k=0), "k must be at least 1, got 0"),
    # raised "kmeans needs k >= 1"
    "config-kmeans-k-zero": (lambda: RunConfig(cluster_method="kmeans", cluster_k=0), "k must be at least 1, got 0"),
    # raised "dbscan needs eps > 0"
    "config-eps-zero": (lambda: RunConfig(cluster_method="dbscan", cluster_eps=0.0), "eps must be positive, got 0.0"),
    # raised "dbscan needs min_pts >= 1"
    "config-min-pts-zero": (lambda: RunConfig(cluster_method="dbscan", cluster_eps=0.5, cluster_min_pts=0),
                            "min_pts must be at least 1, got 0"),
    # raised "eps must be positive and finite, got 0.0"
    "dbscan-eps-zero": (lambda: db(0.0, 5), "eps must be positive, got 0.0"),
    # raised "eps must be positive and finite, got inf"
    "dbscan-eps-inf": (lambda: db(math.inf, 5), "eps must be a finite number, got inf"),
    # drew a clock of radius 1
    "render-bool-scale": (lambda: radius(True), "scale must be a finite number, got True"),
    # TypeError multiplying a float by "2"
    "render-string-scale": (lambda: radius("2"), lambda: radius(2.0)),
    # ComputationError: clock radius must be positive and finite, got 0.0
    "render-zero-scale": (lambda: radius(0), "scale must be positive, got 0.0"),
    # ComputationError: clock radius must be positive and finite, got -1.0
    "render-negative-scale": (lambda: radius(-1), "scale must be positive, got -1.0"),
}


@pytest.mark.parametrize("name", sorted(CHANGED))
def test_changed_call(name):
    call, expected = CHANGED[name]
    if callable(expected):
        assert outcome(call) == outcome(expected)
        assert outcome(call)[0] == "returned"
    else:
        assert outcome(call) == ("InputDataError", expected)
