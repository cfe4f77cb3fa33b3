"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Every expected value comes from an independent oracle (bulk per-angle refits,
extended-precision normal equations, Simpson quadrature, exhaustive spanning
tree enumeration) or from geometry that pins the value exactly.
"""

import functools
import hashlib
import json
import math

import numpy as np
import pytest

from featureclock import (
    RunConfig,
    build_clock,
    build_global_clock,
    build_intergroup_clocks,
    build_local_clocks,
    center_columns,
    from_labels,
    logistic_fit,
    max_contribution,
    mst_over_centers,
    ols_fit,
    student_t_two_sided_p,
)
from featureclock.cli import main

from oracles import (
    array_design,
    logistic_penalized_gradient,
    make_dataset,
    min_spanning_weight,
    normal_equations_fit,
    pca_2d,
    refit_sweep,
    simpson_t_two_sided,
    standardize_reference,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL  {description}")
                raise
            print(f"criterion {number} PASS  {description}")
            return result

        return wrapper

    return decorate


def random_problem(seed, n=60, d=5):
    rng = np.random.default_rng(seed)
    x = standardize_reference(rng.normal(size=(n, d)))
    y = center_columns(rng.normal(size=(n, 2)))
    return x, y


@criterion(1, "closed-form maximum agrees with the 0.1-degree refit sweep")
def test_criterion_1_closed_form_maximum():
    for seed in range(100):
        x, y = random_problem(seed)
        fit0, fit90 = ols_fit(array_design(x, y))
        angles, grid = refit_sweep(x, y, 1800)
        for j in range(5):
            magnitude, angle = max_contribution(
                float(fit0.coefficients[j]), float(fit90.coefficients[j])
            )
            row = np.abs(grid[j])
            best = int(row.argmax())
            direction = angle % 180.0
            dist = abs(angles[best] - direction)
            assert min(dist, 180.0 - dist) <= 0.2
            assert magnitude > 0
            assert abs(row[best] - magnitude) <= 1e-6 * magnitude


@criterion(2, "every refit sweep sample lies on the diameter circle")
def test_criterion_2_circle_theorem():
    for seed in range(100):
        x, y = random_problem(seed)
        fit0, fit90 = ols_fit(array_design(x, y))
        angles, grid = refit_sweep(x, y, 1800)
        rad = np.radians(angles)
        cos, sin = np.cos(rad), np.sin(rad)
        for j in range(5):
            b0 = float(fit0.coefficients[j])
            b90 = float(fit90.coefficients[j])
            px = grid[j] * cos - b0 / 2.0
            py = grid[j] * sin - b90 / 2.0
            radius = 0.5 * math.hypot(b0, b90)
            deviation = np.abs(np.hypot(px, py) - radius)
            assert float(deviation.max()) < 1e-8


@criterion(3, "iris clock arrows equal the PCA biplot loadings")
def test_criterion_3_pca_biplot_equivalence(iris_dataset):
    clock = build_global_clock(iris_dataset)
    z = standardize_reference(iris_dataset.X)
    model = pca_2d(z)
    names = list(iris_dataset.feature_names)
    assert len(clock.arrows) == 4
    loading_norms = {}
    magnitudes = {}
    for arrow in clock.arrows:
        j = names.index(arrow.feature)
        loading = np.array([model.components[0, j], model.components[1, j]])
        vec = np.array([arrow.beta0, arrow.beta90])
        cos = float(loading @ vec / (np.linalg.norm(loading) * np.linalg.norm(vec)))
        assert math.degrees(math.acos(min(cos, 1.0))) < 0.5
        loading_norms[arrow.feature] = float(np.linalg.norm(loading))
        magnitudes[arrow.feature] = arrow.magnitude
    reference = names[0]
    for name in names[1:]:
        lhs = magnitudes[name] / magnitudes[reference]
        rhs = loading_norms[name] / loading_norms[reference]
        assert abs(lhs - rhs) < 1e-6


@criterion(4, "OLS matches the extended-precision normal-equations oracle")
def test_criterion_4_ols_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, d = 30, 4
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=d) + rng.normal(size=n)
        (fit,) = ols_fit(array_design(x, y))
        beta, se, p = normal_equations_fit(x, y)
        assert float(np.max(np.abs(fit.coefficients - beta))) < 1e-8
        assert float(np.max(np.abs(fit.std_errors - se))) < 1e-8
        assert float(np.max(np.abs(fit.p_values - p))) < 1e-9


@criterion(5, "Student-t tail agrees with Simpson quadrature")
def test_criterion_5_student_t_tail():
    for dof in (1, 2, 5, 10, 30, 120):
        for t in (0.5, 1.0, 2.0, 3.0, 5.0):
            expected = simpson_t_two_sided(t, dof)
            assert abs(student_t_two_sided_p(t, dof) - expected) < 1e-8


@criterion(6, "Kruskal MST equals the exhaustive-enumeration minimum")
def test_criterion_6_mst_exact():
    for k in (4, 5):
        for seed in range(8):
            rng = np.random.default_rng(1000 * k + seed)
            centers = rng.uniform(0.0, 10.0, size=(k, 2))
            tokens = [f"g{i}" for i in range(k)]
            grouping = from_labels(make_dataset(centers, centers, tokens))
            total = sum(length for _, _, length in mst_over_centers(grouping))
            assert total == pytest.approx(min_spanning_weight(centers), abs=1e-9)


def shifted_logistic_dataset():
    rng = np.random.default_rng(2)
    n = 250
    a = rng.normal(size=(n, 3))
    b = rng.normal(size=(n, 3))
    b[:, 0] += 5.0
    x = np.vstack([a, b])
    ya = rng.normal(scale=0.5, size=(n, 2))
    yb = rng.normal(scale=0.5, size=(n, 2)) + np.array([10.0, 0.0])
    return x, np.vstack([ya, yb]), ["low"] * n + ["high"] * n


@criterion(7, "logistic fit: vanishing gradient, swap antisymmetry, 5-sigma top arrow")
def test_criterion_7_logistic():
    # penalized gradient vanishes on non-separable fixtures
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(120, 3))
        eta = x @ np.array([0.8, -0.5, 0.3])
        labels = (rng.uniform(size=120) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = logistic_fit(array_design(x), labels)
        assert fit.converged
        grad = logistic_penalized_gradient(x, labels, fit.intercept, fit.coefficients, 1e-6)
        assert float(np.linalg.norm(grad)) < 1e-8

    # label-swap antisymmetry
    rng = np.random.default_rng(9)
    x = rng.normal(size=(100, 2))
    x[:50, 0] += 1.0
    labels = np.concatenate([np.zeros(50), np.ones(50)])
    fit = logistic_fit(array_design(x), labels)
    swapped = logistic_fit(array_design(x), 1.0 - labels)
    assert float(np.max(np.abs(fit.coefficients + swapped.coefficients))) < 1e-9
    assert float(np.max(np.abs(fit.p_values - swapped.p_values))) < 1e-9

    # 5-sigma shifted feature is the unique top significant arrow
    xs, ys, tokens = shifted_logistic_dataset()
    dataset = make_dataset(xs, ys, tokens)
    grouping = from_labels(dataset)
    clocks = build_intergroup_clocks(dataset, grouping, mst_over_centers(grouping))
    assert len(clocks) == 1
    assert clocks[0].converged
    assert [a.feature for a in clocks[0].arrows] == ["f0"]
    top = clocks[0].arrows[0]
    high = next(g for g in grouping.groups if g.name == "high")
    direction = np.array(high.center) - np.array(clocks[0].anchor)
    assert top.beta0 * direction[0] + top.beta90 * direction[1] > 0


@criterion(8, "rotation equivariance, scaling invariance, byte-identical demo")
def test_criterion_8_equivariance_and_determinism(tmp_path):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(80, 4))
    y = rng.normal(size=(80, 2)) + x[:, :2]

    base = build_clock(make_dataset(x, y), range(80), RunConfig(alpha=1.0))
    phi = 63.0
    rad = math.radians(phi)
    rot = np.array([[math.cos(rad), math.sin(rad)], [-math.sin(rad), math.cos(rad)]])
    turned = build_clock(make_dataset(x, y @ rot), range(80), RunConfig(alpha=1.0))
    for a, b in zip(base.arrows, turned.arrows):
        assert a.feature == b.feature
        assert abs(a.magnitude - b.magnitude) <= 1e-9
        diff = (b.angle_deg - a.angle_deg - phi) % 360.0
        assert min(diff, 360.0 - diff) <= 1e-9

    scaled_x = x.copy()
    scaled_x[:, 2] *= 411.17
    rescaled = build_clock(make_dataset(scaled_x, y), range(80), RunConfig(alpha=1.0))
    for a, b in zip(base.arrows, rescaled.arrows):
        assert a.feature == b.feature
        assert abs(a.beta0 - b.beta0) <= 1e-9
        assert abs(a.beta90 - b.beta90) <= 1e-9

    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["demo", "--out-dir", str(first)]) == 0
    assert main(["demo", "--out-dir", str(second)]) == 0
    for path in sorted(first.iterdir()):
        twin = second / path.name
        assert hashlib.sha256(path.read_bytes()).digest() == hashlib.sha256(
            twin.read_bytes()
        ).digest()


@criterion(9, "default run uses alpha=0.05, standardized X, centered Y; no angle step is sampled")
def test_criterion_9_defaults_conformance(tmp_path, iris_dataset):
    from featureclock.cli import demo_paths

    x_path, y_path, _ = demo_paths()
    out = tmp_path / "out"
    assert main(["global", "--x", str(x_path), "--y", str(y_path), "--out-dir", str(out)]) == 0
    config = json.loads((out / "clock.json").read_text())["config"]
    assert config["alpha"] == 0.05
    assert "theta_step_deg" not in config  # --circles draws each circle exactly
    assert config["standardize_x"] is True

    # Y is centered: an offset added to every embedding row moves each anchor
    # by that offset and leaves every coefficient and p-value. On a 1/1024
    # grid with power-of-two group sizes, every sum and mean here is exact.
    rng = np.random.default_rng(9)
    x = rng.normal(size=(128, 4))
    y = np.round((x[:, :2] @ [[1.0, 0.5], [-0.5, 1.0]] + rng.normal(size=(128, 2))) * 1024) / 1024
    labels = ("a",) * 64 + ("b",) * 64

    def views(embedding):
        dataset = make_dataset(x, embedding, labels)
        config = RunConfig(alpha=1.0)
        grouping = from_labels(dataset)
        return [build_global_clock(dataset, config), *build_local_clocks(dataset, grouping, config)]

    for base, moved in zip(views(y), views(y + [5.0, -3.0]), strict=True):
        assert moved.anchor == (base.anchor[0] + 5.0, base.anchor[1] - 3.0)
        assert [a.feature for a in moved.arrows] == [a.feature for a in base.arrows]
        for a, b in zip(base.arrows, moved.arrows):
            for field in ("beta0", "beta90", "p0", "p90"):
                assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-9, abs=0)
