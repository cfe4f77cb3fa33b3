import csv
import errno
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import featureclock
import featureclock.cli as cli_module
import featureclock.clockcore as clockcore_module
import featureclock.ingest as ingest_module
import featureclock.render as render_module
from featureclock import (
    ClockWarning,
    ComputationError,
    InputDataError,
    dbscan,
    from_labels,
    kmeans,
    validate_config,
)
from featureclock.cli import demo_paths, main
from featureclock.render import PALETTE

from oracles import make_dataset, mst_reference, pca_2d, standardize_reference

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(args):
    return main([str(a) for a in args])


def svg_traces(svg):
    """(cx, cy, r) in pixels of every coefficient circle of a --circles SVG: the unfilled circles but the grey rims."""
    return [
        tuple(float(c.get(key)) for key in ("cx", "cy", "r"))
        for c in ET.fromstring(svg).iter(f"{SVG_NS}circle")
        if c.get("fill") == "none" and c.get("stroke") != "#bbbbbb"
    ]


def write_matrix(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path


def write_labels(path, tokens):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label"])
        for token in tokens:
            writer.writerow([token])
    return path


@pytest.fixture(scope="module")
def iris_paths():
    return demo_paths()


@pytest.fixture
def noise_inputs(tmp_path):
    rng = np.random.default_rng(0)
    x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], rng.normal(size=(100, 3)))
    y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(100, 2)))
    return x, y


@pytest.fixture
def shifted_inputs(tmp_path):
    rng = np.random.default_rng(2)
    n = 250
    a = rng.normal(size=(n, 3))
    b = rng.normal(size=(n, 3))
    b[:, 0] += 5.0
    x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], np.vstack([a, b]))
    ya = rng.normal(scale=0.5, size=(n, 2))
    yb = rng.normal(scale=0.5, size=(n, 2)) + np.array([10.0, 0.0])
    y = write_matrix(tmp_path / "y.csv", ["x", "y"], np.vstack([ya, yb]))
    labels = write_labels(tmp_path / "labels.csv", ["low"] * n + ["high"] * n)
    return x, y, labels


class TestGlobalCommand:
    def test_iris_top4_matches_loadings(self, iris_paths, iris_dataset, tmp_path):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--top-k", "4", "--out-dir", out]) == 0
        report = json.loads((out / "clock.json").read_text())
        arrows = report["clocks"][0]["arrows"]
        assert len(arrows) == 4
        z = standardize_reference(iris_dataset.X)
        model = pca_2d(z)
        names = list(iris_dataset.feature_names)
        for arrow in arrows:
            j = names.index(arrow["feature"])
            loading = np.array([model.components[0, j], model.components[1, j]])
            vec = np.array([arrow["beta0"], arrow["beta90"]])
            cos = float(loading @ vec / (np.linalg.norm(loading) * np.linalg.norm(vec)))
            assert cos > 0.9999

    def test_missing_file_exit_2(self, iris_paths, tmp_path, capsys):
        x, _, _ = iris_paths
        code = run(["global", "--x", x, "--y", tmp_path / "absent.csv"])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_tiny_alpha_on_noise_warns_empty(self, noise_inputs, tmp_path, capsys):
        x, y = noise_inputs
        out = tmp_path / "out"
        code = run(["global", "--x", x, "--y", y, "--alpha", "0.0001", "--out-dir", out])
        assert code == 0
        assert "no significant features" in capsys.readouterr().err
        report = json.loads((out / "clock.json").read_text())
        assert report["clocks"][0]["arrows"] == []
        assert any("no significant" in w for w in report["warnings"])

    def test_rank_deficient_features_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a, b, e = rng.normal(size=(3, 40))
        x = write_matrix(tmp_path / "x.csv", ["const", "a", "b", "a_plus_b", "e"],
                         np.column_stack([np.full(40, 2.0), a, b, a + b, e]))
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(40, 2)))
        assert run(["global", "--x", x, "--y", y, "--out-dir", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert re.search(r"error: group 'global': .*: a_plus_b$", err, re.MULTILINE)

    def test_bad_alpha_exit_2(self, noise_inputs, capsys):
        x, y = noise_inputs
        assert run(["global", "--x", x, "--y", y, "--alpha", "1.5"]) == 2

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("global", ["--alpha", "nan"], "alpha"),
            ("global", ["--alpha", "inf"], "alpha"),
            ("local", ["--scale", "nan"], "scale"),
            ("global", ["--scale", "nan"], "scale"),
            ("global", ["--scale", "inf"], "scale"),
            ("local", ["--cluster", "dbscan:nan,5"], "eps"),
            ("intergroup", ["--cluster", "dbscan:inf,5"], "eps"),
        ],
    )
    def test_non_finite_option_exit_2(self, noise_inputs, tmp_path, capsys, command, flags, name):
        x, y = noise_inputs
        out = tmp_path / "out"
        assert run([command, "--x", x, "--y", y, *flags, "--out-dir", out]) == 2
        assert f"{name} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cluster, message",
        [
            ("local", "kmeans:0", "k must be at least 1, got 0"),
            ("local", "kmeans:2.5", "k must be an integer, got '2.5'"),
            ("intergroup", "dbscan:0,5", "eps must be positive, got 0.0"),
            ("local", "dbscan:0.5,0", "min_pts must be at least 1, got 0"),
            ("local", "dbscan:0.5", "expected dbscan:<eps>,<min_pts>, got 'dbscan:0.5'"),
            ("local", "kmeans:3,4", "expected kmeans:<k>, got 'kmeans:3,4'"),
        ],
    )
    def test_cluster_values_read_by_run_config_rules(self, noise_inputs, tmp_path, capsys, command, cluster, message):
        # --cluster's values get the texts a library call gets for them
        x, y = noise_inputs
        out = tmp_path / "out"
        assert run([command, "--x", x, "--y", y, "--cluster", cluster, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_exit_2(self, iris_paths, tmp_path, capsys):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        args = ["local", "--x", x, "--y", y, "--cluster", "kmeans:3", "--seed", "-1"]
        assert run([*args, "--out-dir", out]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--circles"]])
    def test_overflowing_radius_exit_3(self, iris_paths, tmp_path, capsys, flags):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        args = ["global", "--x", x, "--y", y, "--scale", "1e308", *flags]
        assert run([*args, "--out-dir", out]) == 3
        assert "clock radius must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["local", "intergroup"])
    def test_kmeans_distance_overflow_exit_3(self, tmp_path, capsys, command):
        # squares of 1e200-sized differences are inf, and the k-means++
        # weights inf / inf were NaN
        rng = np.random.default_rng(0)
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], rng.normal(size=(40, 3)) * 1e200)
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(40, 2)))
        out = tmp_path / "out"
        assert run([command, "--x", x, "--y", y, "--cluster", "kmeans:2", "--out-dir", out]) == 3
        message = "error: k-means: squared distances between points overflow; rescale the features\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("command, where", [
        ("global", "group 'global'"),
        ("local", "group 'a'"),
        ("intergroup", "edge 'a'-'b'"),
    ], ids=["global", "local", "intergroup"])
    def test_feature_stats_overflow_exit_3(self, tmp_path, capsys, command, where):
        # squared deviations of 1e200-sized features are inf; the std was
        # inf and the standardized columns read as linearly dependent
        rng = np.random.default_rng(0)
        x = write_matrix(tmp_path / "x.csv", ["a", "b", "c"], rng.normal(size=(40, 3)) * 1e200)
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(40, 2)))
        labels = [] if command == "global" else ["--labels", write_labels(tmp_path / "l.csv", ["a"] * 20 + ["b"] * 20)]
        out = tmp_path / "out"
        assert run([command, "--x", x, "--y", y, *labels, "--out-dir", out]) == 3
        message = f"error: {where}: means or stds of features overflow: a, b, c; rescale the features\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_defaults_echoed(self, iris_paths, tmp_path):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--out-dir", out]) == 0
        config = json.loads((out / "clock.json").read_text())["config"]
        assert config["alpha"] == 0.05
        assert config["standardize_x"] is True
        assert config["significance_rule"] == "or"
        assert not {"center_y", "anchor", "standardize_betas", "theta_step_deg"} & set(config)

    @pytest.mark.parametrize(
        "cluster, expected",
        [
            ("kmeans:4", {"cluster_method": "kmeans", "cluster_k": 4, "seed": 3}),
            # DBSCAN reads no seed, so --seed is not passed and the default is echoed
            ("dbscan:0.5,3", {"cluster_method": "dbscan", "cluster_eps": 0.5, "cluster_min_pts": 3,
                              "seed": 0}),
        ],
    )
    def test_every_flag_reaches_config(self, iris_paths, tmp_path, cluster, expected):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        seed = ["--seed", "3"] if cluster.startswith("kmeans") else []
        flags = ["--alpha", "0.01", "--top-k", "2", "--no-standardize-x",
                 "--significance-rule", "and", "--circles",
                 "--scale", "2", *seed, "--canvas", "800x500", "--cluster-on", "y",
                 "--cluster", cluster]
        assert run(["local", "--x", x, "--y", y, *flags, "--out-dir", out]) == 0
        config = json.loads((out / "clock.json").read_text())["config"]
        expected = {
            "alpha": 0.01, "top_k": 2, "standardize_x": False,
            "significance_rule": "and",
            "circles": True, "clock_scale": 2.0, "canvas": [800, 500],
            "cluster_on": "y", **expected,
        }
        assert {key: config[key] for key in expected} == expected

    @pytest.mark.parametrize("view", ["local", "intergroup"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cluster", "dbscan:0.5,5", "--seed", "3"], "--seed applies with --cluster kmeans:<k> only"),
            (["--labels", "--seed", "7"], "--seed applies with --cluster kmeans:<k> only"),
            (["--labels", "--cluster-on", "y"], "--cluster-on applies with --cluster only"),
            (["--labels", "--seed", "7", "--cluster-on", "y"], "--cluster-on applies with --cluster only"),
        ],
    )
    def test_unread_seed_or_cluster_on_exit_2(self, iris_paths, tmp_path, capsys, view, flags, message):
        # a flag the run would never read exits 2 instead of being echoed in config
        x, y, labels = iris_paths
        out = tmp_path / "out"
        argv = [part for arg in flags for part in ((arg, labels) if arg == "--labels" else (arg,))]
        assert run([view, "--x", x, "--y", y, *argv, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cluster", ["kmeans:5", "dbscan:0.5,3"])
    def test_global_with_cluster_exit_2(self, iris_paths, tmp_path, capsys, cluster):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--cluster", cluster, "--out-dir", out]) == 2
        assert capsys.readouterr().err == (
            "error: --cluster applies to local and intergroup only; "
            "color the global view with --labels\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--cluster-on", "y"], ["--cluster-on", "x"]])
    def test_global_with_seed_or_cluster_on_exit_2(self, iris_paths, tmp_path, capsys, flags):
        x, y, labels = iris_paths
        out = tmp_path / "out"
        args = ["global", "--x", x, "--y", y, "--labels", labels, *flags, "--out-dir", out]
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: {flags[0]} applies to local and intergroup only\n"
        assert not out.exists()

    def test_canvas_beyond_float_exit_2(self, iris_paths, tmp_path, capsys):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        side = "1" + "0" * 400
        assert run(["global", "--x", x, "--y", y, "--canvas", f"{side}x600", "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: canvas sides must be finite numbers, got {side}x600\n"
        assert not out.exists()

    def test_canvas_without_room_to_draw_exit_2(self, iris_paths, tmp_path, capsys):
        # a side of 100 px leaves nothing inside the margins: every marker once
        # landed on one point and the clock got radius 0
        x, y, _ = iris_paths
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--canvas", "900x100", "--out-dir", out]) == 2
        assert capsys.readouterr().err == "error: canvas sides must exceed 100 px, twice the margin, got 900x100\n"
        assert not out.exists()

    def test_no_center_y_is_unrecognized(self, iris_paths, tmp_path, capsys):
        # --standardize-betas went the same way: --standardize-x reports standardized betas
        x, y, _ = iris_paths
        for flag in ("--no-center-y", "--standardize-betas"):
            with pytest.raises(SystemExit) as exit_info:
                run(["global", "--x", x, "--y", y, flag, "--out-dir", tmp_path / "out"])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_foreign_warning_reaches_the_caller(self, iris_paths, tmp_path, capsys, monkeypatch):
        build = cli_module.build_global_clock

        def noisy_build(*args):
            warnings.warn("mean of empty slice", RuntimeWarning)
            return build(*args)

        monkeypatch.setattr(cli_module, "build_global_clock", noisy_build)
        x, y, _ = iris_paths
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="mean of empty slice"):
            assert run(["global", "--x", x, "--y", y, "--out-dir", out]) == 0
        assert "empty slice" not in capsys.readouterr().err
        assert json.loads((out / "clock.json").read_text())["warnings"] == []

    def test_foreign_warning_reaches_the_caller_when_the_run_fails(self, iris_paths, tmp_path, capsys,
                                                                   monkeypatch):
        def failing_build(*args):
            warnings.warn("mean of empty slice", RuntimeWarning)
            warnings.warn("a note of ours", ClockWarning)
            raise ComputationError("no clock")

        monkeypatch.setattr(cli_module, "build_global_clock", failing_build)
        x, y, _ = iris_paths
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="mean of empty slice"):
            assert run(["global", "--x", x, "--y", y, "--out-dir", out]) == 3
        assert capsys.readouterr().err == "warning: a note of ours\nerror: no clock\n"
        assert not out.exists()

    def test_warning_before_an_error_is_printed_first(self, tmp_path, capsys):
        # the constant k is dropped with a warning; then a_plus_b fails the rank check
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 40))
        x = write_matrix(tmp_path / "x.csv", ["a", "b", "a_plus_b", "k"],
                         np.column_stack([a, b, a + b, np.full(40, 4.0)]))
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(40, 2)))
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--out-dir", out]) == 3
        assert capsys.readouterr().err == (
            "warning: group 'global': dropping zero-variance features: k\n"
            "error: group 'global': features are linear combinations of the others: a_plus_b\n"
        )
        assert not out.exists()

    def test_circles_flag_switches_variant(self, iris_paths, tmp_path):
        # the report is the arrows' own; the SVG draws one circle per arrow
        x, y, _ = iris_paths
        out, plain = tmp_path / "out", tmp_path / "plain"
        assert run(["global", "--x", x, "--y", y, "--circles", "--out-dir", out]) == 0
        assert run(["global", "--x", x, "--y", y, "--out-dir", plain]) == 0
        clock = json.loads((out / "clock.json").read_text())["clocks"][0]
        assert clock["variant"] == "circles"
        assert {**clock, "variant": "global"} == json.loads((plain / "clock.json").read_text())["clocks"][0]
        svg = (out / "clock.svg").read_text()
        assert "<polyline" not in svg
        assert len(svg_traces(svg)) == len(clock["arrows"]) == 4

    def test_circles_sweep_passes_through_arrow_pair(self, iris_paths, tmp_path):
        # each circle runs through the anchor and, at the clock's scale k, the arrow's tip (beta0, beta90)
        x, y, _ = iris_paths
        out = tmp_path / "out"
        args = ["global", "--x", x, "--y", y, "--alpha", "0.01", "--top-k", "2",
                "--no-standardize-x", "--significance-rule", "and", "--circles",
                "--scale", "2", "--canvas", "800x500", "--out-dir", out]
        assert run(args) == 0
        clock = json.loads((out / "clock.json").read_text())["clocks"][0]
        svg = (out / "clock.svg").read_text()
        (rim,) = [c for c in ET.fromstring(svg).iter(f"{SVG_NS}circle") if c.get("stroke") == "#bbbbbb"]
        ax, ay, rim_r = (float(rim.get(key)) for key in ("cx", "cy", "r"))
        k = rim_r / max(arrow["magnitude"] for arrow in clock["arrows"])  # pixels per unit coefficient
        traces = svg_traces(svg)
        assert len(traces) == len(clock["arrows"]) == 2
        for arrow, (cx, cy, r) in zip(clock["arrows"], traces):
            tip = (ax + k * arrow["beta0"], ay - k * arrow["beta90"])  # pixel y points down
            assert (cx, cy) == (pytest.approx((ax + tip[0]) / 2, abs=0.011), pytest.approx((ay + tip[1]) / 2, abs=0.011))
            assert r == pytest.approx(0.5 * k * arrow["magnitude"], abs=0.011)

    @pytest.mark.parametrize("view", ["global", "local"])
    def test_theta_step_is_unrecognized(self, iris_paths, tmp_path, capsys, view):
        # --circles draws each circle exactly: no step samples it
        x, y, labels = iris_paths
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            run([view, "--x", x, "--y", y, "--labels", labels, "--circles", "--theta-step", "5", "--out-dir", out])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --theta-step 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, text",
        [(flag, text) for flag in ("--alpha", "--top-k", "--scale", "--seed") for text in ("2.5", "abc", "nan", "-1")
         if (flag, text) != ("--scale", "2.5")],
    )
    def test_numeric_flag_read_by_run_config_rules(self, iris_paths, tmp_path, capsys, flag, text):
        # one text per rule: the CLI hands the flag's text to the RunConfig field that checks it
        x, y, _ = iris_paths
        field = {"--alpha": "alpha", "--top-k": "top_k", "--scale": "clock_scale", "--seed": "seed"}[flag]
        with pytest.raises(InputDataError) as raised:
            validate_config({field: text})
        out = tmp_path / "out"
        args = ["local", "--x", x, "--y", y, "--cluster", "kmeans:3", flag, text, "--out-dir", out]
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, sides", [("900.5x600", ("900.5", "600")), ("abcX600", ("abc", "600")), ("900", None)])
    def test_canvas_read_by_run_config_rule(self, iris_paths, tmp_path, capsys, text, sides):
        # the CLI splits --canvas on its first x and hands both sides to RunConfig as text;
        # text with no x at all keeps the flag's syntax text
        x, y, _ = iris_paths
        if sides is None:
            message = f"canvas must look like 900x600, got {text!r}"
        else:
            with pytest.raises(InputDataError) as raised:
                validate_config({"canvas": sides})
            message = str(raised.value)
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--canvas", text, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestLocalCommand:
    def test_iris_species_three_clocks(self, iris_paths, tmp_path):
        x, y, labels = iris_paths
        out = tmp_path / "out"
        code = run(["local", "--x", x, "--y", y, "--labels", labels, "--out-dir", out])
        assert code == 0
        report = json.loads((out / "clock.json").read_text())
        assert len(report["clocks"]) == 3
        assert [c["group"] for c in report["clocks"]] == ["setosa", "versicolor", "virginica"]
        assert all(c["member_count"] == 50 for c in report["clocks"])

    def test_single_label_reduces_to_global(self, iris_paths, tmp_path):
        x, y, _ = iris_paths
        labels = write_labels(tmp_path / "one.csv", ["all"] * 150)
        out_local = tmp_path / "local"
        out_global = tmp_path / "global"
        assert run(["local", "--x", x, "--y", y, "--labels", labels, "--out-dir", out_local]) == 0
        assert run(["global", "--x", x, "--y", y, "--out-dir", out_global]) == 0
        local = json.loads((out_local / "clock.json").read_text())["clocks"][0]
        global_ = json.loads((out_global / "clock.json").read_text())["clocks"][0]
        for a, b in zip(local["arrows"], global_["arrows"]):
            assert a["feature"] == b["feature"]
            assert abs(a["magnitude"] - b["magnitude"]) < 1e-12
            assert abs(a["angle_deg"] - b["angle_deg"]) < 1e-12

    def test_dbscan_all_noise_exit_3(self, noise_inputs, capsys):
        x, y = noise_inputs
        code = run(["local", "--x", x, "--y", y, "--cluster", "dbscan:0.0001,5"])
        assert code == 3
        assert "no usable groups" in capsys.readouterr().err

    def test_kmeans_clustering_runs(self, iris_paths, tmp_path):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        code = run(["local", "--x", x, "--y", y, "--cluster", "kmeans:2", "--out-dir", out])
        assert code == 0
        report = json.loads((out / "clock.json").read_text())
        assert len(report["clocks"]) == 2

    def test_grouping_source_required(self, noise_inputs):
        x, y = noise_inputs
        assert run(["local", "--x", x, "--y", y]) == 2

    @pytest.mark.parametrize("command", ["global", "local", "intergroup"])
    def test_labels_with_cluster_exit_2(self, iris_paths, tmp_path, capsys, command):
        x, y, labels = iris_paths
        out = tmp_path / "out"
        args = [command, "--x", x, "--y", y, "--labels", labels, "--cluster", "kmeans:5"]
        assert run([*args, "--out-dir", out]) == 2
        assert capsys.readouterr().err == "error: --labels and --cluster are exclusive; pass one of them\n"
        assert not out.exists()

    def test_and_rule_is_subset_of_or_rule(self, shifted_inputs, tmp_path):
        x, y, labels = shifted_inputs
        out_or = tmp_path / "or"
        out_and = tmp_path / "and"
        base = ["local", "--x", x, "--y", y, "--labels", labels, "--alpha", "0.5"]
        assert run(base + ["--out-dir", out_or]) == 0
        assert run(base + ["--significance-rule", "and", "--out-dir", out_and]) == 0

        def arrows(out):
            clocks = json.loads((out / "clock.json").read_text())["clocks"]
            return {(c["group"], a["feature"]) for c in clocks for a in c["arrows"]}

        assert arrows(out_and) < arrows(out_or)

    def test_cluster_on_embedding_space(self, tmp_path):
        rng = np.random.default_rng(3)
        xm = rng.normal(size=(80, 3))  # featureless in X
        ym = np.vstack(
            [rng.normal(scale=0.3, size=(40, 2)), rng.normal(scale=0.3, size=(40, 2)) + 20.0]
        )
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], xm)
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], ym)
        out = tmp_path / "out"
        code = run(
            ["local", "--x", x, "--y", y, "--cluster", "kmeans:2", "--cluster-on", "y", "--out-dir", out]
        )
        assert code == 0
        report = json.loads((out / "clock.json").read_text())
        counts = sorted(c["member_count"] for c in report["clocks"])
        assert counts == [40, 40]

    def test_all_constant_group_skipped(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        xm = rng.normal(size=(60, 3))
        xm[40:] = xm[40]  # group c: 20 identical rows
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], xm)
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(60, 2)))
        labels = write_labels(tmp_path / "l.csv", ["a"] * 20 + ["b"] * 20 + ["c"] * 20)
        out = tmp_path / "out"
        assert run(["local", "--x", x, "--y", y, "--labels", labels, "--out-dir", out]) == 0
        message = "skipping group 'c': group 'c': every feature is constant"
        assert message in capsys.readouterr().err
        report = json.loads((out / "clock.json").read_text())
        assert [c["group"] for c in report["clocks"]] == ["a", "b"]
        assert message in report["warnings"]

    @pytest.mark.parametrize(
        "tiny, reason",
        [(3, "3 points for 3 features (need at least 5)"), (2, "2 points")],
        ids=["fewer-than-d-plus-2", "fewer-than-3"],
    )
    def test_small_group_skipped_with_its_size(self, tmp_path, capsys, tiny, reason):
        rng = np.random.default_rng(5)
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], rng.normal(size=(40, 3)))
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(40, 2)))
        labels = write_labels(tmp_path / "l.csv", ["big"] * (40 - tiny) + ["tiny"] * tiny)
        out = tmp_path / "out"
        assert run(["local", "--x", x, "--y", y, "--labels", labels, "--out-dir", out]) == 0
        message = f"skipping group 'tiny': group 'tiny' too small for clock: {reason}"
        assert f"warning: {message}\n" in capsys.readouterr().err
        report = json.loads((out / "clock.json").read_text())
        assert [c["group"] for c in report["clocks"]] == ["big"]
        assert message in report["warnings"]

    def test_warnings_keep_the_order_of_the_groups(self, tmp_path, capsys):
        # group a drops a constant feature, b is too small to fit and c is
        # noise: each group's warnings come in turn, in stderr and the report
        rng = np.random.default_rng(7)
        xm = rng.normal(size=(63, 3))
        xm[:30, 2] = 4.0
        ym = rng.normal(size=(63, 2))
        ym[:30] = xm[:30, :2] + 0.1 * ym[:30]
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], xm)
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], ym)
        labels = write_labels(tmp_path / "l.csv", ["a"] * 30 + ["b"] * 3 + ["c"] * 30)
        out = tmp_path / "out"
        assert run(["local", "--x", x, "--y", y, "--labels", labels, "--out-dir", out]) == 0
        expected = [
            "group 'a': dropping zero-variance features: f2",
            "skipping group 'b': group 'b' too small for clock: 3 points for 3 features (need at least 5)",
            "clock for group 'c': no significant features at alpha=0.05",
        ]
        assert capsys.readouterr().err == "".join(f"warning: {note}\n" for note in expected)
        report = json.loads((out / "clock.json").read_text())
        assert report["warnings"] == expected
        assert [c["group"] for c in report["clocks"]] == ["a", "c"]

    def test_skipped_groups_are_printed_before_the_error(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], rng.normal(size=(6, 3)))
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(6, 2)))
        labels = write_labels(tmp_path / "l.csv", ["p", "p", "q", "q", "r", "r"])
        out = tmp_path / "out"
        assert run(["local", "--x", x, "--y", y, "--labels", labels, "--out-dir", out]) == 3
        skipped = "".join(f"warning: skipping group '{g}': group '{g}' too small for clock: 2 points\n"
                          for g in "pqr")
        assert capsys.readouterr().err == skipped + "error: all groups too small for local clocks\n"
        assert not out.exists()

    def test_global_too_small_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = write_matrix(tmp_path / "x.csv", [f"f{j}" for j in range(5)], rng.normal(size=(6, 5)))
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(6, 2)))
        assert run(["global", "--x", x, "--y", y, "--out-dir", tmp_path / "out"]) == 3
        assert capsys.readouterr().err == (
            "error: group 'global' too small for clock: 6 points for 5 features (need at least 7)\n"
        )

    def test_all_constant_global_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1"], np.tile([1.5, -2.0], (30, 1)))
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(30, 2)))
        assert run(["global", "--x", x, "--y", y, "--out-dir", tmp_path / "out"]) == 3
        assert "error: group 'global': every feature is constant" in capsys.readouterr().err


class TestIntergroupCommand:
    def test_shifted_feature_tops_single_edge(self, shifted_inputs, tmp_path):
        x, y, labels = shifted_inputs
        out = tmp_path / "out"
        code = run(["intergroup", "--x", x, "--y", y, "--labels", labels, "--out-dir", out])
        assert code == 0
        report = json.loads((out / "clock.json").read_text())
        assert len(report["clocks"]) == 1
        arrows = report["clocks"][0]["arrows"]
        assert arrows[0]["feature"] == "f0"
        assert len(report["mst"]) == 1

    def test_three_groups_two_edges(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 60
        xm = rng.normal(size=(3 * n, 3))
        xm[n : 2 * n, 0] += 2.0
        xm[2 * n :, 0] += 4.0
        ym = rng.normal(scale=0.3, size=(3 * n, 2))
        ym[n : 2 * n, 0] += 5.0
        ym[2 * n :, 0] += 10.0
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], xm)
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], ym)
        labels = write_labels(tmp_path / "l.csv", ["a"] * n + ["b"] * n + ["c"] * n)
        out = tmp_path / "out"
        code = run(["intergroup", "--x", x, "--y", y, "--labels", labels, "--out-dir", out])
        assert code == 0
        report = json.loads((out / "clock.json").read_text())
        assert len(report["mst"]) == 2
        assert len(report["clocks"]) == 2

    @pytest.mark.parametrize(
        "flags",
        # given two unread flags, the message names the first in _UNREAD's order
        # and a flag is rejected as unread before its value is read
        [["--no-standardize-x"], ["--circles", "--scale", "2"], ["--no-standardize-x", "--scale", "2"],
         ["--significance-rule", "and"], ["--circles"], ["--scale", "abc"], ["--scale", "2"]],
    )
    def test_unread_flag_exit_2(self, iris_paths, tmp_path, capsys, flags):
        x, y, labels = iris_paths
        out = tmp_path / "out"
        args = ["intergroup", "--x", x, "--y", y, "--labels", labels, *flags, "--out-dir", out]
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: {flags[0]} applies to global and local only\n"
        assert not out.exists()

    def test_dbscan_all_noise_exit_3(self, noise_inputs, capsys):
        x, y = noise_inputs
        code = run(["intergroup", "--x", x, "--y", y, "--cluster", "dbscan:0.0001,5"])
        assert code == 3
        assert "need at least 2 groups, found 0" in capsys.readouterr().err

    def test_collinear_features_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a, b, e = rng.normal(size=(3, 200))
        a[100:] += 3.0
        x = write_matrix(tmp_path / "x.csv", ["a", "b", "a_plus_b", "e"],
                         np.column_stack([a, b, a + b, e]))
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], rng.normal(size=(200, 2)))
        labels = write_labels(tmp_path / "l.csv", ["g0"] * 100 + ["g1"] * 100)
        code = run(["intergroup", "--x", x, "--y", y, "--labels", labels, "--out-dir", tmp_path / "out"])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"error: edge 'g0'-'g1': .*: a_plus_b$", err, re.MULTILINE)

    def test_many_groups_span_the_reference_tree(self, tmp_path):
        groups, size = 300, 5
        rng = np.random.default_rng(11)
        names = [f"g{i:03d}" for i in range(groups)]
        tokens = [name for name in names for _ in range(size)]
        xm = rng.normal(size=(groups * size, 3))
        ym = np.repeat(rng.uniform(0, 100, size=(groups, 2)), size, axis=0)
        ym += rng.normal(scale=0.5, size=ym.shape)
        x = write_matrix(tmp_path / "x.csv", ["f0", "f1", "f2"], xm)
        y = write_matrix(tmp_path / "y.csv", ["x", "y"], ym)
        labels = write_labels(tmp_path / "l.csv", tokens)
        out = tmp_path / "out"
        assert run(["intergroup", "--x", x, "--y", y, "--labels", labels, "--out-dir", out]) == 0
        report = json.loads((out / "clock.json").read_text())
        # the report's floats carry 12 significant digits
        grouping = from_labels(make_dataset(xm, ym, tokens))
        centers = {names[g.id]: [float(f"{v:.12g}") for v in g.center] for g in grouping.groups}
        reported = {name: center for clock in report["clocks"]
                    for name, center in zip(clock["edge"].values(), clock["centers"])}
        assert reported == centers
        assert report["mst"] == [[names[a], names[b], float(f"{length:.12g}")]
                                 for a, b, length in mst_reference(grouping)]
        assert [[c["edge"]["a"], c["edge"]["b"]] for c in report["clocks"]] == [e[:2] for e in report["mst"]]

    def test_single_group_exit_3(self, iris_paths, tmp_path, capsys):
        x, y, _ = iris_paths
        labels = write_labels(tmp_path / "one.csv", ["all"] * 150)
        code = run(["intergroup", "--x", x, "--y", y, "--labels", labels])
        assert code == 3
        assert "at least 2 groups" in capsys.readouterr().err


class TestFiles:
    def test_byte_order_mark_changes_nothing(self, iris_paths, tmp_path):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        for path in iris_paths:
            (plain / path.name).write_bytes(path.read_bytes())
            (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for command in ("global", "intergroup"):
            for root in (plain, marked):
                x, y, labels = (root / path.name for path in iris_paths)
                args = [command, "--x", x, "--y", y, "--labels", labels]
                assert run([*args, "--out-dir", root / command]) == 0
            for suffix in ("svg", "json"):
                name = f"{command}/clock.{suffix}"
                assert (marked / name).read_bytes() == (plain / name).read_bytes()

    def test_undecodable_file_exit_2(self, noise_inputs, tmp_path, capsys):
        _, y = noise_inputs
        x = tmp_path / "bad.csv"
        x.write_bytes(b"a,b\n" + b"1,2\n" * 10 + b"3,\xff\xfe\n")
        assert run(["global", "--x", x, "--y", y, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {x}: ")

    @pytest.mark.parametrize("flag, opening", [("--x", 1), ("--x", 2), ("--y", 1), ("--y", 2), ("--labels", 1)])
    def test_unreadable_input_exit_2(self, iris_paths, tmp_path, capsys, monkeypatch, flag, opening):
        # a numeric table is opened twice, for its header and for loadtxt; labels once
        x, y, labels = iris_paths
        target = {"--x": x, "--y": y, "--labels": labels}[flag]
        opened = []

        def guarded_open(path, *args, **kwargs):
            if Path(path) == target:
                opened.append(path)
                if len(opened) == opening:
                    raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ingest_module, "open", guarded_open, raising=False)
        out = tmp_path / "out"
        assert run(["intergroup", "--x", x, "--y", y, "--labels", labels, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {target}: cannot read: Permission denied\n"
        assert not out.exists()

    @pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="needs Linux procfs")
    def test_input_that_fails_to_read_exit_2(self, noise_inputs, tmp_path, capsys):
        # reading a process's memory from address 0 fails with EIO
        _, y = noise_inputs
        assert run(["global", "--x", "/proc/self/mem", "--y", y, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: /proc/self/mem: cannot read: Input/output error\n"

    def test_oversized_field_exit_2(self, noise_inputs, tmp_path, capsys):
        x, y = noise_inputs
        labels = tmp_path / "labels.csv"
        labels.write_text("label\n" + "u\n" * 99 + "v" * 200_000 + "\n", encoding="utf-8")
        args = ["intergroup", "--x", x, "--y", y, "--labels", labels]
        assert run([*args, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {labels}: field larger than")

    @pytest.mark.parametrize("command", ["global", "demo"])
    def test_out_dir_that_is_a_file_exit_2(self, iris_paths, tmp_path, capsys, command):
        x, y, _ = iris_paths
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory", encoding="utf-8")
        args = ["demo"] if command == "demo" else ["global", "--x", x, "--y", y]
        assert run([*args, "--out-dir", blocker]) == 2
        assert capsys.readouterr().err.startswith(f"error: {blocker}: cannot write outputs")
        assert blocker.read_text(encoding="utf-8") == "not a directory"


def hash_tree(directory):
    out = {}
    for path in sorted(Path(directory).iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# sha256 of every demo output; regenerate with `featureclock demo` if the
# rendering or report format changes on purpose.
DEMO_GOLDEN = {
    "global_clock.json": "ab7ae8344b911383a508f1e5eb9970f3561b663600959e9532cfa53e3ac59aff",
    "global_clock.svg": "fb9b7986b4c9e1fca592f9fe9a2164aa9277b09558ccebae0e2280045421a618",
    "intergroup_clocks.json": "e284305adc4997231eda8c7401bdc7c218a0cdaf8ebf995ad88bd93417515e28",
    "intergroup_clocks.svg": "4f5c0e7cf29aaa81bf1c17001a0a7e680dc2f1ab1c423d2950d74868e43ebf55",
    "local_clocks.json": "7b4cd94d79068b9b39cc6db4570ec8dc8ae7515349a76e582bb1c27f1430ef33",
    "local_clocks.svg": "412971e8936b20367f9a331b97368d609b231345e9afdc2e76bc902531827cc2",
}


# Flags read by both the global and the local view.
_EVERY_FLAG = ["--alpha", "0.1", "--top-k", "2", "--no-standardize-x",
               "--significance-rule", "and", "--circles",
               "--scale", "1.5", "--canvas", "800x500"]

# sha256 of clock.json and clock.svg for iris runs that, between them, pass
# every flag each view reads ("--labels" stands for the bundled labels file).
# Like DEMO_GOLDEN, change an entry only when an output changes on purpose.
FLAG_GOLDEN = {
    "global-circles": (
        ["global", "--circles"],
        "1835b9c9d7b9c3b38aae53fe0bfd910671cf67b21908bcca2f60c98d3435a2fe",
        "e92a918bb4f61f7ea42b86f4ef0af6823a80dade6c74530d6a29a046f202d14c",
    ),
    "global-labels-raw-x": (
        ["global", "--labels", "--no-standardize-x"],
        "af6ee342633e9baa047315a28326dc396a11f19e946c603fc8951b1002bff15d",
        "1f8d031da61381e0c7e9d9eba2c1014d883492216d0295cd1429fc482e49e314",
    ),
    "global-every-flag": (
        ["global", "--labels", *_EVERY_FLAG],
        "778f29917a65c0600c3fef7341b2057c27683becd8e16495212a5df5dc110e92",
        "f72961c1a80f8720232f34f587a4b81aeef75e9cd2b3ca06dd406270f942dfa2",
    ),
    "local-kmeans": (
        ["local", "--cluster", "kmeans:3"],
        "dd88df38e03a50d94ff5cad8414a627f9bd91d73589f7b32adf6cb454b1a0a15",
        "8b81e2cdec3846bee6d442ebda122143ae4dc34757c2c40fe95855ab773c0c9f",
    ),
    "local-circles-labels": (
        ["local", "--circles", "--labels"],
        "8db3324f108922a04b742cff1c416890893fac476923099d52c770a040aefb16",
        "e22cf70825a0656c2baecfa944206ddec73c56d69a1705c5bb7f8103ad4ab889",
    ),
    "local-dbscan": (
        ["local", "--cluster", "dbscan:0.4,4"],
        "9a76bf235fa3b1ec4ff20a47b189d31fed24dfa8f44b676e848e9d835ea629d3",
        "099e370f47cdc14bc6245a7dac7e548331edb58754976eb0ab14cf0ba53ff0ca",
    ),
    "local-every-flag": (
        ["local", "--cluster", "kmeans:3", "--cluster-on", "y", "--seed", "5", *_EVERY_FLAG],
        "ca759f99b8a5cadc64943d1bf1301f6724a898355475e727fab8d8c2c651ae66",
        "c7678b8f5ceba99c453fe51fc9948e38a20ffccb4ee1bbaac47423cc6074e288",
    ),
    "intergroup-kmeans": (
        ["intergroup", "--cluster", "kmeans:4"],
        "04b830a5fd0ca64fb4137d916aee829fd6a2d749421a6d310a89bc8a1d32dc6b",
        "82fd0efb712b460e5b6b0494bc14f204b95c3565117200b535b65c562f6627b4",
    ),
    "intergroup-dbscan": (
        ["intergroup", "--cluster", "dbscan:0.5,5"],
        "068e5c4e5897ba36718c9b582c058d5129536486d6d19c9f03c444107ddedd9f",
        "628b7bb84fdec9c264c51ce7fe2c18e1d3fa1e9097b63e53b74fcb3cb94b9d2d",
    ),
    "intergroup-every-flag": (
        ["intergroup", "--cluster", "kmeans:4", "--cluster-on", "y", "--seed", "2",
                              "--alpha", "0.1", "--top-k", "2", "--canvas", "800x500"],
        "0e9d30cbdf02511ca96c4d9d5d112bb7f2dd2fa592dbebd43d5a9455e3fcd90c",
        "e1aa1b222788a92633c00394c9fcab7355b496eb25755193821c07b3333db481",
    ),
}


@pytest.mark.parametrize("name", sorted(FLAG_GOLDEN))
def test_flag_runs_match_golden(iris_paths, tmp_path, name):
    args, json_hash, svg_hash = FLAG_GOLDEN[name]
    x, y, labels = iris_paths
    argv = [part for arg in args for part in ((arg, labels) if arg == "--labels" else (arg,))]
    out = tmp_path / "out"
    assert run([argv[0], "--x", x, "--y", y, *argv[1:], "--out-dir", out]) == 0
    assert hash_tree(out) == {"clock.json": json_hash, "clock.svg": svg_hash}


class TestDemo:
    def test_outputs_and_determinism(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run(["demo", "--out-dir", first]) == 0
        assert run(["demo", "--out-dir", second]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(DEMO_GOLDEN)
        assert hash_tree(first) == hash_tree(second)

    def test_golden_hashes(self, tmp_path):
        out = tmp_path / "golden"
        assert run(["demo", "--out-dir", out]) == 0
        assert hash_tree(out) == DEMO_GOLDEN

    def test_sepal_width_points_at_setosa(self, tmp_path, iris_dataset):
        out = tmp_path / "demo"
        assert run(["demo", "--out-dir", out]) == 0
        report = json.loads((out / "global_clock.json").read_text())
        clock = report["clocks"][0]
        arrow = next(a for a in clock["arrows"] if a["feature"] == "sepal_width")
        grouping = from_labels(iris_dataset)
        setosa = next(g for g in grouping.groups if g.name == "setosa")
        direction = np.array(setosa.center) - np.array(clock["anchor"])
        assert arrow["beta0"] * direction[0] + arrow["beta90"] * direction[1] > 0

    def test_svg_annotations_match_json_magnitudes(self, tmp_path):
        out = tmp_path / "demo"
        assert run(["demo", "--out-dir", out]) == 0
        for stem in ("global_clock", "local_clocks", "intergroup_clocks"):
            report = json.loads((out / f"{stem}.json").read_text())
            svg = (out / f"{stem}.svg").read_text()
            texts = set(re.findall(r'font-size="11"[^>]*>([0-9.]+)</text>', svg))
            for clock in report["clocks"]:
                for arrow in clock["arrows"]:
                    assert f"{arrow['magnitude']:.2f}" in texts

    def test_commands_write_the_demo_bytes(self, iris_paths, tmp_path):
        x, y, labels = iris_paths
        demo = tmp_path / "demo"
        assert run(["demo", "--out-dir", demo]) == 0
        for view, stem in (
            ("global", "global_clock"),
            ("local", "local_clocks"),
            ("intergroup", "intergroup_clocks"),
        ):
            out = tmp_path / view
            assert run([view, "--x", x, "--y", y, "--labels", labels, "--out-dir", out]) == 0
            for suffix in ("svg", "json"):
                assert (out / f"clock.{suffix}").read_bytes() == (demo / f"{stem}.{suffix}").read_bytes()

    def test_numpy_ma_never_imported(self, iris_paths, tmp_path):
        # np.unique imports numpy.ma on its first call, and xml.sax.saxutils
        # imports urllib, http, email and ssl; the runtime avoids both
        x, y, _ = iris_paths
        intergroup = ["intergroup", "--x", str(x), "--y", str(y), "--cluster", "dbscan:0.5,5",
                      "--out-dir", str(tmp_path / "intergroup")]
        demo = ["demo", "--out-dir", str(tmp_path / "demo")]
        script = (
            "import sys\n"
            "from featureclock.cli import main\n"
            f"for argv in {[intergroup, demo]!r}:\n"
            "    assert main(argv) == 0\n"
            "    print('numpy.ma' in sys.modules, 'xml.sax' in sys.modules)\n"
        )
        src = str(Path(featureclock.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"] * 4

    def test_numpy_random_never_imported(self, iris_paths, tmp_path):
        # numpy.random brings hashlib, secrets and the Cython runtime, about
        # 6 MB; k-means draws its start from the standard library's random
        x, y, _ = iris_paths
        runs = [
            ["local", "--x", str(x), "--y", str(y), "--cluster", "kmeans:3", "--out-dir", str(tmp_path / "local")],
            ["intergroup", "--x", str(x), "--y", str(y), "--cluster", "kmeans:4",
             "--out-dir", str(tmp_path / "intergroup")],
        ]
        script = (
            "import sys\n"
            "from featureclock.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0\n"
            "print(*(name in sys.modules for name in ('numpy.random', 'hashlib', 'secrets')))\n"
        )
        src = str(Path(featureclock.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"] * 3

    def test_bundled_embedding_is_own_pca_output(self, iris_dataset):
        z = standardize_reference(iris_dataset.X)
        scores = pca_2d(z).transform(z)
        assert np.max(np.abs(scores - iris_dataset.Y)) < 1e-9

    def test_json_schema_fields(self, tmp_path):
        out = tmp_path / "demo"
        assert run(["demo", "--out-dir", out]) == 0
        report = json.loads((out / "global_clock.json").read_text())
        assert report["schema_version"] == 4
        assert report["tool"] == "featureclock"
        assert report["inputs"]["x"] == "iris_features.csv"
        assert report["inputs"]["rows"] == 150
        keys = (out / "global_clock.json").read_text()
        parsed = json.loads(keys)
        assert list(parsed) == sorted(parsed)  # key-sorted at the top level


def test_cli_writes_the_svg_in_one_to_svg_call(iris_paths, tmp_path, monkeypatch):
    """The benchmark's render.to_svg_s times Scene.to_svg, so the CLI's SVG must come from it."""
    calls = []
    original = render_module.Scene.to_svg

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(render_module.Scene, "to_svg", counted)
    x, y, labels = iris_paths
    assert run(["local", "--x", x, "--y", y, "--labels", labels, "--out-dir", tmp_path]) == 0
    assert len(calls) == 1
    assert (tmp_path / "clock.svg").read_text(encoding="utf-8").endswith("</svg>\n")


@pytest.mark.parametrize("view", ["global", "local"])
def test_cli_fits_each_clock_with_one_ols_fit_call(view, iris_paths, tmp_path, monkeypatch):
    """The benchmark's clockcore.build_clock_s and numstats.ols_fit_calls_per_clock trace
    the names clockcore calls: one build_clock and one ols_fit per clock, on either view."""
    calls = {"build_clock": 0, "ols_fit": 0}

    def count(name):
        original = getattr(clockcore_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(clockcore_module, name, counted)

    count("build_clock")
    count("ols_fit")
    x, y, labels = iris_paths
    assert run([view, "--x", x, "--y", y, "--labels", labels, "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "clock.json").read_text(encoding="utf-8"))
    clocks = len(report["clocks"])
    assert clocks == (1 if view == "global" else 3)
    assert calls == {"build_clock": clocks, "ols_fit": clocks}


def bench_tracer():
    """The benchmark's tracer module, loaded from ``bench/tracer.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_traced_names_exist():
    """Every function the benchmark's tracer wraps is still in the package."""
    tracer = bench_tracer()
    for module_name, names in tracer.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            owner = module
            for part in name.split("."):
                assert hasattr(owner, part), f"{module_name}.{name}"
                owner = getattr(owner, part)
            assert callable(owner), f"{module_name}.{name}"


def test_benchmark_reads_the_clusterings_labels():
    """The benchmark checks each clustering's partition through the labels its tracer counts.

    The tracer drops a result whose ``.labels`` it cannot read, and the
    benchmark then skips its grouping check without a failure.
    """
    tracer = bench_tracer()
    rng = np.random.default_rng(0)
    dataset = make_dataset(rng.normal(size=(60, 3)), rng.normal(size=(60, 2)))
    for name, result in (("grouping.kmeans", kmeans(dataset, 3, 0)),
                         ("grouping.dbscan", dbscan(dataset, 1.0, 4))):
        labels = tracer._counts(name, result)["labels"]
        assert type(labels) is list and len(labels) == 60
        assert all(type(v) is int for v in labels)
        assert labels == result.labels.tolist()


@pytest.mark.parametrize("args", [["global", "--circles"], ["global", "--labels", "--circles"],
                                  ["local", "--labels", "--circles"]])
def test_benchmark_marker_rule_on_circles(iris_paths, iris_dataset, tmp_path, args):
    """The benchmark reads the scatter markers as the <circle>s that carry fill-opacity.

    Its checks import scipy, so this restates the rule: a --circles SVG has one
    such circle per row, in row order and in its group's colour, and no
    coefficient circle carries the attribute.
    """
    x, y, labels = iris_paths
    argv = [part for arg in args for part in ((arg, labels) if arg == "--labels" else (arg,))]
    assert run([argv[0], "--x", x, "--y", y, *argv[1:], "--out-dir", tmp_path]) == 0
    svg = (tmp_path / "clock.svg").read_text(encoding="utf-8")
    circles = list(ET.fromstring(svg).iter(f"{SVG_NS}circle"))
    markers = [c.get("fill") for c in circles if c.get("fill-opacity") is not None]
    groups = from_labels(iris_dataset).labels if "--labels" in args else np.zeros(150, int)
    assert markers == [PALETTE[g % len(PALETTE)] for g in groups.tolist()]
    unfilled = [c for c in circles if c.get("fill") == "none"]
    assert all(c.get("fill-opacity") is None for c in unfilled)
    report = json.loads((tmp_path / "clock.json").read_text(encoding="utf-8"))
    assert len(svg_traces(svg)) == sum(len(clock["arrows"]) for clock in report["clocks"]) > 0
