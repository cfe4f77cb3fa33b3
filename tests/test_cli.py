import csv
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import featureclock
import featureclock.cli as cli_module
from featureclock import from_labels, standardize_columns
from featureclock.cli import demo_paths, main

from oracles import pca_2d


def run(args):
    return main([str(a) for a in args])


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
        z, _, _ = standardize_columns(iris_dataset.X)
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
            ("global", ["--theta-step", "nan"], "theta_step"),
            ("global", ["--theta-step", "inf"], "theta_step"),
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

    def test_defaults_echoed(self, iris_paths, tmp_path):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--out-dir", out]) == 0
        config = json.loads((out / "clock.json").read_text())["config"]
        assert config["alpha"] == 0.05
        assert config["theta_step_deg"] == 5.0
        assert config["standardize_x"] is True
        assert config["center_y"] is True
        assert config["significance_rule"] == "or"

    @pytest.mark.parametrize(
        "cluster, expected",
        [
            ("kmeans:4", {"cluster_method": "kmeans", "cluster_k": 4}),
            ("dbscan:0.5,3", {"cluster_method": "dbscan", "cluster_eps": 0.5, "cluster_min_pts": 3}),
        ],
    )
    def test_every_flag_reaches_config(self, iris_paths, tmp_path, cluster, expected):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        flags = ["--alpha", "0.01", "--top-k", "2", "--theta-step", "6", "--no-standardize-x",
                 "--no-center-y", "--standardize-betas", "--significance-rule", "and", "--circles",
                 "--scale", "2", "--seed", "3", "--canvas", "800x500", "--cluster-on", "y",
                 "--cluster", cluster]
        assert run(["global", "--x", x, "--y", y, *flags, "--out-dir", out]) == 0
        config = json.loads((out / "clock.json").read_text())["config"]
        expected = {
            "alpha": 0.01, "top_k": 2, "theta_step_deg": 6.0, "standardize_x": False,
            "center_y": False, "standardize_betas": True, "significance_rule": "and",
            "circles": True, "clock_scale": 2.0, "seed": 3, "canvas": [800, 500],
            "cluster_on": "y", **expected,
        }
        assert {key: config[key] for key in expected} == expected

    def test_tiny_theta_step_exit_2(self, iris_paths, tmp_path, capsys):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        args = ["global", "--x", x, "--y", y, "--theta-step", "1e-308", "--circles"]
        assert run([*args, "--out-dir", out]) == 2
        assert "theta_step must be at least 0.1 degrees, got 1e-308" in capsys.readouterr().err
        assert not out.exists()

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

    def test_theta_adjustment_warned_and_recorded(self, iris_paths, tmp_path, capsys):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--theta-step", "7", "--out-dir", out]) == 0
        assert "7.2" in capsys.readouterr().err
        report = json.loads((out / "clock.json").read_text())
        assert report["config"]["theta_step_deg"] == 7.2
        assert any("7.2" in w for w in report["warnings"])

    def test_circles_flag_switches_variant(self, iris_paths, tmp_path):
        x, y, _ = iris_paths
        out = tmp_path / "out"
        assert run(["global", "--x", x, "--y", y, "--circles", "--out-dir", out]) == 0
        report = json.loads((out / "clock.json").read_text())
        clock = report["clocks"][0]
        assert clock["variant"] == "circles"
        assert len(clock["circles"]["petal_length"]) == 36
        assert "<polyline" in (out / "clock.svg").read_text()

    @pytest.mark.parametrize("flags", [[], ["--standardize-betas"]])
    def test_circles_sweep_passes_through_arrow_pair(self, iris_paths, tmp_path, flags):
        # The sweep at 0 and 90 degrees is the drawn arrow's (beta0, beta90),
        # also when --standardize-betas rescales the arrows.
        x, y, _ = iris_paths
        out = tmp_path / "out"
        args = ["global", "--x", x, "--y", y, "--alpha", "0.01", "--top-k", "2", "--theta-step", "6",
                "--no-standardize-x", "--no-center-y", "--significance-rule", "and", "--circles",
                "--scale", "2", "--seed", "3", "--canvas", "800x500", "--out-dir", out, *flags]
        assert run(args) == 0
        clock = json.loads((out / "clock.json").read_text())["clocks"][0]
        assert clock["arrows"]
        for arrow in clock["arrows"]:
            sweep = dict(map(tuple, clock["circles"][arrow["feature"]]))
            assert (sweep[0.0], sweep[90.0]) == (arrow["beta0"], arrow["beta90"])


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

    def test_and_rule_is_subset_of_or_rule(self, shifted_inputs, tmp_path):
        x, y, labels = shifted_inputs
        out_or = tmp_path / "or"
        out_and = tmp_path / "and"
        base = ["intergroup", "--x", x, "--y", y, "--labels", labels]
        assert run(base + ["--out-dir", out_or]) == 0
        assert run(base + ["--significance-rule", "and", "--out-dir", out_and]) == 0
        arrows_or = {
            a["feature"] for c in json.loads((out_or / "clock.json").read_text())["clocks"] for a in c["arrows"]
        }
        arrows_and = {
            a["feature"] for c in json.loads((out_and / "clock.json").read_text())["clocks"] for a in c["arrows"]
        }
        assert arrows_and <= arrows_or

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
    "global_clock.json": "c627a6762ea854964292f7438b0097485656287a4722f58540f910e4d8f5113f",
    "global_clock.svg": "fb9b7986b4c9e1fca592f9fe9a2164aa9277b09558ccebae0e2280045421a618",
    "intergroup_clocks.json": "2725f911ae7bd6e8aad1e9ca5315e7a9d29b596b76b7dfdbefcb51c60d439c12",
    "intergroup_clocks.svg": "4f5c0e7cf29aaa81bf1c17001a0a7e680dc2f1ab1c423d2950d74868e43ebf55",
    "local_clocks.json": "2e2775d542465fa20c4aba3aa3c666cd5a27ca0462981ef621d47a385164a973",
    "local_clocks.svg": "412971e8936b20367f9a331b97368d609b231345e9afdc2e76bc902531827cc2",
}


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
        grouping = from_labels(iris_dataset.labels, iris_dataset.Y)
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
        # np.unique imports numpy.ma on its first call; the runtime avoids it
        x, y, _ = iris_paths
        intergroup = ["intergroup", "--x", str(x), "--y", str(y), "--cluster", "dbscan:0.5,5",
                      "--out-dir", str(tmp_path / "intergroup")]
        demo = ["demo", "--out-dir", str(tmp_path / "demo")]
        script = (
            "import sys\n"
            "from featureclock.cli import main\n"
            f"for argv in {[intergroup, demo]!r}:\n"
            "    assert main(argv) == 0\n"
            "    print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(featureclock.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "False"]

    def test_bundled_embedding_is_own_pca_output(self, iris_dataset):
        z, _, _ = standardize_columns(iris_dataset.X)
        scores = pca_2d(z).transform(z)
        assert np.max(np.abs(scores - iris_dataset.Y)) < 1e-9

    def test_json_schema_fields(self, tmp_path):
        out = tmp_path / "demo"
        assert run(["demo", "--out-dir", out]) == 0
        report = json.loads((out / "global_clock.json").read_text())
        assert report["schema_version"] == 1
        assert report["tool"] == "featureclock"
        assert report["inputs"]["x"] == "iris_features.csv"
        assert report["inputs"]["rows"] == 150
        keys = (out / "global_clock.json").read_text()
        parsed = json.loads(keys)
        assert list(parsed) == sorted(parsed)  # key-sorted at the top level


def test_benchmark_traced_names_exist():
    """Every function the benchmark's tracer wraps is still in the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, names in tracer.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            owner = module
            for part in name.split("."):
                assert hasattr(owner, part), f"{module_name}.{name}"
                owner = getattr(owner, part)
            assert callable(owner), f"{module_name}.{name}"
