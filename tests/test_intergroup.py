import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featureclock import (
    ClockWarning,
    ComputationError,
    GroupTooSmallError,
    RankDeficientError,
    RunConfig,
    build_intergroup_clocks,
    build_local_clocks,
    from_labels,
    mst_over_centers,
)
from featureclock import intergroup as intergroup_module
from featureclock import numstats
from featureclock.intergroup import logistic_fit
from featureclock.numstats import check_rank, fill, fit_design, r_factor

from oracles import (
    array_design,
    logistic_fit_reference,
    logistic_mle,
    logistic_penalized_gradient,
    make_dataset,
    standardize_reference,
)


def shifted_fixture(seed=2, n_per=250, shift=5.0):
    """Two groups identical except feature 0, shifted by 5 sigma; Y is two blobs."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 3))
    b = rng.normal(size=(n_per, 3))
    b[:, 0] += shift
    x = np.vstack([a, b])
    ya = rng.normal(scale=0.5, size=(n_per, 2))
    yb = rng.normal(scale=0.5, size=(n_per, 2)) + np.array([10.0, 0.0])
    y = np.vstack([ya, yb])
    labels = ["low"] * n_per + ["high"] * n_per
    return make_dataset(x, y, labels)


def collinear_fixture(seed=0, n_per=100):
    """Features a, b, a_plus_b = a + b, e; groups g0 and g1 are 3 sigma apart along a."""
    rng = np.random.default_rng(seed)
    a, b, e = rng.normal(size=(3, 2 * n_per))
    a[n_per:] += 3.0
    x = np.column_stack([a, b, a + b, e])
    y = rng.normal(scale=0.5, size=(2 * n_per, 2))
    y[n_per:, 0] += 10.0
    labels = ["g0"] * n_per + ["g1"] * n_per
    return make_dataset(x, y, labels, ("a", "b", "a_plus_b", "e"))


class TestLogisticFit:
    def test_symmetric_data_zero_intercept(self):
        rng = np.random.default_rng(0)
        half = rng.normal(size=(60, 2))
        x = np.vstack([half, -half])
        labels = np.concatenate([np.zeros(60), np.ones(60)])
        fit = logistic_fit(array_design(x), labels)
        assert fit.converged
        assert abs(fit.intercept) < 1e-8

    def test_uninformative_feature_not_significant(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 1))
        labels = np.concatenate([np.zeros(100), np.ones(100)])
        xs = standardize_reference(x)
        fit = logistic_fit(array_design(xs), labels)
        assert abs(fit.coefficients[0]) < 0.1
        assert fit.p_values[0] > 0.5

    def test_penalized_gradient_vanishes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 3))
        eta = x @ np.array([1.0, -0.5, 0.2])
        labels = (rng.uniform(size=100) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = logistic_fit(array_design(x), labels)
        assert fit.converged
        grad = logistic_penalized_gradient(x, labels, fit.intercept, fit.coefficients, 1e-6)
        assert np.linalg.norm(grad) < 1e-8

    def test_label_swap_antisymmetry(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 2))
        x[:40, 0] += 1.0
        labels = np.concatenate([np.zeros(40), np.ones(40)])
        fit = logistic_fit(array_design(x), labels)
        swapped = logistic_fit(array_design(x), 1.0 - labels)
        assert np.max(np.abs(fit.coefficients + swapped.coefficients)) < 1e-9
        assert abs(fit.intercept + swapped.intercept) < 1e-9
        assert np.max(np.abs(fit.p_values - swapped.p_values)) < 1e-9
        assert np.max(np.abs(fit.std_errors - swapped.std_errors)) < 1e-9

    def test_penalty_is_negligible_when_identifiable(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 2))
        eta = 0.8 * x[:, 0] - 0.4 * x[:, 1]
        labels = (rng.uniform(size=300) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = logistic_fit(array_design(x), labels)
        intercept, coef = logistic_mle(x, labels)
        assert fit.converged
        rel = np.abs(fit.coefficients - coef) / np.abs(coef)
        assert np.max(rel) < 1e-4
        assert abs(fit.intercept - intercept) < 1e-4

    def test_single_class_rejected(self):
        with pytest.raises(ComputationError, match="both classes"):
            logistic_fit(array_design(np.random.default_rng(6).normal(size=(20, 2))), np.zeros(20))

    def test_separable_gives_finite_coefficients(self):
        x = np.linspace(-2, 2, 40).reshape(-1, 1)
        labels = (x[:, 0] > 0).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClockWarning)
            fit = logistic_fit(array_design(x), labels)
        assert fit.converged
        assert np.all(np.isfinite(fit.coefficients))
        assert np.all(np.isfinite(fit.std_errors))
        assert fit.coefficients[0] > 0

    def test_iteration_cap_flags_no_convergence(self, monkeypatch):
        monkeypatch.setattr(intergroup_module, "_MAX_ITER", 2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 3))
        labels = (x[:, 0] + rng.normal(size=100) > 0).astype(float)
        with pytest.warns(ClockWarning, match="did not converge"):
            fit = logistic_fit(array_design(x), labels)
        assert not fit.converged
        assert fit.iterations == 2
        assert np.all(np.isfinite(fit.coefficients))

    @given(
        n_per=st.integers(min_value=5, max_value=80),
        d=st.integers(min_value=1, max_value=6),
        shift=st.floats(min_value=0.0, max_value=8.0),
        cap=st.sampled_from([None, 2]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_refitting_reference(self, n_per, d, shift, cap, seed):
        """Reusing the loop's last Fisher information changes no bit of the fit."""
        rng = np.random.default_rng(seed)
        x = rng.normal(loc=rng.uniform(-3.0, 3.0, size=d), size=(2 * n_per, d))
        x[n_per:] += shift * rng.normal(size=d)  # up to linearly separable groups
        x *= 10.0 ** rng.uniform(-2.0, 2.0, size=d)
        labels = np.repeat([0.0, 1.0], n_per)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore", ClockWarning)
            if cap is not None:
                patch.setattr(intergroup_module, "_MAX_ITER", cap)
            fit = logistic_fit(array_design(x), labels)
        expected = logistic_fit_reference(x, labels, max_iter=cap or 100)
        if cap is not None:
            assert fit.iterations == cap
        for field in dataclasses.fields(fit):
            assert np.array_equal(getattr(fit, field.name), getattr(expected, field.name)), field.name

    @given(
        n_rows=st.integers(min_value=12, max_value=70),
        d=st.integers(min_value=1, max_value=5),
        constants=st.lists(st.booleans(), max_size=2),
        shift=st.floats(min_value=0.0, max_value=6.0),
        block_cells=st.sampled_from([1, 40, numstats._BLOCK_CELLS]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_design_rows_match_the_materialized_reference(self, n_rows, d, constants, shift,
                                                          block_cells, seed):
        """A Design, written once into the fit's buffer, fits as its column-major materialization."""
        rng = np.random.default_rng(seed)
        n = n_rows + int(rng.integers(0, 20))
        rows = rng.choice(n, size=n_rows, replace=False)  # unsorted, as on an edge
        x = rng.normal(loc=rng.uniform(-5.0, 5.0, size=d), size=(n, d))
        x[rows[n_rows // 2 :]] += shift * rng.normal(size=d)
        x *= 10.0 ** rng.uniform(-50.0, 50.0, size=d)
        # constant columns; a False one is constant only on the chosen rows
        for everywhere in constants:
            column = rng.normal(size=n) * 10.0 ** rng.uniform(-50.0, 50.0)
            if everywhere:
                column[:] = column[0]
            else:
                column[rows] = column[rows[0]]
            x = np.insert(x, int(rng.integers(0, x.shape[1] + 1)), column, axis=1)
        labels = np.repeat([0.0, 1.0], [n_rows // 2, n_rows - n_rows // 2])
        names = [f"f{j}" for j in range(x.shape[1])]
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", ClockWarning)
            patch.setattr(numstats, "_BLOCK_CELLS", block_cells)
            design = fit_design(x, rows, np.empty((n_rows, 0)), names, "test")
            fit = logistic_fit(design, labels)
            xs = np.empty(design.shape, order="F")
            fill(design, xs)
            expected = logistic_fit_reference(xs, labels)
        for field in dataclasses.fields(fit):
            assert np.array_equal(getattr(fit, field.name), getattr(expected, field.name)), field.name

    def test_dependent_column_raises_with_its_slot(self):
        rng = np.random.default_rng(12)
        a, b, e = rng.normal(size=(3, 120))
        a[60:] += 2.0
        labels = np.repeat([0.0, 1.0], 60)
        with pytest.raises(RankDeficientError) as info:
            logistic_fit(array_design(np.column_stack([a, b, e, a + b])), labels)
        assert info.value.columns == (3,)

    def test_errors_name_the_design(self):
        # a hand-built Design names its edge and features in the size and rank errors
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(2, 40))
        a[20:] += 2.0
        x = np.column_stack([a, b, a - b])
        names = ["a", "b", "a_minus_b"]
        labels = np.repeat([0.0, 1.0], 20)
        with pytest.raises(GroupTooSmallError) as info:
            logistic_fit(array_design(x[18:22], None, names, "edge 'p'-'q'"), labels[18:22])
        assert str(info.value) == "edge 'p'-'q' too small for clock: 4 points for 3 features (need at least 5)"
        with pytest.raises(RankDeficientError) as info:
            logistic_fit(array_design(x, None, names, "edge 'p'-'q'"), labels)
        assert str(info.value) == "edge 'p'-'q': features are linear combinations of the others: a_minus_b"
        assert info.value.columns == (2,)

    def test_design_left_untouched(self):
        # the Design's rows are written into the fit's own [1 | X] matrix,
        # which the IRLS reads; its C-ordered, F-ordered or read-only x and
        # its targets stay as they were, and every layout gives the same fit
        rng = np.random.default_rng(13)
        x = rng.normal(size=(80, 3))
        x[40:, 0] += 1.5
        targets = np.empty((80, 0))
        labels = np.repeat([0.0, 1.0], 40)

        def read_only(a):
            a = np.array(a, order="F")
            a.flags.writeable = False
            return a

        fits = []
        for layout in (lambda a: np.array(a, order="C"), lambda a: np.array(a, order="F"), read_only):
            design = fit_design(layout(x), np.arange(80), layout(targets), ["a", "b", "c"], "test")
            fits.append(logistic_fit(design, labels))
            assert np.array_equal(design.x, x)
            assert np.array_equal(design.targets, targets)
        for fit in fits[1:]:
            for field in dataclasses.fields(fit):
                assert np.array_equal(getattr(fit, field.name), getattr(fits[0], field.name))

    @given(
        n_rows=st.integers(min_value=12, max_value=90),
        d=st.integers(min_value=1, max_value=6),
        constants=st.lists(st.booleans(), max_size=2),
        block_cells=st.sampled_from([1, 40, numstats._BLOCK_CELLS]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_r_of_the_design_is_the_r_of_its_filled_features(self, n_rows, d, constants,
                                                              block_cells, seed):
        """r_factor over an edge's Design equals the R of the feature columns of its filled [1 | X] bit for bit."""
        # the fit reads the rank from the first, before it writes the matrix
        # that the second is taken over
        rng = np.random.default_rng(seed)
        n = n_rows + int(rng.integers(0, 20))
        rows = rng.choice(n, size=n_rows, replace=False)  # unsorted, as on an edge
        x = rng.normal(loc=rng.uniform(-5.0, 5.0, size=d), size=(n, d))
        x *= 10.0 ** rng.uniform(-50.0, 50.0, size=d)
        for everywhere in constants:
            column = np.full(n, rng.normal())
            if not everywhere:
                column[np.setdiff1d(np.arange(n), rows)] = rng.normal()
            x = np.insert(x, int(rng.integers(0, x.shape[1] + 1)), column, axis=1)
        names = [f"f{j}" for j in range(x.shape[1])]
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", ClockWarning)
            patch.setattr(numstats, "_BLOCK_CELLS", block_cells)
            design = fit_design(x, rows, np.empty((n_rows, 0)), names, "test")
            matrix = np.empty((n_rows, design.shape[1] + 1), order="F")
            matrix[:, 0] = 1.0
            fill(design, matrix[:, 1:])
            expected = r_factor(array_design(matrix[:, 1:]))
            r = r_factor(design)
        assert np.array_equal(r, expected)

    @given(
        n=st.integers(min_value=12, max_value=90),
        d=st.integers(min_value=2, max_value=6),
        noise=st.sampled_from([0.0, 1e-15, 1e-13, 1e-6, 1.0]),
        log_scale=st.floats(min_value=-6.0, max_value=6.0),
        cells=st.sampled_from([1, 60, numstats._BLOCK_CELLS]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_rank_decision_matches_one_qr(self, n, d, noise, log_scale, cells, seed):
        # a column that is a combination of others plus relative noise far
        # below (0, 1e-15, 1e-13) or far above (1e-6, 1) the rank tolerance
        # 1e-10 * sqrt(d); budgets of 1 and 60 cells accumulate R over many
        # row blocks, the default over one
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        j = int(rng.integers(1, d))
        combination = x[:, :j] @ rng.normal(size=j)
        x[:, j] = combination + noise * np.linalg.norm(combination) / math.sqrt(n) * rng.normal(size=n)
        x[:, j] *= 10.0**log_scale
        labels = np.resize([0.0, 1.0], n)
        try:
            check_rank(np.linalg.qr(x, mode="r"), array_design(x))
            expected = None
        except RankDeficientError as exc:
            expected = exc.columns
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", ClockWarning)
            patch.setattr(numstats, "_BLOCK_CELLS", cells)
            try:
                logistic_fit(array_design(x), labels)
                got = None
            except RankDeficientError as exc:
                got = exc.columns
        assert got == expected
        assert (expected is not None) == (noise < 1e-10)

    def test_standardization_keeps_significance_decision(self):
        dataset = shifted_fixture()
        rows = np.arange(dataset.X.shape[0])
        labels = (rows >= 250).astype(float)
        xs = standardize_reference(dataset.X)
        base = logistic_fit(array_design(xs), labels)
        scaled_x = dataset.X.copy()
        scaled_x[:, 0] *= 250.0
        zs = standardize_reference(scaled_x)
        scaled = logistic_fit(array_design(zs), labels)
        assert (base.p_values < 0.05).tolist() == (scaled.p_values < 0.05).tolist()


class TestIntergroupClocks:
    def test_shifted_feature_dominates(self):
        dataset = shifted_fixture()
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        clocks = build_intergroup_clocks(dataset, grouping, mst)
        assert len(clocks) == 1
        clock = clocks[0]
        assert clock.converged
        significant = [a.feature for a in clock.arrows]
        assert significant == ["f0"]
        # the arrow points toward the high-f0 group
        top = clock.arrows[0]
        high = next(g for g in grouping.groups if g.name == "high")
        direction = np.array(high.center) - np.array(clock.anchor)
        assert top.beta0 * direction[0] + top.beta90 * direction[1] > 0

    def test_anchor_and_axis_geometry(self):
        dataset = shifted_fixture()
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        clock = build_intergroup_clocks(dataset, grouping, mst)[0]
        (xa, ya), (xb, yb) = clock.centers
        assert clock.anchor == ((xa + xb) / 2.0, (ya + yb) / 2.0)
        expected = math.degrees(math.atan2(yb - ya, xb - xa)) % 360.0
        assert clock.axis_angle_deg == pytest.approx(expected)

    def test_axis_aligned_edge_has_exact_zero_component(self):
        dataset = shifted_fixture()
        n_per = len(dataset.labels) // 2
        y = dataset.Y.copy()
        y[n_per:] = y[:n_per] + np.array([0.0, 10.0])  # centers differ only in y
        grouping = from_labels(dataclasses.replace(dataset, Y=y))
        clock = build_intergroup_clocks(dataset, grouping, mst_over_centers(grouping))[0]
        assert clock.axis_angle_deg in (90.0, 270.0)
        assert clock.arrows
        assert all(arrow.beta0 == 0.0 for arrow in clock.arrows)

    def test_collinear_features_named_per_edge(self):
        dataset = collinear_fixture()
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        with pytest.raises(RankDeficientError) as info:
            build_intergroup_clocks(dataset, grouping, mst)
        assert str(info.value) == (
            "edge 'g0'-'g1': features are linear combinations of the others: a_plus_b"
        )
        assert info.value.columns == (2,)

    def test_dropped_column_leaves_the_fit_bit_identical(self):
        dataset = shifted_fixture(n_per=150)
        x = dataset.X * 3.0 + 4.0
        names = ("f0", "f1", "f2")
        with_const = make_dataset(np.insert(x, 1, -2.5, axis=1), dataset.Y, dataset.labels,
                                  ("f0", "const", "f1", "f2"))
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        config = RunConfig(alpha=1.0)
        with pytest.warns(ClockWarning, match="'low'-'high': dropping zero-variance features: const$"):
            (clock,) = build_intergroup_clocks(with_const, grouping, mst, config)
        (reference,) = build_intergroup_clocks(
            make_dataset(x, dataset.Y, dataset.labels, names), grouping, mst, config
        )
        assert len(clock.arrows) == 3
        assert clock.arrows == reference.arrows

    def test_all_constant_edge_skipped_with_warning(self):
        n = 20
        x = np.vstack([np.full((2 * n, 2), 1.5), np.random.default_rng(10).normal(size=(n, 2))])
        y = np.repeat([[0.0, 0.0], [4.0, 0.0], [9.0, 0.0]], n, axis=0)
        y += np.random.default_rng(11).normal(scale=0.1, size=y.shape)
        labels = ["a"] * n + ["b"] * n + ["c"] * n
        dataset = make_dataset(x, y, labels)
        grouping = from_labels(dataset)
        with pytest.warns(ClockWarning) as caught:
            clocks = build_intergroup_clocks(dataset, grouping, mst_over_centers(grouping))
        assert "skipping edge 'a'-'b': every feature is constant" in [
            str(w.message) for w in caught
        ]
        assert [clock.edge_names for clock in clocks] == [("b", "c")]

    def test_single_group_raises(self):
        dataset = shifted_fixture()
        grouping = from_labels(dataclasses.replace(dataset, labels=["all"] * len(dataset.labels)))
        with pytest.raises(ComputationError, match="need at least 2 groups, found 1"):
            build_intergroup_clocks(dataset, grouping, mst_over_centers(grouping))

    @pytest.mark.parametrize(
        "tree, message",
        [
            (((0, 7, 1.0),), r"^spanning-tree edge \(0, 7\) names a group id the grouping does not have$"),
            (((0, 0, 0.0),), r"^spanning-tree edge \(0, 0\) joins a group to itself$"),
            (((0, 1, 10.0), (1, 0, 10.0)), r"^spanning-tree edge \(1, 0\) repeats a pair already in the tree$"),
            ((), r"^no inter-group clocks: the spanning tree has no edges$"),
        ],
        ids=["missing-id", "self-loop", "repeated-pair", "empty"],
    )
    def test_faulty_spanning_tree_rejected_before_any_fit(self, tree, message, monkeypatch):
        dataset = shifted_fixture()
        grouping = from_labels(dataset)
        assert sorted(g.id for g in grouping.groups) == [0, 1]

        def no_fit(*args):
            raise AssertionError("an edge was fitted before the tree was checked")

        monkeypatch.setattr(intergroup_module, "logistic_fit", no_fit)
        with pytest.raises(ComputationError, match=message):
            build_intergroup_clocks(dataset, grouping, tree)

    def test_tree_need_not_span_the_groups(self):
        # each valid, distinct edge is fitted, as it is in the whole tree
        dataset = shifted_fixture()
        labels = ["low"] * 250 + ["high"] * 125 + ["far"] * 125
        y = dataset.Y.copy()
        y[375:] += np.array([0.0, 20.0])
        dataset = dataclasses.replace(dataset, Y=y, labels=labels)
        grouping = from_labels(dataset)
        tree = mst_over_centers(grouping)
        assert len(tree) == 2
        config = RunConfig(alpha=1.0)
        whole = build_intergroup_clocks(dataset, grouping, tree, config)
        for edge, clock in zip(tree, whole):
            assert build_intergroup_clocks(dataset, grouping, (edge,), config) == [clock]

    def test_feature_names_must_match_x(self):
        # a Dataset checks itself when it is made, so no builder meets a mismatch
        with pytest.raises(ComputationError, match="^got 2 feature names for 3 features$"):
            dataclasses.replace(shifted_fixture(), feature_names=("f0", "f1"))

    @pytest.mark.parametrize("rows", [490, 510])
    def test_grouping_must_cover_the_rows(self, rows):
        full = shifted_fixture()
        grouping = from_labels(full)  # 500 points
        pad = max(0, rows - 500)
        dataset = dataclasses.replace(
            full,
            X=np.vstack([full.X, full.X[:pad]])[:rows],
            Y=np.vstack([full.Y, full.Y[:pad]])[:rows],
            labels=None,
        )
        message = f"^grouping covers 500 points but the dataset has {rows}$"
        for build in (build_local_clocks, build_intergroup_clocks):
            args = (mst_over_centers(grouping),) if build is build_intergroup_clocks else ()
            with pytest.raises(ComputationError, match=message):
                build(dataset, grouping, *args)

    def test_alpha_zero_empty_arrows(self):
        # a RunConfig refuses alpha=0, so the empty edge comes from two groups
        # that X does not separate, whose smallest Wald p-value lies above alpha
        dataset = shifted_fixture(shift=0.0)
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClockWarning)
            every = build_intergroup_clocks(dataset, grouping, mst, RunConfig(alpha=1.0))[0].arrows
        assert len(every) == 3 and min(a.p0 for a in every) > 0.05
        with pytest.warns(ClockWarning, match="no significant"):
            clocks = build_intergroup_clocks(dataset, grouping, mst, RunConfig(alpha=0.05))
        assert clocks[0].arrows == ()

    @pytest.mark.filterwarnings("ignore::featureclock.ClockWarning")
    def test_three_groups_two_clocks_at_midpoints(self):
        rng = np.random.default_rng(7)
        n = 60
        x = rng.normal(size=(3 * n, 3))
        x[n : 2 * n, 0] += 4.0
        x[2 * n :, 0] += 8.0
        y = rng.normal(scale=0.3, size=(3 * n, 2))
        y[n : 2 * n, 0] += 5.0
        y[2 * n :, 0] += 10.0
        labels = ["a"] * n + ["b"] * n + ["c"] * n
        dataset = make_dataset(x, y, labels)
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        clocks = build_intergroup_clocks(dataset, grouping, mst)
        assert len(clocks) == 2
        by_id = {g.id: g for g in grouping.groups}
        for clock, (a, b, _length) in zip(clocks, mst):
            ca, cb = by_id[a].center, by_id[b].center
            assert clock.anchor[0] == pytest.approx((ca[0] + cb[0]) / 2.0)
            assert clock.anchor[1] == pytest.approx((ca[1] + cb[1]) / 2.0)

    def test_label_swap_flips_axis_component(self):
        dataset = shifted_fixture()
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        ((ga, gb, length),) = mst
        reversed_mst = ((gb, ga, length),)
        clock_f = build_intergroup_clocks(dataset, grouping, mst)[0]
        clock_b = build_intergroup_clocks(dataset, grouping, reversed_mst)[0]
        assert clock_b.edge_names == tuple(reversed(clock_f.edge_names))
        a, b = clock_f.arrows[0], clock_b.arrows[0]
        # same absolute direction and strength, opposite sign along the axis
        assert abs(a.magnitude - b.magnitude) < 1e-9
        assert abs(a.p0 - b.p0) < 1e-9
        assert abs(a.beta0 - b.beta0) < 1e-9
        assert abs(a.beta90 - b.beta90) < 1e-9
        axis_f = math.radians(clock_f.axis_angle_deg)
        axis_b = math.radians(clock_b.axis_angle_deg)
        comp_f = a.beta0 * math.cos(axis_f) + a.beta90 * math.sin(axis_f)
        comp_b = b.beta0 * math.cos(axis_b) + b.beta90 * math.sin(axis_b)
        assert abs(comp_f + comp_b) < 1e-9

    def test_small_group_skips_edge(self):
        dataset = shifted_fixture(n_per=250)
        tokens = list(dataset.labels)
        for i in range(4):  # carve a 4-point group out of the low blob
            tokens[i] = "tiny"
        grouping = from_labels(dataclasses.replace(dataset, labels=tokens))
        mst = mst_over_centers(grouping)
        with pytest.warns(ClockWarning, match="skipping edge"):
            clocks = build_intergroup_clocks(dataset, grouping, mst)
        assert all("tiny" not in clock.edge_names for clock in clocks)

    def test_all_edges_skipped_raises(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 2))
        labels = ["a"] * 4 + ["b"] * 4
        dataset = make_dataset(x, y, labels)
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        with pytest.warns(ClockWarning):
            with pytest.raises(ComputationError, match="every MST edge was skipped"):
                build_intergroup_clocks(dataset, grouping, mst)

    def test_memory_stays_near_one_design(self):
        # one [1 | X] buffer and one design * weight buffer, each n x (d + 1),
        # plus a block of rows; the design's copy and the ones column stack
        # that came before them made it 3.1x
        rng = np.random.default_rng(14)
        n, d = 20_000, 30
        x = rng.normal(size=(n, d))
        x[n // 2 :, :3] += 0.5
        y = rng.normal(scale=0.5, size=(n, 2))
        y[n // 2 :, 0] += 10.0
        labels = ["a"] * (n // 2) + ["b"] * (n // 2)
        dataset = make_dataset(x, y, labels)
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        tracemalloc.start()
        try:
            build_intergroup_clocks(dataset, grouping, mst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * (d + 1) * 8

    def test_top_k_limits_arrows(self):
        rng = np.random.default_rng(9)
        n = 100
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3)) + np.array([2.0, 2.0, 2.0])
        x = np.vstack([a, b])
        y = np.vstack(
            [rng.normal(scale=0.3, size=(n, 2)), rng.normal(scale=0.3, size=(n, 2)) + 8.0]
        )
        labels = ["a"] * n + ["b"] * n
        dataset = make_dataset(x, y, labels)
        grouping = from_labels(dataset)
        mst = mst_over_centers(grouping)
        full = build_intergroup_clocks(dataset, grouping, mst)[0]
        trimmed = build_intergroup_clocks(dataset, grouping, mst, RunConfig(top_k=1))[0]
        assert len(full.arrows) >= 2
        assert len(trimmed.arrows) == 1
        assert trimmed.arrows[0] == full.arrows[0]
