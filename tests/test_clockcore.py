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
    build_clock,
    build_global_clock,
    build_local_clocks,
    from_labels,
    max_contribution,
    render_circles,
    render_scatter,
)
from featureclock import numstats
from featureclock.clockcore import unit_vector
from featureclock.numstats import center_columns, fill, fit_design, ols_fit

from oracles import (
    array_design,
    fit_design_reference,
    make_dataset,
    ols_fit_reference,
    pca_2d,
    refit_sweep,
    standardize_reference,
    target_fit,
)


def identity_fixture(n=60, seed=0, d=2):
    """Unit-variance features whose first two columns are the embedding."""
    rng = np.random.default_rng(seed)
    z = standardize_reference(rng.normal(size=(n, d)))
    return z, z[:, :2].copy()


RANK_DEFICIENT_NAMES = ("const", "a", "b", "a_plus_b", "e")


def rank_deficient_fixture(n=40, seed=0):
    """Features const, a, b, a_plus_b = a + b, e and an unrelated embedding."""
    rng = np.random.default_rng(seed)
    a, b, e = rng.normal(size=(3, n))
    return np.column_stack([np.full(n, 2.0), a, b, a + b, e]), rng.normal(size=(n, 2))


class TestProjection:
    """Projection onto the line at an angle: ``y @ unit_vector(angle)``."""

    def test_axis_zero(self):
        assert (np.array([[2.0, 3.0]]) @ unit_vector(0.0))[0] == 2.0

    def test_axis_ninety(self):
        assert (np.array([[2.0, 3.0]]) @ unit_vector(90.0))[0] == 3.0

    def test_forty_five(self):
        value = (np.array([[1.0, 1.0]]) @ unit_vector(45.0))[0]
        assert value == pytest.approx(1.4142135624, abs=1e-9)

    def test_definition_holds(self):
        rng = np.random.default_rng(1)
        y = center_columns(rng.normal(size=(30, 2)))
        for angle in (10.0, 77.3, 139.9):
            rad = math.radians(angle)
            expected = y[:, 0] * math.cos(rad) + y[:, 1] * math.sin(rad)
            assert np.max(np.abs(y @ unit_vector(angle) - expected)) < 1e-12


class TestAxisRegressions:
    def test_identity_embedding(self):
        x, y = identity_fixture(d=3)
        fit = ols_fit(array_design(x, y))
        assert np.allclose(fit.coefficients[:, 0], [1.0, 0.0, 0.0], atol=1e-10)
        assert np.allclose(fit.coefficients[:, 1], [0.0, 1.0, 0.0], atol=1e-10)
        assert fit.p_values[0, 0] == 0.0  # exact fit
        assert fit.p_values[2, 0] == 1.0

    def test_swapped_embedding_swaps_fits(self):
        rng = np.random.default_rng(2)
        x = standardize_reference(rng.normal(size=(40, 4)))
        y = center_columns(rng.normal(size=(40, 2)))
        fit = ols_fit(array_design(x, y))
        swapped = ols_fit(array_design(x, y[:, ::-1]))
        assert np.allclose(fit.coefficients[:, 0], swapped.coefficients[:, 1])
        assert np.allclose(fit.coefficients[:, 1], swapped.coefficients[:, 0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = standardize_reference(rng.normal(size=(40, 5)))
        y = center_columns(rng.normal(size=(40, 2)))
        fit = ols_fit(array_design(x, y))
        beta0, *_ = np.linalg.lstsq(x, y[:, 0], rcond=None)
        beta90, *_ = np.linalg.lstsq(x, y[:, 1], rcond=None)
        assert np.max(np.abs(fit.coefficients[:, 0] - beta0)) < 1e-8
        assert np.max(np.abs(fit.coefficients[:, 1] - beta90)) < 1e-8


class TestFitDesign:
    """The design, written a block of rows at a time, equals the path of separate copies bit for bit."""

    @given(
        n_rows=st.integers(min_value=12, max_value=60),
        d=st.integers(min_value=1, max_value=6),
        constants=st.lists(st.booleans(), max_size=3),
        k=st.integers(min_value=0, max_value=2),
        scale=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        block_cells=st.sampled_from([1, 50, numstats._BLOCK_CELLS]),
    )
    @settings(max_examples=200, deadline=None)
    def test_buffer_equals_the_separate_copies(self, n_rows, d, constants, k, scale, seed, block_cells):
        # small budgets take the column statistics and write the rows in many blocks
        rng = np.random.default_rng(seed)
        n = n_rows + int(rng.integers(0, 20))
        rows = rng.choice(n, size=n_rows, replace=False)  # unsorted, as on an edge
        x = rng.normal(loc=rng.uniform(-5.0, 5.0, size=d), size=(n, d))
        x *= 10.0 ** rng.uniform(-100.0, 100.0, size=d)
        # constant columns; a False one is constant only on the chosen rows
        for everywhere in constants:
            column = rng.normal(size=n) * 10.0 ** rng.uniform(-100.0, 100.0)
            if everywhere:
                column[:] = column[0]
            else:
                column[rows] = column[rows[0]]
            x = np.insert(x, int(rng.integers(0, x.shape[1] + 1)), column, axis=1)
        targets = center_columns(rng.normal(size=(n_rows, k))) if k else np.empty((n_rows, 0))
        names = [f"f{j}" for j in range(x.shape[1])]

        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", ClockWarning)
            patch.setattr(numstats, "_BLOCK_CELLS", block_cells)
            design = fit_design(x, rows, targets, names, "test", scale=scale)
            xy = np.empty(design.shape, order="F")
            fill(design, xy)
        ref_kept, ref = fit_design_reference(x, rows, targets, scale=scale)
        assert design.kept == ref_kept
        assert design.shape == xy.shape == ref.shape
        assert np.array_equal(xy, ref)

        if k:
            # the default budget is one row block here: the fit's one QR
            # factors exactly the reference's matrix
            m = len(design.kept)
            ref_fits = ols_fit_reference(ref[:, :m], ref[:, m:])
            for fits in (ols_fit(design), ols_fit(array_design(xy[:, :m], xy[:, m:]))):
                assert fits.coefficients.shape == (m, k)
                for j, expected in enumerate(ref_fits):
                    fit = target_fit(fits, j)
                    for field in dataclasses.fields(fit):
                        assert np.array_equal(getattr(fit, field.name), getattr(expected, field.name))

    def test_row_out_of_range_raises(self):
        x = np.arange(12.0).reshape(4, 3)
        with pytest.raises(IndexError):
            fit_design(x, np.array([0, 1, 4]), np.empty((3, 0)), ["a", "b", "c"], "test")


class TestMaxContribution:
    def test_three_four_five(self):
        magnitude, angle = max_contribution(3.0, 4.0)
        assert magnitude == pytest.approx(5.0)
        assert angle == pytest.approx(53.1301, abs=1e-4)

    def test_axes(self):
        assert max_contribution(1.0, 0.0) == (1.0, 0.0)
        magnitude, angle = max_contribution(0.0, -1.0)
        assert magnitude == pytest.approx(1.0)
        assert angle == pytest.approx(270.0)

    def test_zero_pair_convention(self):
        assert max_contribution(0.0, 0.0) == (0.0, 0.0)

    @given(
        b0=st.floats(-100, 100, allow_nan=False),
        b90=st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_pythagoras(self, b0, b90):
        magnitude, angle = max_contribution(b0, b90)
        assert magnitude**2 == pytest.approx(b0**2 + b90**2, rel=1e-10, abs=1e-12)
        assert 0.0 <= angle < 360.0

    def test_grid_refit_oracle(self):
        rng = np.random.default_rng(4)
        x = standardize_reference(rng.normal(size=(60, 5)))
        y = center_columns(rng.normal(size=(60, 2)))
        fit = ols_fit(array_design(x, y))
        angles, grid = refit_sweep(x, y, 1800)
        for j in range(5):
            magnitude, angle = max_contribution(
                float(fit.coefficients[j, 0]), float(fit.coefficients[j, 1])
            )
            row = np.abs(grid[j])
            best = int(row.argmax())
            direction = angle % 180.0
            dist = abs(angles[best] - direction)
            assert min(dist, 180.0 - dist) <= 0.2
            assert abs(row[best] - magnitude) <= 1e-6 * magnitude


def drawn_circles(dataset, config=None):
    """The clock over every row of ``dataset`` and the trace circles ``render_circles`` draws for it."""
    clock = build_clock(dataset, range(dataset.X.shape[0]), config or RunConfig(alpha=1.0, circles=True))
    glyph = render_circles(render_scatter(dataset), clock).circles[0]
    return clock, glyph


class TestCircleSweep:
    """The coefficient over all projection angles is the circle that render_circles draws.

    Per arrow, the trace's center is the anchor plus k/2 times (beta0, beta90)
    and its radius k/2 times the magnitude, k being the clock radius over the
    largest magnitude; so in the anchor's frame and divided by k, the points
    coefficient(theta) * (cos theta, sin theta) must lie on it.
    """

    def test_cosine_response(self):
        x, y = identity_fixture()
        clock, glyph = drawn_circles(make_dataset(x, y))
        k = glyph.radius / max(a.magnitude for a in clock.arrows)
        f0 = glyph.traces[[a.feature for a in clock.arrows].index("f0")]
        # f0 is the embedding's x: its coefficient at 60 degrees is cos(60) = 0.5
        ux, uy = unit_vector(60.0)
        point = (clock.anchor[0] + 0.5 * k * ux, clock.anchor[1] + 0.5 * k * uy)
        assert math.hypot(point[0] - f0.cx, point[1] - f0.cy) == pytest.approx(f0.radius, abs=1e-10)

    def test_axes_cross_at_axis_coefficients(self):
        # a circle through the anchor crosses each axis a second time at the chord 2 * (center - anchor)
        rng = np.random.default_rng(5)
        clock, glyph = drawn_circles(make_dataset(rng.normal(size=(30, 3)), rng.normal(size=(30, 2))))
        k = glyph.radius / max(a.magnitude for a in clock.arrows)
        for arrow, trace in zip(clock.arrows, glyph.traces, strict=True):
            chord = (2.0 * (trace.cx - clock.anchor[0]) / k, 2.0 * (trace.cy - clock.anchor[1]) / k)
            assert chord == (pytest.approx(arrow.beta0, rel=1e-12), pytest.approx(arrow.beta90, rel=1e-12))

    def test_samples_lie_on_diameter_circle(self):
        rng = np.random.default_rng(6)
        x = standardize_reference(rng.normal(size=(50, 4)))
        y = center_columns(rng.normal(size=(50, 2)))
        clock, glyph = drawn_circles(make_dataset(x, y))
        k = glyph.radius / max(a.magnitude for a in clock.arrows)
        angles, grid = refit_sweep(x, y, 36)
        rad = np.radians(angles)
        for arrow, trace in zip(clock.arrows, glyph.traces, strict=True):
            coef = grid[int(arrow.feature[1:])]
            px = clock.anchor[0] + k * coef * np.cos(rad) - trace.cx
            py = clock.anchor[1] + k * coef * np.sin(rad) - trace.cy
            assert np.abs(np.hypot(px, py) - trace.radius).max() < 1e-8 * glyph.radius

    def test_analytic_matches_refit(self):
        # the chord along direction theta is k times the refit coefficient there, sign included
        rng = np.random.default_rng(7)
        x = standardize_reference(rng.normal(size=(40, 3)))
        y = center_columns(rng.normal(size=(40, 2)))
        clock, glyph = drawn_circles(make_dataset(x, y))
        k = glyph.radius / max(a.magnitude for a in clock.arrows)
        angles, slow = refit_sweep(x, y, 12)
        rad = np.radians(angles)
        for arrow, trace in zip(clock.arrows, glyph.traces, strict=True):
            chord = 2.0 * ((trace.cx - clock.anchor[0]) * np.cos(rad) + (trace.cy - clock.anchor[1]) * np.sin(rad))
            assert np.abs(chord / k - slow[int(arrow.feature[1:])]).max() < 1e-9


class TestBuildClock:
    def test_identity_fixture_axes(self):
        x, y = identity_fixture()
        clock = build_clock(make_dataset(x, y), range(len(x)))
        assert len(clock.arrows) == 2
        angles = sorted(a.angle_deg for a in clock.arrows)
        assert angles[0] == pytest.approx(0.0, abs=1e-6)
        assert angles[1] == pytest.approx(90.0, abs=1e-6)
        mags = [a.magnitude for a in clock.arrows]
        assert abs(mags[0] - mags[1]) < 1e-9

    def test_alpha_zero_keeps_nothing(self):
        # a RunConfig refuses alpha=0, so the empty clock comes from null data
        # whose smallest axis p-value lies above a legal alpha
        rng = np.random.default_rng(1)
        dataset = make_dataset(rng.normal(size=(60, 3)), rng.normal(size=(60, 2)))
        every = build_clock(dataset, range(60), RunConfig(alpha=1.0)).arrows
        assert len(every) == 3 and min(min(a.p0, a.p90) for a in every) > 0.05
        with pytest.warns(ClockWarning, match="no significant"):
            clock = build_clock(dataset, range(60), RunConfig(alpha=0.05))
        assert clock.arrows == ()

    def test_iris_matches_biplot_loadings(self, iris_dataset):
        clock = build_global_clock(iris_dataset)
        z = standardize_reference(iris_dataset.X)
        model = pca_2d(z)
        for j, name in enumerate(iris_dataset.feature_names):
            arrow = next(a for a in clock.arrows if a.feature == name)
            loading = np.array([model.components[0, j], model.components[1, j]])
            vec = np.array([arrow.beta0, arrow.beta90])
            cos = float(loading @ vec / (np.linalg.norm(loading) * np.linalg.norm(vec)))
            assert cos > 0.9999
            assert math.degrees(math.acos(min(cos, 1.0))) < 0.5

    def test_members_sorted_and_deduplicated(self):
        x, y = identity_fixture()
        dataset = make_dataset(x, y)
        clock = build_clock(dataset, [5, 3, 3, 9, 7, 5, 1, 0, 2, 8, 6, 4])
        assert clock == build_clock(dataset, range(10))
        assert clock.member_count == 10

    @pytest.mark.parametrize(
        "members, message",
        [
            ([], "member set is empty"),
            ([3, 60, 0], r"must be in \[0, 60\), got 0\.\.60$"),
            ([5, -1, -1], r"must be in \[0, 60\), got -1\.\.5$"),
        ],
    )
    def test_bad_member_sets_rejected(self, members, message):
        x, y = identity_fixture()
        with pytest.raises(ComputationError, match=message):
            build_clock(make_dataset(x, y), members)

    @pytest.mark.parametrize(
        "members, dtype",
        [
            (np.ones(60, dtype=bool), "bool"),  # a mask, once read as the rows {0, 1}
            ([0.9, 1.2, 2.7, 3.1, 4.5, 5.0], "float64"),  # once truncated to rows 0..5
        ],
    )
    def test_non_integer_members_rejected(self, members, dtype):
        x, y = identity_fixture()
        with pytest.raises(ComputationError, match=f"^member indices must be integers, got dtype {dtype}$"):
            build_clock(make_dataset(x, y), members)

    @pytest.mark.parametrize("members", [np.array([]), np.array([], dtype=bool)])
    def test_empty_selection_of_any_dtype_is_empty(self, members):
        x, y = identity_fixture()
        with pytest.raises(ComputationError, match="^member set is empty$"):
            build_clock(make_dataset(x, y), members)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
    def test_integer_arrays_of_any_width_accepted(self, dtype):
        x, y = identity_fixture()
        dataset = make_dataset(x, y)
        assert build_clock(dataset, np.arange(12, dtype=dtype)) == build_clock(dataset, range(12))

    def test_anchor_is_member_centroid(self):
        x, y = identity_fixture()
        members = list(range(10, 30))
        clock = build_clock(make_dataset(x, y), members)
        assert clock.anchor[0] == pytest.approx(y[members, 0].mean())
        assert clock.anchor[1] == pytest.approx(y[members, 1].mean())

    def test_scale_is_half_bbox_diagonal(self):
        x, y = identity_fixture()
        clock = build_clock(make_dataset(x, y), range(len(x)))
        dx = y[:, 0].max() - y[:, 0].min()
        dy = y[:, 1].max() - y[:, 1].min()
        assert clock.scale == pytest.approx(0.5 * math.hypot(dx, dy))

    def test_zero_variance_feature_dropped_with_warning(self):
        # The dropped column leaves the fit bit-identical to one on X without it:
        # standardizing a C-ordered kept block would sum its columns in another order.
        rng = np.random.default_rng(21)
        x = rng.normal(loc=4.0, scale=3.0, size=(200, 6))
        y = x[:, :2] @ np.array([[0.5, -0.2], [0.1, 0.4]]) + rng.normal(size=(200, 2))
        names = [f"f{j}" for j in range(6)]
        with_const = np.insert(x, 2, 7.25, axis=1)
        for standardize_x in (True, False):
            config = RunConfig(standardize_x=standardize_x, alpha=1.0)
            with pytest.warns(ClockWarning, match="dropping zero-variance features: const$"):
                clock = build_clock(make_dataset(with_const, y, names=[*names[:2], "const", *names[2:]]),
                                    range(200), config)
            reference = build_clock(make_dataset(x, y, names=names), range(200), config)
            assert len(clock.arrows) == 6
            assert clock.arrows == reference.arrows

    def test_memory_stays_near_the_data(self):
        # no [X | Y] buffer: one block of columns for the statistics, then
        # one block of rows under R for the QR, with the gather that fills it
        # (0.45x measured; a full-size buffer alone is 1.02x)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4000, 100))
        y = rng.normal(size=(4000, 2))
        dataset = make_dataset(x, y)  # its copies of x and y are not the fit's memory
        tracemalloc.start()
        try:
            build_clock(dataset, range(4000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.nbytes

    def test_rank_deficiency_names_features(self):
        # Feature slots count only the kept columns: after dropping "const",
        # slot 2 is a_plus_b, while CSV column 2 is b.
        x, y = rank_deficient_fixture()
        with pytest.warns(ClockWarning, match="zero-variance"):
            with pytest.raises(RankDeficientError, match=r"group 'global': .*: a_plus_b$") as info:
                build_clock(make_dataset(x, y, names=RANK_DEFICIENT_NAMES), range(len(x)))
        assert info.value.columns == (3,)

    def test_group_too_small(self):
        x, y = identity_fixture(d=4)
        with pytest.raises(GroupTooSmallError) as info:
            build_clock(make_dataset(x, y), range(4))
        assert str(info.value) == "group 'global' too small for clock: 4 points for 4 features (need at least 6)"

    def test_top_k_truncates(self):
        x, y = identity_fixture(d=5, n=80)
        clock = build_clock(make_dataset(x, y), range(80), RunConfig(top_k=1))
        assert len(clock.arrows) <= 1

    def test_arrows_sorted_by_magnitude(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        y = center_columns(rng.normal(size=(60, 2))) + x[:, :2]
        clock = build_clock(make_dataset(x, y), range(60), RunConfig(alpha=1.0))
        mags = [a.magnitude for a in clock.arrows]
        assert mags == sorted(mags, reverse=True)

    def test_no_standardize_x_keeps_raw_units(self):
        x, y = identity_fixture()
        doubled = x * 2.0  # embedding still equals the unit-variance columns
        dataset = make_dataset(doubled, y)
        std_on = build_clock(dataset, range(len(x)))
        std_off = build_clock(dataset, range(len(x)), RunConfig(standardize_x=False))
        # standardized: the scale cancels, y0 = z0; raw: y0 = 0.5 * x0
        assert std_on.arrows[0].magnitude == pytest.approx(1.0, abs=1e-9)
        assert std_off.arrows[0].magnitude == pytest.approx(0.5, abs=1e-9)

    def test_circles_flag_attaches_sweep(self):
        # the arrows carry the whole sweep: --circles changes the variant and nothing else
        x, y = identity_fixture()
        dataset = make_dataset(x, y)
        clock = build_clock(dataset, range(len(x)), RunConfig(circles=True))
        assert clock.variant == "circles"
        assert dataclasses.replace(clock, variant="global") == build_clock(dataset, range(len(x)))
        assert {a.feature for a in clock.arrows} == {"f0", "f1"}

    @pytest.mark.parametrize("rule", ["and", "AND", "And"])
    def test_rule_read_in_any_case(self, rule):
        rng = np.random.default_rng(1)
        dataset = make_dataset(rng.normal(size=(60, 3)), rng.normal(size=(60, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClockWarning)
            clock = build_clock(dataset, range(60), RunConfig(alpha=0.5, significance_rule=rule))
        every = build_clock(dataset, range(60), RunConfig(alpha=1.0)).arrows
        # the "or" rule would keep all three at this alpha
        assert [a.feature for a in clock.arrows] == ["f1"]
        assert clock.arrows == tuple(a for a in every if max(a.p0, a.p90) < 0.5)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=(40, 2))
        dataset = make_dataset(x, y)
        a = build_clock(dataset, range(40), RunConfig(circles=True))
        b = build_clock(dataset, range(40), RunConfig(circles=True))
        assert a == b


class TestEquivariance:
    def test_rotation_rotates_arrows(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=(60, 2)) + x[:, :2]
        phi = 37.0
        rad = math.radians(phi)
        rot = np.array(
            [[math.cos(rad), math.sin(rad)], [-math.sin(rad), math.cos(rad)]]
        )
        base = build_clock(make_dataset(x, y), range(60), RunConfig(alpha=1.0))
        turned = build_clock(make_dataset(x, y @ rot), range(60), RunConfig(alpha=1.0))
        for a, b in zip(base.arrows, turned.arrows):
            assert a.feature == b.feature
            assert abs(a.magnitude - b.magnitude) < 1e-9
            diff = (b.angle_deg - a.angle_deg - phi) % 360.0
            assert min(diff, 360.0 - diff) < 1e-9

    def test_feature_scaling_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=(60, 2)) + x[:, :2]
        scaled = x.copy()
        scaled[:, 1] *= 123.456
        base = build_clock(make_dataset(x, y), range(60), RunConfig(alpha=1.0))
        after = build_clock(make_dataset(scaled, y), range(60), RunConfig(alpha=1.0))
        for a, b in zip(base.arrows, after.arrows):
            assert a.feature == b.feature
            assert abs(a.magnitude - b.magnitude) < 1e-9
            assert abs(a.beta0 - b.beta0) < 1e-9
            assert abs(a.beta90 - b.beta90) < 1e-9


def two_signal_fixture(n=80, seed=21):
    """Six features; the embedding is linear in the first two plus noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    y = x[:, :2] @ np.array([[1.0, 0.4], [-0.3, 0.8]]) + 0.5 * rng.normal(size=(n, 2))
    return x, y


def all_arrows(x, y, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClockWarning)
        clock = build_clock(make_dataset(x, y), range(len(x)), config)
    return {a.feature: a for a in clock.arrows}


class TestScaleInvariance:
    """Units of X and Y must not change what a clock says.

    Rescaling X columns cancels in the standardization, rescaling Y scales
    every arrow by one factor, and offsets cancel in the centering, so
    p-values, flags and angles stay put.
    """

    @given(
        x_exp=st.lists(st.integers(-150, 150), min_size=6, max_size=6),
        x_off=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
        y_exp=st.integers(-150, 150),
        y_off=st.floats(-1e3, 1e3),
        exact=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_flags_and_angles(self, x_exp, x_off, y_exp, y_off, exact):
        x, y = two_signal_fixture()
        if exact:  # embedding is exactly linear in the first two features
            x = standardize_reference(x)
            y = x[:, :2] @ np.array([[1.0, 0.4], [-0.3, 0.8]])
            # An offset c rounds the data by about c * eps: a real residual
            # far above rounding noise, so the fit is no longer exact.
            x_off, y_off = [0.0] * 6, 0.0
        factors = 10.0 ** np.array(x_exp, dtype=float)
        x2 = (x + np.array(x_off)) * factors
        y2 = (y + y_off) * 10.0 ** float(y_exp)
        # alpha = 1 keeps every feature whose p-value is below 1
        base = all_arrows(x, y, RunConfig(alpha=1.0))
        after = all_arrows(x2, y2, RunConfig(alpha=1.0))
        assert sorted(base) == sorted(after)
        assert sorted(base) == (["f0", "f1"] if exact else [f"f{j}" for j in range(6)])
        for name, a in base.items():
            b = after[name]
            assert abs(min(a.p0, a.p90) - 0.05) > 1e-3  # flags at alpha = 0.05 are stable
            assert b.p0 == pytest.approx(a.p0, rel=1e-6, abs=1e-300)
            assert b.p90 == pytest.approx(a.p90, rel=1e-6, abs=1e-300)
            diff = (a.angle_deg - b.angle_deg) % 360.0
            assert min(diff, 360.0 - diff) < 1e-6

    def test_exact_fit_pins_only_the_signal(self):
        x, _ = two_signal_fixture()
        x = standardize_reference(x)
        y = x[:, :2] @ np.array([[1.0, 0.4], [-0.3, 0.8]])
        for scale in (1e-10, 1e-8, 1.0, 1e8):
            arrows = all_arrows(x, y * scale, RunConfig())
            assert sorted(arrows) == ["f0", "f1"]
            assert all(a.p0 == 0.0 for a in arrows.values())

    def test_small_noisy_embedding_is_not_an_exact_fit(self):
        # Scaled by 1e-8, the residual variance is ~1e-17: far below any
        # absolute cutoff, but still noise next to the target.
        x, y = two_signal_fixture()
        plain = all_arrows(x, y, RunConfig())
        for scale in (1e-10, 1e-8):
            small = all_arrows(x, y * scale, RunConfig())
            assert sorted(small) == sorted(plain)
            assert len(small) < 6  # the noise features are not all pinned to p = 0
            for name in plain:
                assert small[name].p0 == pytest.approx(plain[name].p0, rel=1e-6, abs=1e-300)

    def test_small_raw_feature_is_not_dependent(self):
        # Unstandardized, f2 is 1e-11 times smaller than the other features
        # but independent of them: the rank check must keep it.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3)) * np.array([1.0, 1.0, 1e-11])
        y = x[:, :2] + rng.normal(size=(100, 2))
        plain = all_arrows(x, y, RunConfig(alpha=1.0))
        raw = all_arrows(x, y, RunConfig(alpha=1.0, standardize_x=False))
        assert sorted(raw) == sorted(plain) == ["f0", "f1", "f2"]
        for name in plain:
            assert raw[name].p0 == pytest.approx(plain[name].p0, rel=1e-9)


class TestNullCalibration:
    def test_or_rule_flag_rate(self):
        # Under the null (embedding independent of the features) each axis
        # test rejects with probability alpha, independently, so the OR rule
        # flags a feature with probability 1 - (1 - alpha)^2 = 0.0975.
        rng = np.random.default_rng(2024)
        trials, d, flagged = 400, 5, 0
        for _ in range(trials):
            x = rng.normal(size=(40, d))
            y = rng.normal(size=(40, 2))
            flagged += len(all_arrows(x, y, RunConfig(alpha=0.05)))
        rate = flagged / (trials * d)
        expected = 1.0 - 0.95**2
        sigma = math.sqrt(expected * (1.0 - expected) / (trials * d))
        assert abs(rate - expected) < 4.0 * sigma


class TestLocalClocks:
    def test_single_group_equals_global(self):
        x, y = identity_fixture()
        dataset = make_dataset(x, y)
        grouping = from_labels(make_dataset(x, y, ["all"] * len(x)))
        clocks = build_local_clocks(dataset, grouping)
        global_clock = build_global_clock(dataset)
        assert len(clocks) == 1
        assert clocks[0].arrows == global_clock.arrows
        assert clocks[0].member_count == global_clock.member_count

    def test_translated_copies_share_arrows(self):
        x, y = identity_fixture(n=50, seed=13)
        x2 = np.vstack([x, x])
        y2 = np.vstack([y, y + 40.0])
        labels = ["low"] * 50 + ["high"] * 50
        dataset = make_dataset(x2, y2, labels)
        clocks = build_local_clocks(dataset, from_labels(dataset))
        assert len(clocks) == 2
        first, second = clocks
        assert [a.feature for a in first.arrows] == [a.feature for a in second.arrows]
        for a, b in zip(first.arrows, second.arrows):
            assert abs(a.beta0 - b.beta0) < 1e-8
            assert abs(a.beta90 - b.beta90) < 1e-8
            assert abs(a.magnitude - b.magnitude) < 1e-8

    def test_small_group_skipped_with_warning(self):
        x, y = identity_fixture(n=40, d=3)
        labels = ["big"] * 37 + ["tiny"] * 3
        dataset = make_dataset(x, y, labels)
        with pytest.warns(ClockWarning, match="skipping group 'tiny'"):
            clocks = build_local_clocks(dataset, from_labels(dataset))
        assert [c.group for c in clocks] == ["big"]

    def test_all_groups_too_small(self):
        x, y = identity_fixture(n=8, d=4)
        labels = ["a"] * 4 + ["b"] * 4
        dataset = make_dataset(x, y, labels)
        with pytest.warns(ClockWarning):
            with pytest.raises(ComputationError, match="all groups too small"):
                build_local_clocks(dataset, from_labels(dataset))

    def test_noise_points_excluded(self):
        x, y = identity_fixture(n=40)
        labels = ["a"] * 30 + ["noise"] * 10
        dataset = make_dataset(x, y, labels)
        clocks = build_local_clocks(dataset, from_labels(dataset))
        assert clocks[0].member_count == 30
        assert clocks[0].anchor == build_clock(dataset, range(30)).anchor
