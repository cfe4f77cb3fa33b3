import dataclasses
import hashlib
import math
import re
import tracemalloc
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featureclock import (
    Clock,
    ClockArrow,
    ComputationError,
    InputDataError,
    RunConfig,
    build_clock,
    from_labels,
    mst_over_centers,
    build_intergroup_clocks,
    render_circles,
    render_clock,
    render_intergroup,
    render_scatter,
)
from featureclock import render as render_module
from featureclock.render import NOISE_COLOR, PALETTE, _fmt, _markers

from oracles import make_dataset, svg_text


def arrow(feature, beta0, beta90, p=0.001):
    magnitude = math.hypot(beta0, beta90)
    angle = math.degrees(math.atan2(beta90, beta0)) % 360.0
    return ClockArrow(feature, beta0, beta90, magnitude, angle, p, p, True)


def manual_clock(arrows, anchor=(0.0, 0.0), scale=1.0, variant="global"):
    return Clock(variant, anchor, scale, tuple(arrows), 3)


def simple_scene(extra_points=None):
    pts = extra_points if extra_points is not None else [[-2.0, -2.0], [2.0, 2.0], [0.0, 1.0]]
    x = np.column_stack([np.arange(len(pts), dtype=float), np.ones(len(pts))])
    return render_scatter(make_dataset(x, pts))


def marker_count(svg):
    return len(re.findall(r'<circle [^>]*r="3"', svg))


class TestScatter:
    def test_three_points_single_color(self):
        scene = simple_scene()
        svg = svg_text(scene)
        assert marker_count(svg) == 3
        colors = set(re.findall(r'<circle [^>]*r="3" fill="(#\w+)"', svg))
        assert len(colors) == 1

    def test_noise_rendered_gray(self):
        y = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        x = np.column_stack([np.arange(4.0), np.ones(4)])
        dataset = make_dataset(x, y, labels=["a", "a", "a", "noise"])
        grouping = from_labels(dataset)
        svg = svg_text(render_scatter(dataset, grouping))
        assert NOISE_COLOR in svg
        assert ">noise<" in svg

    @pytest.mark.parametrize("rows", [1, 30])
    def test_grouping_must_cover_the_rows(self, rows):
        # one label once broadcast over all 50 slots, painting every marker its
        # group's color; 30 labels raised numpy's "operands could not be broadcast"
        rng = np.random.default_rng(3)
        dataset = make_dataset(rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))
        grouping = from_labels(make_dataset(dataset.X[:rows], dataset.Y[:rows], ["g"] * rows))
        with pytest.raises(ComputationError, match=f"^grouping covers {rows} points but the dataset has 50$"):
            render_scatter(dataset, grouping)

    @pytest.mark.parametrize("canvas", [(50, 50), (900, 100), (100, 600)])
    def test_canvas_without_room_to_draw_rejected(self, canvas):
        # with no room inside the 50 px margins, 900x100 drew every marker at one
        # point and 50x50 drew the scatter mirrored; RunConfig holds the same rule
        rng = np.random.default_rng(3)
        dataset = make_dataset(rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))
        message = f"^canvas sides must exceed 100 px, twice the margin, got {canvas[0]}x{canvas[1]}$"
        with pytest.raises(InputDataError, match=message):
            render_scatter(dataset, canvas=canvas)
        with pytest.raises(InputDataError, match=message):
            RunConfig(canvas=canvas)
        svg = svg_text(render_scatter(dataset, canvas=(101, 101)))
        cx = [float(v) for v in re.findall(r'<circle cx="([\d.-]+)"', svg)]
        assert np.corrcoef(cx, dataset.Y[:, 0])[0, 1] > 0.999

    def test_group_colors_cycle_past_ten_groups(self):
        # groups g0..g11 get ids 0..11 in first-appearance order; every 13th row is noise
        tokens = ["noise" if i % 13 == 12 else f"g{i % 13}" for i in range(39)]
        x = np.column_stack([np.arange(39.0), np.ones(39)])
        dataset = make_dataset(x, np.column_stack([np.arange(39.0), np.zeros(39)]), tokens)
        svg = svg_text(render_scatter(dataset, from_labels(dataset)))
        expected = [NOISE_COLOR if t == "noise" else PALETTE[int(t[1:]) % 10] for t in tokens]
        assert re.findall(r'<circle [^>]*r="3" fill="(#\w+)"', svg) == expected
        legend = re.findall(r'height="10" fill="(#\w+)"/>\n<text [^>]*>([^<]*)</text>', svg)
        groups = [(PALETTE[k % 10], f"g{k}") for k in range(12)]
        assert legend == groups + [(NOISE_COLOR, "noise")]
        assert legend[10] == (PALETTE[0], "g10")

    def test_byte_identical_runs(self):
        first = svg_text(simple_scene())
        second = svg_text(simple_scene())
        assert hashlib.sha256(first.encode()).hexdigest() == hashlib.sha256(
            second.encode()
        ).hexdigest()


# pixel values at the edges of "%.2f": signed zeros, both sides of the -0.00
# boundary, exact binary ties that round to even, and a large magnitude
EDGE_VALUES = [-0.0, 0.0, -0.004999999999999999, -0.005, 0.005, 0.125, -0.125, 0.375,
               2.675, 1e15, -1e15]
coordinate = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1e16, 1e16))


class TestStreaming:
    @given(
        points=st.lists(st.tuples(coordinate, coordinate), max_size=12),
        transform=st.one_of(
            st.none(),
            st.tuples(st.floats(0.0, 1e3), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)),
        ),
        chunk=st.sampled_from([1, 3, render_module._MARKER_CHUNK]),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunked_markers_match_per_point_fmt(self, points, transform, chunk):
        # no transform hands the raw values, -0.0 included, to the formatting
        if transform is None:
            def tx(v):
                return v

            ty = tx
        else:
            origin, scale, low = transform

            def tx(v):
                return origin + scale * (v - low)

            def ty(v):
                return 600 - (origin + scale * (v - low))
        slots = (np.arange(len(points)) % 11).astype(np.uint8)
        colors = [(*PALETTE, NOISE_COLOR)[i % 11] for i in range(len(points))]
        expected = "".join(
            f'<circle cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" r="3" fill="{color}" '
            f'fill-opacity="0.65"/>\n'
            for (x, y), color in zip(points, colors)
        )
        array = np.array(points, dtype=float).reshape(-1, 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(render_module, "_MARKER_CHUNK", chunk)
            assert "".join(_markers(array, slots, tx, ty)) == expected

    @pytest.mark.parametrize("chunk", [1, 3, render_module._MARKER_CHUNK])
    def test_written_bytes_equal_to_svg(self, iris_dataset, tmp_path, chunk):
        grouping = from_labels(iris_dataset)
        renamed = make_dataset(iris_dataset.X, iris_dataset.Y,
                               names=("sépal", *iris_dataset.feature_names[1:]))
        clock = build_clock(renamed, range(150), RunConfig(circles=True))
        scene = render_scatter(iris_dataset, grouping)
        render_circles(scene, clock)
        render_clock(scene, clock)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(render_module, "_MARKER_CHUNK", chunk)
            with open(tmp_path / "out.svg", "w", encoding="utf-8") as handle:
                assert scene.to_svg(handle) is None
            text = svg_text(scene)
        assert (tmp_path / "out.svg").read_bytes() == text.encode("utf-8")
        assert "sépal" in text

    def test_scatter_and_emission_memory_stays_near_the_points(self, tmp_path):
        # per-point Python lists and one string per marker took 26 Y.nbytes
        rng = np.random.default_rng(0)
        y = rng.normal(size=(40_000, 2)) * 10.0
        dataset = make_dataset(rng.normal(size=(40_000, 3)), y)
        grouping = from_labels(make_dataset(dataset.X, y, [f"g{i}" for i in rng.integers(8, size=40_000)]))
        tracemalloc.start()
        try:
            scene = render_scatter(dataset, grouping)
            with open(tmp_path / "scatter.svg", "w", encoding="utf-8") as handle:
                scene.to_svg(handle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert marker_count((tmp_path / "scatter.svg").read_text()) == 40_000
        assert peak < 1.8 * y.nbytes  # 0.47 measured

    def test_scatter_keeps_one_byte_per_point(self):
        # a color string per point, through an int64 and an object array, took 1.56 Y.nbytes
        rng = np.random.default_rng(1)
        y = rng.normal(size=(40_000, 2))
        dataset = make_dataset(rng.normal(size=(40_000, 3)), y)
        tokens = [f"g{i}" for i in rng.integers(12, size=40_000)]
        tokens[::7] = ["noise"] * len(tokens[::7])
        grouping = from_labels(make_dataset(dataset.X, y, tokens))
        tracemalloc.start()
        try:
            scene = render_scatter(dataset, grouping)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * y.nbytes
        assert scene.point_slots.dtype == np.uint8


def line_length_px(svg, color):
    match = re.search(
        rf'<line x1="([\d.-]+)" y1="([\d.-]+)" x2="([\d.-]+)" y2="([\d.-]+)" '
        rf'stroke="{color}" stroke-width="2"',
        svg,
    )
    assert match, f"no arrow line with color {color}"
    x1, y1, x2, y2 = (float(g) for g in match.groups())
    return math.hypot(x2 - x1, y2 - y1)


def clock_radius_px(svg):
    match = re.search(r'r="([\d.]+)" fill="none" stroke="#444444"', svg)
    assert match, "no clock circle"
    return float(match.group(1))


class TestClockGlyph:
    def test_single_arrow_spans_radius(self):
        scene = simple_scene()
        clock = manual_clock([arrow("f0", 1.0, 0.0)])
        svg = svg_text(render_clock(scene, clock))
        radius = clock_radius_px(svg)
        color = scene.feature_styles["f0"][0]
        assert line_length_px(svg, color) == pytest.approx(radius, abs=0.03)

    def test_equal_magnitudes_equal_pixel_lengths(self):
        scene = simple_scene()
        clock = manual_clock([arrow("f0", 1.0, 0.0), arrow("f1", 0.0, 1.0)])
        svg = svg_text(render_clock(scene, clock))
        c0 = scene.feature_styles["f0"][0]
        c1 = scene.feature_styles["f1"][0]
        assert line_length_px(svg, c0) == pytest.approx(line_length_px(svg, c1), abs=0.03)

    def test_relative_lengths_match_magnitudes(self):
        scene = simple_scene()
        clock = manual_clock([arrow("f0", 1.0, 0.0), arrow("f1", 0.0, 0.4)])
        svg = svg_text(render_clock(scene, clock))
        c0 = scene.feature_styles["f0"][0]
        c1 = scene.feature_styles["f1"][0]
        ratio = line_length_px(svg, c1) / line_length_px(svg, c0)
        assert ratio == pytest.approx(0.4, rel=0.01)

    def test_annotations_print_magnitudes(self):
        scene = simple_scene()
        clock = manual_clock([arrow("f0", 0.75, 0.0), arrow("f1", 0.0, 0.31)])
        svg = svg_text(render_clock(scene, clock))
        assert ">0.75<" in svg
        assert ">0.31<" in svg

    def test_empty_clock_gets_caption(self):
        scene = simple_scene()
        clock = manual_clock([])
        svg = svg_text(render_clock(scene, clock))
        assert "no significant features" in svg

    def test_legend_lists_features(self):
        scene = simple_scene()
        clock = manual_clock([arrow("f0", 1.0, 0.0)])
        svg = svg_text(render_clock(scene, clock))
        assert ">f0<" in svg

    @pytest.mark.parametrize("canvas", [(900, 600), (900, 300), (400, 101), (150, 101)])
    def test_long_legend_stays_on_the_canvas(self, canvas):
        # 60 features: the first column holds the rows above the bottom margin;
        # 400x101 has room for two columns of two rows, 150x101 for one column,
        # and the last of those rows counts the rest
        shown = {(400, 101): 3, (150, 101): 1}.get(canvas, 60)
        arrows = [arrow(f"f{j}", math.cos(j), math.sin(j)) for j in range(60)]
        x = np.column_stack([np.arange(3.0), np.ones(3)])
        scene = render_scatter(make_dataset(x, [[-2.0, -2.0], [2.0, 2.0], [0.0, 1.0]]), canvas=canvas)
        svg = svg_text(render_clock(scene, manual_clock(arrows)))
        rects = re.findall(r'<rect x="([\d.-]+)" y="([\d.-]+)" width="10" height="10"', svg)
        assert len(rects) == shown
        width, height = canvas
        for rx, ry in rects:
            assert 0 <= float(rx) and float(rx) + 10 <= width
            assert 0 <= float(ry) and float(ry) + 10 <= height
        rows = re.findall(r'<text x="([\d.-]+)" y="([\d.-]+)" font-family="sans-serif" '
                          r'font-size="12" fill="#222222">([^<]*)</text>', svg)
        more = [f"+{60 - shown} more"] if shown < 60 else []
        assert [label for _, _, label in rows] == [f"f{j}" for j in range(shown)] + more
        for tx, ty, _ in rows:
            assert 0 <= float(tx) < width and 0 <= float(ty) <= height


class TestCirclesGlyph:
    def test_trace_is_the_diameter_circle(self):
        # the sweep of (1, 0) is the circle through the anchor with diameter to (1, 0)
        scene = simple_scene()
        clock = manual_clock([arrow("f0", 1.0, 0.0)], variant="circles")
        render_circles(scene, clock)
        trace = scene.circles[0].traces[0]
        assert (trace.cx, trace.cy, trace.radius) == (0.5, 0.0, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=6).filter(
            lambda pairs: max(math.hypot(*p) for p in pairs) > 1e-6),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.floats(1e-3, 1e3),
        st.floats(1e-2, 1e2),
    )
    def test_trace_geometry_is_exact(self, pairs, anchor, scale, clock_scale):
        arrows = [arrow(f"f{i}", b0, b90) for i, (b0, b90) in enumerate(pairs)]
        clock = manual_clock(arrows, anchor=anchor, scale=scale, variant="circles")
        glyph = render_circles(simple_scene(), clock, clock_scale=clock_scale).circles[0]
        k = glyph.radius / max(a.magnitude for a in arrows)
        assert len(glyph.traces) == len(arrows)
        near = 1e-12 * (abs(anchor[0]) + abs(anchor[1]) + glyph.radius)  # a centre may sit at 0
        for a, trace in zip(arrows, glyph.traces):
            tip = (anchor[0] + k * a.beta0, anchor[1] + k * a.beta90)
            assert trace.cx == pytest.approx(0.5 * (anchor[0] + tip[0]), rel=1e-12, abs=near)
            assert trace.cy == pytest.approx(0.5 * (anchor[1] + tip[1]), rel=1e-12, abs=near)
            half = 0.5 * math.hypot(tip[0] - anchor[0], tip[1] - anchor[1])
            assert trace.radius == pytest.approx(half, rel=1e-12)
        assert 2.0 * max(t.radius for t in glyph.traces) == pytest.approx(glyph.radius, rel=1e-12)

    def test_traces_are_unfilled_circles_in_the_feature_style(self):
        scene = simple_scene()
        clock = manual_clock([arrow("f0", 1.0, 0.0), arrow("f1", 0.0, -0.5)], variant="circles")
        svg = svg_text(render_circles(scene, clock))
        minidom.parseString(svg)
        traces = re.findall(r'<circle [^>]*fill="none" stroke="(#\w+)" stroke-width="1.5"/>', svg)
        assert traces == [PALETTE[0], PALETTE[1]]
        assert "<polyline" not in svg
        assert len(re.findall("fill-opacity", svg)) == 3  # the scatter markers only

    def test_insignificant_features_not_drawn(self):
        scene = simple_scene()
        clock = Clock("circles", (0.0, 0.0), 1.0, (), 3)
        render_circles(scene, clock)
        assert scene.circles[0].traces == []
        assert 'stroke-width="1.5"' not in svg_text(scene)


class TestIntergroupGlyph:
    def fixture(self):
        rng = np.random.default_rng(0)
        n = 60
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        b[:, 0] += 2.0  # overlapping groups keep the fit well-identified
        x = np.vstack([a, b])
        y = np.vstack(
            [rng.normal(scale=0.4, size=(n, 2)), rng.normal(scale=0.4, size=(n, 2)) + 9.0]
        )
        labels = ["a"] * n + ["b"] * n
        dataset = make_dataset(x, y, labels)
        grouping = from_labels(dataset)
        clocks = build_intergroup_clocks(dataset, grouping, mst_over_centers(grouping))
        return dataset, grouping, clocks

    def test_segment_and_arrow_toward_positive_class(self):
        dataset, grouping, clocks = self.fixture()
        scene = render_scatter(dataset, grouping)
        svg = svg_text(render_intergroup(scene, clocks))
        assert svg.count("stroke-dasharray=\"4,3\"") == 1  # one segment
        clock = clocks[0]
        assert clock.arrows[0].feature == "f0"
        # tip is closer to the b-group center than the anchor is
        high = next(g for g in grouping.groups if g.name == "b")
        tip = (
            clock.anchor[0] + clock.arrows[0].beta0,
            clock.anchor[1] + clock.arrows[0].beta90,
        )
        assert math.dist(tip, high.center) < math.dist(clock.anchor, high.center)

    def test_empty_arrows_segment_only(self):
        dataset, grouping, clocks = self.fixture()
        bare = [dataclasses.replace(clocks[0], arrows=())]
        scene = render_scatter(dataset, grouping)
        svg = svg_text(render_intergroup(scene, bare))
        assert 'stroke-dasharray="4,3"' in svg
        assert 'stroke-width="2"' not in svg

    def test_three_group_chain_two_segments(self):
        rng = np.random.default_rng(1)
        n = 30
        x = rng.normal(size=(3 * n, 2))
        x[n : 2 * n, 0] += 3.0
        x[2 * n :, 0] += 6.0
        y = rng.normal(scale=0.3, size=(3 * n, 2))
        y[n : 2 * n, 0] += 4.0
        y[2 * n :, 0] += 8.0
        labels = ["a"] * n + ["b"] * n + ["c"] * n
        dataset = make_dataset(x, y, labels)
        grouping = from_labels(dataset)
        with pytest.warns(Warning):
            clocks = build_intergroup_clocks(
                dataset, grouping, mst_over_centers(grouping), RunConfig(alpha=1e-9)
            )
        scene = render_scatter(dataset, grouping)
        svg = svg_text(render_intergroup(scene, clocks))
        assert svg.count('stroke-dasharray="4,3"') == 2


class TestAnnotationLayout:
    def test_overlapping_labels_pushed_apart(self):
        from featureclock.render import _nudged_angles

        arrows = [arrow("f0", 1.0, 0.0), arrow("f1", 1.0, 0.0), arrow("f2", 1.0, 0.0)]
        specs = []
        scene = simple_scene()
        clock = manual_clock(arrows)
        render_clock(scene, clock)
        angles = _nudged_angles(scene.clocks[0].arrows)
        assert angles == [0.0, 12.0, 24.0]

    def test_far_labels_untouched(self):
        from featureclock.render import _nudged_angles

        scene = simple_scene()
        clock = manual_clock([arrow("f0", 1.0, 0.0), arrow("f1", 0.0, 1.0)])
        render_clock(scene, clock)
        assert _nudged_angles(scene.clocks[0].arrows) == [0.0, 90.0]


class TestPaletteCycling:
    def test_feature_11_reuses_color_with_dash(self):
        from featureclock.render import DASHES, PALETTE, Scene, _style_for

        scene = Scene()
        for i in range(12):
            _style_for(scene, f"f{i}")
        color0, dash0 = scene.feature_styles["f0"]
        color10, dash10 = scene.feature_styles["f10"]
        assert color0 == PALETTE[0] and dash0 == ""
        assert color10 == PALETTE[0] and dash10 == DASHES[1]


class TestWellFormed:
    def test_all_scene_kinds_parse_as_xml(self, iris_dataset):
        grouping = from_labels(iris_dataset)
        clock = build_clock(iris_dataset, range(150), RunConfig(circles=True))
        scene = render_scatter(iris_dataset, grouping)
        render_circles(scene, clock)
        minidom.parseString(svg_text(scene))

        plain = build_clock(iris_dataset, range(150))
        scene2 = render_scatter(iris_dataset, grouping)
        render_clock(scene2, plain)
        minidom.parseString(svg_text(scene2))

    def test_label_text_is_escaped(self):
        y = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [1.0, 2.0]]
        x = np.column_stack([np.arange(5.0), np.ones(5)])
        dataset = make_dataset(x, y, names=("a<b", "c&d"))
        scene = render_scatter(dataset)
        clock = manual_clock([arrow("a<b", 1.0, 0.0), arrow("c&d", 0.0, 0.5)])
        svg = svg_text(render_clock(scene, clock))
        minidom.parseString(svg)
        assert "a&lt;b" in svg
        assert "c&amp;d" in svg
