import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featureclock import (
    NOISE,
    ComputationError,
    Group,
    GroupingResult,
    InputDataError,
    dbscan,
    from_labels,
    kmeans,
    mst_over_centers,
    validate_config,
)
from featureclock import grouping as grouping_module

from oracles import dbscan_reference, kmeans_reference, make_dataset, min_spanning_weight, mst_reference


def blob_fixture(seed=0, gap=50.0, n_per=20, spread=0.5):
    """Two tight 2D blobs separated by a gap much larger than their spread."""
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=spread, size=(n_per, 2))
    b = rng.normal(scale=spread, size=(n_per, 2)) + np.array([gap, 0.0])
    return np.vstack([a, b])


class TestFromLabels:
    def test_two_groups_with_centers(self):
        y = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
        grouping = from_labels(make_dataset(y, y, ["a", "a", "b"]))
        a, b = grouping.groups
        assert a.name == "a" and a.members.tolist() == [0, 1] and a.center == (1.0, 0.0)
        assert b.name == "b" and b.members.tolist() == [2] and b.center == (5.0, 5.0)

    def test_single_label_covers_everything(self):
        y = np.arange(10, dtype=float).reshape(5, 2)
        grouping = from_labels(make_dataset(y, y, ["only"] * 5))
        assert len(grouping.groups) == 1
        assert grouping.groups[0].members.tolist() == list(range(5))

    def test_centers_match_mean_oracle(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(60, 2))
        tokens = [("p", "q", "r")[i % 3] for i in range(60)]
        assert_per_group_reference(from_labels(make_dataset(y, y, tokens)), y)

    def test_noise_token_case_insensitive(self):
        y = np.zeros((4, 2))
        grouping = from_labels(make_dataset(y, y, ["a", "NOISE", "Noise", "a"]))
        assert list(grouping.labels) == [0, NOISE, NOISE, 0]
        assert len(grouping.groups) == 1

    def test_first_appearance_order(self):
        y = np.zeros((4, 2))
        grouping = from_labels(make_dataset(y, y, ["z", "m", "z", "a"]))
        assert [g.name for g in grouping.groups] == ["z", "m", "a"]

    def test_length_mismatch(self):
        with pytest.raises(ComputationError, match="^1 labels for 3 points$"):
            from_labels(make_dataset(np.zeros((3, 2)), np.zeros((3, 2)), ["a"]))

    def test_permutation_only_relabels(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(30, 2))
        tokens = [("u", "v")[i % 2] for i in range(30)]
        perm = rng.permutation(30)
        base = from_labels(make_dataset(y, y, tokens))
        shuffled = from_labels(make_dataset(y[perm], y[perm], [tokens[i] for i in perm]))
        base_sets = {g.name: set(g.members) for g in base.groups}
        inverse = np.empty(30, dtype=int)
        inverse[perm] = np.arange(30)
        for g in shuffled.groups:
            mapped = {int(perm[i]) for i in g.members}
            assert mapped == base_sets[g.name]

    def test_dataset_without_labels_rejected(self):
        with pytest.raises(ComputationError, match="^the dataset has no labels to group by$"):
            from_labels(make_dataset(np.zeros((3, 2)), np.zeros((3, 2))))


def assert_per_group_reference(grouping, y):
    """Members and centers equal a per-group pass over the labels, bit for bit."""
    ids = sorted(set(grouping.labels.tolist()) - {NOISE})
    assert [g.id for g in grouping.groups] == ids
    for g in grouping.groups:
        expected = np.flatnonzero(grouping.labels == g.id)
        assert g.members.dtype == expected.dtype
        assert np.array_equal(g.members, expected)
        rows = y[expected]
        assert g.center == (float(rows[:, 0].mean()), float(rows[:, 1].mean()))


class TestMembersAndCenters:
    """Every grouping takes each group's ascending rows as members and numpy's mean of them as center."""

    @given(
        names=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=2), min_size=1, max_size=12, unique=True),
        n=st.integers(min_value=1, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_labels(self, names, n, seed):
        # groups of every size, among noise rows; the scales and offset make a
        # center's rounding depend on the order of its sum
        rng = np.random.default_rng(seed)
        vocabulary = [*names, "noise", "Noise"]
        tokens = [vocabulary[i] for i in rng.integers(len(vocabulary), size=n)]
        y = rng.normal(size=(len(tokens), 2)) * 10.0 ** rng.integers(-3, 4, size=2) + rng.normal(size=2) * 1e3
        assert_per_group_reference(from_labels(make_dataset(y, y, tokens)), y)

    def test_kmeans(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(6, 4)) * 20.0
        x = centers[rng.integers(6, size=3000)] + rng.normal(size=(3000, 4))
        y = x[:, :2] * 0.37 + 1e3
        grouping = kmeans(make_dataset(x, y), 6, seed=1)
        assert len(grouping.groups) == 6
        assert_per_group_reference(grouping, y)

    def test_dbscan(self):
        rng = np.random.default_rng(6)
        angles = np.repeat(np.arange(8) * (2 * math.pi / 8), 300)
        blobs = np.column_stack([np.cos(angles), np.sin(angles)]) * 20.0 + rng.normal(size=(2400, 2))
        y = np.vstack([blobs, rng.uniform(-30.0, 30.0, size=(200, 2))]) + 1e3
        x = rng.normal(size=(2600, 3))
        grouping = dbscan(make_dataset(x, y), eps=1.0, min_pts=8, on="y")
        assert len(grouping.groups) >= 8 and np.any(grouping.labels == NOISE)
        assert_per_group_reference(grouping, y)


class TestClusterSpace:
    """``on`` picks the rows a clustering reads; centers always come from the embedding."""

    def test_on_y_clusters_the_embedding(self):
        y = blob_fixture(seed=15)
        x = np.random.default_rng(15).normal(size=(40, 3))
        for cluster in (lambda d, **on: kmeans(d, 2, seed=0, **on),
                        lambda d, **on: dbscan(d, eps=3.0, min_pts=4, **on)):
            on_y = cluster(make_dataset(x, y), on="y")
            on_x = cluster(make_dataset(y, y))
            assert np.array_equal(on_y.labels, on_x.labels)
            assert [g.center for g in on_y.groups] == [g.center for g in on_x.groups]

    def test_space_read_as_validate_config_reads_it(self):
        dataset = make_dataset(np.random.default_rng(16).normal(size=(40, 3)), blob_fixture())
        assert np.array_equal(kmeans(dataset, 2, seed=0, on="Y").labels, kmeans(dataset, 2, seed=0, on="y").labels)
        assert validate_config({"cluster_on": "Y"}).cluster_on == "y"
        message = "^cluster space must be 'x' or 'y', got 'z'$"
        for reject in (lambda: kmeans(dataset, 2, seed=0, on="Z"),
                       lambda: dbscan(dataset, eps=3.0, min_pts=4, on="Z"),
                       lambda: validate_config({"cluster_on": "Z"})):
            with pytest.raises(InputDataError, match=message):
                reject()


class TestKmeans:
    def test_two_blobs_recovered(self):
        data = blob_fixture()
        grouping = kmeans(make_dataset(data, data), 2, seed=0)
        assert len(grouping.groups) == 2
        sets = sorted((set(g.members) for g in grouping.groups), key=min)
        assert sets[0] == set(range(20))
        assert sets[1] == set(range(20, 40))

    def test_k1_single_group_global_centroid(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(25, 2))
        grouping = kmeans(make_dataset(data, data), 1, seed=0)
        assert len(grouping.groups) == 1
        center = grouping.groups[0].center
        assert center[0] == pytest.approx(data[:, 0].mean())
        assert center[1] == pytest.approx(data[:, 1].mean())

    def test_same_seed_same_labels(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(50, 4))
        emb = rng.normal(size=(50, 2))
        a = kmeans(make_dataset(data, emb), 3, seed=11)
        b = kmeans(make_dataset(data, emb), 3, seed=11)
        assert np.array_equal(a.labels, b.labels)

    def test_no_noise_labels(self):
        data = blob_fixture(seed=5)
        grouping = kmeans(make_dataset(data, data), 2, seed=0)
        assert not np.any(grouping.labels == NOISE)

    def test_k_exceeds_n(self):
        with pytest.raises(InputDataError, match="exceeds"):
            kmeans(make_dataset(np.zeros((3, 2)), np.zeros((3, 2))), 4, seed=0)

    def test_negative_seed_rejected(self):
        data = blob_fixture()
        with pytest.raises(InputDataError, match="seed must be non-negative, got -1"):
            kmeans(make_dataset(data, data), 2, seed=-1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_distances_raise(self, k):
        # with k = 2 the k-means++ weights overflow; k = 1 draws no weighted
        # center, so the first Lloyd round finds the infinite distances
        data = blob_fixture() * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
            with pytest.raises(ComputationError, match="squared distances between points overflow"):
                kmeans(make_dataset(data, data / 1e200), k, seed=0)

    def test_repair_keeps_every_cluster(self):
        # three distinct values for k=4: a repair that took a cluster's only
        # point left it empty, and its center became the mean of no rows
        data = np.array([[0.0], [1.0], [2.0], [2.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grouping = kmeans(make_dataset(data, np.zeros((5, 2))), 4, seed=40)
        assert set(grouping.labels.tolist()) == {0, 1, 2, 3}
        assert [g.id for g in grouping.groups] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "values, k, seed, expected",
        [
            ([0, 2, 1, 2, 1], 5, 14, [0, 3, 4, 1, 2]),
            ([0, 1, 2, 2, 1, 2, 2, 2], 8, 9, [1, 3, 4, 5, 2, 6, 7, 0]),
        ],
    )
    def test_repairs_read_the_sizes_they_change(self, values, k, seed, expected):
        # each repair must see the clusters the earlier ones shrank: with the
        # round's first sizes a later repair takes an earlier one's only point
        data = np.array(values, dtype=float)[:, None]
        grouping = kmeans(make_dataset(data, np.zeros((len(values), 2))), k, seed=seed)
        assert grouping.labels.tolist() == expected
        assert kmeans_reference(data, k, seed).tolist() == expected

    def test_centers_come_from_embedding(self):
        data = blob_fixture(seed=6)
        emb = np.column_stack([np.arange(40.0), np.zeros(40)])
        grouping = kmeans(make_dataset(data, emb), 2, seed=0)
        for g in grouping.groups:
            rows = emb[g.members]
            assert g.center == (pytest.approx(rows[:, 0].mean()), pytest.approx(0.0))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=200),
        d=st.integers(min_value=1, max_value=12),
        values=st.sampled_from([2, 3, None]),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        block_cells=st.sampled_from([1, 50, grouping_module._BLOCK_CELLS]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_matrix_reference(self, seed, n, d, values, k_frac, block_cells):
        # a few distinct values with k near n leaves clusters empty, so the
        # repair runs; one-row blocks put every row in a block of its own
        rng = np.random.default_rng(seed)
        if values is None:
            data = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        else:
            data = rng.integers(0, values, size=(n, d)).astype(float)
        k = 1 + round(k_frac * (n - 1))
        expected = kmeans_reference(data, k, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping_module, "_BLOCK_CELLS", block_cells)
            # the blocks are C-ordered, so the input's memory order changes nothing
            for arr in (data, np.asfortranarray(data)):
                grouping = kmeans(make_dataset(arr, data[:, [0, 0]]), k, seed=seed)
                assert np.array_equal(grouping.labels, expected)

    def test_memory_stays_near_the_data(self):
        # the n x k x d difference tensor of one Lloyd round would be 8 X.nbytes,
        # a full n x d difference buffer 1 X.nbytes, and with k = 1 a copy of
        # the cluster's rows for its mean 1 X.nbytes
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(8, 20)) * 100.0
        data = centers[rng.integers(8, size=40_000)] + rng.normal(size=(40_000, 20))
        dataset = make_dataset(data, data[:, :2])  # its copies of the data are not kmeans' memory
        for k in (8, 1):
            tracemalloc.start()
            try:
                grouping = kmeans(dataset, k, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(grouping.groups) == k
            assert peak < 0.55 * data.nbytes  # 0.507 (k = 8) and 0.473 (k = 1) measured


class TestDbscan:
    def test_blobs_plus_outlier(self):
        data = np.vstack([blob_fixture(seed=7), [[25.0, 200.0]]])
        grouping = dbscan(make_dataset(data, data), eps=3.0, min_pts=4)
        assert len(grouping.groups) == 2
        assert grouping.labels[40] == NOISE
        sets = sorted((set(g.members) for g in grouping.groups), key=min)
        assert sets[0] == set(range(20))
        assert sets[1] == set(range(20, 40))

    def test_huge_eps_single_group(self):
        data = blob_fixture(seed=8)
        grouping = dbscan(make_dataset(data, data), eps=1e6, min_pts=4)
        assert len(grouping.groups) == 1
        assert not np.any(grouping.labels == NOISE)

    def test_min_pts_above_n_all_noise(self):
        data = blob_fixture(seed=9)
        grouping = dbscan(make_dataset(data, data), eps=1e6, min_pts=41)
        assert np.all(grouping.labels == NOISE)
        assert grouping.groups == ()

    def test_ids_follow_scan_order(self):
        data = blob_fixture(seed=10)
        grouping = dbscan(make_dataset(data, data), eps=3.0, min_pts=4)
        assert grouping.labels[0] == 0
        assert grouping.labels[20] == 1

    def test_noise_never_in_groups(self):
        data = np.vstack([blob_fixture(seed=11), [[500.0, 500.0]]])
        grouping = dbscan(make_dataset(data, data), eps=3.0, min_pts=4)
        for g in grouping.groups:
            assert 40 not in g.members

    def test_invalid_parameters(self):
        data = blob_fixture()
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(InputDataError, match="eps"):
                dbscan(make_dataset(data, data), eps=eps, min_pts=4)
        with pytest.raises(InputDataError):
            dbscan(make_dataset(data, data), eps=1.0, min_pts=0)

    def test_shared_border_point_joins_lowest_cluster(self):
        # Point 0 is a border point, within eps of core point 1 (cluster 0)
        # and core point 4 (cluster 1), and scanned before both.
        data = np.array([
            [0.0, 0.0],
            [-1.0, 0.0], [-1.5, 0.0], [-2.0, 0.0],
            [1.0, 0.0], [1.5, 0.0], [2.0, 0.0],
        ])
        grouping = dbscan(make_dataset(data, data), eps=1.0, min_pts=4)
        assert grouping.labels.tolist() == [0, 0, 0, 0, 1, 1, 1]
        assert grouping.labels.tolist() == dbscan_reference(data, 1.0, 4).tolist()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=500),
        d=st.integers(min_value=1, max_value=7),
        eps=st.sampled_from([1.0, math.sqrt(2.0), 2.0]),
        min_pts=st.integers(min_value=1, max_value=8),
        block_cells=st.sampled_from([1, 1000, grouping_module._BLOCK_CELLS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_points_match_reference(self, seed, n, d, eps, min_pts, block_cells):
        # integer coordinates put many pairs exactly at eps; small blocks
        # split the neighbor pass into many uneven row blocks
        rng = np.random.default_rng(seed)
        side = max(2, round((n / 2) ** (1.0 / d)))
        data = rng.integers(0, side, size=(n, d)).astype(float)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping_module, "_BLOCK_CELLS", block_cells)
            grouping = dbscan(make_dataset(data, data[:, [0, 0]]), eps=eps, min_pts=min_pts)
        assert np.array_equal(grouping.labels, dbscan_reference(data, eps, min_pts))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        d=st.integers(min_value=1, max_value=4),
        values=st.integers(min_value=1, max_value=5),
        eps=st.sampled_from([1.0, math.sqrt(2.0), 2.0]),
        min_pts=st.integers(min_value=1, max_value=8),
        block_cells=st.sampled_from([1, 1000, grouping_module._BLOCK_CELLS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_coordinate_ties_match_reference(
        self, seed, n, d, values, eps, min_pts, block_cells
    ):
        # the first coordinate takes a few multiples of eps, so many points tie
        # on it and neighboring values sit at the edge of each other's window;
        # 0/1 in the other coordinates puts many pairs exactly at eps
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, size=(n, d)).astype(float)
        data[:, 0] = rng.integers(0, values, size=n) * eps
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping_module, "_BLOCK_CELLS", block_cells)
            grouping = dbscan(make_dataset(data, data[:, [0, 0]]), eps=eps, min_pts=min_pts)
        assert np.array_equal(grouping.labels, dbscan_reference(data, eps, min_pts))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        d=st.integers(min_value=1, max_value=3),
        grid=st.sampled_from([(1e8, float(np.spacing(1e8))), (-1e8, float(np.spacing(1e8))),
                              (0.0, 1e-165)]),
        factor=st.sampled_from([0.5, 1.0, math.sqrt(2.0), 1.5, 2.0, 2.5]),
        min_pts=st.integers(min_value=1, max_value=8),
        block_cells=st.sampled_from([1, 1000, grouping_module._BLOCK_CELLS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_offset_and_tiny_grids_match_reference(
        self, seed, n, d, grid, factor, min_pts, block_cells
    ):
        # a grid one ulp apart at 1e8, where first +- eps rounds to a grid
        # point, and one so fine that every squared step underflows to 0
        offset, step = grid
        eps = factor * step
        rng = np.random.default_rng(seed)
        data = offset + rng.integers(0, 6, size=(n, d)) * step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping_module, "_BLOCK_CELLS", block_cells)
            grouping = dbscan(make_dataset(data, data[:, [0, 0]]), eps=eps, min_pts=min_pts)
        assert np.array_equal(grouping.labels, dbscan_reference(data, eps, min_pts))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        d=st.sampled_from([8, 12, 30]),
        min_pts=st.integers(min_value=1, max_value=8),
        block_cells=st.sampled_from([1, 1000, grouping_module._BLOCK_CELLS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_continuous_points_match_reference(self, seed, n, d, min_pts, block_cells):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d)) + rng.integers(0, 3, size=(n, 1)) * 4.0
        eps = math.sqrt(d) * 0.9
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping_module, "_BLOCK_CELLS", block_cells)
            grouping = dbscan(make_dataset(data, data[:, :2]), eps=eps, min_pts=min_pts)
        assert np.array_equal(grouping.labels, dbscan_reference(data, eps, min_pts))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("block_cells", [1, 1000, grouping_module._BLOCK_CELLS])
    def test_chains_joined_in_a_late_block(self, seed, block_cells):
        # chains A (y = 0) and B (y = 1) of core points 0.5 apart meet only
        # through a bridge point past their right ends, so the pair that joins
        # them lies in the last block by first coordinate; chain C (y = 5)
        # stays a second cluster, whose id depends on the lowest core row
        rng = np.random.default_rng(seed)
        steps = np.arange(60) * 0.5
        chains = [np.column_stack([steps, level + rng.uniform(-0.02, 0.02, steps.size)])
                  for level in (0.0, 1.0, 5.0)]
        bridge = [[steps[-1] + 0.25, 0.5]]
        data = np.vstack([*chains, bridge])
        data = data[rng.permutation(len(data))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping_module, "_BLOCK_CELLS", block_cells)
            grouping = dbscan(make_dataset(data, data), eps=0.6, min_pts=3)
        assert sorted(len(g.members) for g in grouping.groups) == [60, 121]
        assert np.array_equal(grouping.labels, dbscan_reference(data, 0.6, 3))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        block_cells=st.sampled_from([1, 1000, grouping_module._BLOCK_CELLS]),
    )
    @settings(max_examples=10, deadline=None)
    def test_one_cluster_holding_nearly_every_point(self, seed, block_cells):
        # the shape of a DBSCAN on 30 features: nearly every point is within
        # eps of most others on the first coordinate and in one cluster, with
        # a few widened points left as border or noise
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(300, 30))
        data[:6] *= 1.6
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grouping_module, "_BLOCK_CELLS", block_cells)
            grouping = dbscan(make_dataset(data, data[:, :2]), eps=6.5, min_pts=10)
        assert np.array_equal(grouping.labels, dbscan_reference(data, 6.5, 10))
        assert max(len(g.members) for g in grouping.groups) > 250

    @staticmethod
    def dbscan_peak(data, eps, min_pts):
        dataset = make_dataset(data, data)  # its copies of the data are not dbscan's memory
        tracemalloc.start()
        try:
            grouping = dbscan(dataset, eps=eps, min_pts=min_pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return grouping, peak

    def test_memory_stays_bounded(self):
        # 20 000 points on a jittered grid of spacing 1; eps 1.5 gives each
        # point about 9 neighbors. An n x n distance matrix would be 3.2 GB.
        # Peak 4.0 MiB: two 1 MiB block buffers and a few arrays of n.
        rng = np.random.default_rng(13)
        side = 200
        grid = np.indices((side, side // 2)).reshape(2, -1).T.astype(float)
        data = grid + rng.uniform(-0.05, 0.05, size=grid.shape)
        grouping, peak = self.dbscan_peak(data, eps=1.5, min_pts=5)
        assert len(grouping.groups) == 1
        assert peak < 4.5 * 2**20

    def test_memory_does_not_grow_with_the_pairs(self):
        # 20 000 uniform points at about 130 neighbors each, the density of
        # the benchmark's DBSCAN on the embedding: 2.6M pairs. Kept as 4-byte
        # neighbor lists and then joined into one array, they peaked at
        # 20.9 MiB; counted and joined block by block, 4.0 MiB.
        rng = np.random.default_rng(14)
        data = rng.uniform(0.0, 100.0, size=(20_000, 2))
        grouping, peak = self.dbscan_peak(data, eps=4.55, min_pts=10)
        assert len(grouping.groups) == 1
        assert peak < 4.5 * 2**20

    def test_permutation_only_relabels(self):
        # holds when no border point is reachable from two clusters;
        # test_shared_border_point_joins_lowest_cluster pins the other case
        rng = np.random.default_rng(12)
        data = blob_fixture(seed=12)
        perm = rng.permutation(len(data))
        base = dbscan(make_dataset(data, data), eps=3.0, min_pts=4)
        shuffled = dbscan(make_dataset(data[perm], data[perm]), eps=3.0, min_pts=4)
        base_sets = sorted(frozenset(g.members) for g in base.groups)
        shuffled_sets = sorted(
            frozenset(int(perm[i]) for i in g.members) for g in shuffled.groups
        )
        assert base_sets == shuffled_sets


def groups_at(ids, centers) -> GroupingResult:
    """Groups with the given ids and embedding centers, and no members."""
    none = np.empty(0, dtype=int)
    return GroupingResult(none, tuple(Group(gid, str(gid), none, tuple(c)) for gid, c in zip(ids, centers)))


@st.composite
def spread_centers(draw):
    """0-60 distinct, non-contiguous group ids and their centers, in one of three layouts at one scale.

    Uniform centers have no ties; an integer lattice has duplicate centers
    (zero-length edges) and many equal lengths; points evenly spaced on a
    line, some repeated, tie every neighbor pair.
    """
    ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=60))
    n = len(ids)
    layout = draw(st.sampled_from(["uniform", "lattice", "collinear"]))
    if layout == "uniform":
        unit = st.floats(0.0, 1.0)
        centers = draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n))
    elif layout == "lattice":
        cell = st.integers(0, 3)
        centers = draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    else:
        steps = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        centers = [(3.0 * t, -4.0 * t) for t in steps]
    scale = 10.0 ** draw(st.sampled_from([-150, -1, 0, 1, 150]))
    return ids, [(x * scale, y * scale) for x, y in centers]


class TestMst:
    def grouping_from_centers(self, centers):
        centers = np.asarray(centers, dtype=float)
        return from_labels(make_dataset(centers, centers, [f"g{i}" for i in range(len(centers))]))

    def test_two_centers_single_edge(self):
        grouping = self.grouping_from_centers([[0.0, 0.0], [3.0, 4.0]])
        mst = mst_over_centers(grouping)
        assert mst == ((0, 1, 5.0),)

    def test_three_collinear_centers(self):
        grouping = self.grouping_from_centers([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        mst = mst_over_centers(grouping)
        assert sorted((a, b) for a, b, _ in mst) == [(0, 1), (1, 2)]
        assert sum(length for _, _, length in mst) == pytest.approx(3.0)

    def test_unit_square_ties_taken_in_id_pair_order(self):
        grouping = self.grouping_from_centers([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert mst_over_centers(grouping) == ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0))

    def test_single_group_no_edges(self):
        grouping = self.grouping_from_centers([[1.0, 1.0]])
        assert mst_over_centers(grouping) == ()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0, 10, size=(5, 2))
        grouping = self.grouping_from_centers(centers)
        mst = mst_over_centers(grouping)
        total = sum(length for _, _, length in mst)
        assert total == pytest.approx(min_spanning_weight(centers), abs=1e-9)

    def test_not_heavier_than_any_star(self):
        rng = np.random.default_rng(20)
        centers = rng.uniform(0, 10, size=(6, 2))
        grouping = self.grouping_from_centers(centers)
        total = sum(length for _, _, length in mst_over_centers(grouping))
        for hub in range(6):
            star = sum(
                math.dist(centers[hub], centers[other])
                for other in range(6)
                if other != hub
            )
            assert total <= star + 1e-9

    def test_spanning_tree_shape(self):
        rng = np.random.default_rng(21)
        centers = rng.uniform(0, 10, size=(7, 2))
        grouping = self.grouping_from_centers(centers)
        mst = mst_over_centers(grouping)
        assert len(mst) == 6
        seen = {0}
        edges = list(mst)
        for _ in range(6):
            for a, b, _length in edges:
                if a in seen or b in seen:
                    seen.update((a, b))
        assert seen == set(range(7))

    @settings(max_examples=300, deadline=None)
    @given(spread_centers())
    def test_equals_kruskal_reference(self, drawn):
        grouping = groups_at(*drawn)
        mst, expected = mst_over_centers(grouping), mst_reference(grouping)
        assert mst == expected
        assert [length.hex() for *_, length in mst] == [length.hex() for *_, length in expected]

    def test_memory_stays_linear_in_the_groups(self):
        # all 499 500 candidate edges of 1000 groups, sorted, took 47.7 MiB
        grouping = groups_at(range(1000), np.random.default_rng(0).uniform(0, 10, size=(1000, 2)).tolist())
        tracemalloc.start()
        try:
            mst = mst_over_centers(grouping)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mst) == 999
        assert peak < 2**20
