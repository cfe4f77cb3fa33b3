import dataclasses
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from featureclock import (
    ComputationError,
    Dataset,
    InputDataError,
    RunConfig,
    build_global_clock,
    load_dataset,
    validate_config,
)
from featureclock.ingest import _read_table

from oracles import read_table_reference


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def small_inputs(tmp_path):
    x = write(
        tmp_path / "x.csv",
        "a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n",
    )
    y = write(
        tmp_path / "y.csv",
        "x,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n0.9,1.0\n",
    )
    labels = write(tmp_path / "labels.csv", "label\nu\nu\nv\nv\nnoise\n")
    return x, y, labels


class TestLoadDataset:
    def test_iris_fixture_dimensions(self, iris_dataset):
        assert len(iris_dataset.feature_names) == 4
        assert iris_dataset.X.shape == (150, 4)
        assert iris_dataset.Y.shape == (150, 2)
        assert len(iris_dataset.labels) == 150

    def test_small_files(self, small_inputs):
        x, y, labels = small_inputs
        dataset = load_dataset(x, y, labels)
        assert dataset.feature_names == ("a", "b")
        assert dataset.X.shape == (5, 2)
        assert dataset.labels[-1] == "noise"

    def test_three_column_embedding_rejected(self, small_inputs, tmp_path):
        x, _, _ = small_inputs
        bad = write(tmp_path / "bad.csv", "x,y,z\n" + "1,2,3\n" * 5)
        with pytest.raises(InputDataError, match="exactly 2 columns"):
            load_dataset(x, bad)

    def test_bad_cell_cites_row_and_column(self, small_inputs, tmp_path):
        _, y, _ = small_inputs
        rows = ["f1,f2"] + ["1,2"] * 10
        rows[7] = "1,abc"  # data row 7, column 2
        bad = write(tmp_path / "badx.csv", "\n".join(rows) + "\n")
        good_y = write(tmp_path / "goody.csv", "x,y\n" + "0,0\n" * 10)
        with pytest.raises(InputDataError, match=r"'abc' at row 7, column 2"):
            load_dataset(bad, good_y)

    def test_missing_file_names_path(self, small_inputs):
        x, y, _ = small_inputs
        with pytest.raises(InputDataError, match="nowhere.csv"):
            load_dataset(x, y.parent / "nowhere.csv")

    def test_row_count_mismatch(self, small_inputs, tmp_path):
        x, _, _ = small_inputs
        short = write(tmp_path / "short.csv", "x,y\n1,2\n3,4\n5,6\n7,8\n")
        with pytest.raises(InputDataError, match="row-count mismatch"):
            load_dataset(x, short)

    def test_duplicate_feature_name(self, small_inputs, tmp_path):
        _, y, _ = small_inputs
        dup = write(tmp_path / "dup.csv", "a,a\n" + "1,2\n" * 5)
        with pytest.raises(InputDataError, match=f"^{re.escape(str(dup))}: duplicate feature name 'a'$"):
            load_dataset(dup, y)

    def test_empty_feature_name(self, tmp_path):
        # the names are checked before the embedding file is opened
        blank = write(tmp_path / "blank.csv", "a, \n" + "1,2\n" * 5)
        message = f"^{re.escape(str(blank))}: feature name in column 2 is empty$"
        with pytest.raises(InputDataError, match=message):
            load_dataset(blank, tmp_path / "no-embedding.csv")

    def test_missing_value_rejected(self, small_inputs, tmp_path):
        _, y, _ = small_inputs
        sparse = write(tmp_path / "sparse.csv", "a,b\n1,2\n3,\n5,6\n7,8\n9,10\n")
        with pytest.raises(InputDataError, match="missing value at row 2, column 2"):
            load_dataset(sparse, y)

    def test_non_finite_rejected(self, small_inputs, tmp_path):
        _, y, _ = small_inputs
        inf = write(tmp_path / "inf.csv", "a,b\n1,2\n3,inf\n5,6\n7,8\n9,10\n")
        with pytest.raises(InputDataError, match="non-finite"):
            load_dataset(inf, y)

    def test_too_few_rows(self, tmp_path):
        x = write(tmp_path / "x.csv", "a\n1\n2\n3\n4\n")
        y = write(tmp_path / "y.csv", "x,y\n1,2\n3,4\n5,6\n7,8\n")
        with pytest.raises(InputDataError, match="at least 5 rows"):
            load_dataset(x, y)

    def test_labels_header_enforced(self, small_inputs, tmp_path):
        x, y, _ = small_inputs
        bad = write(tmp_path / "lab.csv", "tag\nu\nu\nv\nv\nv\n")
        with pytest.raises(InputDataError, match="header 'label'"):
            load_dataset(x, y, bad)

    def test_round_trip(self, tmp_path, iris_dataset):
        x2 = write_table(tmp_path / "x2.csv", iris_dataset.feature_names, iris_dataset.X)
        y2 = write_table(tmp_path / "y2.csv", ["x", "y"], iris_dataset.Y)
        l2 = write(tmp_path / "l2.csv", "label\n" + "\n".join(iris_dataset.labels) + "\n")
        again = load_dataset(x2, y2, l2)
        assert again.feature_names == iris_dataset.feature_names
        assert np.array_equal(again.X, iris_dataset.X)
        assert np.array_equal(again.Y, iris_dataset.Y)
        assert again.labels == iris_dataset.labels


def good_dataset_fields():
    rng = np.random.default_rng(0)
    return {"feature_names": ("a", "b", "c"), "X": rng.normal(size=(6, 3)),
            "Y": rng.normal(size=(6, 2)), "labels": None}


class TestDataset:
    """A Dataset checks itself when it is made, by hand or by ``dataclasses.replace``."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"X": np.array([[0.0, 1.0, np.nan]] * 6)}, "X contains NaN or infinite values"),
            ({"Y": np.array([[0.0, np.inf]] * 6)}, "Y contains NaN or infinite values"),
            ({"X": np.arange(6.0)}, "X must be 2-dimensional, got shape (6,)"),
            ({"Y": np.zeros((6, 3))}, "embedding must have 2 columns, got 3"),
            ({"Y": np.zeros((5, 2))}, "X has 6 rows but the embedding has 5"),
            ({"feature_names": ("a", "b")}, "got 2 feature names for 3 features"),
            ({"feature_names": ("a", "", "c")}, "feature name in column 2 is empty"),
            # once accepted: a clock's circles, keyed by name, lost the first 'a' sweep
            ({"feature_names": ("a", "a", "b")}, "duplicate feature name 'a'"),
            ({"labels": ("a",)}, "1 labels for 6 points"),
        ],
    )
    def test_bad_input_raises_from_either_constructor(self, change, message):
        fields = good_dataset_fields()
        good = Dataset(**fields)
        with pytest.raises(ComputationError, match=f"^{re.escape(message)}$"):
            Dataset(**{**fields, **change})
        with pytest.raises(ComputationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(good, **change)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_other_dtypes_are_stored_as_float64(self, dtype):
        fields = good_dataset_fields()
        x = np.arange(18).reshape(6, 3).astype(dtype)
        dataset = Dataset(**{**fields, "X": x, "feature_names": ["a", "b", "c"]})
        assert dataset.X.dtype == np.float64
        assert np.array_equal(dataset.X, x)
        assert dataset.feature_names == ("a", "b", "c")

    def test_only_owned_read_only_arrays_are_kept(self):
        fields = good_dataset_fields()
        x, y = fields["X"], fields["Y"][::-1]  # a writable array and a view
        dataset = Dataset(**{**fields, "Y": y})
        for given, stored in ((x, dataset.X), (y, dataset.Y)):
            assert stored is not given and np.array_equal(stored, given)
            assert given.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = np.nan
        frozen = Dataset(**fields)
        assert dataclasses.replace(frozen, labels=tuple("abcdef")).X is frozen.X
        x.flags.writeable = False
        assert Dataset(**fields).X is x

    def test_write_into_the_callers_array_changes_no_clock(self):
        # a NaN written after the check once reached the fit, which blamed an overflow
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        y = x[:, :2] + rng.normal(size=(50, 2))
        dataset = Dataset(("a", "b", "c"), x, y)
        before = build_global_clock(dataset, RunConfig())
        x[3, 1] = np.nan
        y[0, 0] = np.inf
        assert build_global_clock(dataset, RunConfig()) == before


def write_table(path, header, rows):
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    return write(path, "\n".join(lines) + "\n")


class TestBlockedReader:
    """Each numeric table is one np.loadtxt call; a refused table names its first fault."""

    @given(
        shape=st.tuples(st.integers(min_value=5, max_value=40), st.sampled_from([1, 2, 3, 9])),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_repr_round_trip_is_bit_identical(self, shape, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        X = data.draw(arrays(np.float64, shape, elements=finite))
        Y = data.draw(arrays(np.float64, (shape[0], 2), elements=finite))
        with tempfile.TemporaryDirectory() as tmp:
            names = [f"f{j}" for j in range(shape[1])]
            x = write_table(Path(tmp) / "x.csv", names, X)
            y = write_table(Path(tmp) / "y.csv", ["x", "y"], Y)
            dataset = load_dataset(x, y)
        assert dataset.X.tobytes() == X.tobytes()
        assert dataset.Y.tobytes() == Y.tobytes()

    # The ids are the names these cases have had since rows were converted in
    # blocks. The layouts now differ in the header: a quoted name across two
    # lines moves the first data line, but not the row numbers.
    @pytest.fixture(params=['a,"b\nb"', "a,b"], ids=["4-row-blocks", "one-block"])
    def header(self, request):
        return request.param

    def load_with_rows(self, tmp_path, header, changes):
        rows = [header] + ["1,2"] * 10
        for lineno, text in changes.items():
            rows[lineno] = text
        x = write(tmp_path / "x.csv", "\n".join(rows) + "\n")
        y = write(tmp_path / "y.csv", "x,y\n" + "0,0\n" * 10)
        return load_dataset(x, y)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({2: "1,zz", 3: "1,2,3"}, r"non-numeric value 'zz' at row 2, column 2$"),
            ({2: "1,2,3", 3: "1,zz"}, r"row 2 has 3 cells, expected 2$"),
            ({2: "1,inf", 3: "1,"}, r"non-finite value 'inf' at row 2, column 2$"),
            ({10: "1,oops"}, r"non-numeric value 'oops' at row 10, column 2$"),
            ({10: "1"}, r"row 10 has 1 cells, expected 2$"),
            ({i: "1,2,3" for i in range(1, 11)}, r"row 1 has 3 cells, expected 2$"),
            ({4: "1e400,2"}, r"non-finite value '1e400' at row 4, column 1$"),
            ({6: "1,   "}, r"missing value at row 6, column 2$"),
            ({7: "nan,2"}, r"non-finite value 'nan' at row 7, column 1$"),
        ],
    )
    def test_first_fault_is_reported(self, tmp_path, header, changes, message):
        with pytest.raises(InputDataError, match=message):
            self.load_with_rows(tmp_path, header, changes)

    def test_cells_parse_as_python_float(self, tmp_path, header):
        # plain ASCII floats, quoted or padded, read as float() reads them;
        # float() would also take 1_0 and non-ASCII digits, the reader does not
        dataset = self.load_with_rows(tmp_path, header, {1: '" 2.5 ",2.5', 2: '"3", 4 '})
        assert dataset.X[:2].tolist() == [[2.5, 2.5], [3.0, 4.0]]
        for cell in ("1_0", "\u0661\u0662", "\uff11"):
            with pytest.raises(InputDataError, match=f"non-numeric value '{cell}' at row 2, column 2$"):
                self.load_with_rows(tmp_path, header, {2: f"1, {cell} "})

    @pytest.mark.parametrize(
        "x_header, y_header", [('a,"b\nc"', "x,y"), ("a,b", 'x,"y\nz"')], ids=["x", "y"]
    )
    def test_quoted_header_may_span_lines(self, tmp_path, x_header, y_header):
        x = write(tmp_path / "x.csv", x_header + "\n" + "1,2\n3,4\n" * 3)
        y = write(tmp_path / "y.csv", y_header + "\n" + "5,6\n7,8\n" * 3)
        dataset = load_dataset(x, y)
        assert dataset.feature_names == tuple(x_header.replace('"', "").split(","))
        assert dataset.X.tolist() == [[1.0, 2.0], [3.0, 4.0]] * 3
        assert dataset.Y.tolist() == [[5.0, 6.0], [7.0, 8.0]] * 3

    @given(
        shape=st.tuples(st.integers(min_value=5, max_value=12), st.integers(min_value=1, max_value=9)),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_valid_tables_load_as_float_reads_each_cell(self, shape, data):
        finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
        text = st.builds(format, finite, st.sampled_from(["", ".1g", ".6g", ".17g", ".3e", ".0f", "E"]))
        wrap = st.sampled_from(["{}", '"{}"', " {} ", "\t{}  ", '" {}\t"'])
        lines = ["h" + ",h".join(map(str, range(shape[1])))]
        expected = []
        for _ in range(shape[0]):
            cells = [data.draw(text) for _ in range(shape[1])]
            expected.append([float(cell) for cell in cells])
            lines.append(",".join(data.draw(wrap).format(cell) for cell in cells))
            lines.extend([""] * data.draw(st.integers(0, 2)))
        endings = [data.draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
        with tempfile.TemporaryDirectory() as tmp:
            x = Path(tmp) / "x.csv"
            x.write_bytes("".join(line + end for line, end in zip(lines, endings)).encode())
            y = write_table(Path(tmp) / "y.csv", ["x", "y"], np.zeros((shape[0], 2)))
            dataset = load_dataset(x, y)
        assert dataset.X.tobytes() == np.array(expected).tobytes()

    @given(
        row=st.integers(min_value=1, max_value=6),
        column=st.integers(min_value=0, max_value=2),
        cell=st.text(alphabet="0123456789+-.e_\u0661\uff11 \t\"", max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_bad_cell_gives_the_reference_fault(self, row, column, cell):
        rows = [["a", "b", "c"]] + [["1", "-2.5", "3e2"] for _ in range(6)]
        rows[row][column] = cell
        with tempfile.TemporaryDirectory() as tmp:
            x = write(Path(tmp) / "x.csv", "".join(",".join(r) + "\n" for r in rows))
            y = write_table(Path(tmp) / "y.csv", ["x", "y"], np.zeros((6, 2)))
            expected = read_table_reference(x)
            if isinstance(expected, str):
                with pytest.raises(InputDataError) as caught:
                    load_dataset(x, y)
                assert str(caught.value) == expected
            else:
                assert load_dataset(x, y).X.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [1, 3])
    def test_loadtxt_arrays_are_stored_without_a_copy(self, tmp_path, monkeypatch, width):
        parse, parsed = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: parsed.append(parse(*args, **kwargs)) or parsed[-1])
        x = write_table(tmp_path / "x.csv", [f"f{j}" for j in range(width)], np.ones((5, width)))
        y = write_table(tmp_path / "y.csv", ["x", "y"], np.zeros((5, 2)))
        dataset = load_dataset(x, y)
        assert len(parsed) == 2 and dataset.X is parsed[0] and dataset.Y is parsed[1]
        with pytest.raises(ValueError, match="read-only"):
            dataset.X[0, 0] = 2.0

    def test_memory_stays_near_the_matrix(self, tmp_path, monkeypatch):
        # np.loadtxt's own parse sets the peak (1.13x measured); after it the
        # finiteness check adds nothing of the table's size (a bool mask would
        # add 0.125x: 1.125x measured with one)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20_000, 50))
        x = write_table(tmp_path / "x.csv", [f"f{j}" for j in range(50)], X)
        y = write_table(tmp_path / "y.csv", ["x", "y"], X[:, :2])
        tracemalloc.start()
        try:
            dataset = load_dataset(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(dataset.X, X)
        assert peak < 1.2 * X.nbytes

        parse = np.loadtxt

        def parse_then_reset_peak(*args, **kwargs):
            values = parse(*args, **kwargs)
            tracemalloc.reset_peak()
            return values

        monkeypatch.setattr(np, "loadtxt", parse_then_reset_peak)
        tracemalloc.start()
        try:
            _, values = _read_table(x)
            _, after_parse = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, X)
        assert after_parse < 1.03 * X.nbytes


class TestFileEncoding:
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        bom = "\ufeff"
        x = write(tmp_path / "x.csv", bom + "a,b\n" + "1,2\n" * 5)
        y = write(tmp_path / "y.csv", bom + "x,y\n" + "1,2\n" * 5)
        labels = write(tmp_path / "labels.csv", bom + "label\n" + "u\n" * 5)
        dataset = load_dataset(x, y, labels)
        assert dataset.feature_names == ("a", "b")
        assert dataset.labels == ("u",) * 5

    def test_undecodable_bytes_name_the_file(self, small_inputs, tmp_path):
        x, y, _ = small_inputs
        bad = tmp_path / "labels.csv"
        bad.write_bytes(b"label\nu\nu\n\xff\xfe\nv\nv\n")
        with pytest.raises(InputDataError, match=r"labels\.csv: 'utf-8' codec can't decode"):
            load_dataset(x, y, bad)


# One value per RunConfig field that the field's rule rejects, and the text it raises.
REJECTED = {
    "alpha": (7.0, "alpha must be in (0, 1], got 7.0"),
    "top_k": (0, "top_k must be at least 1, got 0"),
    "standardize_x": ("no", "standardize_x must be True or False, got 'no'"),
    "clock_scale": (0, "scale must be positive, got 0.0"),
    "significance_rule": ("joint", "significance rule must be 'or' or 'and', got 'joint'"),
    "circles": (1, "circles must be True or False, got 1"),
    "seed": (-1, "seed must be non-negative, got -1"),
    "cluster_method": ("Optics", "cluster method must be 'kmeans' or 'dbscan', got 'optics'"),
    "cluster_k": (2.5, "k must be an integer, got 2.5"),
    "cluster_eps": (float("nan"), "eps must be a finite number, got nan"),
    "cluster_min_pts": ("five", "min_pts must be an integer, got 'five'"),
    "cluster_on": ("z", "cluster space must be 'x' or 'y', got 'z'"),
    "canvas": ((900, 100), "canvas sides must exceed 100 px, twice the margin, got 900x100"),
}

# Valid values of every field, in the forms the rules accept: whole floats and
# integer strings for counts, any case for the named choices. DBSCAN without a
# positive eps is the one invalid combination.
VALID_VALUES = {
    "alpha": st.one_of(st.floats(1e-12, 1.0), st.sampled_from(["0.1", 1])),
    "top_k": st.one_of(st.none(), st.integers(1, 50), st.sampled_from([2.0, "3"])),
    "standardize_x": st.booleans(),
    "clock_scale": st.one_of(st.floats(1e-6, 1e6), st.sampled_from(["2", 3])),
    "significance_rule": st.sampled_from(["or", "and", "AND", "Or"]),
    "circles": st.booleans(),
    "seed": st.one_of(st.integers(0, 2**40), st.sampled_from([1.0, "7"])),
    "cluster_method": st.sampled_from([None, "kmeans", "KMeans", "dbscan"]),
    "cluster_k": st.one_of(st.integers(1, 20), st.sampled_from([4.0, "2"])),
    "cluster_eps": st.one_of(st.none(), st.floats(1e-6, 10.0), st.just("0.5")),
    "cluster_min_pts": st.one_of(st.integers(1, 20), st.just(5.0)),
    "cluster_on": st.sampled_from(["x", "y", "X", "Y"]),
    "canvas": st.tuples(st.integers(101, 5000), st.one_of(st.integers(101, 5000), st.sampled_from([600.0, "300"]))),
}

# Every field drawn from its valid values, from invalid ones (out of range,
# non-finite, fractional, unknown choices, wrong types), strings, whole floats and None.
_ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 2000),
    st.integers(-5, 2000).map(float),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["nan", "inf", "1e400", "-1", "0", "3", "2.5", "and", "dbscan", "y", (900, 600)]),
)
OPTION_VALUES = {name: st.one_of(values, _ANY) for name, values in VALID_VALUES.items()}
OPTION_VALUES["canvas"] = st.one_of(OPTION_VALUES["canvas"], st.tuples(_ANY, _ANY), st.lists(_ANY, max_size=3))


class TestValidateConfig:
    def test_defaults(self):
        config = validate_config({})
        assert config.alpha == 0.05
        assert config.standardize_x is True
        assert config.significance_rule == "or"
        assert config.top_k is None
        assert config.clock_scale == 1.0
        assert config.seed == 0
        assert config.circles is False
        assert config.canvas == (900, 600)

    def test_alpha_above_one_rejected(self):
        with pytest.raises(InputDataError, match="alpha"):
            validate_config({"alpha": 1.5})

    def test_alpha_zero_rejected(self):
        with pytest.raises(InputDataError, match="alpha"):
            validate_config({"alpha": 0.0})

    def test_top_k_zero_rejected(self):
        with pytest.raises(InputDataError, match="top_k"):
            validate_config({"top_k": 0})

    def test_unknown_option_rejected(self):
        with pytest.raises(InputDataError, match="unknown options"):
            validate_config({"gamma": 1.0})

    def test_significance_rule_checked(self):
        with pytest.raises(InputDataError, match="significance rule"):
            validate_config({"significance_rule": "xor"})
        assert validate_config({"significance_rule": "and"}).significance_rule == "and"

    def test_dbscan_requires_eps(self):
        with pytest.raises(InputDataError, match="eps"):
            validate_config({"cluster_method": "dbscan"})

    def test_scale_positive(self):
        with pytest.raises(InputDataError, match="scale"):
            validate_config({"clock_scale": -1.0})

    @pytest.mark.parametrize("anchor", [(0.0, float("inf")), (float("nan"), 0.0)])
    def test_non_finite_anchor_rejected(self, anchor):
        # a clock sits at its members' centroid; no option moves it
        with pytest.raises(InputDataError, match="^unknown options: anchor$"):
            validate_config({"anchor": anchor})

    @pytest.mark.parametrize(
        "options",
        [{"center_y": False}, {"anchor": (0.0, 0.0)}, {"standardize_betas": True}, {"theta_step_deg": 5}],
    )
    def test_removed_options_are_unknown(self, options):
        # Y is always centered, every clock sits at its members' centroid, the
        # default standardize_x already reports standardized coefficients, and
        # --circles draws each feature's exact circle instead of sampling it
        with pytest.raises(InputDataError, match=f"^unknown options: {next(iter(options))}$"):
            validate_config(options)

    def test_infinite_canvas_side_rejected(self):
        # the CLI test covers an integer side too large for a float
        with pytest.raises(InputDataError, match="^canvas sides must be finite numbers, got 900xinf$"):
            validate_config({"canvas": (900, float("inf"))})

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"top_k": 2.7}, "top_k"),  # once truncated to 2
            ({"top_k": "2.7"}, "top_k"),  # once a bare ValueError
            ({"seed": 1.5}, "seed"),
            ({"cluster_k": 2.5}, "cluster_k"),
            ({"cluster_method": "dbscan", "cluster_eps": 0.5, "cluster_min_pts": 0.5}, "cluster_min_pts"),
            ({"top_k": float("inf")}, "top_k"),
            ({"seed": float("nan")}, "seed"),
        ],
    )
    def test_non_integral_integer_option_rejected(self, options, name):
        value = options[name]
        shown = {"cluster_k": "k", "cluster_min_pts": "min_pts"}.get(name, name)  # as --cluster names them
        with pytest.raises(InputDataError, match=f"^{shown} must be an integer, got {re.escape(repr(value))}$"):
            validate_config(options)

    @pytest.mark.parametrize("canvas", [(900, 600, 5), "900x600", (900,), 900])
    def test_canvas_must_be_a_pair(self, canvas):
        # a string was once read as its first two characters: "900x600" as 9x0
        message = f"canvas must be a (width, height) pair, got {canvas!r}"
        with pytest.raises(InputDataError, match=f"^{re.escape(message)}$"):
            RunConfig(canvas=canvas)

    def test_fractional_canvas_side_rejected(self):
        # a side given as text was once read as no pair at all
        for canvas in ((900.5, 600), ("900.5", "600")):
            with pytest.raises(InputDataError, match="^canvas sides must be integers, got 900.5x600$"):
                validate_config({"canvas": canvas})

    @pytest.mark.parametrize(
        "key, name",
        [("alpha", "alpha"), ("clock_scale", "scale"), ("cluster_eps", "eps")],
    )
    def test_non_numeric_number_option_rejected(self, key, name):
        with pytest.raises(InputDataError, match=f"^{name} must be a finite number, got 'abc'$"):
            validate_config({key: "abc"})

    def test_whole_values_accepted_as_before(self):
        config = validate_config({"top_k": 2.0, "seed": "3", "cluster_k": np.int64(4),
                                  "cluster_min_pts": 7.0, "canvas": (900.0, "600"), "alpha": "0.1"})
        assert (config.top_k, config.seed, config.cluster_k, config.cluster_min_pts) == (2, 3, 4, 7)
        assert config.canvas == (900, 600)
        assert config.alpha == 0.1
        assert all(type(v) is int for v in (config.top_k, config.seed, config.cluster_k, *config.canvas))

    def test_run_config_direct_construction_rejects_alpha_zero(self):
        # a RunConfig made in code, or by dataclasses.replace, obeys validate_config's rules
        message = re.escape("alpha must be in (0, 1], got 0.0")
        with pytest.raises(InputDataError, match=message):
            RunConfig(alpha=0.0)
        with pytest.raises(InputDataError, match=message):
            dataclasses.replace(RunConfig(), alpha=0.0)

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_value(self, name):
        value, message = REJECTED[name]
        for make in (lambda: RunConfig(**{name: value}), lambda: validate_config({name: value})):
            with pytest.raises(InputDataError, match=f"^{re.escape(message)}$"):
                make()

    def test_every_field_has_a_rejected_value(self):
        # a field added later gets a rule, and an entry here, in the same change
        assert set(REJECTED) == {field.name for field in dataclasses.fields(RunConfig)}

    @settings(max_examples=400, deadline=None)
    @given(st.fixed_dictionaries({}, optional=OPTION_VALUES))
    def test_validate_config_is_run_config(self, options):
        def outcome(make):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = make()
                except InputDataError as exc:
                    result = f"InputDataError: {exc}"
            return result, [str(item.message) for item in caught]

        direct = {key: value for key, value in options.items() if value is not None}
        assert outcome(lambda: validate_config(options)) == outcome(lambda: RunConfig(**direct))

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({}, optional=VALID_VALUES))
    def test_rebuilt_config_is_equal(self, options):
        try:
            config = RunConfig(**options)
        except InputDataError:
            assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert RunConfig(**dataclasses.asdict(config)) == config
            assert dataclasses.replace(config) == config
