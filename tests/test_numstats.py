import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from featureclock import (
    ClockWarning,
    ComputationError,
    GroupTooSmallError,
    RankDeficientError,
    build_clock,
)
from featureclock import numstats
from featureclock.numstats import (
    as_matrix,
    center_columns,
    column_stats,
    distinct,
    fill,
    fit_design,
    normal_two_sided_p,
    ols_fit,
    qr_r_in_place,
    r_factor,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)

from oracles import (
    array_design,
    fit_design_reference,
    make_dataset,
    normal_equations_fit,
    ols_fit_reference,
    pca_2d,
    simpson_t_two_sided,
    standardize_reference,
    target_fit,
)


def design_of(x, names=None):
    """``(kept, design)`` of ``fit_design`` over every row of ``x``, with no targets, as one array."""
    x = np.asarray(x, dtype=float)
    names = names or [f"f{j}" for j in range(x.shape[1])]
    design = fit_design(x, np.arange(len(x)), np.empty((len(x), 0)), names, "test")
    out = np.empty(design.shape, order="F")
    fill(design, out)
    return design.kept, out


class TestStandardize:
    def test_symmetric_column(self):
        _, z = design_of([[1.0], [2.0], [3.0]])
        assert np.allclose(z[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_is_flagged(self):
        with pytest.warns(ClockWarning, match="test: dropping zero-variance features: c$"):
            kept, z = design_of([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], ["c", "v"])
        assert kept == [1]
        assert np.allclose(z[:, 0], [-1.0, 0.0, 1.0])
        with pytest.raises(GroupTooSmallError, match="test: every feature is constant"):
            design_of([[5.0], [5.0], [5.0]])

    def test_random_moments_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(loc=3.0, scale=2.5, size=(50, 4))
        _, z = design_of(x)
        for j in range(4):
            col = z[:, j].tolist()
            mean = math.fsum(col) / 50
            var = math.fsum((v - mean) ** 2 for v in col) / 49
            assert abs(mean) < 1e-12
            assert abs(math.sqrt(var) - 1.0) < 1e-12

    def test_needs_two_rows(self):
        # A sample std needs two rows: clocks reject smaller groups before any design is built.
        for rows in ([0], [0, 1]):
            with pytest.raises(GroupTooSmallError):
                build_clock(make_dataset(np.eye(3), np.eye(3)[:, :2]), rows)

    @pytest.mark.parametrize("scale", [1e-150, 1e-13, 1.0, 1e150])
    def test_cutoff_follows_column_scale(self, scale):
        kept, z = design_of(np.array([[1.0], [2.0], [3.0]]) * scale)
        assert kept == [0]  # not flagged as constant
        assert np.allclose(z[:, 0], [-1.0, 0.0, 1.0])

    def test_rounding_noise_on_large_offset_is_constant(self):
        rng = np.random.default_rng(19)
        column = 1e9 + 1e-7 * rng.normal(size=(50, 1))
        with pytest.warns(ClockWarning, match="dropping zero-variance features: f0$"):
            kept, _ = design_of(np.column_stack([column, rng.normal(size=50)]))
        assert kept == [1]  # dropped, not blown up to unit variance


class TestDistinct:
    @given(st.lists(st.integers(-5, 5), max_size=50))
    @example([])  # the DBSCAN frontier is empty at the end of every cluster
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_unique(self, values):
        a = np.array(values, dtype=np.int64)
        got = distinct(np.sort(a))
        assert got.dtype == a.dtype
        assert np.array_equal(got, np.unique(a))


class TestAsMatrix:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (2, 1), (4, 2)])
    def test_non_finite_cell_rejected(self, bad, cell):
        # the first, a middle and the last cell of a 5 x 3 matrix
        m = np.arange(15.0).reshape(5, 3)
        m[cell] = bad
        with pytest.raises(ComputationError, match="^m contains NaN or infinite values$"):
            as_matrix(m, name="m")

    def test_finite_extremes_accepted(self):
        m = np.array([[np.finfo(float).max, -np.finfo(float).max], [5e-324, -0.0]])
        assert as_matrix(m) is m


class TestCenter:
    def test_two_rows(self):
        out = center_columns([[2.0], [4.0]])
        assert np.allclose(out, [[-1.0], [1.0]])

    def test_already_centered_unchanged(self):
        x = np.array([[1.0, -2.0], [-1.0, 2.0]])
        assert np.allclose(center_columns(x), x, atol=1e-12)

    def test_random_column_sums(self):
        rng = np.random.default_rng(11)
        out = center_columns(rng.normal(loc=100.0, size=(30, 2)))
        for j in range(2):
            assert abs(math.fsum(out[:, j].tolist())) < 1e-9


class TestOlsFit:
    def test_exact_fit_single_column(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=12)
        fit = target_fit(ols_fit(array_design(y[:, None], y)), 0)
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
        assert fit.p_values[0] == 0.0

    def test_zero_target(self):
        rng = np.random.default_rng(4)
        fit = target_fit(ols_fit(array_design(rng.normal(size=(15, 3)), np.zeros(15))), 0)
        assert np.allclose(fit.coefficients, 0.0)
        assert np.allclose(fit.t_stats, 0.0)
        assert np.allclose(fit.p_values, 1.0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 3))
        y = x @ np.array([0.5, -1.0, 2.0]) + rng.normal(size=20)
        fit = target_fit(ols_fit(array_design(x, y)), 0)
        beta, se, p = normal_equations_fit(x, y)
        assert np.max(np.abs(fit.coefficients - beta)) < 1e-8
        assert np.max(np.abs(fit.std_errors - se)) < 1e-8
        assert np.max(np.abs(fit.p_values - p)) < 1e-9

    def test_insufficient_observations(self):
        with pytest.raises(GroupTooSmallError) as info:
            ols_fit(array_design(np.eye(4), np.ones(4)))
        assert str(info.value) == "design too small for clock: 4 points for 4 features (need at least 6)"

    def test_rank_deficient_names_columns(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 2))
        x = np.column_stack([x, x[:, 0] + x[:, 1]])
        for target in (rng.normal(size=(20, 1)), rng.normal(size=(20, 2))):
            with pytest.raises(RankDeficientError) as info:
                ols_fit(array_design(x, target))
            assert str(info.value) == "design: features are linear combinations of the others: f2"
            assert len(info.value.columns) == 1

    def test_rank_deficiency_names_the_later_column(self):
        # v = 10 * (x1 - x0): the column named is the one that is a
        # combination of the columns before it in file order.
        rng = np.random.default_rng(11)
        u, v, w = rng.normal(size=(3, 30))
        x = standardize_reference(np.column_stack([u, u + 0.1 * v, v, w]))
        with pytest.raises(RankDeficientError) as info:
            ols_fit(array_design(x, rng.normal(size=30)))
        assert str(info.value) == "design: features are linear combinations of the others: f2"
        assert info.value.columns == (2,)

    def test_errors_name_the_design(self):
        # a hand-built Design names its fit and features in the size and rank errors
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 2))
        x = np.column_stack([x, 2.0 * x[:, 0]])
        names = ["u", "v", "two_u"]
        with pytest.raises(GroupTooSmallError) as info:
            ols_fit(array_design(x[:4], rng.normal(size=4), names, "group 'g'"))
        assert str(info.value) == "group 'g' too small for clock: 4 points for 3 features (need at least 5)"
        with pytest.raises(RankDeficientError) as info:
            ols_fit(array_design(x, rng.normal(size=6), names, "group 'g'"))
        assert str(info.value) == "group 'g': features are linear combinations of the others: two_u"
        assert info.value.columns == (2,)

    @given(
        d=st.integers(min_value=2, max_value=12),
        n_extra=st.integers(min_value=0, max_value=30),
        planted=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_rule_on_planted_dependencies(self, d, n_extra, planted, seed):
        rng = np.random.default_rng(seed)
        n = d + 2 + n_extra
        x = rng.normal(size=(n, d))
        for p in rng.choice(np.arange(1, d), size=min(planted, d - 1), replace=False):
            coef = rng.uniform(0.5, 2.0, size=p) * rng.choice([-1.0, 1.0], size=p)
            coef[rng.random(p) < 0.4] = 0.0
            coef[rng.integers(p)] = 1.0  # never the zero column
            x[:, p] = x[:, :p] @ coef
        x *= 10.0 ** rng.uniform(-100.0, 100.0, size=d)
        # The oracles see unit columns, and count singular values above the
        # same 1e-8 that bounds a named column's distance from the span.
        unit = x / np.linalg.norm(x, axis=0)
        try:
            ols_fit(array_design(x, rng.normal(size=n)))
            named = []
        except RankDeficientError as exc:
            named = list(exc.columns)
        assert len(named) == d - np.linalg.matrix_rank(unit, tol=1e-8)
        for k in named:
            coef = np.linalg.lstsq(unit[:, :k], unit[:, k], rcond=None)[0]
            assert np.linalg.norm(unit[:, :k] @ coef - unit[:, k]) <= 1e-8
        rest = [k for k in range(d) if k not in named]
        assert np.linalg.matrix_rank(unit[:, rest], tol=1e-8) == len(rest)

    def test_orthonormal_columns_closed_form(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(25, 4)))
        y = rng.normal(size=25)
        fit = target_fit(ols_fit(array_design(q, y)), 0)
        assert np.max(np.abs(fit.coefficients - q.T @ y)) < 1e-10

    def test_dof_is_n_minus_d_minus_1(self):
        rng = np.random.default_rng(9)
        fit = target_fit(ols_fit(array_design(rng.normal(size=(20, 3)), rng.normal(size=20))), 0)
        assert fit.dof == 16

    @given(
        n_extra=st.integers(min_value=0, max_value=40),
        d=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_targets_match_lstsq_and_single_fits(self, n_extra, d, seed):
        rng = np.random.default_rng(seed)
        n = d + 2 + n_extra  # n_extra = 0 is the smallest n the fit accepts
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=(d, 2)) + rng.normal(size=(n, 2))
        pair = ols_fit(array_design(x, y))
        assert pair.coefficients.shape == (d, 2)
        reference, *_ = np.linalg.lstsq(x, y, rcond=None)
        for j in range(2):
            fit = target_fit(pair, j)
            single = target_fit(ols_fit(array_design(x, y[:, j])), 0)
            scale = 1.0 + np.max(np.abs(reference[:, j]))
            assert np.max(np.abs(fit.coefficients - reference[:, j])) < 1e-9 * scale
            assert np.max(np.abs(fit.coefficients - single.coefficients)) < 1e-12 * scale
            assert np.allclose(fit.std_errors, single.std_errors, rtol=1e-9, atol=0)
            assert np.allclose(fit.p_values, single.p_values, rtol=1e-7, atol=1e-12)
            assert fit.dof == single.dof == n - d - 1
            assert fit.residual_variance == pytest.approx(single.residual_variance, rel=1e-9)

    @given(
        d=st.integers(min_value=1, max_value=6),
        n_extra=st.integers(min_value=0, max_value=30),
        kinds=st.lists(st.sampled_from(["exact", "zero", "noisy"]), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    @example(d=3, n_extra=5, kinds=["exact", "noisy"], seed=0)
    @example(d=3, n_extra=5, kinds=["noisy", "exact"], seed=1)
    @example(d=2, n_extra=0, kinds=["zero", "noisy"], seed=2)
    @example(d=4, n_extra=10, kinds=["exact", "zero", "noisy"], seed=3)
    def test_record_equals_the_per_target_loop(self, d, n_extra, kinds, seed):
        # One block, so R is one QR of the whole [X | Y], as the reference's.
        # An exact target has some zero coefficients (idle features, p = 1)
        # beside planted ones (p = 0); beside a noisy target, a mask or a
        # tail applied across both columns would change one of them.
        rng = np.random.default_rng(seed)
        n = d + 2 + n_extra
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-50.0, 50.0, size=d)
        columns = []
        for kind in kinds:
            if kind == "exact":
                coef = rng.normal(size=d) * (rng.random(d) < 0.6)
                columns.append(x @ coef)
            elif kind == "zero":
                columns.append(np.zeros(n))
            else:
                columns.append(rng.normal(size=n) * 10.0 ** rng.uniform(-50.0, 50.0))
        y = np.column_stack(columns)
        assert n <= numstats._block_rows(d + y.shape[1])
        fit = ols_fit(array_design(x, y))
        expected = ols_fit_reference(x, y)
        assert fit.coefficients.shape == (d, len(kinds))
        for j, reference in enumerate(expected):
            column = target_fit(fit, j)
            if kinds[j] != "noisy":  # fitted exactly: each p-value says idle (1) or not (0)
                assert set(column.p_values.tolist()) <= {0.0, 1.0}
            for field in dataclasses.fields(reference):
                assert np.array_equal(getattr(column, field.name), getattr(reference, field.name)), field.name

    def test_scaling_cancels_through_standardization(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        yc = y - y.mean()

        def coefs(matrix):
            z = standardize_reference(matrix)
            return ols_fit(array_design(z, yc)).coefficients[:, 0]

        scaled = x.copy()
        scaled[:, 1] *= 37.5
        assert np.max(np.abs(coefs(x) - coefs(scaled))) < 1e-12


class TestInPlace:
    """The QR runs in its caller's buffer, and it and the column statistics equal numpy's own bit for bit."""

    @given(
        d=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=0, max_value=3),
        n_extra=st.integers(min_value=0, max_value=40),
        dropped=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @example(d=3, k=0, n_extra=0, dropped=0, seed=0)
    @example(d=3, k=2, n_extra=0, dropped=2, seed=1)
    @example(d=200, k=2, n_extra=198, dropped=3, seed=14)
    def test_r_equals_numpy_qr(self, d, k, n_extra, dropped, seed):
        # n_extra = 0 is n = d + 2, the smallest n a fit accepts (k = 3 makes
        # the matrix wider than tall); the factored columns are the leading
        # slice of a wider F-ordered buffer, whose other columns must stay
        # as they were. Past 128 columns LAPACK factors in
        # blocks whose width follows the workspace size, so only the
        # workspace LAPACK asks for gives np.linalg.qr's rounding.
        rng = np.random.default_rng(seed)
        n, m = d + 2 + n_extra, d + k
        a = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-100.0, 100.0, size=m)
        buffer = np.empty((n, m + dropped), order="F")
        buffer[:, :m] = a
        beyond = rng.normal(size=(n, dropped))
        buffer[:, m:] = beyond
        view = buffer[:, :m]
        expected = np.linalg.qr(a, mode="r")
        r = qr_r_in_place(view)
        assert r.shape == expected.shape == (min(n, m), m)
        assert np.array_equal(r, expected)
        assert np.array_equal(np.triu(view[: min(n, m)]), expected)  # R stays in the buffer
        assert np.array_equal(buffer[:, m:], beyond)  # the columns beyond the slice are untouched

    @given(
        n=st.integers(min_value=2, max_value=300),
        d=st.integers(min_value=1, max_value=9),
        cells=st.sampled_from([1, 7, 300, numstats._BLOCK_CELLS]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_column_block_std_equals_numpy(self, n, d, cells, seed):
        rng = np.random.default_rng(seed)
        buffer = np.empty((n, d + 2), order="F")
        buffer[:, :d] = rng.normal(loc=rng.uniform(-5.0, 5.0, size=d), size=(n, d))
        buffer[:, :d] *= 10.0 ** rng.uniform(-100.0, 100.0, size=d)
        rows = rng.permutation(n)  # gathered in any order, as on an edge
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numstats, "_BLOCK_CELLS", cells)
            m1, m2, std, peak = column_stats(buffer[:, :d], rows)
        x = np.asfortranarray(buffer[rows, :d])
        assert np.array_equal(std, x.std(axis=0, ddof=1))
        assert np.array_equal(m1, x.mean(axis=0))
        assert np.array_equal(m2, (x - m1).mean(axis=0))
        assert np.array_equal(peak, np.abs(x).max(axis=0))

    def test_ols_fit_leaves_its_argument_untouched(self):
        # a Design over C-ordered, F-ordered and read-only x and targets is
        # read a row block at a time, leaves both as they were, and gives
        # the same fits from each layout
        rng = np.random.default_rng(12)
        x = rng.normal(loc=3.0, size=(30, 3))
        targets = center_columns(rng.normal(size=(30, 2)))
        rows = rng.permutation(30)

        def read_only(a):
            a = np.array(a, order="F")
            a.flags.writeable = False
            return a

        runs = []
        for layout in (lambda a: np.array(a, order="C"), lambda a: np.array(a, order="F"), read_only):
            design = fit_design(layout(x), rows, layout(targets), ["a", "b", "c"], "test")
            runs.append(ols_fit(design))
            assert np.array_equal(design.x, x)
            assert np.array_equal(design.targets, targets)
        for fit in runs[1:]:
            for field in dataclasses.fields(fit):
                assert np.array_equal(getattr(fit, field.name), getattr(runs[0], field.name))


class TestRowBlocks:
    """R accumulated over row blocks (a tall-skinny QR) agrees with one QR of the whole matrix."""

    @given(
        n=st.integers(min_value=12, max_value=150),
        d=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=1, max_value=2),
        constant=st.booleans(),
        cells=st.sampled_from([1, 400, numstats._BLOCK_CELLS]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_one_qr_and_the_reference_fits(self, n, d, k, constant, cells, seed):
        # A budget of 1 cell makes blocks of the fewest rows (3m), 400 cells
        # blocks of up to 400 // m rows, and the default one block. Features carry offsets of 1e6
        # and scales from 1e-6 to 1e6, and one may be constant; the fit
        # factors their standardized design, whatever the budget.
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, d))
        x = z * 10.0 ** rng.uniform(-6.0, 6.0, size=d) + np.where(rng.random(d) < 0.5, 1e6, 0.0)
        if constant:
            x = np.insert(x, int(rng.integers(0, d + 1)), 1e6, axis=1)
        rows = np.arange(n)
        targets = center_columns(z @ rng.normal(size=(d, k)) + rng.normal(size=(n, k)))
        names = [f"f{j}" for j in range(x.shape[1])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClockWarning)
            design = fit_design(x, rows, targets, names, "test")
        kept, whole = fit_design_reference(x, rows, targets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numstats, "_BLOCK_CELLS", cells)
            r = r_factor(design)
            fits = ols_fit(design)

        expected_r = np.linalg.qr(whole, mode="r")
        signs = np.sign(np.diagonal(r)) * np.sign(np.diagonal(expected_r))
        # up to 7.5 eps * ||A|| measured over 6000 such matrices in blocks of m and of 60 // m rows
        eps = np.finfo(float).eps
        assert np.abs(r * signs[:, None] - expected_r).max() <= 32 * eps * np.linalg.norm(whole)

        m = len(kept)
        assert fits.coefficients.shape == (m, k)
        for j, expected in enumerate(ols_fit_reference(whole[:, :m], whole[:, m:])):
            fit = target_fit(fits, j)
            scale = 1.0 + np.max(np.abs(expected.coefficients))
            assert np.max(np.abs(fit.coefficients - expected.coefficients)) < 1e-9 * scale
            assert np.allclose(fit.std_errors, expected.std_errors, rtol=1e-9, atol=0)
            assert np.allclose(fit.p_values, expected.p_values, rtol=1e-7, atol=1e-12)
            assert fit.dof == expected.dof == n - m - 1
            assert fit.residual_variance == pytest.approx(expected.residual_variance, rel=1e-9)

    @given(
        n=st.integers(min_value=1, max_value=200),
        m=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_block_is_the_qr_of_the_whole_buffer(self, n, m, seed):
        # at the default budget these shapes are one block: the same dgeqrf
        # on the same F-ordered buffer, so R is equal bit for bit
        assert n <= numstats._block_rows(m)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-100.0, 100.0, size=m)
        expected = qr_r_in_place(a.copy(order="F"))
        assert np.array_equal(r_factor(array_design(a)), expected)
        assert np.array_equal(expected, np.linalg.qr(a, mode="r"))


class TestStudentT:
    def test_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 7) == pytest.approx(1.0)

    @given(
        t=st.floats(-50, 50, allow_nan=False),
        dof=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, t, dof):
        assert student_t_two_sided_p(t, dof) == pytest.approx(
            student_t_two_sided_p(-t, dof), abs=1e-15
        )

    def test_simpson_oracle(self):
        assert student_t_two_sided_p(2.0, 10) == pytest.approx(
            simpson_t_two_sided(2.0, 10), abs=1e-8
        )

    @given(dof=st.integers(min_value=1, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_t(self, dof):
        grid = [0.0, 0.3, 0.8, 1.5, 2.5, 4.0, 7.0]
        values = [student_t_two_sided_p(t, dof) for t in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_large_dof_normal_limit(self):
        # The true max gap to the normal tail over |t| <= 4 is ~3.16e-3 at
        # dof=100 (t ~ 1.55) and shrinks like 1/dof; 2e-3 holds from ~160 on.
        grid = np.linspace(0.0, 4.0, 81)
        for t in grid:
            assert student_t_two_sided_p(float(t), 100) == pytest.approx(
                normal_two_sided_p(float(t)), abs=3.2e-3
            )
        for dof in (160, 200, 500, 1000):
            for t in grid:
                assert student_t_two_sided_p(float(t), dof) == pytest.approx(
                    normal_two_sided_p(float(t)), abs=2e-3
                )

    def test_invalid_dof(self):
        with pytest.raises(ComputationError):
            student_t_two_sided_p(1.0, 0)


class TestIncompleteBeta:
    @given(
        a=st.floats(0.5, 60.0),
        b=st.floats(0.5, 60.0),
        x=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded(self, a, b, x):
        value = regularized_incomplete_beta(a, b, x)
        assert 0.0 <= value <= 1.0

    @given(a=st.floats(0.5, 30.0), b=st.floats(0.5, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_x(self, a, b):
        grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        values = [regularized_incomplete_beta(a, b, x) for x in grid]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))

    def test_complement_symmetry(self):
        for a, b, x in ((2.0, 3.0, 0.3), (0.5, 5.0, 0.9), (7.5, 0.5, 0.02)):
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPca2d:
    def test_data_on_x_axis(self):
        rng = np.random.default_rng(12)
        x = np.column_stack([rng.normal(size=20), np.zeros(20)])
        model = pca_2d(x)
        assert np.allclose(model.components[0], [1.0, 0.0], atol=1e-12)

    def test_isotropic_variances_close(self):
        rng = np.random.default_rng(13)
        model = pca_2d(rng.normal(size=(2000, 2)))
        v1, v2 = model.explained_variance
        assert v1 / v2 < 1.25

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(50, 5))
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / 49
        model = pca_2d(x)
        for vec, val in zip(model.components, model.explained_variance):
            assert np.linalg.norm(cov @ vec - val * vec) < 1e-9

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(40, 4))
        perm = rng.permutation(40)
        a = pca_2d(x)
        b = pca_2d(x[perm])
        assert np.max(np.abs(a.components - b.components)) < 1e-9

    def test_components_orthonormal(self):
        rng = np.random.default_rng(16)
        model = pca_2d(rng.normal(size=(60, 6)))
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        model = pca_2d(rng.normal(size=(30, 3)))
        for row in model.components:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            pca_2d(np.ones((10, 1)))

    def test_transform_centers_scores(self):
        rng = np.random.default_rng(18)
        x = rng.normal(loc=5.0, size=(30, 3))
        scores = pca_2d(x).transform(x)
        assert np.max(np.abs(scores.mean(axis=0))) < 1e-12
