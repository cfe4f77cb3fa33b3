"""Self-contained numerical kernel used by the clock builders.

Ordinary least squares with classical t-tests, the column statistics and
standardization that build a fit's design, and Student-t tail probabilities.
Both fits (ols_fit and ``intergroup.logistic_fit``) read a :class:`Design`,
built by :func:`fit_design`, and nothing else. The Design carries its
feature names and a ``where`` label, so :func:`fit_size` and
:func:`check_rank` raise errors that name the group or edge and its
features. No routine caches or shares state. Three routines write to an
argument: standardize_columns (in place, one block of rows at a time),
qr_r_in_place (the factorization, in a scratch buffer that r_factor owns)
and fill (a design's rows, into a buffer its caller owns). ols_fit leaves
its design's arrays as they were.

The kernel is not part of the package's contract, which is the pipeline that
``featureclock`` exports. Its inputs come from a Dataset, which has checked
them, so center_columns reads its array unchecked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# numpy lists lapack_lite among its "private but present" modules; it has
# been there since numpy 1.x. Its dgeqrf is the LAPACK routine behind
# np.linalg.qr, called here on the caller's buffer instead of on the two
# copies np.linalg.qr makes; a test pins its R to np.linalg.qr's bit for bit.
from numpy.linalg import lapack_lite

from .errors import ClockWarning, ComputationError, GroupTooSmallError, RankDeficientError

# Rounding noise relative to the magnitude of the numbers it comes from. Every
# "is this zero?" decision goes through :func:`negligible` with this ratio, so
# each one is relative to its own data and survives any rescaling of it.
NOISE_RATIO = 64.0 * float(np.finfo(float).eps)

# Relative tolerance for the numerical rank of a design matrix.
RANK_TOL = 1e-10

# Cells held at once while a matrix is read in blocks (512 KiB of float64):
# column_stats gathers blocks of max(1, _BLOCK_CELLS // n) whole columns of
# n rows, and r_factor and fill write blocks of _block_rows(m) rows of an
# m-column matrix.
_BLOCK_CELLS = 2**16

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 300


def negligible(spread, magnitude):
    """True where ``spread`` is rounding noise next to ``magnitude``."""
    return np.asarray(spread) <= NOISE_RATIO * np.asarray(magnitude)


def distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending 1-D array, in order; empty stays empty."""
    # by hand: numpy's unique() imports numpy.ma on first use (~1 MB, ~15 ms)
    keep = np.ones(ascending.shape, dtype=bool)
    keep[1:] = ascending[1:] != ascending[:-1]
    return ascending[keep]


def as_matrix(values, *, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D array of finite floats, with a column at least, and return it as float64."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ComputationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ComputationError(f"{name} must be at least 1x1, got {arr.shape[0]}x{arr.shape[1]}")
    # NaN propagates through min and max and an infinity is one of them, so
    # two reductions decide finiteness without a full-size mask
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ComputationError(f"{name} contains NaN or infinite values")
    return arr


def center_columns(m) -> np.ndarray:
    """Subtract each column's mean. Two passes keep residual means near machine zero."""
    x = np.asarray(m, dtype=float)
    centered = x - x.mean(axis=0)
    centered -= centered.mean(axis=0)
    return centered


def column_stats(x, rows) -> np.ndarray:
    """Statistics of each column of ``x[rows]``, taken without gathering all of it.

    Returns a (4, d) array whose rows are each column's mean m1, the mean m2
    of its deviations x - m1, its sample std (ddof=1) and its largest |value|.
    The columns are gathered over ``rows`` into one F-ordered block of at
    most ``_BLOCK_CELLS`` cells (at least one column) at a time. numpy sums
    each contiguous column of such a block pairwise, as it sums the columns
    of the whole gather in F order, and the std's deviations are those of
    ``np.std``, so m1 and the std equal ``x[rows].mean(axis=0)`` and
    ``x[rows].std(axis=0, ddof=1)`` of an F-ordered gather bit for bit.
    Raises IndexError for a row out of range.
    """
    n, d = len(rows), x.shape[1]
    step = max(1, _BLOCK_CELLS // n)
    block = np.empty((n, min(step, d)), order="F")
    stats = np.empty((4, d))
    for j in range(0, d, step):
        cols = block[:, : min(step, d - j)]
        # a column at a time: a 2-D gather pays per row, and np.take copies x[:, c] first
        for c in range(cols.shape[1]):
            cols[:, c] = x[rows, j + c]
        m1, m2, std, peak = stats[:, j : j + step]
        cols.mean(axis=0, out=m1)
        np.maximum(cols.max(axis=0), -cols.min(axis=0), out=peak)
        cols -= m1
        cols.mean(axis=0, out=m2)
        np.square(cols, out=cols)
        cols.sum(axis=0, out=std)
        std /= n - 1
        np.sqrt(std, out=std)
    return stats


def standardize_columns(x, m1, m2, stds=None) -> None:
    """Subtract ``m1``, then ``m2``, from the columns of ``x`` in place; then divide by ``stds`` if given.

    With m1 a column's mean and m2 the mean of its deviations (both from
    :func:`column_stats`), the two subtractions are the two centering passes
    that keep residual means near machine zero. The means come from all the
    rows, so any block of rows is standardized on its own, with no copy.
    """
    x -= m1
    x -= m2
    if stds is not None:
        x /= stds


def check_rank(r: np.ndarray, design: Design) -> None:
    """Raise RankDeficientError unless the square R factor of ``design``'s features has full rank.

    |R[k, k]| over the norm of R's column k is the sine of the angle between
    design column k and the span of the columns before it (R's column norms
    are the design's), so the ratio does not depend on the units of any
    feature. A column whose ratio is at most ``RANK_TOL * sqrt(d)`` is a
    linear combination of the columns before it; the error names its
    feature, prefixed by the design's ``where``, and lists its feature index
    in ``columns``. Reordering the columns chooses which one is named.
    """
    d = r.shape[1]
    norms = np.sqrt((r * r).sum(axis=0))
    ratio = np.abs(np.diagonal(r)) / np.where(norms > 0.0, norms, 1.0)
    dependent = [design.kept[i] for i in np.flatnonzero(ratio <= RANK_TOL * math.sqrt(d))]
    if dependent:
        raise RankDeficientError(
            f"{design.where}: features are linear combinations of the others: "
            f"{', '.join(design.names[j] for j in dependent)}",
            dependent,
        )


def qr_r_in_place(a) -> np.ndarray:
    """R of the QR factorization of ``a``, factored in ``a``'s own memory.

    ``a`` is an F-contiguous, writable float64 (n, m) array; LAPACK's dgeqrf
    overwrites it with the Householder form, whose upper triangle is R. The
    workspace size is LAPACK's own answer to a query, as np.linalg.qr asks
    it, so the blocking and every bit of R are the same as np.linalg.qr's.
    Returns R as a new min(n, m) x m array.
    """
    n, m = a.shape
    column_major = a.T  # C-contiguous: a's memory as LAPACK reads it
    lda = max(1, n)
    tau = np.empty(min(n, m))
    work = np.empty(1)
    lapack_lite.dgeqrf(n, m, column_major, lda, tau, work, -1, 0)
    lwork = max(1, m, int(work[0]))
    work = np.empty(lwork)
    info = lapack_lite.dgeqrf(n, m, column_major, lda, tau, work, lwork, 0)["info"]
    if info != 0:
        raise ComputationError(f"QR factorization failed: LAPACK dgeqrf info={info}")
    return np.triu(a[: min(n, m), :])


@dataclass(frozen=True)
class Design:
    """[X | targets] over the given rows of ``x``, written a block of rows at a time.

    X is the ``kept`` columns of ``x[rows]``, each centered by its two means
    ``m1`` and ``m2`` and divided by its std (only centered when ``stds`` is
    None), all taken over every row by :func:`fit_design`. ``names`` holds
    a name for every column of ``x`` and ``where`` labels the fit (say
    ``group 'a'``) in the errors of :func:`fit_size` and :func:`check_rank`.
    ``shape``, ``write(lo, hi, out)`` and ``targets`` are what
    :func:`r_factor`, :func:`fill` and both fits read: an axis fit never
    holds the whole design, and an edge's fit writes it once, into its
    [1 | X] matrix.
    """

    x: np.ndarray
    rows: np.ndarray
    kept: list[int]
    m1: np.ndarray
    m2: np.ndarray
    stds: np.ndarray | None
    targets: np.ndarray
    names: list[str]
    where: str

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.kept) + self.targets.shape[1]

    def write(self, lo: int, hi: int, out) -> None:
        """Fill ``out`` with rows ``lo:hi`` of the design."""
        d = len(self.kept)
        block = self.x[self.rows[lo:hi]]
        if d < self.x.shape[1]:
            block = block[:, self.kept]
        # standardized while C-ordered: the three passes run twice as fast
        # there as on out's F-ordered rows
        standardize_columns(block, self.m1, self.m2, self.stds)
        out[:, :d] = block
        out[:, d:] = self.targets[lo:hi]


def fit_design(x, rows, targets, names, where: str, *, scale: bool = True) -> Design:
    """The :class:`Design` [X | targets] of a fit over the given rows of ``x``: the one input of both fits.

    One pass over blocks of whole columns (:func:`column_stats`) takes each
    column's means, std and largest |value|, with no temporary past one
    block; nothing of the design's size is built. Constant columns are
    dropped with a warning that names them, prefixed by ``where``; the
    design's ``kept`` maps each of its columns to its feature index. The
    kept columns are standardized as they are written (only centered without
    ``scale``), and the k columns of ``targets`` (k may be 0) follow as
    given. Raises GroupTooSmallError when every feature is constant, and
    ComputationError when a feature's mean or std overflows.
    """
    m1, m2, stds, peaks = column_stats(x, rows)
    overflow = ~(np.isfinite(m1) & np.isfinite(stds))
    if overflow.any():
        features = ", ".join(names[j] for j in np.flatnonzero(overflow))
        raise ComputationError(f"{where}: means or stds of features overflow: {features}; rescale the features")
    constant = negligible(stds, peaks)
    kept = np.flatnonzero(~constant).tolist()
    if not kept:
        raise GroupTooSmallError(f"{where}: every feature is constant")
    if constant.any():
        dropped = ", ".join(names[j] for j in np.flatnonzero(constant))
        warnings.warn(f"{where}: dropping zero-variance features: {dropped}", ClockWarning, stacklevel=3)
    return Design(x, rows, kept, m1[kept], m2[kept], stds[kept] if scale else None, targets, names, where)


def _block_rows(m: int) -> int:
    """Rows in a block of an m-column matrix: ``_BLOCK_CELLS`` cells, but at least 3m rows.

    The floor bounds what r_factor's R, stacked on each block, adds to the
    rows its QR factors to a third. At 10k x 202 with single-threaded BLAS,
    blocks of 1.6m rows (64k cells) took 1.1x the CPU time of one QR of the
    whole matrix, and blocks of 3m to 6m rows no more than it.
    """
    return max(3 * m, _BLOCK_CELLS // m)


def r_factor(rows) -> np.ndarray:
    """R of the QR factorization of the (n, m) matrix that ``rows`` writes, one row block at a time.

    Blocks of b = :func:`_block_rows` (m) rows are written, one after the
    other, under the R of the rows before them, in one F-ordered scratch
    buffer of at most (m + b) x m cells, and :func:`qr_r_in_place` factors
    the stack: its R is an R of every row so far (a tall-skinny QR, as in
    Demmel, Grigori, Hoemmen and Langou 2012), as backward stable as one
    Householder QR. When n <= b the loop makes one QR of the whole matrix,
    so R is np.linalg.qr's bit for bit; otherwise the two agree up to the
    signs of R's rows, to rounding. Returns R as a new min(n, m) x m array.
    """
    n, m = rows.shape
    b = _block_rows(m)
    scratch = np.empty((min(n, b) + (m if n > b else 0)) * m)
    r = np.empty((0, m))
    for lo in range(0, n, b):
        hi = min(n, lo + b)
        top = r.shape[0]
        a = scratch[: (top + hi - lo) * m].reshape((top + hi - lo, m), order="F")
        a[:top] = r
        rows.write(lo, hi, a[top:])
        r = qr_r_in_place(a)
    return r


def fill(rows, out) -> None:
    """Write the whole matrix that ``rows`` writes into the caller's ``out``, a row block at a time."""
    n, m = rows.shape
    b = _block_rows(m)
    for lo in range(0, n, b):
        rows.write(lo, min(n, lo + b), out[lo : lo + b])


def fit_size(design: Design) -> tuple[int, int]:
    """``(n, d)``: the rows of a fit's design and its columns before the targets.

    Raises GroupTooSmallError, named by the design's ``where``, unless
    n >= d + 2: one degree of freedom goes to the intercept that centering
    absorbs, and the t-tests need one more.
    """
    n, d = len(design.rows), len(design.kept)
    if n < d + 2:
        raise GroupTooSmallError(
            f"{design.where} too small for clock: {n} points for {d} features (need at least {d + 2})"
        )
    return n, d


@dataclass(frozen=True)
class RegressionFit:
    """Per-feature least-squares results on centered data (intercept absorbed)."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    dof: int
    residual_variance: float


def ols_fit(design: Design) -> tuple[RegressionFit, ...]:
    """Least squares of each of the design's k targets on its d feature columns.

    ``design`` is the [X | Y] that :func:`fit_design` builds: a centered
    or standardized X followed by k centered targets. Returns a tuple of k
    fits, all from the one R factor that :func:`r_factor` accumulates over
    the design's row blocks; the target norms of the exact-fit test come
    from the targets themselves. :func:`fit_size` and :func:`check_rank`
    raise the errors, named by the design.
    With R11 the leading d x d block of R, R12 the block beside it and R22
    the block below, beta = R11^-1 R12, RSS_j = ||R22[:, j]||^2 and
    diag((X^T X)^-1) is the row sums of squares of R11^-1. :func:`check_rank`
    reads the rank from the diagonal of R11 first. Standard errors are
    s^2 * diag((X^T X)^-1) with s^2 = RSS / dof and dof = n - d - 1 (one
    degree lost to the centering that absorbed the intercept). p-values are
    two-sided Student-t tails.
    """
    n, d = fit_size(design)
    k = design.targets.shape[1]

    # a column at a time: numpy sums a contiguous column pairwise, whatever the targets' layout
    target_norms = np.sqrt([np.square(design.targets[:, j]).sum() for j in range(k)])
    r = r_factor(design)
    r11 = r[:d, :d]
    check_rank(r11, design)

    # One solve against [R12 | I] gives beta and R11^-1 together.
    solution = np.linalg.solve(r11, np.column_stack([r[:d, d:], np.eye(d)]))
    rinv = solution[:, k:]
    xtx_inv_diag = (rinv * rinv).sum(axis=1)
    rss = (r[d:, d:] ** 2).sum(axis=0)
    dof = n - d - 1

    fits = []
    for j in range(k):
        beta = solution[:, j].copy()
        s2 = float(rss[j]) / dof
        se = np.sqrt(s2 * xtx_inv_diag)
        t = np.divide(beta, se, out=np.zeros_like(beta), where=se > 0)
        if negligible(math.sqrt(rss[j]), target_norms[j]):
            # Exact fit: t statistics are ratios of rounding noise. A feature
            # counts as idle when its coefficient is within the rounding
            # noise that the target's size and the design's conditioning
            # allow (the same ratio as for the residual).
            idle = negligible(np.abs(beta) / np.sqrt(xtx_inv_diag), target_norms[j])
            p = np.where(idle, 1.0, 0.0)
        else:
            p = np.array([student_t_two_sided_p(float(tv), dof) for tv in t])
        fits.append(RegressionFit(beta, se, t, p, dof, s2))
    return tuple(fits)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by the modified Lentz method."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise ComputationError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), evaluated through the continued fraction.

    The symmetric form is used when x > (a+1)/(a+b+2), where the fraction
    converges faster.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for a Student-t variable with the given degrees of freedom."""
    if dof < 1:
        raise ComputationError(f"degrees of freedom must be >= 1, got {dof}")
    if not math.isfinite(t):
        raise ComputationError("t statistic must be finite")
    x = dof / (dof + t * t)
    p = regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return min(1.0, max(0.0, p))


def normal_two_sided_p(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal variable."""
    if not math.isfinite(z):
        raise ComputationError("z statistic must be finite")
    return math.erfc(abs(z) / math.sqrt(2.0))
