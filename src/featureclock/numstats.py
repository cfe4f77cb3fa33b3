"""Self-contained numerical kernel used by the clock builders.

Ordinary least squares with classical t-tests on one [X | Y] buffer, the
column tests and standardization that fill it, and Student-t tail
probabilities. No routine caches or shares state. Three routines write to
their argument, so that a fit runs inside its caller's buffer with no copy:
standardize_columns (in place), qr_r_in_place (the factorization) and
ols_fit (a writable F-ordered float64 buffer is factored as given; any other
input is copied once first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy lists lapack_lite among its "private but present" modules; it has
# been there since numpy 1.x. Its dgeqrf is the LAPACK routine behind
# np.linalg.qr, called here on the caller's buffer instead of on the two
# copies np.linalg.qr makes; a test pins its R to np.linalg.qr's bit for bit.
from numpy.linalg import lapack_lite

from .errors import ComputationError, RankDeficientError

# Rounding noise relative to the magnitude of the numbers it comes from. Every
# "is this zero?" decision goes through :func:`negligible` with this ratio, so
# each one is relative to its own data and survives any rescaling of it.
NOISE_RATIO = 64.0 * float(np.finfo(float).eps)

# Relative tolerance for the numerical rank of a design matrix.
RANK_TOL = 1e-10

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


def as_matrix(values, *, name: str = "matrix", min_rows: int = 1, min_cols: int = 1) -> np.ndarray:
    """Validate a 2-D array of finite floats and return it as float64."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ComputationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < min_rows or arr.shape[1] < min_cols:
        raise ComputationError(
            f"{name} must be at least {min_rows}x{min_cols}, got {arr.shape[0]}x{arr.shape[1]}"
        )
    # NaN propagates through min and max and an infinity is one of them, so
    # two reductions decide finiteness without a full-size mask
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ComputationError(f"{name} contains NaN or infinite values")
    return arr


def constant_columns(x, stds) -> np.ndarray:
    """Mask of the columns of ``x`` whose sample std is rounding noise next to their largest |value|."""
    return negligible(stds, np.maximum(x.max(axis=0), -x.min(axis=0)))


def center_columns(m) -> np.ndarray:
    """Subtract each column's mean. Two passes keep residual means near machine zero."""
    x = as_matrix(m)
    centered = x - x.mean(axis=0)
    centered -= centered.mean(axis=0)
    return centered


def column_stds(x, cells: int) -> np.ndarray:
    """``x.std(axis=0, ddof=1)``, taken over blocks of whole columns of at most ``cells`` cells.

    The deviations held at once fill one block (at least one column). On an
    F-ordered ``x`` numpy sums each contiguous column on its own, so the
    result equals the one-call std bit for bit.
    """
    n, d = x.shape
    step = max(1, cells // n)
    stds = np.empty(d)
    for j in range(0, d, step):
        stds[j : j + step] = x[:, j : j + step].std(axis=0, ddof=1)
    return stds


def standardize_columns(x, stds=None) -> None:
    """Center the columns of ``x`` in place, then divide them by ``stds`` when given.

    Two centering passes keep residual means near machine zero. Working in
    place lets a design be standardized inside its fit buffer, with no copy.
    """
    x -= x.mean(axis=0)
    x -= x.mean(axis=0)
    if stds is not None:
        x /= stds


def check_rank(r: np.ndarray) -> None:
    """Raise RankDeficientError unless the square R factor of a design has full rank.

    |R[k, k]| over the norm of R's column k is the sine of the angle between
    design column k and the span of the columns before it (R's column norms
    are the design's), so the ratio does not depend on the units of any
    feature. A column whose ratio is at most ``RANK_TOL * sqrt(d)`` is a
    linear combination of the columns before it and is listed in the error's
    ``columns``; reordering the columns chooses which one is named.
    """
    d = r.shape[1]
    norms = np.sqrt((r * r).sum(axis=0))
    ratio = np.abs(np.diagonal(r)) / np.where(norms > 0.0, norms, 1.0)
    dependent = np.flatnonzero(ratio <= RANK_TOL * math.sqrt(d)).tolist()
    if dependent:
        raise RankDeficientError(
            f"design matrix is rank deficient (rank {d - len(dependent)} of {d}); "
            f"offending columns: {dependent}",
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
class RegressionFit:
    """Per-feature least-squares results on centered data (intercept absorbed)."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    dof: int
    residual_variance: float


def ols_fit(xy, k: int) -> tuple[RegressionFit, ...]:
    """Least squares of each of the last ``k`` columns of ``xy`` on the columns before them.

    ``xy`` is [X | Y]: a centered or standardized design X of d columns
    followed by k centered targets, as built by ``clockcore.fit_design``.
    Returns a tuple of k fits, all from one LAPACK QR of ``xy`` as given.
    The QR runs in ``xy``'s memory: a writable F-ordered float64 ``xy`` is
    overwritten, and any other input is first copied once into such a buffer
    (so a C-ordered argument is left as it was).
    With R11 the leading d x d block of R, R12 the block beside it and R22
    the block below, beta = R11^-1 R12, RSS_j = ||R22[:, j]||^2 and
    diag((X^T X)^-1) is the row sums of squares of R11^-1. :func:`check_rank`
    reads the rank from the diagonal of R11 first. Standard errors are
    s^2 * diag((X^T X)^-1) with s^2 = RSS / dof and dof = n - d - 1 (one
    degree lost to the centering that absorbed the intercept). p-values are
    two-sided Student-t tails.
    """
    xy = as_matrix(np.require(xy, np.float64, ["F", "W"]), name="design matrix", min_cols=k + 1)
    n, d = xy.shape[0], xy.shape[1] - k
    if n < d + 2:
        raise ComputationError(
            f"insufficient observations: n={n} but need at least d+2={d + 2}"
        )

    target_norms = np.sqrt((xy[:, d:] ** 2).sum(axis=0))  # before the QR overwrites them
    r = qr_r_in_place(xy)
    r11 = r[:d, :d]
    check_rank(r11)

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
