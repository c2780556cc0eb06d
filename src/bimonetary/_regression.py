"""The one least-squares kernel shared by the calibration and time-series
modules.

Every regression is read from one R factor (Q is never formed) of ``[X /
norms | Y]``, the design with its k regressor columns scaled to unit norm.
With ``R = [[R11, R12], [0, R22]]`` (Golub & Van Loan, *Matrix
Computations*, 5.3):

- the coefficients are ``R11^-1 R12 / norms``;
- ``(X'X)^-1 = N^-1 R11^-1 R11^-T N^-1`` with ``N = diag(norms)``, so the
  standard errors are the row norms of ``R11^-1`` divided by the norms;
- the residual cross-product of Y on the first j columns of X is
  ``R12[j:]' R12[j:] + R22' R22``, so one factor serves every nested design;
- a design made of some columns of Z plus rows Z lacks has the R factor of
  those rows, scaled by the same norms, stacked on those columns of R
  (Golub & Van Loan, 6.5.3, "adding rows"): a smaller lag, or the refit at
  a chosen lag, reads its R from a QR of at most ``len(R)`` plus its
  missing rows, however tall Z is.

A design is given by its rows, never whole: ``rows(a, b)`` builds design
rows a..b-1 as one new array ``[X | Y]``, which the kernel owns and factors
in place (:func:`qr_r`). R is a tall-skinny QR (Demmel, Grigori, Hoemmen &
Langou, *SIAM J. Sci. Comput.* 34(1), 2012): each block of
:data:`BLOCK_ROWS` rows is factored alone (a leaf), then the leaves are
combined by one QR of all their R factors stacked, which is "adding rows"
again. Equilibration comes last: ``Z = Q R``, so X's column norms are those
of ``R11``, and R with its first k columns divided by them is the R factor
of ``[X / norms | Y]``. The result is the one-shot R up to the signs of its
rows, which nothing reads, and to rounding: each QR is backward stable
column by column, so scaling after factoring is as accurate as scaling
before. A design that differs from a factored one in some blocks only keeps
that one's other leaves (:func:`leaf_factors`); the same combine then gives
the bits of a fresh factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .errors import InsufficientRows, NonFiniteFactor, RankDeficient

#: Relative pivot threshold below which a QR factor is declared rank deficient.
PIVOT_RTOL = 1e-10

#: Design rows per leaf of the blocked factorization.
BLOCK_ROWS = 2048


@dataclass(frozen=True)
class LeastSquaresFit:
    beta: np.ndarray          # (k,) or (k, m) matching the response shape
    residuals: np.ndarray
    stderr: np.ndarray        # beta's shape; df-corrected, NaN when n == k


def qr_r(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """``np.linalg.qr(a, mode="r")`` bit for bit, of one matrix or of each
    matrix of a ``(..., m, n)`` stack: one LAPACK ``dgeqrf`` call per matrix
    with the workspace numpy takes. With ``overwrite`` a float ``a`` whose
    matrices are column-major is factored in place; any other input is
    copied once. A non-finite R (a design overflowed) raises
    NonFiniteFactor."""
    *_, m, n = a.shape
    # each matrix's transpose in C order is the matrix in the column-major
    # order LAPACK reads
    at = np.swapaxes(a, -1, -2)
    if not (overwrite and a.dtype == np.float64 and at.flags.c_contiguous):
        at = np.array(at, dtype=float, order="C")
    tau, work = np.empty(min(m, n)), np.empty(1)
    matrices, lda = at.reshape(-1, n, m), max(1, m)
    lapack_lite.dgeqrf(m, n, matrices[0], lda, tau, work, -1, 0)
    work = np.empty(max(1, n, int(work[0])))
    for matrix in matrices:
        info = lapack_lite.dgeqrf(m, n, matrix, lda, tau, work, len(work), 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrf failed with info {info}")
    # row-major, as numpy's R is
    r = np.triu(np.swapaxes(at[..., : min(m, n)], -1, -2).copy())
    if not np.isfinite(r).all():
        raise NonFiniteFactor("the design overflows: its R factor is not finite")
    return r


def leaf_factors(rows, n: int, base=None) -> list[np.ndarray]:
    """R factors of the unscaled ``[X | Y]``, one per block of
    :data:`BLOCK_ROWS` design rows (block b holds rows ``b * BLOCK_ROWS``
    onwards), of the n-row design ``rows`` builds.

    ``base = (leaves, dirty)`` gives the leaves of a design whose rows equal
    these wherever the boolean ``dirty`` (one per row) is false: only the
    blocks holding a dirty row are built and factored again.
    """
    old, touched = None, set()
    if base is not None:
        old, dirty = base
        touched = set(np.flatnonzero(dirty) // BLOCK_ROWS)
    return [
        old[b]
        if old is not None and b not in touched
        else qr_r(rows(a, min(a + BLOCK_ROWS, n)), overwrite=True)
        for b, a in enumerate(range(0, n, BLOCK_ROWS))
    ]


def factor(leaves: list[np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
    """R factor of ``[X / norms | Y]`` from the :func:`leaf_factors` of ``[X
    | Y]``, whose first k columns are X; returns ``(R, norms)``.

    The leaves are combined by one QR of them stacked (a QR of one leaf
    returns it bit for bit); then R's first k columns are divided by their
    norms.
    Column equilibration makes the pivot test scale-invariant, so mixed
    magnitudes (GDP levels next to an intercept) are not mistaken for
    collinearity; a least-squares solution is unchanged by diagonal scaling.
    The pivot test is left to the caller, which knows the design's columns.

    Raises
    ------
    NonFiniteFactor
        A norm overflows (a column's values pass about 1e154).
    RankDeficient
        A zero column among the k, before anything is divided by it.
    """
    r = qr_r(np.vstack(leaves))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(r[:, :k], axis=0)
    if not np.isfinite(norms).all():
        raise NonFiniteFactor("the design overflows: a column norm is not finite")
    if (norms == 0.0).any():
        raise RankDeficient("zero column in the design matrix")
    return np.hstack([r[:, :k] / norms, r[:, k:]]), norms


def pivot_failures(r: np.ndarray, k: int) -> np.ndarray:
    """Whether the R factor ``r``, or each of a stack of them, fails the
    pivot test on its first k columns: some |R_ii| below PIVOT_RTOL times
    the largest."""
    if not k:
        return np.zeros(r.shape[:-2], dtype=bool)
    pivots = np.abs(np.diagonal(r, axis1=-2, axis2=-1)[..., :k])
    return pivots.min(axis=-1) < PIVOT_RTOL * pivots.max(axis=-1)


def check_pivots(r: np.ndarray, k: int) -> None:
    """Raises RankDeficient for the first R factor of the stack ``r`` (or
    for the one R) that fails :func:`pivot_failures`, in C order."""
    failed = np.flatnonzero(pivot_failures(r, k))
    if failed.size:
        pivots = np.abs(np.diag(r.reshape(-1, *r.shape[-2:])[failed[0]])[:k])
        raise RankDeficient(
            f"relative pivot {pivots.min() / pivots.max():.3e} below threshold"
        )


def factor_design(rows, n: int, k: int, leaves=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`factor` of the n-row design ``rows`` builds, X its first k
    columns, after the checks; ``leaves`` are its :func:`leaf_factors`.

    Raises
    ------
    InsufficientRows
        Fewer rows than columns of X.
    RankDeficient
        A zero column of X, or any |R_ii| of X's block below PIVOT_RTOL
        times the largest.
    """
    if n < k:
        raise InsufficientRows(f"{n} rows for {k} coefficients")
    r, norms = factor(leaf_factors(rows, n) if leaves is None else leaves, k)
    check_pivots(r, k)
    return r, norms


def read_fit(r: np.ndarray, norms: np.ndarray, rows, n: int) -> LeastSquaresFit:
    """The least-squares fit of the n-row design ``rows`` builds, one column
    per column of Y, read from the R factor of its ``[X / norms | Y]``.

    The residuals ``Y - X beta`` are taken one block of rows at a time. The
    standard errors are ``sqrt(diag((X'X)^-1) SSR / (n - k))`` with
    ``(X'X)^-1`` read from ``R11^-1``.
    """
    k = len(norms)
    # one triangular solve gives R11^-1 R12 and R11^-1
    solved = np.linalg.solve(r[:k, :k], np.hstack([r[:k, k:], np.eye(k)]))
    beta = solved[:, :-k] / norms[:, None]
    residuals = np.empty((n, beta.shape[1]))
    for a in range(0, n, BLOCK_ROWS):
        block = rows(a, min(a + BLOCK_ROWS, n))
        X = np.ascontiguousarray(block[:, :k])  # row-major keeps BLAS's sum order
        residuals[a : a + len(block)] = block[:, k:] - X @ beta
    ssr = np.einsum("ij,ij->j", residuals, residuals)
    sigma2 = ssr / (n - k) if n > k else np.full_like(ssr, np.nan)
    scale = np.linalg.norm(solved[:, -k:], axis=1) / norms
    stderr = np.multiply.outer(scale, np.sqrt(sigma2))
    return LeastSquaresFit(beta, residuals, stderr)


def qr_least_squares(X: np.ndarray, y: np.ndarray) -> LeastSquaresFit:
    """Solve min ||X b - y||, failing loudly on collinear regressors
    (:func:`read_fit` of :func:`factor_design` of the rows of ``[X | y]``)."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    rows = lambda a, b: np.column_stack((X[a:b], y[a:b]))
    fit = read_fit(*factor_design(rows, len(X), X.shape[1]), rows, len(X))
    if y.ndim == 1:  # a 1-d y gives each field's one column
        fit = LeastSquaresFit(*(v[..., 0] for v in vars(fit).values()))
    return fit


def cross_products(r: np.ndarray, k: int) -> np.ndarray:
    """``E_j' E_j = R12[j:]' R12[j:] + R22' R22`` of Y regressed on
    ``X[:, :j]`` for ``j = 0..k``, shape ``(k+1, m, m)``, from the R factor
    of ``[X / norms | Y]``, or ``(..., k+1, m, m)`` from a stack of them: a
    sum of positive semidefinite terms, so nothing cancels against
    ``||Y||^2``.

    :func:`factor_design`'s pivot test on the full X decides every prefix:
    each scaled column has unit norm, so ``|R_11| = 1 >= |R_jj|``, a prefix's
    ratio test is ``min |R_jj| < PIVOT_RTOL`` over its own pivots, and the
    full design fails exactly when some prefix does.
    """
    tail = r[..., k:]                   # rows of R12, then of R22
    # a zero row stands for R22 when n == k (the full design fits exactly)
    zero = np.zeros((*tail.shape[:-2], 1, tail.shape[-1]))
    tail = np.concatenate([tail, zero], axis=-2)
    outer = np.einsum("...ij,...ik->...ijk", tail, tail)
    return np.flip(np.cumsum(np.flip(outer, -3), axis=-3), -3)[..., : k + 1, :, :]


def subset_factor(r: np.ndarray, columns, rows: np.ndarray) -> np.ndarray:
    """R factor of a design read from one that is already factored.

    ``r`` is the R factor of an equilibrated design Z (see :func:`factor`);
    ``columns`` picks regressor columns of Z, then response columns;
    ``rows`` holds the rows the design has and Z lacks, in the order of
    ``columns``, regressors divided by Z's norms (it may have no rows).
    Since ``Z[:, columns] = Q r[:, columns]``, the design's R factor is that
    of ``rows`` stacked on ``r[:, columns]``, a QR of at most ``len(r) +
    len(rows)`` rows however tall Z is (Golub & Van Loan, 5.3 and 6.5).

    A ``(..., w)`` stack of ``columns`` with a ``(..., n, w)`` stack of
    ``rows`` gives the stack of their R factors from one :func:`qr_r` call.
    The pivot test is left to the caller (:func:`check_pivots`).
    """
    picked = np.moveaxis(r[:, columns], 0, -2)
    return qr_r(np.concatenate([rows, picked], axis=-2))


def r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(residuals @ residuals) / ss_tot
