"""The one least-squares kernel shared by the calibration and time-series
modules.

Every regression is read from one factorization: the R factor
(``mode="r"``, Q is never formed) of ``[X / norms | Y]``, the design with
its k regressor columns scaled to unit norm. With ``R = [[R11, R12], [0,
R22]]`` (Golub & Van Loan, *Matrix Computations*, 5.3):

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientRows, RankDeficient

#: Relative pivot threshold below which a QR factor is declared rank deficient.
PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class LeastSquaresFit:
    beta: np.ndarray          # (k,) or (k, m) matching the response shape
    residuals: np.ndarray
    ssr: np.ndarray           # scalar array for 1-d response, (m,) otherwise
    stderr: np.ndarray        # beta's shape; df-corrected, NaN when n == k


def factor(Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """R factor of the preallocated design ``Z = [X | Y]`` after scaling its
    first k columns to unit norm in place; returns ``(R, norms)``.

    Column equilibration makes the pivot test scale-invariant, so mixed
    magnitudes (GDP levels next to an intercept) are not mistaken for
    collinearity; a least-squares solution is unchanged by diagonal scaling.
    The pivot test is left to the caller, which knows the design's columns.

    Raises
    ------
    RankDeficient
        A zero column among the k, before anything is divided by it.
    """
    norms = np.linalg.norm(Z[:, :k], axis=0)
    if (norms == 0.0).any():
        raise RankDeficient("zero column in the design matrix")
    Z[:, :k] /= norms
    return np.linalg.qr(Z, mode="r"), norms


def _check_pivots(r: np.ndarray, k: int) -> None:
    pivots = np.abs(np.diag(r)[:k])
    if pivots.size and pivots.min() < PIVOT_RTOL * pivots.max():
        raise RankDeficient(
            f"relative pivot {pivots.min() / pivots.max():.3e} below threshold"
        )


def factor_design(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`factor` of ``[X | Y]``, built in one preallocated array, after
    the checks.

    Raises
    ------
    InsufficientRows
        Fewer rows than columns of X.
    RankDeficient
        A zero column of X, or any |R_ii| of X's block below PIVOT_RTOL
        times the largest.
    """
    n, k = X.shape
    if n < k:
        raise InsufficientRows(f"{n} rows for {k} coefficients")
    m = 1 if Y.ndim == 1 else Y.shape[1]
    Z = np.empty((n, k + m))
    Z[:, :k] = X
    Z[:, k:] = Y.reshape(n, m)
    r, norms = factor(Z, k)
    _check_pivots(r, k)
    return r, norms


def read_fit(r: np.ndarray, norms: np.ndarray, blocks) -> LeastSquaresFit:
    """The least-squares fit read from the R factor of ``[X / norms | Y]``.

    ``blocks`` holds the design's rows as ``(X, Y)`` pairs, in row order;
    the residuals ``Y - X beta`` are taken on each and stacked. The
    standard errors are ``sqrt(diag((X'X)^-1) SSR / (n - k))`` with
    ``(X'X)^-1`` read from ``R11^-1``.
    """
    k = len(norms)
    # one triangular solve gives R11^-1 R12 and R11^-1
    solved = np.linalg.solve(r[:k, :k], np.hstack([r[:k, k:], np.eye(k)]))
    beta = (solved[:, :-k] / norms[:, None]).reshape((k,) + blocks[0][1].shape[1:])
    parts = [Y - X @ beta for X, Y in blocks]
    residuals = parts[0] if len(parts) == 1 else np.concatenate(parts)
    n = len(residuals)
    ssr = np.einsum("i...,i...->...", residuals, residuals)
    sigma2 = ssr / (n - k) if n > k else np.full_like(ssr, np.nan)
    scale = np.linalg.norm(solved[:, -k:], axis=1) / norms
    stderr = np.multiply.outer(scale, np.sqrt(sigma2))
    return LeastSquaresFit(beta, residuals, ssr, stderr)


def qr_least_squares(X: np.ndarray, y: np.ndarray) -> LeastSquaresFit:
    """Solve min ||X b - y|| from the R factor of ``[X / norms | y]``,
    failing loudly on collinear regressors (see :func:`factor_design` for
    the checks and :func:`read_fit` for the standard errors)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    r, norms = factor_design(X, y)
    return read_fit(r, norms, [(X, y)])


def cross_products(r: np.ndarray, k: int) -> np.ndarray:
    """``E_j' E_j = R12[j:]' R12[j:] + R22' R22`` of Y regressed on
    ``X[:, :j]`` for ``j = 0..k``, shape ``(k+1, m, m)``, from the R factor
    of ``[X / norms | Y]``: a sum of positive semidefinite terms, so nothing
    cancels against ``||Y||^2``.

    :func:`factor_design`'s pivot test on the full X decides every prefix:
    each scaled column has unit norm, so ``|R_11| = 1 >= |R_jj|``, a prefix's
    ratio test is ``min |R_jj| < PIVOT_RTOL`` over its own pivots, and the
    full design fails exactly when some prefix does.
    """
    tail = r[:, k:]                     # rows of R12, then of R22
    # a zero row stands for R22 when n == k (the full design fits exactly)
    tail = np.vstack([tail, np.zeros((1, tail.shape[1]))])
    outer = np.einsum("ij,ik->ijk", tail, tail)
    return np.cumsum(outer[::-1], axis=0)[::-1][: k + 1]


def subset_factor(r: np.ndarray, columns, k: int, rows: np.ndarray) -> np.ndarray:
    """R factor of a design read from one that is already factored.

    ``r`` is the R factor of an equilibrated design Z (see :func:`factor`);
    ``columns`` picks ``k`` regressor columns of Z, then response columns;
    ``rows`` holds the rows the design has and Z lacks, in the order of
    ``columns``, regressors divided by Z's norms (it may have no rows).
    Since ``Z[:, columns] = Q r[:, columns]``, the design's R factor is that
    of ``rows`` stacked on ``r[:, columns]``, a QR of at most ``len(r) +
    len(rows)`` rows however tall Z is (Golub & Van Loan, 5.3 and 6.5). The
    pivot test runs on the design's own pivots.
    """
    sub = np.linalg.qr(np.vstack([rows, r[:, columns]]), mode="r")
    _check_pivots(sub, k)
    return sub


def prefix_fit(
    r: np.ndarray,
    norms: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    X_lead: np.ndarray,
    Y_lead: np.ndarray,
) -> LeastSquaresFit:
    """:func:`qr_least_squares` of ``[Y_lead; Y]`` on ``[X_lead; X[:, :k]]``,
    ``k = X_lead.shape[1]``, where ``(r, norms)`` is :func:`factor_design`
    of ``(X, Y)``.

    This is the refit of a lag search at its chosen lag: the design is a
    column prefix of the largest one plus the leading rows it lacks, so its
    R comes from :func:`subset_factor` and the design is never copied. The
    rows are scaled by the largest design's norms, which leaves the
    least-squares solution unchanged.
    """
    k, n_y = X_lead.shape[1], 1 if Y.ndim == 1 else Y.shape[1]
    columns = np.r_[:k, X.shape[1] : X.shape[1] + n_y]
    rows = np.empty((len(X_lead), k + n_y))
    rows[:, :k] = X_lead / norms[:k]
    rows[:, k:] = Y_lead.reshape(len(Y_lead), n_y)
    sub = subset_factor(r, columns, k, rows)
    return read_fit(sub, norms[:k], [(X_lead, Y_lead), (X[:, :k], Y)])


def r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(residuals @ residuals) / ss_tot
