"""Least-squares plumbing shared by the calibration and time-series modules."""

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
    df_resid: int

    def stderr(self, X: np.ndarray) -> np.ndarray:
        """Coefficient standard errors with the df-corrected variance."""
        xtx_inv = np.linalg.inv(X.T @ X)
        sigma2 = self.ssr / self.df_resid
        diag = np.sqrt(np.diag(xtx_inv))
        if self.beta.ndim == 1:
            return diag * np.sqrt(sigma2)
        return np.sqrt(np.outer(np.diag(xtx_inv), sigma2))


def _factor(X: np.ndarray, Y: np.ndarray | None = None):
    """QR of X with its columns scaled to unit norm, after the checks.

    Returns ``(Q, R, norms)``. Given ``Y``, R is the factor of
    ``[X / norms, Y]`` and Q is not formed (``None``).

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
    # column equilibration makes the pivot test scale-invariant, so mixed
    # magnitudes (GDP levels next to an intercept) are not mistaken for
    # collinearity; the solution itself is unchanged by diagonal scaling
    norms = np.linalg.norm(X, axis=0)
    if (norms == 0.0).any():
        raise RankDeficient("zero column in the design matrix")
    scaled = X / norms
    if Y is None:
        q, r = np.linalg.qr(scaled)
    else:
        q, r = None, np.linalg.qr(np.column_stack([scaled, Y]), mode="r")
    pivots = np.abs(np.diag(r)[:k])
    if pivots.size and pivots.min() < PIVOT_RTOL * pivots.max():
        raise RankDeficient(
            f"relative pivot {pivots.min() / pivots.max():.3e} below threshold"
        )
    return q, r, norms


def qr_least_squares(X: np.ndarray, y: np.ndarray) -> LeastSquaresFit:
    """Solve min ||X b - y|| via QR, failing loudly on collinear regressors
    (see :func:`_factor` for the checks)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    q, r, norms = _factor(X)
    beta = np.linalg.solve(r, q.T @ y)
    if beta.ndim == 1:
        beta = beta / norms
    else:
        beta = beta / norms[:, None]
    residuals = y - X @ beta
    ssr = np.einsum("i...,i...->...", residuals, residuals)
    return LeastSquaresFit(beta, residuals, ssr, n - k)


def prefix_cross_products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Residual cross-products of Y regressed on every leading-column prefix
    of X, from one factorization.

    Entry ``j`` belongs to the regression on ``X[:, :j]``, ``j = 0..k``: the
    SSR for a 1-d ``Y`` (shape ``(k+1,)``), ``E_j' E_j`` for a ``(n, m)``
    ``Y`` (shape ``(k+1, m, m)``). With ``R = [[R11, R12], [0, R22]]`` the R
    factor of ``[X / norms, Y]``, ``E_j' E_j = R12[j:]' R12[j:] + R22' R22``
    (Golub & Van Loan, *Matrix Computations*, 5.3): a sum of positive
    semidefinite terms, so nothing cancels against ``||Y||^2``.

    The checks are :func:`qr_least_squares`'s on the full X, and they decide
    every prefix too: each scaled column has unit norm, so ``|R_11| = 1 >=
    |R_jj|``, the ratio test of a prefix is ``min |R_jj| < PIVOT_RTOL`` over
    its own pivots, and the full design fails exactly when some prefix does.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    k = X.shape[1]
    _, r, _ = _factor(X, Y)
    tail = r[:, k:]                     # rows of R12, then of R22
    # a zero row stands for R22 when n == k (the full design fits exactly)
    tail = np.vstack([tail, np.zeros((1, tail.shape[1]))])
    outer = np.einsum("ij,ik->ijk", tail, tail)
    suffix = np.cumsum(outer[::-1], axis=0)[::-1][: k + 1]
    return suffix[:, 0, 0] if Y.ndim == 1 else suffix


def r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(residuals @ residuals) / ss_tot
