"""Small dense regression engines: OLS, weighted least squares, and logistic
regression via iteratively reweighted least squares.

Linear solves go through a QR decomposition rather than the normal equations.
The design and its R factor share their singular values, so least-squares
rank is read from the small p x p R (smallest singular value above 1e-10
times the largest); only a failed check scans the design to name the
offending columns. One QR serves every response that shares a design.
Logistic fits factorise no design, so they check rank on the design itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, SeparationError, SingularDesignError

RANK_RTOL = 1e-10
IRLS_TOL = 1e-6
IRLS_MAX_ITER = 100
SEPARATION_NORM = 1e3


@dataclass(frozen=True)
class RegressionFit:
    """Fitted coefficients plus the diagnostics estimators rely on.

    residual_variance and r_squared are populated for linear fits,
    iterations for logistic fits.
    """

    coefficients: np.ndarray
    residual_variance: float = 0.0
    r_squared: float = 0.0
    converged: bool = True
    iterations: int = 0

    def predict(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design, dtype=float) @ self.coefficients

    def predict_proba(self, design: np.ndarray) -> np.ndarray:
        return _sigmoid(self.predict(design))


def _as_design(design) -> np.ndarray:
    a = np.asarray(design, dtype=float)
    if a.ndim != 2:
        raise ParameterError("design must be a 2-d matrix")
    return a


def _check_rank(design: np.ndarray, column_names=None, factor=None) -> None:
    """Raise SingularDesignError naming the offending columns when the design
    is rank deficient. ``factor`` is a matrix with the design's singular
    values (its QR's R), checked in place of the design when given."""
    sv = np.linalg.svd(design if factor is None else factor, compute_uv=False)
    if sv[0] == 0 or sv[-1] <= RANK_RTOL * sv[0]:
        bad = _offending_columns(design, column_names)
        raise SingularDesignError(
            f"design matrix is rank deficient (offending columns: {', '.join(bad)})",
            columns=bad,
        )


def _offending_columns(design: np.ndarray, column_names=None) -> list[str]:
    """Columns whose addition does not increase numerical rank (greedy scan)."""
    names = column_names or [f"col{i}" for i in range(design.shape[1])]
    bad = []
    kept = np.empty((design.shape[0], 0))
    for i in range(design.shape[1]):
        trial = np.column_stack([kept, design[:, i]])
        sv = np.linalg.svd(trial, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            bad.append(str(names[i]))
        else:
            kept = trial
    return bad


def ols(design, response, column_names=None) -> RegressionFit | list[RegressionFit]:
    """Least squares of response on design (intercept column included by the
    caller). residual_variance = RSS/(n-p); r_squared = 1 - RSS/TSS with TSS
    centered when the design carries a constant column.

    ``response`` is a vector, or an (n, k) matrix of k responses that share
    the design: the design is factorised once and a list of k fits, one per
    column, is returned. Each column is solved on its own, so its fit equals
    the fit of that column alone.
    """
    a = _as_design(design)
    y = np.asarray(response, dtype=float)
    n, p = a.shape
    if n <= p:
        raise ParameterError(f"need n > p, got n={n}, p={p}")
    q, r = np.linalg.qr(a)
    _check_rank(a, column_names, factor=r)
    has_intercept = bool(np.any(np.ptp(a, axis=0) == 0))
    if y.ndim == 2:
        return [_solve_qr(a, q, r, col, has_intercept) for col in np.ascontiguousarray(y.T)]
    return _solve_qr(a, q, r, y, has_intercept)


def _solve_qr(a, q, r, y, has_intercept: bool) -> RegressionFit:
    n, p = a.shape
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - a @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2)) if has_intercept else float(y @ y)
    r2 = 0.0 if tss == 0 else max(0.0, min(1.0, 1.0 - rss / tss))
    return RegressionFit(
        coefficients=beta,
        residual_variance=rss / (n - p),
        r_squared=r2,
        converged=True,
        iterations=1,
    )


def wls(design, response, weights, column_names=None) -> RegressionFit:
    """Minimize sum_i w_i (y_i - x_i' beta)^2 for strictly positive weights."""
    a = _as_design(design)
    y = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise ParameterError("weights must match the response length")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ParameterError("weights must be positive and finite")
    sw = np.sqrt(w)
    fit = ols(a * sw[:, None], y * sw, column_names=column_names)
    # recompute the goodness-of-fit pieces in the weighted geometry
    resid = y - a @ fit.coefficients
    rss = float(w @ resid**2)
    ybar = float(w @ y / w.sum())
    tss = float(w @ (y - ybar) ** 2)
    r2 = 0.0 if tss == 0 else max(0.0, min(1.0, 1.0 - rss / tss))
    n, p = a.shape
    return RegressionFit(
        coefficients=fit.coefficients,
        residual_variance=rss / (n - p),
        r_squared=r2,
        converged=True,
        iterations=1,
    )


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _log_likelihood(y: np.ndarray, eta: np.ndarray) -> float:
    # log p for y=1 and log(1-p) for y=0, stably: -log(1 + exp(-(2y-1) eta)),
    # with log(1 + exp(-s)) = max(-s, 0) + log1p(exp(-|s|)) (logaddexp(0, -s)
    # computed without its general-case branching)
    s = (2.0 * y - 1.0) * eta
    return float(-np.sum(np.maximum(-s, 0.0) + np.log1p(np.exp(-np.abs(s)))))


def logistic_irls(design, response, column_names=None) -> RegressionFit:
    """Maximum-likelihood logistic regression.

    Starts from zero slopes with the intercept at logit(mean(y)), Newton
    steps with step-halving whenever the log-likelihood would decrease,
    converged when every score component is below 1e-6.
    """
    a = _as_design(design)
    y = np.asarray(response, dtype=float)
    n, p = a.shape
    if n <= p:
        raise ParameterError(f"need n > p, got n={n}, p={p}")
    uniq = np.unique(y)
    if not np.all(np.isin(uniq, (0.0, 1.0))):
        raise ParameterError("logistic response must be coded 0/1")
    if uniq.size < 2:
        raise ParameterError("logistic response is constant")
    _check_rank(a, column_names)

    beta = np.zeros(p)
    const_cols = np.flatnonzero(np.ptp(a, axis=0) == 0)
    if const_cols.size:
        j = const_cols[0]
        beta[j] = np.log(y.mean() / (1.0 - y.mean())) / a[0, j]
    eta = a @ beta
    ll = _log_likelihood(y, eta)
    trace = [ll]

    for it in range(1, IRLS_MAX_ITER + 1):
        mu = _sigmoid(eta)
        score = a.T @ (y - mu)
        if np.max(np.abs(score)) < IRLS_TOL:
            if np.max(np.abs(y - mu)) < 1e-6:
                # the "optimum" is a saturated perfect fit, which only an
                # unbounded likelihood produces
                raise SeparationError(
                    "fitted probabilities reproduce the response exactly; "
                    "the response is perfectly separated"
                )
            return RegressionFit(coefficients=beta, converged=True, iterations=it - 1)
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        h = (a * w[:, None]).T @ a
        try:
            step = np.linalg.solve(h, score)
        except np.linalg.LinAlgError:
            raise SeparationError("information matrix is singular (separation?)") from None
        # step-halving on likelihood decrease; decreases within float
        # resolution of the log-likelihood magnitude are accepted so the
        # final Newton steps are not rejected as noise
        noise = 1e-10 * (abs(ll) + 1.0)
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_eta = a @ cand
            cand_ll = _log_likelihood(y, cand_eta)
            if cand_ll >= ll - noise:
                break
            scale *= 0.5
        beta, eta, ll = cand, cand_eta, cand_ll
        trace.append(ll)
        if np.linalg.norm(beta) > SEPARATION_NORM:
            mu = _sigmoid(eta)
            if np.max(np.abs(a.T @ (y - mu))) > IRLS_TOL:
                raise SeparationError(
                    "coefficients diverged with an undiminished gradient; "
                    "the response looks perfectly separated"
                )

    mu = _sigmoid(eta)
    score = a.T @ (y - mu)
    if np.max(np.abs(score)) < IRLS_TOL:
        return RegressionFit(coefficients=beta, converged=True, iterations=IRLS_MAX_ITER)
    raise ConvergenceError(
        f"IRLS did not converge in {IRLS_MAX_ITER} iterations "
        f"(max |score| = {np.max(np.abs(score)):.3g})",
        trace=trace,
    )


def design_with_intercept(*columns) -> np.ndarray:
    """Stack columns after a leading ones column."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].shape[0] if cols else 0
    return np.column_stack([np.ones(n)] + cols)
