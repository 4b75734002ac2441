"""Small dense regression engines: OLS, weighted least squares, and logistic
regression via iteratively reweighted least squares.

Linear solves go through a Householder QR decomposition rather than the
normal equations. Q is never formed: each response column has the p
Householder reflectors applied to it in turn, which gives Q'y, and the
coefficients solve R beta = (Q'y)[:p]. One QR serves every response that
shares a design. The design and its R factor share their singular values,
so rank is read from the small p x p R (smallest singular value above 1e-10
times the largest), for logistic fits too; only a failed check scans the
design to name the offending columns.

Designs are column-major (Fortran order): ``design_with_intercept`` writes
its columns into one in place. The passes these kernels make run down
columns: the reflector rows the raw QR returns are contiguous only for a
column-major design, the constant-column reduction runs along axis 0, and
the IRLS products ``a @ beta``, ``a.T @ r`` and the weighted Hessian
``(a*w).T @ a`` read whole columns; the Hessian of a row-major 10^4 x 4
design took more than twice as long.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _as_response(response, n: int) -> np.ndarray:
    """The response as floats: a vector, or an (n, k) matrix of k responses,
    with one row per design row."""
    y = np.asarray(response, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != n:
        rows = y.shape[0] if y.ndim else 0
        raise ParameterError(f"response has {rows} rows but the design has {n}")
    return y


def _constant_columns(a: np.ndarray) -> np.ndarray:
    """Boolean mask of the design's constant columns. The reduction runs
    down a column-major array: along axis 0 of a row-major tall design it
    would loop over rows only p elements long. For the package's own
    designs, which are column-major already, the conversion copies nothing."""
    return np.ptp(np.asfortranarray(a), axis=0) == 0


def _check_rank(design: np.ndarray, factor: np.ndarray, column_names=None) -> None:
    """Raise SingularDesignError naming the offending columns when the design
    is rank deficient. ``factor`` is the R of the design's QR, which has the
    design's singular values in a p x p matrix."""
    sv = np.linalg.svd(factor, compute_uv=False)
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
    n, p = a.shape
    if n <= p:
        raise ParameterError(f"need n > p, got n={n}, p={p}")
    y = _as_response(response, n)
    # raw mode returns the reflectors and R in h (p x n) without forming Q
    h, tau = np.linalg.qr(a, mode="raw")
    r = np.triu(h[:, :p].T)
    _check_rank(a, r, column_names)
    has_intercept = bool(np.any(_constant_columns(a)))
    if y.ndim == 2:
        return [_solve_qr(a, h, tau, r, col, has_intercept) for col in np.ascontiguousarray(y.T)]
    return _solve_qr(a, h, tau, r, y, has_intercept)


def _apply_qt(h: np.ndarray, tau: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(Q'y)[:p] for one response vector: reflector j is I - tau_j v v' with
    v = (1, h[j, j+1:]) acting on entries j onwards."""
    z = y.copy()
    for j, t in enumerate(tau):
        v = h[j, j + 1:]
        w = t * (z[j] + v @ z[j + 1:])
        z[j] -= w
        z[j + 1:] -= w * v
    return z[: tau.size]


def _solve_qr(a, h, tau, r, y, has_intercept: bool) -> RegressionFit:
    n, p = a.shape
    beta = np.linalg.solve(r, _apply_qt(h, tau, y))
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
    y = _as_response(response, a.shape[0])
    w = np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise ParameterError("weights must match the response length")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ParameterError("weights must be positive and finite")
    sw = np.sqrt(w)
    fit = ols(a * sw[:, None], y * sw, column_names=column_names)
    # the scaled fit's residuals are sqrt(w_i) r_i, so its RSS is already the
    # weighted sum_i w_i r_i^2; only the TSS needs the weighted geometry
    n, p = a.shape
    rss = fit.residual_variance * (n - p)
    ybar = float(w @ y / w.sum())
    tss = float(w @ (y - ybar) ** 2)
    r2 = 0.0 if tss == 0 else max(0.0, min(1.0, 1.0 - rss / tss))
    return replace(fit, r_squared=r2)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return _sigmoid_from(eta, np.exp(-np.abs(eta)))


def _sigmoid_from(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    # with e = exp(-|eta|): 1/(1+e) where eta >= 0 and e/(1+e) elsewhere,
    # so no exp overflows
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _log_likelihood(y: np.ndarray, eta: np.ndarray, e: np.ndarray) -> float:
    # sum of y*eta - log(1 + exp(eta)), stably: log(1 + exp(eta)) =
    # max(eta, 0) + log1p(exp(-|eta|)), and e = exp(-|eta|) serves here and
    # in _sigmoid_from; for y in {0, 1} this equals -log(1 + exp(-(2y-1) eta))
    # summed, without forming the (2y-1)*eta products
    return float(y @ eta - np.maximum(eta, 0.0).sum() - np.log1p(e).sum())


def logistic_irls(design, response, column_names=None) -> RegressionFit:
    """Maximum-likelihood logistic regression.

    Starts from zero slopes with the intercept at logit(mean(y)), Newton
    steps with step-halving whenever the log-likelihood would decrease,
    converged when every score component is below 1e-6.
    """
    # every product below runs down the design's columns
    a = np.asfortranarray(_as_design(design))
    n, p = a.shape
    if n <= p:
        raise ParameterError(f"need n > p, got n={n}, p={p}")
    y = _as_response(response, n)
    if y.ndim != 1:
        raise ParameterError("logistic response must be a vector")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ParameterError("logistic response must be coded 0/1")
    events = y.sum()
    if events == 0 or events == n:
        raise ParameterError("logistic response is constant")
    _check_rank(a, np.linalg.qr(a, mode="r"), column_names)

    beta = np.zeros(p)
    const_cols = np.flatnonzero(_constant_columns(a))
    if const_cols.size:
        j = const_cols[0]
        beta[j] = np.log(y.mean() / (1.0 - y.mean())) / a[0, j]
    eta = a @ beta
    e = np.exp(-np.abs(eta))
    ll = _log_likelihood(y, eta, e)
    mu = _sigmoid_from(eta, e)
    trace = [ll]

    # one score per pass, read by every check at its top: a saturated optimum
    # is separation even at the iteration cap
    for it in range(IRLS_MAX_ITER + 1):
        score = a.T @ (y - mu)
        max_score = np.max(np.abs(score))
        if max_score < IRLS_TOL:
            if np.max(np.abs(y - mu)) < 1e-6:
                # the "optimum" is a saturated perfect fit, which only an
                # unbounded likelihood produces
                raise SeparationError(
                    "fitted probabilities reproduce the response exactly; "
                    "the response is perfectly separated"
                )
            return RegressionFit(coefficients=beta, converged=True, iterations=it)
        if np.linalg.norm(beta) > SEPARATION_NORM:
            raise SeparationError(
                "coefficients diverged with an undiminished gradient; "
                "the response looks perfectly separated"
            )
        if it == IRLS_MAX_ITER:
            raise ConvergenceError(
                f"IRLS did not converge in {IRLS_MAX_ITER} iterations "
                f"(max |score| = {max_score:.3g})",
                trace=trace,
            )
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
            cand_e = np.exp(-np.abs(cand_eta))
            cand_ll = _log_likelihood(y, cand_eta, cand_e)
            if cand_ll >= ll - noise:
                break
            scale *= 0.5
        beta, eta, ll = cand, cand_eta, cand_ll
        mu = _sigmoid_from(eta, cand_e)
        trace.append(ll)


def design_with_intercept(*columns) -> np.ndarray:
    """Stack columns after a leading ones column, into a column-major array
    written in place (no row-major intermediate to convert)."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].shape[0] if cols else 0
    # the writes below would broadcast a length-1 column down all n rows
    if any(c.shape != (n,) for c in cols):
        raise ParameterError("design columns must be vectors of equal length")
    out = np.empty((n, len(cols) + 1), order="F")
    out[:, 0] = 1.0
    for j, c in enumerate(cols, start=1):
        out[:, j] = c
    return out
