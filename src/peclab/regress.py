"""Small dense regression engines: OLS, weighted least squares, logistic
regression via iteratively reweighted least squares, and one QR factor per
dataset that serves every linear fit among its columns.

Linear solves go through a Householder QR decomposition rather than the
normal equations. Q is never formed: the response has the p Householder
reflectors applied to it in turn, which gives Q'y, and the coefficients
solve R beta = (Q'y)[:p]. The design and its R factor share their singular
values, so rank is read from the small R (smallest singular value above
1e-10 times the largest), for logistic fits too, and a failed check names
the offending columns from the SVDs of R's column subsets, never from the
tall design.

ColumnFactor is one QR per world. It holds the R of A = [1, Xep, Cep, Vep,
X, C, V, Y] (a dataset's columns, the measured ones first) and stores each
calibrated column as coordinates on A's columns: X_RC = [1, Xep, Cep, Vep]
gamma has the R column R_meas gamma. With A = QR every design among these
columns is A_S = Q R_S, so a linear fit is a least-squares problem on the
few rows of R_S: coefficients, residual variance, R^2 and the rank check
all come from it, and no linear fit after the factor touches a row. Each column
space is fitted once per factor. A design that is an invertible map M of
the columns its coordinates rest on, design = basis M, takes that basis
fit: beta = M^-1 beta_basis, with the same fitted values, so regression
calibration's [1, X_RC, C_RC, V_RC] reuses the fit on [1, Xep, Cep, Vep],
linear or logistic, and a singular M is a rank-deficient design.

Designs are column-major (Fortran order): ``design_with_intercept`` writes
its columns into one in place. The passes these kernels make run down
columns: the reflector rows the raw QR returns are contiguous only for a
column-major design, the constant-column reduction runs along axis 0, and
the IRLS products ``a @ beta``, ``a.T @ r`` and the weighted Hessian
``(a*w).T @ a`` read whole columns; the Hessian of a row-major 10^4 x 4
design took more than twice as long.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConvergenceError,
    ParameterError,
    SchemaError,
    SeparationError,
    SingularDesignError,
)

RANK_RTOL = 1e-10
IRLS_TOL = 1e-6
IRLS_MAX_ITER = 100
SEPARATION_NORM = 1e3
INTERCEPT = "intercept"


@dataclass(frozen=True)
class RegressionFit:
    """Fitted coefficients plus the diagnostics estimators rely on.

    residual_variance and r_squared are populated for linear fits;
    iterations, the final linear predictor and the fitted probabilities
    for logistic fits.
    """

    coefficients: np.ndarray
    residual_variance: float = 0.0
    r_squared: float = 0.0
    iterations: int = 0
    linear_predictor: np.ndarray | None = field(default=None, repr=False, compare=False)
    fitted: np.ndarray | None = field(default=None, repr=False, compare=False)

    def predict(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design, dtype=float) @ self.coefficients


def _as_design(design) -> np.ndarray:
    a = np.asarray(design, dtype=float)
    if a.ndim != 2:
        raise ParameterError("design must be a 2-d matrix")
    return a


def _as_response(response, n: int) -> np.ndarray:
    """The response as a float vector with one entry per design row."""
    y = np.asarray(response, dtype=float)
    if y.ndim != 1:
        raise ParameterError(f"response must be a vector, got {y.ndim} dimension(s)")
    if y.shape[0] != n:
        raise ParameterError(f"response has {y.shape[0]} rows but the design has {n}")
    return y


def _constant_columns(a: np.ndarray) -> np.ndarray:
    """Boolean mask of the design's constant columns. The reduction runs
    down a column-major array: along axis 0 of a row-major tall design it
    would loop over rows only p elements long. For the package's own
    designs, which are column-major already, the conversion copies nothing."""
    return np.ptp(np.asfortranarray(a), axis=0) == 0


def _check_rank(r: np.ndarray, column_names=None) -> None:
    """Raise SingularDesignError naming the offending columns when the design
    is rank deficient. ``r`` has one column per design column and the
    design's singular values: the R of the design's QR, or the block of a
    ColumnFactor that holds its columns. Each column subset of ``r`` has the
    singular values of the same subset of the design, so the columns are
    named from ``r`` too."""
    sv = np.linalg.svd(r, compute_uv=False)
    if sv[0] == 0 or sv[-1] <= RANK_RTOL * sv[0]:
        bad = _offending_columns(r, column_names)
        raise SingularDesignError(
            f"design matrix is rank deficient (offending columns: {', '.join(bad)})",
            columns=bad,
        )


def _offending_columns(r: np.ndarray, column_names=None) -> list[str]:
    """Columns whose addition does not increase numerical rank (greedy scan)."""
    names = column_names or [f"col{i}" for i in range(r.shape[1])]
    bad = []
    kept = np.empty((r.shape[0], 0))
    for i in range(r.shape[1]):
        trial = np.column_stack([kept, r[:, i]])
        sv = np.linalg.svd(trial, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            bad.append(str(names[i]))
        else:
            kept = trial
    return bad


def _linear_fit(beta: np.ndarray, rss: float, tss: float, n: int, p: int) -> RegressionFit:
    """The summary of every linear fit: residual_variance = RSS/(n-p) and
    r_squared = 1 - RSS/TSS clipped to [0, 1], 0 when TSS = 0."""
    r2 = 0.0 if tss == 0 else max(0.0, min(1.0, 1.0 - rss / tss))
    return RegressionFit(beta, residual_variance=rss / (n - p), r_squared=r2, iterations=1)


def _tall(design, response) -> tuple[np.ndarray, np.ndarray]:
    """The design as a matrix with more rows than columns, and the response
    as a vector with one entry per row."""
    a = _as_design(design)
    n, p = a.shape
    if n <= p:
        raise ParameterError(f"need n > p, got n={n}, p={p}")
    return a, _as_response(response, n)


def _least_squares(a: np.ndarray, y: np.ndarray, column_names=None) -> tuple[np.ndarray, float]:
    """Coefficients and RSS of y on the tall design a, from its QR."""
    p = a.shape[1]
    # raw mode returns the reflectors and R in h (p x n) without forming Q
    h, tau = np.linalg.qr(a, mode="raw")
    r = np.triu(h[:, :p].T)
    _check_rank(r, column_names)
    beta = np.linalg.solve(r, _apply_qt(h, tau, y)[:p])
    resid = y - a @ beta
    return beta, float(resid @ resid)


def ols(design, response, column_names=None) -> RegressionFit:
    """Least squares of response on design (intercept column included by the
    caller), summarised by ``_linear_fit`` with TSS centered when the design
    carries a constant column."""
    a, y = _tall(design, response)
    beta, rss = _least_squares(a, y, column_names)
    has_intercept = bool(np.any(_constant_columns(a)))
    tss = float(np.sum((y - y.mean()) ** 2)) if has_intercept else float(y @ y)
    return _linear_fit(beta, rss, tss, *a.shape)


def _apply_qt(h: np.ndarray, tau: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q'y for one response vector, with the full Q of the reflectors:
    reflector j is I - tau_j v v' with v = (1, h[j, j+1:]) acting on entries
    j onwards. The first p entries are R's coordinates of y; the rest hold
    what the design leaves unexplained."""
    z = y.copy()
    for j, t in enumerate(tau):
        v = h[j, j + 1:]
        w = t * (z[j] + v @ z[j + 1:])
        z[j] -= w
        z[j + 1:] -= w * v
    return z


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
    # the scaled fit's residuals are sqrt(w_i) r_i, so its RSS is already the
    # weighted sum_i w_i r_i^2; only the TSS needs the weighted geometry
    beta, rss = _least_squares(*_tall(a * sw[:, None], y * sw), column_names)
    ybar = float(w @ y / w.sum())
    return _linear_fit(beta, rss, float(w @ (y - ybar) ** 2), *a.shape)


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


def logistic_irls(
    design,
    response,
    column_names=None,
    r=None,
    start: Callable[[], np.ndarray] | None = None,
) -> RegressionFit:
    """Maximum-likelihood logistic regression.

    Starts from zero slopes with the intercept at logit(mean(y)), Newton
    steps with step-halving whenever the log-likelihood would decrease,
    converged when every score component is below 1e-6.

    ``start``, when given and the design has a constant column, returns the
    coefficients b of the linear-probability fit (least squares of the
    response on the design). The fit then starts from its logit-scale
    linearisation about the mean p: logit(p) + (a b - p) / (p (1 - p)), which
    saves about one Newton step. It is called after the response and rank
    checks, so it never sees an input they reject.

    The rank check reads ``r``, a matrix with the design's singular values
    (the block of a ColumnFactor that holds the design's columns), or the R
    of the design's own QR when ``r`` is absent.
    """
    # every product below runs down the design's columns
    a, y = _tall(design, response)
    a = np.asfortranarray(a)
    n, p = a.shape
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ParameterError("logistic response must be coded 0/1")
    events = y.sum()
    if events == 0 or events == n:
        raise ParameterError("logistic response is constant")
    _check_rank(np.linalg.qr(a, mode="r") if r is None else r, column_names)

    beta = np.zeros(p)
    const_cols = np.flatnonzero(_constant_columns(a))
    if const_cols.size:
        j = const_cols[0]
        ybar = y.mean()
        offset = np.log(ybar / (1.0 - ybar))
        if start is not None:
            var = ybar * (1.0 - ybar)
            beta = np.asarray(start(), dtype=float) / var
            if beta.shape != (p,):
                raise ParameterError(f"start must give {p} coefficients, got shape {beta.shape}")
            offset -= ybar / var
        beta[j] += offset / a[0, j]
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
            return RegressionFit(
                coefficients=beta, iterations=it, linear_predictor=eta, fitted=mu
            )
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
    written in place (no row-major intermediate to convert). The first
    column sizes the design, so there must be one."""
    if not columns:
        raise ParameterError("a design needs at least one column besides the intercept")
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].shape[0] if cols[0].ndim else 0
    # the writes below would broadcast a length-1 column down all n rows
    if any(c.shape != (n,) for c in cols):
        raise ParameterError("design columns must be vectors of equal length")
    return _with_intercept(n, cols)


def _with_intercept(n: int, cols) -> np.ndarray:
    out = np.empty((n, len(cols) + 1), order="F")
    out[:, 0] = 1.0
    for j, c in enumerate(cols, start=1):
        out[:, j] = c
    return out


def _lead_factor(n: int, lead: list, others: list, r: np.ndarray) -> np.ndarray:
    """Write into r's first p rows the R of the design [1, *lead] and the
    coordinates of the other columns on it, exactly as ``ols`` factorises
    that design and reflects a response; return the other columns' trailing
    rows, the part of them the design leaves unexplained (column-major).
    The tall temporaries die here, before the caller factorises the
    trailing rows: with every tall array of the factor live at once, a
    table4 world took some 360 page faults to build it, and none this way."""
    h, tau = np.linalg.qr(_with_intercept(n, lead), mode="raw")
    p = tau.size
    r[:p, :p] = np.triu(h[:, :p].T)
    trailing = np.empty((n - p, len(others)), order="F")
    for j, c in enumerate(others):
        z = _apply_qt(h, tau, c)
        r[:p, p + j] = z[:p]
        trailing[:, j] = z[p:]
    return trailing


class ColumnFactor:
    """The R of one Householder QR of A = [1, lead columns, other columns],
    with further columns stored as coordinates on A's columns.

    Any design whose columns are A's columns, or linear combinations of
    them, is A_S = Q R_S with R_S = R times the design's coordinates, so
    ``fit`` solves a linear fit on R_S's few rows. The lead columns are
    factorised first, by the Householder QR ``ols`` runs, and the
    reflectors are then applied to the other columns as ``ols`` applies
    them to a response; so a fit on [1, lead columns] solves the triangular
    system ``ols`` solves and has its coefficients. The trailing rows of
    the other columns then get a QR of their own, which completes R.

    A factor memoises its fits: every factor derived from it shares them,
    keyed by the fitted columns' coordinates.
    """

    def __init__(self, names, r, n, coordinates, fits):
        self.names = names
        self.r = r
        self.n = n
        self._coordinates = coordinates
        self._fits = fits

    @classmethod
    def of(cls, lead: dict, others: dict) -> "ColumnFactor":
        """Factorise [1, *lead, *others], dicts of equal-length column vectors."""
        if INTERCEPT in lead or INTERCEPT in others:
            raise SchemaError(f"column name {INTERCEPT!r} is taken by the ones column of every design")
        names = (INTERCEPT, *lead, *others)
        cols = [np.asarray(c, dtype=float) for c in (*lead.values(), *others.values())]
        n, width = cols[0].shape[0], len(names)
        if n <= width:
            # too few rows to split: one QR of the whole, R is n x width
            r = np.linalg.qr(_with_intercept(n, cols), mode="r")
        else:
            r = np.zeros((width, width))
            p = len(lead) + 1
            trailing = _lead_factor(n, cols[: p - 1], cols[p - 1:], r)
            if others:
                h, _ = np.linalg.qr(trailing, mode="raw")
                r[p:, p:] = np.triu(h[:, : width - p].T)
        unit = np.eye(width)
        return cls(names, r, n, {name: unit[:, j] for j, name in enumerate(names)}, {})

    def derive(self, coordinates: dict) -> "ColumnFactor":
        """A factor that also holds the given columns, each a linear
        combination {column: coefficient} of this factor's columns; it
        shares R and the memoised fits."""
        known = dict(self._coordinates)
        for name, combination in coordinates.items():
            known[name] = sum(coef * self._coordinate(src) for src, coef in combination.items())
        return ColumnFactor(self.names, self.r, self.n, known, self._fits)

    def _coordinate(self, column: str) -> np.ndarray:
        try:
            return self._coordinates[column]
        except KeyError:
            raise SchemaError(f"dataset has no column {column!r}") from None

    def coordinates(self, columns) -> np.ndarray:
        """The named columns' coordinates on A's columns, one per column."""
        return np.column_stack([self._coordinate(c) for c in columns])

    def block(self, columns) -> np.ndarray:
        """R_S: the named columns' R columns, which have their singular values."""
        return self.r @ self.coordinates(columns)

    def basis(self, design) -> tuple[tuple[str, ...], np.ndarray | None]:
        """The columns whose fit serves the design, and the map M with
        design = basis M. The basis is the set of A's columns that the
        design's coordinates rest on, in A's order. M is None when the design
        is its own basis or rests on more columns than it has (then it is
        fitted as it is)."""
        design = tuple(design)
        c = self.coordinates(design)
        support = np.flatnonzero(np.any(c != 0, axis=1))
        basis = tuple(self.names[i] for i in support)
        if basis == design or support.size != len(design):
            return design, None
        return basis, c[support]

    def mapped(self, design, m: np.ndarray | None, coefficients: np.ndarray) -> np.ndarray:
        """The design's coefficients from its basis fit's: M^-1 beta_basis.
        A singular M is a rank-deficient design, reported by its columns."""
        if m is None:
            return coefficients
        _check_rank(self.block(design), tuple(design))
        return np.linalg.solve(m, coefficients)

    def memo(self, kind: str, columns, compute):
        """compute(), once per (kind, the columns' coordinates) for this
        factor and every factor derived from it."""
        key = (kind, self.coordinates(columns).tobytes())
        if key not in self._fits:
            self._fits[key] = compute()
        return self._fits[key]

    def fit(self, design, response: str) -> RegressionFit:
        """Least squares of the response column on the design's columns,
        from R alone: the design is fitted on its basis (see ``basis``),
        once per factor, and mapped."""
        design = tuple(design)
        basis, m = self.basis(design)
        fit = self.memo("ols", (*basis, response), lambda: self._solve(basis, response))
        if m is None:
            return fit
        return replace(fit, coefficients=self.mapped(design, m, fit.coefficients))

    def _solve(self, design: tuple[str, ...], response: str) -> RegressionFit:
        """The fit on R's rows, summarised by ``_linear_fit`` with TSS
        centred when the design holds the intercept, A's first column."""
        n, p = self.n, len(design)
        if n <= p:
            raise ParameterError(f"need n > p, got n={n}, p={p}")
        bt = self.block((*design, response))
        b, t = bt[:, :p], bt[:, p]
        _check_rank(b, design)
        if b[p:].any():
            q, rb = np.linalg.qr(b)
            beta = np.linalg.solve(rb, q.T @ t)
        else:
            # a leading block of R is the triangular system ols solves
            beta = np.linalg.solve(b[:p], t[:p])
        resid = t - b @ beta
        tss = float(t[1:] @ t[1:]) if INTERCEPT in design else float(t @ t)
        return _linear_fit(beta, float(resid @ resid), tss, n, p)
