"""Small dense regression engines: OLS, weighted least squares, logistic
regression via iteratively reweighted least squares, and one QR factor per
dataset that serves every linear fit among its columns.

Every fit reads its design and response from a few rows: the R of
[design, response], or the block of a ColumnFactor that holds those
columns. ``ols``, ``wls`` and a ColumnFactor's lead columns take R from
``_reflect``: a Householder QR of the design, whose reflectors are then
applied to each further column in turn (Q is never formed), which gives
that column's coordinates (Q'y)[:p] and its trailing rows, the part the
design leaves unexplained. ``np.linalg.qr`` makes the rest: the R of a
ColumnFactor's trailing rows (or of its whole matrix when it has no more
rows than columns), of [design, Y] for a direct ``logistic_irls`` call,
and of a block that is not a leading block of R. One solve,
``_solve_rows``, checks rank and takes the coefficients from those rows.
The design and its R factor share their singular values, so rank is read
from the small R (smallest singular value above 1e-10 times the largest),
and a failed check names the offending columns from the SVDs of R's column
subsets, never from the tall design. A logistic fit reads its rank check
and its linear-probability start from the same R of [design, Y].

ColumnFactor is one QR per world. It holds the R of A = [1, Xep, Cep, Vep,
X, C, V, Y] (a dataset's columns, the measured ones first) and stores each
calibrated column as coordinates on A's columns: X_RC = [1, Xep, Cep, Vep]
gamma has the R column R_meas gamma. With A = QR every design among these
columns is A_S = Q R_S, so a linear fit is a least-squares problem on the
few rows of R_S: coefficients, residual variance, R^2 and the rank check
all come from it, and no linear fit after the factor touches a row. One
entry, ``ColumnFactor.fitted``, fits each column space once per factor,
least squares and logistic alike. A design that is an invertible map M of
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
        raise SingularDesignError.of(_offending_columns(r, column_names))


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
    return RegressionFit(beta, residual_variance=rss / (n - p), r_squared=r2)


def _tall(design, response) -> tuple[np.ndarray, np.ndarray]:
    """The design as a matrix with more rows than columns, and the response
    as a vector with one entry per row."""
    a = _as_design(design)
    n, p = a.shape
    if n <= p:
        raise ParameterError(f"need n > p, got n={n}, p={p}")
    return a, _as_response(response, n)


def _solve_rows(b: np.ndarray, t: np.ndarray, column_names=None) -> np.ndarray:
    """Least squares of t on b, a few rows of an R (or of a factor block)
    that hold the design's and the response's coordinates: the rank check,
    then the triangular system when b is a leading block of R, which is the
    system a tall QR of the design alone solves, else b's own small QR."""
    _check_rank(b, column_names)
    p = b.shape[1]
    if b[p:].any():
        q, rb = np.linalg.qr(b)
        return np.linalg.solve(rb, q.T @ t)
    return np.linalg.solve(b[:p], t[:p])


def _least_squares(a: np.ndarray, y: np.ndarray, column_names=None) -> tuple[np.ndarray, float]:
    """Coefficients and RSS of y on the tall design a, from the R of [a, y]:
    the RSS is the sum of squares of y's trailing rows."""
    p = a.shape[1]
    r = np.empty((p, p + 1))
    z = _reflect(a, [y], r)[:, 0]
    return _solve_rows(r[:, :p], r[:, p], column_names), float(z @ z)


def ols(design, response, column_names=None) -> RegressionFit:
    """Least squares of response on design (intercept column included by the
    caller), summarised by ``_linear_fit`` with TSS centered when the design
    carries a constant column."""
    a, y = _tall(design, response)
    beta, rss = _least_squares(a, y, column_names)
    has_intercept = bool(np.any(_constant_columns(a)))
    tss = float(np.sum((y - y.mean()) ** 2)) if has_intercept else float(y @ y)
    return _linear_fit(beta, rss, tss, *a.shape)


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
    """1 / (1 + exp(-eta)), the package's one logistic function; no eta overflows."""
    return _sigmoid_from(eta, np.exp(-np.abs(eta)))


def _sigmoid_from(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    # with e = exp(-|eta|): 1/(1+e) where eta >= 0 and e/(1+e) elsewhere,
    # so no exp overflows
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _log_likelihood(y: np.ndarray, eta: np.ndarray, e: np.ndarray) -> float:
    # sum of y*eta - log(1 + exp(eta)), stably: log(1 + exp(eta)) =
    # max(eta, 0) + log1p(exp(-|eta|)), and e = exp(-|eta|) serves here and
    # in _sigmoid_from; for y in {0, 1} this equals -log(1 + exp(-(2y-1) eta))
    # summed, without forming the (2y-1)*eta products. logistic_irls needs it
    # only when a full Newton step fails its concavity check, and for the
    # trace of a fit that does not converge
    return float(y @ eta - np.maximum(eta, 0.0).sum() - np.log1p(e).sum())


def _log_likelihood_at(a: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    eta = a @ beta
    return _log_likelihood(y, eta, np.exp(-np.abs(eta)))


def logistic_irls(design, response, column_names=None, r=None) -> RegressionFit:
    """Maximum-likelihood logistic regression.

    ``r`` holds the coordinates of [design, response] on a few rows: the R
    of that matrix's QR, or the block of a ColumnFactor that holds those
    columns; a direct call factorises [design, response] itself. The rank
    check reads the design's columns of ``r``. A design with a constant
    column starts from the linear-probability fit b read from ``r`` (least
    squares of the response on the design), linearised on the logit scale
    about the mean p: logit(p) + (a b - p) / (p (1 - p)), which saves about
    one Newton step; any other design starts from zero.

    Newton steps, each halved while it would lower the log-likelihood l
    by more than a noise allowance of 1e-10 (|l| + 1); converged when every
    score component is below 1e-6. l is concave, so along a step s the
    slope of phi(t) = l(beta + t s) does not increase: when phi'(1), the
    score at beta + s times s, is >= 0, then phi(1) >= phi(0). A full step
    that passes this check is accepted on that one dot product, and its
    score serves the next pass. Only a step that fails it (a NaN fails too)
    computes l, at beta and at each candidate, and halves as above. A
    converged linear predictor that puts no row on the wrong side of zero,
    (2y - 1) eta >= 0 up to rounding, separates the response: no finite
    MLE exists, and SeparationError is raised. A fit that reaches the
    iteration cap raises ConvergenceError with the trace of l at the start
    and after each accepted step.
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
    if r is None:
        r = np.linalg.qr(np.column_stack([a, y]), mode="r")

    const_cols = np.flatnonzero(_constant_columns(a))
    if const_cols.size:
        j = const_cols[0]
        ybar = y.mean()
        var = ybar * (1.0 - ybar)
        beta = _solve_rows(r[:, :p], r[:, p], column_names) / var
        beta[j] += (np.log(ybar / (1.0 - ybar)) - ybar / var) / a[0, j]
    else:
        _check_rank(r[:, :p], column_names)
        beta = np.zeros(p)
    eta = a @ beta
    e = np.exp(-np.abs(eta))
    mu = _sigmoid_from(eta, e)
    score = a.T @ (y - mu)
    # l at beta when a failed check has computed it, else None
    ll = None
    accepted = [beta]

    # every check reads the score at the top of its pass: a separated
    # optimum is reported even at the iteration cap
    for it in range(IRLS_MAX_ITER + 1):
        max_score = np.max(np.abs(score))
        if max_score < IRLS_TOL:
            # at a stationary point with eta != 0 some margin (2y - 1) eta
            # is negative unless eta's direction separates the classes, and
            # then the likelihood has no finite maximum (Albert & Anderson
            # 1984); a saturated fit has every margin positive
            if np.min((2.0 * y - 1.0) * eta) > -1e-9 * np.max(np.abs(eta)):
                raise SeparationError(
                    "the fitted linear predictor puts no row on the wrong side of zero; "
                    "the response is perfectly separated and no finite MLE exists"
                )
            return RegressionFit(
                coefficients=beta, iterations=it, linear_predictor=eta, fitted=mu
            )
        if it == IRLS_MAX_ITER:
            raise ConvergenceError(
                f"IRLS did not converge in {IRLS_MAX_ITER} iterations "
                f"(max |score| = {max_score:.3g})",
                trace=[_log_likelihood_at(a, y, b) for b in accepted],
            )
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        h = (a * w[:, None]).T @ a
        try:
            step = np.linalg.solve(h, score)
        except np.linalg.LinAlgError:
            raise SeparationError("information matrix is singular (separation?)") from None
        cand = beta + step
        cand_eta = a @ cand
        cand_e = np.exp(-np.abs(cand_eta))
        cand_mu = _sigmoid_from(cand_eta, cand_e)
        cand_score = a.T @ (y - cand_mu)
        cand_ll = None
        if not (cand_score @ step >= 0.0):
            # step-halving on likelihood decrease; decreases within float
            # resolution of the log-likelihood magnitude are accepted so the
            # final Newton steps are not rejected as noise
            if ll is None:
                ll = _log_likelihood(y, eta, e)
            noise = 1e-10 * (abs(ll) + 1.0)
            scale = 1.0
            for k in range(30):
                if k:
                    cand = beta + scale * step
                    cand_eta = a @ cand
                    cand_e = np.exp(-np.abs(cand_eta))
                cand_ll = _log_likelihood(y, cand_eta, cand_e)
                if cand_ll >= ll - noise:
                    break
                scale *= 0.5
            if scale != 1.0:
                cand_mu = _sigmoid_from(cand_eta, cand_e)
                cand_score = a.T @ (y - cand_mu)
        beta, eta, e, mu, score, ll = cand, cand_eta, cand_e, cand_mu, cand_score, cand_ll
        accepted.append(beta)


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


def _reflect(a: np.ndarray, others: list, r: np.ndarray) -> np.ndarray:
    """The one Householder QR kernel. Write into r's first p rows the R of
    the tall design a and the other columns' coordinates on it, (Q'c)[:p];
    return the other columns' trailing rows, (Q'c)[p:], the part of them a
    leaves unexplained, one contiguous column each. Q is never formed:
    reflector j of the raw QR is I - tau_j v v' with v = (1, h[j, j+1:]),
    acting on entries j onwards, and the reflectors are applied in place to
    one copy of the other columns. The reflectors die here, before the
    caller factorises the trailing rows: with every tall array of a world's
    factor live at once, a table4 world took some 360 page faults to build
    it, and none this way."""
    h, tau = np.linalg.qr(a, mode="raw")
    p = tau.size
    r[:p, :p] = np.triu(h[:, :p].T)
    z = np.empty((a.shape[0], len(others)), order="F")
    for k, c in enumerate(others):
        z[:, k] = c
        col = z[:, k]
        for j, t in enumerate(tau):
            v = h[j, j + 1:]
            w = t * (col[j] + v @ col[j + 1:])
            col[j] -= w
            col[j + 1:] -= w * v
    r[:p, p:] = z[:p]
    return z[p:]


class ColumnFactor:
    """The R of one Householder QR of A = [1, lead columns, other columns],
    with further columns stored as coordinates on A's columns.

    Any design whose columns are A's columns, or linear combinations of
    them, is A_S = Q R_S with R_S = R times the design's coordinates, so
    ``fit`` solves a linear fit on R_S's few rows. The lead columns are
    factorised first and the other columns reflected, by ``_reflect`` as
    ``ols`` runs it on [design, response]; so a fit on [1, lead columns]
    solves the triangular system ``ols`` solves and has its coefficients.
    The trailing rows of the other columns then get a QR of their own,
    which completes R.

    A factor memoises its fits (``fitted``): every factor derived from it
    shares them, keyed by the fit's kind and the fitted columns' coordinates.
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
            trailing = _reflect(_with_intercept(n, cols[: p - 1]), cols[p - 1:], r)
            if others:
                r[p:, p:] = np.linalg.qr(trailing, mode="r")
        unit = np.eye(width)
        return cls(names, r, n, {name: unit[:, j] for j, name in enumerate(names)}, {})

    def derive(self, coordinates: dict) -> "ColumnFactor":
        """A factor that also holds the given columns, each a linear
        combination {column: coefficient} of this factor's columns; it
        shares R and the memoised fits."""
        known = dict(self._coordinates)
        for name, combination in coordinates.items():
            known[name] = sum(
                (coef * self._coordinate(src) for src, coef in combination.items()),
                np.zeros(len(self.names)),
            )
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

    def fitted(self, kind: str, design, response: str, solve) -> RegressionFit:
        """The ``kind`` fit of the response column on the design's columns,
        made once per factor.

        The design is fitted on its basis: the columns of A that its
        coordinates rest on, in A's order. ``solve(basis)`` runs once per
        (kind, coordinates of the basis and the response), for this factor
        and every factor derived from it. A design that is an invertible map
        M of its basis, design = basis M, has the basis fit's fitted values
        and the coefficients M^-1 beta_basis; a singular M is a
        rank-deficient design, reported by its columns. A design that is its
        own basis, or rests on more columns than it has, is fitted as it is.
        """
        design = tuple(design)
        c = self.coordinates(design)
        support = np.flatnonzero(np.any(c != 0, axis=1))
        basis = tuple(self.names[i] for i in support) if support.size == len(design) else design
        key = (kind, self.coordinates((*basis, response)).tobytes())
        if key not in self._fits:
            self._fits[key] = solve(basis)
        fit = self._fits[key]
        if basis == design:
            return fit
        _check_rank(self.r @ c, design)
        return replace(fit, coefficients=np.linalg.solve(c[support], fit.coefficients))

    def fit(self, design, response: str) -> RegressionFit:
        """Least squares of the response column on the design's columns,
        from R alone, through ``fitted``."""
        return self.fitted("ols", design, response, lambda basis: self._solve(basis, response))

    def _solve(self, design: tuple[str, ...], response: str) -> RegressionFit:
        """The fit on R's rows, summarised by ``_linear_fit`` with TSS
        centred when the design holds the intercept, A's first column."""
        n, p = self.n, len(design)
        if n <= p:
            raise ParameterError(f"need n > p, got n={n}, p={p}")
        bt = self.block((*design, response))
        b, t = bt[:, :p], bt[:, p]
        beta = _solve_rows(b, t, design)
        resid = t - b @ beta
        tss = float(t[1:] @ t[1:]) if INTERCEPT in design else float(t @ t)
        return _linear_fit(beta, float(resid @ resid), tss, n, p)
