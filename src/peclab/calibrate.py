"""Multiple regression calibration.

Condition one fits two models (true X and true C, each on every error-prone
column); condition two adds the V model and Vep as a regressor everywhere.
A calibrated column is the fit's linear predictor, X_RC = [1, Xep, Cep, Vep]
gamma_X, so its coordinates gamma_X describe it; the truth then decomposes as
truth = calibrated + residual with the residual uncorrelated with every
regressor, i.e. pure Berkson form.

The fits come from the dataset's one QR factor (``Dataset.factor``), whose
leading block is the calibration design [1, Xep, Cep, Vep], so each target
is a triangular solve on R with the coefficients ``ols`` gives that design.
X_RC, C_RC, V_RC join the dataset's factor as coordinates (``with_coordinates``
builds it if absent): the factor and every fit made on it serve the calibrated
designs without a new QR, and a calibrated column's rows are built when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SchemaError
from .model import Dataset
# ols stays bound here: perfbench/spans.py wraps calibrate.ols by name
from .regress import INTERCEPT, RegressionFit, ols  # noqa: F401

# target true column -> (measured column, calibrated column)
_TARGETS = {"X": ("Xep", "X_RC"), "C": ("Cep", "C_RC"), "V": ("Vep", "V_RC")}
_CONDITION_TARGETS = {"one": ("X", "C"), "two": ("X", "C", "V")}


@dataclass(frozen=True)
class CalibrationFit:
    target: str
    regressors: tuple[str, ...]
    coefficients: RegressionFit
    residual_sd: float

    @property
    def calibrated_name(self) -> str:
        return _TARGETS[self.target][1]

    @property
    def coordinates(self) -> dict[str, float]:
        """The calibrated column as a combination of the dataset's columns."""
        names = (INTERCEPT, *self.regressors)
        return {c: float(g) for c, g in zip(names, self.coefficients.coefficients)}


def fit_calibration(
    validation: Dataset,
    condition: str = "two",
    validation_fraction: float | None = None,
) -> list[CalibrationFit]:
    """One fit per target the condition requires and the data supports.

    Each true variable is regressed on ALL error-prone variables present
    (cross terms included), from the dataset's factor. Targets whose true
    column is absent from the dataset are skipped only if their measured
    column is also absent; a measured column without its truth is a
    validation-data error. ``residual_sd`` is the square root of the fit's
    residual variance, RSS/(n - p), read from R.

    ``validation_fraction`` fits on the leading fraction of rows (split
    designs); the default uses the full sample.
    """
    if condition not in _CONDITION_TARGETS:
        raise ParameterError("condition must be 'one' or 'two'")
    targets = []
    for t in _CONDITION_TARGETS[condition]:
        measured = _TARGETS[t][0]
        if t in validation:
            if measured in validation:
                targets.append(t)
        elif measured in validation:
            raise SchemaError(
                f"validation data has {measured} but no true column {t}"
            )
    if not targets:
        raise SchemaError("validation data contains no (true, measured) pairs")

    d = validation
    if validation_fraction is not None:
        if not 0.0 < validation_fraction <= 1.0:
            raise ParameterError("validation_fraction must be in (0, 1]")
        m = max(int(round(validation_fraction * validation.n)), 2)
        d = Dataset({name: validation[name][:m] for name in validation.names})

    regressors = tuple(_TARGETS[t][0] for t in targets)
    names = (INTERCEPT, *regressors)
    factor = d.factor()
    fits = {t: factor.fit(names, t) for t in targets}
    return [CalibrationFit(t, regressors, f, math.sqrt(f.residual_variance)) for t, f in fits.items()]


def apply_calibration(fits: list[CalibrationFit], d: Dataset) -> Dataset:
    """Add the calibrated columns as coordinates on the columns they
    combine; no rows are written, and true columns are untouched."""
    return d.with_coordinates({fit.calibrated_name: fit.coordinates for fit in fits})
