"""Multiple regression calibration.

Condition one fits two models (true X and true C, each on every error-prone
column); condition two adds the V model and Vep as a regressor everywhere.
Applying the fits adds predicted-value columns X_RC, C_RC, V_RC; the truth
then decomposes as truth = calibrated + residual with the residual
uncorrelated with every regressor, i.e. pure Berkson form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SchemaError
from .model import Dataset
from .regress import RegressionFit, ols, design_with_intercept

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

    def predict(self, d: Dataset) -> np.ndarray:
        d.require(*self.regressors)
        return self.coefficients.predict(
            design_with_intercept(*[d[c] for c in self.regressors])
        )


def fit_calibration(
    validation: Dataset,
    condition: str = "two",
    validation_fraction: float | None = None,
) -> list[CalibrationFit]:
    """One OLS fit per target the condition requires and the data supports.

    Each true variable is regressed on ALL error-prone variables present
    (cross terms included). The targets share that design, so one ``ols``
    call factorises it once for all of them. Targets whose true column is
    absent from the dataset are skipped only if their measured column is
    also absent; a measured column without its truth is a validation-data
    error.

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
    design = design_with_intercept(*[d[c] for c in regressors])
    responses = np.column_stack([d[t] for t in targets])
    fits = ols(design, responses, column_names=("intercept",) + regressors)
    return [
        CalibrationFit(
            target=t,
            regressors=regressors,
            coefficients=fit,
            residual_sd=float(np.sqrt(fit.residual_variance)),
        )
        for t, fit in zip(targets, fits)
    ]


def apply_calibration(fits: list[CalibrationFit], d: Dataset) -> Dataset:
    """Add the calibrated (predicted-value) columns; true columns untouched."""
    new = {}
    for fit in fits:
        new[fit.calibrated_name] = fit.predict(d)
    return d.with_columns(new)
