"""peclab: exchangeability probabilities, measurement-error bias factors,
regression calibration, and causal effect estimators for continuous
exposures, plus the simulation harness that reproduces the published
reference tables."""

from .model import (
    COLUMN_ORDER,
    Dataset,
    DistributionSpec,
    ErrorKind,
    ErrorModel,
    Estimand,
    Link,
    OutcomeModel,
    Scenario,
    StructuralSpec,
    check_scenario,
    format_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    validate_scenario,
)
from .rng import ColumnTag, StreamKey, sample
from .datagen import generate_scenario, generate_table2_world
from .regress import RegressionFit, design_with_intercept, logistic_irls, ols, wls
from .exchprob import (
    ExchProbTable,
    TableMode,
    aee_from_table,
    analytic_product_table,
    empirical_table,
    symmetry_check,
)
from .biasfactor import (
    BiasFactorReport,
    ec_decomposition,
    epc_decomposition,
    lambda_closed_form,
    p_rd_identity,
    p_rd_polynomial,
    p_rd_polynomial_from_data,
    predict_naive_slope_rr,
    surrogate_bounds,
    surrogate_ratio,
)
from .calibrate import CalibrationFit, apply_calibration, fit_calibration
from .estimate import g_computation, ipw_gps_aee, naive_regression_aee, stabilized_weights
from .harness import ReproReport, StudyResult, reproduce, run_study

__version__ = "0.1.0"
