"""Sequential safety surveillance with empirically calibrated MaxSPRT.

Combines maximum sequential probability ratio testing over scheduled data
looks with an empirically estimated distribution of residual systematic
error, fitted from negative-control outcomes, so that both sequential
testing and bias are accounted for in p-values and critical values.
"""

from .calibration import calibrated_p, uncalibrated_p
from .errormodel import (
    ErrorModel,
    FitError,
    InsufficientControlsError,
    fit_error_model,
    fit_error_models,
    leave_one_out_models,
    marginal_log_likelihood,
)
from .likelihood import (
    BinomialCounts,
    CountData,
    CurvatureError,
    GridProfile,
    LikelihoodProfile,
    NormalApprox,
    PoissonCounts,
    UninformativeProfileError,
    binomial_llr,
    mle_and_se,
    poisson_llr,
    profile_from_counts,
    tilted_proportion,
)
from .maxsprt import (
    CriticalValueError,
    CriticalValueResult,
    LookSchedule,
    MonteCarloConfig,
    compute_calibrated_cv,
    compute_cv,
)
from .simharness import (
    ConfoundingEstimate,
    ErrorRateReport,
    ErrorRateRow,
    SimulationScenario,
    confounding_demo,
    generate_outcome_data,
    paper_scenarios,
    run_scenario,
    scenario_schedule,
)
from .surveillance import (
    ALL_MODES,
    LookObservation,
    LookRecord,
    OutcomeResult,
    ProtocolError,
    SurveillanceResult,
    run_surveillance,
    type1_report,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_MODES",
    "BinomialCounts",
    "ConfoundingEstimate",
    "CountData",
    "CriticalValueError",
    "CriticalValueResult",
    "CurvatureError",
    "ErrorModel",
    "ErrorRateReport",
    "ErrorRateRow",
    "FitError",
    "GridProfile",
    "InsufficientControlsError",
    "LikelihoodProfile",
    "LookObservation",
    "LookRecord",
    "LookSchedule",
    "MonteCarloConfig",
    "NormalApprox",
    "OutcomeResult",
    "PoissonCounts",
    "ProtocolError",
    "SimulationScenario",
    "SurveillanceResult",
    "UninformativeProfileError",
    "binomial_llr",
    "calibrated_p",
    "compute_calibrated_cv",
    "compute_cv",
    "confounding_demo",
    "fit_error_model",
    "fit_error_models",
    "generate_outcome_data",
    "leave_one_out_models",
    "marginal_log_likelihood",
    "mle_and_se",
    "paper_scenarios",
    "poisson_llr",
    "profile_from_counts",
    "run_scenario",
    "run_surveillance",
    "scenario_schedule",
    "tilted_proportion",
    "type1_report",
    "uncalibrated_p",
]
