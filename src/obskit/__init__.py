"""Observability and trajectory-ambiguity analysis for multi-target
bearings/Doppler tracking with polynomial target dynamics."""

from .ambiguity import (AmbiguityCertificate, CombinedConditionReport,
                        DopplerAmbiguitySpec, DopplerSufficiencyReport,
                        check_combined_condition, check_doppler_sufficiency,
                        generate_bearing_ambiguous, generate_doppler_ambiguous,
                        verify_ambiguity)
from .errors import (DegenerateSystem, NonPositiveAlpha, NonPositiveRange, ObskitError,
                     ParseError, ValidationError, ZeroRange)
from .estimator import EstimateResult, cross_validate, estimate_initial_state
from .measurement import MeasurementHistory, Tonal, measure_scenario
from .observability import (CollinearityEvent, ObservabilityReport, check_observable,
                            report_text)
from .scenario_io import (Scenario, TargetConfig, Tolerances, load_scenario,
                          read_trajectory_csv, write_measurements_csv, write_trajectory_csv)
from .trajectory import (PolynomialTrajectory, RelativeState, SampledTrajectory,
                         propagate_ode, relative_state, state_from_trajectory)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityCertificate", "CollinearityEvent", "CombinedConditionReport",
    "DegenerateSystem", "DopplerAmbiguitySpec", "DopplerSufficiencyReport",
    "EstimateResult", "MeasurementHistory", "NonPositiveAlpha", "NonPositiveRange",
    "ObservabilityReport", "ObskitError", "ParseError", "PolynomialTrajectory",
    "RelativeState", "SampledTrajectory", "Scenario", "TargetConfig", "Tolerances",
    "Tonal", "ValidationError", "ZeroRange", "check_combined_condition",
    "check_doppler_sufficiency", "check_observable", "cross_validate",
    "estimate_initial_state", "generate_bearing_ambiguous", "generate_doppler_ambiguous",
    "load_scenario", "measure_scenario", "propagate_ode", "read_trajectory_csv",
    "relative_state", "report_text", "state_from_trajectory",
    "verify_ambiguity", "write_measurements_csv", "write_trajectory_csv",
]
