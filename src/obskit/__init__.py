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
from .measurement import (MeasurementHistory, Tonal, angular_difference, bearing,
                          design_matrix, doppler, measure_scenario, pseudo_row,
                          wrap_angle)
from .observability import (CollinearityEvent, ObservabilityReport,
                            bearing_separation_mod_pi, check_observable,
                            detect_collinearity, gramian, report_text,
                            separation_mod_pi)
from .scenario_io import (Scenario, TargetConfig, Tolerances, load_scenario,
                          read_trajectory_csv, save_scenario, scenario_from_dict,
                          scenario_to_dict, validate_scenario, write_measurements_csv,
                          write_trajectory_csv)
from .trajectory import (PolynomialTrajectory, RelativeState, SampledTrajectory,
                         propagate_ode, relative_state, state_from_trajectory,
                         trajectory_from_state, transition_matrix)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityCertificate", "CollinearityEvent", "CombinedConditionReport",
    "DegenerateSystem", "DopplerAmbiguitySpec", "DopplerSufficiencyReport",
    "EstimateResult", "MeasurementHistory", "NonPositiveAlpha", "NonPositiveRange",
    "ObservabilityReport", "ObskitError", "ParseError", "PolynomialTrajectory",
    "RelativeState", "SampledTrajectory", "Scenario", "TargetConfig", "Tolerances",
    "Tonal", "ValidationError", "ZeroRange", "angular_difference", "bearing",
    "bearing_separation_mod_pi", "check_combined_condition",
    "check_doppler_sufficiency", "check_observable", "cross_validate",
    "design_matrix", "detect_collinearity", "doppler", "estimate_initial_state",
    "generate_bearing_ambiguous", "generate_doppler_ambiguous", "gramian",
    "load_scenario", "measure_scenario", "propagate_ode", "pseudo_row",
    "read_trajectory_csv", "relative_state", "report_text",
    "save_scenario", "scenario_from_dict", "scenario_to_dict", "separation_mod_pi",
    "state_from_trajectory", "trajectory_from_state", "transition_matrix",
    "validate_scenario", "verify_ambiguity", "wrap_angle", "write_measurements_csv",
    "write_trajectory_csv",
]
