"""Nonreciprocal optical transmission in a spinning whispering-gallery
microcavity coupled to a squeezed magnon mode.

The package computes steady-state transmissions of the two
counter-propagating optical modes under a one-sided drive, the isolation
between them induced by the rotation (Fizeau) shift, closed-form extremal
shifts, and parameter sweeps for the bundled demonstration datasets.

Importing the package executes no numpy: the modules that compute on
arrays bind it lazily and load it when one of them first does, so the
scalar routes never load it.
"""

from .model import (CONSTANTS, FEASIBLE_FIZEAU_BAND, RECIPROCAL_TOL_DB,
                    CavityMode, DriveAmplitudes, EffectiveParams, MagnonMode,
                    PhysicalConstants, PhysicsError, RotationDirection,
                    RotationSpec, SqueezeSpec,
                    SqueezingInstabilityError, SystemParams, Violation,
                    drive_amplitude, fizeau_shift,
                    has_uniform_ports, is_symmetric, squeeze_exponent,
                    validate, validate_rotation, with_delta_f)
from .steady_state import (DegenerateSystemError, DriveSide,
                           NoTransmissionError, OutputFields, SteadyState,
                           TransmissionReport, output_fields, residuals,
                           solve_closed_form, solve_generic, transmission_grid,
                           transmissions)
from .analysis import (Direction, GeneralExtrema, OptimumResult,
                       ReciprocalPoints, SymmetryRequiredError,
                       brute_force_optimum, classify_direction,
                       extremal_fizeau_general, reciprocal_points)
from .sweep import (Axis, DeltaFPolicy, FigurePreset, PRESET_NAMES,
                    SweepError, SweepParameter, SweepResult, apply_parameter,
                    figure_preset, run_preset, sweep)
from .config import (ConfigError, ResolvedConfig, apply_overrides,
                     default_document, load_config, parse_config,
                     resolved_document)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS", "FEASIBLE_FIZEAU_BAND", "PRESET_NAMES", "RECIPROCAL_TOL_DB",
    "Axis", "CavityMode", "ConfigError", "DegenerateSystemError",
    "DeltaFPolicy", "Direction", "DriveAmplitudes", "DriveSide",
    "EffectiveParams", "FigurePreset", "GeneralExtrema", "MagnonMode",
    "NoTransmissionError", "OptimumResult", "OutputFields",
    "PhysicalConstants", "PhysicsError", "ReciprocalPoints", "ResolvedConfig",
    "RotationDirection", "RotationSpec", "SqueezeSpec",
    "SqueezingInstabilityError", "SteadyState", "SweepError",
    "SweepParameter", "SweepResult", "SymmetryRequiredError",
    "SystemParams", "TransmissionReport",
    "Violation", "apply_overrides", "apply_parameter", "brute_force_optimum",
    "classify_direction", "default_document",
    "drive_amplitude", "extremal_fizeau_general",
    "figure_preset", "fizeau_shift",
    "has_uniform_ports", "is_symmetric", "load_config", "output_fields",
    "parse_config", "reciprocal_points", "residuals",
    "resolved_document", "run_preset", "solve_closed_form", "solve_generic",
    "squeeze_exponent", "sweep", "transmission_grid", "transmissions",
    "validate", "validate_rotation", "with_delta_f",
]
