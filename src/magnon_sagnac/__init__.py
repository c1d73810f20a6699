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

from types import ModuleType as _ModuleType

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

# The public names are the ones imported above; the submodules are not.
__all__ = [name for name, value in vars().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
