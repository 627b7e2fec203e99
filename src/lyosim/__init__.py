"""Process simulator for continuous lyophilization of suspended vials.

Vials travel through freezing (with optional vacuum-induced surface
freezing and either controlled or stochastic nucleation), primary drying
with a receding sublimation front, and secondary drying by bound-water
desorption, while suspended without shelf contact.  The package also
models chamber pressure rise when the condenser saturates and provides a
transport-scale analysis toolkit.
"""

from .analysis import (
    EffectiveDiffusivity,
    PorousMedium,
    TimeScales,
    biot_number,
    cylinder_eigenvalues,
    cylinder_transient_theta,
    effective_diffusivity,
    lumped_theta,
    time_scales,
)
from .chamber import ChamberModel, chamber_pressure_rhs, run_primary_with_condenser
from .compare import ComparisonReport, ReferenceSeries, compare_with_reference
from .drying_primary import (
    DryingParams,
    PrimaryState,
    cake_resistance,
    run_primary,
    sublimation_flux,
)
from .drying_secondary import (
    DesorptionKinetics,
    DryingConditions,
    SecondaryState,
    desorption_rate,
    run_secondary,
)
from .errors import (
    ComparisonError,
    ConfigurationError,
    DomainError,
    LyosimError,
    ScenarioError,
    SimulationError,
    SolverError,
    StageTimeoutError,
)
from .freezing import (
    ControlledNucleation,
    FreezingProtocol,
    FreezingSystem,
    StochasticNucleation,
    VialState,
    first_nucleation_time,
    nucleate_controlled,
    nucleation_hazard,
    run_freezing,
)
from .params import DEFAULT_SCENARIO, ParameterSet, build_parameters
from .pipeline import consistent_parameters, run_full_cycle
from .scenario import (
    Scenario,
    builtin_scenarios,
    default_parameters,
    load_scenario,
    validate_scenario,
)
from .schedules import Schedule, as_schedule
from .solver import EventSpec, IntegrationResult, IntegratorConfig, integrate_adaptive
from .thermo import (
    Formulation,
    MixtureProperties,
    RadiationSpec,
    VialGeometry,
    freezing_point,
    heat_of_vaporization,
    mixture_properties,
    psat_evaporation,
    psat_sublimation,
)
from .trajectory import CycleResult, Trajectory, write_trajectory_csv

__version__ = "0.1.0"
