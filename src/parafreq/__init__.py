"""Numerical verification lab for parabolic frequency on shrinker backgrounds.

Exact spectral evolutions of heat-type flows on analytic self-shrinkers
(planes, spheres, round cylinders), with machine checks that report signed
margins for every monotonicity, two-time, and eigenvalue bound the frequency
satisfies.  See the README for the scenario CLI.
"""

from types import ModuleType as _Module

from ._version import __version__
from .backgrounds import (
    Background,
    Cylinder,
    Plane,
    Sphere,
    kappa,
    total_mass,
    unit_sphere_area,
)
from .evolution import (
    CoefficientField,
    ConstantRate,
    Drift,
    Forcing,
    SampledRate,
    ScalarOnU,
    TimeGrid,
    Trajectory,
    evolve_exact_trajectory,
    evolve_forced,
)
from .frequency import FrequencyTrace, trace_from_trajectory
from .modes import (
    Mode,
    enumerate_modes,
    first_nonzero_eigenvalue,
    mode_from_index,
    mode_function,
    mode_sort_key,
)
from .polynomials import AmbientPolynomial
from .scenario import (
    ConfigError,
    ScenarioConfig,
    emit_plot_script,
    emit_report_json,
    emit_trace_csv,
    load_config,
    load_report_json,
    parse_config,
    run_scenario,
)
from .verifiers import (
    Run,
    VerificationReport,
    standard_test_functions,
    verify_drift_bochner,
    verify_drift_bochner_verbatim,
    verify_eigenvalue_monotonicity,
    verify_equality_case,
    verify_frequency_monotonicity,
    verify_general_bounds,
    verify_general_harnack,
    verify_harnack,
    verify_harnack_printed,
    verify_quadrature_mass,
    verify_selfsimilar_scaling,
    verify_weighted_monotonicity,
)

# the public names are exactly the names imported above, so each is written once
__all__ = ["__version__", *(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _Module)))]
