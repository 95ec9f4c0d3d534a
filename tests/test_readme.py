"""The README's Python examples run as written and print what they say, over the public names pinned here."""

import contextlib
import io
import math
import re
from pathlib import Path

import parafreq

README = Path(__file__).resolve().parents[1] / "README.md"

# ``parafreq.__all__``, sorted: a name enters or leaves the public API only together with this tuple and the README
PUBLIC_NAMES = (
    "AmbientPolynomial", "Background", "CoefficientField", "ConfigError", "ConstantRate", "Cylinder", "Drift",
    "Forcing", "FrequencyTrace", "Mode", "Plane", "Run", "SampledRate", "ScalarOnU", "ScenarioConfig", "Sphere",
    "TimeGrid", "Trajectory", "VerificationReport", "__version__", "emit_plot_script", "emit_report_json",
    "emit_trace_csv", "enumerate_modes", "evolve_exact_trajectory", "evolve_forced", "first_nonzero_eigenvalue",
    "kappa", "load_config", "load_report_json", "mode_from_index", "mode_function", "mode_sort_key", "parse_config",
    "run_scenario", "standard_test_functions", "total_mass", "trace_from_trajectory", "unit_sphere_area",
    "verify_drift_bochner", "verify_drift_bochner_verbatim", "verify_eigenvalue_monotonicity", "verify_equality_case",
    "verify_frequency_monotonicity", "verify_general_bounds", "verify_general_harnack", "verify_harnack",
    "verify_harnack_printed", "verify_quadrature_mass", "verify_selfsimilar_scaling", "verify_weighted_monotonicity",
)


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_every_python_block_runs_and_the_quick_start_prints_its_values():
    blocks = _python_blocks()
    assert blocks, "README has no python block"
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
        printed.append(out.getvalue().splitlines())
    shape, u0, verdict = printed[0]
    assert shape == "(41, 1)"
    assert float(u0) == -1.0
    status, margin = verdict.split()
    assert status == "pass"
    assert math.isclose(float(margin), 1.0 - math.log(2.0), rel_tol=1e-12)


def test_public_names_are_exactly_the_pinned_ones():
    assert tuple(sorted(parafreq.__all__)) == PUBLIC_NAMES
    assert len(set(parafreq.__all__)) == len(parafreq.__all__)
