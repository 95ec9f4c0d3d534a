"""Declarative scenario execution: config parsing, check dispatch, emitters.

A scenario is one JSON document describing a background, an initial
coefficient field, a time grid, optional forcing, and the list of checks to
run.  Configs are the reproducibility unit: the canonical hash of the
normalized document goes into every emitted report, and a fixed config plus
resolution yields byte-identical outputs.

The check names accepted in ``checks`` (and ``report_only``) are the keys of
the check table ``_VERIFIERS``.  ``report_only`` checks still run and are
fully reported, but their failures never affect the process exit code; that
is how the two documented-discrepancy variants stay visible without failing
suites.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ._version import __version__
from .backgrounds import (
    POINTWISE,
    Background,
    Cylinder,
    Plane,
    QuadratureRule,
    Sphere,
    kappa,
    quadrature,
)
from .evolution import (
    CoefficientField,
    ConstantRate,
    Forcing,
    ModeMatrix,
    SampledRate,
    ScalarOnU,
    TimeGrid,
    Trajectory,
    evolve_exact_trajectory,
    evolve_forced,
)
from .frequency import FrequencyTrace, trace_from_trajectory
from .modes import Mode, enumerate_modes, mode_from_index, mode_sort_key
from .verifiers import (
    VerificationReport,
    merge_reports,
    report_from_dict,
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


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""

    def __init__(self, field: str, problem: str):
        self.field = field
        super().__init__(f"config field '{field}': {problem}")


# The check table, check name -> verifier, in two groups: the checks in _RULE_READERS read the run's quadrature
# rule, so they need a background in backgrounds.POINTWISE.  Dispatch looks the verifier up at call time, so
# anything that rebinds the module-level callables (in module-level dicts too) reaches every check.
_RULE_READERS = {
    "weighted_monotonicity": verify_weighted_monotonicity,
    "selfsimilar_scaling": verify_selfsimilar_scaling,
    "quadrature_mass": verify_quadrature_mass,
    "drift_bochner": verify_drift_bochner,
    "drift_bochner_verbatim": verify_drift_bochner_verbatim,
}
# the checks that certify the forcing hypothesis on the rule, which they read on forced runs only
_CERTIFIERS = ("general_bounds", "general_harnack")
_VERIFIERS = {
    "frequency_monotonicity": verify_frequency_monotonicity,
    "equality_case": verify_equality_case,
    "harnack": verify_harnack,
    "harnack_printed": verify_harnack_printed,
    "general_bounds": verify_general_bounds,
    "general_harnack": verify_general_harnack,
    "eigenvalue_monotonicity": verify_eigenvalue_monotonicity,
    **_RULE_READERS,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, normalized scenario description."""

    scenario_id: str
    background: Background
    initial_modes: tuple[tuple[Mode, float], ...]
    grid: TimeGrid
    kappa_value: float
    forcing: Forcing | None
    resolution: int
    checks: tuple[str, ...]
    report_only: frozenset[str]
    tolerances: tuple[tuple[str, float], ...]
    rk_local_tol: float
    random_mixture: tuple[tuple[str, float], ...] | None

    def tolerance_for(self, check: str) -> float | None:
        for name, value in self.tolerances:
            if name == check:
                return value
        return None

    def normalized(self) -> dict:
        """Canonical plain-data form; the sole input to the config hash."""
        bg = self.background
        if isinstance(bg, Plane):
            bg_doc: dict[str, Any] = {"kind": "plane", "n": bg.n}
        elif isinstance(bg, Sphere):
            bg_doc = {"kind": "sphere", "n": bg.n}
        else:
            assert isinstance(bg, Cylinder)
            bg_doc = {"kind": "cylinder", "k": bg.k, "m": bg.m}
        forcing_doc: dict[str, Any] | None = None
        if self.forcing is not None:
            rate = self.forcing.rate
            if isinstance(rate, ConstantRate):
                rate_doc: dict[str, Any] = {"type": "constant", "c0": rate.c0}
            else:
                assert isinstance(rate, SampledRate)
                rate_doc = {
                    "type": "sampled",
                    "times": list(rate.times),
                    "values": list(rate.values),
                }
            coupling = self.forcing.coupling
            if isinstance(coupling, ScalarOnU):
                forcing_doc = {"coupling": "scalar_on_u", "rate": rate_doc}
            else:
                assert isinstance(coupling, ModeMatrix)
                forcing_doc = {
                    "coupling": "mode_matrix",
                    "modes": [_mode_key(m) for m in coupling.modes],
                    "matrix": [list(row) for row in coupling.matrix],
                    "rate": rate_doc,
                }
        return {
            "scenario_id": self.scenario_id,
            "background": bg_doc,
            "initial_modes": {_mode_key(m): a for m, a in self.initial_modes},
            "time": {"a": self.grid.a, "b": self.grid.b, "nodes": len(self.grid.nodes)},
            "kappa": self.kappa_value,
            "forcing": forcing_doc,
            "resolution": self.resolution,
            "checks": sorted(self.checks),
            "report_only": sorted(self.report_only),
            "tolerances": {name: value for name, value in sorted(self.tolerances)},
            "rk_local_tol": self.rk_local_tol,
            "random_mixture": dict(self.random_mixture) if self.random_mixture is not None else None,
        }

    def with_resolution(self, resolution: Any) -> ScenarioConfig:
        """This config at another quadrature resolution, checked like the config field."""
        return replace(self, resolution=_parse_resolution(resolution))

    def config_hash(self) -> str:
        doc = json.dumps(self.normalized(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _mode_key(mode: Mode) -> str:
    return ",".join(str(i) for i in mode.index)


def _number(value: Any, field: str, *, integer: bool = False, minimum: float | None = None) -> Any:
    """A finite JSON number, integral when ``integer``; bools, strings and fractions never pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(field, f"must be a number, got {value!r}")
    if not (integer and isinstance(value, numbers.Integral)):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(field, "out of the floating-point range") from None
        if not math.isfinite(value):
            raise ConfigError(field, f"must be finite, got {value!r}")
        if integer and not value.is_integer():
            raise ConfigError(field, f"must be an integer, got {value!r}")
    value = int(value) if integer else value
    if minimum is not None and value < minimum:
        raise ConfigError(field, f"must be >= {minimum}, got {value!r}")
    return value


def _numbers(values: Any, field: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(field, f"must be a list of numbers, got {values!r}")
    return tuple(_number(v, field) for v in values)


def _object(doc: Any, field: str, shape: str = "") -> Mapping:
    if not isinstance(doc, Mapping):
        raise ConfigError(field, f"must be an object {shape}".rstrip())
    return doc


def _parse_resolution(value: Any) -> int:
    return _number(value, "resolution", integer=True, minimum=2)


def _parse_background(doc: Any) -> Background:
    doc = _object(doc, "background", "with a 'kind'")
    kind = doc.get("kind")
    if kind == "plane":
        return Plane(_number(doc.get("n"), "background.n", integer=True, minimum=1))
    if kind == "sphere":
        return Sphere(_number(doc.get("n"), "background.n", integer=True, minimum=1))
    if kind == "cylinder":
        return Cylinder(
            _number(doc.get("k"), "background.k", integer=True, minimum=1),
            _number(doc.get("m"), "background.m", integer=True, minimum=1),
        )
    raise ConfigError("background.kind", f"unknown kind {kind!r}")


def _parse_scenario_id(value: Any) -> str:
    # the id names the output files, so it must stay one plain file name
    if not isinstance(value, str) or value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise ConfigError(
            "scenario_id", f"must be a non-empty file name without '/', '\\' or NUL, not '.' or '..'; got {value!r}"
        )
    return value


_MODE_KEY = re.compile(r"[0-9]+(?:,[0-9]+)*")


def _parse_mode(bg: Background, key: Any, field: str) -> Mode:
    if not (isinstance(key, str) and _MODE_KEY.fullmatch(key)):
        raise ConfigError(field, f"bad multi-index {key!r}: need ASCII digits joined by commas")
    try:
        return mode_from_index(bg, tuple(int(part) for part in key.split(",")))
    except (ValueError, KeyError) as exc:
        raise ConfigError(field, f"invalid mode {key!r} for {bg.label()}: {exc}") from exc


def _parse_rate(doc: Any) -> ConstantRate | SampledRate:
    doc = _object(doc, "forcing.rate", "with a 'type'")
    kind = doc.get("type")
    if kind == "constant":
        return ConstantRate(_number(doc.get("c0"), "forcing.rate.c0", minimum=0.0))
    if kind == "sampled":
        times = _numbers(doc.get("times"), "forcing.rate.times")
        values = _numbers(doc.get("values"), "forcing.rate.values")
        try:
            return SampledRate(times, values)
        except ValueError as exc:
            raise ConfigError("forcing.rate", str(exc)) from exc
    raise ConfigError("forcing.rate.type", f"unknown type {kind!r}")


def _parse_forcing(bg: Background, doc: Any) -> Forcing:
    doc = _object(doc, "forcing", "{rate, coupling}")
    rate = _parse_rate(doc.get("rate"))
    coupling_kind = doc.get("coupling")
    if coupling_kind == "scalar_on_u":
        return Forcing(rate, ScalarOnU())
    if coupling_kind == "mode_matrix":
        if "modes" not in doc or "matrix" not in doc:
            raise ConfigError("forcing", "mode_matrix coupling needs 'modes' and 'matrix'")
        if not isinstance(doc["matrix"], (list, tuple)):
            raise ConfigError("forcing.matrix", "must be a list of rows")
        if not isinstance(doc["modes"], (list, tuple)):
            raise ConfigError("forcing.modes", "must be a list of multi-index keys")
        modes = tuple(_parse_mode(bg, key, "forcing.modes") for key in doc["modes"])
        matrix = tuple(_numbers(row, "forcing.matrix") for row in doc["matrix"])
        try:
            return Forcing(rate, ModeMatrix(modes, matrix))
        except ValueError as exc:
            raise ConfigError("forcing.matrix", str(exc)) from exc
    raise ConfigError("forcing.coupling", f"unknown coupling {coupling_kind!r}")


def parse_config(doc: Mapping, *, fallback_id: str = "") -> ScenarioConfig:
    """Validate a plain-data scenario document into a ``ScenarioConfig``.

    Raises ``ConfigError`` naming the offending field on any problem.
    """
    doc = _object(doc, "<root>")
    known_keys = {
        "scenario_id", "background", "initial_modes", "time", "kappa", "forcing",
        "resolution", "checks", "report_only", "tolerances", "rk_local_tol", "random_mixture",
    }
    for key in doc:
        if key not in known_keys:
            raise ConfigError(key, "unknown field")

    scenario_id = _parse_scenario_id(doc.get("scenario_id", fallback_id))
    bg = _parse_background(doc.get("background"))

    time_doc = _object(doc.get("time"), "time", "{a, b, nodes}")
    a = _number(time_doc.get("a"), "time.a")
    b = _number(time_doc.get("b"), "time.b")
    count = _number(time_doc.get("nodes"), "time.nodes", integer=True, minimum=3)
    if not (a < b < 0.0):
        raise ConfigError("time", f"need a < b < 0, got a={a}, b={b}")
    grid = TimeGrid.uniform(a, b, count)

    modes_doc = _object(doc.get("initial_modes", {}), "initial_modes", "mapping multi-index to amplitude")
    coeffs: dict[Mode, float] = {}
    for key, amp in modes_doc.items():
        mode = _parse_mode(bg, key, "initial_modes")
        value = _number(amp, f"initial_modes.{key}")
        if mode in coeffs:
            raise ConfigError("initial_modes", f"duplicate mode {key!r}")
        coeffs[mode] = value

    mixture_doc = doc.get("random_mixture")
    mixture: tuple[tuple[str, float], ...] | None = None
    if mixture_doc is not None:
        mixture_doc = _object(mixture_doc, "random_mixture", "{seed, mu_cutoff, low, high}")
        seed = _number(mixture_doc.get("seed"), "random_mixture.seed", integer=True, minimum=0)
        mu_cutoff = _number(mixture_doc.get("mu_cutoff"), "random_mixture.mu_cutoff", minimum=0.0)
        low = _number(mixture_doc.get("low"), "random_mixture.low")
        high = _number(mixture_doc.get("high"), "random_mixture.high")
        if not (0.0 <= low <= high):
            raise ConfigError("random_mixture", f"need 0 <= low <= high, got low={low}, high={high}")
        mixture = (("seed", float(seed)), ("mu_cutoff", mu_cutoff), ("low", low), ("high", high))
        rng = np.random.default_rng(seed)
        for mode in enumerate_modes(bg, mu_cutoff):
            amp = float(rng.uniform(low, high)) * float(rng.choice((-1.0, 1.0)))
            coeffs[mode] = coeffs.get(mode, 0.0) + amp

    kappa_doc = doc.get("kappa")
    if kappa_doc is None or kappa_doc == "background":
        kappa_value = kappa(bg)
    else:
        kappa_value = _number(kappa_doc, "kappa", minimum=0.0)

    forcing = None
    if doc.get("forcing") is not None:
        forcing = _parse_forcing(bg, doc["forcing"])

    resolution = _parse_resolution(doc.get("resolution", 24))

    checks_doc = doc.get("checks")
    if not isinstance(checks_doc, (list, tuple)) or not checks_doc:
        raise ConfigError("checks", "must be a non-empty list of check names")
    checks: list[str] = []
    for name in checks_doc:
        if name not in _VERIFIERS:
            raise ConfigError("checks", f"unknown check {name!r}")
        if name in checks:
            raise ConfigError("checks", f"duplicate check {name!r}")
        checks.append(name)
    if bg not in POINTWISE and any(c in _RULE_READERS for c in checks):
        raise ConfigError("checks", f"pointwise checks are not available on {bg.label()}")
    if bg not in POINTWISE and forcing is not None:
        raise ConfigError("forcing", f"hypothesis certification needs pointwise geometry; got {bg.label()}")

    report_only_doc = doc.get("report_only", [])
    if not isinstance(report_only_doc, (list, tuple)):
        raise ConfigError("report_only", "must be a list of check names")
    report_only: set[str] = set()
    for name in report_only_doc:
        if name not in checks:
            raise ConfigError("report_only", f"{name!r} is not among the requested checks")
        report_only.add(name)

    tolerances_doc = _object(doc.get("tolerances", {}), "tolerances", "mapping check name to tolerance")
    tolerances: list[tuple[str, float]] = []
    for name, value in tolerances_doc.items():
        if name not in _VERIFIERS:
            raise ConfigError("tolerances", f"unknown check {name!r}")
        tolerances.append((name, _number(value, f"tolerances.{name}", minimum=0.0)))

    rk_local_tol = _number(doc.get("rk_local_tol", 1e-8), "rk_local_tol")
    if not (0.0 < rk_local_tol < 1.0):
        raise ConfigError("rk_local_tol", f"must be in (0, 1), got {rk_local_tol}")

    return ScenarioConfig(
        scenario_id=scenario_id,
        background=bg,
        initial_modes=tuple(sorted(coeffs.items(), key=lambda kv: mode_sort_key(kv[0]))),
        grid=grid,
        kappa_value=kappa_value,
        forcing=forcing,
        resolution=resolution,
        checks=tuple(checks),
        report_only=frozenset(report_only),
        tolerances=tuple(sorted(tolerances)),
        rk_local_tol=rk_local_tol,
        random_mixture=mixture,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate one scenario JSON file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON in {p}: {exc}") from exc
    return parse_config(doc, fallback_id=p.stem)


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class RunOutput:
    """Everything one scenario produced: trace, reports, provenance."""

    config: ScenarioConfig
    trace: FrequencyTrace
    reports: tuple[VerificationReport, ...]

    @property
    def provenance(self) -> dict:
        return {
            "config_hash": self.config.config_hash(),
            "tool_version": __version__,
            "resolution": self.config.resolution,
        }


def _run_check(
    name: str, config: ScenarioConfig, traj: Trajectory, trace: FrequencyTrace, rule: QuadratureRule | None
) -> VerificationReport:
    """Call the check's verifier on the run's data it reads (trajectory, trace, rule); fold multi-run checks."""
    verify = _VERIFIERS[name]
    bg = config.background
    kwargs: dict[str, Any] = {"scenario_id": config.scenario_id}
    tol = config.tolerance_for(name)
    if tol is not None:
        kwargs["tolerance"] = tol
    if name == "weighted_monotonicity":
        # one report per scenario: every packaged test function, folded
        funcs = standard_test_functions(bg)
        names = sorted(funcs)
        parts = [verify(funcs[f], config.grid, rule, function_name=f, **kwargs) for f in names]
        return merge_reports(bg, parts, label_prefixes=names, notes=(f"test functions: {', '.join(names)}",))
    if name in ("drift_bochner", "drift_bochner_verbatim"):
        # the identity is static per field; evaluate it at both ends of the run
        ends = (traj.field_at(0), traj.field_at(-1))
        return merge_reports(bg, [verify(f, rule, **kwargs) for f in ends])
    if name == "eigenvalue_monotonicity":
        return verify(bg, config.grid, config.kappa_value, **kwargs)
    if name == "quadrature_mass":
        return verify(rule, **kwargs)
    if name == "selfsimilar_scaling":
        return verify(traj, rule, **kwargs)
    if name in _CERTIFIERS:
        return verify(traj, trace, rule, **kwargs)
    return verify(traj, trace, **kwargs)


def run_scenario(config: ScenarioConfig) -> RunOutput:
    """Evolve the configured field and execute every requested check once."""
    field = CoefficientField.from_dict(
        config.background, config.grid.a, dict(config.initial_modes)
    )
    if config.forcing is None:
        traj = evolve_exact_trajectory(field, config.grid)
    else:
        traj = evolve_forced(field, config.grid, config.forcing, local_tol=config.rk_local_tol)
    trace = trace_from_trajectory(traj, config.kappa_value)
    # one quadrature rule for every check that reads it (the general checks too, to certify a forcing); else none
    certifies = config.forcing is not None
    reads_rule = any(c in _RULE_READERS or (c in _CERTIFIERS and certifies) for c in config.checks)
    rule = quadrature(config.background, config.resolution) if reads_rule else None
    reports = tuple(_run_check(name, config, traj, trace, rule) for name in config.checks)
    return RunOutput(config=config, trace=trace, reports=reports)


# ---------------------------------------------------------------------------
# emitters


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


_CSV_ROW = ",".join(["%.17g"] * 6)


def emit_trace_csv(output: RunOutput, path: str | Path) -> None:
    """Write the frequency trace; columns exactly t, I, D, U, N_raw, cs_defect."""
    trace = output.trace
    columns = (trace.t, trace.I, trace.D, trace.U, trace.N_raw, trace.cs_defect)
    rows = map(_CSV_ROW.__mod__, zip(*(c.tolist() for c in columns)))
    _atomic_write(Path(path), "\n".join(["t,I,D,U,N_raw,cs_defect", *rows]) + "\n")


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float as ``json.dumps`` writes it: ``float.__repr__``, or ``NaN`` / ``Infinity`` / ``-Infinity``."""
    # the floats of a flat list never contain ", ", so splitting the compact form is exact
    return json.dumps(values.tolist())[1:-1].split(", ")


def format_node_block(t: np.ndarray, margin: np.ndarray, labels: tuple[str, ...], depth: int) -> str:
    """A report's node list as ``json.dumps(..., indent=2, sort_keys=True)`` writes it at nesting ``depth``.

    The list is ``[{"label": ..., "margin": ..., "t": ...}, ...]``; ``depth``
    is the number of containers around it (0 for a document of its own).
    """
    if not len(labels):
        return "[]"
    outer = "\n" + "  " * depth
    item = outer + "  "
    key = item + "  "
    node = "{" + key + '"label": %s,' + key + '"margin": %s,' + key + '"t": %s' + item + "}"
    encoded = {label: json.dumps(label) for label in set(labels)}
    rows = map(node.__mod__, zip([encoded[label] for label in labels], _json_floats(margin), _json_floats(t)))
    return "[" + item + ("," + item).join(rows) + outer + "]"


# A report's keys sit three containers deep (document, "reports" list, report),
# and json.dumps escapes every newline inside a string, so this text marks the
# "nodes" key of each report and nothing else.
_NODES_KEY = '\n      "nodes": '


def emit_report_json(output: RunOutput, path: str | Path) -> None:
    """Write the full report document (reports + provenance), sorted and stable.

    The text is byte for byte ``json.dumps(doc, indent=2, sort_keys=True)``
    plus a newline, where ``doc`` holds every report's ``to_dict()``.  Only the
    skeleton goes through ``json.dumps``; each report's node list is
    formatted from its columns by ``format_node_block`` and spliced in.
    """
    doc = {
        "scenario_id": output.config.scenario_id,
        "provenance": output.provenance,
        "kappa_used": output.trace.kappa_used,
        "report_only": sorted(output.config.report_only),
        "reports": [r.to_dict(with_nodes=False) for r in output.reports],
    }
    skeleton = json.dumps(doc, indent=2, sort_keys=True).split(_NODES_KEY + "null")
    parts = [skeleton[0]]
    for report, rest in zip(output.reports, skeleton[1:], strict=True):
        parts += [_NODES_KEY, format_node_block(report.t, report.margin, report.labels, 3), rest]
    _atomic_write(Path(path), "".join(parts) + "\n")


def load_report_json(path: str | Path) -> tuple[dict, tuple[VerificationReport, ...]]:
    """Read back an emitted report document; returns (provenance doc, reports)."""
    doc = json.loads(Path(path).read_text())
    reports = tuple(report_from_dict(r) for r in doc["reports"])
    return doc, reports


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render U(t) and log I(t) from a frequency trace CSV (columns t,I,D,U,N_raw,cs_defect)."""
import argparse
import csv
import math

import matplotlib.pyplot as plt

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("csv_path", nargs="?", default={csv_name!r})
parser.add_argument("--out", default=None, help="save to file instead of showing")
args = parser.parse_args()

t, big_i, big_u = [], [], []
with open(args.csv_path, newline="") as fh:
    for row in csv.DictReader(fh):
        t.append(float(row["t"]))
        big_i.append(float(row["I"]))
        big_u.append(float(row["U"]))

fig, (ax_u, ax_i) = plt.subplots(2, 1, sharex=True, figsize=(7, 7))
ax_u.plot(t, big_u, marker=".", lw=1)
ax_u.set_ylabel("U(t)")
ax_u.set_title({title!r})
log_i = [math.log(v) if v > 0 else float("nan") for v in big_i]
ax_i.plot(t, log_i, marker=".", lw=1, color="tab:orange")
ax_i.set_ylabel("log I(t)")
ax_i.set_xlabel("t")
fig.tight_layout()
if args.out:
    fig.savefig(args.out, dpi=150)
else:
    plt.show()
'''


def emit_plot_script(output: RunOutput, path: str | Path) -> None:
    """Write a standalone plotting program for the scenario's trace CSV.

    The script resolves its CSV at plot time; emitting never checks that the
    CSV exists, so traces and plots can be produced in any order.
    """
    sid = output.config.scenario_id
    text = _PLOT_TEMPLATE.format(csv_name=f"{sid}.trace.csv", title=f"{sid} ({output.config.background.label()})")
    _atomic_write(Path(path), text)
