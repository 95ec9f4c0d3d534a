"""Declarative scenario execution: config parsing, check dispatch, emitters.

A scenario is one JSON document describing a background, an initial
coefficient field, a time grid, optional forcing, and the list of checks to
run.  Configs are the reproducibility unit: ``parse_config`` builds the
canonical document ``ScenarioConfig.document`` while it validates, the
SHA-256 of that document goes into every emitted report, and a fixed config
yields byte-identical outputs.

The check names accepted in ``checks`` (and ``report_only`` and
``tolerances``) are the keys of the check table ``_VERIFIERS``, which is the
whole dispatch: every check is its verifier called on the scenario's one
``Run``, which builds what the checks read on first read.  ``report_only``
checks still run and are fully reported, but their failures never affect the
process exit code; that is how the two documented-discrepancy variants stay
visible without failing suites.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

try:  # the interpreter's built-in SHA-256, hashlib's fallback; hashlib itself maps OpenSSL's libcrypto (3.4 MiB)
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:  # built without either
        from hashlib import sha256

from ._version import __version__
from .backgrounds import Background, Cylinder, Plane, Sphere, kappa
from .evolution import (
    CoefficientField,
    ConstantRate,
    Drift,
    Forcing,
    SampledRate,
    ScalarOnU,
    TimeGrid,
    evolve_exact_trajectory,
    evolve_forced,
)
from .frequency import FrequencyTrace
from .modes import Mode, enumerate_modes, mode_counts, mode_from_index, mode_sort_key
from .verifiers import (
    Run,
    VerificationReport,
    report_from_dict,
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


# The check table, check name -> verifier, each called on the run alone.  Dispatch looks the verifier up at call
# time, so anything that rebinds the module-level callables (in module-level dicts too) reaches every check.
_VERIFIERS = {
    "frequency_monotonicity": verify_frequency_monotonicity,
    "equality_case": verify_equality_case,
    "harnack": verify_harnack,
    "harnack_printed": verify_harnack_printed,
    "general_bounds": verify_general_bounds,
    "general_harnack": verify_general_harnack,
    "eigenvalue_monotonicity": verify_eigenvalue_monotonicity,
    "weighted_monotonicity": verify_weighted_monotonicity,
    "selfsimilar_scaling": verify_selfsimilar_scaling,
    "quadrature_mass": verify_quadrature_mass,
    "drift_bochner": verify_drift_bochner,
    "drift_bochner_verbatim": verify_drift_bochner_verbatim,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario; ``document``, its canonical plain-data form, is all the hash reads: compare by the hash."""

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
    document: dict = field(repr=False, compare=False)

    def config_hash(self) -> str:
        doc = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
        return sha256(doc.encode("utf-8")).hexdigest()


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


def _object(doc: Any, field: str, shape: str = "", keys: Any = None, tag: str = "") -> Mapping:
    """``doc`` as an object whose every key is in ``keys`` (any key when None); another is the unknown ``field.key``.
    With a ``tag``, ``keys`` maps each value ``doc[tag]`` may take to the keys allowed beside the tag."""
    if not isinstance(doc, Mapping):
        raise ConfigError(field, f"must be an object {shape}".rstrip())
    if tag:
        value = doc.get(tag)
        if not (isinstance(value, str) and value in keys):
            raise ConfigError(f"{field}.{tag}", f"unknown {tag} {value!r}; known: {', '.join(map(repr, keys))}")
        keys = (tag, *keys[value])
    for key in doc if keys is not None else ():
        if key not in keys:
            raise ConfigError(key if field == "<root>" else f"{field}.{key}", "unknown field")
    return doc


# config kind -> background class: the kind is the lower-case class name, the sizes are the dataclass fields
_BACKGROUNDS = {cls.__name__.lower(): cls for cls in (Plane, Sphere, Cylinder)}


def _parse_background(doc: Any) -> tuple[Background, dict]:
    keys = {kind: [f.name for f in fields(cls)] for kind, cls in _BACKGROUNDS.items()}
    kind = _object(doc, "background", "with a 'kind'", keys, "kind")["kind"]
    sizes = {name: _number(doc.get(name), f"background.{name}", integer=True, minimum=1) for name in keys[kind]}
    return _BACKGROUNDS[kind](**sizes), {"kind": kind, **sizes}


# the longest output name is "<id>.report.json.tmp", and a file name holds at most 255 bytes
_MAX_ID_BYTES = 255 - len(".report.json.tmp")


def _parse_scenario_id(value: Any) -> str:
    # the id names the output files, so it must stay one plain file name
    if not isinstance(value, str) or value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise ConfigError(
            "scenario_id", f"must be a non-empty file name without '/', '\\' or NUL, not '.' or '..'; got {value!r}"
        )
    try:
        size = len(value.encode())
    except UnicodeEncodeError as exc:  # a lone surrogate from a JSON escape
        raise ConfigError("scenario_id", f"must be UTF-8 text: {exc}") from None
    if size > _MAX_ID_BYTES:
        raise ConfigError("scenario_id", f"must be at most {_MAX_ID_BYTES} UTF-8 bytes to name its files; got {size}")
    return value


_MODE_KEY = re.compile(r"[0-9]+(?:,[0-9]+)*")


def _parse_mode(bg: Background, key: Any, field: str) -> Mode:
    if not (isinstance(key, str) and _MODE_KEY.fullmatch(key)):
        raise ConfigError(field, f"bad multi-index {key!r}: need ASCII digits joined by commas")
    try:
        return mode_from_index(bg, tuple(int(part) for part in key.split(",")))
    except (ValueError, KeyError) as exc:
        raise ConfigError(field, f"invalid mode {key!r} for {bg.label()}: {exc}") from exc


def _parse_rate(doc: Any) -> tuple[ConstantRate | SampledRate, dict]:
    doc = _object(doc, "forcing.rate", "with a 'type'", {"constant": ["c0"], "sampled": ["times", "values"]}, "type")
    if doc["type"] == "constant":
        c0 = _number(doc.get("c0"), "forcing.rate.c0", minimum=0.0)
        return ConstantRate(c0), {"type": "constant", "c0": c0}
    times = _numbers(doc.get("times"), "forcing.rate.times")
    values = _numbers(doc.get("values"), "forcing.rate.values")
    try:
        rate = SampledRate(times, values)
    except ValueError as exc:
        raise ConfigError("forcing.rate", str(exc)) from exc
    return rate, {"type": "sampled", "times": list(times), "values": list(values)}


# config coupling -> its class
_COUPLINGS = {"scalar_on_u": ScalarOnU, "drift": Drift}


def _parse_forcing(bg: Background, doc: Any) -> tuple[Forcing, dict]:
    doc = _object(doc, "forcing", "{rate, coupling}", {name: ["rate"] for name in _COUPLINGS}, "coupling")
    rate, rate_doc = _parse_rate(doc.get("rate"))
    if doc["coupling"] == "drift" and not bg.flat_m:
        raise ConfigError("forcing.coupling", f"a drift runs along a flat axis, and {bg.label()} has none")
    return Forcing(rate, _COUPLINGS[doc["coupling"]]()), {"coupling": doc["coupling"], "rate": rate_doc}


def _check_names(doc: Any, field: str, allowed: Any, unknown: str) -> list[str]:
    """Distinct check names from a list, each one in ``allowed``; ``unknown`` words the refusal of any other entry."""
    if not isinstance(doc, (list, tuple)):
        raise ConfigError(field, "must be a list of check names")
    names: list[str] = []
    for name in doc:
        if not (isinstance(name, str) and name in allowed):
            raise ConfigError(field, unknown.format(name))
        if name in names:
            raise ConfigError(field, f"duplicate check {name!r}")
        names.append(name)
    return names


_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_MAX_MIXTURE_MODES = 1 << 16  # modes a random mixture may draw, counted before any is enumerated
_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)  # the normal float range, in logs


def _mixture_amplitudes(seed: int, low: float, high: float) -> Iterator[float]:
    """``rng.uniform(low, high) * rng.choice((-1.0, 1.0))`` over and over, for ``rng = np.random.default_rng(seed)``.

    The same bits, without importing ``numpy.random``: numpy's ``SeedSequence`` hashes the seed's little-endian 32-bit
    words into a pool of four, whose output seeds PCG64 (a 128-bit LCG with the XSL-RR output).  ``uniform`` reads the
    top 53 bits of one output; ``choice`` of two reads the top bit of a 32-bit draw (Lemire's method never rejects one
    for a range of 2), and 32-bit draws take a fresh output's low half, then its high half.
    """

    def hasher(const: int, multiplier: int) -> Callable[[int], int]:
        def hashmix(value: int) -> int:  # each hash steps the constant before it multiplies
            nonlocal const
            const, value = const * multiplier & _M32, value ^ const
            value = value * const & _M32
            return value ^ value >> 16

        return hashmix

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0] * 3)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)  # each 64-bit word is two hashes, the low half first
    s0, s1, s2, s3 = (hashmix(pool[i % 4]) | hashmix(pool[i % 4 + 1]) << 32 for i in range(0, 8, 2))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    lcg = (inc + (s0 << 64 | s1)) & _M128  # numpy steps from 0 (to inc), adds the seed's state, then steps again

    def output() -> int:
        nonlocal lcg
        lcg = (lcg * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & _M128
        folded, rot = (lcg >> 64 ^ lcg) & (_M128 >> 64), lcg >> 122
        return (folded >> rot | folded << (64 - rot)) & (_M128 >> 64)

    def uniform() -> float:
        return low + (high - low) * ((output() >> 11) * 2.0**-53)

    output()
    while True:  # two amplitudes take three outputs: the second sign is the high half of the first one's draw
        value, draw = uniform(), output()
        yield value * (-1.0, 1.0)[draw >> 31 & 1]
        yield uniform() * (-1.0, 1.0)[draw >> 63]


def parse_config(doc: Mapping, *, fallback_id: str = "") -> ScenarioConfig:
    """Validate a plain-data scenario document into a ``ScenarioConfig``.

    Raises ``ConfigError`` naming the offending field on any problem.
    """
    doc = _object(doc, "<root>", keys=(
        "scenario_id", "background", "initial_modes", "time", "kappa", "forcing",
        "resolution", "checks", "report_only", "tolerances", "random_mixture",
    ))

    scenario_id = _parse_scenario_id(doc.get("scenario_id", fallback_id))
    bg, bg_doc = _parse_background(doc.get("background"))

    time_doc = _object(doc.get("time"), "time", "{a, b, nodes}", ("a", "b", "nodes"))
    a = _number(time_doc.get("a"), "time.a")
    b = _number(time_doc.get("b"), "time.b")
    count = _number(time_doc.get("nodes"), "time.nodes", integer=True, minimum=3)
    if not (a < b < 0.0):
        raise ConfigError("time", f"need a < b < 0, got a={a}, b={b}")
    try:
        grid = TimeGrid.uniform(a, b, count)
    except ValueError as exc:
        raise ConfigError("time", f"{exc}: {count} nodes from a={a!r} to b={b!r}") from exc

    modes_doc = _object(doc.get("initial_modes", {}), "initial_modes", "mapping multi-index to amplitude")
    coeffs: dict[Mode, float] = {}
    for key, amp in modes_doc.items():
        mode = _parse_mode(bg, key, "initial_modes")
        value = _number(amp, f"initial_modes.{key}")
        if mode in coeffs:
            raise ConfigError("initial_modes", f"duplicate mode {key!r}")
        coeffs[mode] = value

    mixture_doc = doc.get("random_mixture")
    mixture: dict[str, float] | None = None
    if mixture_doc is not None:
        keys = ("seed", "mu_cutoff", "low", "high")
        mixture_doc = _object(mixture_doc, "random_mixture", "{seed, mu_cutoff, low, high}", keys)
        seed = _number(mixture_doc.get("seed"), "random_mixture.seed", integer=True, minimum=0)
        mu_cutoff = _number(mixture_doc.get("mu_cutoff"), "random_mixture.mu_cutoff", minimum=0.0)
        low = _number(mixture_doc.get("low"), "random_mixture.low")
        high = _number(mixture_doc.get("high"), "random_mixture.high")
        if not (0.0 <= low <= high):
            raise ConfigError("random_mixture", f"need 0 <= low <= high, got low={low}, high={high}")
        mixture = {"seed": float(seed), "mu_cutoff": mu_cutoff, "low": low, "high": high}
        for total in itertools.accumulate(mode_counts(bg, mu_cutoff)):  # counted, then enumerated
            if total > _MAX_MIXTURE_MODES:
                raise ConfigError(
                    "random_mixture.mu_cutoff",
                    f"{mu_cutoff!r} asks for at least {total} modes on {bg.label()}, above the budget of "
                    f"{_MAX_MIXTURE_MODES}",
                )
        for mode, amp in zip(enumerate_modes(bg, mu_cutoff), _mixture_amplitudes(seed, low, high)):
            coeffs[mode] = coeffs.get(mode, 0.0) + amp

    kappa_doc = doc.get("kappa")
    if kappa_doc is None or kappa_doc == "background":
        kappa_value = kappa(bg)
    else:
        kappa_value = _number(kappa_doc, "kappa", minimum=0.0)
    # the trace weighs by (-t)^(2 kappa) and squares mu/(-t): decided by logs, the first is a normal float at both
    # ends of the grid and the second finite at its end, where it is largest
    for t in (a, b):
        if not _LOG_TINY < kappa_value * (2.0 * math.log(-t)) < _LOG_HUGE:
            raise ConfigError("kappa", f"(-t)^(2 kappa) leaves the normal floats at t={t!r} for kappa={kappa_value!r}")
    mu_max = max((m.mu for m in coeffs), default=0.0)
    if mu_max > 0.0 and not 2.0 * (math.log(mu_max) - math.log(-b)) < _LOG_HUGE:
        raise ConfigError("time", f"(mu/(-t))^2 overflows at t={b!r} for mu={mu_max!r}")

    forcing, forcing_doc = None, None
    if doc.get("forcing") is not None:
        forcing, forcing_doc = _parse_forcing(bg, doc["forcing"])

    resolution = _number(doc.get("resolution", 24), "resolution", integer=True, minimum=2)

    checks = _check_names(doc.get("checks"), "checks", _VERIFIERS, "unknown check {!r}")
    if not checks:
        raise ConfigError("checks", "must be a non-empty list of check names")
    not_requested = "{!r} is not among the requested checks"
    report_only = _check_names(doc.get("report_only", []), "report_only", checks, not_requested)

    tolerances_doc = _object(doc.get("tolerances", {}), "tolerances", "mapping check name to tolerance")
    tolerances: list[tuple[str, float]] = []
    for name, value in tolerances_doc.items():
        if name not in checks:
            raise ConfigError("tolerances", not_requested.format(name))
        tolerances.append((name, _number(value, f"tolerances.{name}", minimum=0.0)))

    initial_modes = tuple(sorted(coeffs.items(), key=lambda kv: mode_sort_key(kv[0])))
    document = {
        "scenario_id": scenario_id,
        "background": bg_doc,
        "initial_modes": {_mode_key(m): amp for m, amp in initial_modes},
        "time": {"a": a, "b": b, "nodes": count},
        "kappa": kappa_value,
        "forcing": forcing_doc,
        "resolution": resolution,
        "checks": sorted(checks),
        "report_only": sorted(report_only),
        "tolerances": dict(tolerances),
        "random_mixture": mixture,
    }
    return ScenarioConfig(
        scenario_id=scenario_id,
        background=bg,
        initial_modes=initial_modes,
        grid=grid,
        kappa_value=kappa_value,
        forcing=forcing,
        resolution=resolution,
        checks=tuple(checks),
        report_only=frozenset(report_only),
        tolerances=tuple(sorted(tolerances)),
        document=document,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate one scenario JSON file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    # JSON text is UTF-8; a nesting too deep for the decoder and an integer too long for int() are refused too
    except (ValueError, RecursionError) as exc:
        raise ConfigError("<document>", f"invalid JSON in {p}: {exc}") from exc
    return parse_config(doc, fallback_id=os.fsencode(p.stem).decode("utf-8", "surrogateescape"))  # names are UTF-8


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


def run_scenario(config: ScenarioConfig) -> RunOutput:
    """Evolve the configured field and execute every requested check once, each on the same ``Run``."""
    field = CoefficientField.from_dict(
        config.background, config.grid.a, dict(config.initial_modes)
    )
    if config.forcing is None:
        traj = evolve_exact_trajectory(field, config.grid)
    else:
        traj = evolve_forced(field, config.grid, config.forcing)
    run = Run(traj, config.kappa_value, config.resolution)
    trace = run.trace  # the output holds it, whatever the checks read
    # each check passes its configured tolerance, if any
    reports = tuple(
        _VERIFIERS[name](run, **{"tolerance": tol for check, tol in config.tolerances if check == name})
        for name in config.checks
    )
    return RunOutput(config=config, trace=trace, reports=reports)


# ---------------------------------------------------------------------------
# emitters


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    # UTF-8 text under a UTF-8 name whatever the locale; bytes the locale could not decode go back out unchanged
    name = str(path).encode("utf-8", "surrogateescape")
    with open(name + b".tmp", "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    os.replace(name + b".tmp", name)


_CSV_ROW = ",".join(["%.17g"] * 6) + "\n"
_CSV_BLOCK = 256  # trace rows formatted and written at a time


def _csv_chunks(columns: tuple[np.ndarray, ...]) -> Iterator[str]:
    yield "t,I,D,U,N_raw,cs_defect\n"
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        yield "".join(map(_CSV_ROW.__mod__, zip(*(c[lo : lo + _CSV_BLOCK].tolist() for c in columns))))


def emit_trace_csv(output: RunOutput, path: str | Path) -> None:
    """Write the frequency trace; columns exactly t, I, D, U, N_raw, cs_defect.

    Rows are formatted and written ``_CSV_BLOCK`` at a time into the ``.tmp`` file, which then replaces ``path``,
    so the text of the whole file never exists at once.
    """
    trace = output.trace
    _atomic_write(Path(path), _csv_chunks((trace.t, trace.I, trace.D, trace.U, trace.N_raw, trace.cs_defect)))


# each report's nodes as one margin column per label over runs of grid indices; node i is t_i of the run's ``time``
_REPORT_FORMAT = "parafreq-report/3"


def emit_report_json(output: RunOutput, path: str | Path) -> None:
    """Write the report document as ``json.dumps(doc, sort_keys=True, default=np.ndarray.tolist)`` plus a newline.

    ``doc`` holds ``"format": _REPORT_FORMAT``, the scenario id, the provenance, the config's ``time`` object
    (node i is ``np.linspace(a, b, nodes)[i]``, row i of the trace CSV) and one entry per report: its
    ``to_dict()`` plus the run's ``scenario_id`` and background label, which the reports themselves do not hold.
    Margin columns stay arrays until the encoder reaches them, so only one exists as a list at a time.
    """
    config = output.config
    identity = {"scenario_id": config.scenario_id, "background": config.background.label()}
    doc = {
        "format": _REPORT_FORMAT,
        "scenario_id": config.scenario_id,
        "provenance": output.provenance,
        "kappa_used": output.trace.kappa_used,
        "report_only": sorted(config.report_only),
        "time": config.document["time"],
        "reports": [{**r.to_dict(), **identity} for r in output.reports],
    }
    _atomic_write(Path(path), (json.dumps(doc, sort_keys=True, default=np.ndarray.tolist), "\n"))


def load_report_json(path: str | Path) -> tuple[dict, tuple[VerificationReport, ...]]:
    """Read back an emitted report document as (provenance doc, reports); any other document raises ValueError."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != _REPORT_FORMAT:
        raise ValueError(f"{path}: report format {found!r} is not {_REPORT_FORMAT!r}")
    if not isinstance(doc.get("reports"), list):
        raise ValueError(f"{path}: 'reports' is not a list")
    reports = []
    for i, entry in enumerate(doc["reports"]):
        try:  # not an object: TypeError; a field missing: KeyError; a verdict its columns contradict: ValueError
            reports.append(report_from_dict(entry))
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{path}: reports[{i}] is not a report ({type(err).__name__}: {err})") from None
    return doc, tuple(reports)


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
    _atomic_write(Path(path), (text,))
