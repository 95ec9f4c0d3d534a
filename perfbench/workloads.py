"""Benchmark inputs: the packaged suite and two seeded batches of configs.

Every scenario comes with the verdict the theory predicts for each counted
check, not the verdict some commit of the program happens to produce.  The
one place where the program is known to disagree with the theory is stated
as a predicted defect with its size (see ``weighted_defect_residual``), so
the disagreement shows in the results without being counted as a wrong
output.

The seed changes amplitudes, mixture seeds and time windows; it never
changes the backgrounds, mode counts, node counts or resolutions, so every
seed asks for the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WEIGHTED_TOLERANCE = 1e-7  # verify_weighted_monotonicity's fixed default
WEIGHTED_NODES = 201
WEIGHTED_SPAN = 0.5  # node spacing 2.5e-3, where the defect shows on planes and the cylinder

SPECTRAL_CHECKS = ("frequency_monotonicity", "harnack", "equality_case", "eigenvalue_monotonicity")


@dataclass(frozen=True)
class Expected:
    """What a counted check should report.

    ``status`` is the verdict the theory predicts.  With ``compare_margin``
    the reported min_margin must also lie within the check's own reported
    tolerance of the committed reference ``margin`` (suite only).
    ``defect_residual`` is set when the program is predicted to fail the
    check anyway, and gives the size of that failure.
    """

    status: str
    margin: float | None = None
    compare_margin: bool = False
    defect_residual: float | None = None


@dataclass(frozen=True)
class Scenario:
    doc: dict  # the scenario config document
    expected: dict  # counted check name -> Expected

    @property
    def scenario_id(self) -> str:
        return self.doc["scenario_id"]


def _mixture(rng: random.Random, cutoff: float) -> dict:
    low = round(rng.uniform(0.1, 0.3), 6)
    return {"seed": rng.randrange(2**31), "mu_cutoff": cutoff, "low": low, "high": round(low + rng.uniform(0.5, 1.0), 6)}


def spectral_batch(seed: int) -> list[Scenario]:
    """Unforced random mixtures on long grids: evolution, trace and spectral checks only."""
    rng = random.Random(f"spectral:{seed}")
    layout = (
        ("plane3-mixture", {"kind": "plane", "n": 3}, 3.0, True),  # 84 modes
        ("plane2-mixture", {"kind": "plane", "n": 2}, 5.0, True),  # 66 modes
        ("sphere10-mixture", {"kind": "sphere", "n": 10}, 1.5, False),  # 77 modes
        ("cylinder-mixture", {"kind": "cylinder", "k": 1, "m": 1}, 6.0, False),  # 63 modes
    )
    batch = []
    for sid, background, cutoff, flat in layout:
        a = -round(rng.uniform(0.8, 1.6), 6)
        b = round(a * rng.uniform(0.4, 0.6), 6)
        checks = list(SPECTRAL_CHECKS)
        # kappa = 0: the printed Harnack variant is the documented report-only discrepancy
        report_only = ["harnack_printed"] if flat else []
        doc = {
            "scenario_id": sid,
            "background": background,
            "random_mixture": _mixture(rng, cutoff),
            "time": {"a": a, "b": b, "nodes": 2001},
            "checks": checks + report_only,
            "report_only": report_only,
        }
        batch.append(Scenario(doc, {c: Expected("pass") for c in checks}))
    return batch


def _sphere_area(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def _sphere_mass(n: int) -> float:
    r = math.sqrt(2.0 * n)
    return (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0) * _sphere_area(n) * r**n


def weighted_defect_residual(background: dict, spacing: float) -> float:
    """Predicted worst residual of ``weighted_monotonicity`` on a uniform grid.

    The check compares a centered difference of g(t) = int f dmu_t with the
    exact derivative, under a fixed 1e-7 tolerance and no discretization
    allowance.  Among the packaged test functions only the sixth powers
    (y_i/4)^6 make g cubic in t, g = (-t)^3 M E[y_i^6] / 4^6, and the centered
    difference of a cubic misses by exactly h^2 g'''/6 = h^2 M E[y_i^6] / 4^6.
    M is the total mass and E the normalized moment on the unit-scale
    background (Gaussian axes have variance 2, so E[y^6] = 120).
    """
    kind = background["kind"]
    if kind == "plane":
        mass, moment = 1.0, 120.0
    elif kind == "sphere":
        n = background["n"]
        mass = _sphere_mass(n)
        moment = (2.0 * n) ** 3 * 15.0 / ((n + 1) * (n + 3) * (n + 5))
    else:  # cylinder(k, m): the Gaussian axis carries the largest moment
        mass, moment = _sphere_mass(background["k"]), 120.0
    return spacing**2 * mass * moment / 4.0**6


def pointwise_batch(seed: int) -> list[Scenario]:
    """Short grids whose checks evaluate geometry, quadrature and mode polynomials."""
    rng = random.Random(f"pointwise:{seed}")
    batch = []
    weighted = (
        ("weighted-plane1", {"kind": "plane", "n": 1}),
        ("weighted-plane2", {"kind": "plane", "n": 2}),
        ("weighted-plane3", {"kind": "plane", "n": 3}),
        ("weighted-sphere2", {"kind": "sphere", "n": 2}),
        ("weighted-cylinder", {"kind": "cylinder", "k": 1, "m": 1}),
    )
    spacing = WEIGHTED_SPAN / (WEIGHTED_NODES - 1)
    for sid, background in weighted:
        a = -round(rng.uniform(0.9, 1.3), 6)
        residual = weighted_defect_residual(background, spacing)
        doc = {
            "scenario_id": sid,
            "background": background,
            "random_mixture": _mixture(rng, 1.0),
            "time": {"a": a, "b": a + WEIGHTED_SPAN, "nodes": WEIGHTED_NODES},
            "checks": ["weighted_monotonicity", "quadrature_mass"],
        }
        defect = residual if residual > WEIGHTED_TOLERANCE else None
        batch.append(
            Scenario(doc, {
                "weighted_monotonicity": Expected("pass", defect_residual=defect),
                "quadrature_mass": Expected("pass"),
            })
        )

    for sid, background, resolution in (
        ("bochner-plane2", {"kind": "plane", "n": 2}, 40),
        ("bochner-sphere2", {"kind": "sphere", "n": 2}, 48),
    ):
        a = -round(rng.uniform(0.8, 1.2), 6)
        doc = {
            "scenario_id": sid,
            "background": background,
            "random_mixture": _mixture(rng, 2.0),
            "time": {"a": a, "b": round(a / 4.0, 6), "nodes": 9},
            "resolution": resolution,
            "checks": ["drift_bochner", "drift_bochner_verbatim"],
            "report_only": ["drift_bochner_verbatim"],
        }
        batch.append(Scenario(doc, {"drift_bochner": Expected("pass")}))

    # single-eigenvalue field: all 28 degree-6 Hermite modes of plane(3)
    modes = {
        ",".join(map(str, index)): round(rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0)), 6)
        for index in itertools.product(range(7), repeat=3)
        if sum(index) == 6
    }
    doc = {
        "scenario_id": "selfsimilar-plane3",
        "background": {"kind": "plane", "n": 3},
        "initial_modes": modes,
        "time": {"a": -1.0, "b": -round(rng.uniform(0.4, 0.6), 6), "nodes": 61},
        "resolution": 12,
        "checks": ["selfsimilar_scaling", "quadrature_mass"],
    }
    batch.append(Scenario(doc, {"selfsimilar_scaling": Expected("pass"), "quadrature_mass": Expected("pass")}))
    return batch


def suite_batch(reference: dict, suite_dir: Path) -> list[Scenario]:
    """The packaged scenarios with their committed verdicts and margins."""
    batch = []
    for path in sorted(suite_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        doc.setdefault("scenario_id", path.stem)
        checks = reference["scenarios"][doc["scenario_id"]]["checks"]
        expected = {
            name: Expected(check["status"], check["min_margin"], compare_margin=True)
            for name, check in checks.items()
            if check["counted"]
        }
        batch.append(Scenario(doc, expected))
    return batch


def write_configs(batch: list[Scenario], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for scenario in batch:
        (directory / f"{scenario.scenario_id}.json").write_text(json.dumps(scenario.doc, indent=2, sort_keys=True))
