"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Every test prints a single summary line with the measured extreme so a
`pytest -v -s` run reads as a checklist.  Tolerances here are contract
values; loosening one is a release decision, not a test fix.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafreq import (
    CoefficientField,
    ConstantRate,
    Cylinder,
    Forcing,
    Plane,
    Run,
    ScalarOnU,
    Sphere,
    TimeGrid,
    enumerate_modes,
    evolve_exact,
    evolve_exact_trajectory,
    evolve_forced,
    first_nonzero_eigenvalue,
    kappa,
    mode_from_index,
    quadrature,
    trace_from_trajectory,
    verify_drift_bochner,
    verify_drift_bochner_verbatim,
    verify_eigenvalue_monotonicity,
    verify_general_bounds,
    verify_harnack,
    verify_harnack_printed,
    verify_weighted_monotonicity,
)
from parafreq.cli import main as cli_main
from parafreq.modes import combine_on_rule

from oracles import field_at, geometry_at

THREE_BACKGROUNDS = [Plane(2), Sphere(2), Cylinder(1, 1)]
# the backgrounds of one or two dimensions, and plane(3)
SIX = [Plane(1), Plane(2), Plane(3), Sphere(1), Sphere(2), Cylinder(1, 1)]


def _pure_run(bg, idx, a=-1.0, b=-0.1, nodes=50, amp=1.0):
    field = CoefficientField.from_dict(bg, a, {mode_from_index(bg, idx): amp})
    return evolve_exact_trajectory(field, TimeGrid.uniform(a, b, nodes))


def _checked(verify, traj):
    return verify(Run(traj))


def _on_grid(bg, grid, resolution=24):
    """A zero-data run of ``bg`` on ``grid``: for the checks that read only the grid, the background and the rule."""
    return Run(evolve_exact_trajectory(CoefficientField.from_dict(bg, grid.a, {}), grid), resolution=resolution)


def test_criterion_01_caloric_frequency_is_minus_degree():
    worst = 0.0
    for n in (1, 2):
        bg = Plane(n)
        for k in range(1, 6):
            idx = (k,) if n == 1 else (k - 1, 1)
            traj = _pure_run(bg, idx, nodes=50)
            trace = trace_from_trajectory(traj, 0.0)
            worst = max(worst, max(abs(u + k) for u in trace.U))
    assert worst < 1e-10
    print(f"criterion 1: PASS  max |U + k| = {worst:.3e} (< 1e-10)")


def test_criterion_02_sphere_spectrum_golden_values():
    worst_c = worst_u = 0.0
    for n in (1, 2, 5, 10):
        bg = Sphere(n)
        for k in range(1, 5):
            traj = _pure_run(bg, (k, 0), b=-0.5, nodes=5)
            trace = trace_from_trajectory(traj)
            assert trace.t[0] == -1.0
            c_fit = trace.D[0] / (2.0 * trace.I[0])
            c_ref = -(k * k + (n - 1) * k) / (2.0 * n)
            u_ref = -(k * k + (n - 1) * k) / n
            worst_c = max(worst_c, abs(c_fit - c_ref))
            worst_u = max(worst_u, abs(trace.U[0] - u_ref))
    assert worst_c < 1e-12
    assert worst_u < 1e-12
    print(f"criterion 2: PASS  |c_fit - c_ref| <= {worst_c:.3e}, |U - U_ref| <= {worst_u:.3e} (< 1e-12)")


def _random_mixture(bg, rng, modes):
    amps = {}
    for m in modes:
        if rng.uniform() < 0.6:
            a = rng.uniform(-1.0, 1.0)
            if abs(a) > 1e-3:
                amps[m] = a
    if not amps:
        amps[modes[rng.integers(len(modes))]] = 1.0
    return amps


def test_criterion_03_monotonicity_over_200_seeded_mixtures():
    rng = np.random.default_rng(20240817)
    grid = TimeGrid.uniform(-1.0, -0.1, 21)
    worst_margin_rel = math.inf
    worst_oracle = 0.0
    for bg in THREE_BACKGROUNDS:
        modes = enumerate_modes(bg, 2.0)
        kap = kappa(bg)
        for _ in range(200):
            amps = _random_mixture(bg, rng, modes)
            field = CoefficientField.from_dict(bg, -1.0, amps)
            trace = trace_from_trajectory(evolve_exact_trajectory(field, grid), kap)
            u = trace.U
            scale = np.maximum(np.abs(u[:-1]), np.abs(u[1:]))
            margins = np.diff(u)
            rel = margins / np.maximum(scale, 1e-300)
            worst_margin_rel = min(worst_margin_rel, float(np.min(rel)))
            assert np.all(margins >= -1e-9 * scale)
            # closed-form weighted-average oracle from the initial data
            mus = np.array([m.mu for m in amps])
            a0 = np.array(list(amps.values()))
            for t, n_raw in zip(trace.t.tolist(), trace.N_raw.tolist()):
                w = a0 * a0 * (-t) ** (2.0 * mus)
                oracle = -2.0 * float(np.sum(mus * w) / np.sum(w))
                worst_oracle = max(worst_oracle, abs(n_raw - oracle))
            assert worst_oracle < 1e-10
    print(
        "criterion 3: PASS  600 mixtures, worst relative margin "
        f"{worst_margin_rel:.3e} (>= -1e-9), oracle gap {worst_oracle:.3e} (< 1e-10)"
    )


@settings(max_examples=60, deadline=None)
@given(
    a1=st.floats(-2.0, 2.0),
    a2=st.floats(-2.0, 2.0),
    a3=st.floats(-2.0, 2.0),
)
def test_criterion_03_property_frequency_never_decreases(a1, a2, a3):
    amps = {k: v for k, v in {(1,): a1, (2,): a2, (4,): a3}.items() if abs(v) > 1e-6}
    if not amps:
        return
    bg = Plane(1)
    field = CoefficientField.from_dict(
        bg, -1.0, {mode_from_index(bg, idx): v for idx, v in amps.items()}
    )
    trace = trace_from_trajectory(evolve_exact_trajectory(field, TimeGrid.uniform(-1.0, -0.2, 17)))
    u = trace.U
    scale = np.maximum(np.abs(u[:-1]), np.abs(u[1:]))
    assert np.all(np.diff(u) >= -1e-9 * scale)


def test_criterion_04_equality_case_of_cauchy_schwarz():
    worst_pure = 0.0
    for bg, idx in [(Plane(1), (3,)), (Plane(2), (2, 0)), (Sphere(2), (2, 1)), (Cylinder(1, 1), (1, 0, 1))]:
        traj = _pure_run(bg, idx, amp=1.7)
        trace = trace_from_trajectory(traj)
        for cs, i in zip(trace.cs_defect, trace.I):
            worst_pure = max(worst_pure, cs / (i * i))
    assert worst_pure < 1e-12
    least_mixed = math.inf
    for bg, amps in [
        (Plane(1), {(1,): 1.0, (2,): 0.01}),
        (Sphere(2), {(1, 0): 1.0, (2, 0): 0.5}),
        (Cylinder(1, 1), {(1, 0, 0): 1.0, (0, 0, 2): -0.3}),
    ]:
        field = CoefficientField.from_dict(
            bg, -1.0, {mode_from_index(bg, idx): v for idx, v in amps.items()}
        )
        traj = evolve_exact_trajectory(field, TimeGrid.uniform(-1.0, -0.1, 50))
        for cs in trace_from_trajectory(traj).cs_defect:
            least_mixed = min(least_mixed, cs)
    assert least_mixed > 0.0
    print(
        f"criterion 4: PASS  pure defect/I^2 <= {worst_pure:.3e} (< 1e-12), "
        f"least mixture defect {least_mixed:.3e} (> 0)"
    )


def test_criterion_05_harnack_inequalities():
    sphere = _checked(verify_harnack, _pure_run(Sphere(2), (1, 0), b=-0.5, nodes=41))
    golden = 1.0 - math.log(2.0)
    assert sphere.min_margin == pytest.approx(golden, abs=1e-6)
    worst_eq = 0.0
    for k in (1, 2, 4):
        plane = _checked(verify_harnack, _pure_run(Plane(1), (k,), b=-0.5, nodes=21))
        worst_eq = max(worst_eq, abs(plane.min_margin))
    assert worst_eq < 1e-10
    printed = _checked(verify_harnack_printed, _pure_run(Plane(1), (2,), b=-0.5, nodes=21))
    print(
        f"criterion 5: PASS  sphere margin {sphere.min_margin:.10f} (oracle {golden:.10f}), "
        f"plane equality gap {worst_eq:.3e} (< 1e-10); printed-variant margin "
        f"{printed.min_margin:.6f} reported, status {printed.status}"
    )


def test_criterion_06_weighted_monotonicity_residuals_and_exactness():
    worst = 0.0
    for bg in [Plane(1), Sphere(2)]:
        rep = verify_weighted_monotonicity(_on_grid(bg, TimeGrid.uniform(-1.0, -0.5, 801), 32))
        assert rep.status == "pass", bg.label()
        worst = max(worst, -rep.min_margin)
    assert worst < 1e-7
    # the slope is exact, so a 3-node grid at spacing 0.25 leaves only rounding on every background
    coarse = 0.0
    for bg in sorted(SIX, key=lambda b: b.label()):
        rep = verify_weighted_monotonicity(_on_grid(bg, TimeGrid.uniform(-1.0, -0.5, 3), 32))
        assert rep.status == "pass", bg.label()
        coarse = max(coarse, -rep.min_margin)
    assert coarse <= 1e-12
    print(
        f"criterion 6: PASS  worst residual {worst:.3e} (< 1e-7) at 801 nodes, "
        f"{coarse:.3e} (<= 1e-12) at 3 nodes on the six backgrounds of one to three dimensions"
    )


def test_criterion_07_drift_bochner_identity():
    worst_b = 0.0
    # (background, resolution, eigenvalue cutoff) for each of the six
    cases = [
        (Plane(1), 32, 3.0),
        (Plane(2), 32, 3.0),
        (Plane(3), 16, 2.0),
        (Sphere(1), 32, 3.0),
        (Sphere(2), 48, 3.0),
        (Cylinder(1, 1), 32, 3.0),
    ]
    assert [bg for bg, _, _ in cases] == SIX
    for bg, res, mu_cutoff in cases:
        for mode in enumerate_modes(bg, mu_cutoff):
            if mode.mu == 0.0:
                continue
            field = CoefficientField.from_dict(bg, -1.0, {mode: 1.0})
            rep = verify_drift_bochner(Run(evolve_exact_trajectory(field, TimeGrid((-1.0, -0.5))), resolution=res))
            assert rep.status == "pass", (bg.label(), mode.index)
            worst_b = max(worst_b, -rep.min_margin)
    assert worst_b < 1e-8
    bg = Sphere(2)
    rule = quadrature(bg, 48)
    worst_gap = 0.0
    proj = np.stack([geometry_at(bg, p).tangent_projector for p in rule.points])
    for idx in [(1, 0), (2, 0)]:
        f0 = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, idx): 1.0})
        traj = evolve_exact_trajectory(f0, TimeGrid((-1.0, -0.5)))
        rep = verify_drift_bochner_verbatim(Run(traj, resolution=48))  # one margin per end of the run
        for ft, margin in zip((field_at(traj, 0), field_at(traj, -1)), rep.columns[0].margin):
            t = ft.time
            gbar = combine_on_rule(rule, ft.modes, ft.amplitudes, "gradients")
            tang = np.einsum("nij,nj->ni", proj, gbar)
            # unit-scale energy /(-t) is the gradient integral in flow coordinates
            grad_t = rule.integrate(np.einsum("ni,ni->n", tang, tang)) / (-t)
            gap = abs(abs(margin) - grad_t / (2.0 * (-t)))
            worst_gap = max(worst_gap, gap)
    assert worst_gap < 1e-8
    print(
        f"criterion 7: PASS  corrected-variant residual <= {worst_b:.3e} (< 1e-8), "
        f"sphere first-variant gap vs gradient energy <= {worst_gap:.3e} (< 1e-8)"
    )


def test_criterion_08_forced_growth_bounds():
    bg = Plane(1)
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (1,)): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.5, 2001)
    worst = math.inf
    for c0 in (0.0, 0.1, 1.0):
        traj = evolve_forced(field, grid, Forcing(ConstantRate(c0), ScalarOnU()), local_tol=1e-12)
        rep = verify_general_bounds(Run(traj, 0.0))
        assert rep.min_margin >= -1e-6, (c0, rep.min_margin)
        worst = min(worst, rep.min_margin)
    rich = CoefficientField.from_dict(
        bg, -1.0, {mode_from_index(bg, idx): a for idx, a in [((1,), 1.0), ((2,), 0.3), ((4,), -0.1)]}
    )
    traj = evolve_forced(rich, grid, Forcing(ConstantRate(0.0), ScalarOnU()), local_tol=1e-12)
    worst_rel = 0.0
    for i, t in enumerate(grid.nodes):
        stepped = field_at(traj, i)
        exact = evolve_exact(rich, t)
        for a, b in zip(stepped.amplitudes, exact.amplitudes, strict=True):
            worst_rel = max(worst_rel, abs(a - b) / max(1.0, abs(b)))
    assert worst_rel < 1e-6
    print(
        f"criterion 8: PASS  worst growth-bound margin {worst:.3e} (>= -1e-6), "
        f"stepped-vs-exact relative error {worst_rel:.3e} (< 1e-6)"
    )


def test_criterion_09_scaled_eigenvalue_monotonicity():
    grid = TimeGrid.uniform(-1.0, -0.01, 100)
    for bg in THREE_BACKGROUNDS:
        rep = verify_eigenvalue_monotonicity(_on_grid(bg, grid))
        assert rep.status == "pass", bg.label()
    worst_plane = 0.0
    for t in grid.nodes:
        q = (-t) * (first_nonzero_eigenvalue(Plane(1)) / (-t))  # kappa = 0 scaling
        worst_plane = max(worst_plane, abs(q - 0.5))
    assert worst_plane < 1e-12
    print(f"criterion 9: PASS  nonincreasing on all backgrounds; plane value gap {worst_plane:.3e} (< 1e-12)")


def test_criterion_10_backward_uniqueness_contrapositive():
    traj = _pure_run(Sphere(2), (1, 0), b=-0.5, nodes=41)
    trace = trace_from_trajectory(traj)
    i_b = trace.I[-1]
    assert i_b > 0.0
    kap = trace.kappa_used
    u_a = trace.U[0]
    lower = math.log(trace.I[0]) + (1.0 / (2.0 * kap)) * (
        (0.5) ** (-2.0 * kap) - (1.0) ** (-2.0 * kap)
    ) * u_a
    assert math.isfinite(lower)
    assert math.log(i_b) >= lower - 1e-12
    zero = CoefficientField.from_dict(Plane(2), -1.0, {})
    ztrace = trace_from_trajectory(evolve_exact_trajectory(zero, TimeGrid.uniform(-1.0, -0.1, 50)))
    assert all(i == 0.0 for i in ztrace.I)
    print(
        f"criterion 10: PASS  pure run log I(b) = {math.log(i_b):.6f} >= finite bound {lower:.6f}; "
        "zero-data run has I identically 0"
    )


def test_criterion_11_suite_determinism_and_exit_code(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["paper-suite", "--out", str(out_a), "--quiet"])
    code_b = cli_main(["paper-suite", "--out", str(out_b), "--quiet"])
    assert code_a == 0 and code_b == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # the only failing checks across the suite are the two documented
    # discrepancies, and both are marked report-only in their configs
    failing = []
    for name in files_a:
        if not name.endswith(".report.json"):
            continue
        doc = json.loads((out_a / name).read_text())
        for rep in doc["reports"]:
            if rep["status"] == "fail":
                failing.append(rep["check_name"])
                assert rep["check_name"] in doc["report_only"], name
    assert sorted(failing) == ["drift_bochner_verbatim", "harnack_printed"]
    print(
        f"criterion 11: PASS  {len(files_a)} files byte-identical across reruns, exit 0, "
        "report-only failures exactly the two documented discrepancies"
    )
