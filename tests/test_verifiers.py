"""Each verifier against an independent oracle, plus report plumbing."""

import inspect
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafreq import (
    AmbientPolynomial,
    CoefficientField,
    ConstantRate,
    Cylinder,
    Forcing,
    ModeMatrix,
    Plane,
    Run,
    SampledRate,
    ScalarOnU,
    Sphere,
    TimeGrid,
    Trajectory,
    VerificationReport,
    enumerate_modes,
    evolve_exact_trajectory,
    evolve_forced,
    mode_from_index,
    parse_config,
    standard_test_functions,
    trace_from_trajectory,
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
from parafreq import backgrounds, evolution, frequency, scenario, verifiers
from parafreq.backgrounds import quadrature
from parafreq.cli import _load_packaged_configs
from parafreq.modes import combine_on_rule, mode_function
from parafreq.verifiers import report_from_dict

from oracles import bochner_sides_on_rule, compute_D, field_at, forcing_bound_margin, geometry_at, integrate, rate_at

# the backgrounds of one or two dimensions, and plane(3)
SIX = [Plane(1), Plane(2), Plane(3), Sphere(1), Sphere(2), Cylinder(1, 1)]


def _traj(bg, coeffs_by_index, a=-1.0, b=-0.5, nodes=41):
    field = CoefficientField.from_dict(
        bg, a, {mode_from_index(bg, idx): amp for idx, amp in coeffs_by_index.items()}
    )
    return evolve_exact_trajectory(field, TimeGrid.uniform(a, b, nodes))


def _checked(verify, traj):
    return verify(Run(traj))


def _on_grid(bg, grid, kappa_value=None, resolution=24):
    """A zero-data run of ``bg`` on ``grid``: for the checks that read only the grid, the background and the rule."""
    return Run(evolve_exact_trajectory(CoefficientField.from_dict(bg, grid.a, {}), grid), kappa_value, resolution)


# ---------------------------------------------------------------------------
# monotonicity and Harnack


def test_monotonicity_margins_nonnegative_on_mixtures():
    for bg, coeffs in [
        (Plane(2), {(1, 0): 1.0, (2, 1): -0.5, (0, 2): 0.3}),
        (Sphere(2), {(1, 0): 1.0, (2, 3): 0.7}),
        (Cylinder(1, 1), {(1, 0, 0): 1.0, (0, 0, 2): -0.4}),
    ]:
        rep = _checked(verify_frequency_monotonicity, _traj(bg, coeffs))
        assert rep.status == "pass"
        assert rep.min_margin >= -rep.tolerance


def test_frequency_monotonicity_fails_on_the_backward_law():
    # a_j(t) = (-t)^(-mu_j) on plane(1) with mu = 1/2, 3/2 runs the heat flow backward:
    # U(t) = -1 - 2/(1 + t^2) falls towards t = 0, fastest at t = -1/sqrt(3) where U' = -3 sqrt(3)/4
    bg = Plane(1)
    modes = (mode_from_index(bg, (1,)), mode_from_index(bg, (3,)))
    grid = TimeGrid.uniform(-1.0, -0.1, 361)
    t = grid.nodes
    traj = Trajectory(grid, bg, modes, np.column_stack([(-t) ** -0.5, (-t) ** -1.5]))
    rep = _checked(verify_frequency_monotonicity, traj)
    assert rep.status == "fail"
    # the worst margin is the worst increment of the closed form
    closed = -1.0 - 2.0 / (1.0 + t**2)
    assert [c.label for c in rep.columns] == ["increment"]
    assert rep.min_margin == pytest.approx(float(np.min(np.diff(closed))), abs=1e-12)


def test_frequency_monotonicity_passes_a_constant_frequency_on_a_very_fine_grid():
    # plane(1), mode "2": U is constant, so its increments are rounding alone; on 2,001 nodes 5e-9 apart a slope by
    # differences divided that rounding by 2h and failed at -6.66e-8 against the 2e-9 tolerance
    for b in (-0.5, -0.99999):
        config = parse_config({
            "scenario_id": "fine-grid",
            "background": {"kind": "plane", "n": 1},
            "initial_modes": {"2": 1.0},
            "time": {"a": -1.0, "b": b, "nodes": 2001},
            "checks": ["frequency_monotonicity"],
        })
        (rep,) = scenario.run_scenario(config).reports
        assert rep.status == "pass", b
        assert rep.tolerance == pytest.approx(2e-9) and abs(rep.min_margin) < 1e-14, (b, rep.min_margin)


def test_harnack_sphere_golden_margin():
    rep = _checked(verify_harnack, _traj(Sphere(2), {(1, 0): 1.0}, b=-0.5))
    assert rep.status == "pass"
    assert rep.min_margin == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_harnack_plane_equality_on_pure_modes():
    rep = _checked(verify_harnack, _traj(Plane(1), {(2,): 1.0}))
    assert rep.status == "pass"
    assert abs(rep.min_margin) < 1e-12


def test_harnack_fails_on_amplitudes_off_their_power():
    # plane(1), mode "2" (mu = 1, kappa = 0) scaled as (-t)^(mu + delta): U(a) = -2 still, so the bound asks for
    # log I(b) - log I(a) >= 2 ln(b/a) while the run has 2 (1 + delta) ln(b/a), a margin of 2 delta ln(1/2)
    bg, delta = Plane(1), 0.1
    grid = TimeGrid.uniform(-1.0, -0.5, 41)
    traj = Trajectory(grid, bg, (mode_from_index(bg, (2,)),), ((-grid.nodes) ** (1.0 + delta))[:, None])
    rep = verify_harnack(Run(traj))
    assert rep.status == "fail"
    assert [(c.label, c.nodes.tolist()) for c in rep.columns] == [("log-bound-derivation", [40])]
    assert rep.min_margin == pytest.approx(2.0 * delta * math.log(0.5), rel=1e-12)
    assert rep.min_margin == pytest.approx(-0.138629436111989, rel=1e-12)


def test_harnack_printed_variant_known_gap():
    # same pure run: the printed kappa = 0 form misses by exactly 2 + ln 2
    rep = _checked(verify_harnack_printed, _traj(Plane(1), {(2,): 1.0}))
    assert rep.status == "fail"
    assert rep.min_margin == pytest.approx(-(2.0 + math.log(2.0)), abs=1e-12)


def test_harnack_note_carries_the_printed_checks_margin_bit_for_bit():
    # at kappa = 0 verify_harnack notes the printed variant's margin with %.17g, which reads back to the very float
    # verify_harnack_printed reports: one helper computes both
    (config,) = [c for c in _load_packaged_configs() if c.scenario_id == "plane-caloric-cubic"]
    output = scenario.run_scenario(config)
    derived, printed = (r for r in output.reports if r.check_name in ("harnack", "harnack_printed"))
    assert output.trace.kappa_used == 0.0 and printed.status == "fail"
    (note,) = derived.notes
    value = float(note.removeprefix("printed-variant margin at the same endpoints: "))
    assert value.hex() == printed.min_margin.hex() == printed.columns[0].margin[0].hex()


def test_harnack_printed_inapplicable_for_positive_kappa():
    rep = _checked(verify_harnack_printed, _traj(Sphere(2), {(1, 0): 1.0}))
    assert rep.status == "inapplicable"
    assert rep.min_margin is None


def test_harnack_degenerate_on_zero_data():
    rep = _checked(verify_harnack, _traj(Plane(1), {}))
    assert rep.status == "pass"
    assert rep.min_margin == 0.0
    assert any("zero data" in n for n in rep.notes)


def test_general_harnack_collapses_to_harnack_without_forcing():
    traj = _traj(Sphere(2), {(1, 0): 1.0, (2, 0): 0.3}, nodes=129)
    plain = _checked(verify_harnack, traj)
    general = _checked(verify_general_harnack, traj)
    assert general.status == "pass"
    assert general.min_margin == pytest.approx(plain.min_margin, abs=1e-9)


@pytest.mark.parametrize("bg, coeffs", [(Plane(1), {(1,): 1.0, (4,): -0.3}), (Sphere(2), {(1, 0): 1.0, (2, 0): 0.3})])
def test_general_harnack_equals_harnack_bit_for_bit_without_forcing(bg, coeffs):
    run = Run(_traj(bg, coeffs))
    assert run.trace.kappa_used == (0.0 if isinstance(bg, Plane) else 0.5)
    general = verify_general_harnack(run)
    assert general.columns[0].margin.tobytes() == verify_harnack(run).columns[0].margin.tobytes()


def test_general_harnack_vanishes_on_a_zero_rate_forced_run():
    bg = Plane(1)
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (2,)): 1.0})
    forcing = Forcing(ConstantRate(0.0), ScalarOnU())
    traj = evolve_forced(field, TimeGrid.uniform(-1.0, -0.5, 201), forcing, local_tol=1e-12)
    rep = _checked(verify_general_harnack, traj)
    assert rep.status == "pass"
    assert abs(rep.min_margin) <= 1e-12


def test_general_harnack_unconverged_quadrature_never_passes(monkeypatch):
    bg = Plane(1)
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (2,)): 1.0})
    traj = evolve_forced(field, TimeGrid.uniform(-1.0, -0.9, 11), Forcing(ConstantRate(0.5), ScalarOnU()))
    assert _checked(verify_general_harnack, traj).status == "pass"
    monkeypatch.setattr(verifiers, "_HARNACK_QUAD_TOL", 0.0)
    rep = _checked(verify_general_harnack, traj)
    assert rep.status != "pass"
    assert any("did not converge" in note and "2097153 points" in note for note in rep.notes)


def _trapezoid_excess(rate, a, b, g_a, ua, ma, k, count, chunk=1 << 18):
    """Plain trapezoid on ``count`` points of [a, b] of the forcing's part of the general Harnack integrand.

    G starts from ``g_a`` at a and follows a cumulative trapezoid of C^2 on the same points; chunks of
    ``chunk`` intervals keep the memory small.
    """
    total = 0.0
    for lo in range(0, count - 1, chunk):
        ts = a + (b - a) * (np.arange(lo, min(lo + chunk, count - 1) + 1) / (count - 1))
        c = rate.values_at(ts)
        g = g_a + np.concatenate([[0.0], np.cumsum(0.5 * (c[1:] ** 2 + c[:-1] ** 2) * np.diff(ts))])
        f = (-ts) ** (-1.0 - 2.0 * k) * ((ua - 2 * ma) * np.expm1(g) + c / 2 * ((ua - 2 * ma) * np.exp(g) + 2 * ma))
        f -= 3.0 * c
        total += float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(ts)))
        g_a = float(g[-1])
    return total


def _harnack_excess(traj, report):
    """What ``report``'s margin subtracted from the unforced bound, and the points per piece its note names."""
    trace = trace_from_trajectory(traj)
    ta, tb, ia, ib, ua = verifiers._harnack_endpoints(trace)
    excess = (math.log(ib) - math.log(ia)) - verifiers._harnack_bound(ta, tb, ua, trace.kappa_used) - report.min_margin
    (note,) = [n for n in report.notes if "Romberg" in n]
    return excess, int(re.search(r"of (\d+) points each", note).group(1)), trace


@pytest.mark.parametrize("scenario_id", ["matrix-forced-bounds", "scalar-forced-bounds", "scalar-forced-zero"])
def test_general_harnack_romberg_matches_a_fine_trapezoid_on_forced_suite_runs(scenario_id):
    (config,) = [c for c in _load_packaged_configs() if c.scenario_id == scenario_id]
    field = CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes))
    traj = evolve_forced(field, config.grid, config.forcing, local_tol=config.rk_local_tol)
    rep = verify_general_harnack(Run(traj, resolution=config.resolution))
    assert rep.status == "pass"
    excess, points, trace = _harnack_excess(traj, rep)
    assert points <= 1025
    ta, tb, ua, k = trace.t[0], trace.t[-1], trace.U[0], trace.kappa_used
    ref = _trapezoid_excess(config.forcing.rate, ta, tb, 0.0, ua, (-ta) ** (1 + 2 * k), k, (1 << 22) + 1)
    assert excess == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_general_harnack_splits_a_sampled_rate_at_its_kinks():
    # four kinks inside (a, b); C^2 is quadratic between them, so G is exact (Simpson) at every piece start
    bg = Plane(1)
    rate = SampledRate((-1.0, -0.8, -0.65, -0.5, -0.3, -0.1), (0.2, 0.6, 0.3, 0.5, 0.1, 0.4))
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (1,)): 1.0, mode_from_index(bg, (3,)): 0.4})
    traj = evolve_forced(field, TimeGrid.uniform(-1.0, -0.2, 161), Forcing(rate, ScalarOnU()), local_tol=1e-12)
    rep = _checked(verify_general_harnack, traj)
    assert rep.status == "pass"
    excess, points, trace = _harnack_excess(traj, rep)
    assert points <= 1025  # unsplit, the kinks cost orders of magnitude more points
    ta, tb, ua, k = trace.t[0], trace.t[-1], trace.U[0], trace.kappa_used
    cuts = [ta, -0.8, -0.65, -0.5, -0.3, tb]
    ref, g = 0.0, 0.0
    for p, q in zip(cuts, cuts[1:]):
        ref += _trapezoid_excess(rate, p, q, g, ua, (-ta) ** (1 + 2 * k), k, (1 << 21) + 1)
        g += (q - p) / 6.0 * (rate_at(rate, p) ** 2 + 4.0 * rate_at(rate, 0.5 * (p + q)) ** 2 + rate_at(rate, q) ** 2)
    assert abs(excess - ref) <= 1e-12


# ---------------------------------------------------------------------------
# equality case


def test_equality_case_triggers_on_pure_mode():
    rep = _checked(verify_equality_case, _traj(Plane(1), {(3,): 2.0}))
    assert rep.status == "pass"
    # every pair is flat, and each node is checked once although the pairs on both sides of it are flat
    assert [(c.label, c.nodes.tolist()) for c in rep.columns] == [
        ("defect-bound", list(range(41))), ("eigenvalue-fit", list(range(41)))
    ]


def test_equality_case_fails_on_a_flat_frequency_of_two_modes():
    # plane(1), modes "0" and "2" held at amplitude 1: U = -(mu_0 + mu_2) = -1 at every node, so every pair is flat,
    # yet the field is no eigenfunction.  With c = -mu/(-t), I = 2, sum c^2 a^2 = 1/t^2 and sum c a^2 = -1/(-t), the
    # defect is 1/t^2, largest at t = -0.5: margin tol I^2 - 4 = 4e-9 - 4.  The fitted eigenvalue D/(2I) = -1/(2(-t))
    # is U/(2(-t)) exactly, so that column holds.
    bg = Plane(1)
    grid = TimeGrid.uniform(-1.0, -0.5, 41)
    traj = Trajectory(grid, bg, (mode_from_index(bg, (0,)), mode_from_index(bg, (2,))), np.ones((41, 2)))
    rep = verify_equality_case(Run(traj))
    assert rep.status == "fail"
    defect, fit = rep.columns
    assert (defect.label, fit.label) == ("defect-bound", "eigenvalue-fit")
    assert defect.nodes.tolist() == fit.nodes.tolist() == list(range(41))
    assert int(np.argmin(defect.margin)) == 40
    assert rep.min_margin == defect.margin[40] == pytest.approx(1e-9 * 2.0**2 - 4.0, rel=1e-12)
    assert rep.min_margin == pytest.approx(-3.999999996, rel=1e-12)
    assert float(np.min(fit.margin)) >= 0.0


def test_equality_case_vacuous_on_genuine_mixture():
    rep = _checked(verify_equality_case, _traj(Plane(1), {(1,): 1.0, (3,): 1.0}))
    assert rep.status == "pass"
    assert [(c.label, c.nodes.tolist(), c.margin.tolist()) for c in rep.columns] == [
        ("no pair met the flatness trigger", [40], [0.0])
    ]
    assert any("no node pair" in n or "vacuous" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# weighted monotonicity


def test_weighted_monotonicity_passes_packaged_functions():
    for bg in [Plane(1), Sphere(2)]:
        grid = TimeGrid.uniform(-1.0, -0.5, 401)
        rep = verify_weighted_monotonicity(_on_grid(bg, grid, resolution=32))
        assert rep.status == "pass", (bg.label(), rep.min_margin)
        names = sorted(standard_test_functions(bg))
        assert rep.notes == (f"test functions: {', '.join(names)}",)
        nodes = list(range(len(grid.nodes)))
        assert [(c.label, c.nodes.tolist()) for c in rep.columns] == [(f"{name}:residual", nodes) for name in names]


@pytest.mark.parametrize("bg", sorted(SIX, key=lambda b: b.label()), ids=lambda b: b.label())
def test_weighted_monotonicity_is_exact_on_a_coarse_grid(bg):
    # the slope is differentiated exactly, so three nodes at spacing 0.25 leave only rounding; a centered difference
    # misses the sixth powers' slope there by h^2 g'''/6, about 1.8e-3 on plane(1)
    rep = verify_weighted_monotonicity(_on_grid(bg, TimeGrid.uniform(-1.0, -0.5, 3), resolution=32))
    assert rep.status == "pass"
    assert [len(c.margin) for c in rep.columns] == [3] * len(standard_test_functions(bg))
    assert -rep.min_margin <= 1e-12, rep.min_margin


@pytest.mark.parametrize("bg", sorted(SIX, key=lambda b: b.label()), ids=lambda b: b.label())
def test_weighted_monotonicity_moments_equal_direct_route(bg):
    # direct route: grad f and every d_a d_b f evaluated at the dilated nodes s * y, one integral per time
    grid = TimeGrid.uniform(-1.0, -0.5, 201)
    t = grid.nodes
    run = _on_grid(bg, grid, resolution=16)
    rule = run.rule
    d = bg.ambient_dim
    funcs = standard_test_functions(bg)
    # every packaged function is homogeneous; their sum mixes degrees 0 to 6
    funcs["sum"] = sum(funcs.values(), AmbientPolynomial.zero(d))
    proj = np.stack([geometry_at(bg, p).tangent_projector for p in rule.points])
    for name, poly in funcs.items():
        hess = poly.hessian()
        slope, rhs = [], []
        for s in np.sqrt(-t):
            pts = s * rule.points
            # g(t) = integral f(s y) dmu(y), differentiated under the integral: g' = -(1/(2s)) integral grad f(s y).y
            radial = sum(rule.points[:, a] * poly.diff(a).eval(pts) for a in range(d))
            slope.append(-integrate(rule, radial) / (2.0 * s))
            tr = sum(proj[:, a, b] * hess[a][b].eval(pts) for a in range(d) for b in range(d))
            rhs.append(-integrate(rule, tr))
        direct = -np.abs(np.array(slope) - np.array(rhs))
        rep = verify_weighted_monotonicity(run, {name: poly})
        again = verify_weighted_monotonicity(_on_grid(bg, grid, resolution=16), {name: poly})
        (column,), (column_again,) = rep.columns, again.columns
        np.testing.assert_allclose(column.margin, direct, rtol=0.0, atol=1e-10, err_msg=name)
        assert column.margin.tobytes() == column_again.margin.tobytes(), name
        assert rep.min_margin == again.min_margin, name
        if name == "one":
            assert not np.any(column.margin), column.margin


# ---------------------------------------------------------------------------
# pointwise curvature identity


def test_bochner_variants_coincide_on_plane():
    run = Run(_traj(Plane(2), {(1, 0): 1.0, (2, 1): 0.5}), resolution=32)
    a = verify_drift_bochner(run)
    b = verify_drift_bochner_verbatim(run)
    assert a.status == "pass" and b.status == "pass"
    assert abs(a.min_margin) < 1e-12 and abs(b.min_margin) < 1e-12


def test_bochner_corrected_passes_on_sphere():
    rep = verify_drift_bochner(Run(_traj(Sphere(2), {(2, 0): 1.0, (1, 1): 0.7}), resolution=48))
    assert rep.status == "pass"
    assert abs(rep.min_margin) < 1e-10


@pytest.mark.parametrize("verify", [verify_drift_bochner, verify_drift_bochner_verbatim, frequency.bochner_sides])
def test_bochner_checks_name_the_trajectory_they_need(verify):
    # a run of a single field, as before the checks took both ends of a run
    bg = Plane(1)
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (1,)): 1.0})
    with pytest.raises(TypeError, match="needs a Trajectory .* got CoefficientField"):
        verify(field) if verify is frequency.bochner_sides else verify(Run(field))


_VERBATIM_NOTE = "expected residual from the missing pairing term: "
VERBATIM_CASES = [
    (Sphere(1), 16, {(1, 0): 1.0, (2, 1): -0.6}),
    (Sphere(2), 48, {(1, 0): 1.0, (2, 0): 0.7}),
    (Cylinder(1, 1), 24, {(1, 0, 0): 1.0, (0, 0, 1): 0.8, (1, 1, 2): -0.5}),
]


@pytest.mark.parametrize("t", [-1.0, -0.4], ids=["t=-1", "t=-0.4"])
@pytest.mark.parametrize("bg, resolution, coeffs", VERBATIM_CASES, ids=[case[0].label() for case in VERBATIM_CASES])
def test_bochner_verbatim_gap_equals_gradient_energy(bg, resolution, coeffs, t):
    # the verbatim residual is the left-out pairing integral int <H, A(grad u, grad u)>,
    # taken here from the per-point oracle; on spheres that is the gradient energy over 2(-t)
    rule = quadrature(bg, resolution)
    field = CoefficientField.from_dict(bg, t, {mode_from_index(bg, idx): amp for idx, amp in coeffs.items()})
    traj = evolve_exact_trajectory(field, TimeGrid((t, t / 2.0)))
    rep = verify_drift_bochner_verbatim(Run(traj, resolution=resolution))
    oracle = [geometry_at(bg, p) for p in rule.points]
    proj = np.stack([g.tangent_projector for g in oracle])
    shape = np.stack([g.shape_pairing for g in oracle])

    assert rep.status == "fail"
    (column,) = rep.columns
    assert column.nodes.tolist() == [0, 1] and len(rep.notes) == 2  # one margin and one note per end of the run
    for end, margin, note in zip((field_at(traj, 0), field_at(traj, -1)), column.margin, rep.notes):
        gbar = combine_on_rule(rule, end.modes, end.amplitudes, "gradients")
        tangential = np.einsum("nij,nj->ni", proj, gbar)
        pairing = integrate(rule, np.einsum("nij,ni,nj->n", shape, tangential, tangential)) / end.time**2
        gradient_term = integrate(rule, np.einsum("ni,ni->n", tangential, tangential)) / (2.0 * end.time**2)
        assert -margin == pytest.approx(pairing, rel=1e-12)
        assert float(note.removeprefix(_VERBATIM_NOTE)) == pytest.approx(pairing, rel=1e-12)
        if isinstance(bg, Sphere):
            assert pairing == pytest.approx(gradient_term, rel=1e-12)
        else:
            # only the circle factor is curved, so the axis gradient is left out of the pairing
            assert abs(pairing - gradient_term) > 0.1 * gradient_term


# a field of degree D has integrands of degree 2D, so a rule of resolution D + 1 integrates them exactly
ORACLE_CASES = [
    (Plane(1), {(1,): 1.0, (3,): -0.4}),
    (Plane(2), {(1, 0): 1.0, (2, 1): 0.5}),
    (Plane(3), {(1, 0, 0): 1.0, (0, 2, 1): -0.3}),
    (Sphere(1), {(1, 0): 1.0, (2, 1): -0.6}),
    (Sphere(2), {(1, 0): 1.0, (2, 0): 0.7, (3, 4): 0.3}),
    (Sphere(3), {(2, 1): 1.0, (1, 0): 0.5}),
    (Sphere(4), {(2, 1): 1.0, (1, 0): 0.5, (3, 5): 0.2}),
    (Cylinder(1, 1), {(1, 0, 0): 1.0, (0, 0, 1): 0.8, (1, 1, 2): -0.5}),
    (Cylinder(2, 1), {(1, 0, 0): 1.0, (2, 3, 1): 0.8}),
    (Cylinder(1, 2), {(1, 0, 0, 1): 1.0, (2, 1, 1, 0): 0.8}),
    (Cylinder(2, 2), {(1, 0, 0, 1): 1.0, (2, 1, 1, 0): 0.8}),
]


@pytest.mark.parametrize("bg, coeffs", ORACLE_CASES, ids=[case[0].label() for case in ORACLE_CASES])
def test_bochner_sides_of_both_ends_equal_each_field_alone(bg, coeffs):
    # the closed-form moment sides at each end, against that field alone through the per-point integrands on a rule
    # exact for them, and the gradient energy against the spectral D = -2 (gradient energy)
    traj = _traj(bg, coeffs, nodes=5)
    head = 2 if bg.sphere_n else 0
    degree = max(sum(index[head:]) + (index[0] if head else 0) for index in coeffs)
    rule = quadrature(bg, degree + 1)
    for sides, end in zip(frequency.bochner_sides(traj), (field_at(traj, 0), field_at(traj, -1)), strict=True):
        np.testing.assert_allclose(sides, bochner_sides_on_rule(end, rule), rtol=1e-12, atol=0.0)
        assert sides[3] == pytest.approx(-compute_D(end) / 2.0, rel=1e-12)


# S^k x R^m for k <= 4 and m <= 3
_PRODUCT_SHAPES = (
    [Plane(m) for m in range(1, 4)] + [Sphere(k) for k in range(1, 5)]
    + [Cylinder(k, m) for k in range(1, 5) for m in range(1, 4)]
)


@settings(max_examples=40, deadline=None)
@given(bg=st.sampled_from(_PRODUCT_SHAPES), power=st.integers(-8, 8).filter(bool), data=st.data())
def test_amplitude_scaling_scales_the_integrals_and_keeps_the_frequency(bg, power, data):
    # u -> c u with c a power of 2 multiplies every coefficient exactly, so I, D and the four curvature-identity sides
    # scale by exactly c^2, and U, N_raw and the frequency margins, ratios of them, keep every bit
    modes = enumerate_modes(bg, 1.5)
    chosen = data.draw(st.lists(st.sampled_from(modes), min_size=1, max_size=3, unique=True))
    size = len(chosen)
    amps = data.draw(st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), min_size=size, max_size=size))
    c, grid = 2.0**power, TimeGrid.uniform(-1.0, -0.5, 5)
    fields = [CoefficientField.from_dict(bg, -1.0, dict(zip(chosen, scale * np.array(amps)))) for scale in (1.0, c)]
    runs = [Run(evolve_exact_trajectory(field, grid)) for field in fields]
    base, scaled = (run.trace for run in runs)
    for name in ("I", "D"):
        assert (getattr(scaled, name) == c**2 * getattr(base, name)).all(), name
    for name in ("U", "N_raw"):
        assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name
    assert np.array(runs[1].sides).tobytes() == (c**2 * np.array(runs[0].sides)).tobytes()
    _assert_same_report(*(verify_frequency_monotonicity(run) for run in runs))


# ---------------------------------------------------------------------------
# forced growth bounds


def test_general_bounds_unforced_margins_near_zero():
    traj = _traj(Plane(1), {(2,): 1.0}, nodes=201)
    rep = verify_general_bounds(Run(traj, 0.0))
    assert rep.status == "pass"
    assert rep.min_margin >= -rep.tolerance


def test_general_bounds_scalar_rate_matches_analytic_minimum():
    # for f = c0*u on a single mode, the frequency-derivative margin is
    # c0^2*(2*mu + 2*(-t)); its minimum sits at the latest interior node
    bg = Plane(1)
    c0 = 1.0
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (1,)): 1.0})
    grid = TimeGrid.uniform(-1.0, -0.5, 161)
    traj = evolve_forced(field, grid, Forcing(ConstantRate(c0), ScalarOnU()), local_tol=1e-12)
    rep = verify_general_bounds(Run(traj, 0.0))
    assert rep.status == "pass"
    expected = c0 * c0 * (2.0 * 0.5 + 2.0 * (-grid.nodes[-2]))
    assert rep.min_margin == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("bg", [Plane(1), Sphere(3)], ids=lambda b: b.label())
def test_a_scalar_forcing_holds_identically_without_a_rule(monkeypatch, bg):
    # f = C u with C >= 0 leaves the margin C |grad u| >= 0, so the certificate samples nothing; sphere(3) has no rule
    rules = _counted(monkeypatch, "quadrature")
    modes = [m for m in enumerate_modes(bg, 2.0) if m.mu > 0.0][:2]
    field = CoefficientField.from_dict(bg, -1.0, {modes[0]: 1.0, modes[1]: -0.4})
    rate = SampledRate((-1.0, -0.7, -0.5), (0.5, 0.1, 0.3))
    run = Run(evolve_forced(field, TimeGrid.uniform(-1.0, -0.5, 81), Forcing(rate, ScalarOnU()), local_tol=1e-11))
    assert run.certificate == (True, (verifiers._SCALAR_ON_U_NOTE,))
    for verify in (verify_general_bounds, verify_general_harnack):
        rep = verify(run)
        assert rep.status == "pass", verify.__name__
        assert rep.notes[0] == verifiers._SCALAR_ON_U_NOTE
    assert not rules


def test_general_bounds_inapplicable_when_hypothesis_fails():
    # low-to-high coupling: no constant certifies |f| <= C(|grad u| + |u|)
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    field = CoefficientField.from_dict(bg, -1.0, {m1: 1.0})
    forcing = Forcing(ConstantRate(0.5), ModeMatrix((m3, m1), ((0.0, 1.0), (0.0, 0.0))))
    grid = TimeGrid.uniform(-1.0, -0.5, 81)
    run = Run(evolve_forced(field, grid, forcing, local_tol=1e-10), 0.0)
    rep = verify_general_bounds(run)
    assert rep.status == "inapplicable"
    assert rep.min_margin is None
    assert any("hypothesis fails" in n for n in rep.notes)
    # the integrated bound assumes the same hypothesis, so it is inapplicable too, at the same offending time
    harnack = verify_general_harnack(run)
    assert harnack.status == "inapplicable"
    assert harnack.min_margin is None
    assert harnack.notes == rep.notes
    assert harnack.notes[0].startswith(f"forcing hypothesis fails at t={grid.nodes[0]:.17g} ")


def test_general_checks_inapplicable_when_the_hypothesis_fails_between_sparse_samples():
    # a counterfeit run: (1,) -> (3,) coupling is certifiable only where mode (1,) is absent, and it is absent at
    # every 10th of 81 nodes, the 9 that a certificate sampled at evenly spaced nodes would see; at node 5 the
    # field is mode (1,) alone, which no constant certifies
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    forcing = Forcing(ConstantRate(0.5), ModeMatrix((m3, m1), ((0.0, 1.0), (0.0, 0.0))))
    grid = TimeGrid.uniform(-1.0, -0.5, 81)
    amplitudes = np.tile([0.0, 1.0], (81, 1))  # columns (m1, m3)
    amplitudes[5] = [1.0, 0.0]
    traj = Trajectory(grid, bg, (m1, m3), amplitudes, forcing=forcing)
    run = Run(traj, 0.0)
    sparse = np.round(np.linspace(0, 80, 9)).astype(int)
    assert 5 not in sparse
    assert min(forcing_bound_margin(field_at(traj, int(i)), forcing, run.rule) for i in sparse) >= 0.0
    expected = f"forcing hypothesis fails at t={grid.nodes[5]:.17g} "
    for verify in (verify_general_bounds, verify_general_harnack):
        rep = verify(run)
        assert rep.status == "inapplicable", verify.__name__
        assert rep.notes[0].startswith(expected), rep.notes


# ---------------------------------------------------------------------------
# eigenvalue monotonicity and self-similarity


def test_eigenvalue_drop_margins_exact():
    grid = TimeGrid.uniform(-1.0, -0.5, 6)
    h = 0.1
    plane = verify_eigenvalue_monotonicity(_on_grid(Plane(1), grid, 0.0))
    assert plane.status == "pass"
    assert abs(plane.min_margin) < 1e-15
    sphere = verify_eigenvalue_monotonicity(_on_grid(Sphere(2), grid, 0.5))
    assert sphere.status == "pass"
    assert sphere.min_margin == pytest.approx(0.5 * h, abs=1e-14)


def test_selfsimilar_scaling_pure_vs_mixture():
    pure = _checked(verify_selfsimilar_scaling, _traj(Sphere(2), {(2, 1): 1.5}))
    assert pure.status == "pass"
    mixed = _checked(verify_selfsimilar_scaling, _traj(Sphere(2), {(1, 0): 1.0, (2, 0): 1.0}))
    assert mixed.status == "inapplicable"
    assert any("distinct eigenvalues" in n or "multiple" in n for n in mixed.notes)


@pytest.mark.parametrize(
    "bg, indices",
    [(Plane(2), [(2, 0), (1, 1), (0, 2)]), (Sphere(2), [(2, 1), (2, 3)]),
     (Cylinder(1, 1), [(1, 0, 0), (1, 1, 0), (0, 0, 1)])],
    ids=["plane2", "sphere2", "cylinder11"],
)
def test_selfsimilar_scaling_fails_on_amplitudes_off_their_power(bg, indices):
    # one eigenvalue mu, amplitudes scaled as r^(mu + delta) with r = (-t)/(-t_ref): the residual at node i is
    # a_ref (r_i^(mu + delta) - r_i^mu), whose weighted L^2 norm is |a_ref| |r_i^(mu + delta) - r_i^mu|
    modes = tuple(mode_from_index(bg, idx) for idx in indices)
    (mu,) = {m.mu for m in modes}
    delta, a_ref = 0.25, np.array([1.5, -0.4, 0.7][: len(modes)])
    grid = TimeGrid.uniform(-1.0, -0.5, 11)
    r = -grid.nodes  # t_ref = -1
    traj = Trajectory(grid, bg, modes, np.outer(r ** (mu + delta), a_ref))
    rep = verify_selfsimilar_scaling(Run(traj))
    assert rep.status == "fail"
    assert [c.label for c in rep.columns] == ["weighted-l2-residual"]
    predicted = -np.linalg.norm(a_ref) * np.max(np.abs(r ** (mu + delta) - r**mu))
    assert rep.min_margin == pytest.approx(predicted, rel=1e-12)
    # the point route: the residual field squared, of degree at most 4, on a rule exact to degree 15
    rule = quadrature(bg, 8)
    values = combine_on_rule(rule, modes, traj.rows(slice(None)))  # (nodes, points)
    factors = r**mu
    on_rule = [math.sqrt(integrate(rule, (values[i] - factors[i] * values[0]) ** 2)) for i in range(len(r))]
    np.testing.assert_allclose(-rep.columns[0].margin, on_rule, rtol=1e-12, atol=0.0)


def test_quadrature_mass_check_all_backgrounds():
    for bg in [Plane(1), Plane(2), Sphere(1), Sphere(2), Cylinder(1, 1)]:
        rep = _checked(verify_quadrature_mass, _traj(bg, {}, nodes=3))
        assert rep.status == "pass", bg.label()


# ---------------------------------------------------------------------------
# report plumbing


def test_report_roundtrip_through_dict():
    rep = _checked(verify_harnack, _traj(Sphere(2), {(1, 0): 1.0}))
    clone = report_from_dict(rep.to_dict())
    _assert_same_report(clone, rep)
    assert clone.passed


def test_report_roundtrip_preserves_inapplicable():
    rep = _checked(verify_selfsimilar_scaling, _traj(Plane(1), {(1,): 1.0, (2,): 1.0}))
    doc = rep.to_dict()
    assert doc["min_margin"] is None
    clone = report_from_dict(doc)
    assert clone.status == "inapplicable"
    assert clone.min_margin is None


@pytest.mark.parametrize(
    "nodes, runs",
    [
        ([], []),
        ([7], [[7, 8]]),
        ([0, 40], [[0, 1], [40, 41]]),
        ([0, 1], [[0, 2]]),
        ([5, 3, 4, 4, 9, 10], [[5, 6], [3, 5], [4, 5], [9, 11]]),
    ],
    ids=["no-node", "one-node", "both-ends", "both-ends-adjacent", "non-increasing"],
)
def test_report_nodes_round_trip_through_runs(nodes, runs):
    # a column's nodes are written as the maximal [start, stop) runs of consecutive indices, in their order
    margins = [float(i) for i in range(len(nodes))]
    rep = VerificationReport("x", [("a", nodes, margins), ("b", [2], [-1.0])], 0.0)
    doc = rep.to_dict()
    assert [c["runs"] for c in doc["columns"]] == [runs, [[2, 3]]]
    clone = report_from_dict(json.loads(json.dumps(doc, default=np.ndarray.tolist)))
    _assert_same_report(clone, rep)
    assert clone.columns[0].nodes.tolist() == nodes and clone.columns[0].margin.tolist() == margins


def test_node_checks_must_be_finite():
    with pytest.raises(ValueError):
        VerificationReport("x", [("n", [0], [float("nan")])], 0.0)
    with pytest.raises(ValueError):
        VerificationReport("x", [("n", [0], [float("inf")])], 0.0)


def test_min_margin_is_the_first_minimum_with_its_sign():
    # a signed-zero flip would change the emitted bytes
    for margins in ([0.0, -0.0], [-0.0, 0.0], [1.0, 0.0, -0.0, 0.0]):
        rep = VerificationReport("x", [("n", range(len(margins)), margins)], 0.0)
        assert math.copysign(1.0, rep.min_margin) == math.copysign(1.0, min(margins)), margins
        # the same margins one column per node: the columns are taken in order
        rep = VerificationReport("x", [(f"n{i}", [0], [m]) for i, m in enumerate(margins)], 0.0)
        assert math.copysign(1.0, rep.min_margin) == math.copysign(1.0, min(margins)), margins


@settings(max_examples=300, deadline=None)
@given(
    columns=st.lists(st.lists(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0]), max_size=4), max_size=4),
    tolerance=st.sampled_from([0.0, 5e-324, 1.0]),
)
def test_verdict_is_derived_from_the_columns(columns, tolerance):
    # the constructor takes no verdict: min_margin is Python's min over the margins in column order (the first
    # of equal values, so -0.0 and 0.0 stay apart), pass iff it is at least -tolerance, inapplicable iff no column
    triples = [(f"c{i}", range(len(margins)), margins) for i, margins in enumerate(columns)]
    margins = [m for column in columns for m in column]
    if columns and not margins:
        with pytest.raises(ValueError, match="applicable report requires at least one node"):
            VerificationReport("x", triples, tolerance)
        return
    rep = VerificationReport("x", triples, tolerance)
    assert (rep.status == "inapplicable") == (not columns) == (rep.min_margin is None)
    if columns:
        assert rep.min_margin.hex() == min(margins).hex()
        assert rep.status == ("pass" if min(margins) >= -tolerance else "fail")
    assert report_from_dict(json.loads(json.dumps(rep.to_dict(), default=np.ndarray.tolist))).status == rep.status
    with pytest.raises(TypeError):
        VerificationReport("x", triples, tolerance, (), rep.min_margin, rep.status)


def test_check_table_holds_bare_verifiers():
    # the benchmark tracer rebinds module-level functions by name and does not look inside tuples or closures,
    # so every check's verifier must be reachable as itself from parafreq.verifiers
    for name, verify in scenario._VERIFIERS.items():
        assert inspect.isfunction(verify), name
        assert verify.__module__ == "parafreq.verifiers", name
        assert getattr(verifiers, verify.__name__) is verify, name


def test_reports_are_deterministic():
    a = _checked(verify_frequency_monotonicity, _traj(Plane(2), {(1, 0): 1.0, (0, 2): -0.3}))
    b = _checked(verify_frequency_monotonicity, _traj(Plane(2), {(1, 0): 1.0, (0, 2): -0.3}))
    _assert_same_report(a, b)


# ---------------------------------------------------------------------------
# per-rule arrays against the per-call and per-point routes


@pytest.mark.parametrize(
    "bg, coeffs",
    [
        (Plane(2), {(1, 0): 1.0, (0, 0): 0.0, (2, 1): -0.5, (0, 3): 0.25, (1, 1): 0.0}),
        (Sphere(2), {(1, 0): 0.7, (2, 3): -1.1, (1, 2): 0.0, (3, 1): 0.4}),
        (Cylinder(1, 1), {(1, 0, 0): 1.0, (0, 0, 2): -0.4, (2, 1, 1): 0.0, (1, 1, 1): 0.3}),
    ],
    ids=["plane2", "sphere2", "cylinder11"],
)
def test_mode_columns_reused_across_times_equal_per_call_combinations(bg, coeffs):
    # mixed eigenvalues and zero amplitudes, combined at several times on one rule
    traj = _traj(bg, coeffs, nodes=5)
    rule = quadrature(bg, 10)
    kinds = ("values", "gradients", "hessians")
    every_row = traj.rows(slice(None))
    blocks = {kind: combine_on_rule(rule, traj.modes, every_row, kind) for kind in kinds}  # every row at once
    for i in range(len(traj.grid.nodes)):
        field = field_at(traj, i)
        for kind in kinds:
            columns = combine_on_rule(rule, field.modes, field.amplitudes, kind)
            fresh = combine_on_rule(quadrature(bg, 10), field.modes, field.amplitudes, kind)
            assert columns.tobytes() == fresh.tobytes() == blocks[kind][i].tobytes(), (i, kind)

    # independent route: every derivative polynomial evaluated at the nodes
    field = field_at(traj, -1)
    d = bg.ambient_dim
    grads = np.zeros((len(rule.points), d))
    hess = np.zeros((len(rule.points), d, d))
    for mode, a in zip(field.modes, field.amplitudes):
        poly = mode_function(bg, mode)
        for i in range(d):
            grads[:, i] += a * poly.diff(i).eval(rule.points)
            for j in range(d):
                hess[:, i, j] += a * poly.diff(i).diff(j).eval(rule.points)
    row = (field.modes, field.amplitudes)
    np.testing.assert_allclose(combine_on_rule(rule, *row, "gradients"), grads, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(combine_on_rule(rule, *row, "hessians"), hess, rtol=1e-12, atol=1e-12)


def test_no_package_code_calls_the_per_point_geometry():
    # the per-point oracles live with the tests: no package module binds one, and no package source names one
    import parafreq.cli  # imports every module of the package

    modules = {name: m for name, m in sys.modules.items() if name == "parafreq" or name.startswith("parafreq.")}
    assert "parafreq.verifiers" in modules and "parafreq.evolution" in modules
    oracles = ("geometry_at", "GeometryData", "forcing_bound_margin", "bochner_sides_on_rule")
    for name, module in modules.items():
        assert not [o for o in oracles if hasattr(module, o)], name
    for source in Path(parafreq.__file__).parent.glob("*.py"):
        assert not [o for o in oracles if o in source.read_text()], source.name


# ---------------------------------------------------------------------------
# one run per scenario: its trace, rule, curvature sides and forcing certificate are each built once, when read

_TRACE_CHECKS = (
    "frequency_monotonicity", "equality_case", "harnack", "harnack_printed", "general_bounds", "general_harnack",
)


def _shared_trace_config(initial_modes):
    # plane(1) has kappa 0, so harnack_printed is applicable; the mode-matrix forcing certifies
    return parse_config({
        "scenario_id": "shared-trace",
        "background": {"kind": "plane", "n": 1},
        "initial_modes": initial_modes,
        "forcing": {
            "rate": {"type": "sampled", "times": [-1.0, -0.5], "values": [0.5, 0.2]},
            "coupling": "mode_matrix",
            "modes": ["1", "3"],
            "matrix": [[0.0, 0.4], [0.0, 0.0]],
        },
        "time": {"a": -1.0, "b": -0.5, "nodes": 81},
        "rk_local_tol": 1e-11,
        "resolution": 8,
        "checks": list(_TRACE_CHECKS),
    })


def _fresh_run(config, traj=None):
    """A run of the scenario with nothing built yet, of ``traj`` or else of the configured field evolved anew."""
    if traj is None:
        field = CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes))
        if config.forcing is None:
            traj = evolve_exact_trajectory(field, config.grid)
        else:
            traj = evolve_forced(field, config.grid, config.forcing, local_tol=config.rk_local_tol)
    return Run(traj, config.kappa_value, config.resolution)


def _assert_same_report(a, b):
    for name in ("check_name", "tolerance", "min_margin", "status", "notes"):
        assert getattr(a, name) == getattr(b, name), name
    assert [c.label for c in a.columns] == [c.label for c in b.columns]
    for x, y in zip(a.columns, b.columns, strict=True):
        assert x.nodes.tobytes() == y.nodes.tobytes() and x.margin.tobytes() == y.margin.tobytes(), x.label


@pytest.mark.parametrize("initial_modes", [{"3": 1.0, "2": -0.3}, {}], ids=["forced-mixture", "zero-data"])
def test_shared_trace_gives_the_reports_of_a_trace_built_per_check(initial_modes):
    # every check in turn on one run, against the check alone on a fresh run of the same trajectory
    config = _shared_trace_config(initial_modes)
    run = _fresh_run(config)
    statuses = set()
    for name in _TRACE_CHECKS:
        shared = scenario._VERIFIERS[name](run)
        _assert_same_report(shared, scenario._VERIFIERS[name](_fresh_run(config, run.traj)))
        statuses.add(shared.status)
    if initial_modes:
        assert "inapplicable" not in statuses


# the checks that integrate over the surface: quadrature_mass reads the run's quadrature rule, selfsimilar_scaling
# sums the squares of amplitudes (the modes are orthonormal), and the other three take closed-form moments
_RULE_CHECKS = (
    "weighted_monotonicity", "selfsimilar_scaling", "quadrature_mass", "drift_bochner", "drift_bochner_verbatim"
)
_MOMENT_CHECKS = ("weighted_monotonicity", "drift_bochner", "drift_bochner_verbatim")


def _rule_config(checks, initial_modes=None, forcing=None):
    return parse_config({
        "scenario_id": "shared-rule",
        "background": {"kind": "sphere", "n": 2},
        "initial_modes": {"2,1": 1.5} if initial_modes is None else initial_modes,
        "forcing": forcing,
        "time": {"a": -1.0, "b": -0.5, "nodes": 9},
        "resolution": 12,
        "checks": list(checks),
    })


def test_shared_rule_gives_the_reports_of_a_rule_built_per_check():
    # one rule through every check in turn
    config = _rule_config(_RULE_CHECKS)
    run = _fresh_run(config)
    for name in _RULE_CHECKS:
        shared = scenario._VERIFIERS[name](run)
        _assert_same_report(shared, scenario._VERIFIERS[name](_fresh_run(config, run.traj)))
        assert shared.status != "inapplicable", name


def _counted(monkeypatch, name, home=verifiers):
    """Calls of the package function ``name`` (found in the module ``home``), wrapped in every parafreq module that
    binds it."""
    calls = []
    original = getattr(home, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if (module_name == "parafreq" or module_name.startswith("parafreq.")) and hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


_SCALAR_FORCING = {"rate": {"type": "constant", "c0": 0.2}, "coupling": "scalar_on_u"}
_MATRIX_FORCING = {
    "rate": {"type": "constant", "c0": 0.2}, "coupling": "mode_matrix",
    "modes": ["1,0", "1,1"], "matrix": [[0.0, 0.1], [0.1, 0.0]],
}


def test_run_scenario_builds_one_trace(monkeypatch):
    calls = _counted(monkeypatch, "trace_from_trajectory")
    for initial_modes in ({"3": 1.0, "2": -0.3}, {}):
        calls.clear()
        out = scenario.run_scenario(_shared_trace_config(initial_modes))
        assert [r.check_name for r in out.reports] == list(_TRACE_CHECKS)
        assert len(calls) == 1


def test_run_scenario_builds_one_rule_and_only_when_a_check_reads_it(monkeypatch):
    calls = _counted(monkeypatch, "quadrature")
    spectral = ("frequency_monotonicity", "harnack", "eigenvalue_monotonicity", "general_bounds", "general_harnack")
    for config, builds in (
        (_rule_config(("selfsimilar_scaling", "quadrature_mass")), 1),
        (_rule_config(("selfsimilar_scaling",)), 0),
        (_rule_config(_MOMENT_CHECKS), 0),
        (_rule_config(_RULE_CHECKS + spectral), 1),
        (_shared_trace_config({"3": 1.0}), 1),  # general_bounds certifies a mode-matrix forcing on the rule
        (_rule_config(("general_harnack",), forcing=_MATRIX_FORCING), 1),  # general_harnack alone too
        (_rule_config(spectral, forcing=_SCALAR_FORCING), 0),  # a scalar forcing holds without one
        (_rule_config(spectral), 0),
        (_rule_config(spectral, initial_modes={}), 0),
    ):
        calls.clear()
        out = scenario.run_scenario(config)
        assert len(out.reports) == len(config.checks)
        assert len(calls) == builds, config.checks
        assert all(args == (config.background, config.resolution) for args in calls)

    # the curvature identity on the cylinder, where its pairing term is not a multiple of the gradient term
    bochner = ["drift_bochner", "drift_bochner_verbatim"]
    cylinder = parse_config({
        "scenario_id": "cylinder-bochner",
        "background": {"kind": "cylinder", "k": 1, "m": 1},
        "initial_modes": {"1,0,0": 1.0, "0,0,1": 0.8, "1,1,2": -0.5},
        "time": {"a": -1.0, "b": -0.25, "nodes": 9},
        "resolution": 24,
        "checks": bochner,
        "report_only": bochner,
    })
    calls.clear()
    corrected, verbatim = scenario.run_scenario(cylinder).reports
    assert not calls
    assert corrected.status == "pass" and -corrected.min_margin < 1e-12
    assert verbatim.status == "fail"
    (column,) = verbatim.columns
    assert len(verbatim.notes) == len(column.margin) == 2  # one per end of the run
    for note, margin in zip(verbatim.notes, column.margin):
        assert -margin == pytest.approx(float(note.removeprefix(_VERBATIM_NOTE)), rel=1e-12)


def test_run_scenario_meets_the_rule_once_per_field(monkeypatch):
    # each part of the run is built at most once, and only when a check reads it (the trace always: the output
    # holds it); every report equals its check alone on a fresh run of the same trajectory
    parts = ("trace_from_trajectory", "quadrature", "bochner_sides", "forcing_certificate")
    calls = [_counted(monkeypatch, name) for name in parts]
    bochner, general = ["drift_bochner", "drift_bochner_verbatim"], ["general_bounds", "general_harnack"]
    for config, counts in (
        (_rule_config(bochner), (1, 0, 1, 0)),
        (_rule_config(bochner[1:]), (1, 0, 1, 0)),
        (_shared_trace_config({"3": 1.0, "2": -0.3}), (1, 1, 0, 1)),  # a mode-matrix forcing, sampled on the rule
        (_shared_trace_config({}), (1, 0, 0, 0)),  # zero data: the general checks never reach the certificate
        (_rule_config(bochner + general, forcing=_SCALAR_FORCING), (1, 0, 1, 1)),
        (_rule_config(general, forcing=_SCALAR_FORCING), (1, 0, 0, 1)),  # a scalar forcing holds without a rule
        (_rule_config(["frequency_monotonicity", "harnack", "eigenvalue_monotonicity"]), (1, 0, 0, 0)),
    ):
        for counted in calls:
            counted.clear()
        out = scenario.run_scenario(config)
        assert tuple(len(counted) for counted in calls) == counts, config.checks
        fresh = _fresh_run(config)
        for name, report in zip(config.checks, out.reports, strict=True):
            _assert_same_report(report, scenario._VERIFIERS[name](_fresh_run(config, fresh.traj)))
            assert report.status != "inapplicable" or not config.initial_modes, name


def _bochner_memory_config():
    # bochner-sphere2 of the pointwise benchmark: 9 modes on the 4,608 points of sphere(2) at resolution 48
    config = parse_config({
        "scenario_id": "bochner-memory",
        "background": {"kind": "sphere", "n": 2},
        "random_mixture": {"seed": 0, "mu_cutoff": 1.5, "low": 0.5, "high": 1.0},
        "time": {"a": -1.0, "b": -0.25, "nodes": 9},
        "resolution": 48,
        "checks": ["drift_bochner", "drift_bochner_verbatim"],
    })
    assert len(config.initial_modes) == 9
    return config


def test_drift_pair_keeps_no_mode_column_alive():
    # Measured peak 0.06 MiB for the whole run: the pair reads no rule, so it holds no array over points at all.
    # Building the rule of sphere(2) at resolution 48 alone peaks at 0.86 MiB.
    config = _bochner_memory_config()
    scenario.run_scenario(config)  # fills the mode-polynomial caches, which outlive the run
    tracemalloc.start()
    try:
        out = scenario.run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in out.reports] == ["pass", "fail"]
    assert peak < 0.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_rule_and_curvature_sides_hold_one_block_of_points():
    # The rule keeps only its points and weights. The sides read no rule, so they hold no array over its points:
    # measured peak 0.04 MiB, against 0.86 MiB for building the rule of sphere(2) at resolution 48.
    config = _bochner_memory_config()
    rule = quadrature(config.background, config.resolution)
    assert {name for name, value in vars(rule).items() if isinstance(value, np.ndarray)} == {"points", "weights"}
    field = CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes))
    traj = evolve_exact_trajectory(field, config.grid)
    expected = frequency.bochner_sides(traj)  # fills the caches
    tracemalloc.start()
    try:
        sides = frequency.bochner_sides(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sides == expected
    assert peak < 0.25 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize(
    "bg_doc, single",
    [({"kind": "sphere", "n": 4}, {"1,0": 1.0, "1,3": -0.6}),
     ({"kind": "cylinder", "k": 2, "m": 2}, {"1,1,0,0": 0.8, "0,0,1,0": -0.5})],
    ids=["sphere4", "cylinder22"],
)
def test_moment_checks_build_no_rule_and_ignore_the_resolution(monkeypatch, bg_doc, single):
    # the weighted law and the curvature identity integrate polynomials in closed form, and selfsimilar_scaling
    # compares amplitudes (``single`` has one eigenvalue, 1/2), so no rule is built and the resolution changes no
    # byte of their reports
    def refuse(rule):
        raise AssertionError(f"a quadrature rule was built on {rule.background.label()}")

    monkeypatch.setattr(backgrounds.QuadratureRule, "__post_init__", refuse)
    reports = []
    for resolution in (8, 24):
        base = {"background": bg_doc, "time": {"a": -1.0, "b": -0.5, "nodes": 9}, "resolution": resolution}
        moments = parse_config({
            **base,
            "scenario_id": "moments",
            "random_mixture": {"seed": 4, "mu_cutoff": 1.5, "low": 0.5, "high": 1.0},
            "checks": list(_MOMENT_CHECKS),
            "report_only": ["drift_bochner_verbatim"],
        })
        scaling = parse_config({**base, "scenario_id": "scaling", "initial_modes": single,
                                "checks": ["selfsimilar_scaling"]})
        out = scenario.run_scenario(moments).reports + scenario.run_scenario(scaling).reports
        assert [r.status for r in out] == ["pass", "pass", "fail", "pass"]
        reports.append([json.dumps(r.to_dict(), default=np.ndarray.tolist) for r in out])
    assert reports[0] == reports[1]


def test_weighted_monotonicity_holds_no_array_over_a_rule():
    # Measured peak 0.23 MiB on sphere(4) over 801 nodes, most of it the columns over the nodes; a rule of sphere(4)
    # at resolution 12 has 41,472 points, and its tangent projector alone is 8.3 MiB.
    run = _on_grid(Sphere(4), TimeGrid.uniform(-1.0, -0.5, 801), resolution=12)
    expected = verify_weighted_monotonicity(run)  # fills the caches
    tracemalloc.start()
    try:
        rep = verify_weighted_monotonicity(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_report(rep, expected)
    assert rep.status == "pass"
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_forcing_certificate_holds_one_block_of_rows(monkeypatch):
    # matrix-forced-bounds: 1,801 nodes on a 24-point rule of plane(1).  Measured peak 0.32 MiB for the certificate,
    # rule included, against 2.06 MiB when each block held 1,365 rows and the image a W^T was taken over the whole
    # run at once.  Each row is combined and reduced alone, so blocks of one row give the same margins, bit for bit.
    (config,) = [c for c in _load_packaged_configs() if c.scenario_id == "matrix-forced-bounds"]
    field = CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes))
    traj = evolve_forced(field, config.grid, config.forcing, local_tol=config.rk_local_tol)
    expected = Run(traj, resolution=config.resolution).certificate  # fills the caches
    run = Run(traj, resolution=config.resolution)
    tracemalloc.start()
    try:
        holds, notes = run.certificate
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (holds, notes) == expected and holds
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    margins = evolution.forcing_margins(traj, run.rule)
    monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", 1)
    assert evolution.forcing_margins(traj, run.rule).tobytes() == margins.tobytes()


def test_pointwise_checks_refuse_data_of_another_background():
    # a run's own rule is of its background; what takes a rule apart from a run refuses one of another background
    rule = quadrature(Plane(2), 8)
    s2 = Sphere(2)
    m10, m11 = mode_from_index(s2, (1, 0)), mode_from_index(s2, (1, 1))
    forced = evolve_forced(
        CoefficientField.from_dict(s2, -1.0, {m10: 1.0}),
        TimeGrid.uniform(-1.0, -0.5, 5),
        Forcing(ConstantRate(0.2), ModeMatrix((m10, m11), ((0.0, 0.1), (0.1, 0.0)))),
    )
    with pytest.raises(ValueError, match="quadrature rule background does not match the field"):
        evolution.forcing_margins(forced, rule)
    plane_run = Run(_traj(Plane(2), {}, nodes=5), resolution=8)
    with pytest.raises(ValueError, match="test function 'x1_sq' has dim 3, background needs 2"):
        verify_weighted_monotonicity(plane_run, {"x1_sq": standard_test_functions(s2)["x1_sq"]})
