"""Each verifier against an independent oracle, plus report plumbing."""

import math
import sys

import numpy as np
import pytest

from parafreq import (
    AmbientPolynomial,
    CoefficientField,
    ConstantRate,
    Cylinder,
    Forcing,
    ModeMatrix,
    Plane,
    ScalarOnU,
    Sphere,
    TimeGrid,
    Trajectory,
    compute_D_quadrature,
    evolve_exact_trajectory,
    evolve_forced,
    geometry_at,
    mode_from_index,
    parse_config,
    quadrature,
    report_from_dict,
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
from parafreq import scenario, verifiers
from parafreq.backgrounds import POINTWISE
from parafreq.modes import combine_on_rule, mode_function


def _traj(bg, coeffs_by_index, a=-1.0, b=-0.5, nodes=41):
    field = CoefficientField.from_dict(
        bg, a, {mode_from_index(bg, idx): amp for idx, amp in coeffs_by_index.items()}
    )
    return evolve_exact_trajectory(field, TimeGrid.uniform(a, b, nodes))


def _checked(verify, traj, *rule):
    return verify(traj, trace_from_trajectory(traj), *rule)


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
    t = grid.as_array()
    traj = Trajectory(grid, bg, modes, np.column_stack([(-t) ** -0.5, (-t) ** -1.5]), method="counterfeit")
    rep = _checked(verify_frequency_monotonicity, traj)
    assert rep.status == "fail"
    # the worst margin is the centered slope at the node nearest t*; it misses U'(t*) by at most
    # h^2/6 |U'''| (centered difference) + h^2/8 |U'''| (t* lies within h/2 of a node),
    # and |U'''| = 48 |t| (1 - t^2) / (1 + t^2)^4 <= 48 on [-1, 0]
    h = (grid.b - grid.a) / (len(grid.nodes) - 1)
    assert rep.min_margin == pytest.approx(-3.0 * math.sqrt(3.0) / 4.0, abs=(1 / 6 + 1 / 8) * 48.0 * h**2)


def test_harnack_sphere_golden_margin():
    rep = _checked(verify_harnack, _traj(Sphere(2), {(1, 0): 1.0}, b=-0.5))
    assert rep.status == "pass"
    assert rep.min_margin == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_harnack_plane_equality_on_pure_modes():
    rep = _checked(verify_harnack, _traj(Plane(1), {(2,): 1.0}))
    assert rep.status == "pass"
    assert abs(rep.min_margin) < 1e-12


def test_harnack_printed_variant_known_gap():
    # same pure run: the printed kappa = 0 form misses by exactly 2 + ln 2
    rep = _checked(verify_harnack_printed, _traj(Plane(1), {(2,): 1.0}))
    assert rep.status == "fail"
    assert rep.min_margin == pytest.approx(-(2.0 + math.log(2.0)), abs=1e-12)


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
    traj = _traj(bg, coeffs)
    trace = trace_from_trajectory(traj)
    assert trace.kappa_used == (0.0 if isinstance(bg, Plane) else 0.5)
    general = verify_general_harnack(traj, trace)
    assert general.margin.tobytes() == verify_harnack(traj, trace).margin.tobytes()


def test_general_harnack_vanishes_on_a_zero_rate_forced_run():
    bg = Plane(1)
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (2,)): 1.0})
    forcing = Forcing(ConstantRate(0.0), ScalarOnU())
    traj = evolve_forced(field, TimeGrid.uniform(-1.0, -0.5, 201), forcing, local_tol=1e-12)
    rep = _checked(verify_general_harnack, traj, quadrature(bg, 24))
    assert rep.status == "pass"
    assert abs(rep.min_margin) <= 1e-12


def test_general_harnack_unconverged_quadrature_never_passes(monkeypatch):
    bg = Plane(1)
    field = CoefficientField.from_dict(bg, -1.0, {mode_from_index(bg, (2,)): 1.0})
    traj = evolve_forced(field, TimeGrid.uniform(-1.0, -0.9, 11), Forcing(ConstantRate(0.5), ScalarOnU()))
    rule = quadrature(bg, 24)
    assert _checked(verify_general_harnack, traj, rule).status == "pass"
    monkeypatch.setattr(verifiers, "_HARNACK_QUAD_TOL", 0.0)
    rep = _checked(verify_general_harnack, traj, rule)
    assert rep.status != "pass"
    assert any("did not converge" in note and "2097153 points" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# equality case


def test_equality_case_triggers_on_pure_mode():
    rep = _checked(verify_equality_case, _traj(Plane(1), {(3,): 2.0}))
    assert rep.status == "pass"
    labels = set(rep.labels)
    assert "defect-bound" in labels and "eigenvalue-fit" in labels


def test_equality_case_vacuous_on_genuine_mixture():
    rep = _checked(verify_equality_case, _traj(Plane(1), {(1,): 1.0, (3,): 1.0}))
    assert rep.status == "pass"
    assert len(rep.margin) == 1 and rep.margin[0] == 0.0
    assert any("no node pair" in n or "vacuous" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# weighted monotonicity


def test_weighted_monotonicity_passes_packaged_functions():
    for bg in [Plane(1), Sphere(2)]:
        grid = TimeGrid.uniform(-1.0, -0.5, 401)
        for name, poly in standard_test_functions(bg).items():
            rep = verify_weighted_monotonicity(poly, grid, quadrature(bg, 32), function_name=name)
            assert rep.status == "pass", (bg.label(), name, rep.min_margin)


def test_weighted_monotonicity_second_order_in_time_step():
    # residual is centered-difference truncation error, so order ~ 2
    bg = Plane(1)
    poly = standard_test_functions(bg)["x1_over4_pow6"]
    worst = {}
    for nodes in (101, 201):
        grid = TimeGrid.uniform(-1.0, -0.5, nodes)
        rep = verify_weighted_monotonicity(
            poly, grid, quadrature(bg, 32), tolerance=1.0, function_name="x1_over4_pow6"
        )
        worst[nodes] = max(abs(m) for m in rep.margin)
    order = math.log2(worst[101] / worst[201])
    assert order >= 1.8, worst


@pytest.mark.parametrize("bg", sorted(POINTWISE, key=lambda b: b.label()), ids=lambda b: b.label())
def test_weighted_monotonicity_moments_equal_direct_route(bg):
    # direct route: f and every d_a d_b f evaluated at the dilated nodes s * y, one integral per time
    grid = TimeGrid.uniform(-1.0, -0.5, 201)
    t = grid.as_array()
    rule = quadrature(bg, 16)
    d = bg.ambient_dim
    funcs = standard_test_functions(bg)
    # every packaged function is homogeneous; their sum mixes degrees 0 to 6
    funcs["sum"] = sum(funcs.values(), AmbientPolynomial.zero(d))
    for name, poly in funcs.items():
        hess = poly.hessian()
        g, rhs = [], []
        for s in np.sqrt(-t):
            pts = s * rule.points
            g.append(rule.integrate(poly.eval(pts)))
            tr = sum(rule.tangent_projector[:, a, b] * hess[a][b].eval(pts) for a in range(d) for b in range(d))
            rhs.append(-rule.integrate(tr))
        g, rhs = np.array(g), np.array(rhs)
        direct = -np.abs((g[2:] - g[:-2]) / (t[2:] - t[:-2]) - rhs[1:-1])
        rep = verify_weighted_monotonicity(poly, grid, rule, function_name=name)
        again = verify_weighted_monotonicity(poly, grid, quadrature(bg, 16), function_name=name)
        np.testing.assert_allclose(rep.margin, direct, rtol=0.0, atol=1e-10, err_msg=name)
        assert rep.margin.tobytes() == again.margin.tobytes(), name
        assert rep.min_margin == again.min_margin, name
        if name == "one":
            assert not np.any(rep.margin), rep.margin


# ---------------------------------------------------------------------------
# pointwise curvature identity


def test_bochner_variants_coincide_on_plane():
    bg = Plane(2)
    rule = quadrature(bg, 32)
    traj = _traj(bg, {(1, 0): 1.0, (2, 1): 0.5})
    a = verify_drift_bochner(traj.field_at(0), rule)
    b = verify_drift_bochner_verbatim(traj.field_at(0), rule)
    assert a.status == "pass" and b.status == "pass"
    assert abs(a.min_margin) < 1e-12 and abs(b.min_margin) < 1e-12


def test_bochner_corrected_passes_on_sphere():
    bg = Sphere(2)
    rule = quadrature(bg, 48)
    traj = _traj(bg, {(2, 0): 1.0, (1, 1): 0.7})
    rep = verify_drift_bochner(traj.field_at(0), rule)
    assert rep.status == "pass"
    assert abs(rep.min_margin) < 1e-10


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
    rep = verify_drift_bochner_verbatim(field, rule)
    oracle = [geometry_at(bg, p) for p in rule.points]
    gbar = combine_on_rule(rule, field.modes, field.amplitudes, "gradients")
    tangential = np.einsum("nij,nj->ni", np.stack([g.tangent_projector for g in oracle]), gbar)
    shape = np.stack([g.shape_pairing for g in oracle])
    pairing = rule.integrate(np.einsum("nij,ni,nj->n", shape, tangential, tangential)) / t**2
    gradient_term = rule.integrate(np.einsum("ni,ni->n", tangential, tangential)) / (2.0 * t**2)

    assert rep.status == "fail"
    assert -rep.min_margin == pytest.approx(pairing, rel=1e-12)
    (note,) = rep.notes
    assert float(note.removeprefix(_VERBATIM_NOTE)) == pytest.approx(pairing, rel=1e-12)
    if isinstance(bg, Sphere):
        assert pairing == pytest.approx(gradient_term, rel=1e-12)
    else:
        # only the circle factor is curved, so the axis gradient is left out of the pairing
        assert abs(pairing - gradient_term) > 0.1 * gradient_term


# ---------------------------------------------------------------------------
# forced growth bounds


def test_general_bounds_unforced_margins_near_zero():
    traj = _traj(Plane(1), {(2,): 1.0}, nodes=201)
    rep = verify_general_bounds(traj, trace_from_trajectory(traj, 0.0))
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
    rep = verify_general_bounds(traj, trace_from_trajectory(traj, 0.0), quadrature(bg, 24))
    assert rep.status == "pass"
    expected = c0 * c0 * (2.0 * 0.5 + 2.0 * (-grid.nodes[-2]))
    assert rep.min_margin == pytest.approx(expected, abs=1e-4)


def test_general_bounds_inapplicable_when_hypothesis_fails():
    # low-to-high coupling: no constant certifies |f| <= C(|grad u| + |u|)
    bg = Plane(1)
    m1, m3 = mode_from_index(bg, (1,)), mode_from_index(bg, (3,))
    field = CoefficientField.from_dict(bg, -1.0, {m1: 1.0})
    forcing = Forcing(ConstantRate(0.5), ModeMatrix((m3, m1), ((0.0, 1.0), (0.0, 0.0))))
    grid = TimeGrid.uniform(-1.0, -0.5, 81)
    traj = evolve_forced(field, grid, forcing, local_tol=1e-10)
    trace, rule = trace_from_trajectory(traj, 0.0), quadrature(bg, 24)
    rep = verify_general_bounds(traj, trace, rule)
    assert rep.status == "inapplicable"
    assert rep.min_margin is None
    assert any("hypothesis fails" in n for n in rep.notes)
    # the integrated bound assumes the same hypothesis, so it is inapplicable too, at the same offending time
    harnack = verify_general_harnack(traj, trace, rule)
    assert harnack.status == "inapplicable"
    assert harnack.min_margin is None
    assert harnack.notes == rep.notes
    assert harnack.notes[0].startswith(f"forcing hypothesis fails at t={grid.nodes[0]:.17g} ")


# ---------------------------------------------------------------------------
# eigenvalue monotonicity and self-similarity


def test_eigenvalue_drop_margins_exact():
    grid = TimeGrid.uniform(-1.0, -0.5, 6)
    h = 0.1
    plane = verify_eigenvalue_monotonicity(Plane(1), grid, 0.0)
    assert plane.status == "pass"
    assert abs(plane.min_margin) < 1e-15
    sphere = verify_eigenvalue_monotonicity(Sphere(2), grid, 0.5)
    assert sphere.status == "pass"
    assert sphere.min_margin == pytest.approx(0.5 * h, abs=1e-14)


def test_selfsimilar_scaling_pure_vs_mixture():
    rule = quadrature(Sphere(2), 24)
    pure = verify_selfsimilar_scaling(_traj(Sphere(2), {(2, 1): 1.5}), rule)
    assert pure.status == "pass"
    mixed = verify_selfsimilar_scaling(_traj(Sphere(2), {(1, 0): 1.0, (2, 0): 1.0}), rule)
    assert mixed.status == "inapplicable"
    assert any("distinct eigenvalues" in n or "multiple" in n for n in mixed.notes)


def test_quadrature_mass_check_all_backgrounds():
    for bg in [Plane(1), Plane(2), Sphere(1), Sphere(2), Cylinder(1, 1)]:
        rep = verify_quadrature_mass(quadrature(bg, 24))
        assert rep.status == "pass", bg.label()


# ---------------------------------------------------------------------------
# report plumbing


def test_report_roundtrip_through_dict():
    rep = _checked(verify_harnack, _traj(Sphere(2), {(1, 0): 1.0}))
    clone = report_from_dict(rep.to_dict())
    assert clone.to_dict() == rep.to_dict()
    assert clone.passed


def test_report_roundtrip_preserves_inapplicable():
    rep = verify_selfsimilar_scaling(_traj(Plane(1), {(1,): 1.0, (2,): 1.0}), quadrature(Plane(1), 24))
    doc = rep.to_dict()
    assert doc["min_margin"] is None
    clone = report_from_dict(doc)
    assert clone.status == "inapplicable"
    assert clone.min_margin is None


def test_node_checks_must_be_finite():
    with pytest.raises(ValueError):
        verifiers._report("x", Plane(1), "s", [-1.0], [float("nan")], ("n",), 0.0)
    with pytest.raises(ValueError):
        verifiers._report("x", Plane(1), "s", [-1.0], [float("inf")], ("n",), 0.0)


def test_min_margin_is_the_first_minimum_with_its_sign():
    # a signed-zero flip would change the emitted bytes
    for margins in ([0.0, -0.0], [-0.0, 0.0], [1.0, 0.0, -0.0, 0.0]):
        rep = verifiers._report("x", Plane(1), "s", [-1.0] * len(margins), margins, ("n",) * len(margins), 0.0)
        assert math.copysign(1.0, rep.min_margin) == math.copysign(1.0, min(margins)), margins
        merged = verifiers.merge_reports(Plane(1), [rep, rep])
        assert math.copysign(1.0, merged.min_margin) == math.copysign(1.0, min(margins + margins)), margins


def test_reports_are_deterministic():
    a = _checked(verify_frequency_monotonicity, _traj(Plane(2), {(1, 0): 1.0, (0, 2): -0.3}))
    b = _checked(verify_frequency_monotonicity, _traj(Plane(2), {(1, 0): 1.0, (0, 2): -0.3}))
    assert a.to_dict() == b.to_dict()


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
    for i in range(len(traj.grid.nodes)):
        field = traj.field_at(i)
        for kind in kinds:
            columns = combine_on_rule(rule, field.modes, field.amplitudes, kind)
            fresh = combine_on_rule(quadrature(bg, 10), field.modes, field.amplitudes, kind)
            assert columns.tobytes() == fresh.tobytes(), (i, kind)
    # only modes with a nonzero amplitude were ever evaluated, once per kind
    active = {m for m, a in zip(traj.modes, traj.amplitudes[0]) if a != 0.0}
    assert set(rule.mode_columns) == {(kind, m) for kind in kinds for m in active}

    # independent route: every derivative polynomial evaluated at the nodes
    field = traj.field_at(-1)
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


def test_no_package_code_calls_the_per_point_geometry(monkeypatch):
    import parafreq

    def forbidden(*args, **kwargs):
        raise AssertionError("geometry_at called from package code")

    modules = [m for name, m in sys.modules.items() if name == "parafreq" or name.startswith("parafreq.")]
    for module in modules:
        if hasattr(module, "geometry_at"):
            monkeypatch.setattr(module, "geometry_at", forbidden)
    assert parafreq.backgrounds.geometry_at is forbidden

    sphere = Sphere(2)
    traj = _traj(sphere, {(1, 0): 1.0, (2, 3): 0.5}, nodes=9)
    rule = quadrature(sphere, 12)
    assert verify_drift_bochner(traj.field_at(0), rule).status == "pass"
    assert verify_drift_bochner_verbatim(traj.field_at(-1), rule).status == "fail"
    funcs = standard_test_functions(sphere)
    rep = verify_weighted_monotonicity(funcs["x1_sq"], TimeGrid.uniform(-1.0, -0.5, 5), quadrature(sphere, 8))
    assert rep.status == "pass"
    assert compute_D_quadrature(traj.field_at(0), rule) < 0.0

    m10, m11 = mode_from_index(sphere, (1, 0)), mode_from_index(sphere, (1, 1))
    field = CoefficientField.from_dict(sphere, -1.0, {m10: 1.0, m11: 0.5})
    forcing = Forcing(ConstantRate(0.2), ModeMatrix((m10, m11), ((0.0, 0.1), (0.1, 0.0))))
    forced = evolve_forced(field, TimeGrid.uniform(-1.0, -0.5, 21), forcing)
    rep = verify_general_bounds(forced, trace_from_trajectory(forced), quadrature(sphere, 8))
    assert any("certified" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# one trace per run, shared by the checks that read it

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


def _evolve(config):
    field = CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes))
    return evolve_forced(field, config.grid, config.forcing, local_tol=config.rk_local_tol)


def _assert_same_report(a, b):
    for name in ("check_name", "background", "scenario_id", "labels", "tolerance", "min_margin", "status", "notes"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.t.tobytes() == b.t.tobytes()
    assert a.margin.tobytes() == b.margin.tobytes()


@pytest.mark.parametrize("initial_modes", [{"3": 1.0, "2": -0.3}, {}], ids=["forced-mixture", "zero-data"])
def test_shared_trace_gives_the_reports_of_a_trace_built_per_check(initial_modes):
    config = _shared_trace_config(initial_modes)
    traj = _evolve(config)
    trace = trace_from_trajectory(traj, config.kappa_value)
    rule = quadrature(config.background, config.resolution)
    statuses = set()
    for name in _TRACE_CHECKS:
        shared = scenario._run_check(name, config, traj, trace, rule)
        fresh = (quadrature(config.background, config.resolution),) if name in scenario._CERTIFIERS else ()
        alone = scenario._VERIFIERS[name](
            traj, trace_from_trajectory(traj, config.kappa_value), *fresh, scenario_id=config.scenario_id
        )
        _assert_same_report(shared, alone)
        statuses.add(shared.status)
    if initial_modes:
        assert "inapplicable" not in statuses


_RULE_CHECKS = tuple(scenario._RULE_READERS)


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
    # one rule through every check in turn, its mode columns filled by the earlier ones
    config = _rule_config(_RULE_CHECKS)
    traj = evolve_exact_trajectory(
        CoefficientField.from_dict(config.background, config.grid.a, dict(config.initial_modes)), config.grid
    )
    trace = trace_from_trajectory(traj, config.kappa_value)
    rule = quadrature(config.background, config.resolution)
    for name in _RULE_CHECKS:
        shared = scenario._run_check(name, config, traj, trace, rule)
        alone = scenario._run_check(name, config, traj, trace, quadrature(config.background, config.resolution))
        _assert_same_report(shared, alone)
        assert shared.status != "inapplicable", name
    assert rule.mode_columns


def _counted(monkeypatch, name):
    """Calls of the package function ``name``, wrapped in every parafreq module that binds it."""
    calls = []
    original = getattr(scenario, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if (module_name == "parafreq" or module_name.startswith("parafreq.")) and hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_a_trace_of_another_run_is_refused():
    config = _shared_trace_config({"3": 1.0})
    traj = _evolve(config)
    rule = quadrature(config.background, config.resolution)
    shorter = trace_from_trajectory(_traj(Plane(1), {(3,): 1.0}, nodes=41), 0.0)
    for name in _TRACE_CHECKS:
        with pytest.raises(ValueError, match="does not belong to this run"):
            scenario._VERIFIERS[name](traj, shorter, *((rule,) if name in scenario._CERTIFIERS else ()))
    # checked first, also where kappa > 0 leaves the trace unread
    with pytest.raises(ValueError, match="does not belong to this run"):
        verify_harnack_printed(_traj(Sphere(2), {(1, 0): 1.0}, nodes=81), shorter)


def test_run_scenario_builds_one_trace(monkeypatch):
    calls = _counted(monkeypatch, "trace_from_trajectory")
    for initial_modes in ({"3": 1.0, "2": -0.3}, {}):
        calls.clear()
        out = scenario.run_scenario(_shared_trace_config(initial_modes))
        assert [r.check_name for r in out.reports] == list(_TRACE_CHECKS)
        assert len(calls) == 1


def test_run_scenario_builds_one_rule_and_only_when_a_check_reads_it(monkeypatch):
    calls = _counted(monkeypatch, "quadrature")
    forcing = {"rate": {"type": "constant", "c0": 0.2}, "coupling": "scalar_on_u"}
    spectral = ("frequency_monotonicity", "harnack", "eigenvalue_monotonicity", "general_bounds", "general_harnack")
    for config, builds in (
        (_rule_config(("selfsimilar_scaling", "quadrature_mass")), 1),
        (_rule_config(("drift_bochner", "drift_bochner_verbatim")), 1),
        (_rule_config(_RULE_CHECKS + spectral), 1),
        (_shared_trace_config({"3": 1.0}), 1),  # general_bounds on a forced run
        (_rule_config(spectral, forcing=forcing), 1),
        (_rule_config(("general_harnack",), forcing=forcing), 1),  # it certifies the forcing too
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
    assert len(calls) == 1
    assert corrected.status == "pass" and -corrected.min_margin < 1e-12
    assert verbatim.status == "fail"
    assert len(verbatim.notes) == len(verbatim.margin) == 2  # one per end of the run
    for note, margin in zip(verbatim.notes, verbatim.margin):
        assert -margin == pytest.approx(float(note.removeprefix(_VERBATIM_NOTE)), rel=1e-12)


def test_pointwise_checks_refuse_data_of_another_background():
    rule = quadrature(Plane(2), 8)
    other = _traj(Sphere(2), {(1, 0): 1.0}, nodes=5)
    zero = _traj(Sphere(2), {}, nodes=5)
    forced = evolve_forced(
        CoefficientField.from_dict(Sphere(2), -1.0, {mode_from_index(Sphere(2), (1, 0)): 1.0}),
        TimeGrid.uniform(-1.0, -0.5, 5),
        Forcing(ConstantRate(0.2), ScalarOnU()),
    )
    for refused in (
        lambda: verify_selfsimilar_scaling(other, rule),
        lambda: verify_selfsimilar_scaling(zero, rule),
        lambda: verify_drift_bochner(other.field_at(0), rule),
        lambda: verify_drift_bochner_verbatim(other.field_at(-1), rule),
        lambda: verify_general_bounds(other, trace_from_trajectory(other), rule),
        lambda: verify_general_bounds(forced, trace_from_trajectory(forced), rule),
        lambda: verify_general_harnack(other, trace_from_trajectory(other), rule),
        lambda: verify_general_harnack(forced, trace_from_trajectory(forced), rule),
    ):
        with pytest.raises(ValueError, match="quadrature rule background does not match the field"):
            refused()
    with pytest.raises(ValueError, match="test function has dim 3, background needs 2"):
        verify_weighted_monotonicity(standard_test_functions(Sphere(2))["x1_sq"], other.grid, rule)
    # the forcing hypothesis is certified on a rule, so a forced run cannot go without one
    for verify in (verify_general_bounds, verify_general_harnack):
        with pytest.raises(ValueError, match="needs a quadrature rule"):
            verify(forced, trace_from_trajectory(forced))
