"""Background geometry, measures, and spectral data against closed forms."""

import math

import numpy as np
import pytest

from parafreq import (
    ConfigError,
    Cylinder,
    Plane,
    Sphere,
    UnsupportedBackgroundError,
    enumerate_modes,
    first_nonzero_eigenvalue,
    geometry_at,
    kappa,
    mode_function,
    parse_config,
    quadrature,
    total_mass,
    unit_sphere_area,
)
from parafreq.backgrounds import POINTWISE

ALL_BACKGROUNDS = [Plane(1), Plane(2), Plane(3), Sphere(1), Sphere(2), Cylinder(1, 1)]


# ---------------------------------------------------------------------------
# masses and scalar invariants


def test_plane_mass_is_one():
    for n in (1, 2, 3):
        assert total_mass(Plane(n)) == pytest.approx(1.0, abs=1e-15)


def test_sphere_masses_match_closed_forms():
    # n = 1: circle of radius sqrt(2), mass sqrt(2*pi/e); n = 2: 4/e
    assert total_mass(Sphere(1)) == pytest.approx(math.sqrt(2.0 * math.pi / math.e), abs=1e-15)
    assert total_mass(Sphere(2)) == pytest.approx(4.0 / math.e, abs=1e-15)


def test_cylinder_mass_factorizes():
    # product background: spherical factor mass times Gaussian line mass (= 1)
    assert total_mass(Cylinder(1, 1)) == pytest.approx(total_mass(Sphere(1)), abs=1e-15)


def test_quadrature_mass_agrees_with_closed_form():
    for bg in ALL_BACKGROUNDS:
        rule = quadrature(bg, 24)
        assert rule.mass == pytest.approx(total_mass(bg), rel=1e-13)


def test_quadrature_mass_stable_across_resolutions():
    for bg in [Plane(1), Sphere(2), Cylinder(1, 1)]:
        masses = [quadrature(bg, r).mass for r in (8, 16, 32)]
        assert max(masses) - min(masses) < 1e-13 * max(1.0, masses[0])


def test_unit_sphere_area_low_dims():
    assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi, abs=1e-15)
    assert unit_sphere_area(2) == pytest.approx(4.0 * math.pi, abs=1e-15)


def test_kappa_values_exact():
    assert kappa(Plane(1)) == 0.0
    assert kappa(Plane(3)) == 0.0
    # radius^2 = 2n makes these exactly representable
    assert kappa(Sphere(1)) == 0.5
    assert kappa(Sphere(2)) == 0.5
    assert kappa(Cylinder(1, 1)) == 0.5


def test_shrinker_radii_exact():
    assert Sphere(2).radius_squared == 4.0
    assert Sphere(10).radius_squared == 20.0
    assert Cylinder(1, 1).radius_squared == 2.0


def test_first_nonzero_eigenvalue_is_half_everywhere():
    for bg in ALL_BACKGROUNDS:
        assert first_nonzero_eigenvalue(bg) == 0.5


# ---------------------------------------------------------------------------
# mode system


def test_modes_are_orthonormal_under_quadrature():
    for bg in [Plane(1), Plane(2), Sphere(1), Sphere(2), Cylinder(1, 1)]:
        rule = quadrature(bg, 32)
        modes = enumerate_modes(bg, 2.0)
        vals = np.stack([mode_function(bg, m).eval(rule.points) for m in modes])
        gram = np.array(
            [[rule.integrate(vals[i] * vals[j]) for j in range(len(modes))] for i in range(len(modes))]
        )
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10, bg.label()


def test_mode_enumeration_is_sorted_and_cut():
    for bg in ALL_BACKGROUNDS:
        modes = enumerate_modes(bg, 1.5)
        mus = [m.mu for m in modes]
        assert mus == sorted(mus)
        assert all(mu <= 1.5 for mu in mus)
        assert modes[0].mu == 0.0


def test_eigenvalues_come_in_half_integer_steps():
    for bg in ALL_BACKGROUNDS:
        for m in enumerate_modes(bg, 3.0):
            if isinstance(bg, Plane):
                assert (2.0 * m.mu) == int(2.0 * m.mu)
            assert m.mu >= 0.0


# ---------------------------------------------------------------------------
# pointwise geometry


def test_plane_geometry_is_flat():
    g = geometry_at(Plane(2), np.array([0.3, -1.2]))
    assert np.all(g.ric == 0.0)
    assert np.all(g.x_perp == 0.0)
    assert g.normal is None
    assert np.all(g.sff == 0.0)
    assert g.h_norm == 0.0
    assert np.allclose(g.tangent_projector, np.eye(2))


def test_sphere_geometry_at_pole():
    p = np.array([2.0, 0.0, 0.0])
    g = geometry_at(Sphere(2), p)
    proj = np.eye(3)
    proj[0, 0] = 0.0
    assert np.allclose(g.tangent_projector, proj, atol=1e-14)
    assert np.allclose(g.x_tan, 0.0, atol=1e-14)
    assert np.allclose(g.x_perp, p, atol=1e-14)
    # Ric = (n-1)/R^2 on the tangent space, R^2 = 2n = 4
    assert np.allclose(g.ric, 0.25 * proj, atol=1e-14)
    # |H| = R/2 = 1 for the shrinking sphere normalization H = -x_perp/2
    assert g.h_norm == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(g.normal, p / 2.0, atol=1e-14)
    # <H, A> pairing is +g/2 on the tangent space
    assert np.allclose(g.shape_pairing, 0.5 * proj, atol=1e-14)


def test_cylinder_geometry_splits():
    g = geometry_at(Cylinder(1, 1), np.array([math.sqrt(2.0), 0.0, 0.7]))
    # S^1 factor is intrinsically flat and carries all the curvature of H
    assert np.allclose(g.ric, 0.0, atol=1e-14)
    assert g.h_norm == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
    assert np.allclose(g.x_perp, [math.sqrt(2.0), 0.0, 0.0], atol=1e-14)


GEOMETRY_ARRAYS = ("tangent_projector", "sff", "ric", "shape_pairing", "normal", "x_tan")


@pytest.mark.parametrize("bg", sorted(POINTWISE, key=lambda b: b.label()), ids=lambda b: b.label())
def test_rule_geometry_arrays_equal_the_per_point_oracle(bg):
    rule = quadrature(bg, 6)
    oracle = [geometry_at(bg, p) for p in rule.points]
    for name in GEOMETRY_ARRAYS:
        array = getattr(rule, name)
        if isinstance(bg, Plane) and name == "normal":
            assert array is None and all(g.normal is None for g in oracle)
            continue
        expected = np.stack([getattr(g, name) for g in oracle])
        assert array.shape == expected.shape and array.dtype == expected.dtype, name
        # byte for byte, so even the sign of a zero must agree
        assert np.ascontiguousarray(array).tobytes() == expected.tobytes(), name


def test_off_surface_points_rejected():
    with pytest.raises(ValueError):
        geometry_at(Sphere(2), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        geometry_at(Cylinder(1, 1), np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# supported ranges


# (background, closed-form pointwise support)
CAPABILITIES = [
    (Plane(1), True),
    (Plane(2), True),
    (Plane(3), True),
    (Plane(4), False),
    (Sphere(1), True),
    (Sphere(2), True),
    (Sphere(3), False),
    (Cylinder(1, 1), True),
    (Cylinder(2, 1), False),
    (Cylinder(1, 2), False),
]


@pytest.mark.parametrize("bg, pointwise", CAPABILITIES, ids=[case[0].label() for case in CAPABILITIES])
def test_capability_declaration_gates_every_consumer(bg, pointwise):
    assert (bg in POINTWISE) == pointwise
    mode = enumerate_modes(bg, 1.0)[1]
    point = np.zeros(bg.ambient_dim)
    if not isinstance(bg, Plane):
        point[0] = bg.radius  # on the sphere factor

    def allowed(call):
        try:
            call()
        except UnsupportedBackgroundError:
            return False
        return True

    assert allowed(lambda: quadrature(bg, 4)) == pointwise
    assert allowed(lambda: geometry_at(bg, point)) == pointwise
    assert allowed(lambda: mode_function(bg, mode)) == pointwise

    if isinstance(bg, Plane):
        bg_doc = {"kind": "plane", "n": bg.n}
    elif isinstance(bg, Sphere):
        bg_doc = {"kind": "sphere", "n": bg.n}
    else:
        bg_doc = {"kind": "cylinder", "k": bg.k, "m": bg.m}
    base = {
        "scenario_id": "capability",
        "background": bg_doc,
        "initial_modes": {",".join(map(str, mode.index)): 1.0},
        "time": {"a": -1.0, "b": -0.5, "nodes": 5},
    }

    def refused_field(**fields):
        """The field a ConfigError names, or None when the config is accepted."""
        try:
            parse_config(dict(base, **fields))
        except ConfigError as exc:
            return exc.field
        return None

    assert refused_field(checks=["frequency_monotonicity", "harnack", "eigenvalue_monotonicity"]) is None
    rule_checks = ("weighted_monotonicity", "selfsimilar_scaling", "quadrature_mass", "drift_bochner", "drift_bochner_verbatim")
    for check in rule_checks:
        assert refused_field(checks=[check]) == (None if pointwise else "checks"), check
    forcing = {"rate": {"type": "constant", "c0": 0.1}, "coupling": "scalar_on_u"}
    assert refused_field(checks=["general_bounds"], forcing=forcing) == (None if pointwise else "forcing")


def test_unsupported_quadrature_ranges():
    with pytest.raises(UnsupportedBackgroundError):
        quadrature(Plane(4), 8)
    with pytest.raises(UnsupportedBackgroundError):
        quadrature(Sphere(3), 8)
    with pytest.raises(UnsupportedBackgroundError):
        quadrature(Cylinder(2, 1), 8)


def test_degenerate_dimensions_rejected():
    with pytest.raises(ValueError):
        Plane(0)
    with pytest.raises(ValueError):
        Sphere(0)
    with pytest.raises(ValueError):
        Cylinder(0, 1)
