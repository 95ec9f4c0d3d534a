"""Background geometry, measures, and spectral data against closed forms."""

import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from parafreq import (
    Cylinder,
    Plane,
    QuadratureRule,
    Sphere,
    enumerate_modes,
    first_nonzero_eigenvalue,
    kappa,
    mode_from_index,
    mode_function,
    parse_config,
    quadrature,
    total_mass,
    unit_sphere_area,
)
from parafreq import backgrounds
from parafreq.modes import combine_on_rule

from oracles import geometry_at

ALL_BACKGROUNDS = [Plane(1), Plane(2), Plane(3), Sphere(1), Sphere(2), Cylinder(1, 1)]
# round factors S^k, k >= 3, and the cylinders S^2 x R and S^1 x R^2, built by the same recursion as the six above
HIGHER = [Sphere(3), Sphere(4), Cylinder(2, 1), Cylinder(1, 2)]


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


@pytest.mark.parametrize("bg", HIGHER + [Plane(2), Cylinder(1, 1)], ids=lambda b: b.label())
def test_rules_integrate_every_monomial_up_to_their_degree(bg):
    # resolution N is exact to degree 2N - 1: the rule against the package's closed-form moment of every monomial,
    # on the scale of its L2 norm
    n_res, d = 6, bg.ambient_dim
    rule = quadrature(bg, n_res)
    columns = [[rule.points[:, a] ** e for e in range(2 * n_res)] for a in range(d)]
    alphas = [alpha for alpha in itertools.product(range(2 * n_res), repeat=d) if sum(alpha) < 2 * n_res]
    moments = backgrounds.monomial_moments(bg, np.array(alphas))
    squares = backgrounds.monomial_moments(bg, 2 * np.array(alphas))
    worst = 0.0
    for alpha, moment, square in zip(alphas, moments, squares):
        value = rule.integrate(math.prod(columns[a][e] for a, e in enumerate(alpha)))
        worst = max(worst, abs(value - moment) / math.sqrt(square * total_mass(bg)))
    assert worst < 1e-12, worst


@pytest.mark.parametrize("bg", HIGHER, ids=lambda b: b.label())
def test_higher_modes_are_orthonormal_and_eigen_under_their_rule(bg):
    # orthonormal under a rule exact for their products, and L Y = -mu Y at the rule's points from its geometry
    modes = enumerate_modes(bg, 3.0)
    rule = quadrature(bg, 7)
    vals = np.stack([mode_function(bg, m).eval(rule.points) for m in modes])
    gram = (vals * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-13
    rule = quadrature(bg, 3)
    geometry = [geometry_at(bg, p) for p in rule.points]
    proj, sff, normal, x_tan = (np.stack([getattr(g, name) for g in geometry]) for name in
                                ("tangent_projector", "sff", "normal", "x_tan"))
    eye = np.eye(len(modes))
    for row, mode in zip(eye, modes):
        values, gbar, hbar = (combine_on_rule(rule, modes, row, kind) for kind in ("values", "gradients", "hessians"))
        nu_dot = np.einsum("ni,ni->n", normal, gbar)
        hess_m = np.einsum("nij,njk,nkl->nil", proj, hbar, proj) + sff * nu_dot[:, None, None]
        lu = np.einsum("nii->n", hess_m) - 0.5 * np.einsum("ni,ni->n", x_tan, gbar)
        assert np.max(np.abs(lu + mode.mu * values)) < 1e-12 * max(1.0, np.max(np.abs(values))), mode.index


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


BAD_INDICES = [(Plane(2), (1,)), (Plane(1), (-1,)), (Sphere(2), (1, 3)), (Sphere(3), (1,)), (Cylinder(1, 2), (1, 0, -1, 0))]


@pytest.mark.parametrize("bg, index", BAD_INDICES)
def test_a_bad_mode_index_names_the_background(bg, index):
    message = f"^a mode index on {re.escape(bg.label())} is \\(.+\\), all nonnegative; got {re.escape(repr(index))}$"
    with pytest.raises(ValueError, match=message):
        mode_from_index(bg, index)


# ---------------------------------------------------------------------------
# closed forms pinned by digest

PINNED = sorted(ALL_BACKGROUNDS, key=lambda b: b.label()) + [Plane(4), Sphere(3), Sphere(10), Cylinder(2, 3)]
CUTOFFS = (0.0, 0.5 - 1e-13, 0.5, 0.5 + 1e-13, 1.0, 2.5, 3.0 - 4e-13, 3.0)

# kind -> the background's closed-form data of that kind, floats as hex
_CLOSED_FORMS = {
    "scalars": lambda bg: [total_mass(bg).hex(), kappa(bg).hex(), first_nonzero_eigenvalue(bg).hex()],
    "modes": lambda bg: [(c, [(m.index, m.mu.hex()) for m in enumerate_modes(bg, c)]) for c in CUTOFFS],
    "polynomials": lambda bg: [
        (m.index, sorted((e, c.hex()) for e, c in mode_function(bg, m).terms.items())) for m in enumerate_modes(bg, 4.0)
    ],
    "rules": lambda bg: [
        hashlib.sha256(rule.points.tobytes() + rule.weights.tobytes()).hexdigest()
        for rule in (quadrature(bg, r) for r in (2, 5, 24))
    ],
}


# SHA-256 of the repr of each pinned kind of _CLOSED_FORMS: no closed form may move by a bit
CLOSED_FORM_DIGESTS = {
    "cylinder(k=1,m=1)": {
        "scalars": "9f0c2957d435941d232b8319034eb99a64429f3d65cbd6c4280a36b2f59ff79f",
        "modes": "5f2ba6ca58d08a79e1939b23395b601f95e1cd54e7bcb8afd2cf33a5c26a1f0a",
        "polynomials": "9a16137241df772fa5ab7d5a1aa8a797c5accce086f49e23756e8d9b0c2e84d0",
        "rules": "2424dc932984a35b3f0f11e9b70c025e585193cef755e34e5aa7395b35b3d5b3",
    },
    "plane(n=1)": {
        "scalars": "adb66d97aec19f159da6887c55f110027b3d92145f8fe95167be6865ade4b9b1",
        "modes": "3051c9e06b0f899a8538256624455a71f4db314e6c389c312957da7084af4893",
        "polynomials": "fce8ae03c5ea041dbe9468191a491f7a74fde451cd7019d452d7b1afb96fef6a",
        "rules": "cd9c9507da546f6f19923a4d8f2caad300e464812d64d6401160a0f4fe5f5c72",
    },
    "plane(n=2)": {
        "scalars": "adb66d97aec19f159da6887c55f110027b3d92145f8fe95167be6865ade4b9b1",
        "modes": "d1ee1529383c19abcd04cbb6291817f6c77206a3b11561f9b1665b9b64b90551",
        "polynomials": "295e9d07cff0b92d62a2ca61dbfdd9085b3cc0c6c4ae003bb0aba844199e7e49",
        "rules": "144b6aaa962c9968c0df5644ca933f16af4e1e3c6c7fe4d0f1c397d9f9bcc15c",
    },
    "plane(n=3)": {
        "scalars": "adb66d97aec19f159da6887c55f110027b3d92145f8fe95167be6865ade4b9b1",
        "modes": "9eb1c6301d0c8f43ff6155e1ce53120f5ec0f182a397163e415adc57fed1e6f8",
        "polynomials": "e619b99689592e9a9f51f61b0c4c61886be950808f7453bffe454143edc6a247",
        "rules": "5445003cd91b413855319e6e640e892765d91febbee25ed949e15b324283386e",
    },
    "sphere(n=1)": {
        "scalars": "9f0c2957d435941d232b8319034eb99a64429f3d65cbd6c4280a36b2f59ff79f",
        "modes": "7a0a3d358af6d071acc0a3649162e4eb88b2f22351a93fe74d40de4371d53a7a",
        "polynomials": "cd7463538137d16c5a6abec2c7a446d4734c62fd2917e1447a69a4338c00d4d1",
        "rules": "4c97a6728c957d0c51746d1844317bc1ee895e01cc1ebe70864519e92389961f",
    },
    "sphere(n=2)": {
        "scalars": "d8b716b094f74b878f9231a90bca0399f63506d0887299a4256333490a9eefc7",
        "modes": "be3fda2bec5c2dac852775f57a1ba17857f6c0e2d6be1f633a4829fb09795013",
        "polynomials": "9ce9649d613c66668f446cf30d85f6e1482955a365d09c2761a1ead6ab7b75ca",
        "rules": "f94982854e399569e45ee3655448bbe50cfa81d556e625270c4f7dfd873a14bc",
    },
    "plane(n=4)": {
        "scalars": "adb66d97aec19f159da6887c55f110027b3d92145f8fe95167be6865ade4b9b1",
        "modes": "402d8df411fa555eafbde1ad422c5e6feb496e003b031a0e7ec80116791f70a8",
    },
    "sphere(n=3)": {
        "scalars": "7b7770be79c4b830bb0ca348108ab9048c6295bc4358f83654beadf3ad8ba6c8",
        "modes": "38a648ab713b9912f56dab66a5dcc93bd7637cb3798d5d8e392c2b42342d9f2c",
    },
    "sphere(n=10)": {
        "scalars": "d3d4403ec8a6107b64c9f638f99ca41025903b919f0df3e33806db448010a1bc",
        "modes": "92a2afb8b007c0fcac8bd0a82662b25986bc7f8c6f371c36da8823b76c7b0fd7",
    },
    "cylinder(k=2,m=3)": {
        "scalars": "d8b716b094f74b878f9231a90bca0399f63506d0887299a4256333490a9eefc7",
        "modes": "19c1a1b3b2d6cd505bf81c0be02dda6d067f491305040dcce2481ab44342617d",
    },
}


@pytest.mark.parametrize("bg", PINNED, ids=lambda b: b.label())
def test_closed_forms_are_pinned(bg):
    pins = CLOSED_FORM_DIGESTS[bg.label()]
    assert {"scalars", "modes"} <= set(pins)
    assert {name: hashlib.sha256(repr(_CLOSED_FORMS[name](bg)).encode()).hexdigest() for name in pins} == pins


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


@pytest.mark.parametrize("bg", sorted(ALL_BACKGROUNDS, key=lambda b: b.label()) + HIGHER, ids=lambda b: b.label())
def test_rule_geometry_arrays_equal_the_per_point_oracle(bg):
    rule = quadrature(bg, 6)
    whole, oracle = rule.tangent_projector(), [geometry_at(bg, p).tangent_projector for p in rule.points]
    for part in (slice(None), slice(5, 17)):
        array, expected = whole[part], np.stack(oracle[part])
        assert array.shape == expected.shape and array.dtype == expected.dtype, part
        # byte for byte, so even the sign of a zero must agree
        assert np.ascontiguousarray(array).tobytes() == expected.tobytes(), part


@pytest.mark.parametrize("bg", [Plane(4), Sphere(3), Cylinder(2, 1)], ids=lambda b: b.label())
def test_rule_built_directly_on_any_background_is_checked(bg):
    # no background is refused; the rule's own shape and weight checks still apply
    points = np.zeros((2, bg.ambient_dim))
    assert QuadratureRule(bg, 1, points, np.ones(2)).mass == 2.0
    for bad_points, bad_weights in ((points[0], np.ones(2)), (points, np.ones(3)), (points, np.array([1.0, 0.0]))):
        with pytest.raises(ValueError):
            QuadratureRule(bg, 1, bad_points, bad_weights)


def test_off_surface_points_rejected():
    with pytest.raises(ValueError):
        geometry_at(Sphere(2), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        geometry_at(Cylinder(1, 1), np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# supported ranges


# planes, spheres and cylinders of one to four dimensions
CAPABILITIES = [
    Plane(1), Plane(2), Plane(3), Plane(4), Sphere(1), Sphere(2), Sphere(3), Cylinder(1, 1), Cylinder(2, 1), Cylinder(1, 2)
]


@pytest.mark.parametrize("bg", CAPABILITIES, ids=lambda b: b.label())
def test_capability_declaration_gates_every_consumer(bg):
    # a background declares its shape, sphere_n and flat_m, and nothing else: every consumer takes every shape
    mode = enumerate_modes(bg, 1.0)[1]
    point = np.zeros(bg.ambient_dim)
    if bg.sphere_n:
        point[0] = bg.radius  # on the sphere factor
    assert quadrature(bg, 2).points.shape[1] == bg.ambient_dim
    assert geometry_at(bg, point).tangent_projector.shape == (bg.ambient_dim,) * 2
    assert mode_function(bg, mode).dim == bg.ambient_dim

    bg_doc = {"kind": type(bg).__name__.lower(), **{name: getattr(bg, name) for name in bg.__dataclass_fields__}}
    base = {
        "scenario_id": "capability",
        "background": bg_doc,
        "initial_modes": {",".join(map(str, mode.index)): 1.0},
        "time": {"a": -1.0, "b": -0.5, "nodes": 5},
    }
    # spectral checks, every check that integrates over the surface, and either forcing: a mode-matrix one is
    # certified on the rule
    parse_config(dict(base, checks=["frequency_monotonicity", "harnack", "eigenvalue_monotonicity"]))
    rule_checks = ("weighted_monotonicity", "selfsimilar_scaling", "quadrature_mass", "drift_bochner", "drift_bochner_verbatim")
    assert parse_config(dict(base, checks=list(rule_checks))).checks == rule_checks
    rate = {"type": "constant", "c0": 0.1}
    scalar = {"rate": rate, "coupling": "scalar_on_u"}
    matrix = {"rate": rate, "coupling": "mode_matrix", "modes": list(base["initial_modes"]), "matrix": [[0.1]]}
    for forcing in (scalar, matrix):
        parse_config(dict(base, checks=["general_bounds"], forcing=forcing))


def test_unsupported_quadrature_ranges():
    # only the resolution has a range; the size of a rule on S^k x R^m at N is 2N * N^(k-1) * N^m
    for bg in CAPABILITIES:
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            quadrature(bg, 0)
    for bg, size in ((Plane(4), 3**4), (Sphere(3), 6 * 3**2), (Sphere(4), 6 * 3**3), (Cylinder(2, 1), 6 * 3 * 3)):
        assert quadrature(bg, 3).points.shape == (size, bg.ambient_dim)
    assert quadrature(Cylinder(1, 2), 3).points.shape == (6 * 9, 4)


def test_a_rule_above_the_point_limit_is_refused_before_it_is_built(monkeypatch):
    # at the default resolution 24, sphere(5) asks for 2 * 24^5 points and plane(6) for 24^6
    def refuse(*args):
        raise AssertionError("a refused rule was built")

    monkeypatch.setattr(backgrounds, "_round_rule", refuse)
    monkeypatch.setattr(backgrounds, "_gauss_gaussian_1d", refuse)
    for bg, size in ((Sphere(5), 15_925_248), (Plane(6), 191_102_976)):
        with pytest.raises(ValueError, match=(
            rf"^resolution 24 asks for {size} quadrature points on {re.escape(bg.label())}, above the limit of "
            rf"{backgrounds._MAX_RULE_POINTS}; state a smaller resolution$"
        )):
            quadrature(bg, 24)


def test_degenerate_dimensions_rejected():
    with pytest.raises(ValueError):
        Plane(0)
    with pytest.raises(ValueError):
        Sphere(0)
    with pytest.raises(ValueError):
        Cylinder(0, 1)
