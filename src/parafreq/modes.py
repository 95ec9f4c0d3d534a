"""Drift-Laplacian eigenmodes on the analytic backgrounds.

At unit scale the relevant operator is the drift Laplacian

    L v = Delta_M v - (1/2) <y_tan, grad v>,

self-adjoint in L^2(dmu).  Its spectrum is explicit on every supported
background, and each eigenfunction is the restriction of an ambient
polynomial, which is what makes exact gradients and Hessians available:

* Plane(n): products of Hermite-type polynomials h_k per axis, satisfying
  h'' - (y/2) h' = -(k/2) h.  The integer-coefficient family is generated by
  h_{k+1} = y h_k - 2k h_{k-1} (h_0 = 1, h_1 = y) with norm^2 = 2^k k!, so the
  normalized mode of multi-degree alpha has eigenvalue mu = |alpha| / 2.
* Sphere(n), radius sqrt(2n): the position vector is purely normal, so the
  drift term vanishes and L = Delta_M.  Spherical harmonics of degree k give
  mu = k (k + n - 1) / (2n).  For n = 1 these are cos/sin(k theta)
  (restrictions of Re/Im (y1 + i y2)^k); for n = 2 they are restrictions of
  homogeneous harmonic polynomials assembled from Legendre derivatives.
* Cylinder(k, m): measure, operator, and spectrum factor over
  S^k_{sqrt(2k)} x R^m, so modes are products (sphere harmonic) x (Hermite)
  with mu = l (l + k - 1) / (2k) + |axial degree| / 2.

Modes are labeled by integer multi-indices: the per-axis Hermite degrees on
planes; (degree, intra-degree label) on spheres, where for n = 1 label 0/1
selects cos/sin and for n = 2 label j in 0..2k maps to azimuthal order
m = j - k (negative m = sine branch); (degree, label, axial degrees...) on
cylinders.  Enumeration sorts by (mu, index) with lexicographic tie-break.
Backgrounds outside ``backgrounds.POINTWISE`` still enumerate their spectrum
for coefficient-space work; only pointwise evaluation raises.

Orthonormality is exact in closed form and is re-verified against quadrature
in the test suite (modes with mu <= 3 to 1e-9 at moderate resolution).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .backgrounds import (
    Background,
    Cylinder,
    Plane,
    QuadratureRule,
    Sphere,
    require_support,
    total_mass,
    unit_sphere_area,
)
from .polynomials import AmbientPolynomial

__all__ = [
    "Mode",
    "enumerate_modes",
    "mode_from_index",
    "sphere_multiplicity",
    "mode_function",
    "combine_on_rule",
    "hermite_polynomial",
    "mode_sort_key",
]


@dataclass(frozen=True)
class Mode:
    """One eigenmode: integer multi-index label plus drift eigenvalue mu (L phi = -mu phi)."""

    index: tuple[int, ...]
    mu: float


def mode_sort_key(mode: Mode) -> tuple[float, tuple[int, ...]]:
    return (mode.mu, mode.index)


# ---------------------------------------------------------------------------
# spectra and enumeration


def sphere_degree_eigenvalue(n: int, k: int) -> float:
    return k * (k + n - 1) / (2.0 * n)


def sphere_multiplicity(n: int, k: int) -> int:
    """Dimension of the degree-k spherical-harmonic space on S^n."""
    if k == 0:
        return 1
    if k == 1:
        return n + 1
    return math.comb(n + k, k) - math.comb(n + k - 2, k - 2)


def _bounded_multi_indices(dims: int, max_sum: int) -> Iterator[tuple[int, ...]]:
    if dims == 0:
        yield ()
        return
    for head in range(max_sum + 1):
        for tail in _bounded_multi_indices(dims - 1, max_sum - head):
            yield (head,) + tail


def mode_from_index(bg: Background, index: tuple[int, ...]) -> Mode:
    """Validate a multi-index against the background and attach its eigenvalue."""
    idx = tuple(int(i) for i in index)
    if isinstance(bg, Plane):
        if len(idx) != bg.n or any(i < 0 for i in idx):
            raise ValueError(f"plane mode index must be {bg.n} nonnegative degrees, got {index!r}")
        return Mode(idx, sum(idx) / 2.0)
    if isinstance(bg, Sphere):
        if len(idx) != 2:
            raise ValueError(f"sphere mode index is (degree, label), got {index!r}")
        k, j = idx
        if k < 0 or not 0 <= j < sphere_multiplicity(bg.n, k):
            raise ValueError(f"sphere mode label out of range: {index!r}")
        return Mode(idx, sphere_degree_eigenvalue(bg.n, k))
    if isinstance(bg, Cylinder):
        if len(idx) != 2 + bg.m:
            raise ValueError(f"cylinder mode index is (degree, label, {bg.m} axial degrees), got {index!r}")
        l, j = idx[0], idx[1]
        axial = idx[2:]
        if l < 0 or not 0 <= j < sphere_multiplicity(bg.k, l) or any(a < 0 for a in axial):
            raise ValueError(f"cylinder mode label out of range: {index!r}")
        return Mode(idx, sphere_degree_eigenvalue(bg.k, l) + sum(axial) / 2.0)
    raise TypeError(f"unknown background {bg!r}")


def enumerate_modes(bg: Background, mu_cutoff: float) -> tuple[Mode, ...]:
    """All modes with mu <= cutoff, sorted by (mu, index)."""
    if mu_cutoff < 0:
        return ()
    modes: list[Mode] = []
    if isinstance(bg, Plane):
        max_deg = int(math.floor(2.0 * mu_cutoff + 1e-12))
        for idx in _bounded_multi_indices(bg.n, max_deg):
            modes.append(Mode(idx, sum(idx) / 2.0))
    elif isinstance(bg, Sphere):
        k = 0
        while sphere_degree_eigenvalue(bg.n, k) <= mu_cutoff + 1e-12:
            for j in range(sphere_multiplicity(bg.n, k)):
                modes.append(Mode((k, j), sphere_degree_eigenvalue(bg.n, k)))
            k += 1
    elif isinstance(bg, Cylinder):
        l = 0
        while sphere_degree_eigenvalue(bg.k, l) <= mu_cutoff + 1e-12:
            mu_l = sphere_degree_eigenvalue(bg.k, l)
            axial_budget = int(math.floor(2.0 * (mu_cutoff - mu_l) + 1e-12))
            for j in range(sphere_multiplicity(bg.k, l)):
                for axial in _bounded_multi_indices(bg.m, axial_budget):
                    modes.append(Mode((l, j) + axial, mu_l + sum(axial) / 2.0))
            l += 1
    else:
        raise TypeError(f"unknown background {bg!r}")
    modes.sort(key=mode_sort_key)
    return tuple(modes)


def first_nonzero_eigenvalue(bg: Background) -> float:
    """Smallest mu > 0; on every supported family this is 1/2, but derive it."""
    if isinstance(bg, Plane):
        return 0.5  # degree-1 Hermite mode
    if isinstance(bg, Sphere):
        return sphere_degree_eigenvalue(bg.n, 1)
    if isinstance(bg, Cylinder):
        return min(sphere_degree_eigenvalue(bg.k, 1), 0.5)
    raise TypeError(f"unknown background {bg!r}")


# ---------------------------------------------------------------------------
# closed-form polynomials


@functools.lru_cache(maxsize=None)
def _hermite_coeffs(k: int) -> tuple[float, ...]:
    # integer-coefficient family: h_{k+1} = y h_k - 2k h_{k-1}
    if k == 0:
        return (1.0,)
    if k == 1:
        return (0.0, 1.0)
    prev2, prev1 = _hermite_coeffs(k - 2), _hermite_coeffs(k - 1)
    out = [0.0] * (k + 1)
    for deg, c in enumerate(prev1):
        out[deg + 1] += c
    for deg, c in enumerate(prev2):
        out[deg] -= 2.0 * (k - 1) * c
    return tuple(out)


def hermite_polynomial(k: int, dim: int = 1, axis: int = 0) -> AmbientPolynomial:
    """Unnormalized integer-coefficient Hermite-type eigenpolynomial h_k on one axis."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    return AmbientPolynomial.from_univariate(dim, axis, _hermite_coeffs(k))


def hermite_norm_squared(k: int) -> float:
    return float(2**k * math.factorial(k))


def _plane_mode_poly(bg: Plane, index: tuple[int, ...]) -> AmbientPolynomial:
    poly = AmbientPolynomial.constant(bg.n, 1.0)
    norm_sq = 1.0
    for axis, deg in enumerate(index):
        poly = poly * hermite_polynomial(deg, dim=bg.n, axis=axis)
        norm_sq *= hermite_norm_squared(deg)
    return poly.scale(1.0 / math.sqrt(norm_sq))


def _circle_pair_polys(l: int, dim: int, axes: tuple[int, int]) -> tuple[AmbientPolynomial, AmbientPolynomial]:
    """Re((u + iv)^l), Im((u + iv)^l) lifted onto two axes of a dim-d space."""
    re_terms: dict[tuple[int, ...], float] = {}
    im_terms: dict[tuple[int, ...], float] = {}
    for i in range(l + 1):
        c = math.comb(l, i)
        exps = [0] * dim
        exps[axes[0]] = l - i
        exps[axes[1]] = i
        key = tuple(exps)
        if i % 2 == 0:
            re_terms[key] = re_terms.get(key, 0.0) + c * (-1.0) ** (i // 2)
        else:
            im_terms[key] = im_terms.get(key, 0.0) + c * (-1.0) ** ((i - 1) // 2)
    return AmbientPolynomial(dim, re_terms), AmbientPolynomial(dim, im_terms)


def _circle_mode_poly(l: int, j: int, radius: float, mass: float, dim: int, axes: tuple[int, int]) -> AmbientPolynomial:
    """Normalized circle harmonic: j = 0 cosine branch, j = 1 sine branch."""
    if l == 0:
        return AmbientPolynomial.constant(dim, 1.0 / math.sqrt(mass))
    re_poly, im_poly = _circle_pair_polys(l, dim, axes)
    poly = re_poly if j == 0 else im_poly
    # on the circle the pair evaluates to r^l cos/sin(l theta); mean square is 1/2
    norm_sq = radius ** (2 * l) * mass / 2.0
    return poly.scale(1.0 / math.sqrt(norm_sq))


def _expand_radial(dim: int, coeffs: np.ndarray, l: int, m: int) -> AmbientPolynomial:
    """sum_j q_j z^j (x^2+y^2+z^2)^((l-m-j)/2) for q with parity l-m."""
    rho_sq = (
        AmbientPolynomial.monomial(dim, (2, 0, 0))
        + AmbientPolynomial.monomial(dim, (0, 2, 0))
        + AmbientPolynomial.monomial(dim, (0, 0, 2))
    )
    out = AmbientPolynomial.zero(dim)
    for j, q in enumerate(coeffs):
        if q == 0.0:
            continue
        s2 = l - m - j
        if s2 < 0 or s2 % 2 != 0:
            # parity of the Legendre derivative guarantees this never triggers
            raise ValueError("inconsistent radial expansion")
        term = rho_sq.power(s2 // 2) * AmbientPolynomial.monomial(dim, (0, 0, j), float(q))
        out = out + term
    return out


@functools.lru_cache(maxsize=None)
def _legendre_derivative_coeffs(l: int, m: int) -> tuple[float, ...]:
    """Power-basis coefficients of d^m/du^m P_l(u)."""
    leg = [0.0] * l + [1.0]
    poly = np.polynomial.legendre.leg2poly(leg)
    for _ in range(m):
        poly = np.polynomial.polynomial.polyder(poly)
    return tuple(float(c) for c in np.atleast_1d(poly))


def _sphere2_mode_poly(bg: Sphere, k: int, j: int) -> AmbientPolynomial:
    """Normalized degree-k harmonic on S^2_2; label j in 0..2k maps to m = j - k."""
    dim = 3
    m_signed = j - k
    m = abs(m_signed)
    radial = _expand_radial(dim, np.array(_legendre_derivative_coeffs(k, m)), k, m)
    if m == 0:
        poly = radial
        angular_sq = 2.0 * math.pi * 2.0 / (2 * k + 1)
    else:
        re_poly, im_poly = _circle_pair_polys(m, dim, (0, 1))
        poly = (im_poly if m_signed < 0 else re_poly) * radial
        angular_sq = math.pi * (2.0 / (2 * k + 1)) * (math.factorial(k + m) / math.factorial(k - m))
    r = bg.radius
    density_on_sphere = total_mass(bg) / unit_sphere_area(bg.n)  # rho * r^n
    norm_sq = density_on_sphere * r ** (2 * k) * angular_sq
    return poly.scale(1.0 / math.sqrt(norm_sq))


@functools.lru_cache(maxsize=4096)
def mode_function(bg: Background, mode: Mode) -> AmbientPolynomial:
    """The normalized ambient polynomial of a mode (cached)."""
    require_support(bg, "closed-form mode evaluation")
    idx = mode.index
    if isinstance(bg, Plane):
        return _plane_mode_poly(bg, idx)
    if bg == Sphere(1):
        return _circle_mode_poly(idx[0], idx[1], bg.radius, total_mass(bg), dim=2, axes=(0, 1))
    if bg == Sphere(2):
        return _sphere2_mode_poly(bg, idx[0], idx[1])
    # Cylinder(1, 1)
    circle = _circle_mode_poly(idx[0], idx[1], bg.radius, total_mass(Sphere(1)), dim=3, axes=(0, 1))
    axial = hermite_polynomial(idx[2], dim=3, axis=2).scale(1.0 / math.sqrt(hermite_norm_squared(idx[2])))
    return circle * axial


# ---------------------------------------------------------------------------
# evaluation


def _value_column(poly: AmbientPolynomial, pts: np.ndarray) -> np.ndarray:
    return poly.eval(pts)


def _gradient_column(poly: AmbientPolynomial, pts: np.ndarray) -> np.ndarray:
    return np.stack([g.eval(pts) for g in poly.gradient()], axis=1)


def _hessian_column(poly: AmbientPolynomial, pts: np.ndarray) -> np.ndarray:
    hess = poly.hessian()
    out = np.zeros((pts.shape[0], poly.dim, poly.dim))
    for i, j in itertools.combinations_with_replacement(range(poly.dim), 2):
        out[:, i, j] = out[:, j, i] = hess[i][j].eval(pts)
    return out


# kind -> (per-mode column of the normalized polynomial at (N, d) points, tensor rank)
_COLUMNS = {
    "values": (_value_column, 0),
    "gradients": (_gradient_column, 1),
    "hessians": (_hessian_column, 2),
}


def combine_on_rule(rule: QuadratureRule, coeffs: Mapping[Mode, float], kind: str = "values") -> np.ndarray:
    """sum_j a_j * column_j at the rule's nodes, in ``mode_sort_key`` order, skipping zero amplitudes.

    ``kind`` is values (N,), ambient gradients (N, d) or ambient Hessians
    (N, d, d); project gradients to get surface gradients.  Each mode's
    column is evaluated once per rule and kept in ``rule.mode_columns``.
    """
    evaluate, rank = _COLUMNS[kind]
    pts = rule.points
    out = np.zeros(pts.shape[:1] + pts.shape[1:] * rank)
    for mode in sorted(coeffs, key=mode_sort_key):
        a = coeffs[mode]
        if a != 0.0:
            column = rule.mode_columns.get((kind, mode))
            if column is None:
                column = rule.mode_columns[(kind, mode)] = evaluate(mode_function(rule.background, mode), pts)
            out += a * column
    return out
