"""Analytic shrinker backgrounds: geometry, weighted measure, quadrature.

Each background is a fixed hypersurface M in Euclidean space satisfying the
self-shrinking soliton equation H = -x_perp/2 at unit scale, swept through
time as M_t = sqrt(-t) * M for t < 0.  The Gaussian-weighted area measure

    dmu_t = (-4 pi t)^(-n/2) * exp(|x|^2 / (4t)) dA_t

is invariant under the self-similar change of variables y = x / sqrt(-t):
substituting x = sqrt(-t) y gives |x|^2/(4t) = -|y|^2/4 and
dA_t = (-t)^(n/2) dA, so dmu_t pulls back to the fixed unit-scale measure
dmu = (4 pi)^(-n/2) exp(-|y|^2/4) dA on M.  Every integral in this package is
therefore taken once, at unit scale, with time entering only through scaling
factors.  Quadrature rules below discretize that unit-scale measure.

Supported families:

* ``Plane(n)``   -- an n-plane through the origin (x_perp = 0, totally
  geodesic, kappa = 0).  Measure: standard Gaussian with variance 2 per axis,
  total mass exactly 1.
* ``Sphere(n)``  -- the round n-sphere of radius sqrt(2n).  The radius is
  forced by H = -(n/r) nu and x_perp = x = r nu: -(n/r^2) x = -x/2.
* ``Cylinder(k, m)`` -- S^k_{sqrt(2k)} x R^m, a product shrinker; measure and
  spectrum factor over the two parts.

``POINTWISE`` declares, once for the whole package, which backgrounds carry
closed-form pointwise support (modes, geometry, quadrature); every check that
reads a quadrature rule, the integral curvature identity included, runs on
exactly these.  Every other background is spectral only: its modes enumerate
and evolve exactly, but nothing is evaluated at points.

Each ``QuadratureRule`` carries, as arrays over its nodes built once in
closed form, the geometry every verifier needs: the tangent projector, the
scalar second fundamental form (codimension one throughout, with
A(X, Y) = sff(X, Y) * nu as a vector), Ricci, the pairing <H, A(.,.)>, the
unit normal and the tangential part of the position vector.  The curvature
bound sup <H, A> = kappa / (-t) along the flow reduces at unit scale to the
largest eigenvalue of the shape pairing, which is 0 on planes and 1/2 on
spheres and cylinders (n/(2n) resp. k/(2k)).  ``geometry_at`` gives the same
data at one point; it is the oracle the tests hold the rule arrays to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Background",
    "POINTWISE",
    "Plane",
    "Sphere",
    "Cylinder",
    "GeometryData",
    "QuadratureRule",
    "UnsupportedBackgroundError",
    "kappa",
    "geometry_at",
    "quadrature",
    "require_support",
    "total_mass",
    "unit_sphere_area",
]

class UnsupportedBackgroundError(ValueError):
    """Raised when a pointwise operation is asked of a spectral-only background."""


class Background:
    """Base marker for shrinker backgrounds.  Instances are frozen and hashable."""

    @property
    def ambient_dim(self) -> int:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Plane(Background):
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"Plane dimension must be >= 1, got {self.n}")

    @property
    def ambient_dim(self) -> int:
        return self.n

    def label(self) -> str:
        return f"plane(n={self.n})"


@dataclass(frozen=True)
class Sphere(Background):
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"Sphere dimension must be >= 1, got {self.n}")

    @property
    def radius_squared(self) -> float:
        # forced by the soliton equation: H = -(n/r) nu must equal -r nu / 2
        return 2.0 * self.n

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_squared)

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    def label(self) -> str:
        return f"sphere(n={self.n})"


@dataclass(frozen=True)
class Cylinder(Background):
    """S^k_{sqrt(2k)} x R^m with the sphere factor in the first k+1 coordinates."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ValueError(f"Cylinder factors must be >= 1, got k={self.k}, m={self.m}")

    @property
    def radius_squared(self) -> float:
        return 2.0 * self.k

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_squared)

    @property
    def ambient_dim(self) -> int:
        return self.k + 1 + self.m

    def label(self) -> str:
        return f"cylinder(k={self.k},m={self.m})"


# ---------------------------------------------------------------------------
# capabilities

# closed-form modes, geometry and quadrature
POINTWISE = frozenset({Plane(1), Plane(2), Plane(3), Sphere(1), Sphere(2), Cylinder(1, 1)})


def require_support(bg: Background, what: str) -> None:
    """Raise ``UnsupportedBackgroundError`` unless ``bg`` is in ``POINTWISE``."""
    if bg not in POINTWISE:
        labels = ", ".join(sorted(b.label() for b in POINTWISE))
        raise UnsupportedBackgroundError(f"{what} is not available on {bg.label()} (supported: {labels})")


# ---------------------------------------------------------------------------
# measure


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit n-sphere in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def total_mass(bg: Background) -> float:
    """Closed-form total unit-scale Gaussian mass of the background."""
    if isinstance(bg, Plane):
        return 1.0
    if isinstance(bg, Sphere):
        n = bg.n
        r = bg.radius
        return (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0) * unit_sphere_area(n) * r**n
    if isinstance(bg, Cylinder):
        # product measure: sphere factor times Gaussian mass 1 of the axis
        return total_mass(Sphere(bg.k))
    raise TypeError(f"unknown background {bg!r}")


def kappa(bg: Background) -> float:
    """Curvature constant: sup of the largest eigenvalue of <H, A(.,.)> at unit scale.

    Planes are totally geodesic (0).  For a sphere factor of radius
    r = sqrt(2j), <H, A> = (j / r^2) g restricted to the factor, so the
    supremum is j / (2j) = 1/2 regardless of the factor dimension.
    """
    if isinstance(bg, Plane):
        return 0.0
    if isinstance(bg, Sphere):
        return bg.n / bg.radius_squared
    if isinstance(bg, Cylinder):
        return bg.k / bg.radius_squared
    raise TypeError(f"unknown background {bg!r}")


# ---------------------------------------------------------------------------
# pointwise geometry


@dataclass(frozen=True)
class GeometryData:
    """Pointwise unit-scale geometry in ambient coordinates.

    All bilinear forms are given as ambient matrices that act on tangent
    vectors (they are extended by zero on the normal space, so contracting
    with projected gradients is safe).

    Fields
    ------
    ric : (d, d) Ricci quadratic form.
    shape_pairing : (d, d) form <H, A(., .)>; its largest eigenvalue over the
        background equals ``kappa(bg)`` exactly.
    h_norm : |H| at the point.
    x_tan, x_perp : tangential / normal split of the position vector.
    tangent_projector : (d, d) orthogonal projector onto the tangent space.
    normal : unit normal (codimension one), or None on planes where the
        second fundamental form vanishes identically.
    sff : (d, d) scalar second fundamental form, A(X, Y) = sff(X, Y) * normal.
    """

    ric: np.ndarray
    shape_pairing: np.ndarray
    h_norm: float
    x_tan: np.ndarray
    x_perp: np.ndarray
    tangent_projector: np.ndarray
    normal: np.ndarray | None
    sff: np.ndarray


def _require_on_surface(actual: float, expected: float, what: str) -> None:
    if abs(actual - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValueError(f"point is not on the unit-scale shrinker: {what} = {actual!r}, expected {expected!r}")


def geometry_at(bg: Background, point: np.ndarray) -> GeometryData:
    """Closed-form geometry of the unit-scale background at ``point``; ``bg`` must be in ``POINTWISE``.

    The per-point oracle for the ``QuadratureRule`` geometry arrays.
    """
    require_support(bg, "pointwise geometry")
    y = np.asarray(point, dtype=float)
    d = bg.ambient_dim
    if y.shape != (d,):
        raise ValueError(f"point has shape {y.shape}, background is ambient dim {d}")

    if isinstance(bg, Plane):
        eye = np.eye(d)
        zero = np.zeros((d, d))
        return GeometryData(
            ric=zero,
            shape_pairing=zero,
            h_norm=0.0,
            x_tan=y.copy(),
            x_perp=np.zeros(d),
            tangent_projector=eye,
            normal=None,
            sff=zero,
        )

    if isinstance(bg, Sphere):
        r = bg.radius
        _require_on_surface(float(np.linalg.norm(y)), r, "|y|")
        nu = y / r
        proj = np.eye(d) - np.outer(nu, nu)
        n = bg.n
        return GeometryData(
            ric=((n - 1) / bg.radius_squared) * proj,
            shape_pairing=(n / bg.radius_squared) * proj,
            h_norm=n / r,
            x_tan=np.zeros(d),
            x_perp=y.copy(),
            tangent_projector=proj,
            normal=nu,
            sff=-proj / r,
        )

    # Cylinder(1, 1)
    r = bg.radius
    circ = y[:2]
    _require_on_surface(float(np.linalg.norm(circ)), r, "|y_circle|")
    nu = np.array([circ[0] / r, circ[1] / r, 0.0])
    tau = np.array([-circ[1] / r, circ[0] / r, 0.0])
    proj = np.eye(3) - np.outer(nu, nu)
    q_circ = np.outer(tau, tau)
    return GeometryData(
        ric=np.zeros((3, 3)),  # intrinsically flat product
        shape_pairing=q_circ * (bg.k / bg.radius_squared),
        h_norm=1.0 / r,
        x_tan=np.array([0.0, 0.0, y[2]]),
        x_perp=np.array([circ[0], circ[1], 0.0]),
        tangent_projector=proj,
        normal=nu,
        sff=-q_circ / r,
    )


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the unit-scale weighted measure, with the geometry at the nodes.

    ``sum(weights * f(points))`` approximates the dmu integral of f; the
    weights absorb the Gaussian density, so the weight sum equals the total
    mass (exactly 1 on planes).  The geometry fields stack ``geometry_at``
    over the nodes ((N, d, d) forms, (N, d) vectors, ``normal`` None on planes);
    ``mode_columns`` keeps what ``modes.combine_on_rule`` evaluates.
    """

    background: Background
    resolution: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    tangent_projector: np.ndarray = field(init=False, repr=False, compare=False)
    sff: np.ndarray = field(init=False, repr=False, compare=False)
    ric: np.ndarray = field(init=False, repr=False, compare=False)
    shape_pairing: np.ndarray = field(init=False, repr=False, compare=False)
    normal: np.ndarray | None = field(init=False, repr=False, compare=False)
    x_tan: np.ndarray = field(init=False, repr=False, compare=False)
    mode_columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("points must be (N, d), weights (N,)")
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points/weights length mismatch")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        geometry = _node_geometry(self.background, self.points)
        for name, value in zip(("tangent_projector", "sff", "ric", "shape_pairing", "normal", "x_tan"), geometry):
            object.__setattr__(self, name, value)

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def require_background(self, bg: Background) -> None:
        """Refuse data that lives on another background than this rule."""
        if bg != self.background:
            raise ValueError("quadrature rule background does not match the field")


def _node_geometry(bg: Background, pts: np.ndarray) -> tuple:
    """(tangent_projector, sff, ric, shape_pairing, normal, x_tan) at each row of ``pts``, as in ``geometry_at``."""
    require_support(bg, "pointwise geometry")
    count, d = pts.shape
    if isinstance(bg, Plane):
        zero = np.broadcast_to(np.zeros((d, d)), (count, d, d))
        return np.broadcast_to(np.eye(d), (count, d, d)), zero, zero, zero, None, pts
    r = bg.radius
    if isinstance(bg, Sphere):
        nu = pts / r
        proj = np.eye(d) - nu[:, :, None] * nu[:, None, :]
        ric, shape = ((bg.n - 1) / bg.radius_squared) * proj, (bg.n / bg.radius_squared) * proj
        return proj, -proj / r, ric, shape, nu, np.zeros((count, d))
    # Cylinder(1, 1)
    zero = np.zeros(count)
    nu = np.stack([pts[:, 0] / r, pts[:, 1] / r, zero], axis=1)
    proj = np.eye(3) - nu[:, :, None] * nu[:, None, :]
    tau = np.stack([-pts[:, 1] / r, pts[:, 0] / r, zero], axis=1)
    q_circ = tau[:, :, None] * tau[:, None, :]
    ric = np.broadcast_to(np.zeros((3, 3)), (count, 3, 3))  # intrinsically flat product
    shape = q_circ * (bg.k / bg.radius_squared)
    return proj, -q_circ / r, ric, shape, nu, np.stack([zero, zero, pts[:, 2]], axis=1)


def _gauss_gaussian_1d(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int f(y) (4 pi)^(-1/2) e^(-y^2/4) dy, exact to degree 2*res - 1."""
    x, w = np.polynomial.hermite.hermgauss(resolution)
    return 2.0 * x, w / math.sqrt(math.pi)


def _circle_rule(radius: float, mass: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform angular rule; exact for trigonometric degree < 2*resolution."""
    count = 2 * resolution
    theta = 2.0 * math.pi * np.arange(count) / count
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return pts, np.full(count, mass / count)


def _tensor_product(
    pts_a: np.ndarray, w_a: np.ndarray, pts_b: np.ndarray, w_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    na, nb = pts_a.shape[0], pts_b.shape[0]
    left = np.repeat(pts_a, nb, axis=0)
    right = np.tile(pts_b, (na, 1))
    return np.concatenate([left, right], axis=1), np.repeat(w_a, nb) * np.tile(w_b, na)


def quadrature(bg: Background, resolution: int) -> QuadratureRule:
    """Build the unit-scale rule for a background in ``POINTWISE``.

    Plane(n <= 3): tensor Gauss-Hermite, ``resolution`` nodes per axis
    (polynomial-exact to degree 2*resolution - 1 per axis).  Sphere(1) and
    circle factors: 2*resolution uniform angles.  Sphere(2): Gauss-Legendre in
    the polar cosine times 2*resolution uniform longitudes.  Cylinder(1, 1):
    product of the circle and axis rules.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")

    require_support(bg, "quadrature")

    if isinstance(bg, Plane):
        y, w = _gauss_gaussian_1d(resolution)
        pts, wts = y[:, None], w
        for _ in range(bg.n - 1):
            pts, wts = _tensor_product(pts, wts, y[:, None], w)
        return QuadratureRule(bg, resolution, pts, wts)

    if bg == Sphere(1):
        pts, wts = _circle_rule(bg.radius, total_mass(bg), resolution)
        return QuadratureRule(bg, resolution, pts, wts)

    if bg == Sphere(2):
        r = bg.radius
        u, w_gl = np.polynomial.legendre.leggauss(resolution)
        count = 2 * resolution
        phi = 2.0 * math.pi * np.arange(count) / count
        rho = (4.0 * math.pi) ** (-bg.n / 2.0) * math.exp(-bg.n / 2.0)
        sin_theta = np.sqrt(1.0 - u**2)
        # outer product over (polar, longitude)
        pts = np.empty((resolution * count, 3))
        pts[:, 0] = r * np.repeat(sin_theta, count) * np.tile(np.cos(phi), resolution)
        pts[:, 1] = r * np.repeat(sin_theta, count) * np.tile(np.sin(phi), resolution)
        pts[:, 2] = r * np.repeat(u, count)
        wts = rho * r**2 * np.repeat(w_gl, count) * (2.0 * math.pi / count)
        return QuadratureRule(bg, resolution, pts, wts)

    # Cylinder(1, 1)
    circle_pts, circle_w = _circle_rule(bg.radius, total_mass(Sphere(1)), resolution)
    y, w = _gauss_gaussian_1d(resolution)
    pts, wts = _tensor_product(circle_pts, circle_w, y[:, None], w)
    return QuadratureRule(bg, resolution, pts, wts)
