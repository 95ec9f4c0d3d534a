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

Every background is a round factor times flat axes, S^n_{sqrt(2n)} x R^m,
and declares the two numbers ``sphere_n`` = n (0 for no round factor) and
``flat_m`` = m; the round factor takes the first n + 1 ambient coordinates
and the axes the last m.  The radius sqrt(2n) is forced by H = -(n/r) nu
and x_perp = r nu on the round factor: -(n/r^2) x = -x/2.  The measure
factors over the product, so mass, kappa, the rule and the geometry are
each one path over the two numbers: the mass is the round factor's times 1
per axis (a standard Gaussian with variance 2), kappa is the round factor's
n / r^2 = 1/2 or 0, and a rule is the round factor's times Gauss-Hermite
per axis.  Every background carries closed-form pointwise support (modes,
geometry, quadrature); what it costs follows from its shape alone.

* ``Plane(n)``     -- (0, n): totally geodesic, x_perp = 0, kappa = 0.
* ``Sphere(n)``    -- (n, 0): the round n-sphere of radius sqrt(2n).
* ``Cylinder(k, m)`` -- (k, m): S^k_{sqrt(2k)} x R^m.

Every polynomial integrates in closed form by ``monomial_moments``.  Each
``QuadratureRule`` keeps its nodes and weights and builds the tangent
projector at the nodes a caller asks for.  The curvature bound
sup <H, A> = kappa / (-t) reduces at unit scale to n / r^2 on a round
factor: 0 on planes and 1/2 on spheres and cylinders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

_MAX_RULE_POINTS = 1 << 20  # points of the largest rule quadrature builds; checks hold arrays of points x d x d


class Background:
    """S^sphere_n_{sqrt(2 sphere_n)} x R^flat_m, with sphere_n = 0 for no round factor; frozen and hashable."""

    sphere_n: int
    flat_m: int

    def __post_init__(self) -> None:
        if any(getattr(self, f.name) < 1 for f in fields(self)):
            raise ValueError(f"background sizes must be >= 1, got {self.label()}")

    @property
    def ambient_dim(self) -> int:
        return self.sphere_n + (self.sphere_n > 0) + self.flat_m

    @property
    def radius_squared(self) -> float:
        # forced by the soliton equation: H = -(n/r) nu must equal -r nu / 2
        return 2.0 * self.sphere_n

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_squared)

    def label(self) -> str:
        sizes = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return f"{type(self).__name__.lower()}({sizes})"


@dataclass(frozen=True)
class Plane(Background):
    n: int
    sphere_n = 0
    flat_m = property(lambda self: self.n)


@dataclass(frozen=True)
class Sphere(Background):
    n: int
    sphere_n = property(lambda self: self.n)
    flat_m = 0


@dataclass(frozen=True)
class Cylinder(Background):
    k: int
    m: int
    sphere_n = property(lambda self: self.k)
    flat_m = property(lambda self: self.m)


# ---------------------------------------------------------------------------
# measure


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit n-sphere in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def total_mass(bg: Background) -> float:
    """Closed-form total unit-scale Gaussian mass: the round factor's, times 1 per Gaussian axis."""
    n = bg.sphere_n
    if not n:
        return 1.0
    return (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0) * unit_sphere_area(n) * bg.radius**n


def kappa(bg: Background) -> float:
    """Curvature constant: sup of the largest eigenvalue of <H, A(.,.)> at unit scale.

    Planes are totally geodesic (0).  For a round factor of radius
    r = sqrt(2n), <H, A> = (n / r^2) g restricted to the factor, so the
    supremum is n / (2n) = 1/2 regardless of the factor dimension.
    """
    return bg.sphere_n / bg.radius_squared if bg.sphere_n else 0.0


def monomial_moments(bg: Background, exponents: np.ndarray) -> np.ndarray:
    """The integral of y^alpha over the unit-scale measure, for each row alpha of the (N, d) integer ``exponents``.

    A moment is the round factor's times, per axis, a Gaussian's of variance 2, alpha! / (alpha/2)!.  On S^k(r) it is
    rho r^(k + |alpha|) 2 prod Gamma((alpha_i + 1)/2) / Gamma((|alpha| + k + 1)/2), with rho = (4 pi)^(-k/2) e^(-k/2)
    the density there.  Any odd exponent gives 0.
    """
    exps, n = np.asarray(exponents, dtype=np.int64), bg.sphere_n
    odd = [e % 2 for e in range(int(exps.max(initial=0)) + 1)]
    axis = np.array([0.0 if o else float(math.factorial(e) // math.factorial(e // 2)) for e, o in enumerate(odd)])
    out = np.prod(axis[exps[:, n + (n > 0) :]], axis=1)
    if n:
        head, half = exps[:, : n + 1], np.array([0.0 if o else math.gamma((e + 1) / 2.0) for e, o in enumerate(odd)])
        rho, size = (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0), head.sum(axis=1)
        # r^(k + |alpha|) as r^k (2k)^(|alpha|/2); an odd |alpha| has an odd exponent, whose zero ``half`` carries
        degree = [rho * bg.radius**n * bg.radius_squared ** (s // 2) * 2.0 / math.gamma((s + n + 1) / 2.0)
                  for s in range(int(size.max(initial=0)) + 1)]
        out = out * np.array(degree)[size] * np.prod(half[head], axis=1)
    return out


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the unit-scale weighted measure of a background.

    ``sum(weights * f(points))`` approximates the dmu integral of f; the
    weights absorb the Gaussian density, so the weight sum equals the total
    mass (exactly 1 on planes).  The rule keeps only its points and weights:
    ``tangent_projector()`` builds the projector at its points on each call.
    """

    background: Background
    resolution: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("points must be (N, d), weights (N,)")
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points/weights length mismatch")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray) -> float:
        """``sum(weights * values)`` as numpy's pairwise sum, not a BLAS dot, which splits long sums across threads."""
        return float(np.add.reduce(self.weights * values))

    def require_background(self, bg: Background) -> None:
        """Refuse data that lives on another background than this rule."""
        if bg != self.background:
            raise ValueError("quadrature rule background does not match the field")

    def tangent_projector(self) -> np.ndarray:
        """The (N, d, d) tangent projector I - nu nu^T at the points, built on each call; views on planes."""
        pts, n = self.points, self.background.sphere_n
        count, d = pts.shape
        if not n:
            return np.broadcast_to(np.eye(d), (count, d, d))
        nu = np.zeros((count, d))
        nu[:, : n + 1] = pts[:, : n + 1] / self.background.radius
        return np.eye(d) - nu[:, :, None] * nu[:, None, :]


def _gauss_gaussian_1d(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int f(y) (4 pi)^(-1/2) e^(-y^2/4) dy, exact to degree 2*res - 1."""
    x, w = np.polynomial.hermite.hermgauss(resolution)
    return 2.0 * x, w / math.sqrt(math.pi)


def _polar_rule(p: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the polar cosine of S^p, weight (1 - u^2)^((p - 2)/2) on [-1, 1].

    Gauss-Legendre for p = 2; else Golub-Welsch, the eigenpairs of the symmetric Jacobi matrix.
    """
    if p == 2:
        return np.polynomial.legendre.leggauss(resolution)
    a, j = (p - 2) / 2.0, np.arange(1, resolution)
    off = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    u, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return u, math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5) * vectors[0] ** 2


def _round_rule(bg: Background, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule on the round factor: 2 * resolution angles on a circle, times one Gauss polar cosine per S^p, p >= 2.

    The polar cosine of S^n is outermost and the angle innermost: x_p = r u_p times the sines of the polar
    angles above p, and x_0, x_1 are those sines times r (cos, sin) of the angle.  Without a round factor it is
    one point.
    """
    n, r = bg.sphere_n, bg.radius
    if not n:
        return np.zeros((1, 0)), np.ones(1)
    count = 2 * resolution
    phi = 2.0 * math.pi * np.arange(count) / count
    if n == 1:
        return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1), np.full(count, total_mass(bg) / count)
    rho = (4.0 * math.pi) ** (-n / 2.0) * math.exp(-n / 2.0)
    scale, cols, wts = np.array([r]), [], np.array([rho * r**n])  # per point: r times the sines so far
    for p in range(n, 1, -1):
        u, w = _polar_rule(p, resolution)
        size, scale = len(scale), np.repeat(scale, resolution)
        cols = [scale * np.tile(u, size), *(np.repeat(c, resolution) for c in cols)]
        scale, wts = scale * np.tile(np.sqrt(1.0 - u**2), size), np.repeat(wts, resolution) * np.tile(w, size)
    pts = np.empty((len(scale) * count, n + 1))
    pts[:, 0] = np.repeat(scale, count) * np.tile(np.cos(phi), len(scale))
    pts[:, 1] = np.repeat(scale, count) * np.tile(np.sin(phi), len(scale))
    for i, col in enumerate(cols, start=2):
        pts[:, i] = np.repeat(col, count)
    return pts, np.repeat(wts, count) * (2.0 * math.pi / count)


def _tensor_product(
    pts_a: np.ndarray, w_a: np.ndarray, pts_b: np.ndarray, w_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    na, nb = pts_a.shape[0], pts_b.shape[0]
    left = np.repeat(pts_a, nb, axis=0)
    right = np.tile(pts_b, (na, 1))
    return np.concatenate([left, right], axis=1), np.repeat(w_a, nb) * np.tile(w_b, na)


def quadrature(bg: Background, resolution: int) -> QuadratureRule:
    """Build the unit-scale rule for a background: its round rule times Gauss-Hermite per axis.

    Each axis takes ``resolution`` Gauss-Hermite nodes (polynomial-exact to
    degree 2*resolution - 1 per axis).  A round factor S^k takes
    2*resolution uniform angles times ``resolution`` Gauss nodes in the polar
    cosine of each S^p, p = 2..k, of weight (1 - u^2)^((p-2)/2): Gauss-Legendre
    on S^2.  So S^k x R^m has 2N * N^(k-1) * N^m points for N = resolution,
    and the rule is exact for every polynomial of degree up to 2N - 1.  A rule
    above ``_MAX_RULE_POINTS`` points is refused before anything is built.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    size = (2 * resolution ** bg.sphere_n if bg.sphere_n else 1) * resolution**bg.flat_m
    if size > _MAX_RULE_POINTS:
        raise ValueError(
            f"resolution {resolution} asks for {size} quadrature points on {bg.label()}, "
            f"above the limit of {_MAX_RULE_POINTS}; state a smaller resolution"
        )

    pts, wts = _round_rule(bg, resolution)
    y, w = _gauss_gaussian_1d(resolution)
    for _ in range(bg.flat_m):
        pts, wts = _tensor_product(pts, wts, y[:, None], w)
    return QuadratureRule(bg, resolution, pts, wts)
